"""Run one sparse isometry through all four decomposition methods.

Each method reduces the matrix column by column with reflections and ends
in a small permutation + diagonal; they differ in how they fight fill-in:

* dense        -- ignores sparsity, one full-width reflection per column
* sparse       -- reflections implemented sparsely via pivoting
* fixed-env    -- no pivoting; reflections confined by the envelope, with a
                  decrement gate shifting finished rows out of the way
* no-fill-in   -- one clean ancilla doubles the row space so every column
                  lands in a fresh empty row; fill-in cannot occur

All four are verified exact by simulation; the audit shows their costs.
"""

import numpy as np

import hhsynth as hh

rng = np.random.default_rng(11)
n, m = 5, 2

# a genuinely sparse isometry: a phased partial permutation stirred by a
# few two-row rotations
rows = rng.choice(1 << n, size=1 << m, replace=False)
dense = np.zeros((1 << n, 1 << m), dtype=complex)
for j, r in enumerate(rows):
    dense[r, j] = np.exp(2j * np.pi * rng.uniform())
for _ in range(6):
    occupied = [r for r in range(1 << n) if np.any(np.abs(dense[r]) > 1e-12)]
    r1 = int(rng.choice(occupied))
    r2 = int(rng.choice([r for r in range(1 << n) if r != r1]))
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(a)
    dense[[r1, r2], :] = q @ dense[[r1, r2], :]
w = hh.SparseIsometry.from_dense(dense)
print(f"isometry: {m} -> {n} qubits, nnz = {w.nnz} of {2 ** (n + m)}")

strategy = hh.greedy_order(w)
elim = hh.elim_count(w, strategy)
print(f"greedy elimination strategy: {elim} eliminations expected\n")

dirty1 = hh.AncillaRegime.with_dirty(1)
results = {
    "dense": hh.dense_householder_iso(w.to_dense(), dirty1),
    # trace_entries: the step trace lists the entries, the fill-in among them
    "sparse": hh.sparse_householder_iso(w, strategy, dirty1, seed=1, trace_entries=True),
    "fixed-env": hh.fixed_envelope_iso(w, strategy, dirty1, seed=1),
    "no-fill-in": hh.no_fill_in_iso(w, hh.AncillaRegime(clean=1, dirty=1), seed=1),
}

print(f"{'method':<12} {'gates':>6} {'CNOTs':>6}  exact?")
for name, res in results.items():
    eq = hh.equivalent(res.circuit, w, "exact", 1e-9)
    print(f"{name:<12} {len(res.circuit.gates):>6} {res.audit.total:>6}  "
          f"{eq.ok} (residual {eq.residual:.1e})")

print("\nper-step trace of the sparse method (column, target, nnz, fill-in):")
for t in results["sparse"].trace:
    tag = "skipped" if t.skipped else f"fill-in at {sorted(t.fill_in)}"
    print(f"  step {t.step}: column {t.column} -> row {t.target_current}, "
          f"nnz {t.nnz}, {tag}")
