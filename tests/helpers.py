"""Shared generators and oracles for the test suite."""

import numpy as np

from hhsynth import gates as G
from hhsynth import householder as hh
from hhsynth.numerics import SparseIsometry, ValidationReport


def random_u2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(n, m, rng):
    a = rng.normal(size=(1 << n, 1 << m)) + 1j * rng.normal(size=(1 << n, 1 << m))
    q, _ = np.linalg.qr(a)
    return q


def random_sparse_isometry(n, m, rotations, rng):
    """Exact sparse isometry: a phased partial permutation stirred by
    ``rotations`` random two-row rotations (each can roughly double nnz)."""
    rows = rng.choice(1 << n, size=1 << m, replace=False)
    a = np.zeros((1 << n, 1 << m), dtype=complex)
    for j, r in enumerate(rows):
        a[r, j] = np.exp(2j * np.pi * rng.uniform())
    for _ in range(rotations):
        r1, r2 = rng.choice(1 << n, size=2, replace=False)
        a[[r1, r2], :] = random_u2(rng) @ a[[r1, r2], :]
    return SparseIsometry.from_dense(a)


def random_state_dict(n, nnz, rng):
    pos = rng.choice(1 << n, size=nnz, replace=False)
    amps = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    amps /= np.linalg.norm(amps)
    return {int(p): complex(a) for p, a in zip(pos, amps)}


def unique_block_score(block_mask, pattern):
    """(occupancy of the fullest block, its masked index) of one block mask,
    ties to the smallest block, by ``np.unique``: the per-candidate scorer
    that ``pivoting.block_scores`` batches, kept as its oracle."""
    masked, counts = np.unique(np.asarray(pattern, dtype=np.int64) & block_mask, return_counts=True)
    k = int(np.argmax(counts))
    return int(counts[k]), int(masked[k])


def word_dense(word, n):
    """The 2^n x 2^n matrix of a word of index-map gates, evaluated by
    ``gates.relabel`` on every basis index: the oracle of a residual."""
    idx = np.arange(1 << n)
    dst, ph = G.relabel(word, n, idx)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    out[dst, idx] = ph
    return out


def state_arrays(v):
    """A sparse state dict as ``(rows, amps)`` arrays, in the dict's order."""
    return (
        np.fromiter(v, dtype=np.int64, count=len(v)),
        np.fromiter(v.values(), dtype=complex, count=len(v)),
    )


def dense_reflection(rows, amps, n):
    """I - 2|u><u| from a sparse unit vector: ``amps`` on ``rows``."""
    u = np.zeros(1 << n, dtype=complex)
    u[rows] = amps
    return np.eye(1 << n, dtype=complex) - 2.0 * np.outer(u, u.conj())


def complete_state_prep(v, k):
    """The dense 2^k x 2^k unitary an ``SPBlock`` on k qubits with state
    ``v`` applies: the reflection I - 2|u><u| sending ``v`` to
    e^{i theta}|0..0>, u = (v - e^{i theta}|0..0>) / sqrt(2 (1 + |v_0|)) on
    the whole basis (no entry dropped, however small), with its column 0
    replaced by ``v`` itself, which equals H_u after the phase e^{i theta}
    on |0..0>.  The oracle of the simulator's rank-two form."""
    w = np.zeros(1 << k, dtype=complex)
    w[list(v)] = list(v.values())
    w /= np.linalg.norm(w)
    _, eith = hh.target_phase(w[0])
    u = w.copy()
    u[0] -= eith
    u /= np.sqrt(2.0 * (1.0 + abs(w[0])))
    h = np.eye(1 << k, dtype=complex) - 2.0 * np.outer(u, u.conj())
    h[:, 0] = w
    return h


def controlled_matrix(controls, target, u, nq):
    """The 2^nq x 2^nq matrix of the 2x2 ``u`` on ``target`` where every
    (qubit, polarity) pair of ``controls`` holds, built entry by entry."""

    def bit(x, q):
        return (x >> (nq - 1 - q)) & 1

    out = np.zeros((1 << nq, 1 << nq), dtype=complex)
    for col in range(1 << nq):
        on = all(bit(col, q) == p for q, p in controls)
        for row in range(1 << nq):
            if any(bit(row, q) != bit(col, q) for q in range(nq) if q != target):
                continue
            if on:
                out[row, col] = u[bit(row, target), bit(col, target)]
            elif row == col:
                out[row, col] = 1.0
    return out


def near_phased_zero(k, dist, alpha, rng):
    """A unit state at distance about ``dist`` from e^{i alpha}|0..0>, on a
    random support; every nonzero entry has modulus above 1e-10."""
    d = 1 << k
    support = np.flatnonzero(rng.random(d - 1) < 0.7) + 1
    if len(support) == 0:
        support = np.array([1 + rng.integers(d - 1)])
    noise = rng.uniform(0.5, 1.0, len(support)) * np.exp(2j * np.pi * rng.random(len(support)))
    v = np.zeros(d, dtype=complex)
    v[0] = np.exp(1j * alpha)
    v[support] = dist * noise / np.linalg.norm(noise)
    return v / np.linalg.norm(v)


def dense_reduction_steps(v, cols):
    """Replay the dense reduction of the first ``cols`` columns of ``v``:
    yields ``(i, before, after, u)`` per step, with ``u`` None (and
    ``after`` the block itself) on a skipped step."""
    work = np.array(v, dtype=complex)
    for i in range(cols):
        col = work[:, i]
        off = np.abs(col) ** 2
        off[i] = 0.0
        if np.sqrt(float(np.sum(off))) <= 1e-12:
            yield i, work, work, None
            continue
        a = col[i]
        eith = -a / abs(a) if abs(a) > 1e-12 else 1.0 + 0j
        u = col.copy()
        u[i] -= eith
        u /= np.sqrt(2.0 * (1.0 + abs(a)))
        after = work - 2.0 * np.outer(u, u.conj() @ work)
        yield i, work, after, u
        work = after


def dense_unitary_levels(u):
    """The blocks the recursive halving of a dense unitary reduces, one per
    level: the first half of each block's columns is reduced, and the next
    block is the lower-right quarter with the reduced diagonal divided out."""
    work = np.array(u, dtype=complex)
    while work.shape[0] > 1:
        half = work.shape[0] // 2
        yield work, half
        for _, _, red, _ in dense_reduction_steps(work, half):
            pass
        delta = np.diag(red)[:half] / np.abs(np.diag(red)[:half])
        work = red[half:, half:] * delta.conj()[:, None]


def dense_circuit_action(state, circuit):
    """The circuit gate by gate on the full basis (``apply_gate``: the
    kernel on all 2^nq rows, with no live rows dropped or added): the
    oracle of the live-row simulator.  ``controlled_matrix`` and the block
    oracles check ``apply_gate`` itself."""
    nq = circuit.total_qubits
    for g in circuit.gates:
        state = G.apply_gate(state, g, nq)
    return state


def full_identity_action(circuit, restore_tol=1e-10, in_dim=None):
    """Reference for ``gates.circuit_unitary``: simulate the full 2^nq
    identity, slice out the data block for every allowed ancilla state and
    check the largest entry of each deviation from the embedded action."""
    nq = circuit.total_qubits
    n, a = circuit.n, len(circuit.ancillas)
    if in_dim is None:
        in_dim = 1 << n
    full = dense_circuit_action(np.eye(1 << nq, dtype=complex), circuit)
    dirty = [k for k, kind in enumerate(circuit.ancillas) if kind == "dirty"]
    u_data = None
    for bits in range(1 << len(dirty)):
        y = 0
        for k, pos in enumerate(dirty):
            y |= ((bits >> k) & 1) << (a - 1 - pos)
        in_cols = (np.arange(in_dim) << a) + y
        out_rows = (np.arange(1 << n) << a) + y
        if u_data is None:
            u_data = full[np.ix_(out_rows, in_cols)]
        expected = np.zeros((1 << nq, in_dim), dtype=complex)
        expected[out_rows] = u_data
        if np.max(np.abs(full[:, in_cols] - expected)) > restore_tol:
            raise G.CircuitVerificationError(f"ancilla state {y} not restored")
    return u_data


def dense_gram_report(w, tol):
    """``numerics.validate_isometry`` of a SparseIsometry through its dense
    2^m x 2^m Gram matrix, accumulated row by row: the oracle of the
    validator's sparse Gram."""
    ncols = 1 << w.m
    gram = np.zeros((ncols, ncols), dtype=complex)
    for _, row in sorted(w.rows.items()):
        items = sorted(row.items())
        for j, aj in items:
            for k, ak in items:
                gram[j, k] += aj.conjugate() * ak
    dev = np.abs(gram - np.eye(ncols))
    flat = int(np.argmax(dev))  # the first NaN, if any
    worst = (flat // ncols, flat % ncols)
    max_dev = float(dev[worst])
    ok = max_dev <= tol
    return ValidationReport(ok, max_dev, None if ok else worst)


# The worked 4x4 sparsity pattern used across the envelope examples, as
# (row, col) pairs, plus its row-reordered form (fullest row first).
PATTERN_4X4 = {
    (0, 3),
    (1, 0), (1, 1), (1, 2), (1, 3),
    (2, 1), (2, 2),
    (3, 0), (3, 2),
}
ROW_ORDER_4X4 = {1: 0, 3: 1, 2: 2, 0: 3}  # original row -> new position
PATTERN_4X4_ORDERED = {(ROW_ORDER_4X4[i], j) for (i, j) in PATTERN_4X4}
