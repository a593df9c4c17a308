"""Prepare a sparse state and inspect the circuit it compiles to.

A state with nnz nonzero amplitudes needs dense preparation only on
s = ceil(log2 nnz) qubits once its nonzeros are grouped into one block;
the grouping is a cheap permutation circuit.  This script compiles one
random 10-qubit state with 4 nonzeros, verifies it by simulation, and
compares the audited CNOT count against dense preparation.
"""

import numpy as np

import hhsynth as hh
from hhsynth.bench import random_sparse_state
from hhsynth.numerics import state_to_vector

n, nnz = 10, 4
rng = np.random.default_rng(42)
state = random_sparse_state(n, nnz, rng)

print(f"target: {n}-qubit state, nonzeros at {sorted(state)}")

circuit = hh.sparse_state_prep_on(state, n, seed=rng)
print(f"\ncompiled gate list ({len(circuit.gates)} gates):")
for g in circuit.gates:
    print(f"  {g.describe()}")

# exact verification: apply the circuit to |0...0>
zero = np.zeros(1 << n, dtype=complex)
zero[0] = 1.0
out = hh.simulate_on_state(circuit, zero)
err = np.max(np.abs(out - state_to_vector(state, n)))
print(f"\nmax amplitude error vs target: {err:.2e}")

# cost audit vs the dense alternative
report = hh.audit_circuit(circuit)
print("\nCNOT audit (no ancillas):")
for gate, formula, cnots in report.breakdown:
    print(f"  {gate:<24} {cnots:>5}  ({formula})")
print(f"  total: {report.total}")
print(f"dense preparation of all {n} qubits would cost {hh.cost_dense_sp(n)} CNOTs")
