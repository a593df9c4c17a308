"""Envelopes, orderings and how they bound elimination work.

The envelope of a matrix maps each column to the running maximum of its
lowest nonzero row; the summed gap to the diagonal (ed) upper-bounds the
eliminations any matching strategy can incur.  Good row/column orders
shrink it.  This script shows the worked 4x4 pattern, then compares three
strategies on random matrices: identity, the optimal row packing under the
identity column order, and the greedy column order (whose rows are already
packed optimally for that order).
"""

import numpy as np

import hhsynth as hh
from hhsynth.numerics import apply_permutations

# the worked pattern: one full row, envelope (3,3,3,3), ed = 6
pattern = [(0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 0), (3, 2)]
w = hh.SparseIsometry(2, 2)
rng = np.random.default_rng(0)
for (i, j) in pattern:
    w.set(i, j, complex(rng.normal(), rng.normal()))

prof = hh.envelope(w)
print(f"4x4 pattern: env = {prof.env.tolist()}, ed = {prof.ed}")

rho = hh.optimal_row_perm(w)
reordered = apply_permutations(w, rho, np.arange(4))
prof2 = hh.envelope(reordered)
print(f"after optimal row packing: env = {prof2.env.tolist()}, ed = {prof2.ed}")

strategy = hh.greedy_order(w)
print(f"greedy order: first column {strategy.step_column(0)}, "
      f"elim = {hh.elim_count(w, strategy)}\n")

# random comparison of the strategies
print(f"{'trial':>5} {'ed(id)':>7} {'ed(rows)':>9} {'ed(greedy)':>11} "
      f"{'elim(greedy)':>13}")
rng = np.random.default_rng(3)
for trial in range(8):
    rows = rng.choice(32, size=8, replace=False)
    dense = np.zeros((32, 8), dtype=complex)
    for j, r in enumerate(rows):
        dense[r, j] = 1.0
    for _ in range(6):
        r1, r2 = rng.choice(32, size=2, replace=False)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        dense[[r1, r2], :] = q @ dense[[r1, r2], :]
    w = hh.SparseIsometry.from_dense(dense)
    greedy = hh.greedy_order(w)
    ed0 = hh.envelope(w).ed
    edr = hh.envelope(apply_permutations(w, hh.optimal_row_perm(w), np.arange(1 << w.m))).ed
    edg = hh.envelope(apply_permutations(w, greedy.rho, greedy.sigma)).ed
    print(f"{trial:>5} {ed0:>7} {edr:>9} {edg:>11} {hh.elim_count(w, greedy):>13}")
