"""Small sparse-state-preparation benchmark.

Draws random states with 2^s nonzeros at uniform positions, compiles them
without ancillas, and reports mean CNOT counts per (n, s) cell against the
clean-ancilla reference line (n + 6s - 7 + 23/24) 2^s, column `ref` (a
reference, not a bound: it is negative for s = 0 and n <= 6).  The full-size run
is `hhsynth bench ssp --n 8-16 --s 1,2,3 --trials 200 -o out.csv`; the CSV
plots with any tool, e.g.
pandas.read_csv("out.csv").groupby(["n","s"]).cnots.mean().unstack().plot().
"""

import numpy as np

from hhsynth import bench

rows = bench.bench_ssp(ns=range(8, 15, 2), ss=(1, 2, 3), trials=50, seed=0)
cells = bench.summarize(rows)

print(f"{'n':>3} {'s':>3} {'mean':>9} {'sem':>7} {'ref':>9}")
for (n, s), cell in cells.items():
    print(f"{n:>3} {s:>3} {cell['mean']:>9.2f} {cell['sem']:>7.2f} {cell['ref']:>9.2f}")

print("\nlinear fits (mean CNOTs vs n):")
for s in (1, 2, 3):
    ns = sorted({n for (n, ss) in cells if ss == s})
    y = np.array([cells[(n, s)]["mean"] for n in ns])
    x = np.array(ns, dtype=float)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    print(f"  s={s}: {coef[0]:.2f} n + {coef[1]:.2f}   (R^2 = {r2:.4f})")
