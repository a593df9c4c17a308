"""Randomized sparse-state-preparation benchmark.

For each (n, s) cell, draws states with 2^s nonzero amplitudes at uniformly
random positions (the values do not affect any count, but are drawn anyway:
uniform on the complex unit disc, then normalized), compiles them with
:func:`~hhsynth.pivoting.sparse_state_prep_on`, and audits the CNOT count
under the requested ancilla regime.  Rows are deterministic functions of
(seed, n, s, trial), so trials can run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import costs as C
from . import pivoting as P

CSV_HEADER = "n,s,trial,nnz,cnots,ref"


def random_sparse_state(n: int, nnz: int, rng: np.random.Generator) -> dict[int, complex]:
    """Unit state with ``nnz`` nonzeros at distinct uniform positions."""
    if not (1 <= nnz <= (1 << n)):
        raise ValueError("need 1 <= nnz <= 2^n")
    pos = rng.choice(1 << n, size=nnz, replace=False)
    radius = np.sqrt(rng.uniform(size=nnz))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=nnz)
    amps = radius * np.exp(1j * angle)
    amps /= np.linalg.norm(amps)
    return {int(p): complex(a) for p, a in zip(pos, amps)}


@dataclass(frozen=True)
class BenchRow:
    n: int
    s: int
    trial: int
    nnz: int
    cnots: int
    ref: float  # the figure's dashed reference line, not a bound on cnots

    def csv(self) -> str:
        return f"{self.n},{self.s},{self.trial},{self.nnz},{self.cnots},{self.ref:.6g}"


def bench_ssp_row(
    n: int,
    s: int,
    trial: int,
    seed: int,
    regime: C.AncillaRegime,
    samples: int = 100,
) -> BenchRow:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, s, trial]))
    state = random_sparse_state(n, 1 << s, rng)
    circuit = P.sparse_state_prep_on(state, n, samples=samples, seed=rng)
    cnots = C.audit_circuit(circuit, regime).total
    return BenchRow(n, s, trial, len(state), cnots, C.fig_dashed_ssp_bound(n, s))


def bench_ssp(
    ns,
    ss,
    trials: int,
    seed: int = 0,
    regime: C.AncillaRegime = C.AncillaRegime.none(),
    samples: int = 100,
) -> list[BenchRow]:
    rows = []
    for n in ns:
        for s in ss:
            if s > n:
                continue
            for t in range(trials):
                rows.append(bench_ssp_row(n, s, t, seed, regime, samples))
    return rows


def summarize(rows: list[BenchRow]) -> dict[tuple[int, int], dict]:
    """Mean, standard error of the mean and reference line per (n, s) cell."""
    cells: dict[tuple[int, int], list[BenchRow]] = {}
    for r in rows:
        cells.setdefault((r.n, r.s), []).append(r)
    out = {}
    for key, group in sorted(cells.items()):
        counts = np.array([r.cnots for r in group], dtype=float)
        sem = float(counts.std(ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
        out[key] = {
            "mean": float(counts.mean()),
            "sem": sem,
            "ref": group[0].ref,
            "trials": len(group),
        }
    return out
