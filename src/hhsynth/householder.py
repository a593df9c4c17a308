"""Householder reflections for column reduction, and the sparse update.

One construction gives every reflection: the standard reflection
``H_u = I - 2|u><u|`` sending a unit column ``w`` to ``e^{i theta}|t>``.
:func:`reduction_vector` builds its ``u`` from a sparse column,
:func:`reduction_array` from a column held as an array, and
:func:`target_phase` its phase; the normalization ``1 + |w_t|`` is at
least 1, so the construction is stable for every column.  The
decompositions reduce columns with it, and the simulator applies every
state-preparation block as it (target 0, after a phase on |0..0>;
``gates.SPBlock``), without a dense matrix.

:func:`reduce_column` applies the reflection sending column ``j`` of a
sparse isometry to basis row ``i`` directly on the dual-index storage via
the rank-one update

    V'[s, t] = V[s, t] + e^{-i theta} * V[s, j] * V[i, t] / (1 + |V[i, j]|)

touching only rows where column ``j`` is nonzero and columns where row ``i``
is nonzero.  An entry outside row ``i``/column ``j`` can change if and only
if both ``V[i, t]`` and ``V[s, j]`` are nonzero (:func:`fill_in_predicate`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import EPS0, SparseIsometry, prune_state


def target_phase(a: complex) -> tuple[float, complex]:
    """``(theta, e^{i theta})`` of the entry a column keeps on its target
    row when the entry there is ``a``: ``e^{i theta} = -a / |a|``, or
    ``(0, 1)`` when ``a`` vanishes."""
    if abs(a) <= EPS0:
        return 0.0, 1.0 + 0j
    return math.pi + cmath.phase(a), -a / abs(a)


def reduction_vector(
    col: dict[int, complex], target: int
) -> tuple[dict[int, complex], float]:
    """Householder vector and theta reducing a unit column to basis row
    ``target``: u = (w - e^{i theta}|target>) / ||.||, theta = pi + arg(w_t)
    (theta = 0 when the target entry vanishes)."""
    at = col.get(target, 0j)
    theta, eith = target_phase(at)
    nrm = math.sqrt(2.0 * (1.0 + abs(at)))
    u = {k: a / nrm for k, a in col.items()}
    u[target] = (at - eith) / nrm
    return prune_state(u), theta


def reduction_array(w: np.ndarray, t: int, eith: complex) -> tuple[np.ndarray, float]:
    """Array form of :func:`reduction_vector` for a unit complex column
    ``w`` held as an array, with ``eith`` the :func:`target_phase` of
    ``w[t]``: ``w - eith |t>`` (a new array over the same positions, not
    pruned) and its norm ``sqrt(2 (1 + |w_t|))``; ``u`` is their quotient.
    The caller divides, and so keeps its own rounding: the dense paths'
    circuits are built with numpy's complex-by-float division, and
    ``gates.SPBlock`` divides each part, as :func:`reduction_vector` does."""
    v = w.copy()
    v[t] -= eith
    return v, math.sqrt(2.0 * (1.0 + abs(w[t])))


@dataclass
class ReductionRecord:
    """What one call to :func:`reduce_column` did to the matrix."""

    theta: float  # the surviving entry is e^{i theta}
    nnz_before: int  # nonzeros of the column before reduction
    modified: list[tuple[int, int]] = field(default_factory=list)
    fill_in: list[tuple[int, int]] = field(default_factory=list)  # subset of modified
    eliminated: list[tuple[int, int]] = field(default_factory=list)  # column entries removed


def fill_in_predicate(w: SparseIsometry, i: int, j: int, s: int, t: int) -> bool:
    """True iff reducing column ``j`` to row ``i`` changes entry ``(s, t)``
    (for s != i, t != j): both W[i, t] and W[s, j] must be nonzero."""
    return abs(w.get(i, t)) > EPS0 and abs(w.get(s, j)) > EPS0


def reduce_column(w: SparseIsometry, j: int, i: int) -> ReductionRecord:
    """In-place reflection sending column ``j`` to ``e^{i theta} |i>``.

    Runs in O(n * modified) index operations.  Requires exclusive access.
    """
    if not (0 <= i < (1 << w.n)) or not (0 <= j < (1 << w.m)):
        raise IndexError(f"target ({i}, {j}) out of range for shape {w.shape}")
    col = dict(w.col(j))
    if not col:
        raise ValueError(f"column {j} is zero")
    row = dict(w.row(i))
    aij = col.get(i, 0j)
    theta, eith = target_phase(aij)
    rec = ReductionRecord(theta=theta, nnz_before=len(col))
    coeff = eith.conjugate() / (1.0 + abs(aij))
    for s, asj in col.items():
        if s == i:
            continue
        for t, ait in row.items():
            if t == j:
                continue
            old = w.get(s, t)
            new = old + coeff * asj * ait
            w.set(s, t, new)
            rec.modified.append((s, t))
            if abs(old) <= EPS0:
                rec.fill_in.append((s, t))
    for t in row:
        if t != j:
            w.set(i, t, 0j)
    for s in col:
        if s != i:
            w.set(s, j, 0j)
            rec.eliminated.append((s, j))
    w.set(i, j, eith)
    return rec
