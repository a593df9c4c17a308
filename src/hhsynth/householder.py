"""Householder reflections for column reduction, and the sparse update.

One construction gives every reflection: the standard reflection
``H_u = I - 2|u><u|`` sending a unit column ``w`` to ``e^{i theta}|t>``.
:func:`reflection` builds its ``u`` and phase, dividing part by part,
from an array column, and :func:`sparse_reflection` from a sparse one
gathered onto its rows; :func:`reflect` applies ``H_u``.  The
normalization ``1 + |w_t|`` is at least 1, so the construction is stable
for every column.  The decompositions reduce columns with it, and the
simulator applies every state-preparation block as it (target 0, after a
phase on |0..0>; ``gates.SPBlock``), without a dense matrix.

:func:`reduce_column` applies the reflection sending column ``j`` of a
sparse isometry to basis row ``i`` directly on the column storage via the
rank-one update

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

from .numerics import EPS0, SparseIsometry


def target_phase(a: complex) -> tuple[float, complex]:
    """``(theta, e^{i theta})`` of the entry a column keeps on its target
    row when the entry there is ``a``: ``e^{i theta} = -a / |a|``, or
    ``(0, 1)`` when ``a`` vanishes."""
    if abs(a) <= EPS0:
        return 0.0, 1.0 + 0j
    return math.pi + cmath.phase(a), -a / abs(a)


def divide_parts(z: np.ndarray, x: float) -> np.ndarray:
    """The contiguous complex array ``z`` divided in place by a positive
    float, each part on its own, as Python's complex-by-float division
    rounds (numpy's ``z / x`` multiplies by ``1 / x``, which differs in the
    last bit); returns ``z``."""
    z.view(np.float64)[:] /= x
    return z


def reflection(w: np.ndarray, t: int) -> tuple[np.ndarray, complex]:
    """Householder vector ``u = (w - e^{i theta}|t>) / sqrt(2 (1 + |w_t|))``
    and ``e^{i theta}`` (:func:`target_phase`) reducing a unit complex column
    ``w`` (an array or a list) to position ``t``.  ``u`` is one copy of
    ``w``, not pruned, divided in place part by part (:func:`divide_parts`)."""
    at = complex(w[t])
    _, eith = target_phase(at)
    u = np.array(w, dtype=complex)
    u[t] -= eith
    return divide_parts(u, math.sqrt(2.0 * (1.0 + abs(at)))), eith


def sparse_reflection(col: dict[int, complex], t: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reflection` of a sparse unit column to row ``t`` as ``(rows, u)``:
    the sorted int64 rows of the column and ``t`` where ``|u| > EPS0``."""
    rows = sorted(col.keys() | {t})
    u, _ = reflection([col.get(r, 0j) for r in rows], rows.index(t))
    keep = np.abs(u) > EPS0
    return np.array(rows, dtype=np.int64)[keep], u[keep]


def reflect(u: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``H_u block`` for ``H_u = I - 2|u><u|``, in place in ``block`` (the
    factor 2 is exact, so this rounds as ``block - 2 |u><u| block`` does)."""
    block -= np.outer(u, 2.0 * (u.conj() @ block))
    return block


@dataclass
class ReductionRecord:
    """What one call to :func:`reduce_column` did to the matrix."""

    theta: float  # the surviving entry is e^{i theta}
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
    row = w.row(i)
    aij = col.get(i, 0j)
    theta, eith = target_phase(aij)
    rec = ReductionRecord(theta=theta)
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
