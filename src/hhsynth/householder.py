"""Householder reflections between states and sparse column reduction.

A standard reflection is ``H_u = I - 2|u><u|``; the generalized form is
``H_u^phi = I + (e^{i phi} - 1)|u><u|``.  Given unit states ``v`` and ``w``,

* :func:`standard_pair_reflection` builds ``u`` so that
  ``H_u |v> = e^{i theta}|w>`` with ``theta = pi - arg(<v|w>)`` (or 0 when
  the overlap vanishes).  The normalization ``1 + |<v|w>|`` is bounded away
  from zero, so this path is unconditionally stable.
* :func:`generalized_pair_reflection` fixes the phase (``H |v> = |w>``)
  at the price of a normalization ``z = 1 - <v|w>`` that can be small; the
  computation runs in extended precision and below ``|z| <= IDENTITY_DELTA``
  the rotation is skipped, returning an :class:`IdentityMarker` that records
  the approximation error ``||v - w||``.

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

from .numerics import EPS0, SparseIsometry, prune_state, state_norm

IDENTITY_DELTA = 1e-8


@dataclass(frozen=True)
class HouseholderSpec:
    """A reflection descriptor: unit vector ``u``, phase ``phi``, target
    phase ``theta``; ``standard`` means ``phi == pi`` exactly."""

    u: dict[int, complex]
    phi: float
    theta: float
    standard: bool
    z: complex  # normalization diagnostic

    def __post_init__(self):
        nrm = state_norm(self.u)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"Householder vector norm {nrm} is not 1")
        if self.standard and self.phi != math.pi:
            raise ValueError("standard reflection requires phi == pi")

    def dense(self, n: int) -> np.ndarray:
        """The 2^n x 2^n matrix I + (e^{i phi} - 1) |u><u|."""
        h = np.eye(1 << n, dtype=complex)
        c = cmath.exp(1j * self.phi) - 1.0
        for k, ak in self.u.items():
            for l, al in self.u.items():
                h[k, l] += c * ak * al.conjugate()
        return h


@dataclass(frozen=True)
class IdentityMarker:
    """Returned when the requested rotation is numerically negligible."""

    residual: float  # ||v - w||, the error incurred by skipping


def _check_unit(v: dict[int, complex], name: str) -> None:
    nrm = state_norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"{name} has norm {nrm}, expected a unit state")


def standard_pair_reflection(v: dict[int, complex], w: dict[int, complex]) -> HouseholderSpec:
    """Reflection with H_u |v> = e^{i theta} |w>, theta = pi - arg(<v|w>)."""
    _check_unit(v, "v")
    _check_unit(w, "w")
    ip = complex(sum(a.conjugate() * w[k] for k, a in v.items() if k in w))
    if abs(ip) <= EPS0:
        theta = 0.0
    else:
        theta = math.pi - cmath.phase(ip)
    eith = cmath.exp(1j * theta)
    diff = dict(v)
    for k, a in w.items():
        diff[k] = diff.get(k, 0j) - eith * a
    nrm = math.sqrt(2.0 * (1.0 + abs(ip)))
    u = {k: a / nrm for k, a in diff.items() if abs(a) > EPS0}
    return HouseholderSpec(u=u, phi=math.pi, theta=theta, standard=True, z=1.0 + abs(ip))


def generalized_pair_reflection(
    v: dict[int, complex], w: dict[int, complex], delta: float = IDENTITY_DELTA
):
    """Reflection with H_u^phi |v> = |w| exactly, or an IdentityMarker.

    Works in extended precision: ``z = 1 - <v|w>`` suffers cancellation when
    the states nearly coincide, and ``phi = pi + 2 arg(z)`` inherits the
    error.  Below ``|z| <= delta`` the transformation is skipped.
    """
    _check_unit(v, "v")
    _check_unit(w, "w")
    keys = sorted(set(v) | set(w))
    va = np.array([v.get(k, 0j) for k in keys], dtype=np.clongdouble)
    wa = np.array([w.get(k, 0j) for k in keys], dtype=np.clongdouble)
    ip = np.sum(va.conjugate() * wa)
    z = np.clongdouble(1.0) - ip
    diff = va - wa
    # 2 Re z = ||v - w||^2; the entrywise form avoids the cancellation in z.
    nrm2 = np.sum(np.abs(diff) ** 2)
    if abs(complex(z)) <= delta:
        return IdentityMarker(residual=float(np.sqrt(nrm2)))
    ua = diff / np.sqrt(nrm2)
    u = {k: complex(a) for k, a in zip(keys, ua) if abs(complex(a)) > EPS0}
    phi = math.pi + 2.0 * math.atan2(float(z.imag), float(z.real))
    # wrap into (-pi, pi]
    phi = math.remainder(phi, 2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    return HouseholderSpec(u=u, phi=phi, theta=0.0, standard=False, z=complex(z))


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
