"""Structured gate alphabet, circuit container, simulator and equivalence.

Gates address qubits by index; qubit 0 is the most significant bit of a
basis index.  Multi-qubit subsets are tuples listed most-significant first,
and the "subset value" of a basis index collects those bits in that order.

A gate kind is one class here, which owns its qubits, inverse, text form,
JSON tag and action (an index map, or a dense action), plus one cost rule
in ``costs._gate_cost``.

Simulation is exact linear algebra on dense statevectors (or batches of
them), capped at :data:`SIM_CAP` total qubits.  Clean ancillas must start
and end in |0>; dirty ancillas may start in any basis state and must be
restored.  :func:`circuit_unitary` and :func:`simulate_on_state` check both
disciplines by simulating only the data columns they are asked about, each
embedded at every allowed ancilla basis state, in one batch.

The module also provides :class:`PermPhase`, the classical form of
operators of shape ``Diag(phases) . Perm``, which the decompositions use to
carry "up to diagonal and permutation" residuals without emitting gates.
A residual is a word of index-map gates, evaluated only on the basis
indices in play, so it never needs a 2^n array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_args

import numpy as np

from . import householder as hh
from .numerics import (
    EPS0,
    SparseIsometry,
    check_permutation,
    prune_state,
    state_norm,
)

SIM_CAP = 14


class SimulationCapExceeded(ValueError):
    pass


class CircuitVerificationError(AssertionError):
    """Raised when simulation contradicts a circuit's declared contract."""


# ---------------------------------------------------------------------------
# gate kinds

X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


class _Gate:
    """A gate kind: a frozen dataclass with a ``kind`` name, ``qubits``,
    ``dagger``, ``describe`` and an :meth:`index_map` or a dense ``_act``.
    Qubit fields are ``control``, ``target``, ``controls`` ((qubit,
    polarity) pairs) or ``qubits``; :data:`_JSON_FIELDS` gives each field's
    JSON form."""

    def remap(self, table) -> Gate:
        """The same gate with every qubit ``q`` moved to ``table[q]``."""
        moved = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in ("control", "target"):
                moved[f.name] = table[v]
            elif f.name == "controls":
                moved[f.name] = tuple((table[q], p) for q, p in v)
            elif f.name == "qubits":
                moved[f.name] = tuple(table[q] for q in v)
        return replace(self, **moved)

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        for f in fields(self):
            key, encode, _ = _JSON_FIELDS[f.name]
            v = getattr(self, f.name)
            d[key] = v if encode is None else encode(v)
        return d

    @classmethod
    def from_json(cls, d: dict) -> Gate:
        """Inverse of :meth:`to_json`; fields with a default may be left out."""
        kw = {}
        for f in fields(cls):
            key, _, decode = _JSON_FIELDS[f.name]
            if key in d or f.default is MISSING:
                kw[f.name] = d[key] if decode is None else decode(d[key])
        return cls(**kw)

    def describe(self) -> str:
        """Compact one-line rendering for logs and demos."""
        return f"{self.kind}(q{list(self.qubits)})"

    def index_map(self, nq: int, idx: np.ndarray):
        """``(dst, phase)`` with ``self |idx[i]> = phase[i] |dst[i]>``, where
        ``phase`` is None when it is 1 everywhere; None for a gate that is
        neither a basis relabeling nor diagonal."""
        return None

    def apply(self, state: np.ndarray, nq: int) -> np.ndarray:
        """Exact action on a (2^nq,) state or a (2^nq, k) batch of columns."""
        idx = np.arange(1 << nq)
        imap = self.index_map(nq, idx)
        if imap is None:
            return self._act(state, idx, nq)
        dst, ph = imap
        if ph is not None:
            state = state * (ph if state.ndim == 1 else ph[:, None])
        if dst is idx:
            return state
        out = np.empty_like(state)
        out[dst] = state
        return out


class _Controlled(_Gate):
    """A 2x2 ``matrix`` on ``target``, applied where every (qubit, polarity)
    pair of ``controls`` matches; CNOT and MCX apply X."""

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        if self.matrix.shape != (2, 2):
            raise ValueError(f"{self.kind} matrix must be 2x2")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.controls) + (self.target,)

    def describe(self) -> str:
        ctr = ",".join(f"{q}" if p else f"!{q}" for q, p in self.controls)
        return f"{self.kind}({ctr}->{self.target})"

    def index_map(self, nq, idx):
        u, tpos = self.matrix, nq - 1 - self.target
        if u is X_MATRIX or np.array_equal(u, X_MATRIX):
            flip = 1 << tpos
            if self.controls:
                flip = _controls_hit(idx, self.controls, nq).astype(idx.dtype) << tpos
            return idx ^ flip, None
        if u[0, 1] == 0 and u[1, 0] == 0:
            hit = _controls_hit(idx, self.controls, nq)
            return idx, np.where(hit, np.diag(u)[(idx >> tpos) & 1], 1.0 + 0j)
        return None

    def _act(self, state, idx, nq):
        u = self.matrix
        tpos = nq - 1 - self.target
        mask = _controls_hit(idx, self.controls, nq)
        i0 = idx[mask & (((idx >> tpos) & 1) == 0)]
        i1 = i0 | (1 << tpos)
        out = state.copy()
        a0, a1 = state[i0], state[i1]
        out[i0] = u[0, 0] * a0 + u[0, 1] * a1
        out[i1] = u[1, 0] * a0 + u[1, 1] * a1
        return out


@dataclass(frozen=True)
class CNOT(_Controlled):
    control: int
    target: int
    kind = "cnot"
    matrix = X_MATRIX

    @property
    def controls(self) -> tuple[tuple[int, int], ...]:
        return ((self.control, 1),)

    def dagger(self) -> list[Gate]:
        return [self]


@dataclass(frozen=True)
class SingleQubit(_Controlled):
    target: int
    matrix: np.ndarray  # 2x2 unitary
    label: str = "u"
    kind = "single"
    controls = ()

    def dagger(self) -> list[Gate]:
        return [SingleQubit(self.target, self.matrix.conj().T, label=self.label + "^")]

    def describe(self) -> str:
        return f"{self.label}(q{self.target})"


@dataclass(frozen=True)
class MCX(_Controlled):
    controls: tuple[tuple[int, int], ...]  # (qubit, polarity) pairs
    target: int
    kind = "mcx"
    matrix = X_MATRIX

    def dagger(self) -> list[Gate]:
        return [self]


@dataclass(frozen=True)
class MCU(_Controlled):
    controls: tuple[tuple[int, int], ...]
    target: int
    matrix: np.ndarray
    kind = "mcu"

    def dagger(self) -> list[Gate]:
        return [MCU(self.controls, self.target, self.matrix.conj().T)]


@dataclass(frozen=True)
class Diagonal(_Gate):
    qubits: tuple[int, ...]
    phases: tuple[complex, ...]  # length 2^k, unit modulus
    kind = "diagonal"

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(complex(p) for p in self.phases))
        if len(self.phases) != 1 << len(self.qubits):
            raise ValueError("diagonal needs 2^k phases")
        if any(not abs(abs(p) - 1.0) <= 1e-9 for p in self.phases):
            raise ValueError("diagonal phases must have unit modulus")

    def dagger(self) -> list[Gate]:
        return [Diagonal(self.qubits, tuple(p.conjugate() for p in self.phases))]

    def index_map(self, nq, idx):
        return idx, np.asarray(self.phases)[_subset_values(idx, self.qubits, nq)]


@dataclass(frozen=True)
class PermutationGate(_Gate):
    qubits: tuple[int, ...]
    mapping: tuple[int, ...]  # basis value v on the subset goes to mapping[v]
    kind = "permutation"

    def __post_init__(self):
        check_permutation(self.mapping, 1 << len(self.qubits))

    def dagger(self) -> list[Gate]:
        inv = np.argsort(np.asarray(self.mapping))
        return [PermutationGate(self.qubits, tuple(int(v) for v in inv))]

    def index_map(self, nq, idx):
        v = _subset_values(idx, self.qubits, nq)
        return _scatter_subset(idx, np.asarray(self.mapping)[v], self.qubits, nq), None


@dataclass(frozen=True)
class Decrement(_Gate):
    qubits: tuple[int, ...]  # |v> -> |v - 1 mod 2^k> on the subset
    kind = "decrement"

    def dagger(self) -> list[Gate]:
        # increment = X^k . Dec . X^k on the subset
        xs = [x_gate(q) for q in self.qubits]
        return xs + [self] + xs

    def index_map(self, nq, idx):
        v = _subset_values(idx, self.qubits, nq)
        return _scatter_subset(idx, (v - 1) % (1 << len(self.qubits)), self.qubits, nq), None


@dataclass(frozen=True)
class SPBlock(_Gate):
    """Opaque state-preparation block: U|0..0> = state on the subset.

    ``inverted`` applies the inverse (un-preparation).  The simulated
    unitary is the canonical completion from :func:`complete_state_prep`.
    """

    qubits: tuple[int, ...]
    state: tuple[tuple[int, complex], ...]  # sparse (index, amplitude) pairs
    inverted: bool = False
    kind = "spblock"

    @classmethod
    def from_dict(cls, qubits, state: dict[int, complex], inverted: bool = False):
        items = tuple(sorted((int(k), complex(a)) for k, a in state.items()))
        return cls(tuple(qubits), items, inverted)

    def __post_init__(self):
        nrm = state_norm(dict(self.state))
        if not abs(nrm - 1.0) <= 1e-8:
            raise ValueError(f"SPBlock target has norm {nrm}")

    def dagger(self) -> list[Gate]:
        return [SPBlock(self.qubits, self.state, not self.inverted)]

    def describe(self) -> str:
        tag = "unprepare" if self.inverted else "prepare"
        return f"{tag}[{len(self.state)} amps](q{list(self.qubits)})"

    def _act(self, state, idx, nq):
        u = complete_state_prep(dict(self.state), len(self.qubits))
        if self.inverted:
            u = u.conj().T
        return _apply_subset_unitary(state, u, self.qubits, nq)


@dataclass(frozen=True)
class H0Phase(_Gate):
    """I + (e^{i phi} - 1)|0..0><0..0| on the subset; phi = pi reflects."""

    qubits: tuple[int, ...]
    phi: float
    kind = "h0phase"

    def dagger(self) -> list[Gate]:
        return [H0Phase(self.qubits, -self.phi)]

    def describe(self) -> str:
        return f"h0(phi={self.phi:.4g}, q{list(self.qubits)})"

    def index_map(self, nq, idx):
        v = _subset_values(idx, self.qubits, nq)
        return idx, np.where(v == 0, cmath.exp(1j * self.phi), 1.0 + 0j)


Gate = CNOT | SingleQubit | MCX | MCU | Diagonal | PermutationGate | Decrement | SPBlock | H0Phase
GATE_KINDS = {g.kind: g for g in get_args(Gate)}


def x_gate(q: int) -> SingleQubit:
    return SingleQubit(q, X_MATRIX, label="x")


def x_layer(index: int, qubits, nq: int) -> list[Gate]:
    """Free X gates mapping basis ``index`` to 0 on the listed qubits."""
    return [x_gate(q) for q in qubits if (index >> (nq - 1 - q)) & 1]


def dagger_sequence(gates: list[Gate]) -> list[Gate]:
    out: list[Gate] = []
    for g in reversed(gates):
        out.extend(g.dagger())
    return out


# ---------------------------------------------------------------------------
# circuits


@dataclass
class StructuredCircuit:
    """Ordered gate list over ``n`` data qubits plus declared ancillas.

    Ancilla kinds are "clean" or "dirty"; ancilla qubits sit at indices
    ``n .. n + a - 1`` (least significant bits of the simulation index).
    """

    n: int
    ancillas: tuple[str, ...] = ()
    gates: list[Gate] = field(default_factory=list)

    @property
    def total_qubits(self) -> int:
        return self.n + len(self.ancillas)

    def validate(self) -> None:
        if any(k not in ("clean", "dirty") for k in self.ancillas):
            raise ValueError("ancilla kinds must be 'clean' or 'dirty'")
        nq = self.total_qubits
        for g in self.gates:
            qs = g.qubits
            if len(set(qs)) != len(qs):
                raise ValueError(f"repeated qubit in {g!r}")
            if any(not (0 <= q < nq) for q in qs):
                raise ValueError(f"{g!r} addresses a qubit outside 0..{nq - 1}")


# ---------------------------------------------------------------------------
# simulation kernels; states are (2^N,) or (2^N, batch) arrays


def _subset_values(idx, qubits: tuple[int, ...], nq: int):
    """The subset value of a basis index, or of each index in an int64 array."""
    v = idx & 0  # 0, or a fresh zero array that |= fills in place
    s = len(qubits)
    for k, q in enumerate(qubits):
        v |= ((idx >> (nq - 1 - q)) & 1) << (s - 1 - k)
    return v


def _scatter_subset(idx, values, qubits, nq: int):
    """``idx`` with the subset's bits set to ``values`` (ints or int64 arrays)."""
    out = idx
    s = len(qubits)
    for k, q in enumerate(qubits):
        bit = (values >> (s - 1 - k)) & 1
        pos = nq - 1 - q
        out = (out & ~(1 << pos)) | (bit << pos)
    return out


def _controls_hit(idx: np.ndarray, controls, nq: int) -> np.ndarray:
    """Which basis indices satisfy every (qubit, polarity) control."""
    mask = want = 0
    for q, pol in controls:
        bit = 1 << (nq - 1 - q)
        mask |= bit
        if pol:
            want |= bit
    return (idx & mask) == want


def apply_gate(state: np.ndarray, g: Gate, nq: int) -> np.ndarray:
    """Exact action of one gate on a statevector or a batch of columns."""
    if state.shape[0] != 1 << nq:
        raise ValueError(f"state dimension {state.shape[0]} != 2^{nq}")
    return g.apply(state, nq)


def _apply_subset_unitary(state, u, qubits, nq):
    batch = state.ndim == 2
    shape = state.shape
    t = state.reshape([2] * nq + ([shape[1]] if batch else []))
    rest = [a for a in range(nq) if a not in qubits] + ([nq] if batch else [])
    order = list(qubits) + rest
    t = np.transpose(t, order).reshape(1 << len(qubits), -1)
    t = u @ t
    t = t.reshape([2] * nq + ([shape[1]] if batch else []))
    t = np.transpose(t, np.argsort(order))
    return t.reshape(shape).copy()


def apply_circuit(state: np.ndarray, circuit: StructuredCircuit) -> np.ndarray:
    nq = circuit.total_qubits
    for g in circuit.gates:
        state = apply_gate(state, g, nq)
    return state


def gate_unitary(g: Gate, nq: int) -> np.ndarray:
    return apply_gate(np.eye(1 << nq, dtype=complex), g, nq)


# ---------------------------------------------------------------------------
# canonical state preparation (used to simulate SPBlock)


def complete_state_prep(v: dict[int, complex] | np.ndarray, k: int) -> np.ndarray:
    """A deterministic unitary U on k qubits with U|0..0> = v.

    Canonical choice: the generalized reflection mapping |0..0> to v
    (identity when v is |0..0|).  In the narrow band where that reflection
    is numerically degenerate (tiny ``1 - v_0`` but v != |0>), falls back to
    the standard reflection composed with a phase on |0..0>, which is exact
    and stable; any completion yields the same conjugated reflection.
    """
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    if isinstance(v, np.ndarray):
        v = {int(i): complex(a) for i, a in enumerate(v) if abs(a) > EPS0}
    else:
        v = prune_state(v)
    nrm = state_norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state norm {nrm} is not 1")
    zero = {0: 1.0 + 0j}
    diff2 = sum(abs(a - (1.0 if x == 0 else 0.0)) ** 2 for x, a in v.items())
    if 0 not in v:
        diff2 += 1.0
    if math.sqrt(diff2) <= EPS0:
        return np.eye(1 << k, dtype=complex)
    spec = hh.generalized_pair_reflection(zero, v)
    if isinstance(spec, hh.IdentityMarker):
        # v within ~1e-4 of |0> but not exactly: phase-safe completion
        std = hh.standard_pair_reflection(v, zero)
        u = std.dense(k)
        u[:, 0] *= cmath.exp(1j * std.theta)
        return u
    return spec.dense(k)


# ---------------------------------------------------------------------------
# classical diag x perm residuals


class PermPhase:
    """The operator Diag . Perm on ``dim`` basis states, as a word:
    ``factors`` applied in order, each a basis-relabeling or diagonal gate
    (its :meth:`_Gate.index_map`) or a nested PermPhase.

    A word is evaluated only on the basis indices asked about
    (:meth:`index_map`, the gate protocol, so a word can be a factor of
    another), so a residual on n qubits costs O(n) per index rather than
    2^n; :meth:`dense` is the one 2^n form.

    A word's phase starts at 1 and is multiplied by each factor's phase in
    application order, so it is bit-identical to multiplying out the full
    tables factor by factor.
    """

    def __init__(self, dim: int, factors):
        self.dim, self._factors = dim, tuple(factors)

    def index_map(self, nq: int, idx) -> tuple[np.ndarray, np.ndarray]:
        """``(dst, phase)`` with ``self |idx[i]> = phase[i] |dst[i]>`` on
        ``nq`` qubits (``dim == 2^nq``)."""
        idx = np.asarray(idx, dtype=np.int64)
        ph = np.ones(len(idx), dtype=complex)
        for f in self._factors:
            imap = f.index_map(nq, idx)
            if imap is None:
                raise TypeError(f"{f!r} is not a permutation/diagonal gate")
            idx, p = imap
            # a relabeling multiplies by ones too: that fixes the signs of zero
            # parts exactly as the product of full tables does
            ph = (np.ones(len(idx), dtype=complex) if p is None else p) * ph
        return idx, ph

    def compose(self, other: "PermPhase") -> "PermPhase":
        """self after other (operator product self . other)."""
        return PermPhase(self.dim, (other, self))

    def dagger(self) -> "PermPhase":
        factors: list = []
        for f in reversed(self._factors):
            factors.extend([f.dagger()] if isinstance(f, PermPhase) else f.dagger())
        return PermPhase(self.dim, factors)

    def dense(self) -> np.ndarray:
        idx = np.arange(self.dim)
        dst, ph = self.index_map(self.dim.bit_length() - 1, idx)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[dst, idx] = ph
        return out

    def apply_to_state(self, v: dict[int, complex]) -> dict[int, complex]:
        nq = self.dim.bit_length() - 1
        dst, ph = self.index_map(nq, np.fromiter(v, dtype=np.int64, count=len(v)))
        return {int(k): a * complex(p) for k, p, a in zip(dst, ph, v.values())}


def sequence_perm_phase(gates: list, nq: int) -> PermPhase:
    """Product of a gate sequence (gates or PermPhases, first applied first)."""
    return PermPhase(1 << nq, gates)


# ---------------------------------------------------------------------------
# relaxed (up-to-diagonal) doubly-controlled NOT: 3 CNOTs + Ry rotations


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _margolus_gates(c1: int, c2: int, t: int) -> list[Gate]:
    q = math.pi / 4.0
    return [
        SingleQubit(t, _ry(q), label="ry"),
        CNOT(c2, t),
        SingleQubit(t, _ry(q), label="ry"),
        CNOT(c1, t),
        SingleQubit(t, _ry(-q), label="ry"),
        CNOT(c2, t),
        SingleQubit(t, _ry(-q), label="ry"),
    ]


def _margolus_diag() -> np.ndarray:
    """Diagonal D with (margolus network) = D . Toffoli on 3 qubits."""
    u = np.eye(8, dtype=complex)
    for g in _margolus_gates(0, 1, 2):
        u = apply_gate(u, g, 3)
    toff = gate_unitary(MCX(((0, 1), (1, 1)), 2), 3)
    d = u @ toff.conj().T
    off = d - np.diag(np.diag(d))
    if np.max(np.abs(off)) > 1e-12:
        raise AssertionError("margolus network is not Toffoli-up-to-diagonal")
    phases = np.diag(d)
    snapped = np.round(phases.real).astype(complex) + 1j * np.round(phases.imag)
    if np.max(np.abs(phases - snapped)) > 1e-9:
        raise AssertionError("margolus residual phases are not exact units")
    return snapped


_MARGOLUS_DIAG = _margolus_diag()


def relaxed_mcx2(controls: tuple[tuple[int, int], tuple[int, int]], target: int, nq: int):
    """Doubly-controlled NOT up to a known diagonal, using 3 CNOTs.

    Returns ``(gates, op)`` where ``op`` is the exact PermPhase form of the
    emitted network, equal to (known diagonal) . MCX.  Negative-polarity
    controls are handled by free X conjugation.
    """
    (q1, p1), (q2, p2) = controls
    gates: list[Gate] = []
    dress = [x_gate(q) for q, p in ((q1, p1), (q2, p2)) if p == 0]
    gates.extend(dress)
    gates.extend(_margolus_gates(q1, q2, target))
    gates.extend(dress)
    xmask = (4 if p1 == 0 else 0) | (2 if p2 == 0 else 0)
    diag = Diagonal((q1, q2, target), tuple(_MARGOLUS_DIAG[np.arange(8) ^ xmask]))
    residual = PermPhase(1 << nq, (MCX(controls, target), diag))
    return gates, residual


# ---------------------------------------------------------------------------
# circuit-level unitary extraction and equivalence


def _check_simulable(circuit: StructuredCircuit) -> None:
    circuit.validate()
    nq = circuit.total_qubits
    if nq > SIM_CAP:
        raise SimulationCapExceeded(f"{nq} qubits exceeds the {SIM_CAP}-qubit cap")


def _data_action(circuit: StructuredCircuit, cols: np.ndarray, restore_tol: float) -> np.ndarray:
    """The action on the data columns ``cols`` (2^n x k) at ancilla state 0.

    Every column is embedded at every allowed ancilla basis state and the
    batch is simulated at once.  An output column farther than
    ``restore_tol`` (2-norm of the difference, which unlike a difference of
    squared norms does not cancel) from the returned action, embedded at
    the same ancilla state, raises :class:`CircuitVerificationError`.  The
    circuit must have passed :func:`_check_simulable`.
    """
    n, a = circuit.n, len(circuit.ancillas)
    clean = sum(1 << (a - 1 - k) for k, kind in enumerate(circuit.ancillas) if kind == "clean")
    ys = [y for y in range(1 << a) if not y & clean]  # clean bits 0, dirty bits free
    # axes: data index, ancilla index, ancilla state d (y = ys[d]), column
    batch = np.zeros((1 << n, 1 << a, len(ys), cols.shape[1]), dtype=complex)
    for d, y in enumerate(ys):
        batch[:, y, d] = cols
    out = apply_circuit(batch.reshape(1 << circuit.total_qubits, -1), circuit)
    out = out.reshape(batch.shape)
    action = out[:, 0, 0].copy()
    for d, y in enumerate(ys):
        out[:, y, d] -= action
    err = np.linalg.norm(out.reshape(-1, len(ys), cols.shape[1]), axis=0)
    d, j = np.unravel_index(np.argmax(err), err.shape)
    if err[d, j] > restore_tol:
        raise CircuitVerificationError(
            f"ancilla discipline violated for ancilla state {ys[d]:0{max(a, 1)}b}: "
            f"deviation {err[d, j]:.3e} on column {j}"
        )
    return action


def circuit_unitary(
    circuit: StructuredCircuit, restore_tol: float = 1e-10, in_dim: int | None = None
) -> np.ndarray:
    """The action on the data register, a 2^n x ``in_dim`` matrix.

    Simulates the first ``in_dim`` data basis states (default: all 2^n) for
    every allowed ancilla basis state (clean bits fixed to 0, dirty bits
    free) and verifies that the ancillas are restored and the data action
    does not depend on the dirty state.  For an isometry circuit the
    ancilla contract only holds on the isometry's input subspace, so pass
    the input dimension.
    """
    _check_simulable(circuit)
    if in_dim is None:
        in_dim = 1 << circuit.n
    return _data_action(circuit, np.eye(1 << circuit.n, in_dim, dtype=complex), restore_tol)


def simulate_on_state(
    circuit: StructuredCircuit, data_state: np.ndarray, restore_tol: float = 1e-10
) -> np.ndarray:
    """Apply the circuit to a data state (clean ancillas |0>, dirty checked
    on all their basis states) and return the resulting data state."""
    _check_simulable(circuit)
    return _data_action(circuit, np.asarray(data_state)[:, None], restore_tol)[:, 0]


@dataclass(frozen=True)
class EquivalenceResult:
    ok: bool
    residual: float
    diag: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


def equivalent(
    circuit: StructuredCircuit,
    mat,
    mode: str = "exact",
    tol: float = 1e-9,
    row_perm=None,
) -> EquivalenceResult:
    """Does the circuit implement the isometry ``mat``?

    ``mode``:
      * ``exact``  -- || U_c I_{n,m} - M ||_F <= tol
      * ``up_to_diagonal`` -- exists unit-modulus diagonal D (recovered
        column by column) with || U_c I_{n,m} - M D ||_F <= tol
      * ``up_to_diag_and_row_perm`` -- additionally applies the caller's
        row-permutation witness to the circuit action first.
    """
    if isinstance(mat, SparseIsometry):
        m_dense = mat.to_dense()
    else:
        m_dense = np.asarray(mat, dtype=complex)
        if m_dense.ndim == 1:
            m_dense = m_dense[:, None]
    ncols = m_dense.shape[1]
    if m_dense.shape[0] != (1 << circuit.n) or ncols > m_dense.shape[0]:
        return EquivalenceResult(False, math.inf)
    a = circuit_unitary(circuit, restore_tol=max(tol, 1e-10), in_dim=ncols)
    if mode == "up_to_diag_and_row_perm":
        if row_perm is None:
            raise ValueError("mode up_to_diag_and_row_perm needs a row_perm witness")
        rp = check_permutation(row_perm, a.shape[0])
        moved = np.empty_like(a)
        moved[rp] = a
        a = moved
    diag = None
    if mode in ("up_to_diagonal", "up_to_diag_and_row_perm"):
        diag = np.ones(ncols, dtype=complex)
        for j in range(ncols):
            ip = np.vdot(m_dense[:, j], a[:, j])
            if abs(ip) > EPS0:
                diag[j] = ip / abs(ip)
        residual = float(np.linalg.norm(a - m_dense * diag[None, :]))
    elif mode == "exact":
        residual = float(np.linalg.norm(a - m_dense))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return EquivalenceResult(residual <= tol, residual, diag)


# ---------------------------------------------------------------------------
# circuit JSON
#
# {"n": int, "ancillas": ["clean"|"dirty", ...], "gates": [{...}, ...]}
# with one object per gate; complex numbers are [re, im] pairs.


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _mat2(m: np.ndarray) -> list:
    return [[_c(m[0, 0]), _c(m[0, 1])], [_c(m[1, 0]), _c(m[1, 1])]]


def _mat2_from(d) -> np.ndarray:
    """A 2x2 unitary, to 1e-7 (an ssp ``phase`` gate holds the state's own
    amplitude, whose modulus is 1 only to the input norm tolerance)."""
    m = np.array([[complex(*e) for e in row] for row in d], dtype=complex)
    if m.shape == (2, 2) and not np.max(np.abs(m.conj().T @ m - np.eye(2))) <= 1e-7:
        raise ValueError(f"gate matrix {m.tolist()} is not unitary")
    return m


def _qubit(q) -> int:
    if type(q) is not int:
        raise ValueError(f"qubit index {q!r} is not an integer")
    return q


def _phi(x) -> float:
    phi = float(x)
    if not math.isfinite(phi):
        raise ValueError(f"phase {x!r} is not finite")
    return phi


def _controls(pairs) -> tuple[tuple[int, int], ...]:
    out = tuple((_qubit(q), p) for q, p in pairs)
    if any(type(p) is not int or p not in (0, 1) for _, p in out):
        raise ValueError(f"control polarities must be 0 or 1, got {pairs!r}")
    return out


# gate field name -> (JSON key, encode, decode); None passes the value through
_JSON_FIELDS = {
    "control": ("control", None, _qubit),
    "target": ("target", None, _qubit),
    "controls": ("controls", lambda cs: [list(c) for c in cs], _controls),
    "qubits": ("qubits", list, lambda qs: tuple(map(_qubit, qs))),
    "matrix": ("matrix", _mat2, _mat2_from),
    "label": ("label", None, None),
    "phases": ("phases", lambda ps: [_c(p) for p in ps], lambda ps: tuple(complex(*p) for p in ps)),
    "mapping": ("map", list, tuple),
    "state": (
        "state",
        lambda st: [[k, a.real, a.imag] for k, a in st],
        lambda st: tuple(sorted({int(k): complex(re, im) for k, re, im in st}.items())),
    ),
    "inverted": ("inverted", None, None),
    "phi": ("phi", None, _phi),
}


def gate_from_dict(d: dict) -> Gate:
    kind = d["kind"]
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    return GATE_KINDS[kind].from_json(d)


def circuit_to_dict(c: StructuredCircuit) -> dict:
    return {
        "n": c.n,
        "ancillas": list(c.ancillas),
        "gates": [g.to_json() for g in c.gates],
    }


def circuit_from_dict(d: dict) -> StructuredCircuit:
    c = StructuredCircuit(
        int(d["n"]), tuple(d.get("ancillas", ())), [gate_from_dict(g) for g in d["gates"]]
    )
    c.validate()
    return c
