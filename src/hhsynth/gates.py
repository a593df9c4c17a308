"""Structured gate alphabet, circuit container, simulator and equivalence.

Gates address qubits by index; qubit 0 is the most significant bit of a
basis index.  Multi-qubit subsets are tuples listed most-significant first,
and the "subset value" of a basis index collects those bits in that order.
The other modules apply that convention (``numerics`` defines it) only
through :func:`qubit_mask`, :func:`controls_on`, :func:`x_layer` and
:func:`fold`, the CNOT fan of pivoting insertions and transpositions.

A gate kind is one class here, which owns its qubits, inverse, text form,
JSON tag and one action, plus one cost rule in ``costs._gate_cost``.  The
action is either an :meth:`_Gate.index_map` (a basis relabeling or a
diagonal) or a :meth:`_Gate.mixing` with its ``mix``: a mix of the
2^k-row groups of ``k`` qubits, applied where the gate's controls hold.  A
controlled gate mixes with its 2x2 matrix.  An :class:`SPBlock` mixes with
the column-reduction reflection ``H_u = I - 2|u><u|`` of its state onto
|0..0> (the primitive the decompositions reduce columns with), after a
phase on |0..0>; no 2^k x 2^k matrix is built.  The block holds that
reflection as arrays (:class:`BlockReflection`: the rows of ``u``, ``u``
and the phase), built with numpy once per state and shared by its
dagger; its ``state`` stays the tuple of pairs that JSON and equality
read.

Simulation is exact linear algebra on the live rows of a state: an int64
array of distinct basis indices and their amplitudes, one column per state
of a batch.  The rows are labels, in any order.  One kernel,
:func:`_live_gate`, applies every gate: an index map relabels and
rephases the rows and moves no amplitude; a mixing gate adds the rows of
every 2^k group it reaches and mixes each group.  Once the live rows pass
``1 / DENSE_SHARE`` of the basis, :func:`_simulate` fills them in to the
full basis if that fits.  A state holding all 2^nq rows keeps them all,
and a mixing gate gathers its groups through the rows' positions: no
amplitude is transposed or scattered.  :func:`_simulate` sorts the rows
once at the end, and :func:`apply_gate`, the kernel on the full basis,
scatters them once into basis order.  One memory rule holds on any
register up to 62 qubits: an array the verifier would build with more
than :data:`LIVE_CAP` amplitudes (rows x columns) raises
:class:`SimulationCapExceeded` before it is allocated.

Clean ancillas must start and end in |0>; dirty ancillas may start in any
basis state and must be restored.  :func:`circuit_unitary`,
:func:`simulate_on_state` and :func:`equivalent` check both disciplines by
simulating only the data columns they are asked about, once per allowed
ancilla basis state, each state as its own batch.

The decompositions carry "up to diagonal and permutation" residuals,
operators of shape ``Diag(phases) . Perm``, without emitting gates.  A
residual is a plain list of index-map gates (a word: composition is ``+``,
the identity ``[]``), and :func:`relabel` evaluates it only on the basis
indices in play, so it never needs a 2^n array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple, get_args

import numpy as np

from . import householder as hh
from .numerics import (
    EPS0,
    MAX_QUBITS,
    SparseIsometry,
    amplitude_norm,
    check_permutation,
    int_field,
)

LIVE_CAP = 1 << 22  # amplitudes (rows x columns) of any simulated array: 64 MiB
DENSE_SHARE = 4  # go dense past 2^nq / DENSE_SHARE rows, if the full basis fits


class SimulationCapExceeded(ValueError):
    pass


class CircuitVerificationError(AssertionError):
    """Raised when simulation contradicts a circuit's declared contract."""


# ---------------------------------------------------------------------------
# gate kinds

X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def _data_fields(gate):
    """The fields that define a gate (or gate class): the compared ones,
    which JSON writes.  A derived field, like ``SPBlock.reflection``, is
    not compared."""
    return [f for f in fields(gate) if f.compare]


class _Gate:
    """A gate kind: a frozen dataclass with a ``kind`` name, ``qubits``,
    ``dagger``, ``describe`` and one action, an :meth:`index_map` or else a
    :meth:`mixing` with its :meth:`mix`, which :func:`_live_gate` applies.
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
        for f in _data_fields(self):
            key, encode, _ = _JSON_FIELDS[f.name]
            v = getattr(self, f.name)
            d[key] = v if encode is None else encode(v)
        return d

    @classmethod
    def from_json(cls, d: dict) -> Gate:
        """Inverse of :meth:`to_json`; fields with a default may be left out."""
        kw = {}
        for f in _data_fields(cls):
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

    def mixing(self, nq: int, idx: np.ndarray):
        """``(qubits, hit)`` for a gate without an index map: it applies
        ``mix`` to the subset ``qubits`` of every index ``idx[i]`` with
        ``hit[i]`` (``hit`` None: of every index)."""
        raise NotImplementedError

    def mix(self, block: np.ndarray) -> np.ndarray:
        """The gate's action on the subset of :meth:`mixing`: a complex
        ``(2^k, X)`` block, one row per subset value, mixed column by
        column.  It may overwrite ``block``, and returns the result."""
        raise NotImplementedError


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

    def mix(self, block):
        return self.matrix @ block

    def mixing(self, nq, idx):
        return (self.target,), _controls_hit(idx, self.controls, nq) if self.controls else None

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


class BlockReflection(NamedTuple):
    """What an :class:`SPBlock` applies, built once from its state: the
    reflection ``H_u = I - 2|u><u|`` sending the state to
    ``e^{i theta}|0..0>``, with ``u`` on ``rows`` (the state's rows and
    row 0; zero elsewhere), and the phase ``eith`` = ``e^{i theta}``."""

    rows: np.ndarray  # sorted distinct int64 subset values
    u: np.ndarray
    eith: complex


def _state_rows(keys, count: int) -> np.ndarray:
    """A block state's indices as int64; ValueError if one does not fit."""
    try:
        return np.fromiter(keys, dtype=np.int64, count=count)
    except OverflowError:
        raise ValueError("SPBlock state index does not fit int64") from None


def _sorted_state(rows: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 ``rows`` and their complex ``amps`` by increasing row; a
    repeated row keeps its last amplitude."""
    if (rows[1:] > rows[:-1]).all():
        return rows, amps
    order = np.argsort(rows, kind="stable")
    rows, amps = rows[order], amps[order]
    last = np.append(rows[1:] != rows[:-1], True)
    return rows[last], amps[last]


def _divide_parts(z: np.ndarray, x: float) -> np.ndarray:
    """A complex array divided by a positive float, each part on its own,
    as Python's complex-by-float division rounds (numpy's ``z / x``
    multiplies by ``1 / x``, which differs in the last bit)."""
    return (np.ascontiguousarray(z, dtype=complex).view(np.float64) / x).view(np.complex128)


def _block_reflection(k: int, rows: np.ndarray, amps: np.ndarray) -> BlockReflection:
    """The reflection of a state on ``k`` qubits, given as sorted distinct
    int64 ``rows`` and their complex ``amps``.  Raises ValueError if a row
    is outside ``[0, 2^k)`` or the state's norm is not 1 to 1e-8."""
    nrm = amplitude_norm(amps)
    if not abs(nrm - 1.0) <= 1e-8:
        raise ValueError(f"SPBlock target has norm {nrm}")
    if not (rows[0] >= 0 and rows[-1] < 1 << k):
        raise ValueError(f"SPBlock state index outside 0..{(1 << k) - 1}")
    if rows[0] != 0:  # the target row needs an entry
        rows = np.concatenate([np.zeros(1, dtype=np.int64), rows])
        amps = np.concatenate([np.zeros(1, dtype=complex), amps])
    # w is unit to rounding, so that H_u is unitary to rounding; u is not
    # pruned, so that column 0 is the state to rounding however small an
    # amplitude is.  Each part is divided, and the phase taken of a Python
    # complex, as householder.reduction_vector rounds: simulated blocks
    # keep the floats they had as dicts (numpy's complex-by-float division
    # here moves benchmark residuals by up to 1.4e-14)
    w = _divide_parts(amps, nrm)
    _, eith = hh.target_phase(complex(w[0]))
    v, scale = hh.reduction_array(w, 0, eith)
    u = _divide_parts(v, scale)
    return BlockReflection(rows, u, eith)


@dataclass(frozen=True)
class SPBlock(_Gate):
    """Opaque state-preparation block: U|0..0> = state on the subset.

    ``inverted`` applies the inverse (un-preparation).  The simulated
    unitary is ``U = H_u D``: ``D`` puts the phase ``e^{i theta}`` on
    |0..0>, and ``H_u = I - 2|u><u|`` is the column-reduction reflection
    sending the state to ``e^{i theta}|0..0>``
    (:func:`householder.reduction_array`, target 0), so column 0 is the
    state.  The normalization ``1 + |v_0|`` is at least 1, so this is
    stable for every state, and for the state |0..0> it is exactly the
    identity.  Any completion gives the same reflection ``U H0 U^dag`` and
    the same prepare/unprepare pairs.

    ``state`` is the tuple of (index, amplitude) pairs that JSON, equality
    and hashing read; a repeated index counts with its last amplitude.
    ``reflection`` (:class:`BlockReflection`) is derived: it is built from
    the state once, with numpy, when the block is made, and no constructor
    takes it.  :meth:`from_arrays` builds it from the state's own arrays,
    and :meth:`dagger` and :meth:`remap` share it, so a prepare/unprepare
    pair builds it once.  A state index outside ``[0, 2^k)`` or a norm off
    1 by more than 1e-8 raises ValueError.
    """

    qubits: tuple[int, ...]
    state: tuple[tuple[int, complex], ...]  # sparse (index, amplitude) pairs
    inverted: bool = False
    # derived from ``state``; not an argument, not compared, hashed or
    # written to JSON
    reflection: BlockReflection = field(init=False, compare=False, repr=False)
    kind = "spblock"

    @classmethod
    def from_dict(cls, qubits, state: dict[int, complex], inverted: bool = False):
        keys = sorted(state)
        amps = np.fromiter(map(state.__getitem__, keys), dtype=complex, count=len(keys))
        return cls.from_arrays(qubits, _state_rows(keys, len(keys)), amps, inverted)

    @classmethod
    def from_arrays(cls, qubits, rows: np.ndarray, amps: np.ndarray, inverted: bool = False):
        """The block whose state holds the int ``rows`` with the complex
        ``amps``, built from these arrays (the dense path's constructor);
        ``state`` lists them by increasing row, as :meth:`from_dict` does."""
        qubits = tuple(qubits)
        rows, amps = _sorted_state(np.asarray(rows, dtype=np.int64), np.asarray(amps, dtype=complex))
        reflection = _block_reflection(len(qubits), rows, amps)
        return cls._sharing(reflection, qubits, tuple(zip(rows.tolist(), amps.tolist())), inverted)

    @classmethod
    def _sharing(cls, reflection: BlockReflection, qubits, state, inverted: bool) -> SPBlock:
        """The block with these fields and ``reflection``, which must be the
        one built from ``state``: it is neither built nor checked again."""
        block = object.__new__(cls)
        block.__dict__.update(qubits=qubits, state=state, inverted=inverted, reflection=reflection)
        return block

    def __post_init__(self):
        keys, amps = zip(*self.state) if self.state else ((), ())
        rows, amps = _sorted_state(_state_rows(keys, len(keys)), np.array(amps, dtype=complex))
        object.__setattr__(self, "reflection", _block_reflection(len(self.qubits), rows, amps))

    def dagger(self) -> list[Gate]:
        return [self._sharing(self.reflection, self.qubits, self.state, not self.inverted)]

    def remap(self, table) -> Gate:
        return self._sharing(self.reflection, tuple(table[q] for q in self.qubits), self.state, self.inverted)

    def describe(self) -> str:
        tag = "unprepare" if self.inverted else "prepare"
        return f"{tag}[{len(self.state)} amps](q{list(self.qubits)})"

    def mix(self, block):
        rows, u_rows, eith = self.reflection
        u = np.zeros(len(block), dtype=complex)
        u[rows] = u_rows
        # U = H_u D and U^dag = D^dag H_u factor by factor, not as H_u plus
        # a correction of column 0: at the state |0..0> this is exactly I
        if not self.inverted:
            block[0] *= eith
        block -= np.outer(u, 2.0 * (u.conj() @ block))
        if self.inverted:
            block[0] *= eith.conjugate()
        return block

    def mixing(self, nq, idx):
        return self.qubits, None


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
        on = (idx & qubit_mask(self.qubits, nq)) == 0
        return idx, np.where(on, cmath.exp(1j * self.phi), 1.0 + 0j)


Gate = CNOT | SingleQubit | MCX | MCU | Diagonal | PermutationGate | Decrement | SPBlock | H0Phase
GATE_KINDS = {g.kind: g for g in get_args(Gate)}


def x_gate(q: int) -> SingleQubit:
    return SingleQubit(q, X_MATRIX, label="x")


def qubit_mask(qubits, nq: int) -> int:
    """The bits of the listed qubits in an ``nq``-qubit basis index."""
    return sum(1 << (nq - 1 - q) for q in qubits)


def controls_on(index: int, qubits, nq: int) -> tuple[tuple[int, int], ...]:
    """(qubit, polarity) controls on the listed qubits that hold exactly
    where those qubits carry the bits of basis ``index``."""
    return tuple((q, (index >> (nq - 1 - q)) & 1) for q in qubits)


def x_layer(index: int, qubits, nq: int) -> list[Gate]:
    """Free X gates mapping basis ``index`` to 0 on the listed qubits."""
    return [x_gate(q) for q, bit in controls_on(index, qubits, nq) if bit]


def fold(moving: int, other: int, qubits, nq: int) -> tuple[int, list[Gate]]:
    """``(ctrl, fan)``: the first listed qubit where basis states ``moving``
    and ``other`` differ (ValueError if none), and a NOT on each later one,
    fired where ``ctrl`` carries ``moving``'s bit: the fan maps ``moving``
    to ``other`` except on ``ctrl`` and leaves ``other`` alone."""
    ctrl, *rest = (q for q in qubits if ((moving ^ other) >> (nq - 1 - q)) & 1)
    if (moving >> (nq - 1 - ctrl)) & 1:
        return ctrl, [CNOT(ctrl, t) for t in rest]
    return ctrl, [MCX(((ctrl, 0),), t) for t in rest]


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
# simulation kernel: a live state is an int64 array of distinct basis rows, in
# any order, and their (rows, batch) amplitudes; apply_gate's dense states are
# (2^N,) or (2^N, batch) arrays in basis order


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


def _sorted_unique(idx: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int array, without the ``numpy.ma`` import that
    ``np.unique`` costs on first use."""
    idx = np.sort(idx)
    first = np.ones(len(idx), dtype=bool)
    first[1:] = idx[1:] != idx[:-1]
    return idx[first]


def _admit(nq: int, amplitudes: int) -> None:
    """Refuse an array of ``amplitudes`` beyond LIVE_CAP, before it is
    allocated."""
    if amplitudes > LIVE_CAP:
        raise SimulationCapExceeded(
            f"{amplitudes} amplitudes on {nq} qubits exceed the live cap of {LIVE_CAP}"
        )


def _live_gate(g: Gate, rows: np.ndarray, amps: np.ndarray, nq: int):
    """One gate on a live state: ``(rows, amps)`` after the gate.  The rows
    are distinct basis labels in no particular order: an index map
    relabels and rephases them.  A mixing gate on fewer than 2^nq rows
    returns them sorted, without those it leaves at exactly 0 in every
    column; on all 2^nq rows it gathers each group through the rows'
    positions and keeps every row, the untouched ones first."""
    imap = g.index_map(nq, rows)
    if imap is not None:
        dst, ph = imap
        return dst, amps if ph is None else amps * ph[:, None]
    qubits, hit = g.mixing(nq, rows)
    k = len(qubits)
    if len(rows) == 1 << nq:  # every group is present: gather it by position
        pos = np.empty_like(rows)
        pos[rows] = np.arange(len(rows))
        # group[v, b]: the row of base b whose subset value is v, the bases
        # in increasing order, so that the mix sees the block of basis
        # order (BLAS rounds a column by its place in the block)
        order = [*qubits, *(q for q in range(nq) if q not in qubits)]
        group = np.arange(len(rows)).reshape([2] * nq).transpose(order).reshape(1 << k, -1)
        if hit is not None:
            group = group[:, hit[pos[group[0]]]]
        # a gathered copy, which ``mix`` may overwrite
        block = amps[pos[group]].astype(np.result_type(amps, complex), copy=False)
        mixed = g.mix(block.reshape(1 << k, -1)).reshape(-1, amps.shape[1])
        if hit is None:
            return group.ravel(), mixed
        return np.concatenate([rows[~hit], group.ravel()]), np.concatenate([amps[~hit], mixed])
    mask = qubit_mask(qubits, nq)
    bases = _sorted_unique((rows if hit is None else rows[hit]) & ~mask)
    kept = rows[:0] if hit is None else rows[~hit]  # untouched, and in no hit group
    _admit(nq, (len(kept) + (len(bases) << k)) * amps.shape[1])  # the rows after the gate
    # group[v, b]: the row of base b whose subset value is v
    offsets = _scatter_subset(np.zeros(1 << k, dtype=np.int64), np.arange(1 << k), qubits, nq)
    group = offsets[:, None] | bases
    new_rows = np.sort(np.concatenate([kept, group.ravel()]))
    out = np.zeros((len(new_rows), amps.shape[1]), dtype=np.result_type(amps, complex))
    out[np.searchsorted(new_rows, rows)] = amps
    pos = np.searchsorted(new_rows, group)
    block = out[pos]  # a copy, which ``mix`` may overwrite
    out[pos] = g.mix(block.reshape(1 << k, -1)).reshape(block.shape)
    live = np.any(out != 0, axis=1)
    if not live.all():
        return new_rows[live], out[live]
    return new_rows, out


def apply_gate(state: np.ndarray, g: Gate, nq: int) -> np.ndarray:
    """Exact action of one gate on a statevector or a batch of columns:
    :func:`_live_gate` on all 2^nq rows, scattered once into basis order
    in a new array."""
    if state.shape[0] != 1 << nq:
        raise ValueError(f"state dimension {state.shape[0]} != 2^{nq}")
    rows, amps = _live_gate(g, np.arange(1 << nq), state.reshape(len(state), -1), nq)
    out = np.empty_like(amps)
    out[rows] = amps
    return out.reshape(state.shape)


def _simulate(circuit: StructuredCircuit, rows: np.ndarray, amps: np.ndarray):
    """The circuit on the live state ``(rows, amps)``; returns the live
    state after it, sorted once at the end.  The rows are labels, in any
    order.  A state with more than ``2^nq / DENSE_SHARE`` rows is filled
    in to all 2^nq rows, which the gates after it keep, once those fit
    LIVE_CAP."""
    nq = circuit.total_qubits
    dense = (1 << nq) * amps.shape[1] <= LIVE_CAP
    for g in circuit.gates:
        if dense and (1 << nq) // DENSE_SHARE < len(rows) < 1 << nq:
            full = np.zeros((1 << nq, amps.shape[1]), dtype=amps.dtype)
            full[rows] = amps
            rows, amps = np.arange(1 << nq), full
        rows, amps = _live_gate(g, rows, amps, nq)
    order = np.argsort(rows)
    return rows[order], amps[order]


def apply_circuit(state: np.ndarray, circuit: StructuredCircuit) -> np.ndarray:
    """Exact action of the circuit on a statevector or a batch of columns,
    simulated on the rows where the input is not zero."""
    nq = circuit.total_qubits
    state = np.asarray(state)
    if state.shape[0] != 1 << nq:
        raise ValueError(f"state dimension {state.shape[0]} != 2^{nq}")
    cols = state.reshape(state.shape[0], -1)
    rows = np.flatnonzero(np.any(cols != 0, axis=1))
    _admit(nq, len(rows) * cols.shape[1])
    rows, amps = _simulate(circuit, rows, cols[rows])
    if len(rows) == len(cols):
        return amps.reshape(state.shape)
    out = np.zeros(cols.shape, dtype=amps.dtype)
    out[rows] = amps
    return out.reshape(state.shape)


def gate_unitary(g: Gate, nq: int) -> np.ndarray:
    _admit(nq, 1 << (2 * nq))
    return apply_gate(np.eye(1 << nq, dtype=complex), g, nq)


# ---------------------------------------------------------------------------
# classical diag x perm residuals


def relabel(word: list, nq: int, idx) -> tuple[np.ndarray, np.ndarray]:
    """``(dst, phase)`` with ``word |idx[i]> = phase[i] |dst[i]>`` on ``nq``
    qubits, where ``word`` is a list of basis-relabeling or diagonal gates
    (each with an :meth:`_Gate.index_map`), first applied first.

    The phase starts at 1 and is multiplied by each gate's phase in
    application order, so it is bit-identical to multiplying out the full
    tables gate by gate.
    """
    idx = np.asarray(idx, dtype=np.int64)
    ph = np.ones(len(idx), dtype=complex)
    for g in word:
        imap = g.index_map(nq, idx)
        if imap is None:
            raise TypeError(f"{g!r} is not a permutation/diagonal gate")
        idx, p = imap
        # a relabeling multiplies by ones too: that fixes the signs of zero
        # parts exactly as the product of full tables does
        ph = (np.ones(len(idx), dtype=complex) if p is None else p) * ph
    return idx, ph


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


# (the network) = Diag(_MARGOLUS_DIAG) . Toffoli on qubits (0, 1, 2)
_MARGOLUS_DIAG = np.array([1, 1, 1, 1, 1, -1, 1, 1], dtype=complex)


def relaxed_mcx2(controls: tuple[tuple[int, int], tuple[int, int]], target: int):
    """Doubly-controlled NOT up to a known diagonal, using 3 CNOTs.

    Returns ``(gates, word)`` where ``word`` is the exact index-map form of
    the emitted network, ``[MCX, known diagonal]``.  Negative-polarity
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
    return gates, [MCX(controls, target), diag]


# ---------------------------------------------------------------------------
# circuit-level unitary extraction and equivalence


def _check_tol(name: str, tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite or negative: a NaN one
    would pass every comparison, an infinite one every circuit, and a
    negative one none."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} {tol!r} is not a finite value >= 0")


def _check_simulable(circuit: StructuredCircuit) -> None:
    circuit.validate()
    nq = circuit.total_qubits
    if nq > MAX_QUBITS:
        raise SimulationCapExceeded(f"{nq} qubits exceeds the {MAX_QUBITS}-qubit cap")


def _data_action(
    circuit: StructuredCircuit, rows: np.ndarray, cols: np.ndarray, restore_tol: float
):
    """The action at ancilla state 0 on the data columns ``cols``, whose
    rows are the data basis indices ``rows``: ``(rows, action)``, the
    sorted live data rows of the result and their amplitudes.

    The columns are simulated once per allowed ancilla basis state (clean
    bits 0, dirty bits free), state 0 first, each as its own batch.  An
    output column farther than ``restore_tol`` (2-norm of the difference,
    which unlike a difference of squared norms does not cancel) from the
    action embedded at the same ancilla state raises
    :class:`CircuitVerificationError`, naming the first such state.  The
    circuit must have passed :func:`_check_simulable`.
    """
    nq, a = circuit.total_qubits, len(circuit.ancillas)
    clean = sum(1 << (a - 1 - k) for k, kind in enumerate(circuit.ancillas) if kind == "clean")
    _admit(nq, len(rows) * cols.shape[1])
    action = None
    for y in range(1 << a):
        if y & clean:
            continue
        out_rows, out = _simulate(circuit, (rows << a) | y, cols)
        if action is None:
            at0 = (out_rows & ((1 << a) - 1)) == 0
            data_rows, action = out_rows[at0] >> a, out[at0]
        # the output minus the action embedded at its own ancilla state
        want = (data_rows << a) | y
        every = _sorted_unique(np.concatenate([out_rows, want]))
        if len(every) > len(out_rows):
            _admit(nq, len(every) * out.shape[1])
            grown = np.zeros((len(every), out.shape[1]), dtype=out.dtype)
            grown[np.searchsorted(every, out_rows)] = out
            out = grown
        out[np.searchsorted(every, want)] -= action
        err = np.linalg.norm(out, axis=0)
        j = int(np.argmax(err))
        if err[j] > restore_tol:
            raise CircuitVerificationError(
                f"ancilla discipline violated for ancilla state {y:0{max(a, 1)}b}: "
                f"deviation {err[j]:.3e} on column {j}"
            )
    return data_rows, action


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
    _check_tol("restore_tol", restore_tol)
    _check_simulable(circuit)
    if in_dim is None:
        in_dim = 1 << circuit.n
    _admit(circuit.total_qubits, (1 << circuit.n) * in_dim)
    rows, action = _data_action(
        circuit, np.arange(in_dim), np.eye(in_dim, dtype=complex), restore_tol
    )
    if len(rows) == 1 << circuit.n:
        return action
    out = np.zeros((1 << circuit.n, in_dim), dtype=complex)
    out[rows] = action
    return out


def simulate_on_state(circuit: StructuredCircuit, data_state, restore_tol: float = 1e-10):
    """Apply the circuit to a data state (clean ancillas |0>, dirty checked
    on all their basis states) and return the resulting data state.

    A ``{index: amplitude}`` dict gives a dict of the nonzero amplitudes; a
    dense vector gives a dense vector.
    """
    _check_tol("restore_tol", restore_tol)
    _check_simulable(circuit)
    dim = 1 << circuit.n
    sparse = isinstance(data_state, dict)
    if sparse:
        keys = sorted(data_state)
        if keys and not (0 <= keys[0] and keys[-1] < dim):
            raise ValueError(f"state index out of range for {circuit.n} qubits")
        rows = np.array(keys, dtype=np.int64)
        amps = np.array([data_state[k] for k in keys], dtype=complex)
    else:
        _admit(circuit.total_qubits, dim)
        data_state = np.asarray(data_state)
        if data_state.shape != (dim,):
            raise ValueError(f"state shape {data_state.shape} != ({dim},)")
        rows = np.flatnonzero(data_state)
        amps = data_state[rows]
    rows, action = _data_action(circuit, rows, amps[:, None], restore_tol)
    if sparse:
        return {int(r): complex(x) for r, x in zip(rows, action[:, 0]) if x != 0}
    out = np.zeros(dim, dtype=complex)
    out[rows] = action[:, 0]
    return out


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

    The action and ``mat`` are compared on the union of their rows: a
    :class:`SparseIsometry`'s occupied rows, or every row of a dense
    matrix.  Every array this builds, the comparison arrays and a
    row-permutation witness included, is admitted by :data:`LIVE_CAP`.  An
    unknown mode, a missing or malformed witness, or a ``tol`` that is NaN,
    infinite or negative raises ValueError before anything is simulated.
    """
    _check_tol("tol", tol)
    if mode not in ("exact", "up_to_diagonal", "up_to_diag_and_row_perm"):
        raise ValueError(f"unknown mode {mode!r}")
    permuted = mode == "up_to_diag_and_row_perm"
    if permuted and row_perm is None:
        raise ValueError("mode up_to_diag_and_row_perm needs a row_perm witness")
    nq = circuit.total_qubits
    if isinstance(mat, SparseIsometry):
        if mat.n != circuit.n:
            return EquivalenceResult(False, math.inf)
        ncols = 1 << mat.m
        mat_rows = mat.rows
        m_rows = np.fromiter(mat_rows, dtype=np.int64, count=len(mat_rows))
        _admit(nq, len(m_rows) * ncols)
        m_vals = np.zeros((len(m_rows), ncols), dtype=complex)
        for r, row in enumerate(mat_rows.values()):
            m_vals[r, list(row)] = list(row.values())
    else:
        m_vals = np.asarray(mat, dtype=complex)
        if m_vals.ndim == 1:
            m_vals = m_vals[:, None]
        ncols = m_vals.shape[1]
        if m_vals.shape[0] != (1 << circuit.n) or ncols > m_vals.shape[0]:
            return EquivalenceResult(False, math.inf)
        m_rows = np.arange(1 << circuit.n)
    _check_simulable(circuit)
    if permuted:
        _admit(nq, 1 << circuit.n)
        row_perm = check_permutation(row_perm, 1 << circuit.n)
    restore_tol = max(tol, 1e-10)
    _admit(nq, ncols * ncols)
    rows, action = _data_action(
        circuit, np.arange(ncols), np.eye(ncols, dtype=complex), restore_tol
    )
    if permuted:
        rows = row_perm[rows]
    every = _sorted_unique(np.concatenate([rows, m_rows]))
    _admit(nq, len(every) * ncols)
    a = np.zeros((len(every), ncols), dtype=complex)
    a[np.searchsorted(every, rows)] = action
    m = np.zeros_like(a)
    m[np.searchsorted(every, m_rows)] = m_vals
    diag = None
    if mode == "exact":
        residual = float(np.linalg.norm(a - m))
    else:
        diag = np.ones(ncols, dtype=complex)
        for j in range(ncols):
            ip = np.vdot(m[:, j], a[:, j])
            if abs(ip) > EPS0:
                diag[j] = ip / abs(ip)
        residual = float(np.linalg.norm(a - m * diag[None, :]))
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
    return int_field(q, "qubit index")


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
        lambda st: tuple(
            sorted({int_field(k, "state index"): complex(re, im) for k, re, im in st}.items())
        ),
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
        int_field(d["n"], "n"),
        tuple(d.get("ancillas", ())),
        [gate_from_dict(g) for g in d["gates"]],
    )
    c.validate()
    return c
