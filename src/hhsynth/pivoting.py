"""Pivoting: permutation circuits that group a sparse state's nonzeros.

Given a state with ``nnz`` nonzero amplitudes and ``s = ceil(log2 nnz)``, a
splitting partitions the n qubits into ``n - s`` block qubits and ``s``
register qubits; the state reshapes into 2^{n-s} blocks of size 2^s.  The
plan inserts every nonzero lying outside a chosen target block into a free
slot of that block, one entry per step, using up to ``n - 1`` CNOTs (shared
control on a block qubit where source and target differ) plus one
s-controlled NOT on the destination register pattern.  No nonzero ever
leaves the target block, so the step count is exactly the number of
initially-outside entries.

Greedy choices: the splitting maximizes the best block's initial occupancy
(exhaustive when there are at most ``samples`` splittings, else that many
seeded draws), and each insertion minimizes the Hamming cost d = d_c + d_r,
with d_r for all rows from one multi-source breadth-first search per plan
on the s-dimensional hypercube, from the free slots, repaired at each step.

Doubly-controlled NOTs are emitted as the 3-CNOT relative-phase network;
the plan's residual, a list of index-map gates, names each one as the
doubly-controlled NOT and its known diagonal, so replaying the plan on a
state is exact.  Sparse state preparation inverts the plan and folds those
phases into the dense block's target state.

The plan works on the state's support only, taken as an array of basis
indices and one of amplitudes: splittings are scored with bit masks over
the nonzero indices, all candidates by one row-wise sort of the
candidates x nnz masked indices (:func:`block_scores`, in chunks under
:data:`~hhsynth.gates.LIVE_CAP`), and each step tests block membership
with the target's mask, splits the outside entries only and moves the two
arrays by its residual (:func:`~hhsynth.gates.relabel`), so planning costs
polynomial time in n and nnz, with no 2^n array.  The exhaustive candidates
of an ``(n, s)`` and their masks are memoized, since one compile searches
the same ``(n, s)`` again and again; sampled ones are drawn on every call.
The register factor comes out as two arrays too, which
:meth:`~hhsynth.gates.SPBlock.from_arrays` takes: no dict on the way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates as G
from .numerics import EPS0, amplitude_norm, prune_state


@dataclass(frozen=True)
class QubitSplitting:
    """Disjoint ordered block/register qubit sets covering 0..n-1."""

    block_qubits: tuple[int, ...]
    register_qubits: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.block_qubits) + len(self.register_qubits)

    @property
    def s(self) -> int:
        return len(self.register_qubits)

    def split(self, index):
        """(block value, register value) of a full basis index, or of each
        index in an int64 array."""
        return (
            G._subset_values(index, self.block_qubits, self.n),
            G._subset_values(index, self.register_qubits, self.n),
        )

    @functools.cached_property
    def block_mask(self) -> int:
        """The block qubits' bits in a full basis index."""
        return _block_mask(self.n, self.register_qubits)

    def join(self, blk: int, reg: int) -> int:
        out = G._scatter_subset(0, blk, self.block_qubits, self.n)
        return G._scatter_subset(out, reg, self.register_qubits, self.n)


def _block_mask(n: int, register_qubits) -> int:
    """The bits of a full n-qubit basis index outside the register."""
    return ((1 << n) - 1) ^ G.qubit_mask(register_qubits, n)


def block_scores(pattern: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each block mask, (occupancy of the fullest block, the masked
    pattern index of that block).

    One row per mask: the masked pattern is sorted, and each position's
    run length is its distance from the start of its run of equal values.
    The first position holding the longest run is the smallest block value
    with that count, so ties go to the smallest block: with the block
    qubits in ascending order, block values order like the masked indices.
    At most ``LIVE_CAP // len(pattern)`` rows are held at a time.
    """
    occ = np.empty(len(masks), dtype=np.int64)
    inside = np.empty(len(masks), dtype=np.int64)
    width = len(pattern)
    pos = np.arange(width)
    step = max(1, G.LIVE_CAP // width)
    for lo in range(0, len(masks), step):
        masked = pattern & masks[lo : lo + step, None]
        masked.sort(axis=1)
        run = np.zeros(masked.shape, dtype=pos.dtype)
        np.multiply(masked[:, 1:] != masked[:, :-1], pos[1:], out=run[:, 1:])
        np.maximum.accumulate(run, axis=1, out=run)  # start of each run
        np.subtract(pos + 1, run, out=run)
        rows = np.arange(len(masked))
        best = run.argmax(axis=1)
        occ[lo : lo + step] = run[rows, best]
        inside[lo : lo + step] = masked[rows, best]
    return occ, inside


def choose_splitting(
    pattern, n: int, s: int, samples: int = 100, seed=0
) -> tuple[QubitSplitting, int]:
    """Pick the splitting whose best block holds the most pattern elements.

    Exhausts all C(n, s) register choices when there are at most ``samples``
    of them, otherwise scores ``samples`` distinct seeded draws.  Ties keep
    the first candidate seen (enumeration order, or draw order).
    """
    if s > n:
        raise ValueError(f"register size {s} exceeds {n} qubits")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    pattern = G._sorted_unique(np.fromiter(pattern, dtype=np.int64))
    if len(pattern) > (1 << s):
        raise ValueError("pattern does not fit in a 2^s block")
    if s == n:
        return QubitSplitting((), tuple(range(n))), 0
    if not len(pattern):
        raise ValueError("empty pattern")
    if math.comb(n, s) <= samples:
        registers, masks = _every_candidate(n, s)
    else:
        registers = _sampled_register_subsets(n, s, samples, np.random.default_rng(seed))
        masks = _block_masks(n, registers)
    occ, inside = block_scores(pattern, masks)
    k = int(np.argmax(occ))
    reg = registers[k]
    sp = QubitSplitting(tuple(q for q in range(n) if q not in reg), reg)
    return sp, sp.split(int(inside[k]))[0]


def _block_masks(n: int, registers) -> np.ndarray:
    """The block mask of each register choice."""
    return np.fromiter((_block_mask(n, r) for r in registers), dtype=np.int64, count=len(registers))


@functools.lru_cache(maxsize=32)
def _every_candidate(n: int, s: int) -> tuple[tuple, np.ndarray]:
    """Every register choice of ``(n, s)`` and its read-only block mask."""
    registers = tuple(_all_register_subsets(n, s))
    masks = _block_masks(n, registers)
    masks.flags.writeable = False
    return registers, masks


def _all_register_subsets(n: int, s: int):
    return [tuple(c) for c in itertools.combinations(range(n), s)]


def _sampled_register_subsets(n: int, s: int, samples: int, rng):
    seen = set()
    out = []
    attempts = 0
    while len(out) < samples and attempts < 50 * samples:
        attempts += 1
        reg = tuple(sorted(rng.choice(n, size=s, replace=False).tolist()))
        if reg not in seen:
            seen.add(reg)
            out.append(reg)
    return out


def hypercube_multisource_bfs(s: int, sources) -> tuple[np.ndarray, np.ndarray]:
    """Distances on the s-cube from the source vertices (an int array or list).

    Returns ``(dist, src)``: for every vertex, the Hamming distance to the
    nearest source and that source's index (smallest source on ties).  The
    search is level-synchronous: each level's vertices are the frontier's
    unvisited neighbours, and each keeps the smallest source among the
    frontier vertices that reach it.
    """
    size = 1 << s
    dist = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    src = np.full(size, size, dtype=np.int64)  # past every vertex: unreached
    sources = np.asarray(sources, dtype=np.int64)
    dist[sources] = 0
    src[sources] = sources
    bits = 1 << np.arange(s, dtype=np.int64)
    d = 0
    frontier = np.flatnonzero(dist == 0)
    while frontier.size:
        reached = (frontier[:, None] ^ bits).ravel()
        via = np.repeat(src[frontier], s)
        new = dist[reached] > d
        reached, via = reached[new], via[new]
        np.minimum.at(src, reached, via)
        d += 1
        dist[reached] = d
        frontier = np.flatnonzero(dist == d)
    src[src == size] = -1
    return dist, src


def _fill_slot(dist: np.ndarray, src: np.ndarray, free: np.ndarray, slot: int) -> np.ndarray:
    """Take ``slot`` out of the sorted ``free`` slots, repair their table
    ``(dist, src)`` in place and return the slots left.  Only the vertices
    whose nearest slot was ``slot`` change (a lost slot lowers no distance
    and keeps every other vertex's smallest nearest slot), each to the first
    nearest slot left, at most ``LIVE_CAP`` vertex-slot pairs at a time."""
    free = free[free != slot]
    cell = (src == slot).nonzero()[0]
    if not len(free):  # no slot left: every vertex is unreached
        dist[:], src[:] = np.iinfo(np.int64).max, -1
        return free
    for lo in range(0, len(cell), step := max(1, G.LIVE_CAP // len(free))):
        part = cell[lo : lo + step]
        d = np.bitwise_count(part[:, None] ^ free)
        j = d.argmin(axis=1)
        dist[part], src[part] = d[np.arange(len(part)), j], free[j]
    return free


@dataclass
class PivotStep:
    cnots: int  # adjust CNOTs used (Hamming distance - 1)
    gates: list[G.Gate] = field(default_factory=list)


@dataclass
class PivotPlan:
    steps: list[PivotStep]
    gates: list[G.Gate]
    residual: list[G.Gate]  # index-map word equal to the emitted gates, exactly
    register: tuple[np.ndarray, np.ndarray]  # (rows, amps) of the register factor, sorted
    x_layer: list[G.Gate]  # free X gates taking the target block to block 0


def _insertion_gates(
    splitting: QubitSplitting, source: int, dest: int
) -> tuple[list[G.Gate], list[G.Gate], int]:
    """Gates moving ``source`` into block slot ``dest`` without disturbing
    the target block; returns (gates, residual word, cnot count)."""
    n = splitting.n
    if not (source ^ dest) & splitting.block_mask:
        raise ValueError("source already inside the target block")
    # the control is a block qubit: the first one where source and dest differ
    ctrl, gates = G.fold(source, dest, splitting.block_qubits + splitting.register_qubits, n)
    ncnots = len(gates)
    controls = G.controls_on(dest, splitting.register_qubits, n)
    if splitting.s == 2:
        mgates, tail = G.relaxed_mcx2(controls, ctrl)
        return gates + mgates, gates + tail, ncnots
    gates.append(G.x_gate(ctrl) if splitting.s == 0 else G.MCX(controls, ctrl))
    return gates, gates, ncnots


def pivot_plan(
    keys: np.ndarray,
    amps: np.ndarray,
    splitting: QubitSplitting,
    target_block: int,
) -> PivotPlan:
    """Greedy insertion plan moving the state ``amps`` on the int64 indices
    ``keys`` (any order) into the target block, with one nearest-free-slot
    table that each step repairs (:func:`_fill_slot`)."""
    n = splitting.n
    s = splitting.s
    if not len(keys) or not np.all(np.abs(amps) > EPS0):
        raise ValueError("a zero or NaN amplitude, or none")
    if len(keys) > (1 << s):
        raise ValueError("more nonzeros than the target block holds")
    block_mask = splitting.block_mask
    target_key = splitting.join(target_block, 0)
    reg_qubits = splitting.register_qubits
    free = np.ones(1 << s, dtype=bool)
    free[G._subset_values(keys[(keys & block_mask) == target_key], reg_qubits, n)] = False
    free = np.flatnonzero(free)
    dist, src = hypercube_multisource_bfs(s, free)
    steps: list[PivotStep] = []
    gates: list[G.Gate] = []
    residual: list[G.Gate] = []
    while True:
        outside = (keys & block_mask) != target_key
        if not outside.any():
            break
        # cheapest outside entry, the smallest index among equals; d_c
        # counts the differing block bits where they sit in the index
        out_keys = keys[outside]
        out_reg = G._subset_values(out_keys, reg_qubits, n)
        cost = np.bitwise_count((out_keys ^ target_key) & block_mask) + dist[out_reg]
        best = (cost == cost.min()).nonzero()[0]
        k = best[np.argmin(out_keys[best])]
        slot = int(src[out_reg[k]])
        dest = splitting.join(target_block, slot)
        sgates, word, ncnots = _insertion_gates(splitting, int(out_keys[k]), dest)
        steps.append(PivotStep(ncnots, sgates))
        gates.extend(sgates)
        residual.extend(word)
        keys, ph = G.relabel(word, n, keys)
        amps = amps * ph
        # one slot fills: the fan fires only on the source's control bit and
        # the NOT only on the free slot, so no entry inside the block moves
        free = _fill_slot(dist, src, free, slot)
    reg = G._subset_values(keys, reg_qubits, n)
    order = reg.argsort()
    x_layer = G.x_layer(target_key, splitting.block_qubits, n)
    return PivotPlan(steps, gates, residual, (reg[order], amps[order]), x_layer)


def sparse_state_prep_on(
    v: dict[int, complex],
    n: int,
    samples: int = 100,
    seed=0,
) -> G.StructuredCircuit:
    """Circuit C on ``n`` qubits with C|0..0> = v, phase-exact.

    Structure: free X gates selecting the target block, one dense
    state-preparation block on the s register qubits (with the plan's
    residual phases folded into its target state), then the inverted pivot
    gates.  The CNOT count is the pivot cost plus one dense s-qubit
    preparation.
    """
    v = prune_state(v)
    if not v:
        raise ValueError("zero state cannot be prepared")
    if min(v) < 0 or max(v) >= (1 << n):
        raise ValueError("state index out of range")
    keys = np.fromiter(v, dtype=np.int64, count=len(v))
    amps = np.fromiter(v.values(), dtype=complex, count=len(v))
    nrm = amplitude_norm(amps)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state norm {nrm} is not 1")
    s = (len(v) - 1).bit_length()
    splitting, blk = choose_splitting(keys, n, s, samples=samples, seed=seed)
    plan = pivot_plan(keys, amps, splitting, blk)
    gates: list[G.Gate] = list(plan.x_layer)
    if s == 0:
        amp = complex(plan.register[1][0])
        if abs(amp - 1.0) > EPS0 and n == 0:  # no qubit: a global phase
            gates.append(G.Diagonal((), (amp / abs(amp),)))
        elif abs(amp - 1.0) > EPS0:
            q = splitting.block_qubits[0]
            gates.append(G.SingleQubit(q, np.eye(2) * amp, label="phase"))
    else:
        gates.append(G.SPBlock.from_arrays(splitting.register_qubits, *plan.register))
    gates.extend(G.dagger_sequence(plan.gates))
    circuit = G.StructuredCircuit(n, (), gates)
    circuit.validate()
    return circuit
