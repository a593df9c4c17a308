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
with d_r for all rows obtained in one multi-source breadth-first search on
the s-dimensional hypercube started from the free slots.

Doubly-controlled NOTs are emitted as the 3-CNOT relative-phase network;
the known diagonal residual is part of the plan's PermPhase, so replaying
the plan on a state is exact.  Sparse state preparation inverts the plan
and folds those phases into the dense block's target state.

The plan works on the state's support only: splittings are scored with
bit masks over the nonzero indices, and each step's residual (a word of
index-map gates) is evaluated on the nonzeros alone, so planning costs
polynomial time in n and nnz, with no 2^n array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates as G
from .numerics import EPS0, hamming, prune_state, state_norm


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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

    @property
    def block_mask(self) -> int:
        """The block qubits' bits in a full basis index."""
        return _block_mask(self.n, self.register_qubits)

    def join(self, blk: int, reg: int) -> int:
        out = G._scatter_subset(0, blk, self.block_qubits, self.n)
        return G._scatter_subset(out, reg, self.register_qubits, self.n)


def _block_mask(n: int, register_qubits) -> int:
    """The bits of a full n-qubit basis index outside the register."""
    return ((1 << n) - 1) ^ sum(1 << (n - 1 - q) for q in register_qubits)


def _score(block_mask: int, pattern: np.ndarray) -> tuple[int, int]:
    """(occupancy of the fullest block, a pattern index inside it).

    Ties go to the smallest block: with the block qubits in ascending
    order, block values order like the masked indices."""
    masked, counts = np.unique(pattern & block_mask, return_counts=True)
    k = int(np.argmax(counts))
    return int(counts[k]), int(masked[k])


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
    pattern = np.array(sorted(set(pattern)), dtype=np.int64)
    if len(pattern) > (1 << s):
        raise ValueError("pattern does not fit in a 2^s block")
    if s == n:
        return QubitSplitting((), tuple(range(n))), 0
    if math.comb(n, s) <= samples:
        candidates = _all_register_subsets(n, s)
    else:
        candidates = _sampled_register_subsets(n, s, samples, as_rng(seed))
    best = None
    for reg in candidates:
        occ, inside = _score(_block_mask(n, reg), pattern)
        if best is None or occ > best[0]:
            best = (occ, reg, inside)
    _, reg, inside = best
    sp = QubitSplitting(tuple(q for q in range(n) if q not in reg), reg)
    return sp, sp.split(inside)[0]


def _all_register_subsets(n: int, s: int):
    return [tuple(c) for c in itertools.combinations(range(n), s)]


def _sampled_register_subsets(n: int, s: int, samples: int, rng):
    seen = set()
    out = []
    attempts = 0
    while len(out) < samples and attempts < 50 * samples:
        attempts += 1
        reg = tuple(sorted(int(q) for q in rng.choice(n, size=s, replace=False)))
        if reg not in seen:
            seen.add(reg)
            out.append(reg)
    return out


def hypercube_multisource_bfs(s: int, sources) -> tuple[np.ndarray, np.ndarray]:
    """Distances on the s-cube from a set of source vertices.

    Returns ``(dist, src)``: for every vertex, the Hamming distance to the
    nearest source and that source's index (smallest source on ties).
    """
    size = 1 << s
    dist = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    src = np.full(size, -1, dtype=np.int64)
    frontier = sorted(int(x) for x in sources)
    for v in frontier:
        dist[v] = 0
        src[v] = v
    d = 0
    while frontier:
        reached: dict[int, int] = {}
        for v in frontier:
            for b in range(s):
                w = v ^ (1 << b)
                if dist[w] > d + 1:
                    cand = int(src[v])
                    if w not in reached or cand < reached[w]:
                        reached[w] = cand
        d += 1
        frontier = []
        for w in sorted(reached):
            dist[w] = d
            src[w] = reached[w]
            frontier.append(w)
    return dist, src


@dataclass
class PivotStep:
    cnots: int  # adjust CNOTs used (Hamming distance - 1)
    gates: list[G.Gate] = field(default_factory=list)


@dataclass
class PivotPlan:
    steps: list[PivotStep]
    gates: list[G.Gate]
    residual: G.PermPhase  # product of the emitted gates, exactly
    final_state: dict[int, complex]  # the input state after the plan
    register_state: dict[int, complex]  # its register factor (phases folded)
    x_layer: list[G.Gate]  # free X gates taking the target block to block 0


def _insertion_gates(
    splitting: QubitSplitting, source: int, dest: int, nq: int
) -> tuple[list[G.Gate], G.PermPhase, int]:
    """Gates moving ``source`` into block slot ``dest`` without disturbing
    the target block; returns (gates, residual, cnot count)."""
    n = splitting.n
    _, dst_reg = splitting.split(dest)
    diff_block = [
        q
        for q in splitting.block_qubits
        if ((source >> (n - 1 - q)) & 1) != ((dest >> (n - 1 - q)) & 1)
    ]
    if not diff_block:
        raise ValueError("source already inside the target block")
    ctrl = diff_block[0]
    pol = (source >> (n - 1 - ctrl)) & 1
    targets = diff_block[1:] + [
        q
        for q in splitting.register_qubits
        if ((source >> (n - 1 - q)) & 1) != ((dest >> (n - 1 - q)) & 1)
    ]
    gates: list[G.Gate] = []
    for t in targets:
        if pol == 1:
            gates.append(G.CNOT(ctrl, t))
        else:
            gates.append(G.MCX(((ctrl, 0),), t))
    s = splitting.s
    controls = tuple(
        (q, (dst_reg >> (s - 1 - k)) & 1) for k, q in enumerate(splitting.register_qubits)
    )
    if s == 2:
        mgates, tail = G.relaxed_mcx2(controls, ctrl, nq)
        return gates + mgates, tail.compose(G.sequence_perm_phase(gates, nq)), len(targets)
    gates.append(G.x_gate(ctrl) if s == 0 else G.MCX(controls, ctrl))
    return gates, G.sequence_perm_phase(gates, nq), len(targets)


def pivot_plan(
    v: dict[int, complex],
    splitting: QubitSplitting,
    target_block: int,
) -> PivotPlan:
    """Greedy insertion plan moving all nonzeros into the target block."""
    n = splitting.n
    s = splitting.s
    work = prune_state(v)
    if not work:
        raise ValueError("zero state")
    if len(work) > (1 << s):
        raise ValueError("more nonzeros than the target block holds")
    steps: list[PivotStep] = []
    gates: list[G.Gate] = []
    step_residuals: list[G.PermPhase] = []
    while True:
        keys = np.fromiter(work, dtype=np.int64, count=len(work))
        blk, reg = splitting.split(keys)
        outside = blk != target_block
        if not outside.any():
            break
        occupied = np.zeros(1 << s, dtype=bool)
        occupied[reg[~outside]] = True
        dist, src = hypercube_multisource_bfs(s, np.flatnonzero(~occupied))
        # cheapest outside entry, the smallest index among equals
        keys, blk, reg = keys[outside], blk[outside], reg[outside]
        cost = np.array([hamming(int(b), target_block) for b in blk]) + dist[reg]
        k = np.lexsort((keys, cost))[0]
        source = int(keys[k])
        dest = splitting.join(target_block, int(src[reg[k]]))
        sgates, pp, ncnots = _insertion_gates(splitting, source, dest, n)
        steps.append(PivotStep(ncnots, sgates))
        gates.extend(sgates)
        work = pp.apply_to_state(work)
        step_residuals.append(pp)
    register_state = {int(r): amp for r, amp in zip(reg, work.values())}
    total = G.sequence_perm_phase(step_residuals, n)
    x_layer = G.x_layer(splitting.join(target_block, 0), splitting.block_qubits, n)
    return PivotPlan(steps, gates, total, work, register_state, x_layer)


def sparse_state_prep(
    v: dict[int, complex],
    samples: int = 100,
    seed=0,
) -> G.StructuredCircuit:
    """Circuit C with C|0..0> = v, phase-exact.

    Structure: free X gates selecting the target block, one dense
    state-preparation block on the s register qubits (with the plan's
    residual phases folded into its target state), then the inverted pivot
    gates.  The CNOT count is the pivot cost plus one dense s-qubit
    preparation.
    """
    v = prune_state(v)
    n = max(max(v, default=0).bit_length(), 1)
    return sparse_state_prep_on(v, n, samples=samples, seed=seed)


def sparse_state_prep_on(
    v: dict[int, complex],
    n: int,
    samples: int = 100,
    seed=0,
) -> G.StructuredCircuit:
    """Same as :func:`sparse_state_prep` with an explicit qubit count."""
    v = prune_state(v)
    if not v:
        raise ValueError("zero state cannot be prepared")
    nrm = state_norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state norm {nrm} is not 1")
    if max(v) >= (1 << n):
        raise ValueError("state index out of range")
    nnz = len(v)
    s = (nnz - 1).bit_length()
    splitting, blk = choose_splitting(v.keys(), n, s, samples=samples, seed=seed)
    plan = pivot_plan(v, splitting, blk)
    gates: list[G.Gate] = list(plan.x_layer)
    if s == 0:
        amp = plan.register_state[0]
        if abs(amp - 1.0) > EPS0:
            q = splitting.block_qubits[0] if splitting.block_qubits else 0
            gates.append(G.SingleQubit(q, np.eye(2) * amp, label="phase"))
    else:
        gates.append(
            G.SPBlock.from_dict(splitting.register_qubits, plan.register_state)
        )
    gates.extend(G.dagger_sequence(plan.gates))
    circuit = G.StructuredCircuit(n, (), gates)
    circuit.validate()
    return circuit
