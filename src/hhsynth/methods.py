"""End-to-end circuit decompositions built on Householder reflections.

All methods reduce the input column by column to a (possibly permuted)
diagonal isometry and return the inverse gate sequence.  Reflections are
emitted "up to diagonal and permutation": each reflection's pivoting stage
yields an operator that is exactly ``Diag . Perm . H`` for a classically
known diagonal and permutation.  That factor, the residual, is a plain
list of index-map gates; it is applied to the working matrix instead of
being emitted as gates, evaluated (:func:`~hhsynth.gates.relabel`) only on
the matrix's nonzero rows and on the 2^m target rows, which it carries to
their current positions.  The closing permuted-diagonal stage emits one
small permutation plus one diagonal gate that absorb everything.

The gate order convention: ``StructuredCircuit.gates`` lists gates in
application order, so a reduction sequence with operator product
``G_k ... G_1 G_0`` (G_0 applied first to the matrix) yields the circuit
``dagger(G_0), dagger(G_1), ..., dagger(G_k)`` appended after the gates
implementing the reduced form.

The three sparse methods share one driver, :func:`_reduce_columns`: they
differ only in the embedding (no fill-in adds a clean top qubit), the
column order, the target rows and how each step's reflection is built.
Sparse basic and no fill-in pivot the Householder vector into a block
(:func:`householder_up_to`); fixed envelope confines it to the trailing
qubits its envelope allows, with no pivoting, and decrements after every
step.  Every reflection has one shape, :func:`_reflection`.  The dense
unitary's halving step reflects each column once, on the whole remaining
block, and reads the next level's block from that pass; the dense
isometry is its level 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import costs as C
from . import gates as G
from . import householder as hh
from . import ordering as O
from . import pivoting as P
from .numerics import (
    EPS0,
    NotAnIsometryError,
    SparseIsometry,
    apply_permutations,
    check_permutation,
    invert_permutation,
    qubit_count,
    validate_isometry,
)


@dataclass(eq=False)
class StepTrace:
    """Per-column record of one reduction step (working coordinates).

    The scalar fields (``step`` to ``skipped``) are recorded on every
    compile.  The entry fields (the supports, ``modified``, ``fill_in`` and
    ``eliminated``) are recorded only when the decomposition is called
    with ``trace_entries=True`` and stay empty otherwise: a dense column
    changes O(N * M) entries, so listing them would cost as much as the
    reduction itself.  ``modified`` holds the ``(row, col)`` int pairs the
    step changed outside the target row and the reduced column.  Compared
    by identity.
    """

    step: int
    column: int
    target_current: int
    nnz: int  # nonzeros of the reduced column (1 when skipped)
    s: int  # register size budgeted for the reflection
    skipped: bool
    hh_support: frozenset = frozenset()
    col_support: frozenset = frozenset()
    row_support: frozenset = frozenset()
    modified: tuple = ()
    fill_in: tuple = ()
    eliminated: tuple = ()


@dataclass
class DecompositionResult:
    circuit: G.StructuredCircuit
    audit: C.CostReport
    trace: list[StepTrace]


def _result(
    circuit: G.StructuredCircuit, regime: C.AncillaRegime, trace: list[StepTrace]
) -> DecompositionResult:
    """The circuit with its audit under ``regime`` and its trace."""
    return DecompositionResult(circuit, C.audit_circuit(circuit, regime), trace)


def _require_isometry(w, tol: float = 1e-9):
    rep = validate_isometry(w, tol)
    if not rep.ok:
        raise NotAnIsometryError(rep)


def _reflection(
    before: list[G.Gate], dress: list[G.Gate], n: int, after: list[G.Gate]
) -> list[G.Gate]:
    """``before + dress + H0Phase(pi) + dress + after``, the H0Phase on all
    ``n`` qubits: the shape of every reflection the methods emit."""
    return before + dress + [G.H0Phase(tuple(range(n)), math.pi)] + dress + after


def _apply_residual(
    residual: list[G.Gate], work: SparseIsometry, targets: np.ndarray
) -> tuple[SparseIsometry, np.ndarray]:
    """The working matrix and the current target rows after a pivot
    residual, with the residual evaluated once on the occupied rows and the
    targets.  Each column is rebuilt in ascending order of its rows before
    the residual; an entry whose rephased amplitude is at most ``EPS0``
    is dropped, as :meth:`SparseIsometry.set` drops it."""
    occupied = sorted(set().union(*work.cols))
    dst, ph = G.relabel(residual, work.n, occupied + targets.tolist())
    moved = dict(zip(occupied, zip(dst.tolist(), ph.tolist())))
    out = SparseIsometry(work.n, work.m)
    for col, new in zip(work.cols, out.cols):
        for i in sorted(col):
            i2, p = moved[i]
            a = col[i] * p
            if abs(a) > EPS0:
                new[i2] = a
    return out, dst[len(occupied):]


# ---------------------------------------------------------------------------
# one reflection, up to diagonal and permutation


def householder_up_to(
    rows: np.ndarray,
    amps: np.ndarray,
    n: int,
    samples: int = 100,
    seed=0,
) -> tuple[list[G.Gate], list[G.Gate], int]:
    """Gates implementing the reflection about ``v = (rows, amps)`` up to diag x perm.

    Returns ``(gates, residual, s)`` with
    ``product(gates) == residual . H_v`` exactly, where the residual is the
    pivot stage's own operator and ``s`` the register size.  When ``v`` is
    a single basis state the reflection is itself diagonal: no gates are
    emitted and the residual is that diagonal.
    """
    if not len(rows) or not np.all(np.abs(amps) > EPS0):
        raise ValueError("a zero or NaN amplitude, or none, has no reflection")
    if len(rows) == 1:
        # I - 2|idx><idx|: a Z on the last qubit controlled by the others
        idx = int(rows[0])
        z = np.diag([-1.0, 1.0] if idx & 1 == 0 else [1.0, -1.0])
        return [], [G.MCU(G.controls_on(idx, range(n - 1), n), n - 1, z)], 0
    s = (len(rows) - 1).bit_length()
    splitting, blk = P.choose_splitting(rows, n, s, samples=samples, seed=seed)
    plan = P.pivot_plan(rows, amps, splitting, blk)
    residual = plan.residual + plan.x_layer
    # register factor of the pivoted vector, after the X layer (block -> 0)
    unprep = G.SPBlock.from_arrays(splitting.register_qubits, *plan.register, inverted=True)
    gates = _reflection(plan.gates + plan.x_layer + [unprep], [], n, unprep.dagger())
    return gates, residual, s


# ---------------------------------------------------------------------------
# permuted diagonal isometries


def perm_diag_reduce(w: SparseIsometry) -> tuple[list[G.Gate], np.ndarray, np.ndarray]:
    """Circuit for an isometry with one unit-modulus entry per column.

    Pivots the occupied rows (the column-sum pattern) into one block of the
    canonical splitting (register = trailing m qubits, target block chosen
    greedily), which reduces the matrix to ``I_{n,m} . Perm_m . Diag_m``;
    returns the gate list ``[Diagonal_m, PermutationGate_m, inverted
    grouping gates]`` whose action on an embedded input |j> reproduces the
    matrix, plus the closing diagonal values and permutation as data.
    """
    n, m = w.n, w.m
    rows_of = np.empty(1 << m, dtype=np.int64)
    amp_of = np.empty(1 << m, dtype=complex)
    for j in range(1 << m):
        col = w.col(j)
        if len(col) != 1:
            raise ValueError(f"column {j} does not hold exactly one entry")
        ((r, a),) = col.items()
        if abs(abs(a) - 1.0) > 1e-6:
            raise ValueError(f"column {j} entry is not unit modulus")
        rows_of[j] = r
        amp_of[j] = a / abs(a)
    if len(set(rows_of.tolist())) != (1 << m):
        raise ValueError("occupied rows are not distinct")

    splitting = P.QubitSplitting(tuple(range(n - m)), tuple(range(n - m, n)))
    if m == n:
        blk = 0
    else:
        _, inside = P.block_scores(rows_of, np.array([splitting.block_mask]))
        blk = splitting.split(int(inside[0]))[0]
    # the column-sum state; its amplitudes leave the plan's gates unchanged
    plan = P.pivot_plan(rows_of, amp_of / math.sqrt(1 << m), splitting, blk)
    f_gates = plan.gates + plan.x_layer

    # grouped matrix: column j's entry sits at plain index perm_m[j]
    perm_m, phase_m = G.relabel(plan.residual + plan.x_layer, n, rows_of)
    if np.any(perm_m >= (1 << m)):
        raise AssertionError("grouping failed to land in the top block")
    delta = amp_of * phase_m
    delta = delta / np.abs(delta)

    gates = _phase_fix(delta, 0, n)
    if not np.array_equal(perm_m, np.arange(1 << m)):
        gates.append(G.PermutationGate(tuple(range(n - m, n)), tuple(int(x) for x in perm_m)))
    gates.extend(G.dagger_sequence(f_gates))
    return gates, delta, perm_m


# ---------------------------------------------------------------------------
# sparse Householder decompositions: one column-reduction driver


def _reduce_columns(
    work: SparseIsometry,
    order,
    targets: np.ndarray,
    reflect,
    trace_entries: bool = False,
    forbid_fill_in: bool = False,
) -> tuple[list[G.Gate], list[StepTrace]]:
    """Reduce column ``order[i]`` onto row ``targets[i]`` at step ``i``.

    ``reflect(i, u)`` builds step ``i`` as ``(gates, residual, s)`` with
    ``product(gates) == residual . H_u`` (``u`` is ``(rows, amps)`` from
    :func:`~hhsynth.householder.sparse_reflection`, None on a skipped step;
    a residual of ``[]`` is the identity).  The residual is applied to
    the matrix instead of being emitted; it moves the matrix rows and the
    remaining target rows together, so ``targets`` always holds current
    positions.  Ends with :func:`perm_diag_reduce` and returns
    ``(gates, trace)``; ``work`` is consumed.  The trace's entry fields
    are filled only with ``trace_entries``; ``forbid_fill_in`` raises
    :class:`~hhsynth.gates.CircuitVerificationError` at a step whose
    update fills in an entry.
    """
    committed: list[G.Gate] = []
    trace: list[StepTrace] = []
    for i, c in enumerate(order):
        c, t = int(c), int(targets[i])
        col = work.col(c)
        if len(col) == 1 and t in col:
            gates, residual, s = reflect(i, None)
            trace.append(StepTrace(i, c, t, 1, s, True))
        else:
            u = hh.sparse_reflection(col, t)
            step = StepTrace(i, c, t, len(col), 0, False)
            if trace_entries:  # the supports before the update
                step.hh_support = frozenset(u[0].tolist())
                step.col_support = frozenset(col)
                step.row_support = frozenset(work.row(t))
            rec = hh.reduce_column(work, c, t)
            if forbid_fill_in and rec.fill_in:
                raise G.CircuitVerificationError(f"fill-in occurred at step {i}")
            gates, residual, step.s = reflect(i, u)
            if trace_entries:
                step.modified = tuple(rec.modified)
                step.fill_in = tuple(rec.fill_in)
                step.eliminated = tuple(rec.eliminated)
            trace.append(step)
        if residual:
            work, targets = _apply_residual(residual, work, targets)
        committed.extend(gates)
    pd_gates, _, _ = perm_diag_reduce(work)
    return pd_gates + G.dagger_sequence(committed), trace


def _pivoted_reflections(n: int, samples: int, seed):
    """The ``reflect`` of sparse basic and no fill-in: each step pivots
    with :func:`householder_up_to`, drawing splittings from one seeded rng
    for the whole run."""
    rng = np.random.default_rng(seed)

    def reflect(i, u):
        if u is None:
            return [], [], 0
        return householder_up_to(*u, n, samples=samples, seed=rng)

    return reflect


def sparse_householder_iso(
    w: SparseIsometry,
    strategy: O.EliminationStrategy | None = None,
    regime: C.AncillaRegime = C.AncillaRegime.none(),
    samples: int = 100,
    seed=0,
    *,
    trace_entries: bool = False,
) -> DecompositionResult:
    """Column-by-column sparse reduction with reflections up to diag x perm.

    At step ``i`` the column ``sigma^{-1}(i)`` of the working matrix is
    reflected onto the current position of original row ``rho^{-1}(i)``
    (:func:`_reduce_columns`).  ``trace_entries`` fills the trace's entry
    fields (:class:`StepTrace`).
    """
    _require_isometry(w)
    if strategy is None:
        strategy = O.greedy_order(w)
    gates, trace = _reduce_columns(
        w.copy(),
        invert_permutation(strategy.sigma),
        strategy.rows[: 1 << w.m],
        _pivoted_reflections(w.n, samples, seed),
        trace_entries,
    )
    return _result(G.StructuredCircuit(w.n, (), gates), regime, trace)


# ---------------------------------------------------------------------------
# dense Householder decompositions


def _reduce_dense_level(
    v: np.ndarray, cols: int, k: int, n: int, trace_entries: bool = False
) -> tuple[list[G.Gate], np.ndarray, list[StepTrace], np.ndarray]:
    """Level ``k`` of the halving scheme: reduce each of the first ``cols``
    columns of a dense block to its own index.

    The reflections act on the whole block: each is [SP^, H0 on all ``n``
    qubits, SP] with the state-preparation blocks on qubits ``k .. n-1``
    and the H0 dressed by X on the ``k`` fixed qubits.  Returns (the
    reflections in circuit order, diagonal values, trace, reduced block);
    columns already reduced are skipped.  Each column costs its skip test,
    its Householder vector and one in-place rank-one update of a copy of
    ``v``; with ``trace_entries`` the trace's entry fields are filled too,
    from a copy of the block taken before each update.  The trace and the
    residue check look at the first ``cols`` columns only.
    """
    sp_qubits = tuple(range(k, n))
    dress = [G.x_gate(q) for q in range(k)]
    work = v.copy()
    triples: list[list[G.Gate]] = []
    trace: list[StepTrace] = []
    for i in range(cols):
        col = work[:, i]  # a view: read it before the update
        mag = np.abs(col)
        off = mag**2
        off[i] = 0.0
        if math.sqrt(float(np.sum(off))) <= 1e-12:
            trace.append(StepTrace(i, i, i, 1, 0, True))
            continue
        u, _ = hh.reflection(col, i)
        step = StepTrace(i, i, i, int(np.count_nonzero(mag > EPS0)), len(sp_qubits), False)
        if trace_entries:
            step.col_support = frozenset(np.flatnonzero(mag > EPS0).tolist())
            step.row_support = frozenset(np.flatnonzero(np.abs(work[i, :cols]) > EPS0).tolist())
            pre = work[:, :cols].copy()
        hh.reflect(u, work)
        support = np.flatnonzero(np.abs(u) > EPS0)
        unprep = G.SPBlock.from_arrays(sp_qubits, support, u[support], inverted=True)
        triples.append(_reflection([unprep], dress, n, unprep.dagger()))
        if trace_entries:
            changed = np.argwhere(np.abs(work[:, :cols] - pre) > 1e-12)
            changed = changed[(changed[:, 0] != i) & (changed[:, 1] != i)]
            step.modified = tuple(map(tuple, changed.tolist()))
            step.hh_support = frozenset(support.tolist())
        trace.append(step)
    delta = np.diagonal(work)[:cols]
    body = np.abs(work[:, :cols])
    np.fill_diagonal(body, 0.0)
    if np.max(body) > 1e-8:
        raise AssertionError("dense reduction left off-diagonal residue")
    delta = delta / np.abs(delta)
    return [g for tri in reversed(triples) for g in tri], delta, trace, work


def _phase_fix(delta: np.ndarray, k: int, n: int) -> list[G.Gate]:
    """The diagonal that restores level ``k``'s reduced phases ``delta``
    (level 0 also closes :func:`perm_diag_reduce`): on the ``k`` fixed
    qubits (all 1) and the trailing ``log2 len(delta)`` qubits; none when
    every phase is within ``EPS0`` of 1."""
    if np.max(np.abs(delta - 1.0)) <= EPS0:
        return []
    m = qubit_count(len(delta))
    phases = np.ones(1 << (k + m), dtype=complex)
    base = ((1 << k) - 1) << m
    phases[base : base + len(delta)] = delta
    return [G.Diagonal(tuple(range(k)) + tuple(range(n - m, n)), tuple(phases))]


def dense_householder_iso(
    v: np.ndarray,
    regime: C.AncillaRegime = C.AncillaRegime.none(),
    *,
    trace_entries: bool = False,
) -> DecompositionResult:
    """Dense isometry via one reflection per column plus a diagonal: level
    0 of :func:`dense_householder_unitary`'s halving scheme.
    ``trace_entries`` fills the trace's entry fields (:class:`StepTrace`)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    _require_isometry(v)
    n = qubit_count(v.shape[0])
    level, delta, trace, _ = _reduce_dense_level(v, v.shape[1], 0, n, trace_entries)
    return _result(G.StructuredCircuit(n, (), _phase_fix(delta, 0, n) + level), regime, trace)


def dense_householder_unitary(
    u: np.ndarray,
    regime: C.AncillaRegime = C.AncillaRegime.none(),
    *,
    trace_entries: bool = False,
) -> DecompositionResult:
    """Unitary via recursive halving.

    Step k reduces the first half of the remaining block's columns as an
    isometry from n-k-1 to n-k qubits; its phase-fix diagonal and every H0
    acquire the k already-fixed qubits as controls (free X dressing), while
    the state-preparation blocks stay uncontrolled, so with controls off
    each reflection telescopes to the identity.  ``trace_entries`` fills
    the trace's entry fields (:class:`StepTrace`).
    """
    u = np.asarray(u, dtype=complex)
    n = qubit_count(u.shape[0])
    if u.shape[0] != u.shape[1]:
        raise ValueError("not square")
    if n < 1:
        raise ValueError("need at least one qubit")
    _require_isometry(u)
    work = u
    gates: list[G.Gate] = []
    trace: list[StepTrace] = []
    for k in range(n):
        half = 1 << (n - k - 1)
        level, delta, tr, red = _reduce_dense_level(work, half, k, n, trace_entries)
        if np.max(np.abs(red[:half, half:])) > 1e-8 or np.max(np.abs(red[half:, :half])) > 1e-8:
            raise AssertionError("halving step left cross-block residue")
        if k == n - 1:
            # deepest level: the leftover 1x1 block is a phase on |1..1>,
            # folded into this level's diagonal as one more reduced phase
            fix = _phase_fix(np.append(delta, red[1, 1] / abs(red[1, 1])), k, n)
        else:
            fix = _phase_fix(delta, k, n)
            work = red[half:, half:] * delta.conj()[:, None]
        gates[:0] = fix + level
        trace.extend(tr)
    return _result(G.StructuredCircuit(n, (), gates), regime, trace)


# ---------------------------------------------------------------------------
# fixed envelope method


def fixed_envelope_iso(
    w: SparseIsometry,
    strategy: O.EliminationStrategy | None = None,
    regime: C.AncillaRegime = C.AncillaRegime.none(),
    samples: int = 100,
    seed=0,
    *,
    trace_entries: bool = False,
) -> DecompositionResult:
    """Envelope-confined reduction: reflect each column onto the top row,
    decrement, repeat; no pivoting inside the reflections.

    The driver (:func:`_reduce_columns`) runs on the row-permuted matrix
    with the targets ``0 .. 2^m - 1``: the decrement after step ``i`` (a
    skipped step included) brings target ``i + 1`` to row 0.  The
    reflection at step i acts on the trailing ``s(i)`` qubits with
    ``2^{s(i)}`` covering the permuted envelope's height above the
    diagonal, which bounds every Householder vector's support a priori.
    The reduced rows end in the last block of :func:`perm_diag_reduce`'s
    splitting, whose grouping step takes them to the top.  It needs no
    splitting search, so ``samples`` and ``seed`` have no effect; they are
    accepted for a call signature shared with the other sparse methods.
    ``trace_entries`` fills the trace's entry fields (:class:`StepTrace`).
    """
    _require_isometry(w)
    if strategy is None:
        strategy = O.greedy_order(w)
    n, m = w.n, w.m
    work = apply_permutations(w, strategy.rho, np.arange(1 << m))
    order = invert_permutation(strategy.sigma)
    # the permuted envelope: the running maximum of each step's largest row
    env = np.maximum.accumulate([max(work.col(c)) for c in order])
    dec_gate = G.Decrement(tuple(range(n)))

    def reflect(i, u):
        s_i = (int(env[i]) - i).bit_length()  # ceil(log2(1 + height above the diagonal))
        if u is None:
            return [dec_gate], [dec_gate], s_i
        # u's support is the column's support plus row 0, rows ascending
        if u[0][-1] >= (1 << s_i):
            raise G.CircuitVerificationError(
                f"column support escaped the envelope at step {i}"
            )
        unprep = G.SPBlock.from_arrays(tuple(range(n - s_i, n)), *u, inverted=True)
        return _reflection([unprep], [], n, unprep.dagger() + [dec_gate]), [dec_gate], s_i

    gates, trace = _reduce_columns(work, order, np.arange(1 << m), reflect, trace_entries)
    if not np.array_equal(strategy.rho, np.arange(1 << n)):
        inverse = tuple(invert_permutation(strategy.rho).tolist())
        gates.append(G.PermutationGate(tuple(range(n)), inverse))
    return _result(G.StructuredCircuit(n, (), gates), regime, trace)


# ---------------------------------------------------------------------------
# no fill-in method


def no_fill_in_iso(
    w: SparseIsometry,
    regime: C.AncillaRegime = C.AncillaRegime.with_dirty(1),
    samples: int = 100,
    seed=0,
    *,
    trace_entries: bool = False,
) -> DecompositionResult:
    """Fill-in-free reduction using one clean ancilla as a new top qubit.

    The input embeds as the top block of an (n+1)-qubit isometry whose
    bottom 2^n rows are empty; column i reduces onto empty row 2^n + i, so
    the update formula never touches another column, and a step that
    fills in raises :class:`~hhsynth.gates.CircuitVerificationError`.
    Register sizes come from the original column supports.
    ``trace_entries`` fills the trace's entry fields (:class:`StepTrace`).
    """
    _require_isometry(w)
    n, m = w.n, w.m
    work = SparseIsometry(n + 1, m, w.entries())
    # each target row starts empty, so no step is ever skipped
    virtual_gates, trace = _reduce_columns(
        work,
        range(1 << m),
        (1 << n) + np.arange(1 << m),
        _pivoted_reflections(n + 1, samples, seed),
        trace_entries,
        forbid_fill_in=True,
    )
    table = {0: n}
    table.update({q + 1: q for q in range(n)})
    gates = [g.remap(table) for g in virtual_gates]
    return _result(G.StructuredCircuit(n, ("clean",), gates), regime, trace)


# ---------------------------------------------------------------------------
# permutations and controlled single-qubit gates via reflections


_R0 = np.array([[1, -1], [1, 1]], dtype=complex) / math.sqrt(2.0)
_R1 = np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2.0)


def _transposition_gates(i: int, j: int, n: int) -> list[G.Gate]:
    """Reflection exchanging basis states |i> and |j| exactly.

    At most n-1 shared-control CNOTs fold the pair onto one qubit, a free
    rotation maps the fold to |i>, and the dressed reflection about |i>
    costs one (n-1)-controlled NOT.
    """
    k, adj = G.fold(j, i, range(n), n)
    rot = G.SingleQubit(k, _R1 if i & G.qubit_mask((k,), n) else _R0, label="fold")
    return _reflection(adj + [rot], G.x_layer(i, range(n), n), n, rot.dagger() + adj[::-1])


def perm_via_householder(perm) -> G.StructuredCircuit:
    """Permutation gate as a product of basis-state transpositions.

    Reduces the permutation matrix column by column; each non-fixed column
    costs one transposition reflection (2(n-1) CNOTs + one dressed
    (n-1)-controlled NOT), at most 2^n - 1 of them in total.
    """
    p = np.asarray(perm, dtype=np.int64)
    n = qubit_count(len(p))
    check_permutation(p, 1 << n)
    cur = p.copy()
    transpositions: list[list[G.Gate]] = []
    pos_of = invert_permutation(cur)  # column holding each row value
    for i in range(1 << n):
        j = int(cur[i])
        if j == i:
            continue
        transpositions.append(_transposition_gates(i, j, n))
        ci = int(pos_of[i])  # column currently mapping to row i
        cur[i], cur[ci] = i, j
        pos_of[i], pos_of[j] = i, ci
    gates: list[G.Gate] = []
    for tr in reversed(transpositions):
        gates.extend(tr)
    return G.StructuredCircuit(n, (), gates)


def controlled_u_via_householder(k: int, u: np.ndarray) -> tuple[G.StructuredCircuit, np.ndarray]:
    """k-controlled single-qubit gate up to a diagonal, via one reflection.

    Emits two free single-qubit gates around one dressed reflection about
    the basis state |1..10>, so the CNOT cost equals one k-controlled NOT.
    Returns (circuit, residual diagonal) with
    ``circuit = C_k(u) . Diag(residual)`` exactly.
    """
    if k < 1:
        raise ValueError("need at least one control")
    u = np.asarray(u, dtype=complex)
    if (
        u.shape != (2, 2)
        or not np.all(np.isfinite(u))
        or not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10
    ):
        raise ValueError("u must be a 2x2 unitary")
    n = k + 1
    dim = 1 << n
    residual = np.ones(dim, dtype=complex)
    if np.max(np.abs(u - np.diag(np.diag(u)))) <= EPS0:
        residual[dim - 2] = u[0, 0]
        residual[dim - 1] = u[1, 1]
        return G.StructuredCircuit(n, (), []), residual
    target_idx = dim - 2
    wvec, _ = hh.reflection(u[:, 0], 0)
    gh = np.array([[wvec[0], -wvec[1].conjugate()], [wvec[1], wvec[0].conjugate()]], dtype=complex)
    gates = _reflection(
        [G.SingleQubit(n - 1, gh.conj().T, label="fold")],
        G.x_layer(target_idx, tuple(range(n)), n),
        n,
        [G.SingleQubit(n - 1, gh, label="fold")],
    )
    # residual: H (2x2 block on the last two basis states) = C_k(u) . D
    h2 = hh.reflect(wvec, np.eye(2, dtype=complex))
    d2 = u.conj().T @ h2
    if np.max(np.abs(d2 - np.diag(np.diag(d2)))) > 1e-10:
        raise AssertionError("controlled-u residual is not diagonal")
    residual[dim - 2] = d2[0, 0]
    residual[dim - 1] = d2[1, 1]
    return G.StructuredCircuit(n, (), gates), residual
