import json
import math
from functools import partial

import numpy as np
import pytest

from hhsynth import cli
from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import methods as M
from hhsynth import ordering as O
from hhsynth import pivoting as P
from hhsynth.numerics import EPS0, NotAnIsometryError, SparseIsometry

from helpers import (
    dense_reduction_steps,
    dense_reflection,
    dense_unitary_levels,
    random_isometry,
    random_sparse_isometry,
    random_state_dict,
    random_u2,
    random_unitary,
    state_arrays,
    word_dense,
)

NONE = C.AncillaRegime.none()
D1 = C.AncillaRegime.with_dirty(1)


def identity_iso(n, m):
    return SparseIsometry(n, m, [(j, j, 1.0) for j in range(1 << m)])


# ---------------------------------------------------------------------------
# householder_up_to


def test_hr_up_to_basis_vector_emits_nothing():
    gates, residual, _ = M.householder_up_to(np.array([0]), np.array([1.0 + 0j]), 3)
    assert gates == []
    # the reflection about |0> is itself the diagonal residual
    np.testing.assert_allclose(word_dense(residual, 3), np.diag([-1, 1, 1, 1, 1, 1, 1, 1]), atol=1e-12)


def test_hr_up_to_matches_reflection_oracle():
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        v = random_state_dict(n, int(rng.integers(1, (1 << n) + 1)), rng)
        rows, amps = state_arrays(v)
        gates, residual, _ = M.householder_up_to(rows, amps, n, seed=int(rng.integers(1 << 30)))
        u = np.eye(1 << n, dtype=complex)
        for g in gates:
            u = G.apply_gate(u, g, n)
        np.testing.assert_allclose(
            u, word_dense(residual, n) @ dense_reflection(rows, amps, n), atol=1e-10
        )


def test_hr_up_to_audit_bound_example():
    # nnz = 2 on four qubits: at most (4 + 16 - 5) * 2 + 64 = 94
    rng = np.random.default_rng(41)
    for _ in range(10):
        v = random_state_dict(4, 2, rng)
        gates, _, s = M.householder_up_to(*state_arrays(v), 4, seed=int(rng.integers(1 << 30)))
        audited = C.audit_circuit(G.StructuredCircuit(4, (), gates), D1).total
        assert audited <= C.bound_hr_up_to_dirty(4, s, 2) == 94


# ---------------------------------------------------------------------------
# pivot residual on the working matrix


def _rebuild_by_set(residual, work, targets):
    """The working matrix after a residual, rebuilt with one ``set`` per
    row-major entry: the oracle of :func:`methods._apply_residual`."""
    entries = list(work.entries())
    rows = np.array([i for i, _, _ in entries] + targets.tolist(), dtype=np.int64)
    dst, ph = G.relabel(residual, work.n, rows)
    out = SparseIsometry(work.n, work.m)
    for (_, j, a), i2, p in zip(entries, dst, ph):
        out.set(int(i2), j, a * complex(p))
    return out, dst[len(entries):]


def _column_items(w):
    """Each column's (row, repr of amplitude) pairs in insertion order."""
    return [[(i, repr(a)) for i, a in col.items()] for col in w.cols]


def test_apply_residual_equals_one_set_per_entry():
    rng = np.random.default_rng(95)
    moved = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, min(n, 3) + 1))
        w = random_sparse_isometry(n, m, 2 * n, rng)
        entries = list(w.entries())
        rng.shuffle(entries)  # insertion order must not matter
        w = SparseIsometry(n, m, entries)
        _, residual, _ = M.householder_up_to(
            *state_arrays(w.col(int(rng.integers(1 << m)))), n, seed=int(rng.integers(1 << 30))
        )
        targets = rng.choice(1 << n, size=1 << m, replace=False)
        got, got_targets = M._apply_residual(residual, w, targets)
        want, want_targets = _rebuild_by_set(residual, w, targets)
        assert _column_items(got) == _column_items(want)
        assert np.array_equal(got_targets, want_targets)
        moved += got.pattern() != w.pattern()
    assert moved > 0


def test_apply_residual_drops_an_entry_rephased_to_eps0():
    # an amplitude just above EPS0 whose phase's rounding takes it to EPS0
    a = math.nextafter(EPS0, 1.0)
    p = next(
        p for p in (complex(np.exp(1e-3j * k)) for k in range(1, 10_000)) if abs(a * p) <= EPS0
    )
    w = SparseIsometry(2, 1, [(0, 0, a), (1, 0, 1.0), (2, 1, a), (3, 1, 0.5)])
    residual = [G.Diagonal((0,), (p, 1.0)), G.x_gate(1)]
    got, _ = M._apply_residual(residual, w, np.array([0, 2]))
    want, _ = _rebuild_by_set(residual, w, np.array([0, 2]))
    assert _column_items(got) == _column_items(want)
    # (0, 0) moves to row 1 with phase p and is dropped; (2, 1), of the
    # same magnitude, moves to row 3 with phase 1 and is kept
    assert got.pattern() == {(0, 0), (2, 1), (3, 1)}


# ---------------------------------------------------------------------------
# perm_diag_reduce


def run_isometry_circuit(gates, n, m):
    c = G.StructuredCircuit(n, (), list(gates))
    c.validate()
    return G.circuit_unitary(c, in_dim=1 << m)


def test_perm_diag_identity_only_phases():
    gates, delta, perm = M.perm_diag_reduce(identity_iso(3, 2))
    assert gates == []
    np.testing.assert_allclose(delta, np.ones(4), atol=1e-12)
    np.testing.assert_array_equal(perm, np.arange(4))


def test_perm_diag_row_reversed_with_phases():
    w = SparseIsometry(2, 1, [(3, 0, 1.0), (2, 1, 1j)])
    gates, delta, perm = M.perm_diag_reduce(w)
    np.testing.assert_allclose(run_isometry_circuit(gates, 2, 1), w.to_dense(), atol=1e-10)


def test_perm_diag_random_audit_bound():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n, m = 6, 3
        rows = rng.choice(1 << n, size=1 << m, replace=False)
        w = SparseIsometry(n, m)
        for j, r in enumerate(rows):
            w.set(int(r), j, complex(np.exp(2j * np.pi * rng.uniform())))
        gates, delta, perm = M.perm_diag_reduce(w)
        np.testing.assert_allclose(run_isometry_circuit(gates, n, m), w.to_dense(), atol=1e-9)
        audited = C.audit_circuit(G.StructuredCircuit(n, (), list(gates)), D1).total
        assert audited <= C.bound_perm_diag_dirty(n, m) == 592


def test_perm_diag_rejects_non_diagonal_input():
    w = random_sparse_isometry(3, 1, 4, np.random.default_rng(43))
    if all(len(w.col(j)) == 1 for j in range(2)):
        pytest.skip("accidentally diagonal")
    with pytest.raises(ValueError):
        M.perm_diag_reduce(w)


# ---------------------------------------------------------------------------
# sparse basic method


def test_sparse_identity_strategy_identity_matrix():
    res = M.sparse_householder_iso(identity_iso(3, 2), O.EliminationStrategy.identity(3, 2))
    assert res.circuit.gates == ()
    assert all(t.skipped for t in res.trace)


def test_sparse_random_instances_exact():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 7)), rng)
        res = M.sparse_householder_iso(w, seed=int(rng.integers(1 << 30)))
        assert G.equivalent(res.circuit, w, "exact", 1e-9).ok


def test_sparse_audit_within_remark_bound():
    rng = np.random.default_rng(45)
    for _ in range(15):
        n, m = 5, 3
        w = random_sparse_isometry(n, m, int(rng.integers(0, 4)), rng)
        st = O.greedy_order(w)
        elim = O.elim_count(w, st)
        res = M.sparse_householder_iso(w, st, D1, seed=int(rng.integers(1 << 30)))
        audited = C.audit_circuit(res.circuit, D1).total
        assert audited <= C.bound_sparse_basic_dirty(n, m, elim)


def test_sparse_reduced_columns_never_disturbed():
    rng = np.random.default_rng(46)
    for _ in range(10):
        w = random_sparse_isometry(4, 2, int(rng.integers(0, 6)), rng)
        res = M.sparse_householder_iso(w, seed=int(rng.integers(1 << 30)), trace_entries=True)
        for t in res.trace:
            # no later step may modify an entry in an already-reduced column
            reduced_cols = {tt.column for tt in res.trace[: t.step]}
            touched_cols = {c for (_, c) in t.modified}
            assert not (touched_cols & reduced_cols)


def test_sparse_rejects_non_isometry():
    w = SparseIsometry(2, 1, [(0, 0, 1.0), (0, 1, 1.0)])
    with pytest.raises(NotAnIsometryError):
        M.sparse_householder_iso(w)


NAN = float("nan")
NAN_UNITARY = np.diag([1.0, NAN, 1.0, 1.0])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: P.sparse_state_prep_on({0: NAN, 1: 1.0}, 2), ValueError),
        (lambda: M.householder_up_to(np.array([0, 3]), np.array([NAN, 1.0]), 2), ValueError),
        (lambda: M.controlled_u_via_householder(2, np.array([[NAN, 0], [0, 1]])), ValueError),
        (lambda: M.dense_householder_unitary(NAN_UNITARY), NotAnIsometryError),
    ],
    ids=["ssp", "householder_up_to", "controlled_u", "dense_unitary"],
)
def test_nan_input_is_refused(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, complex(0, math.inf)], ids=["inf", "-inf", "inf_j"]
)
def test_infinite_input_is_refused(bad):
    # refused before any product, which would turn the infinity into NaN
    with pytest.raises(ValueError, match="2x2 unitary"):
        M.controlled_u_via_householder(2, np.array([[bad, 0], [0, 1]]))
    with pytest.raises(NotAnIsometryError):
        M.dense_householder_unitary(np.diag([1, bad, 1, 1]))
    with pytest.raises(NotAnIsometryError):
        M.dense_householder_iso(np.array([[1, 0], [0, bad], [0, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# dense methods


def test_dense_iso_identity_only_phase_fixes():
    res = M.dense_householder_iso(np.eye(4)[:, :2])
    assert res.circuit.gates == ()
    assert G.equivalent(res.circuit, np.eye(4)[:, :2], "exact", 1e-12).ok


def test_dense_iso_random_exact():
    rng = np.random.default_rng(47)
    for _ in range(10):
        v = random_isometry(3, 2, rng)
        res = M.dense_householder_iso(v)
        assert G.equivalent(res.circuit, v, "exact", 1e-9).ok


def test_dense_iso_audit_within_bound_n5():
    rng = np.random.default_rng(48)
    for _ in range(5):
        v = random_isometry(5, 2, rng)
        res = M.dense_householder_iso(v, D1)
        audited = C.audit_circuit(res.circuit, D1).total
        assert audited <= math.ceil(C.bound_dense_iso(2, 5))


def _numbers_apart(obj):
    """A JSON value with every float replaced by None, and those floats."""
    if isinstance(obj, float):
        return None, [obj]
    if isinstance(obj, dict):
        parts = {k: _numbers_apart(v) for k, v in obj.items()}
        return {k: p[0] for k, p in parts.items()}, [x for p in parts.values() for x in p[1]]
    if isinstance(obj, list):
        parts = [_numbers_apart(v) for v in obj]
        return [p[0] for p in parts], [x for p in parts for x in p[1]]
    return obj, []


@pytest.mark.parametrize("n", range(1, 7))
def test_dense_iso_is_level_0_of_the_unitary(n):
    # equal up to rounding: the unitary's level reflects the whole block,
    # so its matmuls see more columns than the isometry's
    rng = np.random.default_rng(110 + n)
    u = random_unitary(1 << n, rng)
    iso = M.dense_householder_iso(u[:, : 1 << (n - 1)])
    full = M.dense_householder_unitary(u)
    mine = G.circuit_to_dict(iso.circuit)["gates"]
    tail = G.circuit_to_dict(full.circuit)["gates"][-len(mine):]
    if n == 1:
        # the deepest level's diagonal also holds the leftover phase, so
        # it is full width; the isometry's is the 0-qubit one
        assert mine[0]["qubits"] == [] and tail[0]["qubits"] == [0]
        mine, tail = mine[1:], tail[1:]
    (shape, xs), (shape_full, ys) = _numbers_apart(mine), _numbers_apart(tail)
    assert shape == shape_full
    np.testing.assert_allclose(xs, ys, rtol=0, atol=1e-13)
    trace = cli._trace_dict(iso.trace)
    assert trace == cli._trace_dict(full.trace)[: 1 << (n - 1)]


def test_dense_iso_keeps_a_global_phase():
    # n = 1, m = 0: the phase fix is a 0-qubit diagonal, a global phase
    v = np.array([0.6, 0.8j])
    res = M.dense_householder_iso(v)
    assert res.circuit.gates[0] == G.Diagonal((), (-1.0 + 0j,))
    assert G.equivalent(res.circuit, v, "exact", 1e-12).ok


def test_dense_unitary_identity_empty():
    res = M.dense_householder_unitary(np.eye(8))
    assert res.circuit.gates == ()


def test_dense_unitary_random_exact():
    rng = np.random.default_rng(49)
    for n in (1, 2, 3):
        for _ in range(4):
            u = random_unitary(1 << n, rng)
            res = M.dense_householder_unitary(u)
            assert G.equivalent(res.circuit, u, "exact", 1e-9).ok


def test_dense_unitary_audit_within_bound_n5():
    rng = np.random.default_rng(50)
    u = random_unitary(32, rng)
    res = M.dense_householder_unitary(u, D1)
    assert G.equivalent(res.circuit, u, "exact", 1e-8).ok
    audited = C.audit_circuit(res.circuit, D1).total
    assert audited <= math.ceil(C.bound_dense_unitary(5))


def _check_dense_trace(trace, blocks):
    """Each step's trace fields against the step replayed on ``blocks``
    (``(block, cols)`` pairs, one per call of the dense reduction)."""
    expected = []
    for v, cols in blocks:
        for i, before, after, u in dense_reduction_steps(v, cols):
            if u is None:
                expected.append((i, True, (), frozenset(), frozenset(), frozenset()))
                continue
            moved = np.abs(after[:, :cols] - before[:, :cols]) > 1e-12
            modified = tuple(
                (s, t)
                for s in range(before.shape[0])
                for t in range(cols)
                if moved[s, t] and s != i and t != i
            )
            col_support = frozenset(s for s in range(before.shape[0]) if abs(before[s, i]) > 1e-12)
            row_support = frozenset(t for t in range(cols) if abs(before[i, t]) > 1e-12)
            hh_support = frozenset(k for k in range(len(u)) if abs(u[k]) > 1e-12)
            expected.append((i, False, modified, col_support, row_support, hh_support))
    assert len(trace) == len(expected)
    for t, (i, skipped, modified, col_support, row_support, hh_support) in zip(trace, expected):
        assert (t.step, t.column, t.target_current, t.skipped) == (i, i, i, skipped)
        assert t.modified == modified
        assert all(type(x) is int for pair in t.modified for x in pair)
        assert t.col_support == col_support
        assert t.row_support == row_support
        assert t.hh_support == hh_support
        assert t.nnz == (1 if skipped else len(col_support))
    json.dumps(cli._trace_dict(trace))


@pytest.mark.parametrize("n", range(1, 6))
def test_dense_unitary_trace_matches_replayed_steps(n):
    rng = np.random.default_rng(60 + n)
    fixed_first = np.eye(1 << n, dtype=complex)  # column 0 is skipped
    fixed_first[1:, 1:] = random_unitary((1 << n) - 1, rng)
    for u in (random_unitary(1 << n, rng), random_unitary(1 << n, rng), fixed_first):
        res = M.dense_householder_unitary(u, trace_entries=True)
        _check_dense_trace(res.trace, list(dense_unitary_levels(u)))
    assert any(t.skipped for t in res.trace)


@pytest.mark.parametrize("n", range(1, 6))
def test_dense_iso_trace_matches_replayed_steps(n):
    rng = np.random.default_rng(70 + n)
    for m in range(n + 1):
        v = random_isometry(n, m, rng)
        res = M.dense_householder_iso(v, trace_entries=True)
        _check_dense_trace(res.trace, [(v, 1 << m)])


def test_sparse_trace_modified_is_int_pairs():
    rng = np.random.default_rng(80)
    w = random_sparse_isometry(4, 2, 5, rng)
    res = M.sparse_householder_iso(w, trace_entries=True)
    assert any(t.modified for t in res.trace)
    for t in res.trace:
        assert type(t.modified) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in t.modified)
        assert all(type(x) is int for pair in t.modified for x in pair)
    json.dumps(cli._trace_dict(res.trace))


# ---------------------------------------------------------------------------
# fixed envelope


def test_fixed_envelope_identity_structure():
    w = identity_iso(3, 2)
    res = M.fixed_envelope_iso(w, O.EliminationStrategy.identity(3, 2))
    kinds = {type(g).__name__ for g in res.circuit.gates}
    assert kinds <= {"SingleQubit", "Decrement", "Diagonal", "PermutationGate"}
    assert G.equivalent(res.circuit, w, "exact", 1e-9).ok
    assert all(t.s == 0 for t in res.trace)


def test_fixed_envelope_random_exact_and_confined():
    rng = np.random.default_rng(51)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(2, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 6)), rng)
        res = M.fixed_envelope_iso(w, seed=int(rng.integers(1 << 30)), trace_entries=True)
        assert G.equivalent(res.circuit, w, "exact", 1e-9).ok
        for t in res.trace:
            if not t.skipped:
                assert max(t.hh_support) < (1 << t.s)


def test_fixed_envelope_permutes_the_matrix_once(monkeypatch):
    calls = []
    permute = M.apply_permutations
    monkeypatch.setattr(M, "apply_permutations", lambda *a: calls.append(a) or permute(*a))
    w = random_sparse_isometry(4, 2, 4, np.random.default_rng(53))
    res = M.fixed_envelope_iso(w)
    assert len(calls) == 1
    assert sum(isinstance(g, G.PermutationGate) for g in res.circuit.gates) <= 1
    assert G.equivalent(res.circuit, w, "exact", 1e-9).ok


# ---------------------------------------------------------------------------
# no fill-in


def test_no_fill_in_identity():
    w = identity_iso(3, 2)
    res = M.no_fill_in_iso(w)
    assert G.equivalent(res.circuit, w, "exact", 1e-9).ok
    assert all(t.nnz == 1 for t in res.trace)


def test_no_fill_in_random_exact_zero_fill():
    rng = np.random.default_rng(52)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 7)), rng)
        res = M.no_fill_in_iso(w, seed=int(rng.integers(1 << 30)), trace_entries=True)
        assert res.circuit.ancillas == ("clean",)
        assert all(not t.fill_in for t in res.trace)
        assert G.equivalent(res.circuit, w, "exact", 1e-9).ok


def test_no_fill_in_working_nnz_never_grows():
    rng = np.random.default_rng(53)
    w = random_sparse_isometry(5, 3, 6, rng)
    res = M.no_fill_in_iso(w, trace_entries=True)
    # each step only deletes: eliminated entries, no modifications
    for t in res.trace:
        assert t.modified == ()


def test_no_fill_in_audit_bound():
    rng = np.random.default_rng(54)
    reg = C.AncillaRegime(clean=1, dirty=1)
    for _ in range(10):
        n, m = 5, 3
        w = random_sparse_isometry(n, m, int(rng.integers(0, 5)), rng)
        res = M.no_fill_in_iso(w, reg, seed=int(rng.integers(1 << 30)))
        audited = C.audit_circuit(res.circuit, reg).total
        assert audited <= C.bound_no_fill_in_dirty(n, m, w.nnz)


# ---------------------------------------------------------------------------
# permutations and controlled gates


def test_perm_via_householder_identity():
    c = M.perm_via_householder(np.arange(8))
    assert c.gates == ()


def test_perm_via_householder_single_qubit_swap():
    c = M.perm_via_householder([1, 0])
    u = G.circuit_unitary(c)
    np.testing.assert_allclose(u, [[0, 1], [1, 0]], atol=1e-12)


def test_perm_via_householder_random_3q():
    rng = np.random.default_rng(55)
    for _ in range(10):
        p = rng.permutation(8)
        c = M.perm_via_householder(p)
        pm = np.zeros((8, 8), dtype=complex)
        pm[p, np.arange(8)] = 1.0
        assert G.equivalent(c, pm, "up_to_diagonal", 1e-9).ok
        assert G.equivalent(c, pm, "exact", 1e-9).ok
        audited = C.audit_circuit(c, D1).total
        assert audited <= C.perm_formula_one_dirty(3) == 196


def test_controlled_u_identity_empty():
    c, resid = M.controlled_u_via_householder(2, np.eye(2))
    assert c.gates == ()
    np.testing.assert_allclose(resid, np.ones(8), atol=1e-12)


def test_controlled_u_toffoli_up_to_diagonal():
    c, resid = M.controlled_u_via_householder(2, np.array([[0, 1], [1, 0]]))
    toff = np.eye(8, dtype=complex)
    toff[6, 6] = toff[7, 7] = 0
    toff[6, 7] = toff[7, 6] = 1
    assert G.equivalent(c, toff, "up_to_diagonal", 1e-9).ok
    np.testing.assert_allclose(G.circuit_unitary(c), toff @ np.diag(resid), atol=1e-10)


def test_controlled_u_audit_is_one_mcx():
    rng = np.random.default_rng(56)
    u = random_u2(rng)
    c, _ = M.controlled_u_via_householder(3, u)
    assert C.audit_circuit(c, D1).total == C.cost_mcx(3, 4, D1)
    # the one-dirty table row at k = 3 evaluates to 40
    assert 16 * 3 - 8 == 40


# ---------------------------------------------------------------------------
# fill-in confinement across methods (pre-state predicate)


def test_fill_in_confinement_from_traces():
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 7)), rng)
        for method in (M.sparse_householder_iso, M.fixed_envelope_iso):
            res = method(w, seed=int(rng.integers(1 << 30)), trace_entries=True)
            for t in res.trace:
                if t.skipped:
                    continue
                for (s, tt) in t.modified:
                    assert s in t.col_support and tt in t.row_support


# ---------------------------------------------------------------------------
# step-trace entries on request

SCALAR_FIELDS = ("step", "column", "target_current", "nnz", "s", "skipped")
ENTRY_FIELDS = ("hh_support", "col_support", "row_support", "modified", "fill_in", "eliminated")


def _entry_flag_cases():
    """``(name, compile)`` for every method on seeded inputs, where
    ``compile(trace_entries=...)`` returns the decomposition."""
    rng = np.random.default_rng(90)
    cases = []
    for n in range(1, 6):
        m = int(rng.integers(0, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(1, 7)), rng)
        seed = int(rng.integers(1 << 30))
        v, u = random_isometry(n, m, rng), random_unitary(1 << n, rng)
        cases += [
            (f"sparse-{n}", partial(M.sparse_householder_iso, w, seed=seed)),
            (f"fixed-env-{n}", partial(M.fixed_envelope_iso, w, seed=seed)),
            (f"no-fill-in-{n}", partial(M.no_fill_in_iso, w, seed=seed)),
            (f"dense-iso-{n}", partial(M.dense_householder_iso, v)),
            (f"dense-sparse-input-{n}", partial(M.dense_householder_iso, w.to_dense())),
            (f"dense-unitary-{n}", partial(M.dense_householder_unitary, u)),
        ]
    return cases


ENTRY_FLAG_CASES = _entry_flag_cases()


@pytest.mark.parametrize(
    "compile_", [c for _, c in ENTRY_FLAG_CASES], ids=[name for name, _ in ENTRY_FLAG_CASES]
)
def test_trace_entries_flag_changes_only_the_entry_fields(compile_):
    plain, full = compile_(trace_entries=False), compile_(trace_entries=True)
    assert G.circuit_to_dict(plain.circuit) == G.circuit_to_dict(full.circuit)
    assert plain.audit.as_dict() == full.audit.as_dict()
    assert len(plain.trace) == len(full.trace)
    for a, b in zip(plain.trace, full.trace):
        assert [getattr(a, f) for f in SCALAR_FIELDS] == [getattr(b, f) for f in SCALAR_FIELDS]
        assert all(not getattr(a, f) for f in ENTRY_FIELDS)
        assert a.modified == ()
    # the flag records something wherever a step was reduced
    assert all(b.col_support for b in full.trace if not b.skipped)


@pytest.mark.parametrize("trace_entries", [False, True])
def test_no_fill_in_check_reads_the_reduction_not_the_trace(monkeypatch, trace_entries):
    from hhsynth import householder as hh

    real = hh.reduce_column

    def filling(w, j, i):
        rec = real(w, j, i)
        rec.fill_in.append((0, 0))
        return rec

    monkeypatch.setattr(hh, "reduce_column", filling)
    w = random_sparse_isometry(3, 1, 3, np.random.default_rng(91))
    with pytest.raises(G.CircuitVerificationError, match="fill-in"):
        M.no_fill_in_iso(w, trace_entries=trace_entries)
