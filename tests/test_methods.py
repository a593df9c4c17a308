import math

import numpy as np
import pytest

from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import methods as M
from hhsynth import ordering as O
from hhsynth import pivoting as P
from hhsynth.numerics import NotAnIsometryError, SparseIsometry

from helpers import (
    dense_reflection,
    random_isometry,
    random_sparse_isometry,
    random_state_dict,
    random_u2,
    random_unitary,
)

NONE = C.AncillaRegime.none()
D1 = C.AncillaRegime.with_dirty(1)


def identity_iso(n, m):
    return SparseIsometry(n, m, [(j, j, 1.0) for j in range(1 << m)])


# ---------------------------------------------------------------------------
# householder_up_to


def test_hr_up_to_basis_vector_emits_nothing():
    gates, residual, _ = M.householder_up_to({0: 1.0 + 0j}, 3)
    assert gates == []
    # the reflection about |0> is itself the diagonal residual
    np.testing.assert_allclose(residual.dense(), np.diag([-1, 1, 1, 1, 1, 1, 1, 1]), atol=1e-12)


def test_hr_up_to_matches_reflection_oracle():
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        v = random_state_dict(n, int(rng.integers(1, (1 << n) + 1)), rng)
        gates, residual, _ = M.householder_up_to(v, n, seed=int(rng.integers(1 << 30)))
        u = np.eye(1 << n, dtype=complex)
        for g in gates:
            u = G.apply_gate(u, g, n)
        np.testing.assert_allclose(u, residual.dense() @ dense_reflection(v, n), atol=1e-10)


def test_hr_up_to_audit_bound_example():
    # nnz = 2 on four qubits: at most (4 + 16 - 5) * 2 + 64 = 94
    rng = np.random.default_rng(41)
    for _ in range(10):
        v = random_state_dict(4, 2, rng)
        gates, _, s = M.householder_up_to(v, 4, seed=int(rng.integers(1 << 30)))
        audited = C.audit_circuit(G.StructuredCircuit(4, (), gates), D1).total
        assert audited <= C.bound_hr_up_to_dirty(4, s, 2) == 94


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
    assert res.circuit.gates == []
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
        res = M.sparse_householder_iso(w, seed=int(rng.integers(1 << 30)))
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
        (lambda: M.householder_up_to({0: NAN, 3: 1.0}, 2), ValueError),
        (lambda: M.controlled_u_via_householder(2, np.array([[NAN, 0], [0, 1]])), ValueError),
        (lambda: M.dense_householder_unitary(NAN_UNITARY), NotAnIsometryError),
    ],
    ids=["ssp", "householder_up_to", "controlled_u", "dense_unitary"],
)
def test_nan_input_is_refused(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# dense methods


def test_dense_iso_identity_only_phase_fixes():
    res = M.dense_householder_iso(np.eye(4)[:, :2])
    assert res.circuit.gates == []
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


def test_dense_unitary_identity_empty():
    res = M.dense_householder_unitary(np.eye(8))
    assert res.circuit.gates == []


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
        res = M.fixed_envelope_iso(w, seed=int(rng.integers(1 << 30)))
        assert G.equivalent(res.circuit, w, "exact", 1e-9).ok
        for t in res.trace:
            if not t.skipped:
                assert max(t.hh_support) < (1 << t.s)


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
        res = M.no_fill_in_iso(w, seed=int(rng.integers(1 << 30)))
        assert res.circuit.ancillas == ("clean",)
        assert all(not t.fill_in for t in res.trace)
        assert G.equivalent(res.circuit, w, "exact", 1e-9).ok


def test_no_fill_in_working_nnz_never_grows():
    rng = np.random.default_rng(53)
    w = random_sparse_isometry(5, 3, 6, rng)
    res = M.no_fill_in_iso(w)
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
    assert c.gates == []


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
    assert c.gates == []
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
            res = method(w, seed=int(rng.integers(1 << 30)))
            for t in res.trace:
                if t.skipped:
                    continue
                for (s, tt) in t.modified:
                    assert s in t.col_support and tt in t.row_support
