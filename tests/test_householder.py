import cmath
import math

import numpy as np
import pytest

from hhsynth.householder import (
    fill_in_predicate,
    reduce_column,
    reduction_array,
    reduction_vector,
    target_phase,
)
from hhsynth.numerics import SparseIsometry, state_to_vector

from helpers import (
    PATTERN_4X4_ORDERED,
    dense_reflection,
    random_isometry,
    random_state_dict,
)


def test_theta_conventions_agree_on_basis_targets():
    # the reflection from reduction_vector sends v to e^{i theta}|i>, with
    # theta = pi + arg(v_i), and theta = 0 when v_i = 0
    rng = np.random.default_rng(11)
    cases = 0
    for _ in range(40):
        v = random_state_dict(3, int(rng.integers(1, 9)), rng)
        i = int(rng.integers(8))
        cases += i not in v
        u, theta = reduction_vector(v, i)
        target = np.zeros(8, dtype=complex)
        target[i] = cmath.exp(1j * theta)
        np.testing.assert_allclose(
            dense_reflection(u, 3) @ state_to_vector(v, 3), target, rtol=0, atol=1e-12
        )
    assert cases > 0


def test_reduce_identity_column_touches_only_target():
    w = SparseIsometry(2, 1, [(0, 0, 1.0), (1, 1, 1.0)])
    rec = reduce_column(w, 0, 0)
    assert rec.theta == pytest.approx(math.pi)
    assert abs(w.get(0, 0)) == pytest.approx(1.0)
    assert rec.modified == []
    np.testing.assert_allclose(w.to_dense()[:, 1], [0, 1, 0, 0], atol=1e-15)


def test_reduce_basis_column_only_phase_changes():
    w = SparseIsometry(2, 1, [(2, 0, 1j), (1, 1, 1.0)])
    rec = reduce_column(w, 0, 2)
    assert rec.modified == []
    assert set(w.col(0)) == {2}


def test_reduce_rejects_zero_column():
    w = SparseIsometry(2, 1, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        reduce_column(w, 1, 0)


def _same_values(a, b):
    """Equal real and imaginary parts (a zero's sign aside)."""
    a, b = (np.asarray(x, dtype=complex).reshape(-1) for x in (a, b))
    return np.array_equal(a.real, b.real) and np.array_equal(a.imag, b.imag)


def test_reduction_array_divides_as_each_caller_did():
    # divided part by part, it is reduction_vector bit for bit (which
    # simulated blocks depend on); divided by numpy, it is the arithmetic
    # the dense paths had inline (which their circuits depend on)
    rng = np.random.default_rng(12)
    for trial in range(300):
        k = int(rng.integers(1, 7))
        v = random_state_dict(k, int(rng.integers(1, (1 << k) + 1)), rng)
        t = int(rng.integers(1 << k))
        w = state_to_vector(v, k)
        _, eith = target_phase(complex(w[t]))
        d, nrm = reduction_array(w, t, eith)
        want = reduction_vector(v, t)[0]
        u = (d.view(np.float64) / nrm).view(complex)
        assert set(want) <= set(np.flatnonzero(u).tolist()) | {t}
        assert _same_values(u[list(want)], list(want.values()))
        at = w[t]
        _, eith = target_phase(at)
        d, nrm = reduction_array(w, t, eith)
        old = w.copy()
        old[t] -= eith
        old /= math.sqrt(2.0 * (1.0 + abs(at)))
        assert _same_values(d / nrm, old)


def test_reduce_column_matches_dense_reflection_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        v = random_isometry(3, 2, rng)
        w = SparseIsometry.from_dense(v)
        j = int(rng.integers(4))
        i = int(rng.integers(8))
        u, theta = reduction_vector(dict(w.col(j)), i)
        reduce_column(w, j, i)
        expected = dense_reflection(u, 3) @ v
        assert np.linalg.norm(w.to_dense() - expected) <= 1e-9
        w.check_consistent()


def test_reduce_column_row_zeroed_except_target():
    rng = np.random.default_rng(13)
    v = random_isometry(3, 2, rng)
    w = SparseIsometry.from_dense(v)
    reduce_column(w, 1, 4)
    assert set(w.row(4)) == {1}


def test_fill_in_predicate_identity_all_false():
    w = SparseIsometry(2, 1, [(0, 0, 1.0), (1, 1, 1.0)])
    for s in range(4):
        for t in range(2):
            if s != 0 and t != 0:
                assert not fill_in_predicate(w, 0, 0, s, t)


def test_fill_in_predicate_worked_pattern():
    # row-ordered 4x4 pattern, reduce column 0 to row 0: entries change
    # exactly in row 1 (the only other nonzero of column 0), in the columns
    # where row 0 is nonzero; new nonzeros appear at (1,1) and (1,3)
    rng = np.random.default_rng(14)
    w = SparseIsometry(2, 2)
    for (i, j) in PATTERN_4X4_ORDERED:
        w.set(i, j, complex(rng.normal(), rng.normal()))
    changed = {
        (s, t)
        for s in range(4)
        for t in range(4)
        if s != 0 and t != 0 and fill_in_predicate(w, 0, 0, s, t)
    }
    assert changed == {(1, 1), (1, 2), (1, 3)}
    pre = w.pattern()
    new_nonzeros = changed - {c for c in changed if c in pre}
    assert new_nonzeros == {(1, 1), (1, 3)}


def test_fill_in_predicate_matches_observed_changes():
    rng = np.random.default_rng(15)
    for _ in range(30):
        v = random_isometry(3, 2, rng)
        w = SparseIsometry.from_dense(v)
        j = int(rng.integers(4))
        i = int(rng.integers(8))
        predicted = {
            (s, t)
            for s in range(8)
            for t in range(4)
            if s != i and t != j and fill_in_predicate(w, i, j, s, t)
        }
        rec = reduce_column(w, j, i)
        assert set(rec.modified) == predicted
        for cell in rec.fill_in:
            assert cell in predicted


def test_fill_in_confinement_invariant():
    rng = np.random.default_rng(16)
    for _ in range(20):
        v = random_isometry(3, 1, rng)
        w = SparseIsometry.from_dense(v)
        col_support = set(w.col(0))
        row_support = set(w.row(3))
        rec = reduce_column(w, 0, 3)
        for (s, t) in rec.modified:
            assert s in col_support and t in row_support
