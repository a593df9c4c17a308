import cmath
import math

import numpy as np
import pytest

from hhsynth.householder import (
    HouseholderSpec,
    IdentityMarker,
    fill_in_predicate,
    generalized_pair_reflection,
    reduce_column,
    reduction_vector,
    standard_pair_reflection,
)
from hhsynth.numerics import SparseIsometry, state_to_vector

from helpers import (
    PATTERN_4X4_ORDERED,
    dense_reflection,
    dense_spec_reference,
    random_isometry,
    random_state_dict,
)

KET0 = {0: 1.0 + 0j}
KET1 = {1: 1.0 + 0j}


def test_standard_orthogonal_pair_is_x():
    spec = standard_pair_reflection(KET0, KET1)
    assert spec.theta == 0.0
    np.testing.assert_allclose(spec.dense(1), [[0, 1], [1, 0]], atol=1e-15)
    assert spec.u == pytest.approx({0: 1 / math.sqrt(2), 1: -1 / math.sqrt(2)})


def test_standard_same_state_gives_sign_flip():
    spec = standard_pair_reflection(KET0, KET0)
    assert spec.theta == pytest.approx(math.pi)
    h = spec.dense(1)
    np.testing.assert_allclose(h @ [1, 0], [cmath.exp(1j * math.pi), 0], atol=1e-12)


def test_standard_random_to_basis_oracle():
    rng = np.random.default_rng(6)
    for _ in range(40):
        v = random_state_dict(3, int(rng.integers(1, 9)), rng)
        spec = standard_pair_reflection(v, {5: 1.0 + 0j})
        h = dense_reflection(spec.u, 3)
        target = np.zeros(8, dtype=complex)
        target[5] = cmath.exp(1j * spec.theta)
        np.testing.assert_allclose(h @ state_to_vector(v, 3), target, atol=1e-10)


def test_standard_normalization_never_small():
    rng = np.random.default_rng(7)
    for _ in range(40):
        v = random_state_dict(3, 8, rng)
        w = random_state_dict(3, 8, rng)
        assert standard_pair_reflection(v, w).z.real >= 1.0


def test_standard_rejects_non_unit():
    with pytest.raises(ValueError):
        standard_pair_reflection({0: 0.5 + 0j}, KET0)


def test_generalized_same_state_is_identity_marker():
    marker = generalized_pair_reflection(KET0, KET0)
    assert isinstance(marker, IdentityMarker)
    assert marker.residual == pytest.approx(0.0)


def test_generalized_orthogonal_pair_maps_exactly():
    spec = generalized_pair_reflection(KET0, KET1)
    assert spec.phi == pytest.approx(math.pi)
    h = spec.dense(1)
    np.testing.assert_allclose(h @ [1, 0], [0, 1], atol=1e-12)


def test_generalized_random_pairs_oracle():
    rng = np.random.default_rng(8)
    for _ in range(40):
        v = random_state_dict(3, 8, rng)
        w = random_state_dict(3, 8, rng)
        spec = generalized_pair_reflection(v, w)
        h = spec.dense(3)
        np.testing.assert_allclose(h @ state_to_vector(v, 3), state_to_vector(w, 3), atol=1e-9)
        np.testing.assert_allclose(h.conj().T @ h, np.eye(8), atol=1e-9)


def test_generalized_large_overlap_tightened_tolerance():
    # overlap 0.99 e^{i 0.3}: the small-z regime the extended-precision
    # path must still handle to 1e-7
    rng = np.random.default_rng(9)
    v = random_state_dict(3, 8, rng)
    vv = state_to_vector(v, 3)
    perp = rng.normal(size=8) + 1j * rng.normal(size=8)
    perp -= vv * np.vdot(vv, perp)
    perp /= np.linalg.norm(perp)
    ov = 0.99 * cmath.exp(0.3j)
    wv = ov * vv + math.sqrt(1 - 0.99**2) * perp
    w = {int(i): complex(a) for i, a in enumerate(wv)}
    spec = generalized_pair_reflection(v, w)
    assert not isinstance(spec, IdentityMarker)
    assert np.vdot(vv, wv) == pytest.approx(ov, abs=1e-12)
    h = spec.dense(3)
    assert np.linalg.norm(h @ vv - wv) <= 1e-7


def test_generalized_marker_below_delta():
    v = {0: 1.0 + 0j}
    w = {0: cmath.exp(1e-9j)}
    marker = generalized_pair_reflection(v, w)
    assert isinstance(marker, IdentityMarker)
    assert marker.residual <= 2e-9


def test_spec_unitarity_invariant():
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = random_state_dict(3, int(rng.integers(1, 9)), rng)
        w = random_state_dict(3, int(rng.integers(1, 9)), rng)
        h = standard_pair_reflection(v, w).dense(3)
        assert np.linalg.norm(h.conj().T @ h - np.eye(8)) <= 1e-9


@pytest.mark.parametrize("n", range(1, 7))
def test_spec_dense_matches_entrywise_reference(n):
    rng = np.random.default_rng(100 + n)
    specs = []
    for nnz in (1, min(3, 1 << n), 1 << n):  # sparse and full-support u
        for _ in range(3):
            v = random_state_dict(n, nnz, rng)
            w = random_state_dict(n, nnz, rng)
            specs.append(standard_pair_reflection(v, w))
            specs.append(generalized_pair_reflection(v, w))
    specs = [s for s in specs if isinstance(s, HouseholderSpec)]
    assert any(not s.standard for s in specs)
    assert any(len(s.u) == 1 << n for s in specs)
    for spec in specs:
        np.testing.assert_allclose(spec.dense(n), dense_spec_reference(spec, n), rtol=0, atol=1e-15)


def test_theta_conventions_agree_on_basis_targets():
    # pi + arg(<i|v>) from the reduction formula equals pi - arg(<v|i>)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = random_state_dict(3, 8, rng)
        i = int(rng.integers(8))
        pair = standard_pair_reflection(v, {i: 1.0 + 0j})
        _, theta = reduction_vector(v, i)
        assert cmath.exp(1j * pair.theta) == pytest.approx(cmath.exp(1j * theta), abs=1e-12)


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


def test_spec_rejects_bad_vector():
    with pytest.raises(ValueError):
        HouseholderSpec(u={0: 0.5 + 0j}, phi=math.pi, theta=0.0, standard=True, z=1.0)
