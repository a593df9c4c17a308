import cmath
import math

import numpy as np
import pytest

from hhsynth.householder import (
    fill_in_predicate,
    reduce_column,
    reflect,
    reflection,
    sparse_reflection,
    target_phase,
)
from hhsynth.numerics import EPS0, SparseIsometry, state_to_vector

from helpers import (
    PATTERN_4X4_ORDERED,
    dense_reflection,
    random_isometry,
    random_state_dict,
)


def test_theta_conventions_agree_on_basis_targets():
    # the reflection from sparse_reflection sends v to e^{i theta}|i>, with
    # theta = pi + arg(v_i), and theta = 0 when v_i = 0
    rng = np.random.default_rng(11)
    cases = 0
    for _ in range(40):
        v = random_state_dict(3, int(rng.integers(1, 9)), rng)
        i = int(rng.integers(8))
        cases += i not in v
        rows, u = sparse_reflection(v, i)
        theta, _ = target_phase(v.get(i, 0j))
        if i in v:
            assert theta == pytest.approx(math.pi + cmath.phase(v[i]))
        else:
            assert theta == 0.0
        target = np.zeros(8, dtype=complex)
        target[i] = cmath.exp(1j * theta)
        np.testing.assert_allclose(
            dense_reflection(rows, u, 3) @ state_to_vector(v, 3), target, rtol=0, atol=1e-12
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


def _bits(z):
    """The exact bits of a complex array, a zero's sign included."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _edge_columns(rng):
    """Seeded unit sparse columns ``(n, col, t)`` at the builder's edges:
    entries whose ``|u|`` sits at ``EPS0 * (1 +- 1e-9)`` and column entries
    at ``EPS0 * (1 +- 1e-9)``, a target outside the support, one entry on
    the target, near-basis columns and ``n = 1``."""
    for trial in range(400):
        kind = trial % 5
        n = 1 if kind == 4 else int(rng.integers(1, 6))
        t = int(rng.integers(1 << n))
        nnz = int(rng.integers(1, (1 << n) + 1))
        rows = [int(r) for r in rng.choice(1 << n, size=nnz, replace=False)]
        if kind == 1:  # the target outside the support
            rows = [r for r in rows if r != t] or [t ^ 1]
        elif kind == 2:  # one entry, on the target
            rows = [t]
        amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        if kind == 3:  # near-basis: one entry holds all but 1e-8 .. 1e-14
            amps[1:] *= 10.0 ** -rng.integers(8, 15)
        amps /= np.linalg.norm(amps)
        col = dict(zip(rows, amps.tolist()))
        if kind == 0:  # tiny entries off the target, on rows still free
            nrm = math.sqrt(2.0 * (1.0 + abs(col.get(t, 0j))))
            free = [r for r in range(1 << n) if r not in col and r != t]
            for r in free[: int(rng.integers(len(free) + 1))]:
                scale = nrm if rng.integers(2) else 1.0  # |u| or |w| at the edge
                edge = EPS0 * scale * (1.0 + float(rng.choice([-1e-9, 1e-9])))
                col[r] = edge * complex(np.exp(2j * math.pi * rng.random()))
        yield n, col, t


def test_sparse_reflection_on_generated_edge_columns():
    # the sparse builder is the dense builder on the scattered column, bit
    # for bit, kept where |u| > EPS0: sparse circuits rest on that
    rng = np.random.default_rng(12)
    kept = dropped = 0
    for n, col, t in _edge_columns(rng):
        before = dict(col)
        rows, u = sparse_reflection(col, t)
        assert col == before  # the column is not touched
        w = state_to_vector(col, n)
        dense, eith = reflection(w, t)
        assert rows.dtype == np.int64 and np.all(rows[1:] > rows[:-1])
        assert np.array_equal(_bits(u), _bits(dense[rows]))
        candidates = sorted(set(col) | {t})
        assert rows.tolist() == [r for r in candidates if abs(dense[r]) > EPS0]
        assert not np.any(np.delete(dense, candidates))
        near = [abs(abs(dense[r]) / EPS0 - 1.0) < 1e-8 for r in candidates]
        kept += sum(x for x, r in zip(near, candidates) if r in rows)
        dropped += sum(x for x, r in zip(near, candidates) if r not in rows)
        # H_u sends the column to e^{i theta}|t>, up to the column's
        # entries on the dropped rows; a target entry of at most EPS0 counts
        # as zero (target_phase), which moves the image by at most 4 |w_t|
        at = col.get(t, 0j)
        assert eith == target_phase(at)[1]
        want = np.zeros(1 << n, dtype=complex)
        want[t] = eith
        lost = np.setdiff1d(candidates, rows)
        want[lost] = w[lost]
        got = dense_reflection(rows, u, n) @ w
        assert np.max(np.abs(got - want)) <= 1e-15 + (4 * abs(at) if abs(at) <= EPS0 else 0.0)
    assert kept > 0 and dropped > 0


def test_reflect_applies_the_reflection_in_place():
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        w = state_to_vector(random_state_dict(k, int(rng.integers(1, (1 << k) + 1)), rng), k)
        u, eith = reflection(w, 0)
        block = np.column_stack([w, rng.normal(size=1 << k) + 0j])
        want = (np.eye(1 << k) - 2.0 * np.outer(u, u.conj())) @ block
        assert reflect(u, block) is block
        np.testing.assert_allclose(block, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block[:, 0], eith * np.eye(1 << k)[0], rtol=0, atol=1e-12)


def test_reduce_column_matches_dense_reflection_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        v = random_isometry(3, 2, rng)
        w = SparseIsometry.from_dense(v)
        j = int(rng.integers(4))
        i = int(rng.integers(8))
        rows, u = sparse_reflection(w.col(j), i)
        reduce_column(w, j, i)
        expected = dense_reflection(rows, u, 3) @ v
        assert np.linalg.norm(w.to_dense() - expected) <= 1e-9
        assert all(abs(a) > EPS0 for col in w.cols for a in col.values())


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
