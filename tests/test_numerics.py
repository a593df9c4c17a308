import math
import tracemalloc

import numpy as np
import pytest

from hhsynth import gates as G
from hhsynth.numerics import (
    EPS0,
    SparseIsometry,
    apply_permutations,
    check_permutation,
    matrix_from_dict,
    matrix_to_dict,
    validate_isometry,
)
from hhsynth.pivoting import sparse_state_prep_on

from helpers import dense_gram_report, random_sparse_isometry


def test_validate_identity_ok():
    assert validate_isometry(np.eye(4), 1e-10).ok


def test_validate_identity_columns_ok():
    assert validate_isometry(np.eye(4)[:, :2], 1e-10).ok


def test_validate_reports_worst_entry():
    rep = validate_isometry(np.array([[1.0, 0.0], [1.0, 0.0]]), 1e-10)
    assert not rep.ok
    assert rep.worst == (0, 0)
    assert rep.max_deviation == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0, np.inf), np.nan])
def test_validate_dense_non_finite_fails_before_the_product(bad):
    rep = validate_isometry(np.diag([1, bad, 1, 1]), 1e-10)
    assert not rep.ok
    assert rep.worst == (1, 1)
    assert rep.max_deviation == np.inf


def _variants(w, rng):
    """``w`` and four seeded non-isometries made from it: an entry scaled
    by 1 + 1e-6, an entry added, a column emptied and an entry set to NaN."""
    out = [w]
    i, j, a = list(w.entries())[int(rng.integers(w.nnz))]
    for change in ("scale", "add", "empty", "nan"):
        v = w.copy()
        if change == "scale":
            v.set(i, j, a * (1 + 1e-6))
        elif change == "add":
            v.set(int(rng.integers(1 << w.n)), int(rng.integers(1 << w.m)), complex(rng.normal()))
        elif change == "empty":
            for r in list(v.col(j)):
                v.set(r, j, 0.0)
        else:
            v.set(i, j, complex(math.nan, 0.0))
        out.append(v)
    return out


@pytest.mark.parametrize("seed", range(30))
def test_sparse_gram_matches_the_dense_gram(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, n + 1))
    w = random_sparse_isometry(n, m, int(rng.integers(0, 6)), rng)
    for v in _variants(w, rng):
        for tol in (0.0, 1e-10, 1e-3):
            got, want = validate_isometry(v, tol), dense_gram_report(v, tol)
            assert (got.ok, got.worst) == (want.ok, want.worst)
            dev = got.max_deviation, want.max_deviation
            assert all(map(math.isnan, dev)) or dev[0].hex() == dev[1].hex()


def test_sparse_validation_builds_no_dense_gram():
    # m = 12: the dense Gram alone would be 2^24 amplitudes (256 MiB)
    rng = np.random.default_rng(12)
    rows = rng.choice(1 << 13, size=1 << 12, replace=False)
    phases = np.exp(2j * np.pi * rng.uniform(size=1 << 12))
    w = SparseIsometry(13, 12, [(int(r), j, p) for j, (r, p) in enumerate(zip(rows, phases))])
    tracemalloc.start()
    try:
        rep = validate_isometry(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and peak < 16 << 20


def test_validate_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        validate_isometry(np.eye(3))
    with pytest.raises(ValueError):
        validate_isometry(np.ones((2, 4)) / 2.0)


def test_sparse_update_set_and_clear():
    w = SparseIsometry(1, 0)
    w.set(0, 0, 1.0)
    assert w.nnz == 1
    assert w.rows[0] == {0: 1.0}
    assert w.cols[0] == {0: 1.0}
    w.set(0, 0, 0.0)
    assert w.nnz == 0
    assert w.rows == {} and not w.cols[0]


def test_sparse_update_bounds():
    w = SparseIsometry(1, 0)
    with pytest.raises(IndexError):
        w.set(2, 0, 1.0)


def test_column_store_matches_dense_mirror_after_random_updates():
    rng = np.random.default_rng(0)
    w = SparseIsometry(4, 3)
    mirror = np.zeros((16, 8), dtype=complex)
    for _ in range(10_000):
        i = int(rng.integers(16))
        j = int(rng.integers(8))
        a = complex(rng.normal(), rng.normal()) if rng.uniform() > 0.3 else 0.0
        if rng.uniform() < 0.05:
            a *= EPS0  # at most EPS0 in magnitude often enough to clear
        w.set(i, j, a)
        mirror[i, j] = a if abs(a) > EPS0 else 0.0
    stored = [a for col in w.cols for a in col.values()]
    assert all(abs(a) > EPS0 for a in stored)
    nonzero = [(int(i), int(j)) for i, j in zip(*np.nonzero(mirror))]  # row-major
    assert w.nnz == len(nonzero) == len(stored)
    assert w.pattern() == set(nonzero)
    assert [(i, j) for i, j, _ in w.entries()] == nonzero
    assert [a for _, _, a in w.entries()] == [mirror[i, j] for i, j in nonzero]
    assert list(w.rows) == sorted({i for i, _ in nonzero})
    for i in range(16):
        row = w.row(i)
        assert list(row) == sorted(row)  # column order
        assert row == {int(j): mirror[i, j] for j in np.flatnonzero(mirror[i])}
        assert w.rows.get(i, {}) == row
        for j in range(8):
            assert w.get(i, j) == mirror[i, j]
    assert np.array_equal(w.to_dense(), mirror)


def test_apply_permutations_identity():
    w = random_sparse_isometry(3, 2, 3, np.random.default_rng(1))
    out = apply_permutations(w, np.arange(8), np.arange(4))
    assert out.pattern() == w.pattern()
    np.testing.assert_allclose(out.to_dense(), w.to_dense())


def test_apply_permutations_swap_rows():
    w = SparseIsometry(1, 0, [(0, 0, 1.0)])
    out = apply_permutations(w, [1, 0], [0])
    assert out.pattern() == {(1, 0)}


def test_apply_permutations_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_sparse_isometry(3, 2, int(rng.integers(0, 6)), rng)
        rho = rng.permutation(8)
        sigma = rng.permutation(4)
        out = apply_permutations(w, rho, sigma)
        p = np.zeros((8, 8))
        p[rho, np.arange(8)] = 1.0
        q = np.zeros((4, 4))
        q[np.arange(4), sigma] = 1.0
        np.testing.assert_allclose(out.to_dense(), p @ w.to_dense() @ q, atol=1e-12)
        assert out.nnz == w.nnz


def test_apply_permutations_rejects_non_bijection():
    w = SparseIsometry(1, 0, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        apply_permutations(w, [0, 0], [0])


@pytest.mark.parametrize(
    "perm", [[1.0, 0.0], [True, False], ["1", "0"], [1, None], {"0": 1}],
    ids=["floats", "booleans", "strings", "objects", "mapping"],
)
def test_check_permutation_refuses_non_integer_entries(perm):
    with pytest.raises(ValueError):
        check_permutation(perm, 2)


def test_permutation_preserves_isometry():
    rng = np.random.default_rng(3)
    w = random_sparse_isometry(3, 2, 4, rng)
    assert validate_isometry(w).ok
    out = apply_permutations(w, rng.permutation(8), rng.permutation(4))
    assert validate_isometry(out).ok


def test_dense_sparse_round_trip_exact():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    a[np.abs(a) < 1.0] = 0.0
    w = SparseIsometry.from_dense(a)
    np.testing.assert_array_equal(w.to_dense(), a)


def test_matrix_dict_round_trip():
    rng = np.random.default_rng(5)
    w = random_sparse_isometry(3, 1, 3, rng)
    again = matrix_from_dict(matrix_to_dict(w))
    np.testing.assert_allclose(again.to_dense(), w.to_dense(), atol=1e-15)


def test_matrix_dict_dense_form():
    d = {"n": 1, "m": 1, "dense": [[1, 0], [0, [0, 1]]]}
    w = matrix_from_dict(d)
    np.testing.assert_allclose(w.to_dense(), np.diag([1.0, 1j]))


def test_matrix_dict_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 1, "m": 0})
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 1, "m": 1, "dense": [[1, 0]]})


NOT_INTEGERS = [1.5, True, np.float64(1.0), "1"]


@pytest.mark.parametrize("index", NOT_INTEGERS)
def test_sparse_entry_points_refuse_an_index_that_is_not_an_integer(index):
    # each was truncated or taken as row 1 before: the state |1>, the
    # simulated row 1, a block row 1, an isometry entry in row 1
    calls = [
        lambda: sparse_state_prep_on({index: 1.0}, 3),
        lambda: G.simulate_on_state(G.StructuredCircuit(2, (), []), {index: 1.0}),
        lambda: G.SPBlock.from_dict((0, 1), {index: 0.6, 3: 0.8}),
        lambda: SparseIsometry(2, 0, [(index, 0, 1.0)]),
        lambda: SparseIsometry(2, 1, [(0, index, 1.0)]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


@pytest.mark.parametrize("index", [1, np.int64(1), np.uint8(1)])
def test_sparse_entry_points_take_python_and_numpy_integers(index):
    c = sparse_state_prep_on({index: 1.0}, 3)
    assert G.simulate_on_state(c, {0: 1.0}) == {1: 1.0}
    assert G.simulate_on_state(G.StructuredCircuit(3, (), []), {index: 1.0}) == {1: 1.0}
    assert G.SPBlock.from_dict((0, 1), {index: 0.6, 3: 0.8}).state == ((1, 0.6), (3, 0.8))
    assert SparseIsometry(2, 0, [(index, 0, 1.0)]).cols == [{1: 1.0}]
