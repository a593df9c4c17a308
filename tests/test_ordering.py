import numpy as np

from hhsynth.numerics import SparseIsometry, apply_permutations, invert_permutation
from hhsynth.ordering import (
    EliminationStrategy,
    elim_count,
    envelope,
    greedy_order,
    optimal_row_perm,
    simulate_pattern_reduction,
)

from helpers import PATTERN_4X4, PATTERN_4X4_ORDERED, ROW_ORDER_4X4, random_sparse_isometry


def pattern_iso(pattern, n, m, seed=0):
    rng = np.random.default_rng(seed)
    w = SparseIsometry(n, m)
    for (i, j) in pattern:
        w.set(i, j, complex(rng.normal(), rng.normal()))
    return w


def identity_iso(n, m):
    return SparseIsometry(n, m, [(j, j, 1.0) for j in range(1 << m)])


def test_envelope_identity():
    prof = envelope(identity_iso(3, 2))
    np.testing.assert_array_equal(prof.env, [0, 1, 2, 3])
    assert prof.ed == 0


def test_envelope_worked_pattern():
    prof = envelope(pattern_iso(PATTERN_4X4, 2, 2))
    np.testing.assert_array_equal(prof.env, [3, 3, 3, 3])
    assert prof.ed == 6
    prof2 = envelope(pattern_iso(PATTERN_4X4_ORDERED, 2, 2))
    np.testing.assert_array_equal(prof2.env, [1, 2, 2, 3])
    assert prof2.ed == 2


def test_optimal_row_perm_identity_input():
    np.testing.assert_array_equal(optimal_row_perm(identity_iso(3, 2)), np.arange(8))


def test_optimal_row_perm_matches_worked_ordering():
    w = pattern_iso(PATTERN_4X4, 2, 2)
    rho = optimal_row_perm(w)
    assert {i: int(rho[i]) for i in range(4)} == ROW_ORDER_4X4
    prof = envelope(apply_permutations(w, rho, np.arange(4)))
    np.testing.assert_array_equal(prof.env, [1, 2, 2, 3])


def test_optimal_row_perm_pointwise_dominance():
    rng = np.random.default_rng(30)
    for _ in range(25):
        w = random_sparse_isometry(4, 2, int(rng.integers(0, 8)), rng)
        rho = optimal_row_perm(w)
        best = envelope(apply_permutations(w, rho, np.arange(4))).env
        for _ in range(50):
            other = envelope(apply_permutations(w, rng.permutation(16), np.arange(4))).env
            assert np.all(best <= other)


def test_greedy_order_diagonal_is_identity():
    st = greedy_order(identity_iso(3, 2))
    np.testing.assert_array_equal(st.rho, np.arange(8))
    np.testing.assert_array_equal(st.sigma, np.arange(4))


def test_greedy_rows_are_optimal_for_its_column_order():
    # greedy packs each column's live rows in its own column order, which is
    # the optimal row packing of the column-permuted matrix
    rng = np.random.default_rng(35)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 3 * n)), rng)
        st = greedy_order(w)
        permuted = apply_permutations(w, np.arange(1 << n), st.sigma)
        np.testing.assert_array_equal(st.rho, optimal_row_perm(permuted))


def test_greedy_order_worked_pattern_first_pick():
    st = greedy_order(pattern_iso(PATTERN_4X4, 2, 2))
    # columns 0, 1, 3 tie at two nonzeros; smallest index wins
    assert st.step_column(0) == 0


def test_greedy_order_tends_to_shrink_ed(capsys):
    rng = np.random.default_rng(31)
    wins = ties = losses = 0
    for _ in range(40):
        w = random_sparse_isometry(5, 3, int(rng.integers(0, 10)), rng)
        st = greedy_order(w)
        before = envelope(w).ed
        after = envelope(apply_permutations(w, st.rho, st.sigma)).ed
        if after < before:
            wins += 1
        elif after == before:
            ties += 1
        else:
            losses += 1
    print(f"greedy ed comparison: {wins} better / {ties} equal / {losses} worse")
    assert wins + ties >= losses  # logged, not asserted per instance


def test_elim_count_identity_zero():
    st = EliminationStrategy.identity(3, 2)
    assert elim_count(identity_iso(3, 2), st) == 0


def test_elim_count_worked_pattern_fill_in_cells():
    # ordered pattern, trivial strategy: step 0 reduces column 0 to row 0,
    # eliminating (1,0) and filling in exactly (1,1) and (1,3)
    total, steps = simulate_pattern_reduction(PATTERN_4X4_ORDERED, [(j, j) for j in range(4)])
    assert steps[0].eliminated == {(1, 0)}
    assert steps[0].fill_in == {(1, 1), (1, 3)}
    assert steps[0].orth_eliminated == {(0, 1), (0, 2), (0, 3)}


def test_elim_strategy_matches_permuted_trivial_run():
    rng = np.random.default_rng(32)
    for _ in range(30):
        w = random_sparse_isometry(4, 2, int(rng.integers(0, 8)), rng)
        st = EliminationStrategy(rng.permutation(16), rng.permutation(4))
        permuted = apply_permutations(w, st.rho, st.sigma)
        trivial = EliminationStrategy.identity(4, 2)
        assert elim_count(w, st) == elim_count(permuted, trivial)


def test_lemma_elim_bounded_by_envelope_gap():
    rng = np.random.default_rng(33)
    for _ in range(60):
        w = random_sparse_isometry(4, 2, int(rng.integers(0, 10)), rng)
        st = EliminationStrategy(rng.permutation(16), rng.permutation(4))
        assert elim_count(w, st) <= envelope(apply_permutations(w, st.rho, st.sigma)).ed


def test_pattern_simulation_covers_numeric_run():
    # structural column supports always contain the numeric ones; any gap is
    # an accidental cancellation, tolerated by the bound direction
    from hhsynth.householder import reduce_column

    rng = np.random.default_rng(34)
    cancellations = 0
    for _ in range(25):
        w = random_sparse_isometry(4, 2, int(rng.integers(0, 8)), rng)
        st = greedy_order(w)
        sigma_inv = invert_permutation(st.sigma)
        rho_inv = invert_permutation(st.rho)
        schedule = [(int(sigma_inv[i]), int(rho_inv[i])) for i in range(4)]
        _, steps = simulate_pattern_reduction(w.pattern(), schedule)
        numeric = w.copy()
        for ps in steps:
            numeric_col = set(numeric.col(ps.column))
            assert numeric_col <= set(ps.col_support)
            cancellations += len(ps.col_support) - len(numeric_col)
            reduce_column(numeric, ps.column, ps.target)
    print(f"accidental cancellations across runs: {cancellations}")
