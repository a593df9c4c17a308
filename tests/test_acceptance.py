"""Acceptance suite: one test per release criterion, each printing a
[PASS] line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import numpy as np
import pytest

from hhsynth import bench as B
from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import methods as M
from hhsynth import ordering as O
from hhsynth import pivoting as P
from hhsynth.numerics import apply_permutations, state_to_vector

from helpers import random_sparse_isometry

NONE = C.AncillaRegime.none()
D1 = C.AncillaRegime.with_dirty(1)
SEED = 0


# ---------------------------------------------------------------------------
# shared compilations


@pytest.fixture(scope="module")
def ssp_runs():
    """200 random states per (n, s) in {6,8,10} x {0,1,2,3}: circuit,
    simulation error, infidelity and audited count."""
    runs = []
    for n in (6, 8, 10):
        for s in (0, 1, 2, 3):
            for trial in range(200):
                rng = np.random.default_rng(np.random.SeedSequence([SEED, n, s, trial]))
                v = B.random_sparse_state(n, 1 << s, rng)
                circuit = P.sparse_state_prep_on(v, n, seed=rng)
                zero = np.zeros(1 << n, dtype=complex)
                zero[0] = 1.0
                out = G.simulate_on_state(circuit, zero)
                target = state_to_vector(v, n)
                amp_err = float(np.max(np.abs(out - target)))
                infidelity = 1.0 - abs(np.vdot(target, out)) ** 2
                audited = C.audit_circuit(circuit, NONE).total
                runs.append((n, s, len(v), amp_err, infidelity, audited))
    return runs


@pytest.fixture(scope="module")
def iso_runs():
    """100 random sparse isometries (m <= 3, n <= 6) per method, verified
    exactly; keeps traces and audits for the bound and fill-in criteria."""
    rng = np.random.default_rng(SEED + 1)
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 8)), rng)
        cases.append((n, m, w, int(rng.integers(1 << 30))))
    runs = []
    for n, m, w, seed in cases:
        strat = O.greedy_order(w)
        elim = O.elim_count(w, strat)
        for method in ("dense", "sparse", "fixed-env", "no-fill-in"):
            if method == "dense":
                res = M.dense_householder_iso(w.to_dense(), D1)
            elif method == "sparse":
                res = M.sparse_householder_iso(w, strat, D1, seed=seed)
            elif method == "fixed-env":
                res = M.fixed_envelope_iso(w, strat, D1, seed=seed)
            else:
                res = M.no_fill_in_iso(w, C.AncillaRegime(clean=1, dirty=1), seed=seed)
            eq = G.equivalent(res.circuit, w, "exact", 1e-9)
            runs.append(
                {
                    "method": method,
                    "n": n,
                    "m": m,
                    "nnz": w.nnz,
                    "elim": elim,
                    "residual": eq.residual,
                    "ok": eq.ok,
                    "trace": res.trace,
                    "audit_dirty": C.audit_circuit(res.circuit, D1).total,
                    "audit_nofill": C.audit_circuit(
                        res.circuit, C.AncillaRegime(clean=1, dirty=1)
                    ).total,
                }
            )
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_state_preparation_correctness(ssp_runs):
    worst_amp = max(r[3] for r in ssp_runs)
    worst_inf = max(r[4] for r in ssp_runs)
    assert worst_amp <= 1e-9
    assert worst_inf <= 1e-12
    print(
        f"\n[PASS] criterion 1: {len(ssp_runs)} state preparations; "
        f"worst amplitude error {worst_amp:.2e}, worst infidelity {worst_inf:.2e}"
    )


def test_criterion_2_isometry_correctness(iso_runs):
    per_method = {}
    for r in iso_runs:
        per_method.setdefault(r["method"], []).append(r)
    for method, runs in per_method.items():
        assert len(runs) >= 100
        bad = [r for r in runs if not r["ok"]]
        assert not bad, f"{method}: {len(bad)} failures"
    worst = max(r["residual"] for r in iso_runs)
    print(
        f"\n[PASS] criterion 2: {len(iso_runs)} compiled isometries across 4 methods, "
        f"all exact at 1e-9 (worst residual {worst:.2e})"
    )


def test_criterion_3_bound_audits(ssp_runs, iso_runs):
    violations = 0
    for n, s, nnz, _, _, audited in ssp_runs:
        if s == 0:
            bound = (n - 1) * nnz  # pivot lemma directly; the table's
            # linear-in-s form is vacuous below s = 1
        else:
            bound = C.bound_ssp(n, s, nnz)
        if audited > bound:
            violations += 1
    for r in iso_runs:
        if r["method"] == "sparse":
            if r["audit_dirty"] > C.bound_sparse_basic_dirty(r["n"], r["m"], r["elim"]):
                violations += 1
        elif r["method"] == "no-fill-in":
            if r["audit_nofill"] > C.bound_no_fill_in_dirty(r["n"], r["m"], r["nnz"]):
                violations += 1
    assert violations == 0
    print("\n[PASS] criterion 3: zero closed-form bound violations")


def test_criterion_4_elim_bounded_by_envelope_gap():
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 8)), rng)
        st = O.EliminationStrategy(rng.permutation(1 << n), rng.permutation(1 << m))
        elim = O.elim_count(w, st)
        ed = O.envelope(apply_permutations(w, st.rho, st.sigma)).ed
        assert elim <= ed, (n, m, elim, ed)
        checked += 1
    print(f"\n[PASS] criterion 4: elim <= ed over {checked} random (W, rho, sigma)")


def test_criterion_5_row_ordering_dominance():
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, min(3, n) + 1))
        w = random_sparse_isometry(n, m, int(rng.integers(0, 8)), rng)
        rho = O.optimal_row_perm(w)
        best = O.envelope(apply_permutations(w, rho, np.arange(1 << m))).env
        for _ in range(50):
            other = O.envelope(
                apply_permutations(w, rng.permutation(1 << n), np.arange(1 << m))
            ).env
            assert np.all(best <= other)
        checked += 1
    print(f"\n[PASS] criterion 5: pointwise envelope dominance on {checked} x 50 permutations")


def test_criterion_6_fill_in_confinement(iso_runs):
    steps = 0
    for r in iso_runs:
        for t in r["trace"]:
            if t.skipped:
                continue
            for (s, tt) in t.modified:
                assert s in t.col_support and tt in t.row_support, (r["method"], t.step)
            steps += 1
    print(f"\n[PASS] criterion 6: fill-in confined on all {steps} reduction steps")


def test_criterion_7_worked_figure_traces():
    # 4x4 pattern, rows reordered so the fullest row leads, trivial order:
    # step 0 eliminates (1,0), clears row 0 beyond the target, and fills in
    # exactly (1,1) and (1,3)
    from helpers import PATTERN_4X4, PATTERN_4X4_ORDERED, ROW_ORDER_4X4

    _, steps = O.simulate_pattern_reduction(PATTERN_4X4_ORDERED, [(j, j) for j in range(4)])
    assert steps[0].eliminated == {(1, 0)}
    assert steps[0].orth_eliminated == {(0, 1), (0, 2), (0, 3)}
    assert steps[0].fill_in == {(1, 1), (1, 3)}
    # the same strategy expressed on the unordered pattern
    rho = np.array([ROW_ORDER_4X4[i] for i in range(4)])
    rho_inv = np.argsort(rho)
    schedule = [(j, int(rho_inv[j])) for j in range(4)]
    _, steps_orig = O.simulate_pattern_reduction(PATTERN_4X4, schedule)
    relabel = {(int(rho[i]), j) for (i, j) in steps_orig[0].fill_in}
    assert relabel == {(1, 1), (1, 3)}

    # embedded no-fill-in run on the same pattern: column i reduces onto
    # empty row 4 + i; the eliminated cells follow the column supports and
    # no fill-in ever appears
    schedule = [(i, 4 + i) for i in range(4)]
    _, steps_embed = O.simulate_pattern_reduction(set(PATTERN_4X4), schedule)
    expected_elims = [
        {(1, 0), (3, 0)},
        {(1, 1), (2, 1)},
        {(1, 2), (2, 2), (3, 2)},
        {(0, 3), (1, 3)},
    ]
    for st, expect in zip(steps_embed, expected_elims):
        assert st.fill_in == set()
        assert st.eliminated == expect
    print("\n[PASS] criterion 7: worked 4x4 elimination and fill-in cells reproduced exactly")


def test_criterion_8_benchmark_trend_and_bound():
    ns = list(range(8, 17))
    results = {}
    for s in (1, 2, 3):
        means, bounds = [], []
        for n in ns:
            rows = [B.bench_ssp_row(n, s, t, SEED, NONE) for t in range(200)]
            counts = np.array([r.cnots for r in rows], dtype=float)
            means.append(counts.mean())
            bounds.append(rows[0].bound)
        x = np.array(ns, dtype=float)
        y = np.array(means)
        a = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        resid = y - a @ coef
        r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
        assert r2 >= 0.99, (s, r2)
        assert all(m < b for m, b in zip(means, bounds)), (s, means, bounds)
        results[s] = (coef[0], r2)
    summary = ", ".join(f"s={s}: slope {sl:.2f}, R^2 {r2:.4f}" for s, (sl, r2) in results.items())
    print(f"\n[PASS] criterion 8: linear trend and all means below the reference bound ({summary})")


def test_criterion_9_cost_model_hand_values():
    checks = [
        # diagonal gate: 2^n - 2
        (C.cost_diagonal(1), 0),
        (C.cost_diagonal(3), 6),
        (C.cost_diagonal(5), 30),
        # dense state preparation
        (C.cost_dense_sp(4), 9),
        (C.cost_dense_sp(6), 47),
        (C.cost_dense_sp(10), 919),
        # k-controlled single-qubit gate, no ancilla: 16k^2 - 28k - 2
        (C.cost_mcu(2, NONE), 6),
        (C.cost_mcu(3, NONE), 58),
        (C.cost_mcu(5, NONE), 258),
        # k-controlled single-qubit gate, k-1 clean: 6k - 4 (at k = 2 the
        # ancilla-free row is cheaper and the selector prefers it)
        (6 * 2 - 4, 8),
        (C.cost_mcu(2, C.AncillaRegime.with_clean(1)), 6),
        (C.cost_mcu(3, C.AncillaRegime.with_clean(2)), 14),
        (C.cost_mcu(5, C.AncillaRegime.with_clean(4)), 26),
        # k-controlled NOT, one dirty helper on a tight register: 16k - 8
        (C.cost_mcx(3, 4, D1), min(16 * 3 - 8, 8 * 3 - 6)),
        (C.cost_mcx(5, 6, D1), 72),
        (C.cost_mcx(8, 9, D1), 120),
        # half-register workspace: 8k - 6 (k >= 5 has the cheaper 8k - 12)
        (C.cost_mcx(3, 8, NONE), 18),
        (C.cost_mcx(4, 10, NONE), 26),
        (8 * 5 - 6, 34),
        (C.cost_mcx(5, 12, NONE), 28),
        # many dirty helpers, k >= 5: 8k - 12
        (C.cost_mcx(5, 6, C.AncillaRegime.with_dirty(2)), 28),
        (C.cost_mcx(6, 7, C.AncillaRegime.with_dirty(2)), 36),
        (C.cost_mcx(7, 8, C.AncillaRegime.with_dirty(3)), 44),
        # many clean helpers: 6k - 6
        (C.cost_mcx(2, 3, C.AncillaRegime.with_clean(1)), 6),
        (C.cost_mcx(4, 5, C.AncillaRegime.with_clean(2)), 18),
        (C.cost_mcx(6, 7, C.AncillaRegime.with_clean(3)), 30),
        # permutation networks
        (C.perm_formula_one_dirty(2), 30),
        (C.perm_formula_one_dirty(3), 196),
        (C.perm_formula_one_dirty(4), 690),
        (C.perm_formula_no_ancilla(3), 237),
        (C.perm_formula_no_ancilla(4), 1033),
        (C.perm_formula_no_ancilla(5), 2933),
        (C.unitary_cnot_bound(2), 3),
        (C.unitary_cnot_bound(3), 20),
        (C.unitary_cnot_bound(8), 31020),
        # pivoting and reflection rows
        (C.bound_pivot_dirty(10, 2, 4), 132),
        (C.bound_pivot_dirty(3, 1, 2), 20),
        (C.bound_pivot_dirty(6, 3, 8), 360),
        (C.bound_pivot_clean(10, 2, 4), 60),
        (C.bound_pivot_clean(8, 3, 8), 152),
        (C.bound_pivot_clean(6, 1, 2), 10),
        (C.bound_ssp(3, 1, 2), 22),
        (C.bound_ssp(10, 2, 4), 136),
        (C.bound_ssp(6, 3, 8), 368),
        (C.bound_hr_up_to_dirty(4, 1, 2), 94),
        (C.bound_hr_up_to_dirty(8, 2, 4), 268),
        (C.bound_hr_up_to_dirty(5, 3, 8), 464),
        (C.bound_hr_up_to_clean(4, 1, 2), 38),
        (C.bound_hr_up_to_clean(8, 2, 4), 116),
        (C.bound_hr_up_to_clean(5, 3, 8), 190),
        (C.bound_perm_diag_dirty(6, 3), 592),
        (C.bound_perm_diag_dirty(4, 2), 152),
        (C.bound_perm_diag_dirty(5, 1), 10),
        (C.bound_perm_diag_clean(6, 3), 368),
        (C.bound_perm_diag_clean(4, 2), 80),
        (C.bound_perm_diag_clean(8, 2), 96),
    ]
    for got, expect in checks:
        assert got == expect, (got, expect)
    print(f"\n[PASS] criterion 9: {len(checks)} cost-model points match hand values")
