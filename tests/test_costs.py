import decimal
import math
from fractions import Fraction

import pytest

from hhsynth import costs as C
from hhsynth import gates as G

NONE = C.AncillaRegime.none()
D1 = C.AncillaRegime.with_dirty(1)


def test_mcx_small_cases():
    assert C.cost_mcx(0, 4) == 0
    assert C.cost_mcx(1, 4) == 1
    assert C.cost_mcx(2, 3) == 6
    assert C.cost_mcx(2, 3, C.AncillaRegime.with_clean(1)) == 6


def test_mcx_one_dirty_formula():
    # tight register: only the linear one-dirty row applies
    assert C.cost_mcx(5, 6, D1) == 16 * 5 - 8 == 72
    assert C.cost_mcx(3, 4, NONE) == 16 * 9 - 28 * 3 - 2  # no helper at all


def test_mcx_half_register_row():
    # plenty of spare qubits: 8k - 6
    assert C.cost_mcx(3, 8, NONE) == 8 * 3 - 6 == 18
    assert C.cost_mcx(4, 10, NONE) == 8 * 4 - 6 == 26


def test_mcx_many_dirty_row():
    assert C.cost_mcx(5, 6, C.AncillaRegime.with_dirty(2)) == 8 * 5 - 12 == 28


def test_mcx_clean_row():
    assert C.cost_mcx(6, 7, C.AncillaRegime.with_clean(3)) == 6 * 6 - 6 == 30


def test_mcx_rejects_oversized():
    with pytest.raises(ValueError):
        C.cost_mcx(3, 3)


def test_mcu_values():
    assert C.cost_mcu(0, NONE) == 0
    assert C.cost_mcu(1, NONE) == 2
    assert C.cost_mcu(2, NONE) == 6
    assert C.cost_mcu(3, NONE) == 16 * 9 - 28 * 3 - 2 == 58
    assert C.cost_mcu(3, C.AncillaRegime.with_clean(2)) == 6 * 3 - 4 == 14


def test_dense_sp_values():
    assert C.cost_dense_sp(0) == 0
    assert C.cost_dense_sp(1) == 0  # no two-qubit gate fits on one qubit
    assert C.cost_dense_sp(2) == 2  # formula slack over the known optimum 1
    assert C.cost_dense_sp(4) == 9
    assert C.cost_dense_sp(6) == 47
    assert C.cost_dense_sp(10) == 919


def test_dense_sp_equals_the_formula_to_60_digits():
    # odd n >= 53 included, where a float square root rounds the ceiling
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for n in range(2, 65):
            # exact for even n, where 2^{n/2+1} is an integer and 3
            # divides 23 2^n + 40; correctly rounded for odd n
            root = decimal.Decimal(2) ** (decimal.Decimal(n) / 2 + 1)
            assert C.cost_dense_sp(n) == math.ceil((decimal.Decimal(23 << n) + 40) / 24 - root), n


def test_unitary_cnot_bound_equals_the_fraction():
    for n in range(2, 65):
        exact = Fraction(23 * 4**n, 48) - Fraction(3 * 2**n, 2) + Fraction(4, 3)
        assert C.unitary_cnot_bound(n) == math.ceil(exact), n


def test_diagonal_values():
    assert C.cost_diagonal(0) == 0
    assert C.cost_diagonal(1) == 0
    assert C.cost_diagonal(3) == 6
    assert C.cost_diagonal(5) == 30


def test_permutation_formulas():
    assert C.perm_formula_one_dirty(2) == 30
    assert C.perm_formula_one_dirty(3) == 196
    assert C.perm_formula_one_dirty(4) == 690
    assert C.perm_formula_no_ancilla(3) == (27 * 3 - 62) * 8 + 44 * 9 - 96 * 3 - 23 == 237
    assert C.perm_formula_no_ancilla(4) == 1033
    assert C.perm_formula_no_ancilla(5) == 2933
    assert C.unitary_cnot_bound(2) == 3
    assert C.unitary_cnot_bound(3) == 20
    assert C.unitary_cnot_bound(8) == 31020


def test_permutation_cost_min():
    assert C.cost_permutation(0, NONE) == 0
    assert C.cost_permutation(1, NONE) == 0
    assert C.cost_permutation(3, NONE) == 20  # unitary bound wins for small n
    assert C.cost_permutation(9, NONE) == C.perm_formula_no_ancilla(9)
    assert C.cost_permutation(9, D1) == C.perm_formula_one_dirty(9)


def test_monotonicity_in_ancillas():
    regimes = [
        NONE,
        C.AncillaRegime.with_dirty(1),
        C.AncillaRegime.with_dirty(3),
        C.AncillaRegime(clean=1, dirty=3),
        C.AncillaRegime(clean=4, dirty=4),
    ]
    for k in range(0, 9):
        seq = [C.cost_mcx(k, k + 2, r) for r in regimes]
        assert seq == sorted(seq, reverse=True), (k, seq)
        sequ = [C.cost_mcu(k, r) for r in regimes]
        assert sequ == sorted(sequ, reverse=True)
    for n in range(2, 9):
        seq = [C.cost_permutation(n, r) for r in regimes]
        assert seq == sorted(seq, reverse=True)


def test_pivot_bound_variant_selection():
    # linear variant needs one extra helper beyond the s+1 qubits
    assert C.pivot_count_bound(10, 3, 8, dirty=0) == (10 + 16 * 3 - 9) * 8
    # tight register without ancilla: quadratic or whole-permutation forms
    n, s = 5, 4
    assert C.pivot_count_bound(n, s, 16, dirty=0) == min(
        (n + 16 * 16 - 28 * 4 - 3) * 16, 27 * n * 32
    )
    assert C.pivot_count_bound(n, s, 16, dirty=1) == (n + 16 * 4 - 9) * 16
    # many-dirty variant for s >= 5
    assert C.pivot_count_bound(12, 5, 32, dirty=0) == (12 + 8 * 5 - 13) * 32
    with pytest.raises(ValueError):
        C.pivot_count_bound(5, 4, 16, dirty=-5)


def test_clean_bounds_refuse_shapes_outside_their_range():
    # there the closed forms go negative: s = 0 gives n - 6, (n, m) = (1, 0) 4 elim - 17
    assert C.bound_ssp_clean(3, 1, 2) == (3 + 6 - 7) * 2 + 2
    assert C.bound_sparse_basic_clean(2, 0, 1) == (7 * 2 - 3) * 1 + (21 * 2 - 38) * 1
    with pytest.raises(ValueError):
        C.bound_ssp_clean(5, 0, 1)
    with pytest.raises(ValueError):
        C.bound_sparse_basic_clean(1, 0, 1)


def test_audit_single_cnot():
    c = G.StructuredCircuit(2, (), [G.CNOT(0, 1)])
    assert C.audit_circuit(c, NONE).total == 1


def test_audit_h0_as_multicontrolled_not():
    c = G.StructuredCircuit(4, (), [G.H0Phase((0, 1, 2, 3), math.pi)])
    assert C.audit_circuit(c, D1).total == C.cost_mcx(3, 4, D1)
    # the one-dirty table row itself evaluates to 40 at k = 3
    assert 16 * 3 - 8 == 40
    c2 = G.StructuredCircuit(4, (), [G.H0Phase((0, 1, 2, 3), 0.7)])
    assert C.audit_circuit(c2, NONE).total == C.cost_mcu(3, NONE)


@pytest.mark.parametrize("phi", [math.pi, 1.0])
def test_audit_h0_on_no_qubits_is_a_free_global_phase(phi):
    c = G.StructuredCircuit(2, (), [G.H0Phase((), phi)])
    report = C.audit_circuit(c, NONE)
    assert report.breakdown == [("h0[0q]", "global-phase", 0)] and report.total == 0


def test_audit_merges_adjacent_sp_pairs():
    v = {0: 1 / math.sqrt(2), 3: 1 / math.sqrt(2)}
    w = {0: 1 / math.sqrt(2), 2: -1 / math.sqrt(2)}
    qs = (0, 1)
    pair = [G.SPBlock.from_dict(qs, v, inverted=False), G.SPBlock.from_dict(qs, w, inverted=True)]
    c = G.StructuredCircuit(2, (), pair)
    assert C.audit_circuit(c, NONE).total == C.cost_dense_sp(2)
    # no merge across different subsets
    other = [G.SPBlock.from_dict((0, 1), v, False), G.SPBlock.from_dict((1, 0), w, True)]
    c2 = G.StructuredCircuit(2, (), other)
    assert C.audit_circuit(c2, NONE).total == 2 * C.cost_dense_sp(2)


def test_audit_decrement_ladder():
    c = G.StructuredCircuit(4, (), [G.Decrement((0, 1, 2, 3))])
    expect = sum(C.cost_mcx(k, 4, D1) for k in range(4))
    assert C.audit_circuit(c, D1).total == expect


def test_audit_breakdown_sums():
    gates = [G.CNOT(0, 1), G.Diagonal((0, 1, 2), tuple([1] * 8)), G.MCX(((0, 1), (1, 1)), 2)]
    rep = C.audit_circuit(G.StructuredCircuit(3, (), gates), NONE)
    assert rep.total == sum(c for _, _, c in rep.breakdown)


def test_parse_regime():
    assert C.parse_regime("none") == NONE
    assert C.parse_regime("dirty:2") == C.AncillaRegime.with_dirty(2)
    assert C.parse_regime("clean:1") == C.AncillaRegime.with_clean(1)
    assert C.parse_regime("clean:1+dirty:1") == C.AncillaRegime(1, 1)
    with pytest.raises(ValueError):
        C.parse_regime("grubby:1")


def test_composite_bounds_hand_values():
    assert C.bound_ssp(3, 1, 2) == 22
    assert C.bound_hr_up_to_dirty(4, 1, 2) == 94
    assert C.bound_perm_diag_dirty(6, 3) == 592
    assert C.bound_sparse_basic_dirty(5, 3, 10) == (17 * 5 - 5) * 10 + (51 * 5 + 34 * 3 - 44) * 8
    assert C.bound_no_fill_in_dirty(5, 3, 12) == (17 * 5 + 12) * 12 + (34 * 5 + 34 * 3 - 5) * 8
