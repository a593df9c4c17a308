import json
import math

import numpy as np
import pytest

from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth.numerics import state_to_vector
from hhsynth.pivoting import (
    QubitSplitting,
    choose_splitting,
    hypercube_multisource_bfs,
    pivot_plan,
    sparse_state_prep_on,
)

from helpers import random_state_dict, word_dense


def test_splitting_split_join_round_trip():
    sp = QubitSplitting((0, 3), (1, 2))
    for idx in range(16):
        assert sp.join(*sp.split(idx)) == idx


def test_choose_splitting_contiguous_pattern_needs_no_steps():
    # all nonzeros fill the first block of the trailing-register splitting
    n, s = 5, 2
    pattern = set(range(1 << s))
    sp, blk = choose_splitting(pattern, n, s)
    plan = pivot_plan({p: 0.5 for p in pattern}, sp, blk)
    assert plan.steps == []


def test_choose_splitting_small_enumeration():
    # n=3, s=1, pattern {0, 5}: every splitting holds one element already
    sp, blk = choose_splitting({0, 5}, 3, 1)
    inside = sum(1 for p in (0, 5) if sp.split(p)[0] == blk)
    assert inside >= 1


def test_choose_splitting_deterministic_sampling():
    rng = np.random.default_rng(0)
    pattern = set(int(x) for x in rng.choice(1 << 12, size=4, replace=False))
    a = choose_splitting(pattern, 12, 2, samples=100, seed=7)
    b = choose_splitting(pattern, 12, 2, samples=100, seed=7)
    assert a == b


def test_bfs_matches_brute_force():
    def check(s, sources):
        dist, src = hypercube_multisource_bfs(s, sources)
        for v in range(1 << s):
            best = min(((v ^ f).bit_count(), f) for f in sources)
            assert dist[v] == best[0]
            assert src[v] == best[1]  # smallest source among nearest

    rng = np.random.default_rng(1)
    for _ in range(20):
        s = int(rng.integers(1, 5))
        k = int(rng.integers(1, 1 << s))
        check(s, sorted(int(x) for x in rng.choice(1 << s, size=k, replace=False)))
    for s in range(9):
        check(s, [int(rng.integers(1 << s))])  # one source
        check(s, list(range(1 << s)))  # every vertex is a source


def test_single_insertion_at_distance_one():
    # one outside entry whose register part already matches a free slot:
    # zero adjust CNOTs, one register-controlled NOT as the relaxed Toffoli
    sp = QubitSplitting((0,), (1, 2))
    v = {0b000: 0.8, 0b101: 0.6j}
    plan = pivot_plan(v, sp, 0)
    assert len(plan.steps) == 1
    assert plan.steps[0].cnots == 0
    relaxed, _ = G.relaxed_mcx2(((1, 0), (2, 1)), 0)
    assert [g.to_json() for g in plan.steps[0].gates] == [g.to_json() for g in relaxed]


def test_plan_simulates_to_block_product_state():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(4, 11))
        s = int(rng.integers(0, 4))
        nnz = int(rng.integers(1, (1 << s) + 1))
        v = random_state_dict(n, nnz, rng)
        sp, blk = choose_splitting(v.keys(), n, s, seed=int(rng.integers(1 << 30)))
        plan = pivot_plan(v, sp, blk)
        vec = state_to_vector(v, n)
        for g in plan.gates:
            vec = G.apply_gate(vec, g, n)
        np.testing.assert_allclose(vec, word_dense(plan.residual, n) @ state_to_vector(v, n), atol=1e-12)
        for idx in plan.final_state:
            assert sp.split(idx)[0] == blk
        # step count equals the initially-outside entries; never grows
        outside0 = sum(1 for idx in v if sp.split(idx)[0] != blk)
        assert len(plan.steps) == outside0


def test_plan_cnot_audit_within_lemma_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, s = 10, 3
        v = random_state_dict(n, 1 << s, rng)
        sp, blk = choose_splitting(v.keys(), n, s, seed=int(rng.integers(1 << 30)))
        plan = pivot_plan(v, sp, blk)
        circuit = G.StructuredCircuit(n, (), list(plan.gates))
        audited = C.audit_circuit(circuit, C.AncillaRegime.none()).total
        bound = (n - 1 + C.cost_mcx(s, n, C.AncillaRegime.none())) * len(v)
        assert audited <= bound


def test_sparse_state_prep_zero_state():
    c = sparse_state_prep_on({0: 1.0 + 0j}, 4)
    assert c.gates == []


def test_sparse_state_prep_zero_qubits_is_a_global_phase():
    c = sparse_state_prep_on({0: 1j}, 0)
    assert [g.to_json() for g in c.gates] == [G.Diagonal((), (1j,)).to_json()]
    np.testing.assert_allclose(G.simulate_on_state(c, np.ones(1, dtype=complex)), [1j])


@pytest.mark.parametrize("v", [{-1: 1.0}, {-3: 0.6, 5: 0.8}])
def test_sparse_state_prep_refuses_a_negative_index(v):
    with pytest.raises(ValueError, match="state index out of range"):
        sparse_state_prep_on(v, 3)


@pytest.mark.parametrize("samples", [0, -5])
def test_choose_splitting_rejects_samples_below_one(samples):
    with pytest.raises(ValueError):
        choose_splitting({1, 6}, 3, 1, samples=samples)


def test_sparse_state_prep_two_amplitudes_bound():
    v = {0b000: 1 / math.sqrt(2), 0b101: 1 / math.sqrt(2)}
    c = sparse_state_prep_on(v, 3)
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    np.testing.assert_allclose(G.simulate_on_state(c, zero), state_to_vector(v, 3), atol=1e-10)
    audited = C.audit_circuit(c, C.AncillaRegime.none()).total
    assert audited <= 22  # (3 + 16 - 9) * 2 + ceil(23/24 * 2)


def test_sparse_state_prep_random_batch():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        nnz = int(rng.integers(1, min(9, 1 << n) + 1))
        v = random_state_dict(n, nnz, rng)
        c = sparse_state_prep_on(v, n, seed=int(rng.integers(1 << 30)))
        zero = np.zeros(1 << n, dtype=complex)
        zero[0] = 1.0
        out = G.simulate_on_state(c, zero)
        assert np.max(np.abs(out - state_to_vector(v, n))) <= 1e-9


def test_sparse_state_prep_rejects_bad_input():
    with pytest.raises(ValueError):
        sparse_state_prep_on({}, 3)
    with pytest.raises(ValueError):
        sparse_state_prep_on({0: 0.3 + 0j}, 3)


def test_sparse_state_prep_scales_past_dense_arrays():
    # a 2^40 array cannot be allocated: any dense residual fails this test
    from hhsynth.methods import householder_up_to

    n, nnz = 40, 8
    v = random_state_dict(n, nnz, np.random.default_rng(40))
    c = sparse_state_prep_on(v, n)
    audited = C.audit_circuit(c, C.AncillaRegime.none()).total
    assert audited <= C.bound_ssp(n, 3, nnz)
    again = G.circuit_to_dict(sparse_state_prep_on(v, n))
    assert json.dumps(G.circuit_to_dict(c), sort_keys=True) == json.dumps(again, sort_keys=True)
    # the reflection's residual moves the support onto distinct rows, phases exact units
    _, residual, s = householder_up_to(v, n)
    dst, ph = G.relabel(residual, n, list(v))
    assert len(set(dst.tolist())) == nnz and s == 3
    np.testing.assert_allclose(np.abs(ph), 1.0, atol=1e-15)
