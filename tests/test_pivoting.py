import json
import math
import tracemalloc

import numpy as np
import pytest

from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import pivoting as P
from hhsynth.numerics import state_to_vector
from hhsynth.pivoting import (
    QubitSplitting,
    block_scores,
    choose_splitting,
    hypercube_multisource_bfs,
    pivot_plan,
    sparse_state_prep_on,
)

from helpers import random_state_dict, state_arrays, unique_block_score, word_dense


def test_splitting_split_join_round_trip():
    sp = QubitSplitting((0, 3), (1, 2))
    for idx in range(16):
        assert sp.join(*sp.split(idx)) == idx


def test_choose_splitting_contiguous_pattern_needs_no_steps():
    # all nonzeros fill the first block of the trailing-register splitting
    n, s = 5, 2
    pattern = set(range(1 << s))
    sp, blk = choose_splitting(pattern, n, s)
    plan = pivot_plan(*state_arrays({p: 0.5 for p in pattern}), sp, blk)
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


def _oracle_splitting(pattern, n, s, samples, seed):
    """choose_splitting by the per-candidate oracle: the first candidate
    whose best block is strictly the fullest."""
    if math.comb(n, s) <= samples:
        candidates = P._all_register_subsets(n, s)
    else:
        candidates = P._sampled_register_subsets(n, s, samples, np.random.default_rng(seed))
    best = None
    for reg in candidates:
        occ, inside = unique_block_score(P._block_mask(n, reg), list(pattern))
        if best is None or occ > best[0]:
            best = (occ, reg, inside)
    _, reg, inside = best
    sp = QubitSplitting(tuple(q for q in range(n) if q not in reg), reg)
    return sp, sp.split(inside)[0]


def _scoring_cases():
    """(pattern, masks) pairs: random registers, ties between blocks and
    between candidates, duplicate entries, one element, s = n - 1, and
    indices near 2^62."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        s = int(rng.integers(0, n))
        pattern = rng.choice(1 << n, size=int(rng.integers(1, (1 << s) + 1)), replace=False)
        yield pattern, np.array([P._block_mask(n, r) for r in P._all_register_subsets(n, s)])
    # two blocks of two under the top-qubit mask, and every mask ties at 2
    yield np.array([0b000, 0b001, 0b110, 0b111]), np.array([0b100, 0b010, 0b100, 0b110])
    yield np.array([0b001, 0b010, 0b100, 0b111]), np.array([0b100, 0b010, 0b001])
    # a duplicated entry counts once per copy, as in np.unique's counts
    yield np.array([5, 5, 5, 1, 1, 3, 3, 3, 3]), np.array([0b100, 0b010, 0b001, 0, 0b111])
    yield np.array([6]), np.array([0b110, 0b001, 0])
    n = 9
    pattern = rng.choice(1 << n, size=1 << (n - 1), replace=False)
    yield pattern, np.array([P._block_mask(n, r) for r in P._all_register_subsets(n, n - 1)])
    n = 62
    pattern = (1 << 61) + rng.choice(1 << 20, size=64, replace=False) * (1 << 41)
    pattern = np.concatenate([pattern, [(1 << 62) - 1, (1 << 62) - 2]])
    regs = P._sampled_register_subsets(n, 7, 40, rng)
    yield pattern, np.array([P._block_mask(n, r) for r in regs])


def _assert_scores_match_oracle(pattern, masks):
    occ, inside = block_scores(np.asarray(pattern, dtype=np.int64), np.asarray(masks, dtype=np.int64))
    oracle = [unique_block_score(int(m), pattern) for m in masks]
    assert list(zip(occ.tolist(), inside.tolist())) == oracle


@pytest.mark.parametrize("case", list(_scoring_cases()))
def test_block_scores_match_the_unique_oracle(case):
    _assert_scores_match_oracle(*case)


def test_block_scores_match_the_oracle_across_chunks(monkeypatch):
    # a cap of 40 amplitudes holds 40 // nnz candidates per chunk
    monkeypatch.setattr(G, "LIVE_CAP", 40)
    for pattern, masks in _scoring_cases():
        _assert_scores_match_oracle(pattern, masks)


def test_choose_splitting_matches_the_per_candidate_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        s = int(rng.integers(0, n))
        pattern = {int(x) for x in rng.choice(1 << n, size=int(rng.integers(1, (1 << s) + 1)), replace=False)}
        samples, seed = int(rng.integers(1, 60)), int(rng.integers(1 << 30))
        assert choose_splitting(pattern, n, s, samples, seed) == _oracle_splitting(pattern, n, s, samples, seed)


def test_int_seed_draws_as_a_fresh_generator():
    rng = np.random.default_rng(13)
    for n, s in [(12, 3), (20, 5), (40, 10), (9, 8)]:
        pattern = {int(x) for x in rng.choice(1 << n, size=1 << (s - 1), replace=False)}
        for seed in (0, 7, 123456789):
            fresh = np.random.default_rng(seed)
            assert choose_splitting(pattern, n, s, 30, seed) == choose_splitting(pattern, n, s, 30, fresh)


def test_shared_generator_advances_as_the_draws_do():
    pattern = {3, 900, 4097, 70000}
    shared, replay = np.random.default_rng(14), np.random.default_rng(14)
    for samples in (5, 50, 5):
        choose_splitting(pattern, 20, 2, samples, shared)
        P._sampled_register_subsets(20, 2, samples, replay)
        assert shared.bit_generator.state == replay.bit_generator.state


def test_memoized_masks_refuse_writes():
    _, masks = P._every_candidate(12, 3)
    with pytest.raises(ValueError, match="read-only"):
        masks[0] = 0


def test_splitting_search_memory_is_chunked():
    # unchunked, 20000 candidates x 1024 entries is 164 MB per int64 array
    rng = np.random.default_rng(15)
    pattern = rng.choice(1 << 40, size=1024, replace=False)
    tracemalloc.start()
    try:
        choose_splitting(pattern, 40, 10, samples=20000, seed=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * G.LIVE_CAP * 8


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


def test_every_step_keeps_the_nearest_free_slot_table_exact(monkeypatch):
    # each repaired (dist, src) against a fresh brute-force table of the
    # slots left, and the slots filled against the plan's own occupancy
    steps = []
    fill = P._fill_slot

    def record(dist, src, free, slot):
        left = fill(dist, src, free, slot)
        steps.append((dist.copy(), src.copy(), free.tolist(), slot, left.tolist()))
        return left

    monkeypatch.setattr(P, "_fill_slot", record)
    rng = np.random.default_rng(24)
    for _ in range(60):
        s = int(rng.integers(0, 7))
        n = s + int(rng.integers(1, 4))
        order = [int(q) for q in rng.permutation(n)]
        sp = QubitSplitting(tuple(order[s:]), tuple(order[:s]))
        blk = int(rng.integers(1 << (n - s)))
        v = random_state_dict(n, int(rng.integers(1, (1 << s) + 1)), rng)
        steps.clear()
        plan = pivot_plan(*state_arrays(v), sp, blk)
        assert len(steps) == len(plan.steps)
        free = sorted(set(range(1 << s)) - {sp.split(k)[1] for k in v if sp.split(k)[0] == blk})
        for dist, src, before, slot, left in steps:
            assert before == free and slot in free
            free.remove(slot)
            assert left == free
            for vtx in range(1 << s):
                if free:  # the nearest slot left, the smallest among equals
                    assert (dist[vtx], src[vtx]) == min(((vtx ^ f).bit_count(), f) for f in free)
                else:
                    assert (dist[vtx], src[vtx]) == (np.iinfo(np.int64).max, -1)
        assert plan.register[0].tolist() == sorted(set(range(1 << s)) - set(free))


def test_single_insertion_at_distance_one():
    # one outside entry whose register part already matches a free slot:
    # zero adjust CNOTs, one register-controlled NOT as the relaxed Toffoli
    sp = QubitSplitting((0,), (1, 2))
    v = {0b000: 0.8, 0b101: 0.6j}
    plan = pivot_plan(*state_arrays(v), sp, 0)
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
        plan = pivot_plan(*state_arrays(v), sp, blk)
        vec = state_to_vector(v, n)
        for g in plan.gates:
            vec = G.apply_gate(vec, g, n)
        np.testing.assert_allclose(vec, word_dense(plan.residual, n) @ state_to_vector(v, n), atol=1e-12)
        # the state after the plan lies in the target block, and its
        # register values are the plan's register rows
        after, _ = G.relabel(plan.residual, n, list(v))
        for idx in after.tolist():
            assert sp.split(idx)[0] == blk
        assert plan.register[0].tolist() == sorted(sp.split(idx)[1] for idx in after.tolist())
        # step count equals the initially-outside entries; never grows
        outside0 = sum(1 for idx in v if sp.split(idx)[0] != blk)
        assert len(plan.steps) == outside0


def test_plan_does_not_depend_on_the_order_of_its_input():
    # the gates, the residual and the register arrays are the same whatever
    # the order of the keys and amplitudes (a reflection's SPBlock rests on
    # that, since a column's entries come in insertion order)
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        s = int(rng.integers(0, min(n, 4) + 1))
        v = random_state_dict(n, int(rng.integers(1, (1 << s) + 1)), rng)
        keys, amps = state_arrays(v)
        sp, blk = choose_splitting(keys, n, s, seed=int(rng.integers(1 << 30)))
        plans = []
        for _ in range(3):
            order = rng.permutation(len(keys))
            plans.append(pivot_plan(keys[order], amps[order], sp, blk))
        want = plans[0]
        for plan in plans[1:]:
            for field in ("gates", "residual", "x_layer"):
                assert [g.to_json() for g in getattr(plan, field)] == [
                    g.to_json() for g in getattr(want, field)
                ]
            assert [st.cnots for st in plan.steps] == [st.cnots for st in want.steps]
            assert np.array_equal(plan.register[0], want.register[0])
            assert plan.register[1].tobytes() == want.register[1].tobytes()


def test_plan_cnot_audit_within_lemma_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, s = 10, 3
        v = random_state_dict(n, 1 << s, rng)
        sp, blk = choose_splitting(v.keys(), n, s, seed=int(rng.integers(1 << 30)))
        plan = pivot_plan(*state_arrays(v), sp, blk)
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
    _, residual, s = householder_up_to(*state_arrays(v), n)
    dst, ph = G.relabel(residual, n, list(v))
    assert len(set(dst.tolist())) == nnz and s == 3
    np.testing.assert_allclose(np.abs(ph), 1.0, atol=1e-15)
