import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import householder as hh
from hhsynth import methods as M
from hhsynth.numerics import EPS0, SparseIsometry, state_norm, state_to_vector

from helpers import (
    complete_state_prep,
    controlled_matrix,
    full_identity_action,
    near_phased_zero,
    random_sparse_isometry,
    random_state_dict,
    random_u2,
    word_dense,
)

RNG = np.random.default_rng(20)


def sample_gates():
    return [
        G.CNOT(0, 2),
        G.SingleQubit(1, random_u2(np.random.default_rng(0))),
        G.MCX(((0, 1), (2, 0)), 1),
        G.MCU(((1, 1),), 2, random_u2(np.random.default_rng(1))),
        G.Diagonal((0, 2), (1, 1j, -1, -1j)),
        G.PermutationGate((0, 1), (2, 0, 3, 1)),
        G.Decrement((0, 1, 2)),
        G.SPBlock.from_dict((1, 2), random_state_dict(2, 4, np.random.default_rng(2))),
        G.H0Phase((0, 1, 2), 1.2345),
    ]


def test_every_gate_unitary():
    for g in sample_gates():
        u = G.gate_unitary(g, 3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-12, g


def test_gate_dagger_inverts():
    for g in sample_gates():
        u = G.gate_unitary(g, 3)
        ud = np.eye(8, dtype=complex)
        for gg in g.dagger():
            ud = G.apply_gate(ud, gg, 3)
        np.testing.assert_allclose(ud @ u, np.eye(8), atol=1e-12)


def _move_qubits(u, table, nq):
    """``u`` with each qubit ``q`` moved to ``table[q]`` (a permutation of
    all ``nq`` qubits): P u P^T for the basis relabeling P."""
    src = np.arange(1 << nq)
    dst = np.zeros_like(src)
    for q, t in table.items():
        dst |= ((src >> (nq - 1 - q)) & 1) << (nq - 1 - t)
    out = np.empty_like(u)
    out[np.ix_(dst, dst)] = u
    return out


def test_remap_moves_every_gate_kind():
    # the sample gates act on qubits 0..2; qubit 0 moves to the spare qubit 3
    table = {0: 3, 1: 0, 2: 1, 3: 2}
    for g in sample_gates():
        moved = g.remap(table)
        assert type(moved) is type(g)
        np.testing.assert_allclose(
            G.gate_unitary(moved, 4), _move_qubits(G.gate_unitary(g, 4), table, 4),
            rtol=0, atol=1e-12, err_msg=repr(g),
        )


def test_qubits_are_the_qubits_acted_on():
    x = np.arange(8)
    for g in sample_gates():
        assert len(set(g.qubits)) == len(g.qubits), g
        u = G.gate_unitary(g, 3)
        for q in range(3):
            b = 1 << (2 - q)
            # identity on q: no entry couples bit values of q, and both
            # values of q see the same action on the other qubits
            trivial = np.allclose(u[((x[:, None] ^ x[None, :]) & b) != 0], 0, atol=1e-12)
            trivial = trivial and np.allclose(u, u[np.ix_(x ^ b, x ^ b)], atol=1e-12)
            assert trivial == (q not in g.qubits), (g, q)


def test_decrement_wraps_zero():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    out = G.apply_gate(state, G.Decrement((0, 1)), 2)
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)


def test_mcx_maps_10_to_11():
    # most-significant-first convention: qubit 0 carries the leading bit,
    # so |10> -> |11> is control on qubit 0, target qubit 1
    state = np.zeros(4, dtype=complex)
    state[0b10] = 1.0
    out = G.apply_gate(state, G.MCX(((0, 1),), 1), 2)
    assert out[0b11] == pytest.approx(1.0)


def test_mcx_polarity():
    state = np.zeros(4, dtype=complex)
    state[0b00] = 1.0
    out = G.apply_gate(state, G.MCX(((0, 0),), 1), 2)
    assert out[0b01] == pytest.approx(1.0)


def test_near_x_mcu_is_not_simulated_as_mcx():
    # X times a phase of 1e-6 is within np.allclose of X, but not X
    near_x = G.MCU(((0, 1),), 1, G.X_MATRIX * np.exp(1e-6j))
    res = G.equivalent(G.StructuredCircuit(2, (), [near_x]), G.gate_unitary(G.MCX(((0, 1),), 1), 2))
    assert not res.ok
    assert res.residual == pytest.approx(math.sqrt(2.0) * 1e-6, rel=1e-3)


@pytest.mark.parametrize("nq", range(1, 5))
def test_controlled_gates_match_their_entrywise_matrix(nq):
    rng = np.random.default_rng(60 + nq)
    for target in range(nq):
        others = [q for q in range(nq) if q != target]
        u = random_u2(rng)
        gates = [(G.SingleQubit(target, m), ()) for m in (u, G.H_MATRIX, np.diag([1j, -1]))]
        for size in range(len(others) + 1):
            qs = [int(q) for q in rng.permutation(others)[:size]]
            controls = tuple((q, int(rng.integers(2))) for q in qs)  # mixed polarities
            gates += [
                (G.MCX(controls, target), controls),
                (G.MCU(controls, target, random_u2(rng)), controls),
                (G.MCU(controls, target, np.diag(np.exp(2j * np.pi * rng.random(2)))), controls),
            ]
            if size == 1:
                gates.append((G.CNOT(qs[0], target), ((qs[0], 1),)))
        for g, controls in gates:
            want = controlled_matrix(controls, target, g.matrix, nq)
            assert np.max(np.abs(G.gate_unitary(g, nq) - want)) <= 1e-15, g.describe()


def test_perm_phase_word_rejects_a_dense_gate():
    word = [G.MCU(((0, 1),), 1, G.H_MATRIX)]
    with pytest.raises(TypeError, match="(?s)MCU.*not a permutation/diagonal gate"):
        G.relabel(word, 2, [0, 1])


def test_spblock_prepares_target():
    v = random_state_dict(3, 5, RNG)
    g = G.SPBlock.from_dict((0, 1, 2), v)
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    np.testing.assert_allclose(G.apply_gate(state, g, 3), state_to_vector(v, 3), atol=1e-10)


@pytest.mark.parametrize(
    "state, ok",
    [
        (((0, 0.6 + 0j), (1, 0.8 + 0j)), True),
        (((0, 1 + 5e-9j),), True),
        (((0, 1 + 2e-8 + 0j),), False),
        (((0, complex("nan")),), False),
        # a repeated index: the last amplitude is the one checked
        (((0, 1.0 + 0j), (1, 0.8 + 0j), (0, 0.6 + 0j)), True),
        (((0, 0.6 + 0j), (1, 0.8 + 0j), (0, 1.0 + 0j)), False),
    ],
)
def test_spblock_norm_check_reads_the_state_as_a_dict(state, ok):
    if ok:
        assert G.SPBlock((0,), state).dagger()[0].state is state
    else:
        with pytest.raises(ValueError, match="SPBlock target has norm"):
            G.SPBlock((0,), state)


def _oracle_states(k, rng):
    """Seeded block states on k qubits, as (index, amplitude) tuples."""
    dim = 1 << k
    phase = complex(np.exp(2j * np.pi * rng.random()))
    states = [((0, 1.0 + 0j),), ((0, phase),), ((int(rng.integers(1, dim)), phase),)]
    for nnz in {min(2, dim), min(3, dim), dim}:  # sparse and full
        states.append(tuple(random_state_dict(k, nnz, rng).items()))
    for dist in (1e-9, 1e-5, 1e-2):  # close to e^{i alpha}|0..0>
        v = near_phased_zero(k, dist, rng.uniform(-math.pi, math.pi), rng)
        states.append(tuple((int(x), complex(v[x])) for x in np.flatnonzero(v)))
    if dim > 2:
        # amplitudes just above EPS0, and ones whose u entry sits just
        # above and just below EPS0 (u_x = v_x / sqrt(2 (1 + |v_0|)))
        main = random_state_dict(k, 2, rng)
        scale = math.sqrt(2.0 * (1.0 + abs(main.get(0, 0j))))
        rest = [x for x in range(dim) if x not in main]
        edge = [EPS0 * (1 + 1e-6), EPS0 * (1 + 1e-6) * scale, EPS0 * (1 - 1e-6) * scale]
        tiny = {x: a * phase for x, a in zip(rng.permutation(rest), edge)}
        states.append(tuple({**main, **tiny}.items()))
    # a repeated index: the last amplitude counts
    v = random_state_dict(k, min(3, dim), rng)
    x = next(iter(v))
    states.append(((x, 0.5 + 0j),) + tuple(v.items()) + ((x, v[x]),))
    return states


@pytest.mark.parametrize("k", range(1, 9))
def test_spblock_simulates_the_dense_oracle(k):
    rng = np.random.default_rng(700 + k)
    for state in _oracle_states(k, rng):
        oracle = complete_state_prep(dict(state), k)
        for inverted in (False, True):
            g = G.SPBlock(tuple(range(k)), state, inverted)
            want = oracle.conj().T if inverted else oracle
            np.testing.assert_allclose(G.gate_unitary(g, k), want, rtol=0, atol=1e-15)


def test_spblock_dagger_shares_the_reflection(monkeypatch):
    built = []
    build = G._block_reflection
    monkeypatch.setattr(G, "_block_reflection", lambda *a: built.append(a) or build(*a))
    g = G.SPBlock.from_dict((0, 1, 2), random_state_dict(3, 5, np.random.default_rng(3)))
    (h,) = g.dagger()
    (back,) = h.dagger()
    moved = g.remap({0: 2, 1: 0, 2: 1})
    assert len(built) == 1
    assert h.inverted and not back.inverted and back == g
    assert h.state is g.state and h.reflection is g.reflection is back.reflection
    assert moved.reflection is g.reflection
    G.SPBlock(g.qubits, g.state)  # a block made from a tuple builds its own
    assert len(built) == 2
    # the dense path: one reflection for each prepare/unprepare pair
    built.clear()
    u = np.linalg.qr(np.random.default_rng(4).normal(size=(8, 8)) + 0j)[0]
    blocks = [g for g in M.dense_householder_unitary(u).circuit.gates if isinstance(g, G.SPBlock)]
    assert len(blocks) == 2 * len(built) > 0


def test_spblock_reflection_is_the_dict_reduction_vector():
    # the same values as reducing the normalized state with the dict form,
    # so simulated blocks give the same floats as that form does
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        v = random_state_dict(k, int(rng.integers(1, (1 << k) + 1)), rng)
        v = {x: a * (1 + 1e-9) for x, a in v.items()}  # a norm off 1 in the last digits
        rows, u, eith = G.SPBlock.from_dict(tuple(range(k)), v).reflection
        nrm = state_norm(v)
        want, _ = hh.reduction_vector({x: a / nrm for x, a in v.items()}, 0)
        assert rows.tolist() == sorted(want)
        assert u.tolist() == [want[x] for x in sorted(want)]
        assert eith == hh.target_phase(v.get(0, 0j) / nrm)[1]


def test_spblock_reflection_always_comes_from_the_state():
    g = G.SPBlock.from_dict((0,), {0: 0.6 + 0j, 1: 0.8 + 0j})
    other = G.SPBlock.from_dict((0,), {1: 1.0 + 0j})
    with pytest.raises(TypeError, match="reflection"):
        G.SPBlock((0,), g.state, reflection=other.reflection)
    with pytest.raises(ValueError, match="reflection"):
        dataclasses.replace(g, reflection=other.reflection)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.reflection = other.reflection
    # a block given another state builds that state's reflection
    h = dataclasses.replace(g, state=other.state)
    assert h == other and h.reflection is not other.reflection
    for a, b in zip(h.reflection, other.reflection):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(G.gate_unitary(h, 1), G.gate_unitary(other, 1))


@pytest.mark.parametrize("inverted", [False, True])
def test_spblock_from_arrays_matches_from_dict(inverted):
    rng = np.random.default_rng(5)
    tiny = EPS0 * (1 + 1e-9)
    cases = [
        {0: 1.0 + 0j},
        {3: complex(0.0, -1.0)},
        {0: complex(-0.0, 0.6), 2: complex(0.8, -0.0), 5: complex(tiny, 0.0), 7: complex(-0.0, -tiny)},
        random_state_dict(4, 16, rng),
    ]
    v = random_state_dict(5, 9, rng)
    cases.append(dict(reversed(list(v.items()))))  # out of order
    for v in cases:
        k = max(v).bit_length() or 1
        qubits = tuple(range(k))
        rows, amps = np.array(list(v)), np.array(list(v.values()))
        a = G.SPBlock.from_arrays(qubits, rows, amps, inverted)
        b = G.SPBlock.from_dict(qubits, v, inverted)
        assert a == b and hash(a) == hash(b)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
        assert [x for x, _ in a.state] == sorted(v)
    # the dense path's blocks, rebuilt from their states
    u = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))[0]
    for g in M.dense_householder_unitary(u).circuit.gates:
        if isinstance(g, G.SPBlock):
            again = G.SPBlock.from_dict(g.qubits, dict(g.state), g.inverted)
            assert again == g and json.dumps(again.to_json()) == json.dumps(g.to_json())


@pytest.mark.parametrize("index", [2, 5, -1, 1 << 40, 1 << 70])
def test_spblock_refuses_an_index_outside_its_register(index):
    state = ((index, 1.0 + 0j),)
    with pytest.raises(ValueError, match="SPBlock state index"):
        G.SPBlock((0,), state)
    with pytest.raises(ValueError, match="SPBlock state index"):
        G.SPBlock.from_dict((0,), dict(state))
    if abs(index) < 1 << 62:
        with pytest.raises(ValueError, match="SPBlock state index"):
            G.SPBlock.from_arrays((0,), [index], [1.0])


def _spblock_unitary(v, k):
    """The unitary of an ``SPBlock`` on k qubits, through the dense kernel."""
    return G.gate_unitary(G.SPBlock.from_dict(tuple(range(k)), v), k)


def test_complete_state_prep_zero_is_identity():
    np.testing.assert_array_equal(_spblock_unitary({0: 1.0 + 0j}, 2), np.eye(4))


def test_complete_state_prep_plus_state():
    v = {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)}
    u = _spblock_unitary(v, 1)
    np.testing.assert_allclose(u[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("k", range(1, 5))
def test_complete_state_prep_is_exact_near_a_phased_basis_state(k):
    rng = np.random.default_rng(90 + k)
    states = [state_to_vector(random_state_dict(k, int(rng.integers(1, (1 << k) + 1)), rng), k)
              for _ in range(20)]
    # a small alpha is the hard case: the state is then close to |0..0> itself
    for _ in range(100):
        alpha = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, 0)
        states.append(near_phased_zero(k, 10.0 ** rng.uniform(-9, -2), alpha, rng))
    for v in states:
        vd = {int(x): complex(v[x]) for x in np.flatnonzero(v)}
        assert min(abs(a) for a in vd.values()) > 1e-10
        u = _spblock_unitary(vd, k)
        assert np.max(np.abs(u.conj().T @ u - np.eye(1 << k))) <= 1e-14
        assert np.max(np.abs(u[:, 0] - v)) <= 1e-14
    np.testing.assert_array_equal(_spblock_unitary({0: 1.0 + 0j}, k), np.eye(1 << k))


def test_completion_invariance_of_conjugated_reflection():
    # SP . (I - 2|0><0|) . SP^dag is the same for any completion of v
    rng = np.random.default_rng(21)
    for _ in range(10):
        v = random_state_dict(3, 8, rng)
        vv = state_to_vector(v, 3)
        u1 = _spblock_unitary(v, 3)
        # Gram-Schmidt completion oracle
        basis = [vv]
        for k in range(8):
            e = np.zeros(8, dtype=complex)
            e[k] = 1.0
            for b in basis:
                e = e - b * np.vdot(b, e)
            if np.linalg.norm(e) > 1e-6:
                basis.append(e / np.linalg.norm(e))
        u2 = np.array(basis[:8]).T
        h0 = np.eye(8, dtype=complex)
        h0[0, 0] = -1.0
        target = np.eye(8) - 2.0 * np.outer(vv, vv.conj())
        np.testing.assert_allclose(u1 @ h0 @ u1.conj().T, target, atol=1e-9)
        np.testing.assert_allclose(u2 @ h0 @ u2.conj().T, target, atol=1e-9)


def test_circuit_unitary_empty_is_identity():
    c = G.StructuredCircuit(2)
    np.testing.assert_array_equal(G.circuit_unitary(c), np.eye(4))


def test_circuit_unitary_double_x_is_identity():
    c = G.StructuredCircuit(2, (), [G.x_gate(0), G.x_gate(0)])
    np.testing.assert_allclose(G.circuit_unitary(c), np.eye(4), atol=1e-15)


def test_conjugated_h0_is_reflection():
    rng = np.random.default_rng(22)
    v = random_state_dict(3, 6, rng)
    c = G.StructuredCircuit(
        3,
        (),
        [
            G.SPBlock.from_dict((0, 1, 2), v, inverted=True),
            G.H0Phase((0, 1, 2), math.pi),
            G.SPBlock.from_dict((0, 1, 2), v, inverted=False),
        ],
    )
    vv = state_to_vector(v, 3)
    np.testing.assert_allclose(
        G.circuit_unitary(c), np.eye(8) - 2.0 * np.outer(vv, vv.conj()), atol=1e-10
    )


def test_h0_equals_dressed_multicontrolled_not():
    # H0 = (X H) C_{n-1}(X) (H X) on the target, with 0-polarity controls
    n = 4
    target = n - 1
    gates = [G.x_gate(target), G.SingleQubit(target, G.H_MATRIX, "h")]
    gates.append(G.MCX(tuple((q, 0) for q in range(n - 1)), target))
    gates += [G.SingleQubit(target, G.H_MATRIX, "h"), G.x_gate(target)]
    c = G.StructuredCircuit(n, (), gates)
    np.testing.assert_allclose(
        G.circuit_unitary(c), G.gate_unitary(G.H0Phase(tuple(range(n)), math.pi), n), atol=1e-12
    )


def test_equivalent_exact_identity_isometry():
    c = G.StructuredCircuit(2)
    assert G.equivalent(c, np.eye(4)[:, :2], "exact", 1e-9).ok


@pytest.mark.parametrize(
    "mat",
    [SparseIsometry(3, 1, [(0, 0, 1.0), (1, 1, 1.0)]), np.eye(8)[:, :2], np.ones((4, 8))],
    ids=["sparse_of_another_n", "dense_of_another_n", "dense_wider_than_tall"],
)
def test_equivalent_of_another_shape_is_false_with_infinite_residual(mat):
    res = G.equivalent(G.StructuredCircuit(2), mat, "exact", 1e-9)
    assert not res.ok and res.residual == math.inf


def test_equivalent_up_to_diagonal():
    c = G.StructuredCircuit(1, (), [G.Diagonal((0,), (1, 1j))])
    m = np.eye(2)[:, :2]
    assert not G.equivalent(c, m, "exact", 1e-9).ok
    res = G.equivalent(c, m, "up_to_diagonal", 1e-9)
    assert res.ok
    np.testing.assert_allclose(res.diag, [1, 1j], atol=1e-12)


def test_equivalent_row_perm_witness():
    c = G.StructuredCircuit(1, (), [G.x_gate(0)])
    res = G.equivalent(c, np.eye(2), "up_to_diag_and_row_perm", 1e-9, row_perm=[1, 0])
    assert res.ok


def test_equivalent_refuses_a_bad_mode_before_it_simulates(monkeypatch):
    calls = []
    monkeypatch.setattr(G, "_data_action", lambda *a: calls.append(a))
    c = G.StructuredCircuit(1, (), [G.x_gate(0)])
    with pytest.raises(ValueError, match="unknown mode 'exactly'"):
        G.equivalent(c, np.eye(2), "exactly")
    with pytest.raises(ValueError, match="needs a row_perm witness"):
        G.equivalent(c, np.eye(2), "up_to_diag_and_row_perm")
    with pytest.raises(ValueError, match="not a bijection"):
        G.equivalent(c, np.eye(2), "up_to_diag_and_row_perm", row_perm=[0, 0])
    assert calls == []


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_bad_tolerance_is_refused_before_anything_is_simulated(tol, monkeypatch):
    # a circuit that leaks into its clean ancilla, and a correct one
    leaky = G.StructuredCircuit(1, ("clean",), [G.CNOT(0, 1)])
    good = G.StructuredCircuit(1, (), [])
    calls = []
    monkeypatch.setattr(G, "_data_action", lambda *a: calls.append(a))
    for c in (leaky, good):
        with pytest.raises(ValueError, match="tol .* is not a finite value >= 0"):
            G.equivalent(c, np.eye(2), tol=tol)
        with pytest.raises(ValueError, match="restore_tol .* is not a finite value >= 0"):
            G.circuit_unitary(c, restore_tol=tol)
        with pytest.raises(ValueError, match="restore_tol .* is not a finite value >= 0"):
            G.simulate_on_state(c, {0: 1.0}, restore_tol=tol)
    assert calls == []


def test_a_zero_tolerance_is_accepted():
    good = G.StructuredCircuit(1, (), [])
    assert G.equivalent(good, np.eye(2), tol=0.0).residual == 0.0
    np.testing.assert_array_equal(G.circuit_unitary(good, restore_tol=0.0), np.eye(2))
    assert G.simulate_on_state(good, {1: 1.0}, restore_tol=0.0) == {1: 1.0}


def test_clean_ancilla_restoration_enforced():
    good = G.StructuredCircuit(1, ("clean",), [G.CNOT(0, 1), G.CNOT(0, 1)])
    np.testing.assert_allclose(G.circuit_unitary(good), np.eye(2), atol=1e-12)
    bad = G.StructuredCircuit(1, ("clean",), [G.CNOT(0, 1)])
    with pytest.raises(G.CircuitVerificationError):
        G.circuit_unitary(bad)


def test_dirty_ancilla_restoration_enforced():
    # borrow-and-restore pattern is fine, a plain X on the ancilla is not
    good = G.StructuredCircuit(1, ("dirty",), [G.CNOT(1, 0), G.CNOT(1, 0)])
    np.testing.assert_allclose(G.circuit_unitary(good), np.eye(2), atol=1e-12)
    bad = G.StructuredCircuit(1, ("dirty",), [G.x_gate(1)])
    with pytest.raises(G.CircuitVerificationError):
        G.circuit_unitary(bad)


def test_dirty_dependent_action_rejected():
    bad = G.StructuredCircuit(1, ("dirty",), [G.CNOT(1, 0)])
    with pytest.raises(G.CircuitVerificationError):
        G.circuit_unitary(bad)


def test_circuit_unitary_matches_full_identity_oracle():
    rng = np.random.default_rng(24)
    cases = []
    for n, m in ((3, 1), (4, 2), (5, 0)):
        w = random_sparse_isometry(n, m, 4, rng)
        c = M.no_fill_in_iso(w, C.AncillaRegime(clean=1, dirty=1)).circuit
        assert c.ancillas == ("clean",) and m < n
        cases.append((c, 1 << m))
    # three-controlled X on qubit 3 from two Toffolis through a borrowed qubit,
    # dressed with data rotations; the second case also declares an idle clean one
    ctrl = ((0, 1), (1, 1))
    for ancillas, d in ((("dirty",), 4), (("clean", "dirty"), 5)):
        toffolis = [G.MCX(ctrl, d), G.MCX(((d, 1), (2, 1)), 3)] * 2
        dress = [G.SingleQubit(q, random_u2(rng)) for q in range(4)]
        c = G.StructuredCircuit(4, ancillas, dress + toffolis + G.dagger_sequence(dress))
        cases.append((c, None))
    for c, in_dim in cases:
        expected = full_identity_action(c, in_dim=in_dim)
        np.testing.assert_allclose(G.circuit_unitary(c, in_dim=in_dim), expected, rtol=0, atol=1e-12)
    bad = [
        G.StructuredCircuit(1, ("clean",), [G.CNOT(0, 1)]),
        G.StructuredCircuit(1, ("dirty",), [G.x_gate(1)]),
        G.StructuredCircuit(1, ("dirty",), [G.CNOT(1, 0)]),
        G.StructuredCircuit(2, ("clean", "dirty"), [G.MCX(((0, 1), (3, 1)), 2)]),
    ]
    for c in bad:
        with pytest.raises(G.CircuitVerificationError):
            full_identity_action(c)
        with pytest.raises(G.CircuitVerificationError):
            G.circuit_unitary(c)


def test_simulate_on_state_sees_small_clean_ancilla_leak():
    # leak norm sin(eps/2) = 1e-9: 1 - cos^2 rounds to 0, so only a norm taken
    # on the difference itself can see it
    half = math.asin(1e-9)
    ry = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
    c = G.StructuredCircuit(8, ("clean",), [G.SingleQubit(8, ry, "ry")])
    with pytest.raises(G.CircuitVerificationError):
        G.simulate_on_state(c, np.full(256, 1 / 16, dtype=complex))


def _peak_of_refusal(fn, *args):
    """``fn(*args)`` must raise SimulationCapExceeded; its tracemalloc peak."""
    tracemalloc.start()
    try:
        with pytest.raises(G.SimulationCapExceeded):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_cap(monkeypatch):
    # 2^13 x 2^13 amplitudes (1 GiB) are refused before any is allocated
    assert _peak_of_refusal(G.circuit_unitary, G.StructuredCircuit(13)) < 1 << 20
    assert _peak_of_refusal(G.gate_unitary, G.CNOT(0, 1), 13) < 1 << 20
    monkeypatch.setattr(G, "LIVE_CAP", 64)
    np.testing.assert_array_equal(G.circuit_unitary(G.StructuredCircuit(3)), np.eye(8))
    assert _peak_of_refusal(G.circuit_unitary, G.StructuredCircuit(4)) < 64 * 1024


def test_batch_and_vector_agree():
    gs = sample_gates()
    state = np.zeros(8, dtype=complex)
    state[3] = 1.0
    u = np.eye(8, dtype=complex)
    for g in gs:
        u = G.apply_gate(u, g, 3)
        state = G.apply_gate(state, g, 3)
    np.testing.assert_allclose(state, u[:, 3], atol=1e-12)


def test_perm_phase_matches_dense_products():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p1, p2 = (
            [
                G.PermutationGate((0, 1, 2), tuple(int(x) for x in rng.permutation(8))),
                G.Diagonal((0, 1, 2), tuple(np.exp(1j * rng.uniform(0, 2 * math.pi, 8)))),
            ]
            for _ in range(2)
        )
        np.testing.assert_allclose(
            word_dense(p1 + p2, 3), word_dense(p2, 3) @ word_dense(p1, 3), atol=1e-12
        )


def test_sequence_perm_phase_matches_simulation():
    gates = [G.CNOT(0, 2), G.MCX(((1, 0),), 0), G.Decrement((0, 1, 2)), G.Diagonal((1,), (1, -1j))]
    u = np.eye(8, dtype=complex)
    for g in gates:
        u = G.apply_gate(u, g, 3)
    np.testing.assert_allclose(word_dense(gates, 3), u, atol=1e-12)


def test_relaxed_mcx2_three_cnots_up_to_diagonal():
    for controls in [((0, 1), (1, 1)), ((0, 0), (1, 1)), ((2, 0), (0, 0))]:
        gates, op = G.relaxed_mcx2(controls, {0, 1, 2}.difference(q for q, _ in controls).pop())
        assert sum(isinstance(g, G.CNOT) for g in gates) == 3
        u = np.eye(8, dtype=complex)
        for g in gates:
            u = G.apply_gate(u, g, 3)
        np.testing.assert_allclose(u, word_dense(op, 3), atol=1e-12)
        target = {0, 1, 2}.difference(q for q, _ in controls).pop()
        d = u @ G.gate_unitary(G.MCX(controls, target), 3).conj().T
        np.testing.assert_allclose(d, np.diag(np.diag(d)), atol=1e-12)


def test_circuit_json_round_trip():
    c = G.StructuredCircuit(3, ("clean",), sample_gates() + [G.CNOT(0, 3)])
    d = G.circuit_to_dict(c)
    c2 = G.circuit_from_dict(d)
    u1 = G.apply_circuit(np.eye(16, dtype=complex), c)
    u2 = G.apply_circuit(np.eye(16, dtype=complex), c2)
    np.testing.assert_allclose(u1, u2, atol=1e-12)
    import json

    assert json.dumps(d, sort_keys=True) == json.dumps(G.circuit_to_dict(c2), sort_keys=True)


def test_validate_rejects_bad_indices():
    c = G.StructuredCircuit(1, (), [G.CNOT(0, 1)])
    with pytest.raises(ValueError):
        c.validate()
    c = G.StructuredCircuit(2, (), [G.CNOT(1, 1)])
    with pytest.raises(ValueError):
        c.validate()


def _random_index_map_gate(n, rng):
    """A random X, CNOT, MCX, Decrement, PermutationGate, Diagonal or H0Phase."""
    kind = int(rng.integers(7))
    qs = [int(q) for q in rng.permutation(n)]
    k = int(rng.integers(1, min(n, 3) + 1))
    if kind == 0:
        return G.x_gate(qs[0])
    if kind == 1:
        return G.CNOT(qs[0], qs[1])
    if kind == 2:
        controls = tuple((q, int(rng.integers(2))) for q in qs[1 : 1 + int(rng.integers(0, n))])
        return G.MCX(controls, qs[0])
    if kind == 3:
        return G.Decrement(tuple(qs[:k]))
    if kind == 4:
        return G.PermutationGate(tuple(qs[:k]), tuple(int(x) for x in rng.permutation(1 << k)))
    if kind == 5:
        return G.Diagonal(tuple(qs[:k]), tuple(np.exp(2j * np.pi * rng.uniform(size=1 << k))))
    return G.H0Phase(tuple(qs[:k]), float(rng.uniform(-math.pi, math.pi)))


def _reference_unitary(g, n):
    """Dense matrix of a gate from per-basis-state bit arithmetic, written
    independently of the library's index maps (non-X single-qubit gates
    go through the simulator's 2x2 path)."""
    if isinstance(g, G.SingleQubit) and not np.array_equal(g.matrix, G.X_MATRIX):
        return G.gate_unitary(g, n)

    def bit(x, q):
        return (x >> (n - 1 - q)) & 1

    u = np.zeros((1 << n, 1 << n), dtype=complex)
    for x in range(1 << n):
        y, phase = x, 1.0
        if isinstance(g, G.SingleQubit):
            y = x ^ (1 << (n - 1 - g.target))
        elif isinstance(g, G.CNOT):
            y = x ^ (bit(x, g.control) << (n - 1 - g.target))
        elif isinstance(g, G.MCX):
            if all(bit(x, q) == p for q, p in g.controls):
                y = x ^ (1 << (n - 1 - g.target))
        else:
            k = len(g.qubits)
            sub = sum(bit(x, q) << (k - 1 - i) for i, q in enumerate(g.qubits))
            new = sub
            if isinstance(g, G.Decrement):
                new = (sub - 1) % (1 << k)
            elif isinstance(g, G.PermutationGate):
                new = g.mapping[sub]
            elif isinstance(g, G.Diagonal):
                phase = g.phases[sub]
            elif isinstance(g, G.H0Phase):
                phase = np.exp(1j * g.phi) if sub == 0 else 1.0
            for i, q in enumerate(g.qubits):
                pos = n - 1 - q
                y = (y & ~(1 << pos)) | (((new >> (k - 1 - i)) & 1) << pos)
        u[y, x] = phase
    return u


def test_index_map_residual_matches_dense_product():
    from hhsynth.methods import householder_up_to

    rng = np.random.default_rng(31)
    polarities = [(p1, p2) for p1 in (0, 1) for p2 in (0, 1)]
    for trial in range(40):
        n = int(rng.integers(3, 9))
        word = []
        for _ in range(int(rng.integers(1, 10))):
            g = _random_index_map_gate(n, rng)
            word.append(([g], _reference_unitary(g, n)))
        # the relaxed Toffoli's residual, against its own emitted gates
        q1, q2, t = (int(q) for q in rng.permutation(n)[:3])
        p1, p2 = polarities[trial % 4]
        gates, residual = G.relaxed_mcx2(((q1, p1), (q2, p2)), t)
        u = np.eye(1 << n, dtype=complex)
        for g in gates:
            u = _reference_unitary(g, n) @ u
        word.insert(int(rng.integers(len(word) + 1)), (residual, u))
        # the reflection about one basis state is its own residual
        idx = int(rng.integers(1 << n))
        _, flip, _ = householder_up_to({idx: 1.0 + 0j}, n)
        dst, ph = G.relabel(flip, n, [idx])
        assert dst[0] == idx and ph[0] == -1.0
        reflection = np.eye(1 << n, dtype=complex)
        reflection[idx, idx] = -1.0
        word.insert(int(rng.integers(len(word) + 1)), (flip, reflection))

        pp = [g for f, _ in word for g in f]
        dense = np.eye(1 << n, dtype=complex)
        for _, oracle in word:
            dense = oracle @ dense
        np.testing.assert_allclose(word_dense(pp, n), dense, atol=1e-12)
        probe = rng.choice(1 << n, size=5, replace=False)
        dst, ph = G.relabel(pp, n, probe)
        np.testing.assert_allclose(dense[dst, probe], ph, atol=1e-12)
