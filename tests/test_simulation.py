"""The live-row simulator against the dense kernel, verification on wide
registers, and the one memory rule: every simulated array is at most
``gates.LIVE_CAP`` amplitudes (rows x columns), one batch per allowed
ancilla basis state.

Every generator is a seeded numpy one, so two versions of the source see
the same circuits and inputs.  The oracle is the kernel on the full basis
gate by gate (``helpers.dense_circuit_action``, itself checked gate by gate
against matrices built entry by entry in ``test_gates``), on registers
that fit it;
wider registers are checked against it through circuits embedded on a few
of their qubits, and through sparse state preparation, whose target is
known.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hhsynth import gates as G
from hhsynth import pivoting as P
from hhsynth.numerics import SparseIsometry

from helpers import (
    complete_state_prep,
    dense_circuit_action,
    full_identity_action,
    near_phased_zero,
    random_state_dict,
    random_u2,
)

KINDS = (
    "cnot", "single", "mcx", "mcu", "diagonal", "permutation", "decrement", "spblock", "h0phase"
)
LIVE_ONLY = 1  # a DENSE_SHARE that never hands over to the dense kernel


def random_gate(rng, nq, kind, qubits=None):
    """A random gate of ``kind`` on the listed qubits (default: all ``nq``)."""
    qs = [int(q) for q in rng.permutation(range(nq) if qubits is None else qubits)]
    k = int(rng.integers(1, min(len(qs), 3) + 1))
    ncontrols = int(rng.integers(min(len(qs), 4)))
    controls = tuple((q, int(rng.integers(2))) for q in qs[1 : 1 + ncontrols])
    phases = tuple(np.exp(2j * np.pi * rng.uniform(size=1 << k)))
    if kind == "cnot":
        return G.CNOT(qs[0], qs[1]) if len(qs) > 1 else G.x_gate(qs[0])
    if kind in ("single", "mcu"):
        # mostly mixing matrices; X and diagonal ones take the index-map path
        pick = int(rng.integers(5))
        u = [random_u2(rng), G.H_MATRIX, random_u2(rng), G.X_MATRIX, np.diag(phases[:2])][pick]
        if kind == "single":
            return G.SingleQubit(qs[0], u)
        return G.MCU(controls, qs[0], u)
    if kind == "mcx":
        return G.MCX(controls, qs[0])
    if kind == "diagonal":
        return G.Diagonal(tuple(qs[:k]), phases)
    if kind == "permutation":
        return G.PermutationGate(tuple(qs[:k]), tuple(int(x) for x in rng.permutation(1 << k)))
    if kind == "decrement":
        return G.Decrement(tuple(qs[:k]))
    if kind == "spblock":
        k = int(rng.integers(1, min(len(qs), 4) + 1))
        state = random_state_dict(k, int(rng.integers(1, (1 << k) + 1)), rng)
        return G.SPBlock.from_dict(tuple(qs[:k]), state, inverted=bool(rng.integers(2)))
    return G.H0Phase(tuple(qs[:k]), float(rng.uniform(-math.pi, math.pi)))


def random_gates(rng, nq, length, qubits=None):
    """``length`` gates cycling through all nine kinds in shuffled rounds."""
    out = []
    while len(out) < length:
        out += [random_gate(rng, nq, KINDS[i], qubits) for i in rng.permutation(len(KINDS))]
    return out[:length]


def random_vector(rng, dim, nnz):
    v = np.zeros(dim, dtype=complex)
    pos = rng.choice(dim, size=min(nnz, dim), replace=False)
    v[pos] = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    return v / np.linalg.norm(v)


def random_inputs(rng, dim):
    """One-hot, sparse and dense states, and a batch of all three."""
    one_hot, sparse, dense = (random_vector(rng, dim, k) for k in (1, 3, dim))
    return [one_hot, sparse, dense, np.stack([one_hot, sparse, dense, one_hot], axis=1)]


def hadamard_spread(rng, nq, gates):
    """``gates`` with a Hadamard on every qubit inserted at random places,
    so that a one-hot input fills the register part way through."""
    out = list(gates)
    for q in range(nq):
        out.insert(int(rng.integers(len(out) + 1)), G.SingleQubit(q, G.H_MATRIX, "h"))
    return out


@pytest.mark.parametrize("nq", range(1, 13))
def test_live_form_matches_the_dense_kernel(nq, monkeypatch):
    rng = np.random.default_rng(700 + nq)
    default_share = G.DENSE_SHARE
    full_calls = []  # one per kernel call: did the state hold all 2^nq rows
    live_gate = G._live_gate

    def traced(g, rows, *args):
        full_calls.append(len(rows) == 1 << nq)
        return live_gate(g, rows, *args)

    monkeypatch.setattr(G, "_live_gate", traced)
    crossed = 0
    for trial in range(6):
        gates = random_gates(rng, nq, 30)
        if trial % 2:
            gates = hadamard_spread(rng, nq, gates)
        c = G.StructuredCircuit(nq, (), gates)
        for state in random_inputs(rng, 1 << nq):
            want = dense_circuit_action(state, c)
            for share in (LIVE_ONLY, default_share):
                monkeypatch.setattr(G, "DENSE_SHARE", share)
                full_calls.clear()
                got = G.apply_circuit(state, c)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12
                crossed += 0 < sum(full_calls) < len(c.gates)
    # one-hot and sparse inputs are filled in to the full basis mid-circuit;
    # on one qubit any live row is past the share already
    assert crossed > 0 or nq == 1


def _borrowing_block(rng, n, ancilla, kind):
    """Gates whose action on the data is independent of the ancilla's state
    (any for a dirty one, |0> for a clean one), which they restore."""
    qs = [int(q) for q in rng.permutation(n)]
    ctrls = tuple((q, int(rng.integers(2))) for q in qs[1 : 1 + int(rng.integers(1, min(n, 3)))])
    if kind == "clean":
        # compute a control into the ancilla, use it, uncompute it
        flag = G.MCX(ctrls, ancilla)
        return [flag, G.MCU(((ancilla, 1),), qs[0], random_u2(rng)), flag]
    # a multi-controlled X through a borrowed qubit: it toggles the target
    # by (a ^ c) ^ a = c, whatever the borrowed qubit's state a
    free = [q for q in qs[1:] if q not in dict(ctrls)]
    extra = ((free[0], int(rng.integers(2))),) if free else ()
    use = G.MCX(((ancilla, 1),) + extra, qs[0])
    flip = G.MCX(ctrls, ancilla)
    return [use, flip, use, flip]


def dense_data_action(circuit, v, restore_tol=1e-10):
    """Oracle for ``simulate_on_state`` on a dense data state: the dense
    kernel on ``v`` embedded at every allowed ancilla state, each output
    checked entry by entry against the action at ancilla state 0."""
    n, a = circuit.n, len(circuit.ancillas)
    clean = sum(1 << (a - 1 - k) for k, kind in enumerate(circuit.ancillas) if kind == "clean")
    data_rows = np.arange(1 << n) << a
    action = None
    for y in (y for y in range(1 << a) if not y & clean):
        state = np.zeros(1 << circuit.total_qubits, dtype=complex)
        state[data_rows | y] = v
        out = dense_circuit_action(state, circuit)
        if action is None:
            action = out[data_rows]
        out[data_rows | y] -= action
        if np.max(np.abs(out)) > restore_tol:
            raise G.CircuitVerificationError(f"ancilla state {y} not restored")
    return action


def _verdict(fn, *args):
    try:
        return fn(*args)
    except G.CircuitVerificationError:
        return "rejected"


ANCILLA_SHAPES = [
    (n, ancillas)
    for ancillas in (
        ("clean",), ("dirty",), ("clean", "dirty"), ("dirty", "dirty"), ("dirty", "clean", "dirty")
    )
    for n in range(2, 13 - len(ancillas))
]


@pytest.mark.parametrize("n,ancillas", ANCILLA_SHAPES)
def test_live_verifier_matches_the_dense_oracle_with_ancillas(n, ancillas, monkeypatch):
    rng = np.random.default_rng(1000 * n + len(ancillas) * 10 + ancillas.count("clean"))
    default_share = G.DENSE_SHARE
    gates = []
    for _ in range(3):
        gates += hadamard_spread(rng, n, random_gates(rng, n, 6, range(n)))
        for k, kind in enumerate(ancillas):
            gates += _borrowing_block(rng, n, n + k, kind)
    good = G.StructuredCircuit(n, ancillas, gates)
    # random gates on the ancillas as well mostly break the discipline
    bad = G.StructuredCircuit(n, ancillas, gates + random_gates(rng, n + len(ancillas), 9))
    inputs = random_inputs(rng, 1 << n)[:3]
    basis = np.eye(1 << n, 4, dtype=complex).T
    columns = np.stack([dense_data_action(good, e) for e in basis], axis=1)
    w = SparseIsometry.from_dense(columns[:, : 1 << int(rng.integers(min(n, 2) + 1))])
    for share in (LIVE_ONLY, default_share):
        monkeypatch.setattr(G, "DENSE_SHARE", share)
        for v in inputs:
            want = dense_data_action(good, v)
            got = G.simulate_on_state(good, {int(x): complex(v[x]) for x in np.flatnonzero(v)})
            dense = np.zeros(1 << n, dtype=complex)
            dense[list(got)] = list(got.values())
            assert np.max(np.abs(dense - want)) <= 1e-12
            assert np.max(np.abs(G.simulate_on_state(good, v) - want)) <= 1e-12
            expected = _verdict(dense_data_action, bad, v)
            got = _verdict(G.simulate_on_state, bad, v)
            if isinstance(expected, str) or isinstance(got, str):
                assert got == expected
            else:
                assert np.max(np.abs(got - expected)) <= 1e-12
        res = G.equivalent(good, w, "exact", 1e-9)
        assert res.ok and res.residual <= 1e-12
        if good.total_qubits <= 8:
            assert np.max(np.abs(G.circuit_unitary(good) - full_identity_action(good))) <= 1e-12


def _embedding(rng, narrow, wide):
    """``(table, embed)``: qubit q of a ``narrow``-qubit register sits at
    ``table[q]`` of a ``wide`` one whose other qubits hold random bits, and
    ``embed`` maps a narrow basis index to its wide one."""
    table = [int(q) for q in rng.choice(wide, size=narrow, replace=False)]
    background = 0
    for q in set(range(wide)) - set(table):
        background |= int(rng.integers(2)) << (wide - 1 - q)

    def embed(x):
        out = background
        for q in range(narrow):
            out |= ((x >> (narrow - 1 - q)) & 1) << (wide - 1 - table[q])
        return out

    return table, embed


@pytest.mark.parametrize("wide", [15, 40, 62])
def test_wide_register_matches_the_dense_kernel_on_its_embedded_qubits(wide):
    rng = np.random.default_rng(900 + wide)
    narrow = 8
    for _ in range(4):
        table, embed = _embedding(rng, narrow, wide)
        gates = random_gates(rng, narrow, 40)
        c = G.StructuredCircuit(wide, (), [g.remap(table) for g in gates])
        for v in random_inputs(rng, 1 << narrow)[:3]:
            want = dense_circuit_action(v, G.StructuredCircuit(narrow, (), gates))
            got = G.simulate_on_state(c, {embed(int(x)): complex(v[x]) for x in np.flatnonzero(v)})
            back = {embed(x): x for x in range(1 << narrow)}
            assert set(got) <= set(back)
            dense = np.zeros(1 << narrow, dtype=complex)
            for y, a in got.items():
                dense[back[y]] = a
            assert np.max(np.abs(dense - want)) <= 1e-12


def wide_state(rng, n, nnz):
    """A random unit state with ``nnz`` nonzeros on ``n`` qubits (n <= 62)."""
    pos = set()
    while len(pos) < nnz:
        pos.add(int(rng.integers(0, 1 << n, dtype=np.int64)))
    amps = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    amps /= np.linalg.norm(amps)
    return {p: complex(a) for p, a in zip(sorted(pos), amps)}


def _distance(out: dict, v: dict) -> float:
    return math.sqrt(sum(abs(out.get(k, 0) - v.get(k, 0)) ** 2 for k in set(out) | set(v)))


WIDE_SSP = [(n, nnz) for n in (15, 40, 62) for nnz in (1, 3, 4, 8, 64)] + [(40, 512)]


@pytest.mark.parametrize("n,nnz", WIDE_SSP)
def test_ssp_verifies_past_the_dense_cap(n, nnz):
    rng = np.random.default_rng(10_000 + 100 * n + nnz)
    v = wide_state(rng, n, nnz)
    c = P.sparse_state_prep_on(v, n)
    assert _distance(G.simulate_on_state(c, {0: 1.0 + 0j}), v) <= 1e-9
    w = SparseIsometry(n, 0, [(k, 0, a) for k, a in v.items()])
    res = G.equivalent(c, w, "exact", 1e-9)
    assert res.ok and res.residual <= 1e-9
    res = G.equivalent(c, w, "up_to_diagonal", 1e-9)
    assert res.ok and res.residual <= 1e-9


def test_dropping_any_gate_of_a_wide_circuit_is_rejected():
    n = 40
    v = wide_state(np.random.default_rng(41), n, 8)
    c = P.sparse_state_prep_on(v, n)
    w = SparseIsometry(n, 0, [(k, 0, a) for k, a in v.items()])
    assert G.equivalent(c, w, "exact", 1e-9).ok
    for i in range(len(c.gates)):
        dropped = G.StructuredCircuit(n, (), c.gates[:i] + c.gates[i + 1 :])
        res = G.equivalent(dropped, w, "exact", 1e-9)
        assert not res.ok, (i, c.gates[i].describe())
        assert _distance(G.simulate_on_state(dropped, {0: 1.0 + 0j}), v) > 1e-9


def test_wide_clean_ancilla_leak_is_caught():
    n = 20
    half = math.asin(1e-9)  # leak norm 1e-9: only a norm of the difference sees it
    ry = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
    w = SparseIsometry(n, 0, [(0, 0, 1.0)])
    for leak in (G.SingleQubit(n, ry, "ry"), G.CNOT(n - 1, n)):
        c = G.StructuredCircuit(n, ("clean",), [G.x_gate(n - 1), leak, G.x_gate(n - 1)])
        with pytest.raises(G.CircuitVerificationError):
            G.simulate_on_state(c, {4: 1.0 + 0j})
        with pytest.raises(G.CircuitVerificationError):
            G.equivalent(c, w, "exact", 1e-10)
    borrowed = G.StructuredCircuit(n, ("dirty",), [G.CNOT(n, 3), G.CNOT(n, 3)])
    assert G.simulate_on_state(borrowed, {4: 1.0 + 0j}) == {4: 1.0 + 0j}
    with pytest.raises(G.CircuitVerificationError):
        G.simulate_on_state(G.StructuredCircuit(n, ("dirty",), [G.CNOT(n, 3)]), {4: 1.0 + 0j})


def _hadamards(n, count):
    return G.StructuredCircuit(n, (), [G.SingleQubit(q, G.H_MATRIX, "h") for q in range(count)])


def test_live_amplitude_cap_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(G, "LIVE_CAP", 64)
    assert len(G.simulate_on_state(_hadamards(40, 6), {0: 1.0 + 0j})) == 64
    tracemalloc.start()
    try:
        with pytest.raises(G.SimulationCapExceeded, match="128 amplitudes"):
            G.simulate_on_state(_hadamards(40, 7), {0: 1.0 + 0j})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # each allowed ancilla state is its own batch, so a dirty ancilla adds
    # no amplitudes: 6 Hadamards still make 64 rows x 1 column
    c = G.StructuredCircuit(40, ("dirty",), _hadamards(40, 6).gates)
    assert len(G.simulate_on_state(c, {0: 1.0 + 0j})) == 64
    c = G.StructuredCircuit(40, ("dirty",), _hadamards(40, 7).gates)
    with pytest.raises(G.SimulationCapExceeded, match="128 amplitudes"):
        G.simulate_on_state(c, {0: 1.0 + 0j})
    # an spblock needs only its 2^k group of rows: 64 fit, 128 do not
    assert len(G.simulate_on_state(_wide_spblock(40, 6), {0: 1.0 + 0j})) == 2
    with pytest.raises(G.SimulationCapExceeded, match="128 amplitudes"):
        G.simulate_on_state(_wide_spblock(40, 7), {0: 1.0 + 0j})


def _wide_spblock(n, k):
    """An n-qubit circuit of one k-qubit block preparing (|0..0> + |1..1>) / sqrt 2."""
    state = {0: 2 ** -0.5 + 0j, (1 << k) - 1: 2 ** -0.5 + 0j}
    return G.StructuredCircuit(n, (), [G.SPBlock.from_dict(tuple(range(5, 5 + k)), state)])


@pytest.mark.parametrize("k", [30])
def test_wide_spblock_beyond_the_cap_is_refused_before_allocating(k):
    # the 2^k group would not fit
    tracemalloc.start()
    try:
        with pytest.raises(G.SimulationCapExceeded):
            G.simulate_on_state(_wide_spblock(40, k), {0: 1.0 + 0j})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wide_spblock_simulates_exactly_without_its_matrix():
    # a 12-qubit block on 40 qubits: its 2^12 group fits the live cap, and
    # the 2^12 x 2^12 completion (256 MiB) is never built
    n, k = 40, 12
    c = _wide_spblock(n, k)
    tracemalloc.start()
    try:
        out = G.simulate_on_state(c, {0: 1.0 + 0j})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    ones = ((1 << k) - 1) << (n - 5 - k)
    assert out.keys() == {0, ones}
    assert max(abs(out[0] - 2 ** -0.5), abs(out[ones] - 2 ** -0.5)) <= 1e-15
    # a dense 4096-entry state after an X layer, through equivalent
    rng = np.random.default_rng(62)
    v = random_state_dict(k, 1 << k, rng)
    xs = [G.x_gate(0), G.x_gate(n - 1)]
    c = G.StructuredCircuit(n, (), xs + [G.SPBlock.from_dict(tuple(range(5, 5 + k)), v)])
    base = (1 << (n - 1)) | 1
    want = SparseIsometry(n, 0, [(base | x << (n - 5 - k), 0, a) for x, a in v.items()])
    res = G.equivalent(c, want)
    assert res.ok and res.residual <= 1e-14


def test_dense_forms_are_admitted_by_their_amplitudes(monkeypatch):
    # 2^15-long forms verify exactly past 14 qubits, and are refused once
    # the cap is below their size; the sparse forms are not
    n = 15
    wide = G.StructuredCircuit(n, (), [G.x_gate(0), G.x_gate(n - 1)])
    moved = (1 << (n - 1)) | 1  # where the X layer sends |0>
    v, want = np.zeros((2, 1 << n), dtype=complex)
    v[0] = want[moved] = 1.0
    at_zero = SparseIsometry(n, 0, [(0, 0, 1.0)])
    perm = np.arange(1 << n)
    perm[[moved, 0]] = [0, moved]  # the witness moves the action's row back
    np.testing.assert_array_equal(G.simulate_on_state(wide, v), want)
    for res in (
        G.equivalent(wide, want, "exact", 1e-9),
        G.equivalent(wide, at_zero, "up_to_diag_and_row_perm", 1e-9, row_perm=perm),
    ):
        assert res.ok and res.residual == 0.0
    monkeypatch.setattr(G, "LIVE_CAP", (1 << n) - 1)
    with pytest.raises(G.SimulationCapExceeded):
        G.simulate_on_state(wide, v)
    with pytest.raises(G.SimulationCapExceeded):
        G.equivalent(wide, want, "exact", 1e-9)
    with pytest.raises(G.SimulationCapExceeded):
        G.equivalent(wide, at_zero, "up_to_diag_and_row_perm", 1e-9, row_perm=perm)
    assert G.equivalent(wide, SparseIsometry(n, 0, [(moved, 0, 1.0)]), "exact", 1e-9).ok
    assert G.simulate_on_state(wide, {0: 1.0 + 0j}) == {moved: 1.0 + 0j}
    with pytest.raises(ValueError, match="out of range"):
        G.simulate_on_state(wide, {1 << n: 1.0 + 0j})


def test_dirty_ancillas_cost_one_batch_per_state(monkeypatch):
    # 13 data qubits and 2 dirty ones: each of the 4 ancilla states is a
    # 4 x 4 batch, under a cap of 64 that one 16 x 16 batch would pass
    monkeypatch.setattr(G, "LIVE_CAP", 64)
    n = 13
    toggle = G.MCX(((n + 1, 1), (1, 0)), 7)  # flips qubit 7 by a dirty bit
    gates = [G.x_gate(0), G.CNOT(n, 5), toggle, G.CNOT(n, 5), toggle]
    w = SparseIsometry(n, 2, [((1 << (n - 1)) | j, j, 1.0) for j in range(4)])
    res = G.equivalent(G.StructuredCircuit(n, ("dirty", "dirty"), gates), w, "exact", 1e-9)
    assert res.ok and res.residual == 0.0
    with pytest.raises(G.CircuitVerificationError, match="ancilla state 01"):
        G.equivalent(G.StructuredCircuit(n, ("dirty", "dirty"), gates[:-1]), w, "exact", 1e-9)


def _embedded_completion(g, nq):
    """The block's dense completion (its inverse, when ``inverted``) as a
    2^nq x 2^nq matrix: entry (i', i) is U[v(i'), v(i)] when i' and i agree
    off the block's qubits, v being the subset value."""
    u = complete_state_prep(dict(g.state), len(g.qubits))
    if g.inverted:
        u = u.conj().T
    idx = np.arange(1 << nq)
    sub = np.zeros_like(idx)
    for q in g.qubits:
        sub = (sub << 1) | ((idx >> (nq - 1 - q)) & 1)
    rest = idx & ~sum(1 << (nq - 1 - q) for q in g.qubits)
    return np.where(rest[:, None] == rest, u[sub[:, None], sub], 0)


def _sparse_input(nq, count, rng):
    x = np.zeros(1 << nq, dtype=complex)
    x[rng.choice(1 << nq, size=count, replace=False)] = rng.normal(size=count) + 1j * rng.normal(size=count)
    return x


@pytest.mark.parametrize("k", range(1, 9))
def test_spblock_rank_two_form_matches_the_dense_completion(k, monkeypatch):
    monkeypatch.setattr(G, "DENSE_SHARE", LIVE_ONLY)
    rng = np.random.default_rng(400 + k)
    nq = k + 1
    states = [
        random_state_dict(k, int(rng.integers(1, min(4, 1 << k) + 1)), rng),  # sparse
        random_state_dict(k, 1 << k, rng),  # dense
    ]
    for _ in range(3):
        # near e^{i alpha}|0..0>, |alpha| down to 1e-9 (a small alpha is the hard case)
        alpha = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, 0)
        v = near_phased_zero(k, 10.0 ** rng.uniform(-9, -2), alpha, rng)
        states.append({int(x): complex(v[x]) for x in np.flatnonzero(v)})
    worst = 0.0
    for v in states:
        qubits = tuple(int(q) for q in rng.permutation(nq)[:k])
        for inverted in (False, True):
            g = G.SPBlock.from_dict(qubits, v, inverted)
            oracle = _embedded_completion(g, nq)
            batch = rng.normal(size=(1 << nq, 3)) + 1j * rng.normal(size=(1 << nq, 3))
            worst = max(worst, np.max(np.abs(G.apply_gate(batch, g, nq) - oracle @ batch)))
            c = G.StructuredCircuit(nq, (), [g])
            for x in (_sparse_input(nq, 1, rng), _sparse_input(nq, 3, rng)):
                worst = max(worst, np.max(np.abs(G.apply_circuit(x, c) - oracle @ x)))
    assert worst <= 1e-13


@pytest.mark.parametrize("k", range(1, 9))
def test_spblock_of_the_zero_state_leaves_every_input_unchanged(k, monkeypatch):
    monkeypatch.setattr(G, "DENSE_SHARE", LIVE_ONLY)
    rng = np.random.default_rng(420 + k)
    nq = k + 1
    batch = rng.normal(size=(1 << nq, 3)) + 1j * rng.normal(size=(1 << nq, 3))
    for inverted in (False, True):
        qubits = tuple(int(q) for q in rng.permutation(nq)[:k])
        g = G.SPBlock(qubits, ((0, 1.0 + 0j),), inverted)
        np.testing.assert_array_equal(G.apply_gate(batch, g, nq), batch)
        c = G.StructuredCircuit(nq, (), [g])
        for x in (_sparse_input(nq, 1, rng), _sparse_input(nq, 3, rng), batch):
            np.testing.assert_array_equal(G.apply_circuit(x, c), x)


def _sorted_by_row(rows, amps):
    order = np.argsort(rows)
    return rows[order], amps[order]


def _labelled_gates(rng, nq, kind):
    """Random gates of ``kind``, plus, for the mixing kinds, a controlled
    mix (an MCU with controls, so that ``hit`` is set) and a block on
    scattered qubits in descending order."""
    gates = [random_gate(rng, nq, kind) for _ in range(8)]
    if kind == "mcu":
        gates.append(G.MCU(((1, 0), (nq - 1, 1)), 2, random_u2(rng)))
    if kind == "spblock":
        gates.append(G.SPBlock.from_dict((nq - 1, 2, 0), random_state_dict(3, 5, rng)))
    return gates


@pytest.mark.parametrize("kind", KINDS)
def test_full_basis_rows_are_labels_in_any_order(kind):
    rng = np.random.default_rng(KINDS.index(kind) + 900)
    nq = 5
    rows = np.arange(1 << nq)
    for g in _labelled_gates(rng, nq, kind):
        amps = rng.normal(size=(1 << nq, 3)) + 1j * rng.normal(size=(1 << nq, 3))
        want_rows, want = _sorted_by_row(*G._live_gate(g, rows, amps, nq))
        shuffle = rng.permutation(1 << nq)
        got_rows, got = _sorted_by_row(*G._live_gate(g, rows[shuffle], amps[shuffle], nq))
        np.testing.assert_array_equal(want_rows, rows)  # the full basis keeps every row
        np.testing.assert_array_equal(got_rows, rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("share", [LIVE_ONLY, G.DENSE_SHARE])
def test_simulate_returns_sorted_rows(share, monkeypatch):
    monkeypatch.setattr(G, "DENSE_SHARE", share)
    rng = np.random.default_rng(910 + share)
    nq = 5
    for trial in range(6):
        c = G.StructuredCircuit(nq, (), hadamard_spread(rng, nq, random_gates(rng, nq, 20)))
        for count in (1, 3, 1 << nq):
            rows = np.sort(rng.choice(1 << nq, size=count, replace=False))
            amps = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
            out_rows, _ = G._simulate(c, rows, amps)
            assert (out_rows[1:] > out_rows[:-1]).all()


def test_real_spblock_input_gives_the_complex_result():
    g = G.SPBlock.from_dict((0, 2), {0: 0.6, 3: 0.8j})
    got = G.apply_gate(np.arange(8.0), g, 3)
    assert got.dtype == complex
    np.testing.assert_array_equal(got, G.apply_gate(np.arange(8.0).astype(complex), g, 3))


@pytest.mark.parametrize("kind", KINDS)
def test_real_inputs_equal_their_complex_casts(kind, monkeypatch):
    rng = np.random.default_rng(KINDS.index(kind) + 920)
    nq = 4
    default_share = G.DENSE_SHARE
    for g in _labelled_gates(rng, nq, kind):
        c = G.StructuredCircuit(nq, (), [g])
        batch = rng.normal(size=(1 << nq, 3))
        sparse = np.zeros(1 << nq)
        sparse[rng.choice(1 << nq, size=2, replace=False)] = rng.normal(size=2)
        for x in (batch, batch[:, 0], sparse):
            np.testing.assert_array_equal(G.apply_gate(x, g, nq), G.apply_gate(x.astype(complex), g, nq))
            for share in (LIVE_ONLY, default_share):
                monkeypatch.setattr(G, "DENSE_SHARE", share)
                np.testing.assert_array_equal(G.apply_circuit(x, c), G.apply_circuit(x.astype(complex), c))


@pytest.mark.parametrize("kind", KINDS)
def test_callers_arrays_are_never_written(kind, monkeypatch):
    rng = np.random.default_rng(KINDS.index(kind) + 930)
    nq = 4
    for share in (LIVE_ONLY, G.DENSE_SHARE):
        monkeypatch.setattr(G, "DENSE_SHARE", share)
        for g in _labelled_gates(rng, nq, kind):
            c = G.StructuredCircuit(nq, (), [g])
            batch = rng.normal(size=(1 << nq, 3)) + 1j * rng.normal(size=(1 << nq, 3))
            sparse = np.zeros(1 << nq, dtype=complex)
            sparse[rng.choice(1 << nq, size=2, replace=False)] = 1.0
            for x in (batch, batch[:, 0].copy(), batch.real.copy(), sparse):
                kept = x.copy()
                x.flags.writeable = False  # a write into x raises
                outs = [G.apply_gate(x, g, nq), G.apply_circuit(x, c)]
                if x.ndim == 1:
                    outs.append(G.simulate_on_state(c, x))
                for out in outs:
                    assert not np.shares_memory(out, x)
                np.testing.assert_array_equal(x, kept)
            state = {3: 0.6, 9: 0.8j}
            G.simulate_on_state(c, state)
            assert state == {3: 0.6, 9: 0.8j}
