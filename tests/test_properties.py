"""Generated-input properties of sparse state preparation, the three sparse
isometry methods, matrix files with a duplicate entry and gate inversion,
plus seeded numpy sweeps of states next to e^{i alpha}|0..0> through the
dense and ssp paths.

Every isometry shape n = 1..5, m = 0..n is run (m = n and n = 1 included),
and every state shape n = 1..7, s = 0..n (s = n included) with three kinds
of amplitudes; for each one, a few cases draw the entries and the compile
seed.  Each compile is audited against its dirty-ancilla bound and its
clean-ancilla bound, the latter where its closed form is valid.

Every draw comes from a numpy generator seeded by the shape and the case
number (:func:`_draws`), and case 0 takes the smallest value of every
range.  The inputs therefore depend on nothing but this file, so a failure
replays anywhere, and two versions of the library see the same inputs.
"""

import json
import math

import numpy as np
import pytest

from hhsynth import cli
from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import methods as M
from hhsynth import ordering as O
from hhsynth import pivoting as P
from hhsynth.numerics import SparseIsometry, matrix_to_dict, prune_state, state_to_vector

from helpers import random_sparse_isometry, random_u2

NONE = C.AncillaRegime.none()
D1 = C.AncillaRegime.with_dirty(1)
CLEAN1_DIRTY1 = C.AncillaRegime(clean=1, dirty=1)

SHAPES = pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in range(n + 1)])
ISOMETRY_CASES = 4
# rotations, data seed, compile seed
ISOMETRY_DRAWS = ((0, 10), (0, 2**32 - 1), (0, 1000))


def _draws(key, cases, *ranges):
    """``cases`` tuples of ints, one from each inclusive ``(lo, hi)`` range,
    drawn from ``np.random.default_rng([*key, case])``; case 0 takes every
    range's minimum."""
    for case in range(cases):
        rng = np.random.default_rng([*key, case])
        yield tuple(
            lo if case == 0 else int(rng.integers(lo, hi, endpoint=True)) for lo, hi in ranges
        )


def _check_common(compile_, w, regime):
    """Exact, deterministic and JSON round-trip safe; returns the result."""
    res = compile_()
    assert G.equivalent(res.circuit, w, "exact", 1e-9).residual <= 1e-9
    text = json.dumps(G.circuit_to_dict(res.circuit), sort_keys=True)
    assert json.dumps(G.circuit_to_dict(compile_().circuit), sort_keys=True) == text
    back = G.circuit_from_dict(json.loads(text))
    assert json.dumps(G.circuit_to_dict(back), sort_keys=True) == text
    assert C.audit_circuit(back, regime).total == res.audit.total
    return res


@SHAPES
def test_sparse_householder_properties(n, m):
    for rotations, data_seed, seed in _draws((n, m), ISOMETRY_CASES, *ISOMETRY_DRAWS):
        w = random_sparse_isometry(n, m, rotations, np.random.default_rng(data_seed))
        strategy = O.greedy_order(w)
        elim = O.elim_count(w, strategy)
        res = _check_common(lambda: M.sparse_householder_iso(w, strategy, D1, seed=seed), w, D1)
        assert res.audit.total <= C.bound_sparse_basic_dirty(n, m, elim)
        if n >= 2:
            clean = C.AncillaRegime.with_clean(math.ceil((n - 3) / 2))
            total = C.audit_circuit(res.circuit, clean).total
            assert total <= C.bound_sparse_basic_clean(n, m, elim)


@SHAPES
def test_fixed_envelope_properties(n, m):
    for rotations, data_seed, seed in _draws((n, m), ISOMETRY_CASES, *ISOMETRY_DRAWS):
        w = random_sparse_isometry(n, m, rotations, np.random.default_rng(data_seed))
        _check_common(lambda: M.fixed_envelope_iso(w, None, D1, seed=seed), w, D1)


@SHAPES
def test_no_fill_in_properties(n, m):
    for rotations, data_seed, seed in _draws((n, m), ISOMETRY_CASES, *ISOMETRY_DRAWS):
        w = random_sparse_isometry(n, m, rotations, np.random.default_rng(data_seed))
        res = _check_common(
            lambda: M.no_fill_in_iso(w, CLEAN1_DIRTY1, seed=seed, trace_entries=True),
            w,
            CLEAN1_DIRTY1,
        )
        assert res.audit.total <= C.bound_no_fill_in_dirty(n, m, w.nnz)
        clean = C.AncillaRegime.with_clean(math.ceil(n / 2))
        assert C.audit_circuit(res.circuit, clean).total <= C.bound_no_fill_in_clean(n, m, w.nnz)
        assert not any(t.fill_in for t in res.trace)


@SHAPES
def test_duplicate_entry_exits_2_for_every_method(n, m, tmp_path):
    # rotations, data seed, duplicated value (same, zero, other), position
    draws = _draws((n, m), ISOMETRY_CASES, (0, 10), (0, 2**32 - 1), (0, 2), (0, 2**16))
    for rotations, data_seed, value, where in draws:
        rng = np.random.default_rng(data_seed)
        d = matrix_to_dict(random_sparse_isometry(n, m, rotations, rng))
        entries = d["entries"]
        i, j, re, im = entries[where % len(entries)]
        if value == 1:
            re, im = 0.0, 0.0
        elif value == 2:
            re, im = float(rng.normal()), float(rng.normal())
        entries.insert(where % (len(entries) + 1), [i, j, re, im])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(d))
        for method in ("ssp", "dense", "sparse", "fixed-env", "no-fill-in"):
            assert cli.main(["compile", str(path), "--method", method]) == cli.EXIT_PARSE, method


def _state(n, s, kind, rng):
    """A unit state on n qubits with nnz nonzeros, 2^(s-1) < nnz <= 2^s.

    ``generic``: random complex amplitudes; ``near_basis``: one amplitude
    near 1, the rest 1e-7; ``eps0``: every other amplitude of modulus
    3e-12, just above the pruning threshold EPS0.
    """
    nnz = 1 if s == 0 else int(rng.integers((1 << (s - 1)) + 1, (1 << s) + 1))
    pos = rng.choice(1 << n, size=nnz, replace=False)
    phases = np.exp(2j * np.pi * rng.uniform(size=nnz))
    small = np.arange(nnz) % 2 == 1
    if kind == "generic":
        amps = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    elif kind == "near_basis":
        amps = np.where(np.arange(nnz) == 0, 1.0, 1e-7) * phases
    else:
        amps = np.where(small, 0.0, rng.uniform(0.5, 1.0, size=nnz)) * phases
    amps /= np.linalg.norm(amps)
    if kind == "eps0":
        amps[small] = 3e-12 * phases[small]  # moves the norm by < 1e-20
    return {int(p): complex(a) for p, a in zip(pos, amps)}


STATE_KINDS = ["generic", "near_basis", "eps0"]


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 8) for s in range(n + 1)])
@pytest.mark.parametrize("kind", STATE_KINDS)
def test_sparse_state_prep_properties(n, s, kind):
    key = (n, s, STATE_KINDS.index(kind))
    for data_seed, seed in _draws(key, 3, (0, 2**32 - 1), (0, 1000)):
        v = _state(n, s, kind, np.random.default_rng(data_seed))
        circuit = P.sparse_state_prep_on(v, n, seed=seed)
        zero = np.zeros(1 << n, dtype=complex)
        zero[0] = 1.0
        out = G.simulate_on_state(circuit, zero)
        assert np.max(np.abs(out - state_to_vector(v, n))) <= 1e-9
        text = json.dumps(G.circuit_to_dict(circuit), sort_keys=True)
        again = P.sparse_state_prep_on(v, n, seed=seed)
        assert json.dumps(G.circuit_to_dict(again), sort_keys=True) == text
        nnz = len(prune_state(v))
        assert nnz == len(v) and (nnz - 1).bit_length() == s
        if s == 0:
            assert C.audit_circuit(circuit, NONE).total <= (n - 1) * nnz
        else:
            # the bound's dirty helper qubit is found in the register for s <= n - 2
            regime = NONE if s <= n - 2 else D1
            assert C.audit_circuit(circuit, regime).total <= C.bound_ssp(n, s, nnz)
            clean = C.AncillaRegime.with_clean(math.ceil(s / 2 - 1))
            assert C.audit_circuit(circuit, clean).total <= C.bound_ssp_clean(n, s, nnz)


def _near_zero_states(count, alphas, epsilons, rng):
    """``count`` unit states (e^{i alpha}, eps * noise) on n = 1..4 qubits,
    normalized: alpha and eps log-uniform in the given ranges (alpha = 0
    when its range is None), the noise a unit complex Gaussian vector on
    the basis states other than |0..0>."""
    for _ in range(count):
        n = int(rng.integers(1, 5))
        alpha = 0.0 if alphas is None else 10.0 ** rng.uniform(*np.log10(alphas))
        eps = 10.0 ** rng.uniform(*np.log10(epsilons))
        noise = rng.normal(size=(1 << n) - 1) + 1j * rng.normal(size=(1 << n) - 1)
        v = np.concatenate([[np.exp(1j * alpha)], eps * noise / np.linalg.norm(noise)])
        yield n, SparseIsometry.from_dense((v / np.linalg.norm(v))[:, None])


@pytest.mark.parametrize(
    "count,alphas,epsilons",
    [(300, (3e-8, 3e-6), (3e-8, 1e-6)), (400, None, (1e-8, 1e-6))],
    ids=["phased", "unphased"],
)
def test_near_zero_states_verify_with_dense_and_ssp(count, alphas, epsilons):
    # near e^{i alpha}|0..0> the simulated state-preparation blocks must
    # stay exact, and the dense path must reduce every column whose
    # off-diagonal norm is above 1e-12
    rng = np.random.default_rng(95)
    for n, w in _near_zero_states(count, alphas, epsilons, rng):
        for circuit in (
            M.dense_householder_iso(w.to_dense()).circuit,
            P.sparse_state_prep_on(w.col(0), n),
        ):
            assert G.equivalent(circuit, w, "exact", 1e-9).ok, matrix_to_dict(w)


def _random_gate(nq, rng):
    qs = [int(q) for q in rng.permutation(nq)]
    kind = int(rng.integers(9))
    if kind == 0:
        return G.CNOT(qs[0], qs[1])
    if kind == 1:
        return G.SingleQubit(qs[0], random_u2(rng))
    controls = tuple((q, int(rng.integers(2))) for q in qs[2:])
    if kind == 2:
        return G.MCX(controls, qs[0])
    if kind == 3:
        return G.MCU(controls, qs[0], random_u2(rng))
    sub = tuple(qs[: int(rng.integers(1, nq + 1))])
    if kind == 4:
        return G.Diagonal(sub, tuple(np.exp(2j * np.pi * rng.uniform(size=1 << len(sub)))))
    if kind == 5:
        return G.PermutationGate(sub, tuple(int(x) for x in rng.permutation(1 << len(sub))))
    if kind == 6:
        return G.Decrement(sub)
    if kind == 7:
        amps = rng.normal(size=1 << len(sub)) + 1j * rng.normal(size=1 << len(sub))
        state = dict(enumerate(amps / np.linalg.norm(amps)))
        return G.SPBlock.from_dict(sub, state, inverted=bool(rng.integers(2)))
    return G.H0Phase(sub, float(rng.uniform(-np.pi, np.pi)))


def test_double_dagger_acts_as_the_sequence():
    for nq, length, data_seed in _draws((), 30, (2, 4), (0, 12), (0, 2**32 - 1)):
        rng = np.random.default_rng(data_seed)
        gs = [_random_gate(nq, rng) for _ in range(length)]
        twice = G.dagger_sequence(G.dagger_sequence(gs))
        np.testing.assert_allclose(
            G.circuit_unitary(G.StructuredCircuit(nq, (), twice)),
            G.circuit_unitary(G.StructuredCircuit(nq, (), gs)),
            rtol=0, atol=1e-12,
        )
