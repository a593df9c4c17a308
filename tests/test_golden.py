"""Committed differential corpus: every method on seeded inputs against
``tests/golden.json``.

For each compile the corpus records exactly the gate kinds, qubits,
labels, block supports and other integer fields, the audit lines under
``none`` and ``dirty:1`` and, for the methods that trace, the trace
JSON; the floats (matrices, phases, block amplitudes) are compared to
``FLOAT_TOL``.  A change that moves circuits on purpose regenerates the
file with ``PYTHONPATH=src python tests/test_golden.py`` and lists the
changed entries.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hhsynth import cli
from hhsynth import costs as C
from hhsynth import gates as G
from hhsynth import methods as M
from hhsynth import pivoting as P

from helpers import (
    random_isometry,
    random_sparse_isometry,
    random_state_dict,
    random_u2,
    random_unitary,
)

GOLDEN = Path(__file__).with_name("golden.json")
FLOAT_TOL = 1e-12
FLOAT_UNIT = 1e-12
REGIMES = ("none", "dirty:1")
FLOAT_FIELDS = ("matrix", "phases", "phi")


def _ssp_state(n, rng):
    """A seeded unit state on ``n`` qubits with up to 4 entries."""
    nnz = min(1 << n, 1 + n % 4)
    if n <= 20:
        return random_state_dict(n, nnz, rng)
    rows = sorted({int(r) for r in rng.integers(0, 1 << n, size=nnz)})
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    amps /= np.linalg.norm(amps)
    return {r: complex(a) for r, a in zip(rows, amps)}


def cases():
    """``(key, compile)`` pairs; ``compile(regime)`` returns the circuit,
    its audit under the regime and its trace (None for untraced methods)."""
    out = []
    for n in range(1, 41):
        v = _ssp_state(n, np.random.default_rng([1, n]))
        out.append((f"ssp n={n}", lambda r, v=v, n=n: _untraced(P.sparse_state_prep_on(v, n), r)))
    sparse = {
        "sparse": M.sparse_householder_iso,
        "fixed-env": M.fixed_envelope_iso,
        "no-fill-in": M.no_fill_in_iso,
    }
    for n in range(1, 7):
        for m in range(n + 1):
            w = random_sparse_isometry(n, m, 1, np.random.default_rng([2, n, m]))
            for name, f in sparse.items():
                traced = lambda r, w=w, f=f: _traced(f(w, regime=r, trace_entries=True))
                out.append((f"{name} n={n} m={m}", traced))
    for n in range(1, 5):
        for m in range(n + 1):
            v = random_isometry(n, m, np.random.default_rng([3, n, m]))
            out.append((f"dense n={n} m={m}", lambda r, v=v: _traced(M.dense_householder_iso(v, r))))
        u = random_unitary(1 << n, np.random.default_rng([4, n]))
        out.append((f"dense-unitary n={n}", lambda r, u=u: _traced(M.dense_householder_unitary(u, r))))
        perm = np.random.default_rng([5, n]).permutation(1 << n)
        out.append((f"perm n={n}", lambda r, p=perm: _untraced(M.perm_via_householder(p), r)))
    for k in range(1, 4):
        u = random_u2(np.random.default_rng([6, k]))
        out.append((f"controlled-u k={k}", lambda r, k=k, u=u: _controlled(k, u, r)))
    return out


def _untraced(circuit, regime):
    return circuit, C.audit_circuit(circuit, regime), None


def _traced(result):
    # each step as the list of its ``--trace`` JSON values, in key order
    trace = [list(step.values()) for step in cli._trace_dict(result.trace)]
    return result.circuit, result.audit, trace


def _controlled(k, u, regime):
    circuit, residual = M.controlled_u_via_householder(k, u)
    diagonal = G.Diagonal(tuple(range(k + 1)), tuple(residual.tolist()))
    return _untraced(G.StructuredCircuit(k + 1, (), circuit.gates + (diagonal,)), regime)


def split_circuit(d):
    """A circuit JSON without its floats, each gate as the list of its
    values (its kind first, which fixes the keys), and the distinct float
    groups: a gate that holds floats ends with the number of its group."""
    groups: dict[tuple, int] = {}
    gates = []
    for gate in d["gates"]:
        floats = []
        for key in FLOAT_FIELDS:
            if key in gate:
                floats.extend(np.ravel(gate.pop(key)).tolist())
        if "state" in gate:
            state = gate.pop("state")
            gate["state"] = [k for k, _, _ in state]
            floats.extend(x for _, re, im in state for x in (re, im))
        values = list(gate.values())
        if floats:
            values.append(groups.setdefault(tuple(floats), len(groups)))
        gates.append(values)
    return dict(d, gates=gates), [list(f) for f in groups]


def record(compile_):
    """One corpus entry: the structure, floats, audits and trace.  Audit
    lines repeat (one per gate), so each distinct line is listed once in
    ``audit_lines``; the first regime's audit lists each gate's line
    number, the others only the ``[gate, line number]`` pairs where they
    differ from it, and each ends with its total."""
    entry = {"audit_lines": [], "audit": {}}
    number: dict[tuple, int] = {}
    for regime in REGIMES:
        circuit, audit, trace = compile_(C.parse_regime(regime))
        structure, floats = split_circuit(G.circuit_to_dict(circuit))
        if "circuit" in entry and (structure, floats) != (entry["circuit"], entry["floats"]):
            raise AssertionError(f"the circuit depends on the regime {regime}")
        entry.update(circuit=structure, floats=floats, trace=trace)
        for line in audit.breakdown:
            if line not in number:
                number[line] = len(number)
                entry["audit_lines"].append(list(line))
        lines = [number[line] for line in audit.breakdown]
        if regime == REGIMES[0]:
            first = lines
        else:
            lines = [[i, x] for i, (a, x) in enumerate(zip(first, lines)) if a != x]
        entry["audit"][regime] = [lines, audit.total]
    return entry


def mismatches(want, got):
    """Why ``got`` differs from the corpus entry ``want``: empty if every
    structural field is equal and every float is within ``FLOAT_TOL``."""
    out = [f for f in ("circuit", "audit_lines", "audit", "trace") if want[f] != got[f]]
    if list(map(len, want["floats"])) != list(map(len, got["floats"])):
        out.append("float groups differ in length")
    elif want["floats"]:
        a, b = np.concatenate(want["floats"]) * FLOAT_UNIT, np.concatenate(got["floats"])
        if np.max(np.abs(a - b)) > FLOAT_TOL:
            out.append(f"floats off by {np.max(np.abs(a - b)):.3g}")
    return out


def _stored(entry):
    """The entry as the corpus stores it: each float as an int count of
    ``FLOAT_UNIT``, within 5e-13 of its value."""
    return dict(entry, floats=[[round(x / FLOAT_UNIT) for x in f] for f in entry["floats"]])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return {key: record(compile_) for key, compile_ in cases()}


def test_corpus_lists_every_case(golden, recorded):
    assert list(golden) == list(recorded)


def test_every_compile_matches_the_corpus(golden, recorded):
    bad = {key: why for key, got in recorded.items() if (why := mismatches(golden[key], got))}
    assert not bad


def _nudge(gate) -> bool:
    """Move one float of a gate JSON by 1e-9; False if it holds none."""
    if "phi" in gate:
        gate["phi"] += 1e-9
    elif "state" in gate:
        gate["state"][0][1] += 1e-9
    elif "matrix" in gate:
        gate["matrix"][0][0][0] += 1e-9
    elif "phases" in gate:
        gate["phases"][0][0] += 1e-9
    else:
        return False
    return True


def test_changing_one_gate_fails(golden):
    # a seeded mutation check: one compile's circuit with one gate dropped,
    # moved to another qubit or with one float moved is reported
    rng = np.random.default_rng(25)
    compiles = cases()
    trials = 0
    while trials < 30:
        key, compile_ = compiles[rng.integers(len(compiles))]
        d = G.circuit_to_dict(compile_(C.AncillaRegime.none())[0])
        if not d["gates"]:
            continue
        gate = d["gates"][rng.integers(len(d["gates"]))]
        change = trials % 3
        if change == 0:
            d["gates"].remove(gate)
        elif change == 1 or not _nudge(gate):
            field = next(f for f in ("target", "control", "qubits", "controls") if f in gate)
            moved = gate[field] + 1 if field in ("target", "control") else gate[field][::-1] + [0]
            gate[field] = moved
        structure, floats = split_circuit(d)
        got = dict(golden[key], circuit=structure, floats=floats)
        assert mismatches(golden[key], got), (key, change)
        trials += 1


if __name__ == "__main__":
    corpus = {key: _stored(record(compile_)) for key, compile_ in cases()}
    lines = (f"{json.dumps(k)}: {json.dumps(e, separators=(',', ':'))}" for k, e in corpus.items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{GOLDEN}: {len(corpus)} compiles, {GOLDEN.stat().st_size} bytes")
