import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hhsynth
from hhsynth import cli
from hhsynth import gates as G
from hhsynth.numerics import matrix_to_dict

from helpers import random_sparse_isometry


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_compile_identity_isometry(tmp_path, capsys):
    mat = write_json(tmp_path / "m.json", {"n": 2, "m": 1, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    out = tmp_path / "c.json"
    assert run(["compile", mat, "--method", "sparse", "-o", str(out), "--verify"]) == 0
    audit = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert audit["total"] == 0
    circuit = G.circuit_from_dict(json.loads(out.read_text()))
    assert circuit.gates == []


def test_compile_all_methods_verify(tmp_path):
    rng = np.random.default_rng(60)
    w = random_sparse_isometry(4, 2, 4, rng)
    mat = write_json(tmp_path / "w.json", matrix_to_dict(w))
    for method in ("dense", "sparse", "fixed-env", "no-fill-in"):
        out = tmp_path / f"{method}.json"
        rc = run(
            ["compile", mat, "--method", method, "-o", str(out), "--verify",
             "--trace", str(tmp_path / "t.json"), "--regime", "dirty:1"]
        )
        assert rc == 0, method
        trace = json.loads((tmp_path / "t.json").read_text())
        assert isinstance(trace, list)


def test_compile_trace_reports_fill_in(tmp_path):
    rng = np.random.default_rng(61)
    # stir until some step shows fill-in
    for attempt in range(50):
        w = random_sparse_isometry(4, 2, 5, rng)
        mat = write_json(tmp_path / "w.json", matrix_to_dict(w))
        rc = run(["compile", mat, "--method", "sparse", "-o", str(tmp_path / "c.json"),
                  "--trace", str(tmp_path / "t.json")])
        assert rc == 0
        trace = json.loads((tmp_path / "t.json").read_text())
        if any(step["fill_in"] for step in trace):
            return
    pytest.fail("no fill-in ever observed")


def test_compile_ssp_state(tmp_path):
    state = {"n": 3, "m": 0, "entries": [[0, 0, 2 ** -0.5, 0], [5, 0, 2 ** -0.5, 0]]}
    mat = write_json(tmp_path / "v.json", state)
    rc = run(["compile", mat, "--method", "ssp", "-o", str(tmp_path / "c.json"), "--verify"])
    assert rc == 0


def test_compile_perm(tmp_path):
    perm = write_json(tmp_path / "p.json", {"perm": [2, 0, 3, 1]})
    rc = run(["compile", perm, "--method", "perm", "-o", str(tmp_path / "c.json"), "--verify"])
    assert rc == 0


def test_compile_non_isometry_exit_3(tmp_path):
    mat = write_json(tmp_path / "bad.json", {"n": 1, "m": 1, "entries": [[0, 0, 1, 0], [1, 0, 1, 0]]})
    assert run(["compile", mat]) == cli.EXIT_VALIDATE


def test_compile_parse_error_exit_2(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{nope")
    assert run(["compile", str(bad)]) == cli.EXIT_PARSE


def test_verify_subcommand(tmp_path):
    mat = write_json(tmp_path / "m.json", {"n": 1, "m": 1, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    good = write_json(tmp_path / "c.json", {"n": 1, "ancillas": [], "gates": []})
    assert run(["verify", good, mat]) == 0
    flip = write_json(
        tmp_path / "cx.json",
        {"n": 1, "ancillas": [], "gates": [{"kind": "mcx", "controls": [], "target": 0}]},
    )
    assert run(["verify", flip, mat]) == cli.EXIT_VERIFY


def test_audit_subcommand(tmp_path, capsys):
    circ = write_json(
        tmp_path / "c.json",
        {"n": 2, "ancillas": [], "gates": [{"kind": "cnot", "control": 0, "target": 1}]},
    )
    assert run(["audit", circ, "--regime", "dirty:1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 1


def test_order_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(62)
    w = random_sparse_isometry(3, 2, 4, rng)
    mat = write_json(tmp_path / "m.json", matrix_to_dict(w))
    assert run(["order", mat]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"rho", "sigma", "ed_before", "ed_after", "elim"}
    assert sorted(out["rho"]) == list(range(8))


def test_bench_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "ssp", "--n", "6,8", "--s", "1,2", "--trials", "4", "--seed", "3"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "n,s,trial,nnz,cnots,bound"


def test_compile_deterministic(tmp_path):
    rng = np.random.default_rng(63)
    w = random_sparse_isometry(4, 2, 5, rng)
    mat = write_json(tmp_path / "w.json", matrix_to_dict(w))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["compile", mat, "--method", "sparse", "--seed", "9", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_basis_state_needs_no_cnots(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["bench", "ssp", "--n", "10", "--s", "0", "--trials", "5", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(int(r.split(",")[4]) == 0 for r in rows)


def test_bench_wide_registers_deterministic(capsys):
    args = ["bench", "ssp", "--n", "40", "--s", "3", "--trials", "2"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "n,s,trial,nnz,cnots,bound"
    assert len(first.splitlines()) == 3


def test_bench_rejects_more_than_62_qubits():
    assert run(["bench", "ssp", "--n", "63", "--s", "1", "--trials", "1"]) == cli.EXIT_PARSE


def test_compile_nan_amplitude_exit_3(tmp_path):
    mat = tmp_path / "nan.json"
    mat.write_text('{"n": 2, "m": 0, "entries": [[0, 0, NaN, 0], [1, 0, 0.5, 0]]}')
    assert run(["compile", str(mat), "--method", "ssp"]) == cli.EXIT_VALIDATE


def test_compile_out_of_range_row_exit_2(tmp_path):
    mat = write_json(tmp_path / "oor.json", {"n": 2, "m": 0, "entries": [[9, 0, 1.0, 0]]})
    assert run(["compile", mat, "--method", "ssp"]) == cli.EXIT_PARSE


def test_compile_duplicate_entry_exit_2(tmp_path):
    mat = write_json(
        tmp_path / "dup.json", {"n": 2, "m": 0, "entries": [[1, 0, 0.6, 0], [1, 0, 1.0, 0]]}
    )
    assert run(["compile", mat, "--method", "ssp"]) == cli.EXIT_PARSE


def _run_capped(argv, cap_bytes=1 << 30):
    """Run the CLI in a subprocess limited to ``cap_bytes`` of address
    space, so a build that allocates per basis state fails fast instead of
    exhausting the machine's memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(hhsynth.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "hhsynth.cli", *argv],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
    )


def test_compile_wide_state_costs_no_2n_memory(tmp_path):
    mat = write_json(tmp_path / "v.json", {"n": 40, "m": 0, "entries": [[5, 0, 1.0, 0]]})
    out = tmp_path / "c.json"
    proc = _run_capped(["compile", mat, "--method", "ssp", "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert G.circuit_from_dict(json.loads(out.read_text())).n == 40


def test_compile_rejects_more_than_62_qubits(tmp_path):
    mat = write_json(tmp_path / "v.json", {"n": 63, "m": 0, "entries": [[5, 0, 1.0, 0]]})
    proc = _run_capped(["compile", mat, "--method", "ssp"])
    assert proc.returncode == cli.EXIT_PARSE, proc.stderr


NAN = float("nan")

MALFORMED_CIRCUITS = {
    "gate_missing_fields": {"n": 1, "gates": [{"kind": "cnot"}]},
    "matrix_of_reals": {
        "n": 1,
        "gates": [{"kind": "single", "target": 0, "matrix": [[1, 0], [0, 1]]}],
    },
    "not_an_object": [1, 2],
    "float_qubit": {"n": 2, "gates": [{"kind": "cnot", "control": 0.5, "target": 1}]},
    "polarity_2": {"n": 2, "gates": [{"kind": "mcx", "controls": [[0, 2]], "target": 1}]},
    "non_unitary_matrix": {
        "n": 1,
        "gates": [{"kind": "single", "target": 0, "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}],
    },
    # json writes and reads NaN; no comparison with a tolerance may let it through
    "nan_matrix": {
        "n": 2,
        "gates": [
            {
                "kind": "mcu",
                "controls": [[0, 1]],
                "target": 1,
                "matrix": [[[NAN, 0], [0, 0]], [[0, 0], [1, 0]]],
            }
        ],
    },
    "nan_diagonal_phase": {
        "n": 1,
        "gates": [{"kind": "diagonal", "qubits": [0], "phases": [[1, 0], [NAN, 0]]}],
    },
    "nan_spblock_amplitude": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[0, 1, 0], [1, NAN, 0]]}],
    },
    "nan_h0phase_phi": {"n": 1, "gates": [{"kind": "h0phase", "qubits": [0], "phi": NAN}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CIRCUITS))
def test_malformed_circuit_file_exit_2(tmp_path, name):
    circ = write_json(tmp_path / "c.json", MALFORMED_CIRCUITS[name])
    mat = write_json(tmp_path / "m.json", {"n": 1, "m": 1, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    assert run(["verify", circ, mat]) == cli.EXIT_PARSE
    assert run(["audit", circ]) == cli.EXIT_PARSE


def test_near_unit_phase_gate_round_trips(tmp_path):
    # the norm is off by 9e-9, inside the state-preparation norm check (1e-8)
    # and, with --tol 1e-7, the input check; the compiled s = 0 phase gate
    # holds that amplitude, so |U^dagger U - I| is 1.8e-8 and the unitarity
    # check on loading must let it through
    state = write_json(tmp_path / "v.json", {"n": 3, "m": 0, "entries": [[5, 0, 0, 1.000000009]]})
    circ = tmp_path / "c.json"
    assert run(["compile", state, "--method", "ssp", "--tol", "1e-7", "-o", str(circ)]) == 0
    (g,) = [g for g in json.loads(circ.read_text())["gates"] if g.get("label") == "phase"]
    m = np.array([[complex(*e) for e in row] for row in g["matrix"]])
    assert 1e-8 < np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-7
    assert run(["verify", str(circ), state]) == 0
    assert run(["audit", str(circ)]) == 0


def test_verify_ancilla_violation_exit_4(tmp_path):
    # the CNOT leaves the clean ancilla at |1> whenever the data qubit is |1>
    circ = write_json(
        tmp_path / "c.json",
        {"n": 1, "ancillas": ["clean"], "gates": [{"kind": "cnot", "control": 0, "target": 1}]},
    )
    mat = write_json(tmp_path / "m.json", {"n": 1, "m": 1, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    assert run(["verify", circ, mat]) == cli.EXIT_VERIFY


@pytest.mark.parametrize("data", [[1, 2], {"perm": 5}], ids=["list", "perm_not_a_list"])
def test_compile_malformed_permutation_exit_2(tmp_path, data):
    perm = write_json(tmp_path / "p.json", data)
    assert run(["compile", perm, "--method", "perm"]) == cli.EXIT_PARSE
