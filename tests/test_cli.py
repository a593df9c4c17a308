import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hhsynth
from hhsynth import cli
from hhsynth import costs as C
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
    assert circuit.gates == ()


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


NEAR_ZERO_STATES = {
    # within 1e-7 of e^{i 1e-7}|0>: the simulated state-preparation blocks
    # must stay exact next to a phased basis state
    "near_phase": {"n": 1, "m": 0, "entries": [
        [0, 0, 0.9999999999999901, 9.999999999999933e-08], [1, 0, 9.99999999999995e-08, 0.0]]},
    # off-diagonal norm 3e-9, above 1e-12: the dense path must reduce it
    "small_off_diagonal": {"n": 1, "m": 0, "entries": [[0, 0, 1.0, 0.0], [1, 0, 3e-09, 0.0]]},
}


@pytest.mark.parametrize("name", sorted(NEAR_ZERO_STATES))
@pytest.mark.parametrize("method", ["dense", "sparse", "fixed-env", "no-fill-in", "ssp"])
def test_compile_near_zero_state_verifies(tmp_path, name, method):
    mat = write_json(tmp_path / "v.json", NEAR_ZERO_STATES[name])
    rc = run(["compile", mat, "--method", method, "-o", str(tmp_path / "c.json"), "--verify"])
    assert rc == 0


def test_compile_perm(tmp_path):
    perm = write_json(tmp_path / "p.json", {"perm": [2, 0, 3, 1]})
    rc = run(["compile", perm, "--method", "perm", "-o", str(tmp_path / "c.json"), "--verify"])
    assert rc == 0


def test_compile_perm_verify_past_the_live_cap_exit_3(tmp_path, capsys):
    # 2^12 columns on 2^12 rows pass the live cap: refused before the
    # 2^12 x 2^12 permutation matrix (256 MiB) is built
    perm = list(range(1 << 12))
    perm[0], perm[-1] = perm[-1], perm[0]
    path = write_json(tmp_path / "p.json", {"perm": perm})
    tracemalloc.start()
    try:
        code = run(["compile", path, "--method", "perm", "--verify", "-o", str(tmp_path / "c.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_VALIDATE and peak < 16 << 20
    assert f"exceed the live cap of {G.LIVE_CAP}" in capsys.readouterr().err


def test_compile_non_isometry_exit_3(tmp_path):
    mat = write_json(tmp_path / "bad.json", {"n": 1, "m": 1, "entries": [[0, 0, 1, 0], [1, 0, 1, 0]]})
    assert run(["compile", mat]) == cli.EXIT_VALIDATE


def test_compile_ssp_of_an_isometry_exit_3(tmp_path, capsys):
    mat = write_json(tmp_path / "w.json", {"n": 1, "m": 1, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    assert run(["compile", mat, "--method", "ssp"]) == cli.EXIT_VALIDATE
    assert "ssp expects a state (m = 0)" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["sparse", "fixed-env"])
def test_compile_identity_strategy_verifies(tmp_path, method):
    w = random_sparse_isometry(3, 2, 3, np.random.default_rng(65))
    mat = write_json(tmp_path / "w.json", matrix_to_dict(w))
    argv = ["compile", mat, "--method", method, "--strategy", "identity", "--verify"]
    assert run(argv + ["-o", str(tmp_path / "c.json")]) == 0


def test_compile_parse_error_exit_2(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{nope")
    assert run(["compile", str(bad)]) == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [["compile", "m.json", "--method", "qr"], ["bench", "dense", "--n", "3", "--s", "1"]],
    ids=["method", "bench_target"],
)
def test_unknown_choice_exit_2(argv, capsys):
    # argparse's choices are the only check: cmd_compile and cmd_bench never see one
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == cli.EXIT_PARSE
    assert "invalid choice" in capsys.readouterr().err


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


def test_audit_prices_an_mcu(tmp_path, capsys):
    # the library emits mcu gates only inside residuals, never in a circuit
    u = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    gate = {"kind": "mcu", "controls": [[0, 1], [1, 0]], "target": 2, "matrix": u}
    circ = write_json(tmp_path / "c.json", {"n": 3, "ancillas": [], "gates": [gate]})
    assert run(["audit", circ]) == 0
    report = json.loads(capsys.readouterr().out)
    cnots, rule = C.cost_mcu_detail(2, C.AncillaRegime.none())
    assert report["breakdown"] == [{"gate": "mcu[k=2]", "formula": rule, "cnots": cnots}]
    assert report["total"] == cnots > 0


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
    assert header == "n,s,trial,nnz,cnots,ref"


def test_bench_names_its_reference_line_ref(capsys):
    # (n + 6s - 7 + 23/24) 2^s is a reference, not a bound: at n = 3, s = 0
    # it is negative while the count is 0
    assert run(["bench", "ssp", "--n", "3", "--s", "0", "--trials", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == ["n,s,trial,nnz,cnots,ref", "3,0,0,1,0,-3.04167", "3,0,1,1,0,-3.04167"]
    assert "ref=-3.04167" in err and "bound" not in err


def test_compile_deterministic(tmp_path):
    rng = np.random.default_rng(63)
    w = random_sparse_isometry(4, 2, 5, rng)
    mat = write_json(tmp_path / "w.json", matrix_to_dict(w))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["compile", mat, "--method", "sparse", "--seed", "9", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_range_syntax(capsys):
    assert run(["bench", "ssp", "--n", "2-3", "--s", "1", "--trials", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [
        ["2", "1", "0"], ["2", "1", "1"], ["3", "1", "0"], ["3", "1", "1"]
    ]


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
    assert first.splitlines()[0] == "n,s,trial,nnz,cnots,ref"
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


README_MATRIX = {"n": 3, "m": 1, "entries": [[0, 0, 1.0, 0.0], [5, 1, 0.0, 1.0]]}


def test_compile_dense_past_the_live_cap_exit_3(tmp_path):
    mat = write_json(tmp_path / "v.json", {"n": 40, "m": 0, "entries": [[5, 0, 1.0, 0]]})
    proc = _run_capped(["compile", mat, "--method", "dense"])
    assert proc.returncode == cli.EXIT_VALIDATE, proc.stderr
    assert "Traceback" not in proc.stderr and f"cap of {G.LIVE_CAP}" in proc.stderr
    assert run(["compile", mat, "--method", "dense"]) == cli.EXIT_VALIDATE  # and in process
    # README's example is far below the cap
    mat = write_json(tmp_path / "readme.json", README_MATRIX)
    assert run(["compile", mat, "--method", "dense", "--verify", "-o", str(tmp_path / "c.json")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--method", "fixed-env", "--strategy", "identity"],
        ["compile", "--method", "fixed-env"],
        ["order"],
    ],
)
def test_a_2n_array_at_n_40_exits_3(tmp_path, argv):
    # these build a 2^n row map; out of memory is one line and exit 3, and
    # the line names the methods that build none
    mat = write_json(tmp_path / "v.json", {"n": 40, "m": 0, "entries": [[5, 0, 1.0, 0]]})
    proc = _run_capped([argv[0], mat, *argv[1:]])
    assert proc.returncode == cli.EXIT_VALIDATE, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert "out of memory" in proc.stderr
    assert "--method ssp, --method sparse and --method no-fill-in" in proc.stderr


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_verify_prints_strict_json(tmp_path, capsys):
    mat = write_json(tmp_path / "readme.json", README_MATRIX)
    circuit = str(tmp_path / "c.json")
    assert run(["compile", mat, "-o", circuit]) == 0
    wrong = dict(README_MATRIX, entries=[[0, 0, 1.0, 0.0], [6, 1, 0.0, 1.0]])
    wrong = write_json(tmp_path / "wrong.json", wrong)
    # json writes and reads NaN: the residual is NaN, written null
    nan = dict(README_MATRIX, entries=[[0, 0, NAN, 0.0], [5, 1, 0.0, 1.0]])
    nan = write_json(tmp_path / "nan.json", nan)
    capsys.readouterr()
    for matrix, code in [(mat, 0), (wrong, cli.EXIT_VERIFY), (nan, cli.EXIT_VERIFY)]:
        assert run(["verify", circuit, matrix]) == code
        out = _strict_json(capsys.readouterr().out)
        assert out["ok"] == (code == 0)
        assert (out["residual"] is None) == (matrix == nan)


def test_verify_on_different_qubit_counts_exit_2(tmp_path, capsys):
    # a 3-qubit circuit against a 2-qubit state is refused before any
    # simulation, with one line naming both sizes
    mat = write_json(tmp_path / "readme.json", README_MATRIX)
    circuit = str(tmp_path / "c.json")
    assert run(["compile", mat, "-o", circuit]) == 0
    state = write_json(tmp_path / "state.json", {"n": 2, "m": 0, "entries": [[0, 0, 1.0, 0.0]]})
    capsys.readouterr()
    assert run(["verify", circuit, state]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the circuit has 3 qubits, the matrix 2\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_tol_must_be_finite_and_not_negative(tmp_path, capsys, command, tol):
    mat = write_json(tmp_path / "readme.json", README_MATRIX)
    circuit = str(tmp_path / "c.json")
    assert run(["compile", mat, "--method", "dense", "-o", circuit]) == 0
    # a different isometry, which only an infinite tolerance would accept
    wrong = dict(README_MATRIX, entries=[[0, 0, 1.0, 0.0], [6, 1, 0.0, 1.0]])
    wrong = write_json(tmp_path / "wrong.json", wrong)
    assert run(["verify", circuit, wrong]) == cli.EXIT_VERIFY
    argv = ["compile", mat, "--verify"] if command == "compile" else ["verify", circuit, wrong]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        run(argv + [f"--tol={tol}"])
    assert exit_.value.code == cli.EXIT_PARSE
    assert "argument --tol" in capsys.readouterr().err


def _wide_state_file(path, n, nnz, seed):
    rng = np.random.default_rng(seed)
    rows = set()
    while len(rows) < nnz:
        rows.add(int(rng.integers(0, 1 << n, dtype=np.int64)))
    amps = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    amps /= np.linalg.norm(amps)
    entries = [[r, 0, a.real, a.imag] for r, a in zip(sorted(rows), amps)]
    return write_json(path, {"n": n, "m": 0, "entries": entries}), entries


def test_compile_and_verify_past_the_dense_cap(tmp_path):
    mat, entries = _wide_state_file(tmp_path / "v.json", 40, 64, seed=77)
    out = tmp_path / "c.json"
    proc = _run_capped(["compile", mat, "--method", "ssp", "--verify", "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert run(["verify", str(out), mat]) == 0
    # the same norm, one amplitude's sign flipped
    entries[17] = entries[17][:2] + [-entries[17][2], -entries[17][3]]
    changed = write_json(tmp_path / "changed.json", {"n": 40, "m": 0, "entries": entries})
    assert run(["verify", str(out), changed]) == cli.EXIT_VERIFY


@pytest.mark.parametrize("nnz", [1, 64])
def test_compile_sparse_at_n_40_verifies_without_a_2n_array(tmp_path, nnz):
    # the default method places the state's rows only: no 2^n row map
    mat, _ = _wide_state_file(tmp_path / "v.json", 40, nnz, seed=7)
    out = tmp_path / "c.json"
    proc = _run_capped(["compile", mat, "--method", "sparse", "--verify", "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert run(["verify", str(out), mat]) == 0


def test_verify_a_wide_spblock_without_its_matrix(tmp_path):
    # n = 40: an X layer, then a 12-qubit block holding a 4096-entry state,
    # whose 2^12 x 2^12 completion would pass the live cap
    n, k, low = 40, 12, 40 - 5 - 12
    rng = np.random.default_rng(79)
    amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    amps /= np.linalg.norm(amps)
    block = G.SPBlock(tuple(range(5, 5 + k)), tuple((x, complex(a)) for x, a in enumerate(amps)))
    circuit = G.StructuredCircuit(n, (), [G.x_gate(0), G.x_gate(n - 1), block])
    out = write_json(tmp_path / "c.json", G.circuit_to_dict(circuit))
    base = (1 << (n - 1)) | 1
    entries = [[base | x << low, 0, a.real, a.imag] for x, a in enumerate(amps)]
    mat = write_json(tmp_path / "v.json", {"n": n, "m": 0, "entries": entries})
    assert run(["verify", out, mat]) == 0
    entries[17] = entries[17][:2] + [-entries[17][2], -entries[17][3]]
    changed = write_json(tmp_path / "changed.json", {"n": n, "m": 0, "entries": entries})
    assert run(["verify", out, changed]) == cli.EXIT_VERIFY


def test_verify_past_the_live_cap_exit_3(tmp_path, capsys):
    # a 30-qubit block on 40 qubits would hold 2^30 amplitudes: refused as
    # invalid input (3), not as a parse failure (2)
    n = 40
    state = {0: 2 ** -0.5 + 0j, (1 << 30) - 1: 2 ** -0.5 + 0j}
    circuit = G.StructuredCircuit(n, (), [G.SPBlock.from_dict(tuple(range(5, 35)), state)])
    out = write_json(tmp_path / "c.json", G.circuit_to_dict(circuit))
    mat = write_json(tmp_path / "v.json", {"n": n, "m": 0, "entries": [[0, 0, 1.0, 0]]})
    capsys.readouterr()
    assert run(["verify", out, mat]) == cli.EXIT_VALIDATE
    assert f"exceed the live cap of {G.LIVE_CAP}" in capsys.readouterr().err


def test_verify_with_dirty_ancillas_in_bounded_memory(tmp_path):
    # 12 data qubits and 2 dirty ones against 2048 columns: one 2048 x 2048
    # batch per ancilla state (64 MiB), not one 8192 x 8192 batch (1 GiB)
    circuit = {"n": 12, "ancillas": ["dirty", "dirty"], "gates": []}
    circuit = write_json(tmp_path / "c.json", circuit)
    entries = [[j, j, 1.0, 0] for j in range(2048)]
    mat = write_json(tmp_path / "w.json", {"n": 12, "m": 11, "entries": entries})
    proc = _run_capped(["verify", circuit, mat], cap_bytes=1_500_000 << 10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ok": True, "residual": 0.0}


def test_too_few_entries_for_an_isometry_exit_2(tmp_path, capsys):
    # one entry cannot fill 2^20 columns: refused before a column index is built
    mat = write_json(tmp_path / "v.json", {"n": 20, "m": 20, "entries": [[0, 0, 1.0, 0]]})
    tracemalloc.start()
    try:
        code = run(["compile", mat, "--method", "ssp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_PARSE and peak < 1 << 20
    assert "1 entries cannot fill the 2^20 columns" in capsys.readouterr().err


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
    "float_n": {"n": 1.5, "gates": []},
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
    # a state index past the block's 2^k rows, or a negative one, which
    # numpy would wrap to the last row
    "spblock_index_past_its_register": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[5, 1, 0]]}],
    },
    "spblock_negative_index": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[-1, 1, 0]]}],
    },
    # a state index is an integer, as a qubit index is: int() would read
    # 1.5 and true as index 1
    "spblock_float_index": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[1.5, 1, 0]]}],
    },
    "spblock_boolean_index": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[True, 1, 0]]}],
    },
    # a field of the wrong JSON type: Python would read true as 1 and any
    # non-empty string as true
    "spblock_inverted_string": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[1, 1, 0]], "inverted": "yes"}],
    },
    "spblock_inverted_number": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[1, 1, 0]], "inverted": 1}],
    },
    "spblock_boolean_amplitude": {
        "n": 1,
        "gates": [{"kind": "spblock", "qubits": [0], "state": [[0, True, 0]]}],
    },
    "single_label_number": {
        "n": 1,
        "gates": [
            {"kind": "single", "target": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "label": 7}
        ],
    },
    "single_boolean_matrix": {
        "n": 1,
        "gates": [
            {"kind": "single", "target": 0, "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}
        ],
    },
    "diagonal_boolean_phase": {
        "n": 1,
        "gates": [{"kind": "diagonal", "qubits": [0], "phases": [[1, 0], [True, 0]]}],
    },
    "diagonal_string_phase": {
        "n": 1,
        "gates": [{"kind": "diagonal", "qubits": [0], "phases": [[1, 0], ["1"]]}],
    },
    "h0phase_boolean_phi": {"n": 1, "gates": [{"kind": "h0phase", "qubits": [0], "phi": True}]},
    # what the circuit itself refuses when it is made
    "cnot_on_one_qubit": {"n": 2, "gates": [{"kind": "cnot", "control": 0, "target": 0}]},
    "qubit_past_the_register": {
        "n": 2,
        "ancillas": ["clean"],
        "gates": [{"kind": "cnot", "control": 0, "target": 3}],
    },
    "negative_qubit": {"n": 2, "gates": [{"kind": "cnot", "control": -1, "target": 1}]},
    "unknown_ancilla_kind": {"n": 1, "ancillas": ["borrowed"], "gates": []},
    "negative_n": {"n": -1, "ancillas": [], "gates": []},
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


@pytest.mark.parametrize(
    "data",
    [[1, 2], {"perm": 5}, {"perm": [1.5, 0.5, 2.9, 3.2]}, {"perm": [True, False]}],
    ids=["list", "perm_not_a_list", "floats", "booleans"],
)
def test_compile_malformed_permutation_exit_2(tmp_path, data):
    perm = write_json(tmp_path / "p.json", data)
    assert run(["compile", perm, "--method", "perm"]) == cli.EXIT_PARSE


ZERO_QUBIT_STATE = {"n": 0, "m": 0, "entries": [[0, 0, 0.0, 1.0]]}


@pytest.mark.parametrize("method", ["dense", "sparse", "fixed-env", "no-fill-in", "ssp"])
def test_compile_zero_qubit_state_verifies(tmp_path, method):
    mat = write_json(tmp_path / "v.json", ZERO_QUBIT_STATE)
    out = tmp_path / "c.json"
    assert run(["compile", mat, "--method", method, "-o", str(out), "--verify"]) == 0
    assert run(["verify", str(out), mat]) == 0


def test_bench_zero_qubits(capsys):
    assert run(["bench", "ssp", "--n", "0", "--s", "0", "--trials", "1"]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.startswith("0,0,0,1,0,")  # n, s, trial, nnz, cnots


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "4", "--s", "1", "--trials", "0"], "--trials 0 is below 1"),
        (["--n", "4", "--s", "1", "--trials", "-2"], "--trials -2 is below 1"),
        (["--n", "-3", "--s", "1"], "--n '-3' is an empty or negative range"),
        (["--n", "5-3", "--s", "1"], "--n '5-3' is an empty or negative range"),
        (["--n", "4", "--s", "2-1"], "--s '2-1' is an empty or negative range"),
        (["--n", "3", "--s", "5"], "no (n, s) cell has s <= n"),
        (["--n", "2,3", "--s", "4-5"], "no (n, s) cell has s <= n"),
    ],
)
def test_bench_with_an_empty_grid_exits_2(capsys, args, message):
    # each printed a header-only CSV with exit 0, except --n 5-3, which
    # exited 2 with "max() arg is an empty sequence"
    assert run(["bench", "ssp"] + args) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_bench_skips_the_cells_with_s_above_n(capsys):
    assert run(["bench", "ssp", "--n", "2-3", "--s", "1,3", "--trials", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["2", "1"], ["3", "1"], ["3", "3"]]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_exit_2(tmp_path, samples):
    state = {"n": 3, "m": 0, "entries": [[1, 0, 0.6, 0], [6, 0, 0.8, 0]]}
    mat = write_json(tmp_path / "v.json", state)
    assert run(["compile", mat, "--method", "ssp", "--samples", samples]) == cli.EXIT_PARSE
    bench = ["bench", "ssp", "--n", "3", "--s", "1", "--trials", "1", "--samples", samples]
    assert run(bench) == cli.EXIT_PARSE


BAD_STRATEGIES = {
    "float_rho": {"rho": [0.5, 1, 2, 3], "sigma": [0, 1]},
    "object_rho": {"rho": {"0": 0}, "sigma": [0, 1]},
    "top_level_list": [[0, 1, 2, 3], [0, 1]],
}


@pytest.mark.parametrize("name", sorted(BAD_STRATEGIES))
@pytest.mark.parametrize("method", ["sparse", "fixed-env"])
def test_compile_malformed_strategy_exit_2(tmp_path, name, method):
    mat = write_json(tmp_path / "m.json", {"n": 2, "m": 1, "entries": [[0, 0, 1, 0], [1, 1, 1, 0]]})
    strategy = write_json(tmp_path / "s.json", BAD_STRATEGIES[name])
    argv = ["compile", mat, "--method", method, "--strategy", f"file:{strategy}"]
    assert run(argv) == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2.5, "m": 0, "entries": [[0, 0, 1.0, 0]]},
        {"n": 2, "m": 0.0, "entries": [[0, 0, 1.0, 0]]},
        {"n": True, "m": 0, "entries": [[0, 0, 1.0, 0]]},
        {"n": 2, "m": 0, "entries": [[0.7, 0, 1.0, 0]]},
        {"n": 2, "m": 1, "entries": [[0, 0, 1.0, 0], [1, 1.0, 1.0, 0]]},
        # and the other malformed fields of a matrix file
        {"n": 63, "m": 0, "entries": [[5, 0, 1.0, 0]]},
        {"n": 1, "m": 0, "dense": [[1.0], [0.0, 0.0]]},
        {"n": 1, "m": 0, "dense": [["x"], [0.0]]},
        # a boolean or a string where a number goes
        {"n": 1, "m": 0, "entries": [[0, 0, True, 0]]},
        {"n": 1, "m": 0, "entries": [[0, 0, 1.0, False]]},
        {"n": 1, "m": 0, "entries": [[0, 0, "1", 0]]},
        {"n": 1, "m": 0, "dense": [[True], [0.0]]},
        {"n": 1, "m": 0, "dense": [[[1.0, False]], [0.0]]},
        {"n": 1, "m": 0, "entries": [[0, 0, 10**400, 0]]},
    ],
    ids=[
        "float_n", "float_m", "boolean_n", "float_row", "float_column",
        "n_63", "dense_row_of_the_wrong_width", "dense_element_not_a_number",
        "boolean_re", "boolean_im", "string_re", "dense_boolean",
        "dense_pair_boolean", "re_past_the_float_range",
    ],
)
def test_compile_non_integer_matrix_field_exit_2(tmp_path, data):
    mat = write_json(tmp_path / "m.json", data)
    assert run(["compile", mat, "--method", "dense"]) == cli.EXIT_PARSE


def _row_permuted_case(tmp_path):
    """A compiled 2-qubit isometry, the matrix with its rows moved by a
    seeded permutation ``rp`` (row i to rp[i]), and ``rp``."""
    rng = np.random.default_rng(64)
    a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    w, _ = np.linalg.qr(a)
    rp = [int(x) for x in rng.permutation(4)]
    assert rp != [0, 1, 2, 3]
    moved = np.empty_like(w)
    moved[rp] = w
    mat = write_json(tmp_path / "w.json", {"n": 2, "m": 1, "entries": [
        [i, j, w[i, j].real, w[i, j].imag] for i in range(4) for j in range(2)]})
    circ = str(tmp_path / "c.json")
    assert run(["compile", mat, "--method", "dense", "-o", circ, "--verify"]) == 0
    permuted = write_json(tmp_path / "pw.json", {"n": 2, "m": 1, "entries": [
        [i, j, moved[i, j].real, moved[i, j].imag] for i in range(4) for j in range(2)]})
    return circ, permuted, rp


def _verify_row_perm(tmp_path, circ, mat, witness):
    argv = ["verify", circ, mat, "--mode", "up_to_diag_and_row_perm"]
    if witness is not None:
        argv += ["--row-perm", write_json(tmp_path / "rp.json", witness)]
    return run(argv)


def test_verify_row_perm_witness(tmp_path):
    circ, permuted, rp = _row_permuted_case(tmp_path)
    assert _verify_row_perm(tmp_path, circ, permuted, rp) == 0
    assert _verify_row_perm(tmp_path, circ, permuted, [0, 1, 2, 3]) == cli.EXIT_VERIFY
    assert _verify_row_perm(tmp_path, circ, permuted, None) == cli.EXIT_PARSE


@pytest.mark.parametrize("kind", ["non_bijection", "floats", "object"])
def test_verify_malformed_row_perm_exit_2(tmp_path, kind):
    circ, permuted, rp = _row_permuted_case(tmp_path)
    witness = {
        "non_bijection": [rp[0], rp[0], rp[2], rp[3]],
        "floats": [x + 0.5 for x in rp],
        "object": {"perm": rp},
    }[kind]
    assert _verify_row_perm(tmp_path, circ, permuted, witness) == cli.EXIT_PARSE


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_compile_trace_lists_modified_entries(tmp_path, method):
    # the CLI asks for the trace's entry fields whenever --trace is given
    w = random_sparse_isometry(4, 2, 5, np.random.default_rng(80))
    mat = write_json(tmp_path / "w.json", matrix_to_dict(w))
    trace = tmp_path / "t.json"
    assert run(["compile", mat, "--method", method, "--trace", str(trace), "-o", str(tmp_path / "c.json")]) == 0
    steps = json.loads(trace.read_text())
    assert any(step["modified"] for step in steps)
