"""Batch front-end: compile, verify, audit, order and bench subcommands.

Exit codes: 0 success, 2 input parse failure, 3 input validation failure
(a simulation past ``gates.LIVE_CAP`` and a run out of memory included),
4 verification failure.
Identical arguments and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bench as B
from . import costs as C
from . import gates as G
from . import methods as M
from . import ordering as O
from . import pivoting as P
from .numerics import (
    MAX_QUBITS,
    NotAnIsometryError,
    SparseIsometry,
    apply_permutations,
    check_permutation,
    matrix_from_dict,
    validate_isometry,
)

EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_VERIFY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_PARSE)


def _load_matrix(path: str) -> SparseIsometry:
    try:
        return matrix_from_dict(_load_json(path))
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise CliError(f"bad matrix file {path}: {e}", EXIT_PARSE)


def _load_circuit(path: str) -> G.StructuredCircuit:
    try:
        return G.circuit_from_dict(_load_json(path))
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise CliError(f"bad circuit file {path}: {e}", EXIT_PARSE)


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


def _load_strategy(spec: str, w: SparseIsometry) -> O.EliminationStrategy:
    if spec == "identity":
        return O.EliminationStrategy.identity(w.n, w.m)
    if spec == "greedy":
        return O.greedy_order(w)
    if spec.startswith("file:"):
        d = _load_json(spec[5:])
        try:
            return O.EliminationStrategy.checked(d["rho"], d["sigma"], w.n, w.m)
        except (KeyError, ValueError, TypeError) as e:
            raise CliError(f"bad strategy file: {e}", EXIT_PARSE)
    raise CliError(f"unknown strategy {spec!r}", EXIT_PARSE)


def _trace_dict(trace: list[M.StepTrace]) -> list[dict]:
    out = []
    for t in trace:
        out.append(
            {
                "step": t.step,
                "column": t.column,
                "target": t.target_current,
                "nnz": t.nnz,
                "s": t.s,
                "skipped": t.skipped,
                "modified": [list(x) for x in t.modified],
                "fill_in": [list(x) for x in t.fill_in],
                "eliminated": [list(x) for x in t.eliminated],
            }
        )
    return out


def cmd_compile(args) -> int:
    regime = C.parse_regime(args.regime)
    if args.method == "perm":
        data = _load_json(args.input)
        try:
            perm = check_permutation(data["perm"], len(data["perm"]))
        except (KeyError, ValueError, TypeError) as e:
            raise CliError(f"bad permutation input: {e}", EXIT_PARSE)
        circuit = M.perm_via_householder(perm)
        result = M.DecompositionResult(circuit, C.audit_circuit(circuit, regime), [])
    else:
        w = _load_matrix(args.input)
        rep = validate_isometry(w, args.tol)
        if not rep.ok:
            raise CliError(rep.describe(), EXIT_VALIDATE)
        kw = dict(samples=args.samples, seed=args.seed)
        entries = args.trace is not None  # the trace file lists each step's entries
        try:
            if args.method == "ssp":
                if w.m != 0:
                    raise CliError("ssp expects a state (m = 0)", EXIT_VALIDATE)
                circuit = P.sparse_state_prep_on(w.col(0), w.n, **kw)
                result = M.DecompositionResult(circuit, C.audit_circuit(circuit, regime), [])
            elif args.method == "dense":
                if 1 << (w.n + w.m) > G.LIVE_CAP:
                    raise CliError(
                        f"--method dense holds all 2^{w.n + w.m} amplitudes, "
                        f"past the cap of {G.LIVE_CAP} (gates.LIVE_CAP)",
                        EXIT_VALIDATE,
                    )
                result = M.dense_householder_iso(w.to_dense(), regime, trace_entries=entries)
            elif args.method == "sparse":
                result = M.sparse_householder_iso(
                    w, _load_strategy(args.strategy, w), regime, **kw, trace_entries=entries
                )
            elif args.method == "fixed-env":
                result = M.fixed_envelope_iso(
                    w, _load_strategy(args.strategy, w), regime, **kw, trace_entries=entries
                )
            else:  # no-fill-in: argparse's choices refuse any other method
                result = M.no_fill_in_iso(w, regime, **kw, trace_entries=entries)
        except NotAnIsometryError as e:
            raise CliError(str(e), EXIT_VALIDATE)
    circuit = result.circuit
    if args.verify:
        if args.method == "perm":
            # sparse, so that the live cap refuses it before it is built
            n = circuit.n
            pm = SparseIsometry(n, n, [(int(p), j, 1.0) for j, p in enumerate(perm)])
            eq = G.equivalent(circuit, pm, "up_to_diagonal", args.tol)
        else:
            eq = G.equivalent(circuit, w, "exact", args.tol)
        if not eq.ok:
            raise CliError(f"verification failed: residual {eq.residual:.3e}", EXIT_VERIFY)
    _dump_json(G.circuit_to_dict(circuit), args.output)
    if args.trace:
        _dump_json(_trace_dict(result.trace), args.trace)
    print(json.dumps(result.audit.as_dict(), sort_keys=True), file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    circuit = _load_circuit(args.circuit)
    w = _load_matrix(args.matrix)
    if circuit.n != w.n:
        raise CliError(f"the circuit has {circuit.n} qubits, the matrix {w.n}", EXIT_PARSE)
    row_perm = None
    if args.row_perm:
        row_perm = _load_json(args.row_perm)
    eq = G.equivalent(circuit, w, args.mode, args.tol, row_perm=row_perm)
    # JSON has no infinity: a residual that is not finite is written null
    residual = eq.residual if math.isfinite(eq.residual) else None
    print(json.dumps({"ok": eq.ok, "residual": residual}))
    return 0 if eq.ok else EXIT_VERIFY


def cmd_audit(args) -> int:
    circuit = _load_circuit(args.circuit)
    regime = C.parse_regime(args.regime)
    report = C.audit_circuit(circuit, regime)
    if args.table:
        width = max((len(g) for g, _, _ in report.breakdown), default=4)
        for gate, formula, cnots in report.breakdown:
            print(f"{gate:<{width}}  {cnots:>8}  {formula}")
        print(f"{'total':<{width}}  {report.total:>8}")
    else:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def cmd_order(args) -> int:
    w = _load_matrix(args.matrix)
    strategy = O.greedy_order(w)
    before = O.envelope(w)
    after = O.envelope(apply_permutations(w, strategy.rho, strategy.sigma))
    out = {
        "rho": [int(x) for x in strategy.rho],
        "sigma": [int(x) for x in strategy.sigma],
        "ed_before": before.ed,
        "ed_after": after.ed,
        "elim": O.elim_count(w, strategy),
    }
    _dump_json(out, args.output)
    return 0


def _parse_range(text: str, flag: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, hi = map(int, part.split("-", 1) if "-" in part[1:] else (part, part))
        if not 0 <= lo <= hi:
            raise CliError(f"{flag} {part!r} is an empty or negative range", EXIT_PARSE)
        out.extend(range(lo, hi + 1))
    return out


def cmd_bench(args) -> int:
    regime = C.parse_regime(args.regime)
    ns = _parse_range(args.n, "--n")
    ss = _parse_range(args.s, "--s")
    if args.trials < 1:
        raise CliError(f"--trials {args.trials} is below 1", EXIT_PARSE)
    if max(ns) > MAX_QUBITS:
        raise CliError(
            f"the benchmark needs n <= {MAX_QUBITS} (int64 basis indices)", EXIT_PARSE
        )
    if min(ss) > max(ns):
        raise CliError("no (n, s) cell has s <= n", EXIT_PARSE)
    rows = B.bench_ssp(ns, ss, args.trials, args.seed, regime, args.samples)
    lines = [B.CSV_HEADER] + [r.csv() for r in rows]
    text = "\n".join(lines) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    for (n, s), cell in B.summarize(rows).items():
        print(
            f"n={n} s={s}: mean={cell['mean']:.6g} sem={cell['sem']:.6g} "
            f"ref={cell['ref']:.6g} trials={cell['trials']}",
            file=sys.stderr,
        )
    return 0


def tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not a finite value >= 0")
    return tol


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hhsynth", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile a matrix file into a circuit")
    pc.add_argument("input")
    pc.add_argument(
        "--method",
        default="sparse",
        choices=["dense", "sparse", "fixed-env", "no-fill-in", "ssp", "perm"],
    )
    pc.add_argument("--regime", default="none")
    pc.add_argument("--strategy", default="greedy", help="identity | greedy | file:PATH")
    pc.add_argument("-o", "--output", default=None)
    pc.add_argument("--trace", default=None)
    pc.add_argument("--verify", action="store_true")
    pc.add_argument("--tol", type=tolerance, default=1e-9)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--samples", type=int, default=100)
    pc.set_defaults(func=cmd_compile)

    pv = sub.add_parser("verify", help="check a circuit against a matrix")
    pv.add_argument("circuit")
    pv.add_argument("matrix")
    pv.add_argument(
        "--mode",
        default="exact",
        choices=["exact", "up_to_diagonal", "up_to_diag_and_row_perm"],
    )
    pv.add_argument("--tol", type=tolerance, default=1e-9)
    pv.add_argument("--row-perm", default=None, help="JSON file with the witness")
    pv.set_defaults(func=cmd_verify)

    pa = sub.add_parser("audit", help="CNOT cost report for a circuit file")
    pa.add_argument("circuit")
    pa.add_argument("--regime", default="none")
    pa.add_argument("--table", action="store_true")
    pa.set_defaults(func=cmd_audit)

    po = sub.add_parser("order", help="greedy elimination strategy for a matrix")
    po.add_argument("matrix")
    po.add_argument("-o", "--output", default=None)
    po.set_defaults(func=cmd_order)

    pb = sub.add_parser("bench", help="randomized benchmarks (CSV)")
    pb.add_argument("what", choices=["ssp"])
    pb.add_argument("--n", required=True, help="qubit counts up to 62, e.g. 8-16 or 6,8,10")
    pb.add_argument("--s", required=True, help="e.g. 1,2,3")
    pb.add_argument("--trials", type=int, default=200)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--regime", default="none")
    pb.add_argument("--samples", type=int, default=100)
    pb.add_argument("-o", "--output", default=None)
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except G.SimulationCapExceeded as e:  # a ValueError, but not a parse failure
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except G.CircuitVerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except MemoryError as e:
        print(
            f"error: out of memory ({e}); --method ssp, --method sparse and "
            "--method no-fill-in hold no 2^n array",
            file=sys.stderr,
        )
        return EXIT_VALIDATE


if __name__ == "__main__":
    sys.exit(main())
