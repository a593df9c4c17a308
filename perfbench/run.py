"""Compile-and-verify benchmark for hhsynth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The run generates its instances from ``--seed``, sets up
(import, generation, one warm-up compile and verify; three times), then
compiles and verifies every instance in passes until ``--seconds`` is
used up (at least three passes untraced; with ``--trace 1`` untraced and
traced passes alternate).  Every compile is checked: exact residual,
closed-form CNOT bound, identical circuits in every pass and repeat.  Information
lines go to stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  A traced run also writes its spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

T_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import GROUPS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_PASSES = 3


@dataclass
class Pass:
    traced: bool
    compile_s: list[list[float]] = field(default_factory=list)  # per instance, per compile
    verify_s: list[list[float]] = field(default_factory=list)  # per instance
    digest: str = ""  # SHA-256 over the canonical JSON of the verified circuits
    cnots: int = 0  # audited CNOTs of the verified circuits
    emitted: int = 0  # gates in the verified circuits
    mismatches: int = 0  # repeated compiles whose circuits differ from the verified ones


def _circuits(outcomes) -> list:
    """Canonical JSON form of each outcome's circuit."""
    from hhsynth.gates import circuit_to_dict

    return [circuit_to_dict(o.circuit) if o.circuit is not None else None for o in outcomes]


def run_instance(wl, inst, repeats=1, phase=None, k=-1):
    """Compile ``repeats`` times, then verify the first compile.  ``phase(name,
    k)`` gives the context each phase runs in.  Returns (outcomes, compile
    times, verify time, number of repeats whose circuits differ).

    The heap is collected before each timed phase, so that a phase does not
    pay for garbage left by the one before it."""
    phase = phase or (lambda name, k: contextlib.nullcontext())
    times, mismatches = [], 0
    for r in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        with phase("bench.compile", k):
            outs = wl.compile(inst)
        times.append(time.perf_counter() - t0)
        if r == 0:
            outcomes, first = outs, (_circuits(outs) if repeats > 1 else None)
        elif _circuits(outs) != first:
            mismatches += 1
    gc.collect()
    t0 = time.perf_counter()
    with phase("bench.verify", k):
        wl.verify(inst, outcomes)
    return outcomes, times, time.perf_counter() - t0, mismatches


def run_pass(wl, instances, tally, tracer=None) -> Pass:
    """One pass over the instances; traced passes compile each instance once.
    Every verified outcome goes to ``tally``; the pass keeps only its times,
    digest and counts, so no pass holds the circuits of the passes before."""
    p = Pass(traced=tracer is not None)
    digest = hashlib.sha256()
    if tracer is not None:
        tracer.install()
    try:
        for k, inst in enumerate(instances):
            outcomes, tc, tv, bad = run_instance(
                wl, inst, 1 if tracer else wl.compile_repeats, tracer and tracer.region, k
            )
            p.compile_s.append(tc)
            p.verify_s.append([tv])
            p.mismatches += bad
            tally(outcomes)
            digest.update(json.dumps(_circuits(outcomes), sort_keys=True).encode())
            p.cnots += sum(o.cnots for o in outcomes)
            p.emitted += sum(len(o.circuit.gates) for o in outcomes if o.circuit is not None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    p.digest = digest.hexdigest()
    return p


def phase_total(passes, attr: str) -> float:
    """Sum over instances of the median of each instance's times in all passes."""
    return sum(
        statistics.median(t for p in passes for t in getattr(p, attr)[i])
        for i in range(len(passes[0].compile_s))
    )


def layer_metrics(tr, passes, wanted) -> tuple[dict, list[str]]:
    """Per-layer values and self-check problems of a traced run.  Times are
    medians over the traced passes; counts must repeat in every one."""
    problems = []
    self_t = tr.self_times()
    if self_t and min(self_t) < 0.0:
        problems.append(f"negative self time {min(self_t):.3e} s")
    roots = tr.roots()
    traced = [p for p in passes if p.traced]
    times = [Counter() for _ in traced]
    by_phase = {"bench.compile": Counter(), "bench.verify": Counter()}
    for i, (name, start, end, _, _, k) in enumerate(tr.spans):
        times[k][name + ".self_s"] += self_t[i]
        if name in by_phase:
            times[k][name + ".total_s"] += end - start
        else:
            times[k][name.split(".")[0] + ".self_s"] += self_t[i]
        by_phase[tr.spans[roots[i]][0]][name] += self_t[i]
    for vals in times:
        for group, members in GROUPS.items():
            vals[group + ".self_s"] = sum(vals[m + ".self_s"] for m in members)
        for phase in ("compile", "verify"):
            total = vals[f"bench.{phase}.total_s"]
            vals[f"trace.{phase}_uncovered_frac"] = vals[f"bench.{phase}.self_s"] / total
    counts = tr.counts[0]
    if any(c != counts for c in tr.counts):
        problems.append("counts differ between traced passes")
    counts["gates.emitted"] = traced[0].emitted
    untraced = [p for p in passes if not p.traced]
    overhead = {
        f"trace.{phase}_overhead_s": phase_total(traced, attr) - phase_total(untraced, attr)
        for phase, attr in (("compile", "compile_s"), ("verify", "verify_s"))
    }
    out = {}
    for name in wanted:
        if name in overhead:
            out[name] = overhead[name]
        elif name.endswith(("_s", "_frac")):
            out[name] = statistics.median(vals[name] for vals in times)
        else:
            out[name] = counts[name]
    _print_shares(by_phase)
    return out, problems


def _print_shares(by_phase) -> None:
    """Where each phase's traced time went: by module, group and span."""
    for phase, by_name in by_phase.items():
        total = sum(by_name.values())
        by_mod = Counter()
        for name, t in by_name.items():
            by_mod["uncovered" if name in by_phase else name.split(".")[0]] += t
        groups = {
            g: sum(by_name[m] for m in members) for g, members in GROUPS.items()
        }

        def fmt(items):
            return ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in items)

        print(f"trace {phase} {total:.3f} s by module: {fmt(by_mod.most_common())}")
        print(f"trace {phase} by group: {fmt(groups.items())}")
        print(f"trace {phase} top spans: {fmt(by_name.most_common(8))}")


def main(argv=None) -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a key of workloads.WORKLOADS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench_spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hhsynth" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'hhsynth'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import hhsynth

    if Path(hhsynth.__file__).resolve().parent != (SRC / "hhsynth").resolve():
        print(f"error: hhsynth was imported from {hhsynth.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    t_import = time.perf_counter() - T_START

    attempted = failed = 0
    problems: list[str] = []

    def tally(outcomes):
        nonlocal attempted, failed
        for o in outcomes:
            attempted += 1
            if not o.ok:
                failed += 1
                print(f"FAIL {args.workload} {o.method}: {o.problem()}")

    setup_reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        instances = wl.generate(np.random.default_rng(args.seed), wl.instances + 1)
        outcomes, _, _, _ = run_instance(wl, instances[0])
        setup_reps.append(time.perf_counter() - t0)
        tally(outcomes)
    setup_s = t_import + statistics.median(setup_reps)
    measured = instances[1:]

    tr = Tracer() if args.trace else None
    passes: list[Pass] = []
    t_measure = time.perf_counter()
    while True:
        traced = tr is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, measured, tally, tr if traced else None))
        elapsed = time.perf_counter() - t_measure
        enough = len(passes) >= (2 if tr else MIN_PASSES)
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    digests = [p.digest for p in passes]
    cnots = [p.cnots for p in passes]
    if len(set(digests)) > 1:
        problems.append("circuits differ between passes (traced vs untraced: "
                        + ", ".join(f"{p.traced}:{d[:12]}" for p, d in zip(passes, digests)) + ")")
    if len(set(cnots)) > 1:
        problems.append(f"audited CNOTs differ between passes: {cnots}")
    if any(p.mismatches for p in passes):
        problems.append("repeated compiles gave different circuits")
    print(f"digest {args.workload} seed {args.seed} {digests[0]}")
    for i, p in enumerate(passes):
        print(f"pass {i} traced={int(p.traced)} compile {sum(map(sum, p.compile_s)):.3f} s "
              f"verify {sum(map(sum, p.verify_s)):.3f} s")
    print(f"setup import {t_import:.3f} s, generate + warm-up "
          + ", ".join(f"{t:.3f}" for t in setup_reps) + " s")

    if tr is None:
        metrics = {
            "setup_s": setup_s,
            "compile_s": phase_total(passes, "compile_s"),
            "verify_s": phase_total(passes, "verify_s"),
            "cnots": cnots[0],
            "verified_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = bench_spec["end_to_end"]
    else:
        declared = bench_spec["per_layer"]
        metrics, trace_problems = layer_metrics(tr, passes, [m["name"] for m in declared])
        problems += trace_problems
        if tr.missing:
            print("trace: not found in the library, reported as 0: " + ", ".join(tr.missing))
        print(f"trace overhead: compile {metrics.get('trace.compile_overhead_s', 0):+.3f} s, "
              f"verify {metrics.get('trace.verify_overhead_s', 0):+.3f} s; uncovered share: "
              f"compile {metrics.get('trace.compile_uncovered_frac', 0):.1%}, "
              f"verify {metrics.get('trace.verify_uncovered_frac', 0):.1%}")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    for msg in problems:
        print(f"SELF-CHECK {msg}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
