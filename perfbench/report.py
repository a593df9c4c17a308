"""Print every benchmark metric by name, with its unit, for every workload
in ``workloads.WORKLOADS``, including those BENCHMARK.json leaves out.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs ``perfbench/run.py`` once per workload, each in a process of its own
so that ``peak_rss_mb`` belongs to that workload.  Prints each run's
circuit digest, any failed check, ``failed_frac`` (failed / attempted)
and the metrics of ``BENCHMARK.json``; ``--trace`` adds a traced run per
workload with the per-layer metrics and where the time went.  Exits 1 if
any run fails or reports ``correct: false``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="also run traced")
    args = ap.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            print(f"== {name} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for line in lines[:-1]:
                if line.startswith(("digest", "FAIL", "SELF-CHECK", "trace")):
                    print("  " + line)
            if not trace:
                print(f"  {'failed_frac':<44} {res['failed'] / res['attempted']:.6g} ratio")
            for metric, m in res["metrics"].items():
                print(f"  {metric:<44} {m['value']:.6g} {m['unit']}")
            ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
