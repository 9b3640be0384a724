"""Print every benchmark metric, with unit and direction, for every workload.

    python3 perfbench/report.py --seed 1 [--seconds 30] [--workload NAME ...]

Runs ``run.py`` once untraced and once traced per workload, each in a fresh
interpreter, from the root of the checkout.  Direction comes from
BENCHMARK.json; metrics outside it (the report-only ones) show '-'.  The
last column of the traced rows compares the traced pass with the untraced
``wall_s``: that difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import directions, unit_of  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                         check=True)
    report = ROOT / ".bench_out" / ("%s-seed%d-trace%d.json"
                                    % (workload, seed, trace))
    return {"result": json.loads(out.stdout.strip().splitlines()[-1]),
            "report": json.loads(report.read_text())}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable); default: all listed")
    args = p.parse_args(argv)
    better = directions()
    names = args.workload or [w["name"] for w in spec["workloads"]]

    for name in names:
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        wall = plain["report"]["metrics"]["wall_s"]
        tm = traced["report"]["metrics"]
        print("== %s  seed %d  correct=%s/%s  attempted=%d failed=%d" % (
            name, args.seed, plain["result"]["correct"],
            traced["result"]["correct"],
            plain["result"]["attempted"] + traced["result"]["attempted"],
            plain["result"]["failed"] + traced["result"]["failed"]))
        for label, rep in (("e2e", plain), ("layer", traced)):
            for metric, value in sorted(rep["report"]["metrics"].items()):
                print("  %-5s %-32s %16.6g %-6s %s" % (
                    label, metric, float("nan") if value is None else value,
                    unit_of(metric), better.get(metric, "-")))
        print("  tracing overhead: traced pass %.3f s vs untraced wall_s "
              "%.3f s (%+.1f%%); estimated from span count %.2f%%" % (
                  tm["trace.wall_s"], wall,
                  100.0 * (tm["trace.wall_s"] / wall - 1.0),
                  100.0 * tm["trace.overhead_est_ratio"]))
        print("  per-layer self times add up to %.1f%% of the traced pass"
              % (100.0 * tm["trace.self_sum_ratio"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
