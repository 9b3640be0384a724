"""neilcone benchmark: seeded CLI workloads, oracle-checked, optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload: it builds the workload's requests
from the seed, then calls ``neilcone.cli.main`` in-process on them, one at a
time (a closed loop with one client), repeating the whole pass while
another pass still fits in ``--seconds`` (always at least one).  Every
result is re-checked by ``oracle.py`` outside the timed window.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``spans.py``.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; a table goes to
standard error and a full report, with the environment, to
``.bench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is loaded, here and in children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
SETUP_PROBE = ("import time; t = time.perf_counter(); import neilcone.cli; "
               "print(time.perf_counter() - t)")

# Per-layer metrics printed with --trace 1: counts, and times of work that
# every listed workload does.  The report file holds every metric.
PER_LAYER = (
    "linalg.eig_calls", "linalg.eig_matrices", "linalg.eig_n3_computed",
    "linalg.eig_s", "linalg.eig_us_per_matrix", "linalg.eigvals_s",
    "linalg.psd_project_calls", "linalg.psd_project_s",
    "linalg.from_lower_calls", "linalg.from_lower_s", "linalg.self_s",
    "kernels.test_fn_calls", "kernels.test_fn_s", "kernels.self_s",
    "cone.primal_calls", "cone.dual_calls", "cone.dr_iters",
    "cone.admm_iters", "cone.polish_iters", "cone.primal_wasted_iters",
    "cone.dual_s", "cone.admm_s", "cone.polish_s",
    "cone.margins_calls", "cone.margins_generators", "cone.margins_s",
    "cone.validate_calls", "cone.grid_build_s", "cone.self_s",
    "gns.sweep_rows", "cli.result_bytes", "cli.self_s",
    "trace.spans", "trace.overhead_est_ratio",
)

UNITS = {"_s": "s", "_us_per_matrix": "us", "_ratio": "ratio",
         "_mb": "MB", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import neilcone.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                             cwd=str(ROOT), capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    deps: dict = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 prints only
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k)
                   for k in ("name", "version")},
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
    }


def run_pass(cli_main, requests, work: Path) -> list:
    """One closed-loop pass; returns (latency, code, text, crash) per request."""
    results = []
    for i, req in enumerate(requests):
        out = work / ("out-%d.json" % i)
        if out.exists():
            out.unlink()
        argv = [req["command"], "--out", str(out)]
        if req["config"] is not None:
            argv += ["--config", str(work / ("cfg-%d.json" % i))]
        sink = io.StringIO()
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback escaped: record it, keep measuring
            code, crash = None, traceback.format_exc()
        latency = time.perf_counter() - start
        text = out.read_text() if out.exists() else None
        results.append((latency, code, text, crash))
    return results


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_problems(requests, texts: list) -> list:
    """Compare each output with the first output recorded for the same
    request and the same package sources in this checkout."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    program = sha256("".join(f.read_text() for f in
                             sorted((SRC / "neilcone").glob("*.py"))))
    problems = []
    for req, text in zip(requests, texts):
        got = sha256(text or "")
        key = sha256(program + json.dumps(req, sort_keys=True))
        want = known.setdefault(key, got)
        problems.append([] if got == want else
                        ["bytes differ from the first run of this request"])
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def verify(requests, passes) -> list:
    """Problems for every request of every pass.

    The first pass is checked by the oracle; later passes must repeat its
    bytes exactly, and the first pass must repeat the first run's bytes.
    """
    first = passes[0]
    base = [oracle.check(req, code, text) + ([crash] if crash else [])
            for req, (_, code, text, crash) in zip(requests, first)]
    for probs, more in zip(base, digest_problems(requests, [r[2] for r in first])):
        probs.extend(more)
    out = [base]
    for res in passes[1:]:
        out.append([
            probs if (code, text) == (f[1], f[2]) else
            probs + ["differs from the first pass of this run"]
            for probs, (_, code, text, _c), f in zip(base, res, first)
        ])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neilcone" / "cli.py").is_file():
        print("error: no neilcone sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    try:
        requests = workloads.build(args.workload, args.seed)
    except KeyError:
        print("error: unknown workload %r; choose from %s" % (
            args.workload, ", ".join({**workloads.WORKLOADS,
                                      **workloads.EXTRA_WORKLOADS})),
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from neilcone import cli, cone, dilation, gns, kernels, linalg

    modules = {"linalg": linalg, "kernels": kernels, "cone": cone,
               "gns": gns, "dilation": dilation, "cli": cli}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=str(OUT)))
    try:
        for i, req in enumerate(requests):
            if req["config"] is not None:
                (work / ("cfg-%d.json" % i)).write_text(json.dumps(req["config"]))
        tracer = spans.Tracer() if args.trace else None
        passes, summaries = [], []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            if tracer is None:
                passes.append(run_pass(cli.main, requests, work))
            else:
                with spans.installed(tracer, modules):
                    passes.append(run_pass(cli.main, requests, work))
                summaries.append(spans.summarize(tracer.spans))
                summaries[-1]["metrics"]["trace.spans"] = len(tracer.spans)
                tracer.spans.clear()
            now = time.perf_counter()
            if now - begin + (now - start) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = verify(requests, passes)
    attempted = sum(len(p) for p in problems)
    failed = sum(1 for p in problems for probs in p if probs)
    walls = [sum(r[0] for r in res) for res in passes]
    latencies = [r[0] for res in passes for r in res]

    if args.trace:
        cost = spans.wrapper_cost()
        for s, wall in zip(summaries, walls):
            m = s["metrics"]
            m["trace.overhead_est_ratio"] = cost * m["trace.spans"] / wall
            m["trace.wall_s"] = wall
            m["trace.self_sum_ratio"] = sum(s["layers"].values()) / wall
            m["cli.result_bytes"] = sum(len(r[2] or "") for r in passes[0])
        everything = {k: statistics.median(s["metrics"][k] for s in summaries)
                      for k in summaries[0]["metrics"]}
        shown = PER_LAYER
    else:
        everything = {
            "wall_s": statistics.median(walls),
            "request_p50_s": statistics.median(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        shown = tuple(everything)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "requests_per_pass": len(requests), "environment": environment(),
        "metrics": everything,
        "functions": summaries[0]["functions"] if args.trace else None,
        "requests": [
            {"command": req["command"], "expect": [req["code"], req["status"]],
             "latency_s": [res[i][0] for res in passes],
             "code": passes[0][i][1],
             "problems": sorted({x for p in problems for x in p[i]})}
            for i, req in enumerate(requests)],
    }
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(report, indent=1, default=str))
    for i, r in enumerate(report["requests"]):
        for prob in r["problems"]:
            print("request %d (%s): %s" % (i, r["command"], prob),
                  file=sys.stderr)
    print_table(everything, shown)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": everything[k], "unit": unit_of(k)}
                    for k in shown},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def directions() -> dict:
    """Metric name -> better direction, from BENCHMARK.json if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return {}
    doc = json.loads(spec.read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}


def print_table(values: dict, shown) -> None:
    """Every metric with its unit and the better direction BENCHMARK.json
    gives it ('-' where it gives none); '*' marks report-only metrics."""
    better = directions()
    for name in sorted(values):
        mark = " " if name in shown else "*"
        print("%s %-32s %16.6g %-6s %s" % (mark, name, values[name],
                                           unit_of(name),
                                           better.get(name, "-")),
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
