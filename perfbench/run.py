"""Benchmark of the algebroids library: one command, three workloads.

    python3 perfbench/run.py --workload {poly,rational,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ``src/``. A run
is a closed loop with one client on one thread: it sets up the workload
several times, then repeats whole passes over the workload's seeded job list
until ``--seconds`` have gone by, then checks every output (see
``checks.py``). Each job builds fresh input objects, so no library memo
carries over between passes, and only the calls into the library's public
entry points are timed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it carries the per-layer metrics of ``spans.py`` plus the
tracing overhead. Results and span files go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import golden
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("poly", "rational", "cli")
# the heaviest named job of each workload: its scaling point
LARGEST = {"poly": "skew_r5", "rational": "srat_r4", "cli": "gen_r4_relative-modular"}
# set-ups before the first pass; one more runs after every pass
SETUPS = 5


def _import_library():
    """Import the package afresh from ``src/``; returns it with its CLI."""
    for name in [n for n in sys.modules if n == "algebroids" or n.startswith("algebroids.")]:
        del sys.modules[name]
    lib = importlib.import_module("algebroids")
    importlib.import_module("algebroids.cli")
    return lib


def _make_jobs(workload: str, seed: int, workdir: Path):
    if workload == "poly":
        return workloads.poly_jobs(seed), {}
    if workload == "rational":
        return workloads.rational_jobs(seed), {}
    return workloads.cli_jobs(seed, golden.load(), ROOT, workdir)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the library and build every input of one pass; timed."""
    start = perf_counter()
    lib = _import_library()
    jobs, files = _make_jobs(workload, seed, workdir)
    if files:
        workloads.write_files(files, workdir)
    for job in jobs:
        job.build(lib)
    return perf_counter() - start, lib, jobs


def run_pass(lib, jobs: list, errors: dict, tracer=None) -> tuple:
    """One pass: (per-job seconds, per-job summary or None when it raised).
    The exception of each failed job is kept in ``errors`` by job name."""
    times, summaries = [], []
    for job in jobs:
        inputs = job.build(lib)
        gc.collect()
        start = perf_counter()
        try:
            outputs = job.run(lib, inputs)
        except Exception as exc:  # a failed operation: counted, not fatal
            times.append(perf_counter() - start)
            summaries.append(None)
            if tracer is not None:
                tracer.reset_stack()
            errors[job.name] = f"{type(exc).__name__}: {str(exc)[:200]}"
            continue
        times.append(perf_counter() - start)
        summaries.append(job.summary(outputs))
    return times, summaries


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "algebroids" / "__init__.py").is_file():
        print(f"error: no algebroids package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "work" / f"{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(SETUPS):
            seconds, lib, jobs = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
        if not lib.__file__.startswith(str(SRC)):
            print(f"error: imported algebroids from {lib.__file__}", file=sys.stderr)
            return 2

        tracer = spans.Tracer() if args.trace else None
        first = None
        problems = []
        pass_s, traced_pass_s, job_s = [], [], []
        largest = [i for i, job in enumerate(jobs) if job.name == LARGEST[args.workload]][0]
        largest_s = []
        attempted = failed = 0
        errors = {}
        begin = perf_counter()
        while True:
            traced = tracer is not None and len(pass_s) > len(traced_pass_s)
            if traced:
                tracer.install(lib)
            try:
                times, summaries = run_pass(lib, jobs, errors, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.keep_spans = False
            attempted += len(jobs)
            failed += sum(s is None for s in summaries)
            (traced_pass_s if traced else pass_s).append(sum(times))
            if not traced:
                job_s += times
                largest_s.append(times[largest])
            if first is None:
                first = summaries
                problems += checks.cross_checks(jobs, summaries)
            for job, s, s0 in zip(jobs, summaries, first):
                if s is None:
                    continue
                if s != s0:
                    problems.append(f"{job.name}: output changed between passes")
                elif s is s0:
                    problems += [f"{job.name}: {p}" for p in checks.properties(job, s)]
            if perf_counter() - begin >= args.seconds and (tracer is None or traced_pass_s):
                break
            # one more set-up between passes, so set-up samples the same
            # stretch of machine time as the passes do
            seconds, lib, jobs = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checked = perf_counter()
        oracle = checks.Sympy()
        for job, s in zip(jobs, first):
            if s is not None:
                problems += [f"{job.name}: {p}" for p in checks.oracle(job, s, oracle)]
        checked = perf_counter() - checked
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "batch_s": _metric(statistics.median(pass_s), "s"),
            "job_p50_ms": _metric(statistics.median(job_s) * 1000.0, "ms"),
            "largest_job_s": _metric(statistics.median(largest_s), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics(len(traced_pass_s))
        untraced = statistics.median(pass_s)
        metrics["trace.batch_s"] = _metric(statistics.median(traced_pass_s), "s")
        metrics["trace.overhead"] = _metric(statistics.median(traced_pass_s) / untraced, "ratio")
        RESULTS.mkdir(exist_ok=True)
        count = tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(f"wrote {count} spans", file=sys.stderr)
    print("pass seconds: " + " ".join(f"{t:.3f}" for t in pass_s), file=sys.stderr)
    for name, message in errors.items():
        print(f"FAILED: {name}: {message}", file=sys.stderr)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    line = json.dumps(result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(
        f"{args.workload}: {len(pass_s)} passes, {len(traced_pass_s)} traced, "
        f"{attempted} jobs, {failed} failed, {len(setups)} set-ups, oracle {checked:.1f} s",
        file=sys.stderr,
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
