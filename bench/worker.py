"""One benchmark worker process: set-up, a closed loop of jobs, and checks.

Run by run.py, never by hand:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only] [--cold-starts K]

One client sends jobs back to back (a closed loop with one client, in one
thread).  Only ``job.run()`` is timed; every answer is then checked outside
the clock.  Between cycles, off the job clock, the untraced run starts
``--cold-starts`` set-up-only processes, one at a time.  The last stdout
line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy  # noqa: F401  BLAS start-up happens here, before set-up is timed


def setup(workload: str, seed: int):
    """Import pqt and build the workload's inputs; returns (cycle, seconds)."""
    t0 = time.perf_counter()
    import workloads

    build, _ = workloads.WORKLOADS[workload]
    cycle = build(seed)
    return cycle, time.perf_counter() - t0


def run_cycles(cycle: list, seconds: float, min_jobs: int, tracer=None, between=None) -> dict:
    """Whole cycles until ``seconds`` have passed and ``min_jobs`` ran.

    ``between(elapsed)`` is called after each cycle, off the job clock.
    """
    clock = tracer.clock if tracer is not None else time.perf_counter
    durations: list = []
    failed = 0
    start = time.perf_counter()
    while True:
        for job in cycle:
            if tracer is not None:
                tracer.job, tracer.active = len(durations), True
            t0 = clock()
            try:
                answer = job.run()
            except Exception:  # a job that raises is a failed operation; the loop goes on
                traceback.print_exc()
                answer = None
            durations.append(clock() - t0)
            if tracer is not None:
                tracer.active = False
            if answer is None or not job.check(answer):
                failed += 1
                print(f"FAILED: {job.kind} (job {len(durations) - 1})", file=sys.stderr)
        if tracer is not None:
            tracer.counting = False  # counts cover the first cycle only
        if time.perf_counter() - start >= seconds and len(durations) >= min_jobs:
            break
        if between is not None:
            between(time.perf_counter() - start)
    return {"durations": durations, "failed": failed}


def cold_start(args) -> float:
    """Set-up time of a fresh worker process that does nothing else."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(loop: dict, q: float) -> dict:
    d = loop["durations"]
    return {
        "jobs_per_s": len(d) / sum(d),
        "job_ms_p50": statistics.median(d) * 1e3,
        "job_ms_tail": percentile(d, q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, env: dict) -> dict:
    """Traced set-up, then traced and untraced cycles in turn.

    Alternating makes drifts in machine speed fall on both sides of the
    tracing overhead alike.  The wrappers are installed only around traced
    cycles, so untraced cycles run the library as it is.
    """
    import layers
    import workloads

    _, q = workloads.WORKLOADS[args.workload]
    tracer = layers.Tracer()

    def traced(fn, *fn_args):
        tracer.install()
        try:
            return fn(*fn_args)
        finally:
            tracer.uninstall()

    cycle, _ = traced(setup, args.workload, args.seed)
    loops: dict = {True: [], False: []}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not loops[False]:
        with_tracer = len(loops[True]) == len(loops[False])
        if with_tracer:
            loops[True].append(traced(run_cycles, cycle, 0, 1, tracer))
        else:
            loops[False].append(run_cycles(cycle, 0, 1))
    tracer.active = tracer.counting = True
    traced(layers.probe)
    os.makedirs(args.out, exist_ok=True)
    tracer.write(os.path.join(args.out, f"trace-{args.workload}-{args.seed}.jsonl"))

    merged = {
        flag: {"durations": [d for loop in runs for d in loop["durations"]], "failed": sum(loop["failed"] for loop in runs)}
        for flag, runs in loops.items()
    }
    metrics = layers.layer_metrics(tracer, len(loops[True]))
    metrics.update(layers.microbenchmarks(args.seed))
    metrics["cli.cold_start_ms"] = layers.cli_cold_start_ms(env)
    fast, slow = (end_to_end(merged[flag], q)["jobs_per_s"] for flag in (False, True))
    metrics["trace.overhead_pct"] = (fast - slow) / fast * 100.0
    return {
        "attempted": sum(len(m["durations"]) for m in merged.values()),
        "failed": sum(m["failed"] for m in merged.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in layers.UNITS.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cold-starts", type=int, default=0, help="set-up-only processes spread over the run")
    ap.add_argument("--out", default=".bench_out")
    args = ap.parse_args()

    if args.setup_only:
        _, setup_s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = traced_run(args, dict(os.environ))
    else:
        cycle, setup_s = setup(args.workload, args.seed)
        import workloads

        _, q = workloads.WORKLOADS[args.workload]
        t0 = time.perf_counter()
        warm = run_cycles(cycle, 0, 1)  # one untimed cycle: caches, lazy imports, heap growth
        seconds = max(0.0, args.seconds - (time.perf_counter() - t0))
        setups = [setup_s]

        def cold_starts(elapsed: float) -> None:
            # spread over the run, so the median sees the machine's speed across all of it
            while len(setups) < 1 + args.cold_starts * min(1.0, elapsed / max(seconds, 1e-9)):
                setups.append(cold_start(args))

        loop = run_cycles(cycle, seconds, math.ceil(10 / (1 - q)) + 1, between=cold_starts)
        cold_starts(seconds)
        metrics = end_to_end(loop, q)
        metrics["setup_s"] = statistics.median(setups)
        result = {
            "attempted": len(warm["durations"]) + len(loop["durations"]),
            "failed": warm["failed"] + loop["failed"],
            "metrics": metrics,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
