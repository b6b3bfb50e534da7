"""Benchmark entry point for pqt.  Run from the root of a checkout:

    python3 bench/run.py --workload checks --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --baselines

Workloads: checks, interactive (see bench/README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The run's
environment and result are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("checks", "interactive")
COLD_STARTS = 14  # set-up-only worker processes; the measuring worker adds one more
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".bench_out"
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_tail": "ms", "peak_rss_mb": "MiB"}


def worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS/OpenMP thread: reproducible reduction order and no start-up spikes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def call_worker(env: dict, flags: list, timeout: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py")] + flags
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(flags)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy

    head = ".git/HEAD"
    sha = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: ") and os.path.isfile(os.path.join(".git", ref[5:])):
            with open(os.path.join(".git", ref[5:])) as fh:
                sha = fh.read().strip()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that corrupted answers are counted as failed")
    ap.add_argument("--baselines", action="store_true", help="time the ROADMAP baseline sizes")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "pqt", "__init__.py")):
        print("bench/run.py: no src/pqt here; run it from the root of a pqt checkout", file=sys.stderr)
        return 2
    env = worker_env()
    # the build: byte-compile once, so no timed import pays for compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE], env=env, check=True, timeout=120)
    if args.self_test or args.baselines:
        script = "selftest.py" if args.self_test else "baselines.py"
        return subprocess.run([sys.executable, os.path.join(HERE, script)], env=env, timeout=600).returncode
    if args.workload is None:
        ap.error("--workload is required")

    flags = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", OUT]
    if args.trace:
        result = call_worker(env, flags + ["--trace", "1"], timeout=150)
    else:
        result = call_worker(env, flags + ["--cold-starts", str(COLD_STARTS)], timeout=150)
        result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in UNITS.items()}

    final = {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": result["metrics"]}
    record = {"environment": environment(args.seed), "workload": args.workload, "trace": args.trace, "result": final}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
