"""Self-test of the answer checks: every job kind's correct answer passes,
and a deliberately corrupted copy of it is counted as failed.

Run through ``python3 bench/run.py --self-test`` (which sets PYTHONPATH).
"""

from __future__ import annotations

import sys

import workloads


def main() -> int:
    bad = 0
    for name, (build, _) in workloads.WORKLOADS.items():
        seen = set()
        for job in build(1):
            if job.kind in seen:
                continue
            seen.add(job.kind)
            answer = job.run()
            passes = job.check(answer)
            caught = not any(map(job.check, workloads.corruptions(job, answer)))
            bad += not (passes and caught)
            print(f"{name:12s} {job.kind:14s} correct answer passes: {passes}  every corrupted answer fails: {caught}")
    print("self-test:", "ok" if bad == 0 else f"{bad} kinds not checked properly")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
