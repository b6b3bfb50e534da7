"""The ROADMAP baseline sizes, timed in the benchmark's worker environment.

Run through ``python3 bench/run.py --baselines`` (which pins BLAS threads
and sets PYTHONPATH).  Prints one line per call: median and spread of
three wall-clock timings, and the verdict.
"""

from __future__ import annotations

import statistics
import sys
import time

from pqt import embedding as E
from pqt import oper as O
from pqt import states as S
from pqt import words as W

REPEATS = 3

CASES = (
    ("verify_coordinate_separation(4, 3)", lambda: E.verify_coordinate_separation(4, 3).passed),
    ("verify_support_bound(6, 2)", lambda: E.verify_support_bound(6, 2).passed),
    ("injectivity_rank(4, 2)", lambda: E.injectivity_rank(4, 2).passed),
    ("gram_psd_check(bcs, 264 words of m=2, k=2)", lambda: S.gram_psd_check(W.BCS, W.enumerate_words(2, 2, W.BCS)).psd),
    ("convergence_report(20) at dim 256", lambda: bool(O.convergence_report(20, O.RepConfig(dim=256)).rows)),
    ("convergence_report(20) at dim 512", lambda: bool(O.convergence_report(20, O.RepConfig(dim=512)).rows)),
)


def main() -> int:
    for name, call in CASES:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            ok = call()
            times.append(time.perf_counter() - t0)
        print(f"{name:45s} median {statistics.median(times):7.3f} s  min {min(times):7.3f}  max {max(times):7.3f}  ok={ok}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
