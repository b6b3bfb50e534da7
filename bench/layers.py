"""The traced run: spans around the library's public functions, per-layer
counts, layer microbenchmarks, and the per-layer metrics built from them.

The tracer replaces public functions and methods of pqt with timing
wrappers for the duration of the traced phase and puts the originals back
afterwards; nothing under src/ changes.  Spans are kept in memory and
written out when the run ends, one JSON list per line:
[name, id, parent id (0: none), job, start, end], in seconds on the
tracer's clock.  Counter hooks run outside that clock: it stops while a
hook runs, so a hook's cost (for instance the LAPACK reference norm) shows
neither in spans nor in job times.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import pqt
from pqt import algebra as A
from pqt import cli as C
from pqt import embedding as E
from pqt import oper as O
from pqt import states as S
from pqt import words as W

import oracle as R

_MODULES = (pqt, W, A, E, S, O, C)

# counts that must repeat exactly between two traced runs on one seed are
# taken over the traced set-up, the first traced cycle and the probe
COUNTS = (
    "words.words_enumerated",
    "algebra.element_mul_term_pairs",
    "embedding.apply_calls",
    "embedding.image_terms",
    "embedding.eliminate_nnz",
    "embedding.eliminate_rank",
    "states.moment_entries",
    "states.distinct_moment_words",
    "oper.norm_calls",
    "oper.norm_iters",
    "oper.norm_bytes_computed",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, id, parent id or 0, job, start, end, child seconds)
        self.stack: list = []
        self.next_id = 0
        self.job = -1
        self.active = True  # off while the benchmark checks answers
        self.counting = True
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = {"states.psd_dim": 0, "states.psd_entry_bits": 0, "oper.norm_rel_err_max": 0.0}
        self.paused = 0.0  # seconds spent in hooks, taken off the clock
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._restore: list = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def count(self, name: str, n) -> None:
        if self.counting:
            self.counts[name] += n

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            tracer.next_id += 1
            # open span: [id, start, seconds covered by children]
            frame = [tracer.next_id, tracer.clock(), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = tracer.clock()
                if parent is not None:
                    parent[2] += end - frame[1]
                # a tuple of atoms: the collector stops tracking it, so a
                # long trace does not slow down full collections
                tracer.spans.append((name, frame[0], parent[0] if parent else 0, tracer.job, frame[1], end, frame[2]))
            if hook is not None:
                t0 = time.perf_counter()
                hook(tracer, args, result)
                tracer.paused += time.perf_counter() - t0
            return result

        return traced

    def wrap_function(self, module, attr: str, name: str, hook=None) -> None:
        orig = getattr(module, attr)
        traced = self._wrap(orig, name, hook)
        for mod in _MODULES:  # every module that imported the name by value
            if getattr(mod, attr, None) is orig:
                self._restore.append((mod, attr, orig))
                setattr(mod, attr, traced)

    def wrap_method(self, cls, attr: str, name: str, hook=None) -> None:
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, name, hook))

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self) -> None:
        self.wrap_function(W, "enumerate_words", "words.enumerate", _hook_enumerate)
        self.wrap_method(A.Element, "__mul__", "algebra.element_mul", _hook_element_mul)
        self.wrap_method(E.Embedding, "apply", "embedding.apply", _hook_apply)
        for attr in ("verify_support_bound", "verify_coordinate_separation", "injectivity_rank"):
            self.wrap_function(E, attr, "embedding.verifier")
        self.wrap_function(E, "sparse_rank", "embedding.eliminate", _hook_rank)
        self.wrap_function(E, "sparse_solve", "embedding.eliminate", _hook_solve)
        self.wrap_function(E, "inverse_search", "embedding.inverse_search")
        self.wrap_function(S, "gram_matrix", "states.gram_matrix", _hook_gram_matrix)
        self.wrap_function(S, "psd_decide", "states.psd", _hook_psd)
        self.wrap_function(O, "op_norm", "oper.norm", _hook_norm)
        self.wrap_method(O.ShiftRepresentation, "item_matrix", "oper.item_matrix")
        self.wrap_function(O, "boundary_exactness_check", "oper.boundary")
        self.wrap_function(C, "parse_element", "cli.parse")
        self.wrap_function(C, "parse_word", "cli.parse")
        self.wrap_method(A.Element, "render", "cli.render")
        self.wrap_function(C, "main", "cli.main")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, span_id, parent, job, start, end, _ in self.spans:
                fh.write(json.dumps([name, span_id, parent, job, start, end]) + "\n")

    def _durations(self, name: str, self_time=False) -> list:
        return [s[5] - s[4] - (s[6] if self_time else 0.0) for s in self.spans if s[0] == name]

    def mean(self, name: str, scale: float, self_time=False) -> float:
        values = self._durations(name, self_time)
        return statistics.fmean(values) * scale if values else 0.0


# -- counter hooks (run off the clock) -------------------------------------------


def _hook_enumerate(tr, args, result):
    tr.count("words.words_enumerated", len(result))


def _hook_element_mul(tr, args, result):
    if isinstance(args[1], A.Element):
        tr.count("algebra.element_mul_term_pairs", len(args[0].terms) * len(args[1].terms))


def _hook_apply(tr, args, result):
    tr.count("embedding.apply_calls", 1)
    tr.count("embedding.image_terms", len(result.terms))


def _hook_rank(tr, args, result):
    tr.count("embedding.eliminate_nnz", sum(map(len, args[0])))
    tr.count("embedding.eliminate_rank", result)


def _hook_solve(tr, args, result):
    tr.count("embedding.eliminate_nnz", sum(map(len, args[0])))
    tr.count("embedding.eliminate_rank", result[1])


def _hook_gram_matrix(tr, args, result):
    universe, words = args[0], args[1]
    n = len(words)
    tr.count("states.moment_entries", n * (n + 1) // 2)
    if universe == W.BCS:
        tokens = [R.library_word_tokens(w) for w in words]
        distinct = {R.reduce_word(R.star_word(tokens[i], "bcs") + tokens[j], "bcs") for i in range(n) for j in range(i, n)}
        tr.count("states.distinct_moment_words", len(distinct))


def _hook_psd(tr, args, result):
    gram = args[0]
    tr.peak("states.psd_dim", len(gram))
    if gram and all(e.im == 0 for row in gram for e in row):
        scale = math.lcm(*(e.re.denominator for row in gram for e in row))
        tr.peak("states.psd_entry_bits", max(abs(int(e.re * scale)).bit_length() for row in gram for e in row))


def _hook_norm(tr, args, result):
    a = np.asarray(args[0])
    tr.count("oper.norm_calls", 1)
    tr.count("oper.norm_iters", result.iterations)
    tr.count("oper.norm_bytes_computed", result.iterations * a.shape[0] ** 2 * 16)
    tr.peak("oper.norm_rel_err_max", R.relative_gap(result.value, float(np.linalg.norm(a, 2))))


# -- the probe: one small call into every layer ------------------------------------


def probe() -> None:
    """Small fixed calls, so every traced run has spans in every layer."""
    x = C.parse_element("1/2*t1 + t2* t1", W.SINF)
    emb = E.Embedding()
    emb.apply(x * x)
    E.verify_coordinate_separation(2, 2)
    E.injectivity_rank(2, 1)
    E.inverse_search(A.delta(W.BC, W.P), "right", 2)
    S.gram_psd_check(W.BCS, W.enumerate_words(1, 1, W.BCS))
    cfg = O.RepConfig(dim=64)
    O.convergence_report(1, cfg)
    O.boundary_exactness_check(2, cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        C.main(["mul", "--universe", "bcs", "p", "q"])


# -- microbenchmarks --------------------------------------------------------------


def _ns_per_call(fn, args_list: list, repeats: int = 7) -> float:
    """Median over repeats of the mean time per call, in ns."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times) * 1e9


def microbenchmarks(seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    words = W.enumerate_words(2, 2, W.BCS)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(4000)]
    singles = [(W.BCS, rng.choice(words)) for _ in range(4000)]

    def scalar(complex_part: bool):
        im = Fraction(rng.randint(1, 9), rng.randint(1, 99)) if complex_part else 0
        return A.GaussianRational(Fraction(rng.randint(1, 99), rng.randint(1, 99)), im)

    reals = [(scalar(False), scalar(False)) for _ in range(4000)]
    complexes = [(scalar(True), scalar(True)) for _ in range(4000)]
    mul = A.GaussianRational.__mul__
    return {
        "words.pw_mul_ns": _ns_per_call(W.pw_mul, pairs),
        "words.sort_key_ns": _ns_per_call(W.word_sort_key, singles),
        "algebra.scalar_mul_real_ns": _ns_per_call(mul, reals),
        "algebra.scalar_mul_complex_ns": _ns_per_call(mul, complexes),
        "algebra.scalar_add_ns": _ns_per_call(A.GaussianRational.__add__, complexes),
    }


def cli_cold_start_ms(env: dict, runs: int = 5) -> float:
    argv = [sys.executable, "-m", "pqt.cli", "mul", "--universe", "bcs", "p", "q"]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


# -- per-layer metrics ---------------------------------------------------------------

# name -> unit, for every per-layer metric the traced run prints
UNITS = {
    "words.enumerate_ms": "ms",
    "words.words_enumerated": "count",
    "words.pw_mul_ns": "ns",
    "words.sort_key_ns": "ns",
    "algebra.scalar_mul_real_ns": "ns",
    "algebra.scalar_mul_complex_ns": "ns",
    "algebra.scalar_add_ns": "ns",
    "algebra.element_mul_us": "us",
    "algebra.element_mul_term_pairs": "count",
    "embedding.apply_ms": "ms",
    "embedding.apply_calls": "count",
    "embedding.image_terms": "count",
    "embedding.verifier_self_ms": "ms",
    "embedding.eliminate_ms": "ms",
    "embedding.eliminate_nnz": "count",
    "embedding.eliminate_rank": "count",
    "embedding.inverse_search_ms": "ms",
    "states.gram_matrix_ms": "ms",
    "states.moment_entries": "count",
    "states.distinct_moment_words": "count",
    "states.psd_ms": "ms",
    "states.psd_dim": "count",
    "states.psd_entry_bits": "bits",
    "oper.norm_ms": "ms",
    "oper.norm_calls": "count",
    "oper.norm_iters": "count",
    "oper.norm_bytes_computed": "bytes",
    "oper.norm_rel_err_max": "ratio",
    "oper.item_matrix_ms": "ms",
    "oper.boundary_ms": "ms",
    "cli.parse_us": "us",
    "cli.render_us": "us",
    "cli.request_self_us": "us",
    "cli.cold_start_ms": "ms",
    "runtime.gc_pause_ms": "ms",
    "runtime.gc_collections": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(tr: Tracer, traced_cycles: int) -> dict:
    """Per-call mean times over every traced span, and the frozen counts."""
    ms, us = 1e3, 1e6
    out = {
        "words.enumerate_ms": tr.mean("words.enumerate", ms),
        "algebra.element_mul_us": tr.mean("algebra.element_mul", us),
        "embedding.apply_ms": tr.mean("embedding.apply", ms),
        "embedding.verifier_self_ms": tr.mean("embedding.verifier", ms, self_time=True),
        "embedding.eliminate_ms": tr.mean("embedding.eliminate", ms),
        "embedding.inverse_search_ms": tr.mean("embedding.inverse_search", ms),
        "states.gram_matrix_ms": tr.mean("states.gram_matrix", ms),
        "states.psd_ms": tr.mean("states.psd", ms),
        "oper.norm_ms": tr.mean("oper.norm", ms),
        "oper.item_matrix_ms": tr.mean("oper.item_matrix", ms),
        "oper.boundary_ms": tr.mean("oper.boundary", ms),
        "cli.parse_us": tr.mean("cli.parse", us),
        "cli.render_us": tr.mean("cli.render", us),
        "cli.request_self_us": tr.mean("cli.main", us, self_time=True),
        "runtime.gc_pause_ms": tr.gc_pause * ms / traced_cycles,
        "runtime.gc_collections": tr.gc_collections / traced_cycles,
    }
    out.update(tr.counts)
    out.update(tr.maxima)
    return out
