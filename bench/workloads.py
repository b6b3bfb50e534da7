"""The two workloads: seeded inputs, the jobs run on them, and their checks.

``checks`` joins three parts, each with its own seeded inputs: the
embedding verifiers and homomorphism rounds (``filtration``), exact Gram
PSD checks (``gram``) and the truncated-shift numerics (``shift``).
``interactive`` sends small requests through the command line.

``build(seed)`` returns one cycle: a list of jobs that covers every job kind
of the workload in fixed proportions.  A run repeats whole cycles, so every
run has the same mix.  The seed only picks the concrete inputs inside each
kind; sizes and shapes are fixed, so the amount of work hardly depends on
the seed.  Everything that touches the library goes through module
attributes (``E.verify_support_bound``, not an imported name), so the traced
run sees those calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import numpy as np

from pqt import cli as C
from pqt import embedding as E
from pqt import oper as O
from pqt import states as S
from pqt import words as W
from pqt.algebra import Element, GaussianRational

import oracle as R


class Job:
    __slots__ = ("kind", "run", "check", "parts")

    def __init__(self, kind, run, check, parts=()):
        self.kind = kind
        self.run = run  # () -> answer; the only timed part
        self.check = check  # answer -> bool
        self.parts = parts  # the jobs a joined job runs in turn


def _joined(parts: list) -> Job:
    """One job that runs ``parts`` in turn, so that its size matches the
    other kinds of its workload; its answer is the list of their answers."""

    def check(answer) -> bool:
        return len(answer) == len(parts) and all(p.check(a) for p, a in zip(parts, answer))

    return Job("+".join(p.kind for p in parts), lambda: [p.run() for p in parts], check, tuple(parts))


def _ratio(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A positive rational a/b with both parts drawn from [lo, hi]."""
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


# Seeded weights of fixed bit size: a ratio of two distinct primes never
# reduces, so every seed pays for the same size of numbers.
PRIMES_7BIT = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)


def _prime_ratio(rng: random.Random, numerators=PRIMES_7BIT, denominators=PRIMES_7BIT) -> Fraction:
    a = rng.choice(numerators)
    return Fraction(a, rng.choice([b for b in denominators if b != a]))


def _gen(token: str):
    if token == "p":
        return W.P
    if token == "q":
        return W.Q
    return W.t(int(token[1:].rstrip("*")), token.endswith("*"))


def library_word(tokens) -> tuple:
    return W.normalize_items(_gen(tok) for tok in tokens)


def library_element(el: dict, universe: str) -> Element:
    return Element(universe, {library_word(w): GaussianRational(*c) for w, c in el.items()})


# -- checks / filtration: the embedding verifiers and homomorphism rounds ---------

# (kind, verifier in pqt.embedding, m, k); looked up at call time for tracing
FILTRATION_VERIFIERS = (
    ("support", "verify_support_bound", 3, 5),
    ("coord", "verify_coordinate_separation", 3, 3),
    ("rank", "injectivity_rank", 2, 6),
)
# rounds per homomorphism job: around one verifier call, and spread, so the
# median job falls inside the verifiers' cluster rather than on its edge
HOM_ROUNDS = (45, 65, 85)
HOM_POOL = 48


def _seeded_gamma(rng: random.Random) -> E.GammaSequence:
    c = _prime_ratio(rng)
    return E.GammaSequence(lambda n: c / n, f"{c}/n")


def _check_verifier(kind: str, m: int, k: int):
    words = R.count_free_words(m, k)

    def check(report) -> bool:
        d = report.details
        if report.result != "pass" or report.counterexample is not None:
            return False
        if kind == "support":
            return d["words_checked"] == words
        if kind == "coord":
            return d["candidates"] == words and d["targets"] == (2 * k) ** m
        return d["rank"] == d["dimension"] == words

    return check


def build_filtration(seed: int) -> list:
    rng = random.Random(f"filtration:{seed}")
    # fixed shapes: three distinct length-2 words and prime-ratio weights, so
    # every product x*y has nine length-4 words and every seed does one amount of work
    words = [w for w in W.enumerate_words(2, 3, W.SINF) if len(w) == 2]
    pool = []
    for _ in range(HOM_POOL):
        el = {R.library_word_tokens(w): (_prime_ratio(rng) * rng.choice((1, -1)), R.F0) for w in rng.sample(words, 3)}
        pool.append((el, library_element(el, W.SINF)))
    gamma = _seeded_gamma(rng)
    emb = E.Embedding(gamma)  # long-lived: its word-image cache stays warm

    def hom_job(pairs):
        def run():
            out = []
            for (_, x), (_, y) in pairs:
                xy = x * y
                ax = emb.apply(x)
                out.append((xy, emb.apply(xy), ax * emb.apply(y), ax))
            return out

        def check(answer) -> bool:
            for ((tx, _), (ty, _)), (xy, lhs, rhs, ax) in zip(pairs, answer):
                if lhs != rhs or R.library_element(xy) != R.mul(tx, ty, "sinf"):
                    return False
                if R.library_element(ax) != R.phi(tx, gamma):
                    return False
            return len(answer) == len(pairs)

        return Job("hom", run, check)

    cycle = []
    for rounds in HOM_ROUNDS:
        for kind, name, m, k in FILTRATION_VERIFIERS:
            g = _seeded_gamma(rng)
            cycle.append(Job(kind, lambda name=name, m=m, k=k, g=g: getattr(E, name)(m, k, g), _check_verifier(kind, m, k)))
        cycle.append(hom_job([(rng.choice(pool), rng.choice(pool)) for _ in range(rounds)]))
    return cycle


# -- checks / gram: exact PSD checks of free-product states -----------------------

SHALLOW_PER_PATTERN = 12  # length-2 words, k = 2: patterns FF, FB, BF
DEEP_PER_PATTERN = 5  # length-3 words, k = 1: patterns FFF, FFB, FBF, BFF, BFB
GRAM_REPEATS = 6
GRAM_SAMPLE = 6  # words per sampled sub-Gram checked against the closed form
PSD_JOBS = 2
PSD_DIM = 32
PSD_PER_JOB = 6
PSD_TAIL = 3  # an indefinite matrix's negative direction lives on its last indices


def _by_pattern(words) -> list:
    groups: dict = {}
    for w in words:
        groups.setdefault(tuple(isinstance(it, W.BCElement) for it in w), []).append(w)
    return [groups[key] for key in sorted(groups)]


def _stratified(rng: random.Random, groups: list, per_group: int) -> list:
    chosen = [w for g in groups for w in rng.sample(g, per_group)]
    rng.shuffle(chosen)
    return chosen


def _check_gram(words: list, z: Fraction, cfg, rng: random.Random):
    tokens = [R.library_word_tokens(w) for w in words]
    rendered = [" ".join(t) or "e" for t in tokens]
    sample = rng.sample(range(len(words)), GRAM_SAMPLE)

    def check(report) -> bool:
        if not report.psd or report.words != rendered:
            return False
        sub = S.gram_matrix(W.BCS, [words[i] for i in sample], S.FreeProductState(cfg))
        for a, i in enumerate(sample):
            for b, j in enumerate(sample):
                expect = R.closed_form_moment(R.reduce_word(R.star_word(tokens[i], "bcs") + tokens[j], "bcs"), z)
                if sub[a][b] != GaussianRational(expect) or sub[a][b] != sub[b][a].conjugate():
                    return False
        return True

    return check


def _psd_inputs(rng: random.Random) -> list:
    """Seeded integer symmetric matrices: PSD, singular PSD, and indefinite."""
    out = []
    for variant in ("psd", "singular", "indefinite", "indefinite", "psd", "indefinite")[:PSD_PER_JOB]:
        rank = PSD_DIM - 4 if variant == "singular" else PSD_DIM
        b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(PSD_DIM)]
        m = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(PSD_DIM)] for i in range(PSD_DIM)]
        if variant == "indefinite":
            # elimination meets the negative pivot only near the end, so
            # every seed pays for a nearly complete elimination
            v = [0] * (PSD_DIM - PSD_TAIL) + [rng.choice((-1, 0, 1)) for _ in range(PSD_TAIL)]
            v[-1] = 1
            vmv = sum(v[i] * m[i][j] * v[j] for i in range(PSD_DIM) for j in range(PSD_DIM))
            c = 2 * vmv // sum(x * x for x in v) ** 2 + 1  # v^T (m - c v v^T) v < 0
            m = [[m[i][j] - c * v[i] * v[j] for j in range(PSD_DIM)] for i in range(PSD_DIM)]
        out.append((m, [[GaussianRational(x) for x in row] for row in m]))
    rng.shuffle(out)
    return out


def _psd_job(mats: list) -> Job:
    def run():
        return [S.psd_decide(g) for _, g in mats]

    def check(answer) -> bool:
        for (m, _), (psd, minor) in zip(mats, answer):
            if psd != R.numpy_is_psd(m):
                return False
            if not psd and R.numpy_is_psd([[m[i][j] for j in minor] for i in minor]):
                return False
        return len(answer) == len(mats)

    return Job("psd", run, check)


def build_gram(seed: int) -> list:
    rng = random.Random(f"gram:{seed}")
    shallow = _by_pattern(w for w in W.enumerate_words(2, 2, W.BCS) if len(w) == 2)
    deep = _by_pattern(w for w in W.enumerate_words(3, 1, W.BCS) if len(w) == 3)
    cycle = []
    for _ in range(GRAM_REPEATS):
        for depth, groups, per in (("shallow", shallow, SHALLOW_PER_PATTERN), ("deep", deep, DEEP_PER_PATTERN)):
            # one job checks one word set under a seeded character and under
            # the vacuum, which alone would be three times cheaper
            words = _stratified(rng, groups, per)
            z = _prime_ratio(rng, (2, 3, 5, 7), (11, 13, 17, 19))
            states = [(z, S.StateConfig(s_state=S.Character(z))), (R.F0, S.StateConfig(s_state=S.Vacuum()))]
            checks = [_check_gram(words, zz, cfg, rng) for zz, cfg in states]
            run = lambda words=words, states=states: [S.gram_psd_check(W.BCS, words, cfg) for _, cfg in states]
            check = lambda answer, checks=checks: len(answer) == len(checks) and all(c(a) for c, a in zip(checks, answer))
            cycle.append(Job(depth, run, check))
    cycle += [_psd_job(_psd_inputs(rng)) for _ in range(PSD_JOBS)]
    return cycle


# -- checks / shift: the truncated-shift sidecar -----------------------------------

SHIFT_DIM = 256
CONVERGENCE_COUNT = 2
BOUNDARY_WINDOW = 3
SHIFT_REPEATS = 2  # convergence and boundary jobs per cycle
NORM_JOBS = 8  # per cycle
NORM_ELEMENTS = 3  # seeded elements per norm job
NORM_REL_TOL = 1e-6  # op_norm against LAPACK's 2-norm; the gap seen is <= 4e-8
CONVERGENCE_REL_TOL = 1e-6  # ||a_n - p|| against 1/n


def _check_convergence(report) -> bool:
    if report.dim != SHIFT_DIM or len(report.rows) != CONVERGENCE_COUNT:
        return False
    return all(r.iterations > 0 and R.relative_gap(r.norm_diff, 1.0 / r.n) <= CONVERGENCE_REL_TOL for r in report.rows)


def _check_boundary(report) -> bool:
    words = (BOUNDARY_WINDOW + 1) * (BOUNDARY_WINDOW + 2) // 2
    return report.passed and report.words_checked == words and report.vectors_checked == SHIFT_DIM - 2 * BOUNDARY_WINDOW


def _norm_element(rng: random.Random, n: int) -> Element:
    # c1 t_n + c2 t_m* with a small c2: the power iteration's count is then
    # set by n (250-520 at dim 256), and each cycle holds every n equally
    # often.  Adding p, or a larger c2, spreads it over 140-1900.
    el = {
        (f"t{n}",): (Fraction(rng.randint(5, 9), rng.randint(10, 19)), R.F0),
        (f"t{rng.randint(1, 8)}*",): (Fraction(rng.randint(1, 2), rng.randint(15, 19)), R.F0),
    }
    return library_element(el, W.BCS)


def build_shift(seed: int) -> list:
    rng = random.Random(f"shift:{seed}")
    cfg = O.RepConfig(dim=SHIFT_DIM)
    rep = O.ShiftRepresentation(O.RepConfig(dim=SHIFT_DIM, max_index=8))

    def norm_job(xs):
        def run():
            return [(a, O.op_norm(a)) for a in map(rep.matrix, xs)]

        def check(answer) -> bool:
            gaps = [R.relative_gap(res.value, float(np.linalg.norm(a, 2))) for a, res in answer]
            return len(gaps) == len(xs) and max(gaps) <= NORM_REL_TOL

        return Job("norm", run, check)

    cycle = [
        Job("convergence", lambda: O.convergence_report(CONVERGENCE_COUNT, cfg), _check_convergence),
        Job("boundary", lambda: O.boundary_exactness_check(BOUNDARY_WINDOW, cfg), _check_boundary),
    ] * SHIFT_REPEATS
    ns = list(range(1, 9)) * (NORM_JOBS * NORM_ELEMENTS // 8)
    rng.shuffle(ns)
    elements = [_norm_element(rng, n) for n in ns]
    cycle += [norm_job(elements[i : i + NORM_ELEMENTS]) for i in range(0, len(elements), NORM_ELEMENTS)]
    return cycle


# -- checks: the three parts in one cycle ------------------------------------------


def _pairs(jobs: list) -> list:
    return [_joined(jobs[i : i + 2]) for i in range(0, len(jobs), 2)]


def build_checks(seed: int) -> list:
    """``filtration`` jobs as they are; ``gram`` and ``shift`` jobs, each
    about half a ``filtration`` job, joined in pairs, so that every kind
    takes 80-180 ms on the reference machine."""
    return build_filtration(seed) + _pairs(build_gram(seed)) + _pairs(build_shift(seed))


# -- interactive: small requests through the command line -------------------------

_LETTERS = {
    "bc": ("p", "q"),
    "bcs": ("p", "q", "t1", "t1*", "t2", "t2*"),
    "sinf": ("t1", "t1*", "t2", "t2*", "t3", "t3*"),
    "f2": ("x", "x-", "y", "y-"),
}
_GAMMAS = {"1/n": lambda n: Fraction(1, n), "1": lambda n: Fraction(1), "3/(2n^2)": lambda n: Fraction(3, 2 * n * n), "const": None}

# kind -> requests per cycle.  A request's position within its kind fixes
# its universe, gamma family, state or inverse-search case, so every seed
# sends the same mix.
INTERACTIVE_MIX = {
    "mul": 4,
    "star": 3,
    "normalize": 4,
    "coord": 4,
    "phi": 4,
    "moment": 4,
    "trace": 4,
    "lemma-support": 2,
    "rank": 2,
    "inv-search": 20,
}

# (universe, side, element template, m, a solution exists); c is a seeded scalar
_INVERSE_CASES = (
    ("bc", "right", "{c}*p", 3, True),
    ("bc", "right", "{c}*q", 3, False),
    ("bc", "left", "{c}*q", 3, True),
    ("bc", "left", "{c}*p", 3, False),
    ("bcs", "right", "{c}*p", 1, True),
    ("bcs", "left", "{c}*q", 1, True),
    ("bcs", "right", "1*e + {c}*t{i}", 1, False),
    ("bcs", "left", "1*e + {c}*t{i}", 1, False),
    ("sinf", "right", "{c}*e", 2, True),
    ("sinf", "left", "1*e + {c}*t{i}", 2, False),
)


def _random_element(rng: random.Random, universe: str, terms: int, max_len: int, complex_ok=False) -> dict:
    """The first coefficient is positive: argparse takes an argument that
    starts with '-' for an option (see the FOUND line in CHANGES.md)."""
    el: dict = {}
    for i in range(terms):
        word = tuple(rng.choice(_LETTERS[universe]) for _ in range(rng.randint(1, max_len)))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 5)) if complex_ok else R.F0
        sign = rng.choice((1, -1)) if el else 1
        el.setdefault(word, (Fraction(sign * rng.randint(1, 9), rng.randint(1, 9)), im))
    return el


def _cli_job(kind: str, argv: list, expect) -> Job:
    """expect(code, payload) -> bool, on the parsed stdout JSON."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = C.main(argv)
        return code, out.getvalue()

    def check(answer) -> bool:
        code, text = answer
        try:
            payload = json.loads(text)
        except ValueError:
            return False
        return expect(code, payload)

    return Job(kind, run, check)


def _request(rng: random.Random, kind: str, index: int) -> Job:
    if kind in ("mul", "star", "normalize", "coord"):
        uni = ("bc", "bcs", "sinf", "f2")[index % 4]  # star has no f2 request
        x = _random_element(rng, uni, 3, 3, complex_ok=kind == "star")
        if kind == "mul":
            y = _random_element(rng, uni, 2, 3)
            argv = ["mul", "--universe", uni, R.format_element(x), R.format_element(y)]
            want = R.mul(x, y, uni)
        elif kind == "star":
            argv, want = ["star", "--universe", uni, R.format_element(x)], R.star(x, uni)
        elif kind == "normalize":
            argv, want = ["normalize", "--universe", uni, R.format_element(x)], R.normalize(x, uni)
        else:
            word = R.reduce_word(rng.choice(list(x)), uni)
            coeff = R.normalize(x, uni).get(word, (R.F0, R.F0))
            argv = ["coord", "--universe", uni, R.format_element(x), "--word", " ".join(word) or "e"]
            return _cli_job(kind, argv, lambda code, p: code == 0 and R.parse_scalar(p["result"]) == coeff)
        return _cli_job(kind, argv, lambda code, p: code == 0 and R.parse_rendered(p["result"], uni) == want)
    if kind == "phi":
        x = _random_element(rng, "sinf", 2, 3)
        name = list(_GAMMAS)[index % len(_GAMMAS)]
        if name == "const":
            c = _ratio(rng, 2, 9)
            name, gamma = f"const:{c}", lambda n, c=c: c
        else:
            gamma = _GAMMAS[name]
        want = R.phi(x, gamma)
        argv = ["phi", R.format_element(x), "--gamma", name]
        return _cli_job(kind, argv, lambda code, p: code == 0 and R.parse_rendered(p["result"], "bcs") == want)
    if kind == "moment":
        x = _random_element(rng, "bcs", 3, 5)
        if index % 2:
            z, flags = R.F0, ["--vacuum"]
        else:
            z = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            flags = ["--z", str(z)]
        want = R.element_moment(x, z)
        argv = ["moment", R.format_element(x)] + flags
        return _cli_job(kind, argv, lambda code, p: code == 0 and R.parse_scalar(p["result"]) == want)
    if kind == "trace":
        x = _random_element(rng, "f2", 4, 4)
        want = R.normalize(x, "f2").get((), (R.F0, R.F0))
        return _cli_job(kind, ["trace", R.format_element(x)], lambda code, p: code == 0 and R.parse_scalar(p["result"]) == want)
    if kind in ("lemma-support", "rank"):
        k = 1 + index % 2  # one request at each k per cycle
        words = R.count_free_words(2, k)
        argv = [kind, "--m", "2", "--k", str(k), "--gamma", f"const:{_prime_ratio(rng)}"]
        if kind == "rank":
            return _cli_job(kind, argv, lambda code, p: code == 0 and p["result"] == "pass" and p["rank"] == p["dimension"] == words)
        return _cli_job(kind, argv, lambda code, p: code == 0 and p["result"] == "pass" and p["words_checked"] == words)
    return _inverse_request(rng, _INVERSE_CASES[index % len(_INVERSE_CASES)])


def _inverse_request(rng: random.Random, case: tuple) -> Job:
    uni, side, template, m, solvable = case
    text = template.format(c=_ratio(rng, 1, 9), i=rng.randint(1, 3))
    a = R.parse_rendered(text, uni)
    argv = ["inv-search", "--universe", uni, "--side", side, "--m", str(m), text]

    def expect(code, p) -> bool:
        if not solvable:
            return code == 1 and p["result"] == "infeasible" and p["rank_augmented"] > p["rank"]
        if code != 0 or p["result"] != "found":
            return False
        x = R.parse_rendered(p["solution"], uni)
        back = R.mul(a, x, uni) if side == "right" else R.mul(x, a, uni)
        return back == {(): R.ONE}

    return _cli_job("inv-search", argv, expect)


def build_interactive(seed: int) -> list:
    rng = random.Random(f"interactive:{seed}")
    cycle = [_request(rng, kind, i) for kind, n in INTERACTIVE_MIX.items() for i in range(n)]
    rng.shuffle(cycle)
    return cycle


# -- registry ------------------------------------------------------------------

# name -> (build, percentile reported as job_ms_tail)
WORKLOADS = {
    "checks": (build_checks, 0.90),
    "interactive": (build_interactive, 0.99),
}


def corruptions(job: Job, answer) -> list:
    """Deliberately wrong copies of ``answer``, for the self-test."""
    import dataclasses

    if job.parts:  # corrupt one part's answer at a time
        return [answer[:i] + [bad] + answer[i + 1 :] for i, part in enumerate(job.parts) for bad in corruptions(part, answer[i])]
    if isinstance(answer, E.CheckReport):
        key = next(k for k, v in answer.details.items() if isinstance(v, int))
        return [dataclasses.replace(answer, details={**answer.details, key: answer.details[key] + 1})]
    if isinstance(answer, O.ConvergenceReport):
        rows = [dataclasses.replace(r, norm_diff=r.norm_diff * 1.001) for r in answer.rows]
        return [dataclasses.replace(answer, rows=rows)]
    if isinstance(answer, O.BoundaryReport):
        return [dataclasses.replace(answer, words_checked=answer.words_checked + 1)]
    if job.kind in ("shallow", "deep"):
        return [[dataclasses.replace(answer[0], psd=not answer[0].psd)] + answer[1:]]
    if job.kind == "psd":
        return [[(True, None)] * len(answer)]  # a decider that always says PSD
    if job.kind == "norm":
        a, res = answer[0]
        return [[(a, res._replace(value=res.value * (1 + 1e-4)))] + answer[1:]]
    if job.kind == "hom":
        xy, lhs, rhs, ax = answer[0]
        return [[(xy, lhs, rhs, ax.scale(2))] + answer[1:]]
    # a command-line request: a wrong exit code, and a wrong payload
    code, text = answer
    payload = json.loads(text)
    if "solution" in payload:
        payload["solution"] = "0*e"
    elif payload["result"] in ("pass", "infeasible"):
        payload["result"] = "fail" if payload["result"] == "pass" else "found"
    elif job.kind in ("coord", "moment", "trace"):
        payload["result"] = str(R.parse_scalar(payload["result"])[0] + 1)
    else:
        payload["result"] += " + 1*e"
    return [(1 - code, text), (code, json.dumps(payload))]
