"""Acceptance gate: one test per criterion, each printing its pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact unless the criterion itself is a float one.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from pqt import words as W
from pqt.algebra import GaussianRational, ONE, ZERO, delta, linear_combine, unit
from pqt.cli import main, parse_element
from pqt.embedding import (
    Embedding,
    GammaSequence,
    injectivity_rank,
    inverse_search,
    verify_coordinate_separation,
    verify_support_bound,
)
from pqt.oper import (
    RepConfig,
    ShiftRepresentation,
    boundary_exactness_check,
    convergence_report,
    op_norm,
)
from pqt.states import FreeProductState, StateConfig, Vacuum, bc_moment, gram_psd_check, trace_f2
from oracles import bc_mul_by_rewriting, pw_mul_by_rewriting, random_element, random_word

B = W.BCElement
T = W.t

GAMMAS = [GammaSequence.reciprocal(), GammaSequence.constant(1), GammaSequence.scaled_inverse_square()]


def _done(number: int, name: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_infiniteness_witness(capsys):
    start = time.perf_counter()
    dp = delta(W.BCS, (W.P,))
    dq = delta(W.BCS, (W.Q,))
    assert dp * dq == unit(W.BCS)
    assert dq * dp == delta(W.BCS, (B(1, 1),))
    assert dq * dp != unit(W.BCS)
    assert main(["mul", "--universe", "bcs", "p", "q"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "1*e"
    assert main(["mul", "--universe", "bcs", "q", "p"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "1*q p"
    blocked = inverse_search(delta(W.BC, W.Q), "right", 6)
    assert not blocked.found
    found = inverse_search(delta(W.BC, W.P), "right", 1)
    assert found.found and found.solution == delta(W.BC, W.Q)
    _done(1, "infiniteness witness", start, 1.0)


def test_criterion_02_support_lemma():
    start = time.perf_counter()
    for gamma in GAMMAS:
        report = verify_support_bound(4, 2, gamma)
        assert report.passed and report.details["words_checked"] == 341
        report = verify_support_bound(3, 3, gamma)
        assert report.passed and report.details["words_checked"] == 259
    _done(2, "support lemma", start, 10.0)


def test_criterion_03_coordinate_lemma():
    start = time.perf_counter()
    for m in range(4):
        report = verify_coordinate_separation(m, 2)
        assert report.passed
        if m == 3:
            assert report.details["targets"] == 64
            assert report.details["candidates"] == 85
    for m in range(3):
        report = verify_coordinate_separation(m, 3)
        assert report.passed
    _done(3, "coordinate lemma", start, 30.0)


def test_criterion_04_injectivity_rank():
    start = time.perf_counter()
    report = injectivity_rank(3, 2)
    assert report.passed
    assert report.details["rank"] == 85 == report.details["dimension"]
    report = injectivity_rank(2, 3)
    assert report.passed
    assert report.details["rank"] == 43 == report.details["dimension"]
    _done(4, "injectivity rank", start, 60.0)


def test_criterion_05_homomorphism_and_recovery():
    start = time.perf_counter()
    rng = random.Random(1005)
    emb = Embedding()
    basis = W.enumerate_words(3, 2, W.SINF)

    def span_element():
        pairs = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), delta(W.SINF, rng.choice(basis))) for _ in range(3)]
        return linear_combine(pairs)

    for _ in range(500):
        x = span_element()
        y = span_element()
        assert emb.apply(x * y) == emb.apply(x) * emb.apply(y)
        assert emb.apply(x.star()) == emb.apply(x).star()
    generators = [W.FreeGen(n, s) for n in range(1, W.MAX_INDEX + 1) for s in (False, True)]
    assert len(generators) == 32
    for g in generators:
        assert emb.preimage(emb.generator_image(g)) == delta(W.SINF, (g,))
    _done(5, "homomorphism and recovery", start, 10.0)


def test_criterion_06_free_product_state():
    start = time.perf_counter()
    state = FreeProductState()
    for a in range(5):
        for b in range(5):
            moment = state.word_moment(W.normalize_items([B(a, b)]))
            expected = GaussianRational(Fraction(1, 2**a)) if a == b else ZERO
            assert moment == expected
    assert state.word_moment(W.normalize_items([W.Q, T(1), W.P])) == GaussianRational(Fraction(1, 4))
    rng = random.Random(1006)
    for _ in range(500):
        x = random_element(rng, W.BCS)
        assert state.moment(x.star()) == state.moment(x).conjugate()
    words = W.enumerate_words(2, 2, W.BCS)
    assert len(words) == 264
    assert gram_psd_check(W.BCS, words).psd
    assert gram_psd_check(W.BCS, words, StateConfig(s_state=Vacuum())).psd
    _done(6, "free-product state", start, 10.0)


def test_criterion_07_trace_suite():
    start = time.perf_counter()
    rng = random.Random(1007)
    for _ in range(500):
        x = random_element(rng, W.F2, max_len=4)
        y = random_element(rng, W.F2, max_len=4)
        assert trace_f2(x * y) == trace_f2(y * x)
    for _ in range(200):
        x = random_element(rng, W.F2, max_len=4)
        assert trace_f2(x.star() * x) == GaussianRational(sum(c.abs2() for c in x.terms.values()))
    basis = W.enumerate_words(4, 2, W.SINF)
    assert len(basis) == 341
    assert len({W.map_to_f2(w) for w in basis}) == 341
    # the generator images are positive words and a prefix code, so map_to_f2 is injective at every length
    images = [W.map_to_f2((W.FreeGen(n, s),)) for n in range(1, W.MAX_INDEX + 1) for s in (False, True)]
    assert len(set(images)) == 32 and all(e == 1 for image in images for _, e in image)
    assert not any(u != v and v[: len(u)] == u for u in images for v in images)
    _done(7, "trace suite", start, 5.0)


def test_criterion_08_numerical_convergence():
    start = time.perf_counter()
    cfg = RepConfig(dim=256, max_index=20)
    report = convergence_report(20, cfg)
    for row in report.rows:
        assert abs(row.n * row.norm_diff - 1.0) <= 1e-12
    assert boundary_exactness_check(4, cfg).passed
    rep = ShiftRepresentation(cfg)
    d = cfg.dim
    qp_defect = rep.forward_shift @ rep.backward_shift - np.eye(d)
    assert op_norm(qp_defect).value >= 1.0 - 1e-9
    pq_defect = rep.backward_shift @ rep.forward_shift - np.eye(d)
    assert np.linalg.matrix_rank(pq_defect) == 1
    _done(8, "numerical convergence", start, 30.0)


def test_criterion_09_word_kernel_oracles():
    start = time.perf_counter()
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for d in range(6):
                    assert W.bc_mul(B(a, b), B(c, d)) == bc_mul_by_rewriting(B(a, b), B(c, d))
    rng = random.Random(1009)
    for _ in range(2000):
        u = random_word(rng, W.BCS, max_len=4, max_index=3, max_exp=3)
        v = random_word(rng, W.BCS, max_len=4, max_index=3, max_exp=3)
        assert W.pw_mul(u, v) == pw_mul_by_rewriting(u, v)
    _done(9, "word kernel oracles", start, 10.0)


def test_criterion_10_cli_contract(capsys):
    start = time.perf_counter()

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out.strip()
        return code, json.loads(out)

    code, payload = run("mul", "--universe", "bcs", "p", "q")
    assert code == 0 and payload["result"] == "1*e"
    code, payload = run("normalize", "--universe", "bcs", "p q p q")
    assert code == 0 and payload["result"] == "1*e"
    code, payload = run("lemma-coord", "--m", "2", "--k", "2")
    assert code == 0 and payload["check"] == "coordinate-lemma" and payload["result"] == "pass"
    code, payload = run("inv-search", "--universe", "bc", "--side", "right", "--m", "6", "q")
    assert code == 1 and payload["result"] == "infeasible"
    code, payload = run("normalize", "--universe", "bcs", "w w")
    assert code == 2 and payload["result"] == "error"
    code, payload = run("no-such-command")
    assert code == 2
    code, payload = run("lemma-support", "--m", "50", "--k", "3")
    assert code == 3

    rng = random.Random(1010)
    for universe in W.UNIVERSES:
        for _ in range(50):
            el = random_element(rng, universe, terms=4)
            assert parse_element(el.render(), universe) == el
    _done(10, "cli contract", start, 5.0)
