"""The weighted embedding, its verifiers, and the inverse searches."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from pqt import words as W
from pqt.algebra import Element, GaussianRational, ONE, delta, linear_combine, unit, zero
from pqt.embedding import (
    ElementMatrix,
    Embedding,
    GammaSequence,
    gamma_by_name,
    injectivity_rank,
    inverse_search,
    mat_mul,
    verify_coordinate_separation,
    verify_support_bound,
)
from pqt.errors import UniverseMismatch
from oracles import (
    coordinate_separation_pairwise,
    dense_rank,
    inverse_system_counts,
    patch_word_images,
    phi_by_expansion,
    random_element,
    support_bound_by_expansion,
)

B = W.BCElement
T = W.t

GAMMAS = [GammaSequence.reciprocal(), GammaSequence.constant(1), GammaSequence.scaled_inverse_square()]


def test_gamma_sequences():
    assert GammaSequence.reciprocal()(4) == Fraction(1, 4)
    assert GammaSequence.constant(1)(9) == 1
    assert GammaSequence.scaled_inverse_square()(2) == Fraction(3, 8)
    with pytest.raises(ValueError):
        GammaSequence(lambda n: Fraction(-1), "bad")(1)
    assert gamma_by_name("1/n")(3) == Fraction(1, 3)
    assert gamma_by_name("3/(2n^2)")(1) == Fraction(3, 2)
    assert gamma_by_name("const:2/7")(5) == Fraction(2, 7)
    with pytest.raises(ValueError):
        gamma_by_name("n^2")
    with pytest.raises(ValueError) as err:
        gamma_by_name(" const:1/0")
    assert str(err.value) == "zero denominator in gamma 'const:1/0'"


def test_gamma_constant_refuses_a_float():
    with pytest.raises(TypeError, match="not float"):
        GammaSequence.constant(0.1)
    tenth = Embedding(GammaSequence.constant(Fraction(1, 10)))
    assert tenth.apply(delta(W.SINF, (T(1),))).render() == "1*p + 1/10*t1"


def test_gamma_constant_refuses_a_non_positive_value_when_built():
    for value in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError, match=f"gamma constant {value} must be positive"):
            GammaSequence.constant(value)
    with pytest.raises(ValueError, match="gamma constant -1 must be positive"):
        gamma_by_name("const:-1")


def test_gamma_call_refuses_a_float_weight():
    with pytest.raises(TypeError, match="not float"):
        GammaSequence(lambda n: 0.3, "x")(2)
    assert GammaSequence(lambda n: Fraction(3, 10), "3/10")(2) == Fraction(3, 10)


def test_generator_images():
    emb = Embedding(GammaSequence.constant(1))
    assert emb.generator_image(T(1)) == delta(W.BCS, (W.P,)) + delta(W.BCS, (T(1),))
    assert emb.generator_image(T(1, True)) == delta(W.BCS, (W.Q,)) + delta(W.BCS, (T(1, True),))
    default = Embedding()
    expected = delta(W.BCS, (W.P,)) + delta(W.BCS, (T(2),)).scale(Fraction(1, 2))
    assert default.generator_image(T(2)) == expected
    # the image of a starred generator is the star of the image
    for n in (1, 3, 5):
        img = default.generator_image(T(n))
        assert default.generator_image(T(n, True)) == img.star()


def test_apply_pinned_expansions():
    emb = Embedding()
    assert emb.apply(unit(W.SINF)) == unit(W.BCS)
    image = emb.apply(delta(W.SINF, (T(1), T(2))))
    expected = (
        delta(W.BCS, (B(0, 2),))
        + delta(W.BCS, (W.P, T(2))).scale(Fraction(1, 2))
        + delta(W.BCS, (T(1), W.P))
        + delta(W.BCS, (T(1), T(2))).scale(Fraction(1, 2))
    )
    assert image == expected
    image = emb.apply(delta(W.SINF, (T(1, True), T(1))))
    assert len(image.terms) == 4
    assert image.coordinate((B(1, 1),)) == ONE  # the qp block does not cancel


def test_apply_is_a_star_homomorphism_on_random_pairs():
    rng = random.Random(201)
    emb = Embedding()
    basis = W.enumerate_words(3, 2, W.SINF)
    for _ in range(200):
        x = linear_combine([(rng.randint(-3, 3), delta(W.SINF, rng.choice(basis))) for _ in range(3)])
        y = linear_combine([(rng.randint(-3, 3), delta(W.SINF, rng.choice(basis))) for _ in range(3)])
        assert emb.apply(x * y) == emb.apply(x) * emb.apply(y)
        assert emb.apply(x.star()) == emb.apply(x).star()
        assert emb.apply(x + y) == emb.apply(x) + emb.apply(y)


@pytest.mark.parametrize("gamma", GAMMAS, ids=lambda g: g.name)
def test_support_bound_passes(gamma):
    report = verify_support_bound(3, 2, gamma)
    assert report.passed
    assert report.details["words_checked"] == 85
    report = verify_support_bound(2, 3, gamma)
    assert report.passed
    assert report.details["words_checked"] == 43


def test_support_bound_vacuous_base_case():
    report = verify_support_bound(0, 1)
    assert report.passed
    assert report.details["words_checked"] == 1


def _same_support_report(got, expected):
    assert got.stats == expected.stats
    _same_report(got, expected)


@pytest.mark.parametrize(
    "injected",
    [
        # a last-length word's image gains a longer free word
        {(T(1), T(2), T(1)): [(T(2),) * 4], (T(2), T(2), T(2)): [(T(1),) * 5]},
        # two words fail, and the report names the first in enumeration order, not the longer one
        {(T(2), T(1)): [(T(1), B(1, 0), T(2))], (T(1, True),): [(T(2), T(2, True), T(2), T(2))]},
        # the longer word is made of blocks and free letters
        {(T(1),): [(B(0, 2), T(1, True))]},
    ],
    ids=["last-length", "first-in-order", "with-blocks"],
)
def test_support_bound_reports_the_first_violation(monkeypatch, injected):
    word_image = Embedding.word_image

    def tampered(self, w):
        image = word_image(self, w)
        for u in injected.get(w, ()):
            image = image + delta(W.BCS, u)
        return image

    patch_word_images(monkeypatch, tampered)
    got = verify_support_bound(3, 2)
    assert not got.passed
    _same_support_report(got, support_bound_by_expansion(3, 2, extra=injected))


@pytest.mark.parametrize(
    "into_prefix, into_shared",
    [
        # a word as long as w in the prefix part: its extension by the letter is one longer than w
        ([(T(2), T(1, True), T(2))], []),
        ([], [(T(1), T(1), T(1), T(1))]),
        # u g in the shared part for a u of the prefix part is one word, counted once; u g' for another letter is not
        ([(T(2), T(2))], [(T(2), T(2), T(1)), (T(2), T(2), T(2))]),
    ],
    ids=["prefix-part", "shared-part", "overlap-by-letter"],
)
def test_support_bound_reads_both_parts(monkeypatch, into_prefix, into_shared):
    # the support of w = P g is shared | {u g : u in prefix}; w is of the last length, so it is read in parts
    target = (T(1), T(2), T(1))
    stage_parts = Embedding.stage_parts

    def tampered(self, words):
        for w, prefix, shared in stage_parts(self, words):
            if w == target:
                prefix, shared = prefix.union(into_prefix), shared.union(into_shared)
            yield w, prefix, shared

    monkeypatch.setattr(Embedding, "stage_parts", tampered)
    extra = {target: into_shared + [u + target[-1:] for u in into_prefix]}
    _same_support_report(verify_support_bound(3, 2), support_bound_by_expansion(3, 2, extra=extra))
    # the whole-support readers see the same support, the union of the parts
    supports = dict(Embedding().stage_supports(W.enumerate_words(3, 2, W.SINF)))
    assert supports[target] == set(phi_by_expansion(target, GAMMAS[0])).union(extra[target])


@pytest.mark.parametrize("gamma", GAMMAS, ids=lambda g: g.name)
def test_coordinate_separation_passes(gamma):
    report = verify_coordinate_separation(2, 2, gamma)
    assert report.passed
    assert report.details["targets"] == 16
    assert report.details["candidates"] == 21


@pytest.mark.parametrize("gamma", GAMMAS, ids=lambda g: g.name)
def test_verifiers_at_full_index_bound(gamma):
    assert verify_support_bound(4, 3, gamma).passed
    assert verify_coordinate_separation(3, 3, gamma).passed


def test_coordinate_separation_largest_stage():
    report = verify_coordinate_separation(4, 3)
    assert report.passed
    assert report.details["targets"] == 1296
    assert report.details["candidates"] == 1555


def _same_report(got, expected):
    got.elapsed_ms = expected.elapsed_ms = 0.0
    assert got.to_dict() == expected.to_dict()


@pytest.mark.parametrize("m, k", [(0, 1), (1, 2), (2, 2), (3, 2)])
@pytest.mark.parametrize("gamma", GAMMAS, ids=lambda g: g.name)
def test_coordinate_separation_matches_pairwise_scan(gamma, m, k):
    _same_report(verify_coordinate_separation(m, k, gamma), coordinate_separation_pairwise(m, k, gamma))


@pytest.mark.parametrize(
    "injected",
    [
        # a shorter candidate reaches a target
        {(T(1),): [((T(2), T(1)), 3)]},
        # a target loses its own coordinate, and a later target is hit
        {(T(1), T(1)): [((T(1), T(1)), None)], (T(2), T(2)): [((T(1), T(2)), 1)]},
        # two candidates hit targets; the earlier target decides, not the earlier candidate
        {(T(1),): [((T(2, True), T(2)), 1)], (T(2),): [((T(1), T(1, True)), Fraction(-1, 2))]},
    ],
    ids=["short-hits-target", "lost-self", "first-by-target"],
)
def test_coordinate_separation_reports_the_first_violation(monkeypatch, injected):
    word_image = Embedding.word_image

    def tampered(self, w):
        image = word_image(self, w)
        for u, c in injected.get(w, ()):
            if c is None:
                image = image - delta(W.BCS, u).scale(image.coordinate(u))
            else:
                image = image + delta(W.BCS, u).scale(c)
        return image

    patch_word_images(monkeypatch, tampered)
    got = verify_coordinate_separation(2, 2)
    assert not got.passed
    _same_report(got, coordinate_separation_pairwise(2, 2))


def test_coordinate_values_at_small_length():
    emb = Embedding()
    img = emb.apply(delta(W.SINF, (T(1),)))
    assert img.coordinate((T(1),)) == GaussianRational(Fraction(1, 1))
    assert emb.apply(unit(W.SINF)).coordinate((T(1),)).is_zero()
    img = emb.apply(delta(W.SINF, (T(1), T(2))))
    assert img.coordinate((T(1), T(2))) == GaussianRational(Fraction(1, 2))  # gamma_1 * gamma_2


def test_gamma_rescaling_does_not_change_verifier_outcomes():
    scaled = GammaSequence(lambda n: Fraction(7, 3) / n, "7/(3n)")
    for verifier in (verify_support_bound, verify_coordinate_separation):
        assert verifier(2, 2, GammaSequence.reciprocal()).passed == verifier(2, 2, scaled).passed


@pytest.mark.parametrize("verifier", [verify_support_bound, verify_coordinate_separation, injectivity_rank])
def test_verifiers_check_gamma_up_to_k(verifier):
    # supports are gamma-free only because gamma is positive, so each verifier checks gamma(1..k)
    bad_at_2 = GammaSequence(lambda n: -1 if n == 2 else Fraction(1, n), "bad at 2")
    with pytest.raises(ValueError, match=r"gamma\(2\) = -1 must be positive"):
        verifier(2, 3, bad_at_2)
    zero_from_3 = GammaSequence(lambda n: 0 if n >= 3 else 1, "zero from 3")
    with pytest.raises(ValueError, match=r"gamma\(3\) = 0 must be positive"):
        verifier(1, 4, zero_from_3)
    # a bad index above k, or a stage with no letter, evaluates nothing bad
    assert verifier(2, 1, bad_at_2).passed
    assert verifier(3, 2, zero_from_3).passed
    assert verifier(0, 3, bad_at_2).passed


def test_injectivity_rank_values():
    report = injectivity_rank(0, 1)
    assert report.passed and report.details["rank"] == 1
    report = injectivity_rank(1, 1)
    assert report.passed and report.details["rank"] == 3
    assert report.details["matrix_dims"][1] <= 5
    for gamma in GAMMAS:
        report = injectivity_rank(2, 2, gamma)
        assert report.passed and report.details["rank"] == 21
        report = injectivity_rank(3, 2, gamma)
        assert report.passed and report.details["rank"] == 85


def test_injectivity_rank_respects_cell_cap(monkeypatch):
    # the witness builds no coordinate matrix, so the cell budget refuses no stage, whatever its verdict
    monkeypatch.setattr(W, "DEFAULT_MAX_CELLS", 100)
    assert injectivity_rank(3, 2).passed
    word_image = Embedding.word_image
    target = (T(1), T(2))

    def tampered(self, w):
        image = word_image(self, w)
        return image + delta(W.BCS, (T(2), T(1))) if w == target else image

    patch_word_images(monkeypatch, tampered)
    report = injectivity_rank(3, 2)
    assert not report.passed and report.counterexample == {"word": "t1 t2"}
    # images extend their prefix's, so t1 t2 and its four extensions each hold a free word as long
    assert report.details["rank"] == 80 and report.details["matrix_dims"][0] == 85


def test_injectivity_rank_larger_stage():
    report = injectivity_rank(4, 3)
    assert report.passed
    assert report.details["rank"] == report.details["dimension"] == 1555


@pytest.mark.parametrize("m, k", [(3, 2), (2, 3)])
@pytest.mark.parametrize("gamma", [GAMMAS[0], GAMMAS[2]], ids=lambda g: g.name)
def test_word_image_matches_expansion_oracle(gamma, m, k):
    emb = Embedding(gamma)
    for w in W.enumerate_words(m, k, W.SINF):
        image = emb.word_image(w)
        assert image.terms == phi_by_expansion(w, gamma), w
        if w:  # the same terms, in the same order, as the Element product
            product = emb.word_image(w[:-1]) * emb.generator_image(w[-1])
            assert list(image.terms.items()) == list(product.terms.items())


def test_word_images_share_the_coefficients_a_product_with_one_keeps():
    for z in (GaussianRational(Fraction(2, 3)), GaussianRational(1, -1), GaussianRational(0)):
        assert z * ONE is z and ONE * z is z
    assert (ONE * 3, 3 * ONE) == (GaussianRational(3), GaussianRational(3))
    # a base letter's term is a prefix term times ONE, so it shares that term's coefficient:
    # the stage's 585 terms hold 293 coefficient objects (585 at a product that copies)
    emb = Embedding()
    coefficients = [c for w in W.enumerate_words(3, 2, W.SINF) for c in emb.word_image(w).terms.values()]
    assert (len(coefficients), len({id(c) for c in coefficients})) == (585, 293)


@pytest.mark.parametrize("m, k", [(0, 3), (3, 0), (1, 4), (3, 2), (2, 3), (4, 1)])
def test_stage_supports_match_expansion_oracle(m, k):
    gamma = GAMMAS[0]
    words = W.enumerate_words(m, k, W.SINF)
    swept = list(Embedding(gamma).stage_supports(words))
    assert [w for w, _ in swept] == words
    for w, support in swept:
        assert support == set(phi_by_expansion(w, gamma)), w


def test_stage_supports_refuse_a_missing_prefix():
    emb = Embedding()
    for words in ([(T(1),)], [(), (T(1), T(2))], [(), (T(1),), (T(1), T(2)), (T(2),)]):
        with pytest.raises(ValueError, match="stage_supports needs"):
            list(emb.stage_supports(words))


def test_stage_supports_keep_one_level():
    # the verifier's peak stays well under what the stage's supports take when all are held
    words = W.enumerate_words(5, 2, W.SINF)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = dict(Embedding().stage_supports(words))
        held_bytes = tracemalloc.get_traced_memory()[0] - base
        del held
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert verify_support_bound(5, 2).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < held_bytes / 2, (peak, held_bytes)


def test_verifier_reports_at_the_largest_stages():
    report = verify_support_bound(6, 2)
    assert report.passed and report.details["words_checked"] == 5461 and report.stats["image_terms"] == 295209
    report = verify_support_bound(5, 3)
    assert report.passed and report.details["words_checked"] == 9331 and report.stats["image_terms"] == 269878
    report = injectivity_rank(6, 2)
    assert report.passed and report.details["rank"] == report.details["dimension"] == 5461
    assert report.details["matrix_dims"] == [5461, 48756]
    report = verify_coordinate_separation(4, 3)
    assert report.passed
    assert report.details == {"targets": 1296, "candidates": 1555, "pairs_checked": 2015280}


# (4, 1) and (4, 2) have words whose support's two parts overlap, as t1 t1* p q and p q t1 t1* both reach t1 t1*
@pytest.mark.parametrize("m, k", [(3, 2), (2, 3), (4, 1), (4, 2)])
def test_verifier_work_counts(m, k):
    gamma = GAMMAS[0]
    basis = W.enumerate_words(m, k, W.SINF)
    words = sum((2 * k) ** i for i in range(m + 1))
    terms = sum(len(phi_by_expansion(w, gamma)) for w in basis)
    for verifier in (verify_support_bound, verify_coordinate_separation, injectivity_rank):
        report = verifier(m, k, gamma)
        assert report.passed
        assert report.stats["words"] == words == len(basis)
        assert report.stats["image_terms"] == terms


@pytest.mark.parametrize(
    "target, tamper, first, witnessed, oracle_rank",
    [
        # w loses its own coordinate
        ((T(1), T(2)), lambda emb, w, image: image - delta(W.BCS, w).scale(image.coordinate(w)), "t1 t2", 20, 21),
        # a block-free word as long as w enters its image
        ((T(1), T(2)), lambda emb, w, image: image + delta(W.BCS, (T(2), T(1))).scale(3), "t1 t2", 20, 21),
        # t1 gets the image of t2; images extend their prefix's, so the
        # five words t1, t1 x repeat the rows of t2, t2 x and lose their own word
        ((T(1),), lambda emb, w, image: emb.word_image((T(2),)), "t1", 16, 16),
    ],
    ids=["lost-self", "equal-length-free-word", "repeated-image"],
)
def test_injectivity_rank_reports_the_first_unwitnessed_word(monkeypatch, target, tamper, first, witnessed, oracle_rank):
    word_image = Embedding.word_image

    def tampered(self, w):
        image = word_image(self, w)
        return tamper(self, w, image) if w == target else image

    patch_word_images(monkeypatch, tampered)
    report = injectivity_rank(2, 2)
    emb = Embedding()
    basis = W.enumerate_words(2, 2, W.SINF)
    images = [emb.word_image(w) for w in basis]
    cols = sorted({u for image in images for u in image.terms}, key=lambda u: W.word_sort_key(W.BCS, u))
    rank = dense_rank([[image.coordinate(u) for u in cols] for image in images])
    # the witnessed words, recounted from the images: each holds its own word and no other free word as long
    recount = [
        w
        for w, image in zip(basis, images)
        if w in image.terms and all(u == w or len(u) < len(w) or any(type(x) is W.BCElement for x in u) for u in image.terms)
    ]
    assert not report.passed and report.counterexample == {"word": first}
    assert W.render_word(W.SINF, next(w for w in basis if w not in recount)) == first
    assert report.details["rank"] == len(recount) == witnessed <= rank == oracle_rank
    assert report.details["matrix_dims"] == [21, len(cols)]


def test_generator_recovery():
    for n, gamma in ((1, GammaSequence.constant(1)), (7, None), (3, GammaSequence.constant(Fraction(2, 5)))):
        emb = Embedding(gamma)
        for g in (W.t(n), W.t(n, True)):
            assert emb.preimage(emb.generator_image(g)) == delta(W.SINF, (g,))


@pytest.mark.parametrize("gamma", GAMMAS, ids=lambda g: g.name)
def test_preimage_round_trips_a_stage(gamma):
    emb = Embedding(gamma)
    for w in W.enumerate_words(4, 2, W.SINF):
        assert emb.preimage(emb.word_image(w)) == delta(W.SINF, w), w


def test_preimage_refuses_what_is_not_an_image():
    emb = Embedding()
    assert emb.preimage(zero(W.BCS)) == zero(W.SINF)
    assert emb.preimage(unit(W.BCS)) == unit(W.SINF)
    for word in ((W.P,), (W.Q,), (W.BCElement(1, 1),), (W.t(1), W.P), (W.Q, W.t(2, True), W.P)):
        assert emb.preimage(delta(W.BCS, word)) is None, word
    # p + 2 t1 is phi(t1) = p + t1 with the wrong weight on t1
    assert emb.preimage(delta(W.BCS, (W.P,)) + delta(W.BCS, (W.t(1),)).scale(2)) is None
    with pytest.raises(UniverseMismatch):
        emb.preimage(delta(W.SINF, (W.t(1),)))


def test_inverse_search_bicyclic():
    result = inverse_search(delta(W.BC, W.P), "right", 1)
    assert result.found
    assert result.solution == delta(W.BC, W.Q)
    result = inverse_search(delta(W.BC, W.Q), "right", 6)
    assert not result.found
    assert result.rank_augmented == result.rank + 1
    # and p has no left inverse either way around
    result = inverse_search(delta(W.BC, W.P), "left", 6)
    assert not result.found


def test_inverse_search_geometric_series_obstruction():
    a = unit(W.SINF) - delta(W.SINF, (T(1),))
    result = inverse_search(a, "right", 8)
    assert not result.found
    assert result.candidates == 511
    # partial sums only push the residue to the top degree
    partial = linear_combine([(1, delta(W.SINF, tuple([T(1)] * i))) for i in range(9)])
    residue = a * partial - unit(W.SINF)
    assert set(residue.support()) == {tuple([T(1)] * 9)}


def test_inverse_search_two_sided_consistency():
    a = unit(W.F2).scale(2) + zero(W.F2)
    right = inverse_search(a, "right", 2)
    left = inverse_search(a, "left", 2)
    assert right.found and left.found and right.solution == left.solution
    b = delta(W.F2, (("x", 1),))
    right = inverse_search(b, "right", 2)
    left = inverse_search(b, "left", 2)
    assert right.found and left.found
    assert right.solution == left.solution == delta(W.F2, (("x", -1),))


def test_inverse_search_rejects_a_negative_k_extra():
    a = unit(W.SINF) + delta(W.SINF, (T(1),)).scale(Fraction(1, 2))
    with pytest.raises(ValueError, match=r"k_extra must be >= 0"):
        inverse_search(a, "left", 2, k_extra=-2)
    assert inverse_search(a, "left", 2, k_extra=0).candidates == 7


def test_inverse_search_verified_by_multiplication():
    a = delta(W.BC, W.P)
    res = inverse_search(a, "right", 3)
    assert res.found and (a * res.solution) == unit(W.BC)


def test_mat_mul_identity_and_shapes():
    eye = ElementMatrix.identity(2, W.SINF)
    a = ElementMatrix([[unit(W.SINF), delta(W.SINF, (T(1),))], [zero(W.SINF), unit(W.SINF)]])
    assert mat_mul(eye, a) == a
    assert mat_mul(a, eye) == a
    with pytest.raises(ValueError):
        mat_mul(a, ElementMatrix([[unit(W.SINF)]]))


def test_mat_inverse_search_diagonal_infeasible():
    dq = delta(W.BC, W.Q)
    a = ElementMatrix([[dq, zero(W.BC)], [zero(W.BC), dq]])
    result = inverse_search(a, "right", 4)
    assert not result.found
    # block 0 fails; adding its right-hand side raises the oracle's coefficient rank by one
    _, rank = inverse_system_counts([list(row) for row in a.entries], "right", W.enumerate_words(4, 0, W.BC))
    assert result.rank_augmented > result.rank
    assert (result.rank, result.rank_augmented) == (rank, rank + 1)


def test_mat_inverse_search_elementary_matrix():
    a = ElementMatrix([[unit(W.SINF), delta(W.SINF, (T(1),))], [zero(W.SINF), unit(W.SINF)]])
    result = inverse_search(a, "right", 2)
    assert result.found
    x = result.solution
    assert x[0, 1] == -delta(W.SINF, (T(1),))
    eye = ElementMatrix.identity(2, W.SINF)
    assert mat_mul(a, x) == eye
    assert mat_mul(x, a) == eye  # two-sided, as it must be for this unit
    left = inverse_search(a, "left", 2)
    assert left.found and mat_mul(left.solution, a) == eye


def test_inverse_search_scalar_multiple_of_identity():
    a = unit(W.BCS).scale(2)
    result = inverse_search(a, "right", 1)
    assert result.found
    assert a * result.solution == unit(W.BCS)
    assert result.solution.coordinate(()) == GaussianRational(Fraction(1, 2))


def _el(universe, terms):
    return Element(universe, {w: GaussianRational(*c) if isinstance(c, tuple) else c for w, c in terms.items()})


STATS_CASES = [
    (delta(W.BC, W.Q), "right", 6, 0),  # infeasible
    (_el(W.BC, {(): 2, (B(1, 1),): (0, Fraction(1, 5))}), "right", 3, 0),  # found, complex
    (delta(W.BC, B(1, 1)), "left", 2, 0),  # rank below the candidate count
    (_el(W.SINF, {(): 1, (T(1),): -1}), "right", 3, 0),
    (_el(W.SINF, {(): (Fraction(2, 3), -1), (T(1), T(2, True)): 1}), "left", 2, 0),
    (_el(W.BCS, {(W.P,): (Fraction(1, 2), Fraction(1, 3))}), "right", 1, 1),  # found, rank deficient
    (_el(W.BCS, {(): 1, (T(1),): -1}), "right", 1, 0),
]


@pytest.mark.parametrize("a, side, m, k_extra", STATS_CASES)
def test_inverse_search_stats_match_recount(a, side, m, k_extra):
    result = inverse_search(a, side, m, k_extra=k_extra)
    k = max(W.max_free_index(a.universe, w) for w in a.support()) + k_extra
    cands = W.enumerate_words(m, k, a.universe)
    rows, rank = inverse_system_counts([[a]], side, cands)
    assert result.stats == {"candidates": len(cands), "rows": rows, "pivots": rank}
    assert result.candidates == len(cands) and result.rank == rank
    assert "stats" not in result.to_dict()


def test_mat_inverse_search_stats_match_recount():
    # both blocks of the 2 x 2 system are solved, each with the same coefficient matrix
    a = ElementMatrix([[unit(W.SINF), delta(W.SINF, (T(1),))], [zero(W.SINF), unit(W.SINF)]])
    result = inverse_search(a, "right", 2)
    cands = W.enumerate_words(2, 1, W.SINF)
    rows, rank = inverse_system_counts([list(row) for row in a.entries], "right", cands)
    assert result.found and result.stats == {"candidates": len(cands), "rows": 2 * rows, "pivots": 2 * rank}
    assert "stats" not in result.to_dict()


@pytest.mark.parametrize(
    "a, side, m",
    [(a, side, m) for a, side, m, _ in STATS_CASES] + [(_el(W.F2, {(("x", 1), ("y", 1)): (1, 2)}), "right", 2)],
)
def test_mat_inverse_search_of_one_entry_is_inverse_search(a, side, m):
    one = inverse_search(a, side, m)
    mat = inverse_search(ElementMatrix([[a]]), side, m)
    assert mat.found == one.found and mat.candidates == one.candidates and mat.stats == one.stats
    assert (mat.solution[0, 0] if mat.found else None) == one.solution
    assert (mat.rank, mat.rank_augmented) == (one.rank, one.rank_augmented)
    got, want = mat.to_dict(), one.to_dict()
    del got["elapsed_ms"], want["elapsed_ms"]
    if one.found:  # the same report, with the solution as a 1 x 1 list of rows
        assert got.pop("solution") == [[want.pop("solution")]]
    assert got == want


def test_mat_inverse_search_fails_on_a_later_block():
    # diag(e, q) over bc: column 0 of a right inverse is (e, 0), column 1 needs q x = e
    a = ElementMatrix([[unit(W.BC), zero(W.BC)], [zero(W.BC), delta(W.BC, W.Q)]])
    result = inverse_search(a, "right", 3)
    assert inverse_system_counts([list(row) for row in a.entries], "right", W.enumerate_words(3, 0, W.BC)) == (21, 20)
    assert not result.found and result.solution is None
    assert result.stats == {"candidates": 10, "rows": 2 * 21, "pivots": 2 * 20}
    assert (result.rank, result.rank_augmented) == (20, 21)  # the failing block's certificate


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mat_inverse_search_left_inverse_that_is_not_a_right_inverse(m):
    # A = diag(q, e) over bcs: X = diag(p, e) has X A = I, but A X = diag(qp, e)
    dq, e, o = delta(W.BCS, (W.Q,)), unit(W.BCS), zero(W.BCS)
    a = ElementMatrix([[dq, o], [o, e]])
    eye = ElementMatrix.identity(2, W.BCS)
    left = inverse_search(a, "left", m)
    assert left.found and left.solution == ElementMatrix([[delta(W.BCS, (W.P,)), o], [o, e]])
    assert mat_mul(left.solution, a) == eye and mat_mul(a, left.solution) != eye
    right = inverse_search(a, "right", m)
    assert not right.found and right.solution is None
    assert right.rank_augmented > right.rank
    assert right.to_dict()["params"] == {"side": "right", "universe": W.BCS, "m": m, "k_extra": 0}


def test_inverse_searches_share_their_argument_checks_in_order():
    o, e = zero(W.SINF), unit(W.SINF)
    zero_message = "^cannot search for an inverse of the zero element$"
    with pytest.raises(ValueError, match="square"):
        inverse_search(ElementMatrix([[o, o]]), "sideways", 1)
    with pytest.raises(ValueError, match=zero_message):
        inverse_search(o, "sideways", 1, k_extra=-1)
    with pytest.raises(ValueError, match=zero_message):  # the zero element of the matrix ring
        inverse_search(ElementMatrix([[o, o], [o, o]]), "sideways", 1)
    with pytest.raises(ValueError, match="k_extra"):
        inverse_search(e, "sideways", 1, k_extra=-1)
    with pytest.raises(ValueError, match="side"):
        inverse_search(ElementMatrix([[o, e], [o, o]]), "sideways", 1)


def test_sparse_kernels_against_dense_oracle():
    from pqt.embedding import sparse_rank, sparse_solve, _RHS
    from pqt.algebra import ZERO
    from oracles import dense_rank, dense_solvable, random_scalar

    rng = random.Random(222)
    for _ in range(150):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        dense = [[random_scalar(rng) if rng.random() < 0.5 else ZERO for _ in range(n_cols)] for _ in range(n_rows)]
        rhs = [random_scalar(rng) if rng.random() < 0.6 else ZERO for _ in range(n_rows)]
        sparse = [{j: v for j, v in enumerate(row) if not v.is_zero()} for row in dense]
        assert sparse_rank(sparse, n_cols) == dense_rank(dense)
        augmented = [dict(row) for row in sparse]
        for i, v in enumerate(rhs):
            if not v.is_zero():
                augmented[i][_RHS] = v
        solution, rank, rank_aug = sparse_solve(augmented, n_cols)
        if dense_solvable(dense, rhs):
            assert solution is not None and rank_aug == rank
            for i in range(n_rows):  # plug the solution back in, exactly
                acc = ZERO
                for j in range(n_cols):
                    acc = acc + dense[i][j] * solution.get(j, ZERO)
                assert acc == rhs[i]
        else:
            assert solution is None and rank_aug == rank + 1


def test_report_serialization_shape():
    report = verify_support_bound(1, 1)
    payload = report.to_dict()
    assert payload["check"] == "support-lemma"
    assert payload["params"] == {"m": 1, "k": 1, "gamma": "1/n"}
    assert payload["result"] == "pass"
    assert "elapsed_ms" in payload
    res = inverse_search(delta(W.BC, W.Q), "right", 2)
    payload = res.to_dict()
    assert payload["result"] == "infeasible"
    assert payload["rank_augmented"] == payload["rank"] + 1
