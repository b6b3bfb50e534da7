"""Property tests (Hypothesis): the scalar kernel against plain Fraction-pair
arithmetic, element arithmetic against its expansion, the collapsed-block
factorisation of state Grams, operator norms of shift-representation
matrices against an eigensolver oracle, and the ring and star axioms,
parse/render round trips and normal forms over all four universes, one
rational grammar for flags and expressions, and the embedding's exact
left inverse against psi o epsilon by rewriting."""

import contextlib
import functools
import io
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pqt import words as W
from pqt.algebra import Element, GaussianRational, _parse_fraction, delta, linear_combine, unit
from pqt.cli import _SCALAR_RE, main, parse_element, parse_word
from pqt.embedding import Embedding, GammaSequence, gamma_by_name
from pqt.errors import ExprSyntaxError
from pqt.oper import RepConfig, ShiftRepresentation, op_norm
from pqt.states import Character, FreeProductState, StateConfig, Vacuum, gram_matrix, gram_psd_check
from oracles import (
    block_gram_factors,
    collect_by_expansion,
    complex_product,
    distinct_kept_blocks,
    epsilon_by_rewriting,
    op_norm_eigh,
    phi_by_expansion,
    phi_of_element_by_expansion,
    product_by_expansion,
    psi_by_rewriting,
)

_q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_pairs = st.tuples(_q, _q)
# scalar, int and Fraction operands; small denominators make equal ones and common factors frequent
_operands = st.one_of(_pairs.map(lambda c: GaussianRational(*c)), st.integers(-4, 4), _q)


def _pair_of(v) -> tuple:
    return (v.re, v.im) if isinstance(v, GaussianRational) else (Fraction(v), Fraction(0))


def _fraction_str(re: Fraction, im: Fraction) -> str:
    # the formatting of the two-Fraction scalar this kernel replaced
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _assert_scalar(z, pair) -> None:
    """z is canonical, holds the value pair, prints and hashes as that value does."""
    assert type(z) is GaussianRational
    assert z.d > 0 and math.gcd(z.x, z.y, z.d) == 1
    assert (Fraction(z.x, z.d), Fraction(z.y, z.d)) == pair == (z.re, z.im)
    assert str(z) == _fraction_str(*pair)
    same = GaussianRational(*pair)
    assert z == same and hash(z) == hash(same)
    if pair[1] == 0:
        assert z == pair[0] and hash(z) == hash(pair[0])


@settings(max_examples=300, deadline=None)
@given(a=_pairs, other=_operands)
@example(a=(Fraction(1, 6), Fraction(0)), other=GaussianRational(Fraction(1, 6)))  # 2/6 over one denominator
@example(a=(Fraction(1, 4), Fraction(-3, 4)), other=GaussianRational(Fraction(1, 4), Fraction(1, 4)))
@example(a=(Fraction(1, 2), Fraction(1, 3)), other=GaussianRational(Fraction(-1, 2), Fraction(-1, 3)))
@example(a=(Fraction(2), Fraction(-1, 3)), other=GaussianRational(Fraction(3, 2), Fraction(1, 2)))
def test_scalar_kernel_matches_fraction_pairs(a, other):
    z = GaussianRational(*a)
    _assert_scalar(z, a)
    b = _pair_of(other)
    (ar, ai), (br, bi) = a, b
    _assert_scalar(z + other, (ar + br, ai + bi))
    _assert_scalar(other + z, (ar + br, ai + bi))
    _assert_scalar(z - other, (ar - br, ai - bi))
    _assert_scalar(other - z, (br - ar, bi - ai))
    _assert_scalar(z * other, complex_product(a, b))
    _assert_scalar(other * z, complex_product(a, b))
    _assert_scalar(-z, (-ar, -ai))
    _assert_scalar(z.conjugate(), (ar, -ai))
    assert z.abs2() == ar * ar + ai * ai
    for x, y, (xr, xi), (yr, yi) in ((z, other, a, b), (other, z, b, a)):
        n = yr * yr + yi * yi
        if n:
            _assert_scalar(x / y, ((xr * yr + xi * yi) / n, (xi * yr - xr * yi) / n))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
    assert (z == other) == (a == b) and (z != other) == (a != b)
    # sums that cancel are the canonical zero (0, 0, 1)
    for zero in (z - z, z + (-z), z + GaussianRational(-ar, -ai), z * 0):
        assert (zero.x, zero.y, zero.d) == (0, 0, 1) and not zero


_free_items = st.builds(W.FreeGen, st.integers(1, 2), st.booleans())
_items = st.one_of(st.builds(W.BCElement, st.integers(0, 2), st.integers(0, 2)), _free_items)
_bcs_words = st.lists(st.lists(_items, max_size=3).map(W.normalize_items), max_size=8, unique=True)
_z = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=12))


_parts = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_coeffs = st.tuples(_parts, _parts)  # (re, im), zero included
# unreduced spellings, identity blocks included, so the constructor has folding to do
_raw_terms = st.dictionaries(st.lists(_items, max_size=3).map(tuple), _coeffs, max_size=4)


def _plain(x: Element) -> list:
    return [(w, (c.re, c.im)) for w, c in x.terms.items()]


def _negated(terms: dict) -> list:
    return [(w, (-re, -im)) for w, (re, im) in terms.items()]


@settings(max_examples=150, deadline=None)
@given(raws=st.lists(_raw_terms, min_size=3, max_size=3), scalars=st.lists(_coeffs, min_size=3, max_size=3))
def test_element_arithmetic_matches_expansion(raws, scalars):
    # the same terms in the same first-appearance order as the oracle, zero sums dropped
    x, y, z = (Element(W.BCS, {w: GaussianRational(*c) for w, c in raw.items()}) for raw in raws)
    a, b, c = (collect_by_expansion(raw.items()) for raw in raws)
    assert _plain(x) == list(a.items())
    assert _plain(x + y) == list(collect_by_expansion([*a.items(), *b.items()]).items())
    assert _plain(x - y) == list(collect_by_expansion([*a.items(), *_negated(b)]).items())
    assert _plain(x * y) == list(product_by_expansion(a, b).items())
    combined = linear_combine([(GaussianRational(*s), el) for s, el in zip(scalars, (x, y, z))])
    scaled = [(w, complex_product(s, co)) for s, terms in zip(scalars, (a, b, c)) for w, co in terms.items()]
    assert _plain(combined) == list(collect_by_expansion(scaled).items())
    # a word that cancels and comes back keeps its first place
    reappearing = linear_combine([(1, x), (-1, x), (1, y)])
    assert _plain(reappearing) == list(collect_by_expansion([*a.items(), *_negated(a), *b.items()]).items())
    assert not (x - x).terms and not (x + (-x)).terms


@settings(max_examples=80, deadline=None)
@given(words=_bcs_words, z=_z)
def test_gram_factors_through_collapsed_blocks(words, z):
    # G = D S K S^T D on bcs word lists of length <= 3 and indices <= 2
    cfg = StateConfig(s_state=Vacuum() if z == 0 else Character(z))
    d, s, K = block_gram_factors(W.BCS, words, z)
    G = gram_matrix(W.BCS, words, FreeProductState(cfg))
    for i in range(len(words)):
        for j in range(len(words)):
            assert G[i][j] == GaussianRational(d[i] * d[j] * K[s[i]][s[j]])
    assert gram_psd_check(W.BCS, words, cfg).stats["blocks"] == distinct_kept_blocks(W.BCS, words, z)


_REP = ShiftRepresentation(RepConfig(dim=64, max_index=4))
_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_scalars = st.builds(GaussianRational, _small, _small)


def _bcs_elements(items):
    words = st.lists(items, min_size=1, max_size=3).map(W.normalize_items)
    return st.dictionaries(words, _scalars, min_size=1, max_size=4).map(lambda terms: Element(W.BCS, terms))


@settings(max_examples=60, deadline=None)
@given(x=st.one_of(_bcs_elements(_free_items), _bcs_elements(_items)))
def test_op_norm_matches_eigh_on_bcs_elements(x):
    # elements without bicyclic letters or the unit have rank <= 8 and take the sketch
    a = _REP.matrix(x)
    ref = op_norm_eigh(a)
    res = op_norm(a)
    assert abs(res.value - ref) <= 1e-12 * ref
    if all(word and all(isinstance(item, W.FreeGen) for item in word) for word in x.terms):
        assert res.residual is not None


# words of length <= 2 with generator indices <= 2, from every universe
_WORDS = {universe: W.enumerate_words(2, 2, universe) for universe in W.UNIVERSES}


def _elements_of(universe):
    return st.dictionaries(st.sampled_from(_WORDS[universe]), _scalars, max_size=4).map(
        lambda terms: Element(universe, terms)
    )


_elements = st.sampled_from(W.UNIVERSES).flatmap(_elements_of)
_triples = st.sampled_from(W.UNIVERSES).flatmap(lambda u: st.tuples(*[_elements_of(u)] * 3, _scalars))
_word_runs = st.sampled_from(W.UNIVERSES).flatmap(
    lambda u: st.tuples(st.just(u), st.lists(st.sampled_from(_WORDS[u]), min_size=1, max_size=3), _scalars)
)


@settings(max_examples=200, deadline=None)
@given(triple=_triples)
def test_ring_and_star_axioms(triple):
    x, y, z, a = triple
    one = unit(x.universe)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert one * x == x == x * one
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x
    assert x.scale(a).star() == x.star().scale(a.conjugate())


@settings(max_examples=100, deadline=None)
@given(x=_elements)
def test_parse_render_round_trip(x):
    text = x.render()
    assert parse_element(text, x.universe) == x
    assert parse_element(text, x.universe).render() == text
    for w in x.terms:
        assert parse_word(W.render_word(x.universe, w), x.universe) == w


@settings(max_examples=200, deadline=None)
@given(text=st.text(), universe=st.sampled_from(W.UNIVERSES))
@example(text="²*p", universe=W.BC)  # a Unicode digit opens the token, but is no ASCII scalar
@example(text="-²*p", universe=W.BC)
@example(text="t٣", universe=W.BCS)
def test_parser_fails_only_with_syntax_errors(text, universe):
    # any text parses, or is refused as a syntax error; never an internal error (exit 4)
    try:
        x = parse_element(text, universe)
    except ExprSyntaxError:
        pass
    else:
        assert parse_element(x.render(), universe) == x
    try:
        parse_word(text, universe)
    except ExprSyntaxError:
        pass
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["normalize", "--universe", universe, text])
    assert code != 4, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(text=st.text())
@example(text="0.5")  # Fraction's decimal, exponent, underscore, whitespace and Unicode-digit forms
@example(text="1e-3")
@example(text="1_0")
@example(text=" 1/2")
@example(text="١/٢")
@example(text="+1/2")
@example(text="-0")
@example(text="2/-3")
def test_rational_flags_read_the_expression_scalar(text):
    # --z and --gamma const: read exactly the real scalars that an expression reads
    m = _SCALAR_RE.fullmatch(text)
    if m is None or m["im"] is not None:
        with pytest.raises(ValueError, match="^invalid rational"):
            _parse_fraction(text)
        return
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _parse_fraction(text)
    else:
        assert _parse_fraction(text) == expected


@settings(max_examples=200, deadline=None)
@given(f=st.fractions())
def test_echoed_rationals_read_back(f):
    # the z that describe() echoes, and a const: gamma's name, are flag values that read back
    z = StateConfig(s_state=Character(f)).describe()["s_state"]["z"]
    assert _parse_fraction(z) == f
    if f > 0:
        name = GammaSequence.constant(f).name
        assert gamma_by_name(f"const:{name}")(1) == f


@settings(max_examples=150, deadline=None)
@given(run=_word_runs)
def test_normal_form_is_idempotent(run):
    universe, words, c = run
    product = functools.reduce(functools.partial(W.word_mul, universe), words)
    # the words concatenate into a spelling that may need folding
    spelling = sum(words, ())
    x = Element(universe, {spelling: c})
    assert list(x.terms) == ([product] if c else [])
    again = Element(universe, x.terms)
    assert again == x and list(again.terms) == list(x.terms)


_positive = st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12)
_gammas = st.one_of(
    _positive.map(GammaSequence.constant),
    _positive.map(lambda c: GammaSequence(lambda n: c / n, f"{c}/n")),
    _positive.map(lambda c: GammaSequence(lambda n: c / (n * n), f"{c}/n^2")),
)


@settings(max_examples=60, deadline=None)
@given(gamma=_gammas, m=st.integers(0, 4), k=st.integers(0, 3), data=st.data())
def test_word_support_is_the_image_support(gamma, m, k, data):
    # no coefficient cancels for positive gamma, so the scalar-free support is the image's
    words = W.enumerate_words(m, k, W.SINF)
    emb = Embedding(gamma)
    supports = dict(emb.stage_supports(words))
    for w in data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6)):
        assert supports[w] == set(emb.word_image(w).terms) == set(phi_by_expansion(w, gamma)), w


# sinf elements of up to 4 terms, words of length <= 5 over t1..t3; zero coefficients drop
_sinf_words = st.lists(st.builds(W.FreeGen, st.integers(1, 3), st.booleans()), max_size=5).map(tuple)
_sinf_terms = st.dictionaries(_sinf_words, _coeffs, max_size=4)


@settings(max_examples=100, deadline=None)
@given(gamma=_gammas, terms=_sinf_terms)
def test_preimage_is_psi_epsilon(gamma, terms):
    x = Element(W.SINF, {w: GaussianRational(*c) for w, c in terms.items()})
    emb = Embedding(gamma)
    y = emb.apply(x)
    assert emb.preimage(y) == x
    assert dict(_plain(x)) == psi_by_rewriting(epsilon_by_rewriting(dict(_plain(y))), gamma)
    # q is not an image, and neither is anything that differs from one by delta_q
    assert emb.preimage(y + delta(W.BCS, (W.Q,))) is None


# gamma_n = (re * n, im): never zero, and never positive unless re > 0 = im, which is left out
_nonpositive = _pairs.filter(lambda c: c[1] or c[0] < 0)


@settings(max_examples=60, deadline=None)
@given(c=_nonpositive, terms=_sinf_terms)
def test_psi_epsilon_inverts_phi_for_any_nonzero_gamma(c, terms):
    # Embedding refuses gamma <= 0, so the claim for a negative or complex gamma is checked on the oracles alone
    def gamma(n):
        return (c[0] * n, c[1])

    x = collect_by_expansion(terms.items())
    assert psi_by_rewriting(epsilon_by_rewriting(phi_of_element_by_expansion(x, gamma)), gamma) == x
