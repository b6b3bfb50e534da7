"""Property tests (Hypothesis): the collapsed-block factorisation of state Grams, and
operator norms of shift-representation matrices against an eigensolver oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pqt import words as W
from pqt.algebra import Element, GaussianRational
from pqt.oper import RepConfig, ShiftRepresentation, op_norm
from pqt.states import Character, FreeProductState, StateConfig, Vacuum, gram_matrix, gram_psd_check
from oracles import block_gram_factors, distinct_kept_blocks, op_norm_eigh

_free_items = st.builds(W.FreeGen, st.integers(1, 2), st.booleans())
_items = st.one_of(st.builds(W.BCElement, st.integers(0, 2), st.integers(0, 2)), _free_items)
_bcs_words = st.lists(st.lists(_items, max_size=3).map(W.normalize_items), max_size=8, unique=True)
_z = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=12))


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
