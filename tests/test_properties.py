"""Property tests (Hypothesis) for the collapsed-block factorisation of state Grams."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pqt import words as W
from pqt.algebra import GaussianRational
from pqt.states import Character, FreeProductState, StateConfig, Vacuum, gram_matrix, gram_psd_check
from oracles import block_gram_factors, distinct_kept_blocks

_items = st.one_of(
    st.builds(W.BCElement, st.integers(0, 2), st.integers(0, 2)),
    st.builds(W.FreeGen, st.integers(1, 2), st.booleans()),
)
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
