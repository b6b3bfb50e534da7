"""Word kernel: normal forms, multiplication, involution, enumeration, maps."""

import random

import pytest

from pqt import words as W
from pqt.errors import LimitExceeded
from oracles import (
    bc_mul_by_rewriting,
    enumerate_by_universe,
    fg_reduce_fixpoint,
    normal_form_by_rewriting,
    pw_mul_by_rewriting,
    random_word,
)

B = W.BCElement
T = W.t


def test_bc_mul_pinned_values():
    assert W.bc_mul(B(0, 1), B(1, 0)) == B(0, 0)  # p q = e
    assert W.bc_mul(B(1, 0), B(0, 1)) == B(1, 1)  # q p stays qp
    assert W.bc_mul(B(2, 3), B(1, 2)) == B(2, 4)


def test_bc_mul_identity_and_associativity():
    rng = random.Random(11)
    for _ in range(300):
        x = B(rng.randint(0, 5), rng.randint(0, 5))
        y = B(rng.randint(0, 5), rng.randint(0, 5))
        z = B(rng.randint(0, 5), rng.randint(0, 5))
        assert W.bc_mul(W.BC_IDENTITY, x) == x == W.bc_mul(x, W.BC_IDENTITY)
        assert W.bc_mul(W.bc_mul(x, y), z) == W.bc_mul(x, W.bc_mul(y, z))


def test_bc_mul_matches_string_rewriting_exhaustively():
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for d in range(6):
                    assert W.bc_mul(B(a, b), B(c, d)) == bc_mul_by_rewriting(B(a, b), B(c, d))


def test_bc_star():
    assert W.bc_star(B(0, 0)) == B(0, 0)
    assert W.bc_star(B(0, 1)) == B(1, 0)  # p* = q
    assert W.bc_star(B(2, 3)) == B(3, 2)
    rng = random.Random(3)
    for _ in range(100):
        x = B(rng.randint(0, 5), rng.randint(0, 5))
        y = B(rng.randint(0, 5), rng.randint(0, 5))
        assert W.bc_star(W.bc_star(x)) == x
        assert W.bc_star(W.bc_mul(x, y)) == W.bc_mul(W.bc_star(y), W.bc_star(x))


def test_pw_mul_seam_cases():
    # seam cancellation splices the identity out
    left = (T(1), W.P)
    right = (W.Q, T(2))
    assert W.pw_mul(left, right) == (T(1), T(2))
    # identity is neutral
    w = (W.Q, T(1), B(0, 2))
    assert W.pw_mul((), w) == w == W.pw_mul(w, ())
    # appending a free generator extends the length by one
    assert W.pw_mul((W.P,), (T(1),)) == (W.P, T(1))
    assert W.pw_len(W.pw_mul((W.P,), (T(1),))) == 2


def test_pw_mul_matches_rewriting_oracle_on_random_pairs():
    rng = random.Random(20)
    for _ in range(800):
        u = random_word(rng, W.BCS, max_len=4, max_index=3, max_exp=3)
        v = random_word(rng, W.BCS, max_len=4, max_index=3, max_exp=3)
        assert W.pw_mul(u, v) == pw_mul_by_rewriting(u, v)


def test_pw_mul_length_subadditive():
    rng = random.Random(21)
    for _ in range(500):
        u = random_word(rng, W.BCS, max_len=4)
        v = random_word(rng, W.BCS, max_len=4)
        assert W.pw_len(W.pw_mul(u, v)) <= W.pw_len(u) + W.pw_len(v)
        assert W.pw_len(W.pw_mul(u, (T(1),))) == W.pw_len(u) + 1
        assert W.pw_len(W.pw_mul(u, (W.P,))) <= W.pw_len(u) + 1


def test_pw_star_pinned_values():
    assert W.pw_star((W.P, T(1))) == (T(1, True), W.Q)
    assert W.pw_star(()) == ()
    assert W.pw_star((T(2, True), B(1, 1), T(3))) == (T(3, True), B(1, 1), T(2))


def test_pw_star_is_an_involution():
    rng = random.Random(22)
    for _ in range(400):
        u = random_word(rng, W.BCS, max_len=4)
        v = random_word(rng, W.BCS, max_len=4)
        assert W.pw_star(W.pw_star(u)) == u
        assert W.pw_star(W.pw_mul(u, v)) == W.pw_mul(W.pw_star(v), W.pw_star(u))


def test_pw_len():
    assert W.pw_len(()) == 0
    assert W.pw_len((B(0, 2),)) == 1
    assert W.pw_len((W.P, T(2))) == 2


def test_pw_associativity_exhaustive_on_small_enumeration():
    words = W.enumerate_words(1, 1, W.BCS)
    assert len(words) == 12
    for u in words:
        for v in words:
            for w in words:
                assert W.pw_mul(W.pw_mul(u, v), w) == W.pw_mul(u, W.pw_mul(v, w))


def test_pw_associativity_sampled_from_length_three_enumeration():
    # all triples of the (3, 2) enumeration would be ~3e12 products, so the
    # exhaustive sweep runs on the small enumeration above and this one samples
    words = W.enumerate_words(3, 2, W.BCS)
    assert len(words) == 14827
    rng = random.Random(23)
    for _ in range(2000):
        u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
        assert W.pw_mul(W.pw_mul(u, v), w) == W.pw_mul(u, W.pw_mul(v, w))


def test_normalize_items_cascades():
    # q . (p q) . p collapses pairwise
    items = [W.Q, B(0, 1), B(1, 0), W.P]
    assert W.normalize_items(items) == (B(1, 1),)
    # identity blocks vanish and free runs join up
    items = [T(1), B(0, 0), T(2)]
    assert W.normalize_items(items) == (T(1), T(2))
    items = [T(1), B(0, 1), B(1, 0), T(2)]
    assert W.normalize_items(items) == (T(1), T(2))


def test_enumerate_words_sinf():
    assert W.enumerate_words(0, 3, W.SINF) == [()]
    listing = W.enumerate_words(1, 2, W.SINF)
    assert listing == [(), (T(1),), (T(1, True),), (T(2),), (T(2, True),)]
    assert len(W.enumerate_words(3, 2, W.SINF)) == 85
    assert len(W.enumerate_words(4, 2, W.SINF)) == 341
    assert len(W.enumerate_words(3, 3, W.SINF)) == 259
    assert len(W.enumerate_words(2, 3, W.SINF)) == 43
    assert len(W.enumerate_words(4, 3, W.SINF)) == 1555


def test_enumerate_words_bcs_counts_and_order():
    for m, k in [(0, 1), (1, 1), (2, 2), (3, 2)]:
        listing = W.enumerate_words(m, k, W.BCS)
        assert len(listing) == W.count_words(m, k, W.BCS)
        assert len(set(listing)) == len(listing)
        keys = [W.word_sort_key(W.BCS, w) for w in listing]
        assert keys == sorted(keys)
        assert all(W.pw_len(w) <= m for w in listing)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("universe", W.UNIVERSES)
def test_enumerate_words_matches_per_universe_oracle(universe, k):
    # bc and f2 do not read k; bcs with free letters stops at m = 3 (m = 4, k = 1 is already 117841 words)
    for m in range(13 if universe == W.BC else 5):
        if universe == W.BCS and m == 4 and k:
            break
        listing = W.enumerate_words(m, k, universe)
        assert listing == enumerate_by_universe(m, k, universe), (m, k)
        assert len(listing) == W.count_words(m, k, universe) == len(set(listing))
        for w in listing:
            assert W.is_word(universe, w) and normal_form_by_rewriting(universe, w) == w


def test_enumerate_words_argument_contract():
    # k = 0 leaves no free letters: the empty word on sinf, and the single blocks besides on bcs
    assert W.enumerate_words(7, 0, W.SINF) == [()]
    assert W.enumerate_words(2, 0, W.BCS) == [()] + [(b,) for b in W.bc_elements(6)[1:]]
    for universe in W.UNIVERSES:
        with pytest.raises(ValueError, match="m must be >= 0"):
            W.enumerate_words(-1, 1, universe)
    for universe in (W.SINF, W.BCS):
        with pytest.raises(ValueError, match="k must be >= 0"):
            W.enumerate_words(1, -1, universe)
    assert W.enumerate_words(1, -1, W.BC) == W.bc_elements(1)
    assert len(W.enumerate_words(1, -1, W.F2)) == 5
    with pytest.raises(ValueError, match="unknown universe"):
        W.enumerate_words(1, 1, "z")


def test_enumerate_words_rejects_oversized_requests():
    with pytest.raises(LimitExceeded):
        W.enumerate_words(50, 3, W.SINF)
    with pytest.raises(LimitExceeded):
        W.enumerate_words(6, 6, W.BCS, limit=10_000)
    # the word budget covers the lists without free letters too
    with pytest.raises(LimitExceeded, match="246051 words"):
        W.enumerate_words(700, 0, W.BC)
    with pytest.raises(LimitExceeded, match="406351 words"):
        W.enumerate_words(300, 0, W.BCS)
    with pytest.raises(LimitExceeded):
        W.enumerate_words(12, 0, W.F2)
    # the length/index guard applies only once there are free letters
    assert len(W.enumerate_words(20, 0, W.BCS)) == 1891
    assert len(W.enumerate_words(13, 0, W.SINF)) == 1


def test_map_to_f2_pinned_values():
    x, y = ("x", 1), ("y", 1)
    assert W.map_to_f2((T(1),)) == (x, y, x)
    assert W.map_to_f2(()) == ()
    assert W.map_to_f2((T(1), T(2, True))) == (x, y, x, y, x, x, y)


def test_map_to_f2_is_a_monoid_map():
    rng = random.Random(31)
    for _ in range(300):
        u = random_word(rng, W.SINF, max_len=4, max_index=3)
        v = random_word(rng, W.SINF, max_len=4, max_index=3)
        assert W.map_to_f2(u + v) == W.fg_mul(W.map_to_f2(u), W.map_to_f2(v))


def test_map_to_f2_injective_on_enumerations():
    words = W.enumerate_words(4, 3, W.SINF)
    images = {W.map_to_f2(w) for w in words}
    assert len(images) == len(words) == 1555


def test_fg_mul_pinned_values():
    x, xi, y, yi = ("x", 1), ("x", -1), ("y", 1), ("y", -1)
    assert W.fg_mul((x, y), (yi, x)) == (x, x)
    assert W.fg_mul((x, yi), (y, xi, y)) == (y,)
    rng = random.Random(32)
    for _ in range(200):
        w = random_word(rng, W.F2, max_len=6)
        assert W.fg_mul(w, W.fg_inverse(w)) == ()


def test_fg_mul_matches_fixpoint_reduction():
    rng = random.Random(34)
    for _ in range(500):
        u = random_word(rng, W.F2, max_len=8)
        v = random_word(rng, W.F2, max_len=8)
        assert W.fg_mul(u, v) == fg_reduce_fixpoint(u + v)


def test_fg_reduction_is_confluent():
    rng = random.Random(33)
    letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
    for _ in range(1000):
        raw = [rng.choice(letters) for _ in range(rng.randint(0, 12))]
        stacked = W.fg_normalize(raw)
        assert stacked == fg_reduce_fixpoint(raw)
        # output is reduced
        assert all(not (stacked[i][0] == stacked[i + 1][0] and stacked[i][1] == -stacked[i + 1][1]) for i in range(len(stacked) - 1))


def test_render_word():
    assert W.render_word(W.BCS, ()) == "e"
    assert W.render_word(W.BCS, (B(2, 1), T(1, True), W.P)) == "q q p t1* p"
    assert W.render_word(W.F2, (("x", 1), ("y", -1))) == "x y-"
    assert W.render_word(W.BC, B(1, 2)) == "q p p"
