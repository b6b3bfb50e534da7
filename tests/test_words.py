"""Word kernel: interned letters, normal forms, multiplication, involution, enumeration, maps."""

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from pqt import words as W
from pqt.cli import parse_word
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
    assert W.enumerate_words(1, -1, W.BC) == [(), (W.P,), (W.Q,)]
    assert len(W.enumerate_words(1, -1, W.F2)) == 5
    with pytest.raises(ValueError, match="unknown universe"):
        W.enumerate_words(1, 1, "z")


def test_enumerate_words_rejects_oversized_requests(monkeypatch):
    with pytest.raises(LimitExceeded, match=r"\(m <= 12, k <= 16\)"):
        W.enumerate_words(50, 3, W.SINF)
    with monkeypatch.context() as patch:
        patch.setattr(W, "DEFAULT_ENUMERATION_LIMIT", 10_000)
        with pytest.raises(LimitExceeded, match=r"\(limit 10000\)"):
            W.enumerate_words(6, 6, W.BCS)
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


def test_free_part_and_block_part_pinned_values():
    w = (W.Q, T(1), B(2, 1), T(2, True))
    assert W.free_part(w) == (T(1), T(2, True))
    assert W.block_part(w) == B(3, 1)  # q q^2 p
    assert W.free_part(()) == () and W.block_part(()) == W.BC_IDENTITY
    assert W.block_part((W.P, T(1), W.Q)) == W.BC_IDENTITY  # pq = e across the free letter


def test_free_part_and_block_part_are_monoid_maps():
    rng = random.Random(37)
    for _ in range(500):
        u = random_word(rng, W.BCS, max_len=4, max_index=3)
        v = random_word(rng, W.BCS, max_len=4, max_index=3)
        uv = pw_mul_by_rewriting(u, v)
        assert W.free_part(uv) == W.free_part(u) + W.free_part(v)
        assert W.block_part(uv) == bc_mul_by_rewriting(W.block_part(u), W.block_part(v))


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
    assert W.render_word(W.BC, (B(1, 2),)) == "q p p"


# -- interned letters ---------------------------------------------------------------


def _canonical(it):
    return B(it.a, it.b) if isinstance(it, B) else W.FreeGen(it.index, it.starred)


def test_equal_letters_are_one_object_on_every_path():
    assert B(0, 1) is W.P and B(a=1, b=0) is W.Q and B(0, 0) is W.BC_IDENTITY
    assert W.FreeGen(3) is W.FreeGen(3, False) is W.FreeGen(index=3, starred=False) is T(3)
    assert W.FreeGen(2, True) is T(2, True) is T(2).star() and T(2, True).star() is T(2)
    assert W.FreeGen(1, 0) is W.FreeGen(1, False) and W.FreeGen(1, 1) is W.FreeGen(1, True)
    assert type(W.FreeGen(4, 1).starred) is bool and type(W.FreeGen(5, 0).starred) is bool
    assert W.bc_mul(W.Q, W.P) is B(1, 1) and W.bc_mul(W.P, W.Q) is W.BC_IDENTITY
    assert W.bc_star(B(2, 3)) is B(3, 2)
    word = W.normalize_items([W.Q, W.Q, W.P, T(1), W.P, W.Q, W.Q])
    assert word[0] is B(2, 1) and word[1] is T(1) and word[2] is B(1, 0)
    starred = W.pw_star((B(2, 1), T(1), W.P))
    assert starred[0] is W.Q and starred[1] is T(1, True) and starred[2] is B(1, 2)
    for universe in (W.SINF, W.BCS):
        for w in W.enumerate_words(2, 2, universe):
            assert all(it is _canonical(it) for it in w), w
    assert all(x is _canonical(x) for w in W.enumerate_words(3, 0, W.BC) for x in w)
    assert parse_word("q q p", W.BC)[0] is B(2, 1)
    parsed = parse_word("q t2* p p t1", W.BCS)
    assert parsed[0] is W.Q and parsed[1] is T(2, True) and parsed[2] is B(0, 2) and parsed[3] is T(1)


def test_letter_copies_and_pickles_are_the_interned_object():
    for letter in (W.P, B(3, 5), T(1), T(7, True)):
        assert copy.copy(letter) is letter
        assert copy.deepcopy(letter) is letter
        assert pickle.loads(pickle.dumps(letter)) is letter
    word = (B(2, 1), T(1), W.P)
    assert all(x is y for x, y in zip(pickle.loads(pickle.dumps(word)), word))
    assert all(x is y for x, y in zip(copy.deepcopy(word), word))


def test_letters_are_immutable():
    for letter, field in ((B(1, 2), "a"), (B(1, 2), "b"), (T(1), "index"), (T(1), "starred")):
        with pytest.raises(AttributeError):
            setattr(letter, field, 9)
        with pytest.raises(AttributeError):
            delattr(letter, field)
    with pytest.raises(AttributeError):
        W.P.extra = 1
    assert B(1, 2).a == 1 and T(1).index == 1 and not T(1).starred


def test_letter_repr_and_class_aware_equality():
    assert repr(B(0, 1)) == "BCElement(a=0, b=1)"
    assert repr(T(2, True)) == "FreeGen(index=2, starred=True)"
    assert repr(W.FreeGen(3, 0)) == "FreeGen(index=3, starred=False)"
    assert B(1, 0) != W.FreeGen(1, False) and B(1, 0) == B(1, 0)
    assert isinstance(W.P, B) and isinstance(T(1), W.FreeGen)


def test_letters_built_concurrently_are_one_object():
    # values no other test builds, so every thread races to create them
    values = [(10_000 + i, i % 3) for i in range(200)]
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def build(slot):
        barrier.wait()
        results[slot] = [(B(a, b), W.FreeGen(a, b == 1)) for a, b in values]

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so lookups and inserts interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    for other in results[1:]:
        assert all(x is y and u is v for (x, u), (y, v) in zip(first, other))
    assert len({id(x) for x, _ in first}) == len({id(u) for _, u in first}) == 200


def _fields(it):
    # a letter as plain data: class name and field values
    if isinstance(it, B):
        return ("BCElement", it.a, it.b)
    if isinstance(it, W.FreeGen):
        return ("FreeGen", it.index, it.starred)
    return it  # an f2 letter is already a plain tuple


def _word_fields(w):
    return tuple(map(_fields, w))


_letters = st.one_of(
    st.builds(B, st.integers(0, 2), st.integers(0, 2)),
    st.builds(W.FreeGen, st.integers(1, 2), st.sampled_from([False, True, 0, 1])),
)
_UNIVERSE_WORDS = {
    W.BC: st.builds(B, st.integers(0, 2), st.integers(0, 2)).map(lambda x: W.normalize_items((x,))),
    W.SINF: st.lists(st.builds(W.FreeGen, st.integers(1, 2), st.booleans()), max_size=3).map(tuple),
    W.BCS: st.lists(_letters, max_size=4).map(W.normalize_items),
    W.F2: st.lists(st.sampled_from([("x", 1), ("x", -1), ("y", 1), ("y", -1)]), max_size=4).map(W.fg_normalize),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), universe=st.sampled_from(W.UNIVERSES), x=_letters, y=_letters)
def test_equality_is_equality_of_fields(data, universe, x, y):
    assert (x == y) == (x is y) == (_fields(x) == _fields(y))
    if x == y:
        assert hash(x) == hash(y)
    u, v = data.draw(_UNIVERSE_WORDS[universe]), data.draw(_UNIVERSE_WORDS[universe])
    same = _word_fields(u) == _word_fields(v)
    assert (u == v) == same
    assert ({u: 1}.get(v) == 1) == same
