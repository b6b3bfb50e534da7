"""States: component moments, free-product moments, PSD checks, trace."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pqt import words as W
from pqt.algebra import Element, GaussianRational, ONE, ZERO, delta, linear_combine, unit, zero
from pqt.states import (
    _psd_int,
    Character,
    FreeProductState,
    StateConfig,
    Vacuum,
    bc_moment,
    free_moment,
    gram_matrix,
    gram_psd_check,
    psd_decide,
    trace_f2,
)
from oracles import (
    block_gram_factors,
    distinct_kept_blocks,
    moment_two_level,
    psd_by_principal_minors,
    psd_int_full,
    random_element,
    random_scalar,
    random_word,
    reblock,
)

B = W.BCElement
T = W.t

VACUUM = StateConfig(s_state=Vacuum())


def gr(x):
    return GaussianRational(Fraction(x))


def test_bc_moment_pinned_values():
    assert bc_moment(B(0, 0)) == ONE
    assert bc_moment(B(1, 1)) == gr("1/2")
    assert bc_moment(B(2, 3)) == ZERO
    assert bc_moment(B(3, 3)) == gr("1/8")


def test_bc_moment_against_truncated_matrix_state():
    # Tr(rho S^a (S^dag)^b) with rho = diag(2^-(i+1)) on a 64-dim truncation
    d = 64
    S = np.eye(d, k=-1)
    Sd = S.T
    rho = np.diag([2.0 ** -(i + 1) for i in range(d)])
    for a in range(6):
        for b in range(6):
            numeric = np.trace(rho @ np.linalg.matrix_power(S, a) @ np.linalg.matrix_power(Sd, b))
            exact = bc_moment(B(a, b))
            assert abs(numeric - float(exact.re)) < 1e-12


def test_free_moment_single_blocks_defer_to_components():
    for a in range(5):
        for b in range(5):
            el = delta(W.BCS, W.normalize_items([B(a, b)]))
            assert free_moment(el) == bc_moment(B(a, b))
    assert free_moment(delta(W.BCS, (T(1),))) == gr("1/2")
    assert free_moment(delta(W.BCS, (T(1),)), VACUUM) == ZERO


def test_character_refuses_a_float():
    with pytest.raises(TypeError, match="not float"):
        Character(0.1)
    assert Character(np.int64(2)).z == 2 and type(Character(np.int64(2)).z.numerator) is int


def test_free_moment_q_t1_p():
    word = W.normalize_items([W.Q, T(1), W.P])
    assert free_moment(delta(W.BCS, word)) == gr("1/4")


def test_free_moment_unital_and_linear():
    state = FreeProductState()
    assert state.moment(unit(W.BCS)) == ONE
    assert FreeProductState(VACUUM).moment(unit(W.BCS)) == ONE
    x = delta(W.BCS, (T(1),)).scale(Fraction(2, 3)) + unit(W.BCS)
    assert state.moment(x) == gr("1/3") + ONE


# words of 6 to 10 alternating blocks, each with a nonzero moment under a character
DEEP_WORDS = [
    reblock(text.split())
    for text in (
        "t1 q q t1* p t2* p",
        "t1 p t1* t1* t2 q t2* t1 t2 q p t2",
        "p t1 p t1 t2* t2 t1* t1 q q t1* q p t1",
        "t2 q p t2 q p t2* p p t1 t2* q q t1",
        "t2* t1* p t1 q q t1 p p t2 q p t1 q",
    )
]


@pytest.mark.parametrize(
    "cfg",
    [StateConfig(), StateConfig(s_state=Character(Fraction(1, 3))), VACUUM],
    ids=["character-1/2", "character-1/3", "vacuum"],
)
def test_free_moment_matches_two_level_oracle(cfg):
    rng = random.Random(301)
    state = FreeProductState(cfg)
    shallow = [random_word(rng, W.BCS, max_len=4, max_index=2, max_exp=2) for _ in range(120)]
    for w in shallow + DEEP_WORDS:
        got = state.word_moment(w)
        expected = moment_two_level(w, cfg)
        assert got == GaussianRational(expected), W.render_word(W.BCS, w)


def _long_word(rng, blocks):
    # exactly ``blocks`` alternating blocks; the last bicyclic block is the star
    # of the product c of the earlier ones, and c c* = q^a p^a has a nonzero moment
    items, collapsed = [], W.BC_IDENTITY
    bc = rng.random() < 0.5
    for n in range(blocks):
        if not bc:
            items.extend(T(rng.randint(1, 3), rng.random() < 0.5) for _ in range(rng.randint(1, 2)))
        elif n + 2 < blocks:
            a = rng.randint(0, 2)
            items.append(B(a, rng.randint(0 if a else 1, 2)))
            collapsed = W.bc_mul(collapsed, items[-1])
        else:
            items.append(B(1, 1) if collapsed.is_identity() else W.bc_star(collapsed))
        bc = not bc
    return tuple(items)


# words of 11 to 24 alternating blocks, too long for the two-level oracle
_LONG_RNG = random.Random(309)
LONG_WORDS = [_long_word(_LONG_RNG, blocks) for blocks in range(11, 25)]


@pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(2)])
def test_free_moment_factors_through_block_collapse(z):
    # For a multiplicative free-monoid state (characters, incl. the vacuum
    # as z = 0), the free-product state must factor through the
    # *-homomorphism that evaluates letters to z and multiplies the
    # bicyclic blocks in order: mu(w) = z^letters * mu1(collapse(w)).
    cfg = StateConfig(s_state=Vacuum()) if z == 0 else StateConfig(s_state=Character(z))
    state = FreeProductState(cfg)
    rng = random.Random(int(z * 1000) + 7)
    for w in [random_word(rng, W.BCS, max_len=5, max_index=3, max_exp=3) for _ in range(400)] + LONG_WORDS:
        letters = sum(1 for it in w if isinstance(it, W.FreeGen))
        collapsed = W.BC_IDENTITY
        for it in w:
            if isinstance(it, W.BCElement):
                collapsed = W.bc_mul(collapsed, it)
        expected = GaussianRational(z**letters) * bc_moment(collapsed)
        assert state.word_moment(w) == expected, W.render_word(W.BCS, w)


def test_free_moment_hermitian_symmetry():
    rng = random.Random(302)
    state = FreeProductState()
    for _ in range(500):
        x = random_element(rng, W.BCS)
        assert state.moment(x.star()) == state.moment(x).conjugate()


def test_centered_alternating_products_vanish():
    rng = random.Random(303)
    state = FreeProductState()
    for _ in range(200):
        r = rng.randint(2, 4)
        factors = []
        use_bc = rng.random() < 0.5
        for _ in range(r):
            if use_bc:
                a = rng.randint(0, 2)
                b = rng.randint(0, 2)
                if a == 0 and b == 0:
                    a = 1
                w = (B(a, b),)
            else:
                w = tuple(T(rng.randint(1, 2), rng.random() < 0.5) for _ in range(rng.randint(1, 2)))
            dw = delta(W.BCS, w)
            factors.append(dw - unit(W.BCS).scale(state.moment(dw)))
            use_bc = not use_bc
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        assert state.moment(product) == ZERO


def test_vacuum_degeneracy_on_enumeration(monkeypatch):
    state = FreeProductState(VACUUM)
    character_zero = FreeProductState(StateConfig(s_state=Character(0)))
    monkeypatch.setattr(W, "DEFAULT_BLOCK_FACTOR", 1)
    for w in W.enumerate_words(4, 2, W.BCS):
        val = state.word_moment(w)
        assert val == character_zero.word_moment(w)
        if any(isinstance(it, W.FreeGen) for it in w):
            assert val == ZERO
        else:
            expected = bc_moment(w[0]) if w else ONE
            assert val == expected


def test_gram_pinned_small_cases():
    report = gram_psd_check(W.BC, [()])
    assert report.psd
    state = FreeProductState()
    G = gram_matrix(W.BC, [(), (W.Q,)], state)
    # mu(q* q) = mu(p q) = mu(e) = 1; the 1/2 shows up for the reversed product
    assert G[0][0] == ONE and G[0][1] == ZERO and G[1][0] == ZERO
    assert G[1][1] == ONE
    assert bc_moment(W.bc_mul(W.Q, W.P)) == gr("1/2")
    assert gram_psd_check(W.BC, [(), (W.Q,)]).psd


def test_gram_matches_truncated_matrix_state():
    # float cross-check of formula and representation conventions at d = 64
    d = 64
    S = np.eye(d, k=-1)
    Sd = S.T
    rho = np.diag([2.0 ** -(i + 1) for i in range(d)])
    words = W.enumerate_words(3, 0, W.BC)
    state = FreeProductState()
    G = gram_matrix(W.BC, words, state)
    blocks = [w[0] if w else W.BC_IDENTITY for w in words]
    for i, wi in enumerate(blocks):
        for j, wj in enumerate(blocks):
            pi = np.linalg.matrix_power(S, wi.a) @ np.linalg.matrix_power(Sd, wi.b)
            pj = np.linalg.matrix_power(S, wj.a) @ np.linalg.matrix_power(Sd, wj.b)
            numeric = np.trace(rho @ pi.T @ pj)
            assert abs(numeric - float(G[i][j].re)) < 1e-10


def test_gram_psd_on_length_two_words():
    words = W.enumerate_words(2, 2, W.BCS)
    assert gram_psd_check(W.BCS, words).psd
    assert gram_psd_check(W.BCS, words, VACUUM).psd


def test_component_states_are_positive_on_their_own_algebras():
    bc_words = W.enumerate_words(4, 0, W.BC)
    assert gram_psd_check(W.BC, bc_words).psd
    s_words = W.enumerate_words(2, 2, W.SINF)
    assert gram_psd_check(W.SINF, s_words).psd
    assert gram_psd_check(W.SINF, s_words, StateConfig(s_state=Character(Fraction(1, 3)))).psd
    assert gram_psd_check(W.SINF, s_words, VACUUM).psd


def test_gram_rejects_duplicate_words():
    with pytest.raises(ValueError):
        gram_psd_check(W.BC, [(W.Q,), (W.Q,)])


GRAM_STATES = [StateConfig(), StateConfig(s_state=Character(Fraction(-3, 5))), VACUUM]
GRAM_STATE_IDS = ["z=1/2", "z=-3/5", "vacuum"]
GRAM_LISTS = {
    "bc": (W.BC, W.enumerate_words(4, 0, W.BC)),
    "sinf": (W.SINF, W.enumerate_words(2, 2, W.SINF)),
    "bcs": (W.BCS, W.enumerate_words(2, 1, W.BCS)),
}
BCS_264 = W.enumerate_words(2, 2, W.BCS)


@pytest.mark.parametrize("cfg", GRAM_STATES, ids=GRAM_STATE_IDS)
@pytest.mark.parametrize("name", list(GRAM_LISTS))
def test_gram_factors_through_collapsed_blocks(name, cfg):
    # G = D S K S^T D, entry for entry, with D, S and K built by rewriting
    universe, words = GRAM_LISTS[name]
    d, s, K = block_gram_factors(universe, words, cfg.s_state.z)
    G = gram_matrix(universe, words, FreeProductState(cfg))
    for i in range(len(words)):
        for j in range(len(words)):
            assert G[i][j] == GaussianRational(d[i] * d[j] * K[s[i]][s[j]]), (i, j)


@pytest.mark.parametrize("cfg", GRAM_STATES, ids=GRAM_STATE_IDS)
@pytest.mark.parametrize("name", list(GRAM_LISTS) + ["bcs-264"])
def test_gram_psd_check_matches_full_elimination(name, cfg):
    universe, words = GRAM_LISTS[name] if name in GRAM_LISTS else (W.BCS, BCS_264)
    report = gram_psd_check(universe, words, cfg)
    assert report.psd == psd_decide(gram_matrix(universe, words, FreeProductState(cfg)))[0]
    assert report.violating_minor is None
    blocks = distinct_kept_blocks(universe, words, cfg.s_state.z)
    assert report.stats == {"words": len(words), "blocks": blocks}
    assert "stats" not in report.to_dict()
    if name == "bcs-264":
        assert blocks == 28


def _signed_dyadic(x):
    # [a == b] (-1)^a: Hermitian, but not positive (K on {e, p} is diag(1, -1))
    return Fraction((-1) ** x.a) if x.a == x.b else Fraction(0)


@pytest.mark.parametrize("cfg", GRAM_STATES, ids=GRAM_STATE_IDS)
@pytest.mark.parametrize(
    "universe, words",
    [(W.BC, W.enumerate_words(2, 0, W.BC)), (W.BCS, W.enumerate_words(1, 1, W.BCS)), (W.BCS, [(T(1), W.P), (), (W.P,)])],
    ids=["bc", "bcs", "bcs-free-letter-first"],
)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_gram_violating_minor_maps_back_to_words(monkeypatch, universe, words, cfg, reverse):
    monkeypatch.setattr("pqt.states._mu1", _signed_dyadic)
    words = words[::-1] if reverse else words
    report = gram_psd_check(universe, words, cfg)
    G = gram_matrix(universe, words, FreeProductState(cfg))
    assert not report.psd and not psd_decide(G)[0]
    minor = report.violating_minor
    assert minor and minor == sorted(set(minor)) and report.to_dict()["violating_minor"] == minor
    assert not psd_by_principal_minors([[G[i][j] for j in minor] for i in minor])


def test_psd_decide_failure_witnesses():
    one, two = GaussianRational(1), GaussianRational(2)
    neg = GaussianRational(-1)
    z = GaussianRational(0)
    psd, minor = psd_decide([[one, two], [two, one]])
    assert not psd and minor == [0, 1]
    psd, minor = psd_decide([[neg]])
    assert not psd and minor == [0]
    psd, minor = psd_decide([[z, one], [one, z]])
    assert not psd and minor == [0, 1]
    # zero row is fine (semidefinite boundary)
    psd, minor = psd_decide([[z, z], [z, one]])
    assert psd and minor is None


def test_psd_decide_fuzzed_against_eigenvalues():
    from oracles import random_scalar

    rng = random.Random(314)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 6)
        # random exact Hermitian matrix, sometimes a guaranteed-PSD B* B
        b = [[random_scalar(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            G = [[sum((b[k][i].conjugate() * b[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
        else:
            G = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = random_scalar(rng)
                    if i == j:
                        v = GaussianRational(v.re)
                    G[i][j] = v
                    G[j][i] = v.conjugate()
        numeric = np.array([[complex(float(e.re), float(e.im)) for e in row] for row in G])
        eigs = np.linalg.eigvalsh(numeric)
        if abs(eigs.min()) < 1e-8:
            continue  # too close to the boundary for the float referee
        checked += 1
        psd, minor = psd_decide(G)
        assert psd == (eigs.min() > 0), (eigs, [[str(e) for e in row] for row in G])
        if not psd:
            assert minor and sorted(minor) == minor


def _random_hermitian(rng, n):
    """Small exact Hermitian matrices with zero pivots, zero rows and negative diagonals."""
    mode = rng.randrange(3)
    if mode == 0:  # sparse symmetric integers: zero and negative pivots
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.choice((-2, -1, 0, 0, 0, 1, 2))
        return [[GaussianRational(v) for v in row] for row in G]
    if mode == 1:  # B^T B of a rank-deficient B: PSD, with zero pivots that head zero rows
        b = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
        return [[GaussianRational(sum(r[i] * r[j] for r in b)) for j in range(n)] for i in range(n)]
    G = [[ZERO] * n for _ in range(n)]  # complex Hermitian, realified by psd_decide
    for i in range(n):
        for j in range(i, n):
            v = random_scalar(rng) if rng.random() < 0.6 else ZERO
            G[i][j] = GaussianRational(v.re) if i == j else v
            G[j][i] = G[i][j].conjugate()
    return G


def test_psd_decide_matches_the_full_matrix_kernel(monkeypatch):
    # the upper-triangle elimination against the full-matrix reference kernel
    rng = random.Random(2024)
    mats = [_random_hermitian(rng, rng.randint(1, 6)) for _ in range(1500)]
    mats.append(_random_hermitian(random.Random(7), 20))
    # integer matrices with a zero pivot: heading a zero row, a nonzero row, and later
    for K in ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], [[0, 1], [1, 0]], [[1, 0, 2], [0, 0, 0], [2, 0, 3]]):
        assert _psd_int(K) == psd_int_full(K)
    got = [psd_decide(G) for G in mats]
    monkeypatch.setattr("pqt.states._psd_int", psd_int_full)
    assert got == [psd_decide(G) for G in mats]
    verdicts = [psd for psd, _ in got]
    assert 0 < sum(verdicts) < len(verdicts)


def test_psd_decide_complex_hermitian():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    two = GaussianRational(2)
    # [[2, i], [-i, 2]] has eigenvalues 1 and 3
    psd, _ = psd_decide([[two, i], [-i, two]])
    assert psd
    # [[1, 2i], [-2i, 1]] has a negative eigenvalue
    psd, minor = psd_decide([[one, i * 2], [-i * 2, one]])
    assert not psd and minor == [0, 1]
    with pytest.raises(ValueError):
        psd_decide([[two, one], [one, i]])
    # not Hermitian: its symmetric part [[1, 5/2], [5/2, 1]] is indefinite
    with pytest.raises(ValueError):
        psd_decide([[one, GaussianRational(5)], [GaussianRational(0), one]])
    # i on both sides of the diagonal: B is symmetric, not antisymmetric
    with pytest.raises(ValueError):
        psd_decide([[two, i], [i, two]])


@pytest.mark.parametrize("complex_ok", [False, True])
def test_psd_decide_matches_principal_minor_oracle(complex_ok):
    rng = random.Random(2718 + complex_ok)
    for _ in range(150):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            # B* B is PSD, and singular when B has fewer rows than columns
            b = [[random_scalar(rng, complex_ok) for _ in range(n)] for _ in range(rng.randint(1, n))]
            G = [[sum((r[i].conjugate() * r[j] for r in b), ZERO) for j in range(n)] for i in range(n)]
        else:
            G = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = random_scalar(rng, complex_ok and i != j)
                    G[i][j], G[j][i] = v, v.conjugate()
        psd, minor = psd_decide(G)
        assert psd == psd_by_principal_minors(G), [[str(e) for e in row] for row in G]
        if not psd:
            assert minor == sorted(set(minor))
            assert not psd_by_principal_minors([[G[i][j] for j in minor] for i in minor])


def test_trace_pinned_values():
    x_gen = delta(W.F2, (("x", 1),))
    x_inv = delta(W.F2, (("x", -1),))
    assert trace_f2(x_gen * x_inv) == ONE
    assert trace_f2(x_gen) == ZERO
    w = delta(W.F2, (("x", 1), ("y", 1)))
    el = unit(W.F2) + w.scale(2)
    assert trace_f2(el.star() * el) == GaussianRational(5)


def test_gram_on_free_group_words_is_diagonal():
    words = [(), (("x", 1),), (("x", 1), ("y", -1))]
    state = FreeProductState()
    G = gram_matrix(W.F2, words, state)
    for i in range(3):
        for j in range(3):
            assert G[i][j] == (ONE if i == j else ZERO)
    assert gram_psd_check(W.F2, words).psd


def test_gram_on_free_group_words_is_decided_without_a_matrix(monkeypatch):
    import pqt.states as S

    def refuse(*args):
        raise AssertionError("an f2 Gram builds or eliminates no matrix")

    monkeypatch.setattr(S, "gram_matrix", refuse)
    monkeypatch.setattr(S, "psd_decide", refuse)
    monkeypatch.setattr(W, "DEFAULT_MAX_CELLS", 4)
    words = [(), (("x", 1),), (("x", 1), ("y", -1))]
    report = gram_psd_check(W.F2, words)
    assert report.psd and report.violating_minor is None
    assert report.stats == {"words": 3}
    with pytest.raises(ValueError, match="pairwise distinct"):
        gram_psd_check(W.F2, words + [(("x", 1),)])


def test_trace_is_tracial():
    rng = random.Random(305)
    for _ in range(500):
        x = random_element(rng, W.F2, max_len=4)
        y = random_element(rng, W.F2, max_len=4)
        assert trace_f2(x * y) == trace_f2(y * x)


def test_trace_positive_definite_identity():
    rng = random.Random(306)
    for _ in range(200):
        x = random_element(rng, W.F2, max_len=4)
        expected = GaussianRational(sum(c.abs2() for c in x.terms.values()))
        assert trace_f2(x.star() * x) == expected
        if not x.is_zero():
            assert trace_f2(x.star() * x).re > 0
