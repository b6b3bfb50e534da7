"""Scalars and sparse *-algebra elements: exact arithmetic and ring axioms."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pqt import words as W
from pqt.algebra import Element, GaussianRational, I, ONE, ZERO, delta, linear_combine, unit, zero
from pqt.errors import UniverseMismatch
from oracles import random_element, random_scalar

B = W.BCElement
T = W.t


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestGaussianRational:
    def test_arithmetic(self):
        a = gr("1/2", "1/3")
        b = gr("-2", "1/6")
        assert a + b == gr("-3/2", "1/2")
        assert a - b == gr("5/2", "1/6")
        assert a * b == gr(Fraction(-1) - Fraction(1, 18), Fraction(1, 12) - Fraction(2, 3))
        assert (a / b) * b == a
        assert -a == gr("-1/2", "-1/3")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    def test_conjugate_and_abs2(self):
        a = gr("3/4", "-2/5")
        assert a.conjugate() == gr("3/4", "2/5")
        assert a.abs2() == Fraction(9, 16) + Fraction(4, 25)
        assert (a * a.conjugate()) == GaussianRational(a.abs2())

    def test_numpy_integer_parts_stay_exact(self):
        # Fraction keeps a numpy integer as its numerator; a 64-bit product would wrap
        big = np.int64(2**62)
        assert GaussianRational(big) * 4 == GaussianRational(2**64)
        assert GaussianRational(Fraction(1, 3), big) * 4 == GaussianRational(Fraction(4, 3), 2**64)

    @pytest.mark.parametrize("re, im", [(0.1, 0), (1, 0.5), (float("inf"), 0), ("1/2", 0), (1j, 0)])
    def test_only_ints_and_rationals_are_exact_scalars(self, re, im):
        with pytest.raises(TypeError, match=type(re if im == 0 else im).__name__):
            GaussianRational(re, im)

    def test_str(self):
        assert str(gr("1/2")) == "1/2"
        assert str(gr(0, 1)) == "0+1i"
        assert str(gr("-1/2", "-1/3")) == "-1/2-1/3i"
        assert str(gr(3)) == "3"


def test_linear_combine_prunes_and_merges():
    dp = delta(W.BC, W.P)
    dq = delta(W.BC, W.Q)
    assert linear_combine([(1, dp), (0, dq)]) == dp
    de = unit(W.BC)
    assert linear_combine([(1, de), (-1, de)]) == zero(W.BC)
    dt = delta(W.SINF, (T(1),))
    assert linear_combine([(Fraction(1, 2), dt), (Fraction(1, 2), dt)]) == dt


def test_mul_pinned_values():
    dp = delta(W.BCS, (W.P,))
    dq = delta(W.BCS, (W.Q,))
    assert dp * dq == unit(W.BCS)
    assert dq * dp == delta(W.BCS, (B(1, 1),))
    t1 = delta(W.BCS, (T(1),))
    t2 = delta(W.BCS, (T(2),))
    product = (dp + t1) * (dq + t2)
    expected = (
        unit(W.BCS)
        + delta(W.BCS, (W.P, T(2)))
        + delta(W.BCS, (T(1), W.Q))
        + delta(W.BCS, (T(1), T(2)))
    )
    assert product == expected


def test_star_pinned_values():
    assert (delta(W.BC, W.P).scale(I)).star() == delta(W.BC, W.Q).scale(-I)
    assert unit(W.BCS).star() == unit(W.BCS)
    x = delta(W.BCS, (T(1),)) + delta(W.BCS, (W.P, T(2))).scale(2)
    expected = delta(W.BCS, (T(1, True),)) + delta(W.BCS, (T(2, True), W.Q)).scale(2)
    assert x.star() == expected


def test_coordinate():
    x = delta(W.BC, W.P) + delta(W.BC, W.Q).scale(3)
    assert x.coordinate((W.Q,)) == gr(3)
    assert unit(W.BC).coordinate((W.P,)) == ZERO
    assert (delta(W.BC, W.P) * delta(W.BC, W.Q)).coordinate(()) == ONE


def test_bc_is_a_sub_universe_of_bcs():
    # a bc word is a bcs word, and bc arithmetic is bcs arithmetic on those words
    rng = random.Random(107)
    for _ in range(300):
        x = random_element(rng, W.BC, max_exp=3)
        y = random_element(rng, W.BC, max_exp=3)
        for w in x.terms:
            assert W.is_word(W.BCS, w) and W.normalize_items(w) == w
        xs, ys = Element(W.BCS, x.terms), Element(W.BCS, y.terms)
        assert list((xs * ys).terms.items()) == list((x * y).terms.items())
        assert list(xs.star().terms.items()) == list(x.star().terms.items())
        assert xs.render() == x.render() and (xs * ys).render() == (x * y).render()
    for m in range(6):
        for w in W.enumerate_words(m, 0, W.BC):
            assert W.is_word(W.BCS, w) and W.normalize_items(w) == w


def test_ring_axioms_on_random_triples():
    rng = random.Random(101)
    one = unit(W.BCS)
    for _ in range(1000):
        x = random_element(rng, W.BCS)
        y = random_element(rng, W.BCS)
        z = random_element(rng, W.BCS)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert one * x == x == x * one


def test_star_is_conjugate_linear_antiautomorphism():
    rng = random.Random(102)
    for _ in range(400):
        x = random_element(rng, W.BCS)
        y = random_element(rng, W.BCS)
        a = random_scalar(rng)
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x
        assert x.scale(a).star() == x.star().scale(a.conjugate())


def test_support_of_products():
    rng = random.Random(103)
    for _ in range(300):
        x = random_element(rng, W.BCS)
        y = random_element(rng, W.BCS)
        allowed = {W.pw_mul(u, v) for u in x.support() for v in y.support()}
        assert set((x * y).support()) <= allowed
        longest = [max(map(len, el.support()), default=0) for el in (x * y, x, y)]
        assert longest[0] <= longest[1] + longest[2]


def test_coordinate_is_linear():
    rng = random.Random(104)
    for _ in range(300):
        x = random_element(rng, W.BCS)
        y = random_element(rng, W.BCS)
        a = random_scalar(rng)
        b = random_scalar(rng)
        combo = linear_combine([(a, x), (b, y)])
        probe = next(iter(x.support()), W.identity_word(W.BCS))
        assert combo.coordinate(probe) == a * x.coordinate(probe) + b * y.coordinate(probe)


def test_universe_mismatch_raises():
    with pytest.raises(UniverseMismatch):
        delta(W.BC, W.P) * unit(W.BCS)
    with pytest.raises(UniverseMismatch):
        delta(W.BC, W.P) + unit(W.BCS)
    with pytest.raises(UniverseMismatch):
        linear_combine([(1, delta(W.BC, W.P)), (1, unit(W.F2))])


def test_linear_combine_rejects_empty_input():
    with pytest.raises(ValueError):
        linear_combine([])


def test_zero_handling():
    x = delta(W.BCS, (T(1),))
    assert (x - x).is_zero()
    assert (x - x).render() == "0*e"
    assert x.scale(0).is_zero()
    assert (x * zero(W.BCS)).is_zero()


def test_render_sorted_by_word_order():
    x = delta(W.BCS, (T(2),)) + unit(W.BCS) + delta(W.BCS, (W.P, T(2))).scale(Fraction(1, 2))
    assert x.render() == "1*e + 1*t2 + 1/2*p t2"


@pytest.mark.parametrize(
    "universe, key",
    [(W.BC, (T(1),)), (W.SINF, (W.P,)), (W.BCS, (("x", 1),)), (W.F2, (T(1),))],
    ids=W.UNIVERSES,
)
def test_constructor_rejects_keys_outside_the_universe(universe, key):
    with pytest.raises(ValueError):
        Element(universe, {key: 1})


def test_constructors_fold_keys_into_normal_form():
    assert delta(W.BCS, (W.P, W.P)) == delta(W.BCS, (B(0, 2),))
    assert delta(W.BCS, (W.P, W.Q, T(1))) == delta(W.BCS, (T(1),))
    el = Element(W.BCS, {(W.P, W.P): 1, (B(0, 2),): 1})
    assert el.terms == {(B(0, 2),): GaussianRational(2)}
    assert Element(W.BCS, {(W.P, W.Q): 1, (): -1}).is_zero()
    assert delta(W.F2, (("x", 1), ("x", -1), ("y", 1))) == delta(W.F2, (("y", 1),))
    # a bc word is () or one block; a lone block spells its 1-tuple
    assert Element(W.BC, {(): 1}) == unit(W.BC) and list(unit(W.BC).terms) == [()]
    assert list(delta(W.BC, W.P).terms) == [(W.P,)] and delta(W.BC, (W.Q, W.Q, W.P)) == delta(W.BC, B(2, 1))
    assert Element(W.BC, {(W.P, W.Q): 1, W.BC_IDENTITY: 1}).terms == {(): GaussianRational(2)}
