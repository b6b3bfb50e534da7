"""Finitely supported linear combinations over exact Gaussian rationals.

An :class:`Element` is a universe-tagged sparse map from normal-form
words to :class:`GaussianRational` coefficients.  Every operation is
exact; nothing here ever rounds, which is what makes the "coefficient
is nonzero" checks elsewhere meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import UniverseMismatch
from . import words as W


_FZERO = Fraction(0)


def _fast(re: Fraction, im: Fraction) -> "GaussianRational":
    z = GaussianRational.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


class GaussianRational:
    """re + im*i with arbitrary-precision rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        return _fast(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        return _fast(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _fast(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b and not d:
            return _fast(a * c, _FZERO)
        return _fast(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _fast(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return _fast(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# universes whose words have more than one spelling, and the fold to normal form
_NORMAL_FORM = {W.BCS: W.normalize_items, W.F2: W.fg_normalize}


def _collect(pairs: list) -> dict:
    """Sum (word, scalar) pairs into a term dict: the one sparse-sum kernel.

    Coincident words add, words whose sum is zero drop, and the others
    keep the order in which they first appear.
    """
    out: dict = {}
    get = out.get
    for word, c in pairs:
        prev = get(word)
        out[word] = c if prev is None else prev + c
    return {w: c for w, c in out.items() if c.re or c.im}


class Element:
    """Finitely supported word -> scalar map in a fixed universe.

    The constructor rejects keys that are not words of the universe, folds
    every key into normal form and adds the coefficients of keys that fold
    to the same word.
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe: str, terms: Mapping | None = None):
        if universe not in W.UNIVERSES:
            raise ValueError(f"unknown universe {universe!r}")
        terms = terms or {}
        for word in terms:
            if not W.is_word(universe, word):
                raise ValueError(f"{word!r} is not a word of universe {universe!r}")
        normal = _NORMAL_FORM.get(universe, lambda w: w)
        self.universe = universe
        self.terms = _collect([(normal(w), _coerce(c)) for w, c in terms.items()])

    @classmethod
    def _raw(cls, universe: str, terms: dict) -> "Element":
        # internal: keys must already be normal forms, terms zero-pruned scalars
        el = cls.__new__(cls)
        el.universe = universe
        el.terms = terms
        return el

    # algebra -----------------------------------------------------------------

    def _require_same(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if self.universe != other.universe:
            raise UniverseMismatch(f"cannot combine {self.universe!r} with {other.universe!r}")

    def __add__(self, other):
        self._require_same(other)
        return Element._raw(self.universe, _collect([*self.terms.items(), *other.terms.items()]))

    def __sub__(self, other):
        self._require_same(other)
        return Element._raw(self.universe, _collect([*self.terms.items(), *[(w, -c) for w, c in other.terms.items()]]))

    def __neg__(self):
        return Element._raw(self.universe, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._require_same(other)
        uni = self.universe
        mul = W.word_mul
        other_terms = other.terms.items()
        return Element._raw(
            uni, _collect([(mul(uni, wu, wv), cu * cv) for wu, cu in self.terms.items() for wv, cv in other_terms])
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar) -> "Element":
        scalar = _coerce(scalar)
        if scalar.is_zero():
            return Element._raw(self.universe, {})
        return Element._raw(self.universe, {w: c * scalar for w, c in self.terms.items()})

    def star(self) -> "Element":
        star = W.word_star
        return Element._raw(
            self.universe,
            {star(self.universe, w): c.conjugate() for w, c in self.terms.items()},
        )

    # inspection --------------------------------------------------------------

    def coordinate(self, word) -> GaussianRational:
        return self.terms.get(word, ZERO)

    def support(self):
        return self.terms.keys()

    def support_max_len(self) -> int:
        return max((W.word_len(self.universe, w) for w in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: W.word_sort_key(self.universe, kv[0]))

    def render(self) -> str:
        if not self.terms:
            return "0*e"
        parts = [f"{c}*{W.render_word(self.universe, w)}" for w, c in self.sorted_terms()]
        return " + ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __repr__(self):
        return f"<{self.universe}: {self.render()}>"


def zero(universe: str) -> Element:
    return Element(universe)


def delta(universe: str, word) -> Element:
    return Element(universe, {word: ONE})


def unit(universe: str) -> Element:
    return delta(universe, W.identity_word(universe))


def linear_combine(pairs: Iterable) -> Element:
    """Exact linear combination of (scalar, Element) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("linear_combine needs at least one pair")
    universe = pairs[0][1].universe
    scaled: list = []
    for scalar, el in pairs:
        if el.universe != universe:
            raise UniverseMismatch(f"cannot combine {universe!r} with {el.universe!r}")
        scalar = _coerce(scalar)
        scaled += [(word, scalar * coeff) for word, coeff in el.terms.items()]
    return Element._raw(universe, _collect(scaled))
