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


class Element:
    """Finitely supported word -> scalar map in a fixed universe.

    The constructor folds every key into normal form and adds the
    coefficients of keys that fold to the same word.
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe: str, terms: Mapping | None = None):
        if universe not in W.UNIVERSES:
            raise ValueError(f"unknown universe {universe!r}")
        self.universe = universe
        normal = _NORMAL_FORM.get(universe)
        clean: dict = {}
        if terms:
            for word, coeff in terms.items():
                coeff = _coerce(coeff)
                if normal is not None:
                    word = normal(word)
                prev = clean.get(word)
                clean[word] = coeff if prev is None else prev + coeff
        self.terms = {w: c for w, c in clean.items() if not c.is_zero()}

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
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            prev = terms.get(word)
            s = coeff if prev is None else prev + coeff
            if s.re or s.im:
                terms[word] = s
            else:
                terms.pop(word, None)
        return Element._raw(self.universe, terms)

    def __sub__(self, other):
        self._require_same(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            prev = terms.get(word)
            s = -coeff if prev is None else prev - coeff
            if s.re or s.im:
                terms[word] = s
            else:
                terms.pop(word, None)
        return Element._raw(self.universe, terms)

    def __neg__(self):
        return Element._raw(self.universe, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._require_same(other)
        uni = self.universe
        mul = W.word_mul
        out: dict = {}
        for wu, cu in self.terms.items():
            for wv, cv in other.terms.items():
                word = mul(uni, wu, wv)
                c = cu * cv
                prev = out.get(word)
                if prev is not None:
                    c = prev + c
                out[word] = c
        return Element._raw(uni, {w: c for w, c in out.items() if c.re or c.im})

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
    terms: dict = {}
    for scalar, el in pairs:
        if el.universe != universe:
            raise UniverseMismatch(f"cannot combine {universe!r} with {el.universe!r}")
        scalar = _coerce(scalar)
        for word, coeff in el.terms.items():
            s = terms.get(word, ZERO) + scalar * coeff
            if s.is_zero():
                terms.pop(word, None)
            else:
                terms[word] = s
    return Element(universe, terms)
