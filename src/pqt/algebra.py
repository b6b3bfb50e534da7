"""Finitely supported linear combinations over exact Gaussian rationals.

An :class:`Element` is a universe-tagged sparse map from normal-form
words to :class:`GaussianRational` coefficients.  Every operation is
exact; nothing here ever rounds, which is what makes the "coefficient
is nonzero" checks elsewhere meaningful.
"""

from __future__ import annotations

import numbers
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .errors import LimitExceeded, UniverseMismatch
from . import words as W


_new = object.__new__


def _reduced(x: int, y: int, d: int) -> "GaussianRational":
    """(x + y*i)/d in canonical form, for d > 0: one gcd, skipped when d is 1."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    z = _new(GaussianRational)
    z.x, z.y, z.d = x, y, d
    return z


def exact_fraction(value) -> Fraction:
    """An int or a ``numbers.Rational`` (Fraction, a numpy integer) as a Fraction.

    Anything else raises TypeError: a float would enter as its binary expansion.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"an exact scalar must be an int or a rational number, not {type(value).__name__}")


class GaussianRational:
    """(x + y*i)/d over the integers, canonical: d > 0 and gcd(x, y, d) = 1.

    Canonical form makes equality a comparison of the three fields, and
    zero is (0, 0, 1).  Arithmetic keeps the numerators over one common
    denominator and reduces by a single gcd (Knuth, TAOCP vol. 2, 4.5.1);
    ``re``, ``im`` and ``abs2`` return Fractions for callers outside.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int:
            a, b = re, 1
        else:
            re = exact_fraction(re)
            # int(): a Fraction built from a numpy integer keeps it, and numpy integers overflow
            a, b = int(re.numerator), int(re.denominator)
        if type(im) is int and im == 0:
            self.x, self.y, self.d = a, 0, b
            return
        im = exact_fraction(im)
        c, e = int(im.numerator), int(im.denominator)
        # canonical with no reduction: a prime p of d = lcm(b, e) divides b (say) as often as d,
        # so p divides neither d/b nor a, hence not x = a d/b
        d = b // gcd(b, e) * e
        self.x, self.y, self.d = a * (d // b), c * (d // e), d

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        d = self.d
        if d == other.d:
            x, y = self.x + other.x, self.y + other.y
        else:
            e = other.d
            x, y, d = self.x * e + other.x * d, self.y * e + other.y * d, d * e
        return _reduced(x, y, d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        d = self.d
        if d == other.d:
            x, y = self.x - other.x, self.y - other.y
        else:
            e = other.d
            x, y, d = self.x * e - other.x * d, self.y * e - other.y * d, d * e
        return _reduced(x, y, d)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        z = _new(GaussianRational)
        z.x, z.y, z.d = -self.x, -self.y, self.d
        return z

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        # scalars are never mutated, so a product with ONE may share the other factor
        if other is ONE:
            return self
        if self is ONE:
            return other
        a, b, c, e = self.x, self.y, other.x, other.y
        d = self.d * other.d
        if b or e:
            x, y = a * c - b * e, a * e + b * c
        else:
            x, y = a * c, 0
        return _reduced(x, y, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
        # (a + bi)/d1 / ((c + ei)/d2) = d2 (a + bi)(c - ei) / (d1 (c^2 + e^2))
        a, b, c, e, f = self.x, self.y, other.x, other.y, other.d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            # real divisor: (a + bi) f / (d1 c), with the sign moved onto the numerator
            x, y, d = (f * a, f * b, self.d * c) if c > 0 else (-f * a, -f * b, -self.d * c)
        else:
            x, y, d = f * (a * c + b * e), f * (b * c - a * e), self.d * (c * c + e * e)
        return _reduced(x, y, d)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        z = _new(GaussianRational)
        z.x, z.y, z.d = self.x, -self.y, self.d
        return z

    def abs2(self) -> Fraction:
        """|z|^2, exactly."""
        return Fraction(self.x * self.x + self.y * self.y, self.d * self.d)

    def is_zero(self) -> bool:
        return not (self.x or self.y)

    def __bool__(self):
        return bool(self.x or self.y)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self.x == other.x and self.y == other.y and self.d == other.d
        if isinstance(other, int):
            return not self.y and self.d == 1 and self.x == other
        if isinstance(other, Fraction):
            return not self.y and self.d == other.denominator and self.x == other.numerator
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        return hash(Fraction(self.x, self.d)) if not self.y else hash((self.x, self.y, self.d))

    def __str__(self):
        if not self.y:
            return _ratio(self.x, self.d)  # reduced already
        re = _ratio(self.x, self.d, gcd(self.x, self.d))
        sign = "+" if self.y > 0 else "-"
        return f"{re}{sign}{_ratio(abs(self.y), self.d, gcd(self.y, self.d))}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _ratio(n: int, d: int, g: int = 1) -> str:
    """n/g over d/g as Fraction prints it: no denominator when it is one."""
    n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # only the interpreter's digit limit refuses an int here
        from decimal import Decimal  # converts an int of any length, and only this rare path needs it

        raise _over_digit_limit(max(Decimal(k).adjusted() + 1 for k in (n, d))) from None


def _digit_limit() -> int:
    # read per call, as sys.set_int_max_str_digits may move it; 0, or a 3.10 without the call, is no limit
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _over_digit_limit(digits: int) -> LimitExceeded:
    """The resource-limit error for a number of ``digits`` digits that int <-> str conversion refused."""
    return LimitExceeded(
        f"a number of {digits} digits exceeds the interpreter's limit of {_digit_limit()} digits for integer string conversion"
    )


# Fraction's decimal form: whole part, fractional part and exponent, each digits that underscores may join
_DECIMAL = re.compile(r"\s*[-+]?(?=\.?\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*")


def _parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing a value too long for int() <-> str with LimitExceeded.

    Fraction converts each run of digits, which underscores may join, with
    int().  int() refuses a run over the limit with the ValueError that a
    malformed value also raises, so the runs are counted first.  A decimal
    value is int(whole + part) times 10 ** (exponent - len(part)), and
    Fraction builds that power whole before it reduces: so the digits of
    the ints it will build are counted too, before any is built.
    """
    limit = _digit_limit()
    digits = max((len(run) - run.count("_") for run in re.findall(r"\d(?:_?\d)*", text)), default=0)
    if 0 < limit < digits:
        raise _over_digit_limit(digits)
    m = _DECIMAL.fullmatch(text)
    if m and limit:
        whole, part, exponent = (s.replace("_", "") for s in m.groups(""))
        mantissa = max(len((whole + part).lstrip("0")), 1)
        shift = int(exponent or 0) - len(part)
        digits = mantissa + shift if shift >= 0 else max(mantissa, 1 - shift)
        if digits > limit:
            raise _over_digit_limit(digits)
    return Fraction(text)


def _coerce(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


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
    return {w: c for w, c in out.items() if c.x or c.y}


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
        self.universe = universe
        self.terms = _collect([(W.normal_form(universe, w), _coerce(c)) for w, c in terms.items()])

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
