"""Independent answer checks: the benchmark's own small implementations.

Nothing here imports pqt.  Words are tuples of string tokens ("p", "q",
"t3", "t3*", "x", "x-", ...), elements are dicts word -> (re, im) with
Fraction parts.  Normal forms come from string rewriting (pq -> e for the
bicyclic letters, x x- -> e and so on in the free group), which is a
different algorithm from the library's alternating item stacks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

F0 = Fraction(0)
ONE = (Fraction(1), F0)

_SCALAR_RE = re.compile(r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?\Z")


# -- words --------------------------------------------------------------------


def reduce_word(tokens, universe: str) -> tuple:
    """Normal form by rewriting: 'p q' -> e in bc/bcs, 'g g-' -> e in f2."""
    stack: list = []
    for tok in tokens:
        if stack and _cancels(stack[-1], tok, universe):
            stack.pop()
        else:
            stack.append(tok)
    return tuple(stack)


def _cancels(left: str, right: str, universe: str) -> bool:
    if universe == "f2":
        return left.rstrip("-") == right.rstrip("-") and left != right
    return left == "p" and right == "q"


def star_token(tok: str, universe: str) -> str:
    if universe == "f2":
        return tok[:-1] if tok.endswith("-") else tok + "-"
    if tok == "p":
        return "q"
    if tok == "q":
        return "p"
    return tok[:-1] if tok.endswith("*") else tok + "*"


def star_word(tokens, universe: str) -> tuple:
    return tuple(star_token(tok, universe) for tok in reversed(tokens))


def count_free_words(m: int, k: int) -> int:
    """Words of length <= m over t1, t1*, ..., tk, tk*: sum of (2k)^i."""
    return sum((2 * k) ** i for i in range(m + 1))


def library_word_tokens(word) -> tuple:
    """Tokens of a library bcs/sinf word, read from its items' fields only."""
    out: list = []
    for item in word:
        if hasattr(item, "index"):
            out.append(f"t{item.index}*" if item.starred else f"t{item.index}")
        else:
            out.extend(["q"] * item.a + ["p"] * item.b)
    return tuple(out)


def library_element(el) -> dict:
    """A library element of bcs/sinf as a token dict."""
    return {library_word_tokens(w): (c.re, c.im) for w, c in el.terms.items()}


# -- scalars and elements -------------------------------------------------------


def cmul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def parse_scalar(text: str) -> tuple:
    m = _SCALAR_RE.match(text)
    if not m:
        raise ValueError(f"bad scalar {text!r}")
    im = Fraction(m.group(3)) if m.group(3) else F0
    return (Fraction(m.group(1)), -im if m.group(2) == "-" else im)


def format_scalar(c: tuple) -> str:
    """Scalar in the command-line input grammar."""
    if c[1] == 0:
        return str(c[0])
    sign = "+" if c[1] > 0 else "-"
    return f"{c[0]}{sign}{abs(c[1])}i"


def format_element(el: dict) -> str:
    """Element in the command-line input grammar (words need not be normal)."""
    return " + ".join(f"{format_scalar(c)}*{' '.join(w) or 'e'}" for w, c in el.items())


def parse_rendered(text: str, universe: str) -> dict:
    """Read the library's canonical rendering back into a token dict."""
    if text == "0*e":
        return {}
    out: dict = {}
    for term in text.split(" + "):
        coeff, word = term.split("*", 1)
        tokens = () if word == "e" else tuple(word.split(" "))
        add_term(out, reduce_word(tokens, universe), parse_scalar(coeff))
    return out


def add_term(acc: dict, word: tuple, c: tuple) -> None:
    prev = acc.get(word, (F0, F0))
    s = (prev[0] + c[0], prev[1] + c[1])
    if s[0] or s[1]:
        acc[word] = s
    else:
        acc.pop(word, None)


def normalize(el: dict, universe: str) -> dict:
    out: dict = {}
    for w, c in el.items():
        add_term(out, reduce_word(w, universe), c)
    return out


def mul(x: dict, y: dict, universe: str) -> dict:
    out: dict = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            add_term(out, reduce_word(wx + wy, universe), cmul(cx, cy))
    return out


def star(x: dict, universe: str) -> dict:
    out: dict = {}
    for w, c in x.items():
        add_term(out, reduce_word(star_word(w, universe), universe), (c[0], -c[1]))
    return out


# -- the embedding -------------------------------------------------------------


def phi_word(tokens, gamma) -> dict:
    """Expand prod_i (b_i + gamma(n_i) t_i) over all 2^|w| choices.

    b_i is p for t_i and q for t_i*.  The all-free choice reproduces w
    with coefficient prod gamma(n_i).
    """
    out: dict = {}
    for mask in range(1 << len(tokens)):
        word: list = []
        weight = Fraction(1)
        for i, tok in enumerate(tokens):
            if (mask >> i) & 1:
                word.append(tok)
                weight *= gamma(int(tok[1:].rstrip("*")))
            else:
                word.append("q" if tok.endswith("*") else "p")
        add_term(out, reduce_word(word, "bcs"), (weight, F0))
    return out


def phi(x: dict, gamma) -> dict:
    out: dict = {}
    for w, c in x.items():
        for u, d in phi_word(w, gamma).items():
            add_term(out, u, cmul(c, d))
    return out


# -- states --------------------------------------------------------------------


def closed_form_moment(tokens, z: Fraction) -> Fraction:
    """z^(free letters) * mu1(product of the bicyclic letters).

    mu1(q^a p^b) = [a == b] 2^-a is the dyadic shift state; z = 0 is the
    vacuum (with 0^0 = 1).
    """
    free = sum(1 for tok in tokens if tok not in ("p", "q"))
    a_b = reduce_word([tok for tok in tokens if tok in ("p", "q")], "bc")
    a, b = a_b.count("q"), a_b.count("p")
    if a != b:
        return F0
    return z**free * Fraction(1, 2**a)


def element_moment(x: dict, z: Fraction) -> tuple:
    total = (F0, F0)
    for w, c in x.items():
        mu = closed_form_moment(w, z)
        total = (total[0] + c[0] * mu, total[1] + c[1] * mu)
    return total


def numpy_is_psd(matrix) -> bool:
    """PSD verdict from eigenvalues, with a tolerance scaled to the entries."""
    import numpy as np

    a = np.array(matrix, dtype=float)
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.linalg.eigvalsh(a).min() >= -1e-9 * scale * len(a))


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), math.ulp(1.0))
