"""States on the component algebras and their free product, plus the trace.

The bicyclic component carries the diagonal-density shift state
mu1(q^a p^b) = [a == b] * 2^-a, whose dyadic weights keep every moment an
exact rational.  The free *-monoid component carries a character
Character(z), under which each generator evaluates to the rational z; the
vacuum is the character at z = 0.

A character has a one-dimensional GNS space, so the centered part of any
free-side block is zero in it.  In the free-product construction every
free-side block therefore acts as its mean, and the free product state of
a word w factors in closed form:

    mu(w) = chi(free letters of w, in order) * mu1(product of w's bicyclic blocks)

(Voiculescu, Dykema and Nica, Free Random Variables, CRM Monograph Series
1, 1992).  The two arguments are the word maps ``W.free_part`` and
``W.block_part``, so ``FreeProductState`` computes it in linear time, for
any length.  The component states are its restrictions: a bc word is a
product word without free letters and a sinf word one without blocks,
so one moment path serves all three universes.
``tests/oracles.py`` keeps the literal two-level centered expansion that
this closed form is checked against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LimitExceeded, UniverseMismatch
from . import words as W
from .algebra import Element, GaussianRational, ONE, ZERO, exact_fraction


_F0 = Fraction(0)


def _mu1(x: W.BCElement) -> Fraction:
    """The dyadic shift state: mu1(q^a p^b) = 2^-a when a == b, else 0; positive and unital."""
    return Fraction(1, 2**x.a) if x.a == x.b else _F0


@dataclass(frozen=True)
class Character:
    """Multiplicative state: every generator letter contributes a factor z."""

    z: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "z", exact_fraction(self.z))

    def moment_fraction(self, w) -> Fraction:
        return self.z ** len(w)

    def describe(self) -> dict:
        return {"kind": "character", "z": str(self.z)}


@dataclass(frozen=True)
class Vacuum(Character):
    """Coefficient-at-identity state on the free *-monoid algebra: Character(0)."""

    z: Fraction = field(default=_F0, init=False)

    def describe(self) -> dict:
        return {"kind": "vacuum"}


@dataclass(frozen=True)
class StateConfig:
    s_state: Character = Character()

    def describe(self) -> dict:
        return {"bc_state": {"kind": "dyadic-shift"}, "s_state": self.s_state.describe()}


def bc_moment(x: W.BCElement) -> GaussianRational:
    return GaussianRational(_mu1(x))


class FreeProductState:
    """Moment functional on bc, sinf and bcs elements.

    Each word moment is the closed form, linear in the word, so nothing
    is memoised.
    """

    def __init__(self, cfg: StateConfig | None = None):
        self.cfg = cfg if cfg is not None else StateConfig()

    def moment(self, x: Element) -> GaussianRational:
        if x.universe == W.F2:
            raise UniverseMismatch(f"free-product state lives on {W.BC!r}, {W.SINF!r} and {W.BCS!r}, got {x.universe!r}")
        total = ZERO
        for w, c in x.terms.items():
            total = total + c * self.word_moment(w)
        return total

    def word_moment(self, w) -> GaussianRational:
        return GaussianRational(self.cfg.s_state.moment_fraction(W.free_part(w)) * _mu1(W.block_part(w)))


def free_moment(x: Element, cfg: StateConfig | None = None) -> GaussianRational:
    return FreeProductState(cfg).moment(x)


# -- exact positive-semidefiniteness -------------------------------------------


def _psd_int(m_rows: list) -> tuple:
    """Fraction-free symmetric elimination on an integer symmetric matrix.

    One-step Bareiss scaling keeps every intermediate entry an integer;
    positive pivots are eliminated, a zero pivot must head an all-zero
    row, anything else certifies a negative principal minor.  Each step
    keeps the matrix symmetric, so only its upper triangle is held:
    T[i][j - i] is the entry (i, j) for j >= i.
    """
    idx = list(range(len(m_rows)))
    T = [row[i:] for i, row in enumerate(m_rows)]
    processed: list = []
    prev = 1
    while T:
        row0 = T[0]
        p = row0[0]
        if p < 0:
            return False, processed + [idx[0]]
        if p == 0:
            bad = next((j for j in range(1, len(row0)) if row0[j] != 0), None)
            if bad is not None:
                return False, processed + [idx[0], idx[bad]]
            T = T[1:]
            idx = idx[1:]
            continue
        newT = []
        for i in range(1, len(row0)):
            a = row0[i]
            newrow = []
            for v, b in zip(T[i], row0[i:]):
                val, rem = divmod(p * v - a * b, prev)
                assert rem == 0
                newrow.append(val)
            newT.append(newrow)
        processed.append(idx[0])
        idx = idx[1:]
        prev = p
        T = newT
    return True, None


def psd_decide(gram: list) -> tuple:
    """Exact PSD decision; returns (is_psd, violating principal minor indices).

    A Hermitian H = A + iB is PSD iff the real symmetric [[A, -B], [B, A]]
    is, since x*Hx = [u; v]^T [[A, -B], [B, A]] [u; v] for x = u + iv
    (Horn and Johnson, Matrix Analysis).  A violating minor S of that
    realification folds back to T = {i mod n : i in S}: the realification
    of H[T, T] contains S as a principal submatrix, so H[T, T] is not PSD.
    Input that is not Hermitian raises ValueError.
    """
    n = len(gram)
    if n == 0:
        return True, None
    # scaled by L, the lcm of the entries' d's, (x + yi)/d becomes x L/d and
    # y L/d; as gcd(x, y, d) = 1, L is the lcm of the parts' reduced denominators
    L = math.lcm(*(e.d for row in gram for e in row))
    K = [[e.x * (L // e.d) for e in row] for row in gram]
    if any(e.y for row in gram for e in row):
        B = [[e.y * (L // e.d) for e in row] for row in gram]
        K = [a + [-b for b in bs] for a, bs in zip(K, B)] + [bs + a for a, bs in zip(K, B)]
    # [[A, -B], [B, A]] is symmetric iff A is symmetric and B antisymmetric
    if K != [list(col) for col in zip(*K)]:
        raise ValueError("gram matrix is not Hermitian")
    psd, minor = _psd_int(K)
    return psd, None if psd else sorted({i % n for i in minor})


def gram_matrix(universe: str, words: list, state: FreeProductState) -> list:
    """G[i][j] = state(w_i* w_j); on f2 the canonical trace, [w_i* w_j == e]."""
    moment = (lambda w: ZERO if w else ONE) if universe == W.F2 else state.word_moment
    n = len(words)
    stars = [W.word_star(universe, w) for w in words]
    G = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = moment(W.word_mul(universe, stars[i], words[j]))
            G[i][j] = val
            if i != j:
                G[j][i] = val.conjugate()
    return G


@dataclass
class GramReport:
    universe: str
    words: list
    state: dict
    psd: bool
    violating_minor: list | None = None
    elapsed_ms: float = 0.0
    stats: dict = field(default_factory=dict)  # words (n) and blocks (size of K); not in to_dict()

    @property
    def passed(self) -> bool:
        return self.psd

    def to_dict(self) -> dict:
        out = {
            "check": "gram-psd",
            "universe": self.universe,
            "words": self.words,
            "state_config": self.state,
            "psd": self.psd,
        }
        if self.violating_minor is not None:
            out["violating_minor"] = self.violating_minor
        out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def _block_gram_decide(words: list, s_state: Character) -> tuple:
    """PSD decision of a state Gram on the distinct collapsed blocks of its words.

    With d_i = chi(W.free_part(w_i)) and c_i = W.block_part(w_i), the
    closed form gives G[i][j] = d_i d_j mu1(c_i* c_j), so G = D S K S^T D
    for D = diag(d_i), S picking each word's block, and K the Gram of mu1
    on the distinct blocks c of the words with d != 0.  By congruence
    (Horn and Johnson, Matrix Analysis, 4.5) G is PSD iff that K is.  A
    violating minor of K maps to the first kept word of each block: G on
    those words is D_r K_sub D_r with D_r invertible, so it violates too.
    K is held to the cell budget before it is built.  Returns (is_psd,
    violating minor of G or None, number of blocks).
    """
    first: dict = {}  # block -> index of its first kept word, in first-appearance order
    for i, w in enumerate(words):
        if s_state.moment_fraction(W.free_part(w)) != 0:
            first.setdefault(W.block_part(w), i)
    blocks = list(first)
    if len(blocks) ** 2 > W.DEFAULT_MAX_CELLS:
        raise LimitExceeded(f"gram matrix {len(blocks)}x{len(blocks)} exceeds max_cells={W.DEFAULT_MAX_CELLS}")
    K = [[GaussianRational(_mu1(W.bc_mul(W.bc_star(ci), cj))) for cj in blocks] for ci in blocks]
    psd, minor = psd_decide(K)
    return psd, None if psd else sorted(first[blocks[i]] for i in minor), len(blocks)


def gram_psd_check(universe: str, words: list, cfg: StateConfig | None = None) -> GramReport:
    """Exact positivity check of the state on span{delta_w : w in words}.

    On bc, sinf and bcs the decision is taken on the distinct collapsed
    blocks (``_block_gram_decide``), and no n x n matrix is built; K on
    the blocks is held to ``W.DEFAULT_MAX_CELLS`` cells, and over it
    LimitExceeded is raised before it is built.  On f2 no matrix is
    built at all: the state is the canonical trace, so G[i][j] =
    <delta_(w_j), delta_(w_i)> in l^2(F2) is a Gram matrix of vectors and
    PSD for every list (on distinct reduced words it is the identity).
    """
    if universe not in W.UNIVERSES:
        raise ValueError(f"unknown universe {universe!r}")
    if len(set(words)) != len(words):
        raise ValueError("gram words must be pairwise distinct")
    start = time.perf_counter()
    cfg = cfg if cfg is not None else StateConfig()
    stats = {"words": len(words)}
    if universe == W.F2:
        psd, minor = True, None
    else:
        psd, minor, stats["blocks"] = _block_gram_decide(words, cfg.s_state)
    elapsed = (time.perf_counter() - start) * 1000.0
    return GramReport(
        universe=universe,
        words=[W.render_word(universe, w) for w in words],
        state=cfg.describe(),
        psd=psd,
        violating_minor=minor,
        elapsed_ms=elapsed,
        stats=stats,
    )


# -- the trace on the free-group algebra ----------------------------------------


def trace_f2(x: Element) -> GaussianRational:
    """Coefficient at the empty word; tracial, and faithful on x*x."""
    if x.universe != W.F2:
        raise UniverseMismatch(f"trace is defined on {W.F2!r}, got {x.universe!r}")
    return x.coordinate(())
