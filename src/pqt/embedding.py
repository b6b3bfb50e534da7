"""The weighted embedding of the free *-monoid algebra and its verifiers.

The embedding sends the n-th free generator to delta_p + gamma_n * delta_t_n
inside the free-product algebra.  The checks in this module confirm, over
finite length filtrations and exactly:

* images of length-m words live in the length-m filtration stage,
* the coordinate of an image at a target word of length m singles out
  exactly that word among all candidates of length <= m,
* the restriction of the map to each filtration stage has full rank,
* a single generator can be recovered from its image and delta_p.

It also hosts length-bounded one-sided inverse searches (the desk-scale
finiteness and infiniteness demonstrations) and matrices over elements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import LimitExceeded, UniverseMismatch
from . import words as W
from .algebra import Element, GaussianRational, ONE, ZERO, _collect, delta, unit, zero

DEFAULT_MAX_CELLS = 2_000_000
_RHS = -1  # sentinel column id for augmented systems


class GammaSequence:
    """Positive rational weights n -> gamma_n for the generator images."""

    def __init__(self, fn: Callable[[int], Fraction], name: str):
        self._fn = fn
        self.name = name

    def __call__(self, n: int) -> Fraction:
        value = Fraction(self._fn(n))
        if value <= 0:
            raise ValueError(f"gamma({n}) = {value} must be positive")
        return value

    def __repr__(self):
        return f"GammaSequence({self.name!r})"

    @classmethod
    def reciprocal(cls) -> "GammaSequence":
        return cls(lambda n: Fraction(1, n), "1/n")

    @classmethod
    def constant(cls, value=1) -> "GammaSequence":
        value = Fraction(value)
        return cls(lambda n: value, str(value))

    @classmethod
    def scaled_inverse_square(cls, value=Fraction(3, 2)) -> "GammaSequence":
        value = Fraction(value)
        name = "3/(2n^2)" if value == Fraction(3, 2) else f"({value})/n^2"
        return cls(lambda n: value / (n * n), name)


def gamma_by_name(text: str) -> GammaSequence:
    """Resolve the gamma sequences used on the command line."""
    text = text.strip()
    if text == "1/n":
        return GammaSequence.reciprocal()
    if text == "1":
        return GammaSequence.constant(1)
    if text in ("3/(2n^2)", "3/(2n2)"):
        return GammaSequence.scaled_inverse_square()
    if text.startswith("const:"):
        return GammaSequence.constant(Fraction(text[len("const:"):]))
    raise ValueError(f"unknown gamma sequence {text!r} (use 1/n, 1, 3/(2n^2) or const:<rational>)")


class Embedding:
    """Unital *-homomorphism from the free *-monoid algebra into the free product.

    The word-image cache is a pure function of the word, so inserts are
    idempotent and concurrent readers see consistent values.
    """

    def __init__(self, gamma: GammaSequence | None = None):
        self.gamma = gamma if gamma is not None else GammaSequence.reciprocal()
        self._word_images: dict = {(): unit(W.BCS)}

    def generator_image(self, g: W.FreeGen) -> Element:
        weight = GaussianRational(self.gamma(g.index))
        base = W.Q if g.starred else W.P
        return Element(W.BCS, {(base,): ONE, (g,): weight})

    def word_image(self, w) -> Element:
        cached = self._word_images.get(w)
        if cached is None:
            cached = self._extend(self.word_image(w[:-1]), w[-1])
            self._word_images[w] = cached
        return cached

    def _extend(self, prefix: Element, g: W.FreeGen) -> Element:
        """prefix * generator_image(g), with the same terms in the same order.

        Each prefix term (u, c) yields (u * base, c) and (u g, c * gamma_g):
        the base letter carries weight one, so it costs no multiply, and a
        free letter never merges at the seam.
        """
        weight = GaussianRational(self.gamma(g.index))
        base = (W.Q if g.starred else W.P,)
        letter = (g,)
        mul = W.pw_mul
        pairs: list = []
        for u, c in prefix.terms.items():
            pairs += ((mul(u, base), c), (u + letter, c * weight))
        return Element._raw(W.BCS, _collect(pairs))

    def apply(self, x: Element) -> Element:
        if x.universe != W.SINF:
            raise UniverseMismatch(f"embedding domain is {W.SINF!r}, got {x.universe!r}")
        image = self.word_image
        return Element._raw(
            W.BCS, _collect([(w, coeff * c) for word, coeff in x.terms.items() for w, c in image(word).terms.items()])
        )


@dataclass
class CheckReport:
    check: str
    params: dict
    result: str
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    # deterministic work counts; not part of to_dict(), so the JSON is unchanged
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self) -> dict:
        out = {"check": self.check, "params": dict(self.params), "result": self.result}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out.update(self.details)
        out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def verify_support_bound(
    m: int,
    k: int,
    gamma: GammaSequence | None = None,
    *,
    limit: int | None = W.DEFAULT_ENUMERATION_LIMIT,
) -> CheckReport:
    """Image of every length-m' word stays inside the length-m' filtration stage."""
    start = time.perf_counter()
    emb = Embedding(gamma)
    counterexample = None
    checked = terms = 0
    for w in W.enumerate_words(m, k, W.SINF, limit=limit):
        checked += 1
        image = emb.word_image(w)
        terms += len(image.terms)
        got = image.support_max_len()
        if got > len(w):
            counterexample = {"word": W.render_word(W.SINF, w), "word_len": len(w), "support_len": got}
            break
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check="support-lemma",
        params={"m": m, "k": k, "gamma": emb.gamma.name},
        result="fail" if counterexample else "pass",
        counterexample=counterexample,
        details={"words_checked": checked},
        elapsed_ms=elapsed,
        stats={"words": checked, "image_terms": terms},
    )


def verify_coordinate_separation(
    m: int,
    k: int,
    gamma: GammaSequence | None = None,
    *,
    limit: int | None = W.DEFAULT_ENUMERATION_LIMIT,
) -> CheckReport:
    """Coordinate at a length-m target word is nonzero exactly for that word.

    One pass over the candidates: the support of y's image must meet the
    targets in {y} when |y| = m and nowhere otherwise.  A failure reports
    the violating pair that comes first in (target, candidate) order, and
    ``pairs_checked`` counts the pairs up to it in that order.
    """
    start = time.perf_counter()
    emb = Embedding(gamma)
    candidates = W.enumerate_words(m, k, W.SINF, limit=limit)
    targets = [w for w in candidates if len(w) == m]
    # free words double as product words, so targets are coordinate keys
    target_index = {w: t for t, w in enumerate(targets)}
    first = None  # (target index, candidate index, coefficient) of the first violation
    terms = 0
    for c, y in enumerate(candidates):
        image = emb.word_image(y)
        terms += len(image.terms)
        bad = [target_index[u] for u in image.terms if u != y and u in target_index]
        if len(y) == m and y not in image.terms:
            bad.append(target_index[y])
        if bad and (first is None or min(bad) < first[0]):
            t = min(bad)
            first = (t, c, image.coordinate(targets[t]))
    counterexample = None
    pairs = len(targets) * len(candidates)
    if first is not None:
        t, c, coeff = first
        counterexample = {
            "target": W.render_word(W.SINF, targets[t]),
            "candidate": W.render_word(W.SINF, candidates[c]),
            "coefficient": str(coeff),
        }
        pairs = t * len(candidates) + c + 1
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check="coordinate-lemma",
        params={"m": m, "k": k, "gamma": emb.gamma.name},
        result="fail" if counterexample else "pass",
        counterexample=counterexample,
        details={"targets": len(targets), "candidates": len(candidates), "pairs_checked": pairs},
        elapsed_ms=elapsed,
        stats={"words": len(candidates), "image_terms": terms},
    )


# -- exact sparse linear algebra ----------------------------------------------


def _sparse_eliminate(rows: list, ncols: int) -> dict:
    """Exact Gauss-Jordan on sparse rows {col: scalar}; returns {col: pivot row}.

    Deterministic: columns in increasing order, sparsest candidate row wins.
    Mutates ``rows`` into reduced form.  The sentinel column is never pivoted.
    """
    col_rows: dict = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    used: set = set()
    pivots: dict = {}
    for col in range(ncols):
        holders = col_rows.get(col)
        if not holders:
            continue
        cands = [i for i in holders if i not in used]
        if not cands:
            continue
        pi = min(cands, key=lambda i: (len(rows[i]), i))
        used.add(pi)
        pivots[col] = pi
        prow = rows[pi]
        pv = prow[col]
        if pv != ONE:
            for c in list(prow):
                prow[c] = prow[c] / pv
        for j in list(holders):
            if j == pi:
                continue
            rj = rows[j]
            f = rj.get(col)
            if f is None or f.is_zero():
                continue
            for c, v in prow.items():
                nv = rj.get(c, ZERO) - f * v
                if nv.is_zero():
                    if c in rj:
                        del rj[c]
                        col_rows[c].discard(j)
                else:
                    rj[c] = nv
                    col_rows.setdefault(c, set()).add(j)
    return pivots


def sparse_rank(rows: Iterable[dict], ncols: int) -> int:
    work = [dict(r) for r in rows]
    return len(_sparse_eliminate(work, ncols))


def sparse_solve(rows: list, ncols: int):
    """Solve the augmented system (RHS under the sentinel column), exactly.

    Returns (solution | None, rank, augmented_rank); free variables are
    pinned to zero in the particular solution.
    """
    work = [dict(r) for r in rows]
    pivots = _sparse_eliminate(work, ncols)
    rank = len(pivots)
    pivot_rows = set(pivots.values())
    for i, row in enumerate(work):
        if i in pivot_rows:
            continue
        rhs = row.get(_RHS)
        if rhs is not None and not rhs.is_zero():
            return None, rank, rank + 1
    solution = {col: work[pi].get(_RHS, ZERO) for col, pi in pivots.items()}
    return solution, rank, rank


# -- rank of the embedding on a filtration stage -------------------------------


def _triangular(w, image: Element) -> bool:
    """w is in its image's support, and every other free word there is shorter."""
    if w not in image.terms:
        return False
    n = len(w)
    free = W.FreeGen
    return not any(
        len(u) >= n and u != w and all(type(x) is free for x in u) for u in image.terms
    )


def injectivity_rank(
    m: int,
    k: int,
    gamma: GammaSequence | None = None,
    *,
    limit: int | None = W.DEFAULT_ENUMERATION_LIMIT,
    max_cells: int | None = DEFAULT_MAX_CELLS,
) -> CheckReport:
    """Rank of the coordinate matrix (rows: the stage's basis words, columns: image support).

    When every image passes ``_triangular``, the columns at the basis words,
    ordered by length, form a triangular block with a nonzero diagonal, so
    the rank is the dimension and nothing is eliminated.  Otherwise the
    rank comes from exact elimination, and only that fallback, which
    builds the matrix, is held to ``max_cells``.
    """
    start = time.perf_counter()
    emb = Embedding(gamma)
    basis = W.enumerate_words(m, k, W.SINF, limit=limit)
    images = [emb.word_image(w) for w in basis]
    support: set = set()
    for image in images:
        support.update(image.terms)
    if all(map(_triangular, basis, images)):
        rank, pivots = len(basis), 0
    else:
        if max_cells is not None and len(basis) * len(support) > max_cells:
            raise LimitExceeded(f"coordinate matrix {len(basis)}x{len(support)} exceeds max_cells={max_cells}")
        cols = sorted(support, key=lambda u: W.word_sort_key(W.BCS, u))
        col_of = {u: j for j, u in enumerate(cols)}
        rows = [{col_of[u]: c for u, c in image.terms.items()} for image in images]
        rank = pivots = sparse_rank(rows, len(cols))
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check="injectivity-rank",
        params={"m": m, "k": k, "gamma": emb.gamma.name},
        result="pass" if rank == len(basis) else "fail",
        details={"rank": rank, "dimension": len(basis), "matrix_dims": [len(basis), len(support)]},
        elapsed_ms=elapsed,
        stats={"words": len(basis), "image_terms": sum(len(image.terms) for image in images), "pivots": pivots},
    )


def check_generator_recovery(n: int, gamma: GammaSequence | None = None) -> bool:
    """(1/gamma_n) * (image of t_n minus delta_p) equals delta_t_n, exactly."""
    emb = Embedding(gamma)
    a_n = emb.generator_image(W.t(n))
    recovered = (a_n - delta(W.BCS, (W.P,))).scale(GaussianRational(1) / GaussianRational(emb.gamma(n)))
    return recovered == delta(W.BCS, (W.t(n),))


# -- one-sided inverse searches -------------------------------------------------


@dataclass
class InverseSearchResult:
    found: bool
    solution: Element | None
    side: str
    universe: str
    m: int
    k_extra: int
    candidates: int
    rank: int
    rank_augmented: int
    elapsed_ms: float = 0.0
    # candidates, system rows and elimination pivots; not part of to_dict()
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "check": "inverse-search",
            "params": {"side": self.side, "universe": self.universe, "m": self.m, "k_extra": self.k_extra},
            "result": "found" if self.found else "infeasible",
            "candidates": self.candidates,
            "rank": self.rank,
            "rank_augmented": self.rank_augmented,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.solution is not None:
            out["solution"] = self.solution.render()
        return out


def inverse_search(
    a: Element,
    side: str,
    m: int,
    *,
    k_extra: int = 0,
    limit: int | None = W.DEFAULT_ENUMERATION_LIMIT,
) -> InverseSearchResult:
    """Decide exactly whether a length-bounded one-sided inverse exists.

    Solves the coordinate linear system of a*x = 1 (or x*a = 1) over all
    candidate words of length <= m whose generator indices are bounded by
    those in ``a`` plus ``k_extra``.  Infeasibility is certified relative
    to those bounds by rank(augmented) > rank(system).
    """
    if a.is_zero():
        raise ValueError("cannot search for an inverse of the zero element")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    start = time.perf_counter()
    uni = a.universe
    max_index = max((W.max_free_index(uni, w) for w in a.support()), default=0)
    cands = W.enumerate_words(m, max(0, max_index + k_extra), uni, limit=limit)
    block, rank, rank_aug, rows = _solve_unknown_block(ElementMatrix([[a]]), side, 0, cands)
    elapsed = (time.perf_counter() - start) * 1000.0
    x = None if block is None else block[0]
    stats = {"candidates": len(cands), "rows": rows, "pivots": rank}
    return InverseSearchResult(block is not None, x, side, uni, m, k_extra, len(cands), rank, rank_aug, elapsed, stats)


# -- matrices over elements -----------------------------------------------------


class ElementMatrix:
    """Dense rectangular grid of elements from one universe."""

    __slots__ = ("universe", "rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Element]]):
        if not entries or not entries[0]:
            raise ValueError("matrix must be non-empty")
        width = len(entries[0])
        universe = entries[0][0].universe
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for el in row:
                if el.universe != universe:
                    raise UniverseMismatch("matrix entries must share one universe")
        self.universe = universe
        self.rows = len(entries)
        self.cols = width
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, n: int, universe: str) -> "ElementMatrix":
        return cls([[unit(universe) if i == j else zero(universe) for j in range(n)] for i in range(n)])

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other):
        if not isinstance(other, ElementMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        body = "; ".join(", ".join(el.render() for el in row) for row in self.entries)
        return f"<ElementMatrix {self.rows}x{self.cols} over {self.universe}: [{body}]>"


def mat_mul(a: ElementMatrix, b: ElementMatrix) -> ElementMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    if a.universe != b.universe:
        raise UniverseMismatch("matrices live in different universes")
    out = []
    for r in range(a.rows):
        row = []
        for c in range(b.cols):
            acc = zero(a.universe)
            for j in range(a.cols):
                acc = acc + a[r, j] * b[j, c]
            row.append(acc)
        out.append(row)
    return ElementMatrix(out)


def _solve_unknown_block(a: ElementMatrix, side: str, index: int, cands: list) -> tuple:
    """Solve for one unknown block of a one-sided inverse X of the square A.

    The block is column ``index`` of X in A X = I for side "right", row
    ``index`` of X in X A = I for side "left".  Each of its n entries is a
    combination of the candidate words; the system's rows are the
    coordinates (r, u) of the n products, the right-hand side is the
    identity's column.  Returns (the n solved entries | None, rank,
    augmented rank, number of system rows); the rank is the number of
    elimination pivots.
    """
    uni, n, ncand = a.universe, a.rows, len(cands)
    identity = W.identity_word(uni)
    row_of: dict = {(r, identity): r for r in range(n)}
    rows: list = [{_RHS: ONE} if r == index else {} for r in range(n)]
    for j in range(n):
        for w_ix, w in enumerate(cands):
            dw = delta(uni, w)
            col_id = j * ncand + w_ix
            for r in range(n):
                prod = a[r, j] * dw if side == "right" else dw * a[j, r]
                for u, coeff in prod.terms.items():
                    i = row_of.get((r, u))
                    if i is None:
                        i = row_of[r, u] = len(rows)
                        rows.append({})
                    rows[i][col_id] = coeff
    solution, rank, rank_aug = sparse_solve(rows, n * ncand)
    if solution is None:
        return None, rank, rank_aug, len(rows)
    terms: list = [{} for _ in range(n)]
    for col, c in solution.items():
        j, w_ix = divmod(col, ncand)
        terms[j][cands[w_ix]] = c
    return [Element(uni, t) for t in terms], rank, rank_aug, len(rows)


@dataclass
class MatrixInverseResult:
    found: bool
    matrix: ElementMatrix | None
    side: str
    m: int
    candidates: int
    elapsed_ms: float = 0.0
    # candidates, and system rows and pivots summed over the blocks solved; not part of to_dict()
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "check": "matrix-inverse-search",
            "params": {"side": self.side, "m": self.m},
            "result": "found" if self.found else "infeasible",
            "candidates": self.candidates,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.matrix is not None:
            out["matrix"] = [[el.render() for el in row] for row in self.matrix.entries]
        return out


def mat_inverse_search(
    a: ElementMatrix,
    side: str,
    m: int,
    *,
    k_extra: int = 0,
    limit: int | None = W.DEFAULT_ENUMERATION_LIMIT,
) -> MatrixInverseResult:
    """Entrywise length-bounded search for a one-sided matrix inverse.

    A right inverse solves A X = I column by column; a left inverse X A = I
    row by row.  Each small system is solved exactly; any infeasible block
    makes the whole search infeasible.
    """
    if a.rows != a.cols:
        raise ValueError("inverse search needs a square matrix")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    start = time.perf_counter()
    uni = a.universe
    n = a.rows
    max_index = max(
        (W.max_free_index(uni, w) for row in a.entries for el in row for w in el.support()),
        default=0,
    )
    cands = W.enumerate_words(m, max(0, max_index + k_extra), uni, limit=limit)
    solved: list = []
    stats = {"candidates": len(cands), "rows": 0, "pivots": 0}
    for index in range(n):
        block, rank, _, rows = _solve_unknown_block(a, side, index, cands)
        stats["rows"] += rows
        stats["pivots"] += rank
        if block is None:
            return MatrixInverseResult(False, None, side, m, len(cands), (time.perf_counter() - start) * 1000.0, stats)
        solved.append(block)

    if side == "right":
        entries = [[solved[c][r] for c in range(n)] for r in range(n)]
    else:
        entries = [[solved[r][c] for c in range(n)] for r in range(n)]
    x = ElementMatrix(entries)
    return MatrixInverseResult(True, x, side, m, len(cands), (time.perf_counter() - start) * 1000.0, stats)
