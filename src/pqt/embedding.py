"""The weighted embedding of the free *-monoid algebra and its verifiers.

The embedding sends the n-th free generator to delta_p + gamma_n * delta_t_n
inside the free-product algebra.  The checks in this module confirm, over
finite length filtrations and exactly:

* images of length-m words live in the length-m filtration stage,
* the coordinate of an image at a target word of length m singles out
  exactly that word among all candidates of length <= m,
* the restriction of the map to each filtration stage has full rank,
* ``Embedding.preimage`` inverts the map exactly, at every length.

The first three read only which words an image contains.  Every gamma_n
is positive, so each coefficient of an image is a sum of positive
products and none cancels: the support is the set of words the letter
choices reach, whatever gamma is.  ``Embedding.stage_parts`` sweeps a
stage without scalars, one length at a time from the previous length's
supports, and yields the support of P g in two parts: P's support, whose
words g extends, and those words times the base letter, a part shared by
every letter of g's star.  ``stage_supports`` yields their union; the
support lemma reads the parts alone, so it never builds a support of the
last length.  Exact images come only from ``word_image``.

It also hosts matrices over elements and one length-bounded one-sided
inverse search for both (the desk-scale finiteness and infiniteness
demonstrations).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import LimitExceeded, UniverseMismatch
from . import words as W
from .algebra import Element, GaussianRational, ONE, ZERO, _collect, _parse_fraction, exact_fraction, unit, zero

_RHS = -1  # sentinel column id for augmented systems


class GammaSequence:
    """Positive rational weights n -> gamma_n for the generator images."""

    def __init__(self, fn: Callable[[int], Fraction], name: str):
        self._fn = fn
        self.name = name

    def __call__(self, n: int) -> Fraction:
        value = exact_fraction(self._fn(n))
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
        value = exact_fraction(value)
        if value <= 0:
            raise ValueError(f"gamma constant {value} must be positive")
        return cls(lambda n: value, str(value))

    @classmethod
    def scaled_inverse_square(cls) -> "GammaSequence":
        return cls(lambda n: Fraction(3, 2 * n * n), "3/(2n^2)")


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
        try:
            return GammaSequence.constant(_parse_fraction(text[len("const:"):]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in gamma {text!r}")
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

    def stage_parts(self, words: Sequence) -> Iterator[tuple]:
        """Yield (w, prefix, shared) for each of ``words``, in order: w's support in two parts.

        No coefficient of an image cancels, as every gamma_n is positive, so
        the support of P g is ``set(word_image(P g).terms)`` without a
        scalar: the words u of P's support, each times g and times the base
        letter, as ``_extend`` chooses.  ``prefix`` is P's support and
        ``shared`` is {u * base}, which depends only on P and g's star, so
        one frozenset serves every letter of that star; the support is
        ``shared`` together with u g for u in ``prefix``.  The empty word
        yields (frozenset(), {()}).

        ``words`` is sorted by length, with every word's prefix before it.
        Only the previous length's supports are kept.  Below the last length
        each support is built whole, to be the next length's prefix, and is
        yielded as (w, frozenset(), support); the last length's supports are
        never built.  The caller checks gamma: this never evaluates it.
        """
        last = len(words[-1]) if words else 0
        block, bc_mul, identity = W.BCElement, W.bc_mul, W.BC_IDENTITY
        none = frozenset()
        prev: dict = {}
        level: dict = {}
        n = 0
        at = None  # the prefix word whose support is ``prefix`` and whose shared parts are ``by_star``
        for w in words:
            if len(w) > n:
                prev, level, n, at = level, {}, len(w), None
            if not w:
                prefix, shared = none, frozenset([()])
            else:
                p, g = w[:-1], w[-1]
                if p != at:
                    try:
                        prefix = prev[p]
                    except KeyError:
                        word = W.render_word(W.SINF, w)
                        raise ValueError(f"stage_supports needs words sorted by length, each after its prefix: {word}") from None
                    at, by_star = p, [None, None]
                shared = by_star[g.starred]
                if shared is None:
                    base = W.Q if g.starred else W.P
                    tail = (base,)
                    out = []
                    # u * base touches only u's last item, a block it merges into or a free letter
                    for u in prefix:
                        if u and type(u[-1]) is block:
                            merged = bc_mul(u[-1], base)
                            out.append(u[:-1] if merged is identity else u[:-1] + (merged,))
                        else:
                            out.append(u + tail)
                    shared = by_star[g.starred] = frozenset(out)
            if n < last:
                level[w] = whole = shared.union([u + w[-1:] for u in prefix])
                yield w, none, whole
            else:
                yield w, prefix, shared

    def stage_supports(self, words: Sequence) -> Iterator[tuple]:
        """Yield (w, the words of ``word_image(w)``) for each of ``words``, in order.

        The union of the two parts that ``stage_parts`` yields, so every
        support of the last length is built here, one at a time, and never
        stored.  ``words`` is as ``stage_parts`` takes it.
        """
        for w, prefix, shared in self.stage_parts(words):
            yield w, shared.union([u + w[-1:] for u in prefix]) if prefix else shared

    def apply(self, x: Element) -> Element:
        if x.universe != W.SINF:
            raise UniverseMismatch(f"embedding domain is {W.SINF!r}, got {x.universe!r}")
        image = self.word_image
        return Element._raw(
            W.BCS, _collect([(w, coeff * c) for word, coeff in x.terms.items() for w, c in image(word).terms.items()])
        )

    def preimage(self, y: Element) -> Element | None:
        """The x with ``apply(x) == y``, or None when y is not an image.

        phi(w) is gamma^w w (gamma^w: the product of gamma_n over w's letters)
        plus terms with fewer free letters.  So, from the most free letters
        down, y's terms with d of them must be free words, which give x's
        length-d terms; their image is subtracted.  Needs only gamma_n != 0.
        """
        if y.universe != W.BCS:
            raise UniverseMismatch(f"embedding codomain is {W.BCS!r}, got {y.universe!r}")
        x: dict = {}
        for d in range(max(map(len, map(W.free_part, y.terms)), default=0), -1, -1):
            part: dict = {}
            for u, c in y.terms.items():
                if len(W.free_part(u)) == d:
                    if len(u) > d:
                        return None
                    part[u] = c / GaussianRational(math.prod(self.gamma(g.index) for g in u))
            x.update(part)
            y = y - self.apply(Element._raw(W.SINF, part))
        return Element._raw(W.SINF, x)


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


def _stage(m: int, k: int, gamma: GammaSequence | None) -> tuple:
    """The verifiers' embedding and the stage's words, with gamma checked.

    Supports do not depend on gamma only because every gamma_n is positive,
    so gamma(1), ..., gamma(k) are evaluated, in order, whenever the stage
    has a letter: the ValueError names the first bad index.
    """
    emb = Embedding(gamma)
    words = W.enumerate_words(m, k, W.SINF)
    if m >= 1:
        for n in range(1, k + 1):
            emb.gamma(n)
    return emb, words


def verify_support_bound(m: int, k: int, gamma: GammaSequence | None = None) -> CheckReport:
    """Image of every length-m' word stays inside the length-m' filtration stage.

    Reads the gamma-independent supports in their two parts
    (``Embedding.stage_parts``) without building their union.  For the
    support shared | {u g : u in prefix}, the longest word is the longer of
    shared's longest and prefix's longest plus one, and the size is
    |prefix| + |shared| less the overlap, the words of shared that end in g
    with the rest in prefix.  Both are read once per (prefix, shared) pair,
    the overlap once per letter.
    """
    start = time.perf_counter()
    emb, words = _stage(m, k, gamma)
    counterexample = None
    checked = terms = 0
    free = W.FreeGen
    read: dict = {}  # star -> (prefix, shared, longest, ends) of the parts last read for that star
    for w, prefix, shared in emb.stage_parts(words):
        checked += 1
        star = w[-1].starred if w else None
        parts = read.get(star)
        if parts is None or parts[1] is not shared or parts[0] is not prefix:
            longest = max(max(map(len, shared)), max(map(len, prefix), default=-1) + 1)
            # an overlap word ends in a free letter, which u * base reaches only when a block cancels
            ends = [v[-1] for v in shared if v and type(v[-1]) is free and v[:-1] in prefix] if prefix else []
            parts = read[star] = prefix, shared, longest, ends
        else:
            longest, ends = parts[2], parts[3]
        terms += len(prefix) + len(shared) - (ends.count(w[-1]) if ends else 0)
        if longest > len(w):
            counterexample = {"word": W.render_word(W.SINF, w), "word_len": len(w), "support_len": longest}
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


def verify_coordinate_separation(m: int, k: int, gamma: GammaSequence | None = None) -> CheckReport:
    """Coordinate at a length-m target word is nonzero exactly for that word.

    One pass over the candidates: the support of y's image must meet the
    targets in {y} when |y| = m and nowhere otherwise.  Only the reported
    coefficient of a violation needs the exact image.  A failure reports
    the violating pair that comes first in (target, candidate) order, and
    ``pairs_checked`` counts the pairs up to it in that order.
    """
    start = time.perf_counter()
    emb, candidates = _stage(m, k, gamma)
    targets = [w for w in candidates if len(w) == m]
    # free words double as product words, so targets are coordinate keys
    target_index = {w: t for t, w in enumerate(targets)}
    first = None  # (target index, candidate index) of the first violation
    terms = 0
    for c, (y, support) in enumerate(emb.stage_supports(candidates)):
        terms += len(support)
        bad = [target_index[u] for u in support if u != y and u in target_index]
        if len(y) == m and y not in support:
            bad.append(target_index[y])
        if bad and (first is None or min(bad) < first[0]):
            first = (min(bad), c)
    counterexample = None
    pairs = len(targets) * len(candidates)
    if first is not None:
        t, c = first
        coeff = emb.word_image(candidates[c]).coordinate(targets[t])
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


def _triangular(w, support: frozenset) -> bool:
    """w is in its image's support, and every other free word there is shorter."""
    if w not in support:
        return False
    n = len(w)
    block = W.BCElement
    for u in support:
        if len(u) >= n and u != w and block not in map(type, u):
            return False
    return True


def injectivity_rank(m: int, k: int, gamma: GammaSequence | None = None) -> CheckReport:
    """Rank of the coordinate matrix (rows: the stage's basis words, columns: image support).

    When every image passes ``_triangular``, which reads only supports, the
    columns at the basis words, ordered by length, form a triangular block
    with a nonzero diagonal, so the rank is the dimension and nothing is
    eliminated.  Otherwise the rank comes from exact elimination of the
    exact images, and only that fallback, which builds the matrix, is held
    to ``W.DEFAULT_MAX_CELLS``.
    """
    start = time.perf_counter()
    emb, basis = _stage(m, k, gamma)
    support: set = set()
    terms = 0
    triangular = True
    for w, s in emb.stage_supports(basis):
        support |= s
        terms += len(s)
        triangular = triangular and _triangular(w, s)
    if triangular:
        rank, pivots = len(basis), 0
    else:
        if len(basis) * len(support) > W.DEFAULT_MAX_CELLS:
            raise LimitExceeded(f"coordinate matrix {len(basis)}x{len(support)} exceeds max_cells={W.DEFAULT_MAX_CELLS}")
        cols = sorted(support, key=lambda u: W.word_sort_key(W.BCS, u))
        col_of = {u: j for j, u in enumerate(cols)}
        rows = [{col_of[u]: c for u, c in emb.word_image(w).terms.items()} for w in basis]
        rank = pivots = sparse_rank(rows, len(cols))
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check="injectivity-rank",
        params={"m": m, "k": k, "gamma": emb.gamma.name},
        result="pass" if rank == len(basis) else "fail",
        details={"rank": rank, "dimension": len(basis), "matrix_dims": [len(basis), len(support)]},
        elapsed_ms=elapsed,
        stats={"words": len(basis), "image_terms": terms, "pivots": pivots},
    )


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

    def render(self) -> list:
        """The rows, each a list of rendered entries."""
        return [[el.render() for el in row] for row in self.entries]

    def __repr__(self):
        body = "; ".join(", ".join(row) for row in self.render())
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


# -- one-sided inverse searches -------------------------------------------------


@dataclass
class InverseSearchResult:
    found: bool
    solution: Element | ElementMatrix | None
    side: str
    universe: str
    m: int
    k_extra: int
    candidates: int
    rank: int
    rank_augmented: int
    elapsed_ms: float = 0.0
    # candidates, and system rows and elimination pivots summed over the blocks solved; not part of to_dict()
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


def _search(a: Element | ElementMatrix, side: str, m: int, k_extra: int) -> InverseSearchResult:
    """Solve for a one-sided inverse X of the square matrix A, an element being the 1 x 1 case.

    Block ``index`` is column ``index`` of X in A X = I for side "right",
    row ``index`` of X in X A = I for side "left".  Its n entries combine
    the candidate words of length <= m whose generator indices are bounded
    by those in A plus ``k_extra``.  The rows, the coordinates (r, u) of
    the n products, are built once; only the right-hand side, 1 on identity
    row ``index``, depends on the block.  The search stops at the first
    infeasible block, and reports the last block's ranks as its certificate.
    """
    entries = ((a,),) if isinstance(a, Element) else a.entries
    n = len(entries)
    if len(entries[0]) != n:
        raise ValueError("inverse search needs a square matrix")
    if all(el.is_zero() for row in entries for el in row):
        raise ValueError("cannot search for an inverse of the zero element")
    if k_extra < 0:
        raise ValueError("k_extra must be >= 0")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    start = time.perf_counter()
    uni = a.universe
    max_index = max((W.max_free_index(uni, w) for row in entries for el in row for w in el.terms), default=0)
    cands = W.enumerate_words(m, max_index + k_extra, uni)
    ncand, mul = len(cands), W.word_mul
    row_of: dict = {(r, W.identity_word(uni)): r for r in range(n)}
    rows: list = [{} for _ in range(n)]
    for j in range(n):
        for w_ix, w in enumerate(cands):
            col_id = j * ncand + w_ix
            for r in range(n):
                if side == "right":
                    prod = _collect([(mul(uni, u, w), c) for u, c in entries[r][j].terms.items()])
                else:
                    prod = _collect([(mul(uni, w, u), c) for u, c in entries[j][r].terms.items()])
                for u, coeff in prod.items():
                    i = row_of.get((r, u))
                    if i is None:
                        i = row_of[r, u] = len(rows)
                        rows.append({})
                    rows[i][col_id] = coeff
    stats = {"candidates": ncand, "rows": 0, "pivots": 0}
    blocks: list = []
    for index in range(n):
        rows[index][_RHS] = ONE
        solution, rank, rank_aug = sparse_solve(rows, n * ncand)
        del rows[index][_RHS]
        stats["rows"] += len(rows)
        stats["pivots"] += rank
        if solution is None:
            break
        terms: list = [[] for _ in range(n)]
        for col, c in solution.items():
            j, w_ix = divmod(col, ncand)
            terms[j].append((cands[w_ix], c))
        blocks.append([Element._raw(uni, _collect(t)) for t in terms])
    if len(blocks) < n:
        x = None
    elif isinstance(a, Element):
        x = blocks[0][0]
    else:
        x = ElementMatrix(blocks if side == "left" else list(zip(*blocks)))
    elapsed = (time.perf_counter() - start) * 1000.0
    return InverseSearchResult(x is not None, x, side, uni, m, k_extra, ncand, rank, rank_aug, elapsed, stats)


def inverse_search(a: Element, side: str, m: int, *, k_extra: int = 0) -> InverseSearchResult:
    """Decide exactly whether a length-bounded one-sided inverse exists.

    Solves the coordinate linear system of a*x = 1 (or x*a = 1) over all
    candidate words of length <= m whose generator indices are bounded by
    those in ``a`` plus ``k_extra``.  Infeasibility is certified relative
    to those bounds by rank(augmented) > rank(system).
    """
    return _search(a, side, m, k_extra)


def mat_inverse_search(a: ElementMatrix, side: str, m: int) -> InverseSearchResult:
    """``inverse_search`` for a square matrix, with an ``ElementMatrix`` as the solution.

    A right inverse solves A X = I column by column; a left inverse X A = I
    row by row.  An infeasible search certifies its first infeasible block.
    """
    return _search(a, side, m, 0)
