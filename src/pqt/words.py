"""Normal forms and arithmetic for the monoids behind the workbench.

Four universes share one calling convention (a universe tag plus an
immutable, hashable word value):

* ``bc``   -- the bicyclic monoid <p, q : pq = e>, canonical words q^a p^b
* ``sinf`` -- the free *-monoid on t1, t1*, t2, t2*, ...
* ``bcs``  -- the monoid free product of the two above
* ``f2``   -- the free group on x, y (carrier of the trace checks)

A ``bcs`` word is stored in alternating normal form: a tuple of items,
each either a non-identity bicyclic block or a single free generator,
with no two bicyclic blocks adjacent.  The item count is the word's
length.  ``sinf`` words are item tuples containing no bicyclic blocks,
so they double as ``bcs`` words under the natural inclusion.

Letters are interned: ``BCElement`` and ``FreeGen`` keep one instance
per field value, so letter equality is identity and the hash is
``object``'s.  Hashing and comparing word tuples, the dict keys of every
element, then run in C.  The pools keep every distinct letter built in
the process and never shrink, so they grow with the distinct letters
built, not with the words or elements: thousands on the budgeted
enumerations, at about 190 bytes a letter with its pool entry.

All operations are pure functions of immutable values and safe to call
concurrently; a letter built by two threads at once is still one
instance.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import LimitExceeded

BC = "bc"
SINF = "sinf"
BCS = "bcs"
F2 = "f2"

UNIVERSES = (BC, SINF, BCS, F2)

# resource budgets; every check reads them here at call time, so rebinding one moves every check
DEFAULT_BLOCK_FACTOR = 3
DEFAULT_ENUMERATION_LIMIT = 200_000
DEFAULT_MAX_CELLS = 2_000_000
MAX_LENGTH = 12
MAX_INDEX = 16


class _Letter:
    """Interned immutable letter: one instance per value of ``_fields``.

    Equality and hashing are ``object``'s, by identity, which agrees with
    value equality because no two instances share a value.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so they return the interned instance
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


_BC_POOL: dict = {}


class BCElement(_Letter):
    """q^a p^b in canonical form; (0, 0) is the identity.

    Interned: ``BCElement(a, b)`` returns the one instance with these
    exponents, so ``==`` is ``is``.  Deliberately not a tuple subclass:
    words are dict keys, and item equality has to be class-aware.
    """

    __slots__ = ("a", "b")
    __match_args__ = _fields = ("a", "b")

    def __new__(cls, a: int, b: int) -> "BCElement":
        try:
            return _BC_POOL[a, b]
        except KeyError:
            self = object.__new__(cls)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            # setdefault keeps one instance when two threads build the same value at once
            return _BC_POOL.setdefault((a, b), self)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0


BC_IDENTITY = BCElement(0, 0)
P = BCElement(0, 1)
Q = BCElement(1, 0)


def bc_mul(l: BCElement, r: BCElement) -> BCElement:
    # the inner p^b q^c collapses through pq = e; the longer run survives
    if l.b >= r.a:
        return BCElement(l.a, l.b - r.a + r.b)
    return BCElement(l.a + r.a - l.b, r.b)


def bc_star(x: BCElement) -> BCElement:
    return BCElement(x.b, x.a)


_FREE_POOL: dict = {}


class FreeGen(_Letter):
    """Free *-monoid generator t_index, or its star when ``starred``; interned like ``BCElement``."""

    __slots__ = ("index", "starred")
    __match_args__ = _fields = ("index", "starred")

    def __new__(cls, index: int, starred: bool = False) -> "FreeGen":
        try:
            return _FREE_POOL[index, starred]
        except KeyError:
            self = object.__new__(cls)
            starred = bool(starred)
            object.__setattr__(self, "index", index)
            object.__setattr__(self, "starred", starred)
            return _FREE_POOL.setdefault((index, starred), self)

    def star(self) -> "FreeGen":
        return FreeGen(self.index, not self.starred)


Item = Union[BCElement, FreeGen]
ProductWord = tuple  # tuple[Item, ...] in alternating normal form
FreeWord = tuple  # tuple[FreeGen, ...]
FGLetter = tuple  # (gen, exp) with gen in {"x", "y"}, exp in {+1, -1}
FGWord = tuple  # tuple[FGLetter, ...], freely reduced


def t(index: int, starred: bool = False) -> FreeGen:
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    return FreeGen(index, starred)


def normalize_items(items: Iterable[Item]) -> ProductWord:
    """Fold an arbitrary item sequence into alternating normal form."""
    stack: list[Item] = []
    for it in items:
        if isinstance(it, BCElement):
            if it.is_identity():
                continue
            if stack and isinstance(stack[-1], BCElement):
                merged = bc_mul(stack.pop(), it)
                if not merged.is_identity():
                    stack.append(merged)
                # a dropped identity exposes a free generator (or nothing),
                # so the stack stays in normal form
            else:
                stack.append(it)
        else:
            stack.append(it)
    return tuple(stack)


def pw_mul(l: ProductWord, r: ProductWord) -> ProductWord:
    """Multiply two normal-form words; only the seam can need work."""
    if not l:
        return r
    if not r:
        return l
    ll, rf = l[-1], r[0]
    if isinstance(ll, BCElement) and isinstance(rf, BCElement):
        merged = bc_mul(ll, rf)
        if merged.is_identity():
            # alternation makes both splice neighbours free generators,
            # so no cascade is possible
            assert len(l) < 2 or isinstance(l[-2], FreeGen)
            assert len(r) < 2 or isinstance(r[1], FreeGen)
            return l[:-1] + r[1:]
        return l[:-1] + (merged,) + r[1:]
    return l + r


def pw_star(w: ProductWord) -> ProductWord:
    out = []
    for it in reversed(w):
        out.append(bc_star(it) if isinstance(it, BCElement) else it.star())
    return tuple(out)


def pw_len(w: ProductWord) -> int:
    return len(w)


def free_star(w: FreeWord) -> FreeWord:
    return tuple(g.star() for g in reversed(w))


def fg_inverse(w: FGWord) -> FGWord:
    return tuple((g, -e) for g, e in reversed(w))


def fg_normalize(letters: Iterable[FGLetter]) -> FGWord:
    stack: list[FGLetter] = []
    for g, e in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return tuple(stack)


def fg_mul(l: FGWord, r: FGWord) -> FGWord:
    return fg_normalize(l + r)


def map_to_two_generators(w: FreeWord) -> tuple:
    """Monoid map into the free *-monoid <a, b> with a* = b.

    t_n goes to a b^n a and t_n* to b a^n b; the images decode uniquely,
    which is what makes the composed group embedding injective.
    """
    out: list[str] = []
    for g in w:
        if g.starred:
            out.append("b")
            out.extend("a" * g.index)
            out.append("b")
        else:
            out.append("a")
            out.extend("b" * g.index)
            out.append("a")
    return tuple(out)


def map_to_f2(w: FreeWord) -> FGWord:
    """Compose the two-generator map with a -> x, b -> y into the free group.

    Images are positive words, so reduction never fires here; it is kept
    for the general contract.
    """
    letters = [("x" if c == "a" else "y", 1) for c in map_to_two_generators(w)]
    return fg_normalize(letters)


# -- generic word interface, dispatched on the universe tag ------------------


def identity_word(universe: str):
    _check_universe(universe)
    return BC_IDENTITY if universe == BC else ()


def word_mul(universe: str, u, v):
    if universe == BC:
        return bc_mul(u, v)
    if universe == SINF:
        return u + v
    if universe == BCS:
        return pw_mul(u, v)
    if universe == F2:
        return fg_mul(u, v)
    raise ValueError(f"unknown universe {universe!r}")


def word_star(universe: str, u):
    if universe == BC:
        return bc_star(u)
    if universe == SINF:
        return free_star(u)
    if universe == BCS:
        return pw_star(u)
    if universe == F2:
        return fg_inverse(u)
    raise ValueError(f"unknown universe {universe!r}")


def _is_block(x) -> bool:
    return type(x) is BCElement and x.a >= 0 and x.b >= 0


def _is_gen(x) -> bool:
    return type(x) is FreeGen and x.index >= 1


def is_word(universe: str, u) -> bool:
    """Whether u spells a word of the universe; bcs and f2 spellings may be unreduced."""
    if universe == BC:
        return _is_block(u)
    if type(u) is not tuple:
        return False
    if universe == SINF:
        return all(map(_is_gen, u))
    if universe == BCS:
        return all(_is_gen(x) or _is_block(x) for x in u)
    return all(x in _F2_RANK for x in u)


def word_len(universe: str, u) -> int:
    if universe == BC:
        return 0 if u.is_identity() else 1
    return len(u)


_F2_RANK = {("x", 1): 0, ("x", -1): 1, ("y", 1): 2, ("y", -1): 3}


def _gen_rank(g: FreeGen) -> int:
    return 2 * g.index + (1 if g.starred else 0)


def _token_ranks(universe: str, u) -> tuple:
    # generator order: p < q < t1 < t1* < t2 < ...
    if universe == BC:
        return (1,) * u.a + (0,) * u.b
    if universe == F2:
        return tuple(_F2_RANK[let] for let in u)
    ranks: list[int] = []
    for it in u:
        if isinstance(it, BCElement):
            ranks.extend((1,) * it.a + (0,) * it.b)
        else:
            ranks.append(_gen_rank(it))
    return tuple(ranks)


def word_sort_key(universe: str, u) -> tuple:
    """Total order: length first, then lexicographic on generator tokens."""
    return (word_len(universe, u), _token_ranks(universe, u))


def word_tokens(universe: str, u) -> list:
    if universe == BC:
        return ["q"] * u.a + ["p"] * u.b
    if universe == F2:
        return [g if e == 1 else g + "-" for g, e in u]
    toks: list[str] = []
    for it in u:
        if isinstance(it, BCElement):
            toks.extend(["q"] * it.a + ["p"] * it.b)
        else:
            toks.append(f"t{it.index}*" if it.starred else f"t{it.index}")
    return toks


def render_word(universe: str, u) -> str:
    toks = word_tokens(universe, u)
    return " ".join(toks) if toks else "e"


def max_free_index(universe: str, u) -> int:
    if universe in (BC, F2):
        return 0
    return max((it.index for it in u if isinstance(it, FreeGen)), default=0)


def _check_universe(universe: str) -> None:
    if universe not in UNIVERSES:
        raise ValueError(f"unknown universe {universe!r}")


# -- enumeration --------------------------------------------------------------


def bc_elements(max_exponent_sum: int) -> list:
    """All q^a p^b with a + b <= max_exponent_sum, in canonical order (the identity first)."""
    out = [BCElement(a, s - a) for s in range(max_exponent_sum + 1) for a in range(s + 1)]
    out.sort(key=lambda x: word_sort_key(BC, x))
    return out


_F2_LETTERS = tuple(_F2_RANK)


def _follow_table(m: int, k: int, universe: str) -> dict:
    """For each last letter (None for the empty word), the letters that may come next."""
    if universe == F2:
        # no letter next to its inverse
        follow = {(g, e): tuple(x for x in _F2_LETTERS if x != (g, -e)) for g, e in _F2_LETTERS}
        return {None: _F2_LETTERS, **follow}
    gens = tuple(FreeGen(i, s) for i in range(1, k + 1) for s in (False, True))
    blocks = tuple(bc_elements(m * DEFAULT_BLOCK_FACTOR)[1:]) if universe == BCS else ()
    # no two bicyclic blocks side by side
    return {None: gens + blocks, **dict.fromkeys(gens, gens + blocks), **dict.fromkeys(blocks, gens)}


def count_words(m: int, k: int, universe: str) -> int:
    """Size of the enumeration without materialising it."""
    _check_universe(universe)
    if universe == BC:
        return (m + 1) * (m + 2) // 2
    if universe == F2:
        return 2 * 3**m - 1  # 1 + sum of 4 * 3^(i - 1) for i = 1..m
    bound = m * DEFAULT_BLOCK_FACTOR if universe == BCS else 0
    n_free, n_bc = 2 * k, bound * (bound + 3) // 2  # sum of (s + 1) for s = 1..bound
    # words of the current length ending in a free letter (the empty word among them) or in a block
    free, block, total = 1, 0, 1
    for _ in range(m):
        free, block = (free + block) * n_free, free * n_bc
        if not (free or block):
            break
        total += free + block
    return total


def enumerate_words(m: int, k: int, universe: str) -> list:
    """All words of length <= m with generator indices <= k, sorted.

    ``bc`` lists q^a p^b with a + b <= m and ``f2`` the reduced words;
    neither reads k.  On ``sinf`` and ``bcs``, k = 0 leaves no free
    letters.  For ``bcs`` the bicyclic blocks are capped at exponent sum
    m * DEFAULT_BLOCK_FACTOR; the abstract length filtration is infinite,
    so any finite enumeration has to bound exponents somewhere.  Lists
    over the word budget, or with free letters past the length/index
    guard, raise LimitExceeded before any word is built.

    Index-bounded enumeration is a sound basis for the verifiers built on
    it: every checked statement is uniform in the generator index, and a
    finite computation only ever touches finitely many indices.
    """
    _check_universe(universe)
    if m < 0:
        raise ValueError("m must be >= 0")
    free_letters = universe in (SINF, BCS)
    if free_letters and k < 0:
        raise ValueError("k must be >= 0")
    # free letters let images grow like 2^m, so lists with them are held to the length/index guard
    if free_letters and k >= 1 and (m > MAX_LENGTH or k > MAX_INDEX):
        raise LimitExceeded(f"enumeration bounds m={m}, k={k} exceed the safety limits (m <= {MAX_LENGTH}, k <= {MAX_INDEX})")
    total = count_words(m, k, universe)
    if total > DEFAULT_ENUMERATION_LIMIT:
        raise LimitExceeded(f"enumeration would produce {total} words (limit {DEFAULT_ENUMERATION_LIMIT})")
    if universe == BC:
        return bc_elements(m)

    follow = _follow_table(m, k, universe)
    words: list = [()]
    frontier: list = [()]
    for _ in range(m):
        frontier = [w + (x,) for w in frontier for x in follow[w[-1] if w else None]]
        if not frontier:
            break
        words.extend(frontier)
    words.sort(key=lambda w: word_sort_key(universe, w))
    return words
