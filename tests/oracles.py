"""Independent oracles and random-value helpers shared by the test modules.

Everything here deliberately avoids the production code paths it is used
to check: bicyclic multiplication is redone by string rewriting, free
reduction by a fixpoint scan, the embedding by expanding all 2^|w| letter
choices and its left inverse psi o epsilon by dropping tokens and
expanding again, element sums and products by summing each distinct word's
coefficient over plain Fraction pairs, the free-product moment by the
literal two-level centered expansion, the coordinate lemma by the scan
over every (target, candidate) pair on the images the embedding builds,
the operator norm by a Hermitian eigensolver instead of an SVD, the
boundary check one column at a time, positive
semidefiniteness by the signs of all principal minors instead of an
elimination, or by the fraction-free elimination on the full matrix
instead of its upper triangle, the collapsed blocks of a state Gram by
rewriting the word's bicyclic letters, and bounded word lists by one
generator per universe instead of one frontier kernel.  Dense ranks,
determinants and the inverse searches' systems are computed over plain
(re, im) Fraction pairs, read from library scalars through
``.re``/``.im``, never with the library's scalar arithmetic.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np

from pqt import words as W
from pqt.algebra import Element, GaussianRational, delta
from pqt.embedding import CheckReport, Embedding
from pqt.states import StateConfig, Character, Vacuum


# -- string rewriting oracle for the bicyclic relation ---------------------------


def rewrite_pq(tokens):
    """Exhaustively apply pq -> (empty) until no occurrence is left."""
    tokens = list(tokens)
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(tokens):
            if i + 1 < len(tokens) and tokens[i] == "p" and tokens[i + 1] == "q":
                i += 2
                changed = True
            else:
                out.append(tokens[i])
                i += 1
        tokens = out
    return tokens


def bc_mul_by_rewriting(l: W.BCElement, r: W.BCElement) -> W.BCElement:
    tokens = rewrite_pq(["q"] * l.a + ["p"] * l.b + ["q"] * r.a + ["p"] * r.b)
    a = 0
    while a < len(tokens) and tokens[a] == "q":
        a += 1
    b = len(tokens) - a
    assert all(tok == "p" for tok in tokens[a:])
    return W.BCElement(a, b)


_T_RE = re.compile(r"t(\d+)(\*)?\Z")


def reblock(tokens) -> tuple:
    """Independent normal-form builder from a rewritten token stream."""
    items = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i] in ("p", "q"):
            a = b = 0
            while i < n and tokens[i] == "q":
                a += 1
                i += 1
            while i < n and tokens[i] == "p":
                b += 1
                i += 1
            # no pq substring survives rewriting, so the run is q...q p...p
            assert i >= n or tokens[i] not in ("p", "q")
            items.append(W.BCElement(a, b))
        else:
            m = _T_RE.fullmatch(tokens[i])
            items.append(W.FreeGen(int(m.group(1)), m.group(2) is not None))
            i += 1
    return tuple(items)


def pw_mul_by_rewriting(u, v) -> tuple:
    tokens = W.word_tokens(W.BCS, u) + W.word_tokens(W.BCS, v)
    return reblock(rewrite_pq(tokens))


def normal_form_by_rewriting(universe, w):
    """The normal form of a spelling, rebuilt from its rewritten tokens (f2: by fixpoint reduction)."""
    if universe == W.F2:
        return fg_reduce_fixpoint(w)
    return reblock(rewrite_pq(W.word_tokens(universe, w)))


# -- word lists, one generator per universe -------------------------------------------


def enumerate_by_universe(m, k, universe) -> list:
    """The words of length <= m that ``enumerate_words`` lists, each universe built its own way.

    bc loops over the exponent pairs (a, b), e as (), sinf takes itertools
    products of the 2k free letters, and bcs and f2 grow frontiers that
    skip a block after a block and a letter after its inverse.
    """
    gens = [W.FreeGen(i, s) for i in range(1, k + 1) for s in (False, True)]
    if universe == W.BC:
        words = [(W.BCElement(a, b),) if a or b else () for a in range(m + 1) for b in range(m + 1 - a)]
    elif universe == W.SINF:
        words = [w for length in range(m + 1) for w in itertools.product(gens, repeat=length)]
    elif universe == W.F2:
        letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
        words = frontier = [()]
        for _ in range(m):
            frontier = [w + ((g, e),) for w in frontier for g, e in letters if not (w and w[-1] == (g, -e))]
            words = words + frontier
    else:
        bound = m * W.DEFAULT_BLOCK_FACTOR
        blocks = [W.BCElement(a, b) for a in range(bound + 1) for b in range(bound + 1 - a) if a or b]
        words = frontier = [()]
        for _ in range(m):
            grown = []
            for w in frontier:
                grown.extend(w + (g,) for g in gens)
                if not (w and isinstance(w[-1], W.BCElement)):
                    grown.extend(w + (b,) for b in blocks)
            words, frontier = words + grown, grown
    return sorted(words, key=lambda w: W.word_sort_key(universe, w))


# -- the embedding by full expansion -------------------------------------------------


def phi_by_expansion(w, gamma) -> dict:
    """The image of a free word as {normal-form word: scalar}, one term per letter choice.

    Letter t_n (t_n*) contributes p (q) with weight 1 or itself with weight
    gamma(n), a Fraction or an (re, im) pair; every one of the 2^|w|
    choices is reduced by string rewriting.
    """
    terms: dict = {}
    for choice in itertools.product((False, True), repeat=len(w)):
        tokens, weight = [], (Fraction(1), Fraction(0))
        for g, free in zip(w, choice):
            if free:
                tokens.append(f"t{g.index}*" if g.starred else f"t{g.index}")
                weight = complex_product(weight, _as_complex(gamma(g.index)))
            else:
                tokens.append("q" if g.starred else "p")
        word = reblock(rewrite_pq(tokens))
        prev = terms.get(word, (0, 0))
        terms[word] = (prev[0] + weight[0], prev[1] + weight[1])
    return {u: GaussianRational(*c) for u, c in terms.items() if any(c)}


def _as_complex(v) -> tuple:
    return v if isinstance(v, tuple) else (Fraction(v), Fraction(0))


# -- epsilon and its inverse psi by token rewriting, on plain {word: (re, im)} dicts --


def phi_of_element_by_expansion(x: dict, gamma) -> dict:
    """phi of {free word: (re, im)}, each word's image from ``phi_by_expansion``."""
    return collect_by_expansion(
        (u, complex_product(c, as_pair(v))) for w, c in x.items() for u, v in phi_by_expansion(w, gamma).items()
    )


def epsilon_by_rewriting(y: dict) -> dict:
    """epsilon (p, q -> e) of {bcs word: (re, im)}: every p and q token dropped."""
    return collect_by_expansion(
        (reblock([tok for tok in W.word_tokens(W.BCS, u) if tok.startswith("t")]), c) for u, c in y.items()
    )


def psi_by_rewriting(x: dict, gamma) -> dict:
    """psi (t -> gamma^-1 (t - e)) of {free word: (re, im)}, for any nonzero gamma.

    Each letter t_n of a word is kept with weight 1/gamma(n) or dropped with
    weight -1/gamma(n), over all 2^|w| choices; gamma(n) is a Fraction or
    an (re, im) pair.
    """
    pairs = []
    for w, c in x.items():
        tokens = W.word_tokens(W.SINF, w)
        inverses = [_pair_quotient((1, 0), _as_complex(gamma(int(tok[1:].rstrip("*"))))) for tok in tokens]
        for choice in itertools.product((False, True), repeat=len(tokens)):
            weight = c
            for inv, keep in zip(inverses, choice):
                weight = complex_product(weight, inv if keep else (-inv[0], -inv[1]))
            pairs.append((reblock([tok for tok, keep in zip(tokens, choice) if keep]), weight))
    return collect_by_expansion(pairs)


# -- element arithmetic by expansion, on plain {bcs word: (re, im)} dicts ------


def collect_by_expansion(pairs) -> dict:
    """Sum (item sequence, (re, im)) pairs into {normal-form word: (re, im)}.

    Each item sequence is folded by string rewriting. The distinct words are
    listed in the order they first appear; each one's coefficient is then
    summed over the whole list, and words that sum to zero are left out.
    """
    pairs = [(reblock(rewrite_pq(W.word_tokens(W.BCS, w))), c) for w, c in pairs]
    out = {}
    for word in dict.fromkeys(w for w, _ in pairs):
        re = sum((c[0] for w, c in pairs if w == word), Fraction(0))
        im = sum((c[1] for w, c in pairs if w == word), Fraction(0))
        if re or im:
            out[word] = (re, im)
    return out


def complex_product(a, b) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def product_by_expansion(x: dict, y: dict) -> dict:
    """x * y: every pair of terms, the words multiplied by rewriting."""
    return collect_by_expansion(
        (pw_mul_by_rewriting(u, v), complex_product(a, b)) for u, a in x.items() for v, b in y.items()
    )


# -- alternative free reduction ---------------------------------------------------


def fg_reduce_fixpoint(letters) -> tuple:
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(letters):
            if i + 1 < len(letters) and letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]:
                i += 2
                changed = True
            else:
                out.append(letters[i])
                i += 1
        letters = out
    return tuple(letters)


# -- operator norm by another LAPACK driver -----------------------------------------


def op_norm_eigh(a) -> float:
    """||a|| = sqrt(largest eigenvalue of a^H a), from the Hermitian eigensolver."""
    a = np.asarray(a, dtype=complex)
    return float(np.sqrt(max(np.linalg.eigvalsh(a.conj().T @ a)[-1], 0.0)))


def boundary_failures_by_column(rep, window: int) -> list:
    """The boundary check's failures, one word and one interior column at a
    time: the column must hold 1.0 on row i - b + a and no other nonzero."""
    d = rep.cfg.dim
    failures = []
    for bc in W.bc_elements(window):
        mat = rep.item_matrix(bc)
        for i in range(window, d - window):
            col = mat[:, i]
            if col[i - bc.b + bc.a] != 1.0 or np.count_nonzero(col) != 1:
                failures.append({"word": W.render_word(W.BC, (bc,)), "vector": i})
    return failures


# -- literal two-level moment expansion -------------------------------------------


def _oracle_component_moment(kind, payload, cfg: StateConfig) -> Fraction:
    if kind == "bc":
        return Fraction(1, 2**payload.a) if payload.a == payload.b else Fraction(0)
    if isinstance(cfg.s_state, Vacuum):
        return Fraction(1) if not payload else Fraction(0)
    return Fraction(cfg.s_state.z) ** len(payload)


def _oracle_split(word) -> list:
    blocks = []
    run = []
    for it in word:
        if isinstance(it, W.BCElement):
            if run:
                blocks.append(("s", tuple(run)))
                run = []
            blocks.append(("bc", it))
        else:
            run.append(it)
    if run:
        blocks.append(("s", tuple(run)))
    return blocks


def _oracle_merge(blocks) -> tuple:
    out = list(blocks)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][0] == out[i + 1][0]:
                kind = out[i][0]
                if kind == "bc":
                    merged = bc_mul_by_rewriting(out[i][1], out[i + 1][1])
                    repl = [] if merged.is_identity() else [("bc", merged)]
                else:
                    repl = [("s", out[i][1] + out[i + 1][1])]
                out = out[:i] + repl + out[i + 2 :]
                changed = True
                break
    return tuple(out)


def _blocks_word(blocks) -> tuple:
    items = []
    for kind, payload in blocks:
        if kind == "bc":
            items.append(payload)
        else:
            items.extend(payload)
    return tuple(items)


def _alternating(blocks) -> bool:
    return all(blocks[i][0] != blocks[i + 1][0] for i in range(len(blocks) - 1))


def moment_two_level(word, cfg: StateConfig) -> Fraction:
    """Literal centered expansion: lift each block to its centered part plus
    its mean, kill fully centered alternating products, recurse on the rest."""
    blocks = _oracle_split(word)
    r = len(blocks)
    if r == 0:
        return Fraction(1)
    if r == 1:
        return _oracle_component_moment(blocks[0][0], blocks[0][1], cfg)
    mus = [_oracle_component_moment(k, p, cfg) for k, p in blocks]
    total = Fraction(0)
    for t_mask in range((1 << r) - 1):  # proper subsets carry centered factors
        scalar = Fraction(1)
        for i in range(r):
            if not (t_mask >> i) & 1:
                scalar *= mus[i]
        if scalar == 0:
            continue
        kept = [i for i in range(r) if (t_mask >> i) & 1]
        total += scalar * _centered_product_moment(kept, blocks, mus, cfg)
    return total


def _centered_product_moment(kept, blocks, mus, cfg) -> Fraction:
    if not kept:
        return Fraction(1)
    sub = [blocks[i] for i in kept]
    if _alternating(sub):
        return Fraction(0)
    total = Fraction(0)
    nn = len(kept)
    for u_mask in range(1 << nn):
        scalar = Fraction(1)
        for pos in range(nn):
            if not (u_mask >> pos) & 1:
                scalar *= -mus[kept[pos]]
        if scalar == 0:
            continue
        chosen = [blocks[kept[pos]] for pos in range(nn) if (u_mask >> pos) & 1]
        word = _blocks_word(_oracle_merge(chosen))
        total += scalar * moment_two_level(word, cfg)
    return total


# -- the collapsed-block factorisation of a state Gram by rewriting -----------------


def _mu1_by_rewriting(tokens) -> Fraction:
    rest = rewrite_pq(tokens)
    a = rest.count("q")
    return Fraction(1, 2**a) if 2 * a == len(rest) else Fraction(0)


def block_gram_factors(universe, words, z) -> tuple:
    """(d, s, K) with state Gram[i][j] = d[i] d[j] K[s[i]][s[j]].

    d[i] is z to the number of free letters of w_i, s[i] the index of its
    block (its p/q tokens rewritten to q^a p^b) in first-appearance order,
    and K the dyadic shift state's Gram on the distinct blocks.
    """
    d, s, index = [], [], {}
    for w in words:
        tokens = W.word_tokens(universe, w)
        block = tuple(rewrite_pq([tok for tok in tokens if tok in ("p", "q")]))
        d.append(Fraction(z) ** sum(tok.startswith("t") for tok in tokens))
        s.append(index.setdefault(block, len(index)))
    stars = [[{"p": "q", "q": "p"}[tok] for tok in reversed(c)] for c in index]
    K = [[_mu1_by_rewriting(ci + list(cj)) for cj in index] for ci in stars]
    return d, s, K


def distinct_kept_blocks(universe, words, z) -> int:
    """Distinct blocks among the words whose D entry z^(free letters) is nonzero."""
    d, s, _ = block_gram_factors(universe, words, z)
    return len({b for di, b in zip(d, s) if di != 0})


# -- pairwise coordinate scan ------------------------------------------------------


def coordinate_separation_pairwise(m, k, gamma=None) -> CheckReport:
    """The coordinate lemma by one lookup per (target, candidate) pair, in order."""
    emb = Embedding(gamma)
    candidates = W.enumerate_words(m, k, W.SINF)
    targets = [w for w in candidates if len(w) == m]
    images = [(y, emb.apply(delta(W.SINF, y))) for y in candidates]
    counterexample = None
    pairs = 0
    for w in targets:
        for y, image in images:
            pairs += 1
            coeff = image.coordinate(w)
            if (not coeff.is_zero()) != (y == w):
                counterexample = {
                    "target": W.render_word(W.SINF, w),
                    "candidate": W.render_word(W.SINF, y),
                    "coefficient": str(coeff),
                }
                break
        if counterexample:
            break
    return CheckReport(
        check="coordinate-lemma",
        params={"m": m, "k": k, "gamma": emb.gamma.name},
        result="fail" if counterexample else "pass",
        counterexample=counterexample,
        details={"targets": len(targets), "candidates": len(candidates), "pairs_checked": pairs},
    )


# -- dense exact linear algebra over plain (re, im) Fraction pairs -----------------


def as_pair(z) -> tuple:
    """A library scalar as a plain (re, im) pair of Fractions."""
    return (z.re, z.im)


def _pair_quotient(a, b) -> tuple:
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _pair_minus_product(a, f, b) -> tuple:
    """a - f * b."""
    fb = complex_product(f, b)
    return (a[0] - fb[0], a[1] - fb[1])


def pair_rank(rows) -> int:
    """Textbook Gaussian elimination over (re, im) Fraction pairs, dense and destructive."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if any(m[r][col])), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [_pair_quotient(v, pv) for v in m[rank]]
        for r in range(n_rows):
            if r != rank and any(m[r][col]):
                f = m[r][col]
                m[r] = [_pair_minus_product(a, f, b) for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_rank(rows) -> int:
    """Rank of a matrix of library scalars, eliminated over their (re, im) pairs."""
    return pair_rank([[as_pair(v) for v in r] for r in rows])


def dense_solvable(rows, rhs) -> bool:
    """Consistency of A x = b by comparing dense ranks."""
    plain = dense_rank(rows)
    augmented = dense_rank([list(r) + [v] for r, v in zip(rows, rhs)])
    return augmented == plain


def dense_det(rows) -> tuple:
    """Determinant as an (re, im) pair, by Gaussian elimination with row swaps over the entries' pairs."""
    m = [[as_pair(v) for v in r] for r in rows]
    det = (Fraction(1), Fraction(0))
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if any(m[r][col])), None)
        if pivot is None:
            return (Fraction(0), Fraction(0))
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det[0], -det[1])
        det = complex_product(det, m[col][col])
        for r in range(col + 1, len(m)):
            f = _pair_quotient(m[r][col], m[col][col])
            m[r] = [_pair_minus_product(a, f, b) for a, b in zip(m[r], m[col])]
    return det


def psd_by_principal_minors(h) -> bool:
    """A Hermitian matrix is PSD iff every principal minor is >= 0 (Horn and Johnson, Matrix Analysis)."""
    n = len(h)
    return all(
        dense_det([[h[i][j] for j in idx] for i in idx])[0] >= 0
        for size in range(1, n + 1)
        for idx in itertools.combinations(range(n), size)
    )


def psd_int_full(m_rows: list) -> tuple:
    """Fraction-free symmetric elimination that keeps the whole matrix.

    The reference for ``pqt.states._psd_int``, which keeps only the upper
    triangle: the same pivots in the same order, so the same verdict and
    the same violating minor.
    """
    idx = list(range(len(m_rows)))
    M = [row[:] for row in m_rows]
    processed: list = []
    prev = 1
    while M:
        p = M[0][0]
        if p < 0:
            return False, processed + [idx[0]]
        if p == 0:
            bad = next((j for j in range(1, len(M)) if M[0][j] != 0), None)
            if bad is not None:
                return False, processed + [idx[0], idx[bad]]
            M = [row[1:] for row in M[1:]]
            idx = idx[1:]
            continue
        size = len(M)
        row0 = M[0]
        newM = []
        for i in range(1, size):
            Mi = M[i]
            mi0 = Mi[0]
            newrow = []
            for j in range(1, size):
                val = p * Mi[j] - mi0 * row0[j]
                assert val % prev == 0
                newrow.append(val // prev)
            newM.append(newrow)
        processed.append(idx[0])
        idx = idx[1:]
        prev = p
        M = newM
    return True, None


def patch_word_images(monkeypatch, tampered) -> None:
    """Make ``tampered(self, w)`` the embedding's word images, for every reader.

    The verifiers read supports, not images, so ``word_support`` is patched
    to the support of the tampered image: a tamper reaches both paths.
    """
    monkeypatch.setattr(Embedding, "word_image", tampered)
    monkeypatch.setattr(Embedding, "word_support", lambda self, w: frozenset(self.word_image(w).terms))


# -- the coordinate systems of the inverse searches, recounted -----------------------


def inverse_system_counts(entries, side, cands) -> tuple:
    """(rows, rank) of the system that each unknown block of a one-sided inverse solves.

    ``entries`` is the square matrix A as nested lists of bc, sinf or bcs
    elements.  Every product A[r][j] * w (side "right") or w * A[j][r]
    ("left") is expanded over (re, im) pairs with its words multiplied by
    rewriting; the rows are the n identity coordinates plus every other
    (r, word) a product reaches, and the rank is that of the coefficient
    matrix, eliminated densely.  The n blocks differ only in the
    right-hand side, so they share these counts.
    """
    n = len(entries)
    plain = [[{u: as_pair(c) for u, c in el.terms.items()} for el in row] for row in entries]
    one = (Fraction(1), Fraction(0))
    columns = []  # one {(r, word): pair} per unknown (j, candidate)
    for j in range(n):
        for w in cands:
            dw = {w: one}
            column = {}
            for r in range(n):
                prod = product_by_expansion(plain[r][j], dw) if side == "right" else product_by_expansion(dw, plain[j][r])
                column.update(((r, u), c) for u, c in prod.items())
            columns.append(column)
    keys = set(itertools.chain.from_iterable(columns)) | {(r, ()) for r in range(n)}
    zero = (Fraction(0), Fraction(0))
    rank = pair_rank([[col.get(key, zero) for col in columns] for key in keys])
    return len(keys), rank


# -- random data helpers -----------------------------------------------------------


def random_word(rng, universe, max_len=3, max_index=2, max_exp=2):
    length = rng.randint(0, max_len)
    if universe == W.BC:
        a, b = rng.randint(0, max_exp), rng.randint(0, max_exp)
        return (W.BCElement(a, b),) if a or b else ()
    if universe == W.SINF:
        return tuple(W.FreeGen(rng.randint(1, max_index), rng.random() < 0.5) for _ in range(length))
    if universe == W.F2:
        letters = [(rng.choice("xy"), rng.choice((1, -1))) for _ in range(length)]
        return W.fg_normalize(letters)
    items = []
    for _ in range(length):
        if items and isinstance(items[-1], W.BCElement):
            use_bc = False
        else:
            use_bc = rng.random() < 0.5
        if use_bc:
            a = rng.randint(0, max_exp)
            b = rng.randint(0, max_exp - a) if a < max_exp else 0
            if a == 0 and b == 0:
                a = 1
            items.append(W.BCElement(a, b))
        else:
            items.append(W.FreeGen(rng.randint(1, max_index), rng.random() < 0.5))
    return tuple(items)


def random_scalar(rng, complex_ok=True) -> GaussianRational:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if complex_ok and rng.random() < 0.4 else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return GaussianRational(re, im)


def random_element(rng, universe, terms=3, complex_ok=True, **word_kw) -> Element:
    out = {}
    for _ in range(rng.randint(1, terms)):
        out[random_word(rng, universe, **word_kw)] = random_scalar(rng, complex_ok)
    return Element(universe, out)
