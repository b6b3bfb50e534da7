"""Truncated finite-dimensional *-representation and operator norms.

The bicyclic generators act as the truncated forward/backward shifts, so
p q = e holds exactly except for a rank-one defect in the top corner
(no finite-dimensional algebra can avoid one), while q p annihilates the
bottom basis vector by construction.  Free generators get dense matrices
with a deterministic trigonometric fill; nothing here uses a PRNG, so
identical configurations reproduce bitwise-identical matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import UniverseMismatch
from . import words as W
from .algebra import Element


@dataclass(frozen=True)
class RepConfig:
    dim: int = 256
    max_index: int = 64

    def __post_init__(self):
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        if self.max_index < 1:
            raise ValueError(f"max_index must be >= 1, got {self.max_index}")


def _free_fill(n: int, d: int) -> np.ndarray:
    """The d x d matrix of t_n: a deterministic trigonometric fill."""
    j = np.arange(d, dtype=float)[:, None]
    k = np.arange(d, dtype=float)[None, :]
    return (np.cos(n + 3.0 * j + 7.0 * k) + 1j * np.sin(2.0 * n + 5.0 * j + 11.0 * k)) / math.sqrt(d)


class ShiftRepresentation:
    """Matrices for generators and, multiplicatively/linearly, for elements."""

    def __init__(self, cfg: RepConfig | None = None):
        self.cfg = cfg if cfg is not None else RepConfig()
        self._free: dict = {}

    @property
    def dim(self) -> int:
        return self.cfg.dim

    @property
    def forward_shift(self) -> np.ndarray:
        """q: e_i -> e_(i+1), kills e_(d-1)."""
        return self.item_matrix(W.Q)

    @property
    def backward_shift(self) -> np.ndarray:
        """p: e_i -> e_(i-1), kills e_0."""
        return self.item_matrix(W.P)

    def free_matrix(self, n: int, starred: bool = False) -> np.ndarray:
        if not 1 <= n <= self.cfg.max_index:
            raise ValueError(f"generator index {n} outside 1..{self.cfg.max_index}")
        base = self._free.get(n)
        if base is None:
            base = _free_fill(n, self.cfg.dim)
            base.flags.writeable = False  # handed out as is, so callers cannot corrupt the cache
            self._free[n] = base
        return base.conj().T if starred else base

    def item_matrix(self, item) -> np.ndarray:
        if isinstance(item, W.BCElement):
            # q^a p^b = forward^a backward^b: e_i -> e_(i-b+a) while neither
            # shift runs off an edge, which is b <= i < d - a + b (and i < d)
            d = self.cfg.dim
            out = np.zeros((d, d), dtype=complex)
            i = np.arange(item.b, min(d, d - item.a + item.b))
            out[i - item.b + item.a, i] = 1.0
            return out
        return self.free_matrix(item.index, item.starred)

    def word_matrix(self, w) -> np.ndarray:
        """Item word (bc, sinf or bcs) to matrix.

        A one-letter free word returns the cached, read-only generator matrix.
        """
        if not w:
            return np.eye(self.cfg.dim, dtype=complex)
        out = self.item_matrix(w[0])
        for item in w[1:]:
            out = out @ self.item_matrix(item)
        return out

    def matrix(self, x: Element) -> np.ndarray:
        if x.universe == W.F2:
            raise UniverseMismatch("the shift representation does not cover the free-group algebra")
        out = np.zeros((self.cfg.dim, self.cfg.dim), dtype=complex)
        for word, coeff in x.terms.items():
            out += complex(float(coeff.re), float(coeff.im)) * self.word_matrix(word)
        return out


class OpNormResult(NamedTuple):
    value: float
    iterations: int  # always 1: one direct solve
    residual: float | None = None  # ||Q Q^H a - a||_F when the sketch certified the norm, else None


SKETCH_RANK = 16  # columns of the range sketch; inputs of rank above this fall back to the SVD
_sketch_probes: dict = {}


def _sketch_probe(n: int) -> np.ndarray:
    """A fixed n x SKETCH_RANK Weyl fill in [-1/2, 1/2): deterministic, no PRNG."""
    probe = _sketch_probes.get(n)
    if probe is None:
        fill = np.arange(n * SKETCH_RANK, dtype=float).reshape(n, SKETCH_RANK) * 0.6180339887498949 % 1.0 - 0.5
        probe = fill.astype(complex)  # stored complex, so a @ probe converts nothing per call
        probe.flags.writeable = False
        _sketch_probes[n] = probe
    return probe


def op_norm(a: np.ndarray) -> OpNormResult:
    """Largest singular value of a 2-D array, certified to machine precision.

    First a range sketch (Halko, Martinsson and Tropp, SIAM Review 2011):
    Q spans a times a fixed probe, and the norm is ||Q^H a||, an SVD of a
    SKETCH_RANK-row matrix.  It is accepted only when the residual
    R = Q Q^H a - a has ||R||_F <= d eps ||a||_F, the order of LAPACK's own
    backward error; then | ||a|| - ||Q^H a|| | <= ||R||_F up to rounding.
    Otherwise (rank above SKETCH_RANK, d below 2 SKETCH_RANK, non-finite
    input) the norm comes from LAPACK's SVD.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"op_norm needs a 2-D array, got {a.ndim}-D")
    d = min(a.shape)
    size = float(np.linalg.norm(a))  # Frobenius; NaN or inf goes straight to the SVD
    if 2 * SKETCH_RANK <= d and math.isfinite(size):
        q, _ = np.linalg.qr(a @ _sketch_probe(a.shape[1]))
        b = q.conj().T @ a
        r = q @ b
        r -= a
        residual = float(np.linalg.norm(r))
        if residual <= d * np.finfo(float).eps * size:
            return OpNormResult(float(np.linalg.norm(b, 2)), 1, residual)
    return OpNormResult(float(np.linalg.norm(a, 2)), 1)


def gamma_from_rep(n: int, rep: ShiftRepresentation | None = None) -> float:
    """The norm-matched weight 1 / (n * ||t_n matrix||)."""
    rep = rep if rep is not None else ShiftRepresentation()
    return 1.0 / (n * op_norm(rep.free_matrix(n)).value)


@dataclass
class ConvergenceRow:
    n: int
    gamma: float
    norm_diff: float
    iterations: int


@dataclass
class ConvergenceReport:
    dim: int
    rows: list
    stats: dict = field(default_factory=dict)  # norm work counts; not part of to_dict()

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rows": [
                {"n": r.n, "gamma": r.gamma, "norm_an_minus_p": r.norm_diff, "iters": r.iterations}
                for r in self.rows
            ],
        }


def convergence_report(count: int, cfg: RepConfig | None = None) -> ConvergenceReport:
    """Distance of each weighted generator image from the p matrix.

    Row n reports ||(p + gamma_n t_n) - p|| with the norm-matched gamma,
    which is 1/n up to rounding.
    """
    rep = ShiftRepresentation(cfg)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > rep.cfg.max_index:
        raise ValueError(f"count {count} exceeds max_index {rep.cfg.max_index}")
    p_mat = rep.item_matrix(W.P)
    rows = []
    residuals = []
    for n in range(1, count + 1):
        r_mat = _free_fill(n, rep.cfg.dim)  # built per row and dropped, so memory does not grow with count
        r_norm = op_norm(r_mat)
        gamma = 1.0 / (n * r_norm.value)  # as gamma_from_rep, keeping the solve's residual
        diff = op_norm((p_mat + gamma * r_mat) - p_mat)
        rows.append(ConvergenceRow(n, gamma, diff.value, diff.iterations))
        residuals += [res.residual for res in (r_norm, diff) if res.residual is not None]
    stats = {"norms": 2 * count, "sketched": len(residuals), "residual_max": max(residuals, default=0.0)}
    return ConvergenceReport(rep.cfg.dim, rows, stats)


@dataclass
class BoundaryReport:
    window: int
    dim: int
    words_checked: int
    vectors_checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {
            "check": "boundary-exactness",
            "L": self.window,
            "dim": self.dim,
            "words_checked": self.words_checked,
            "vectors_checked": self.vectors_checked,
            "result": "pass" if self.passed else "fail",
        }
        if self.failures:
            out["failures"] = self.failures[:10]
        return out


def boundary_exactness_check(window: int, cfg: RepConfig | None = None) -> BoundaryReport:
    """Shift words act with zero numerical error away from the truncation edge.

    Every bicyclic word with exponent sum <= window, applied to a basis
    vector e_i with window <= i < dim - window, must land exactly on the
    predicted basis vector.
    """
    rep = ShiftRepresentation(cfg)
    d = rep.cfg.dim
    if not 0 <= window < d // 2:
        raise ValueError(f"window {window} must satisfy 0 <= window < dim/2 = {d // 2}")
    failures: list = []
    words = W.bc_elements(window)
    vectors = np.arange(window, d - window)
    for bc in words:
        # all interior columns at once: a 1.0 on the target row, and no other nonzero
        cols = rep.item_matrix(bc)[:, window : d - window]
        exact = (cols[vectors - bc.b + bc.a, vectors - window] == 1.0) & (np.count_nonzero(cols, axis=0) == 1)
        failures += [{"word": W.render_word(W.BC, (bc,)), "vector": int(i)} for i in vectors[~exact]]
    return BoundaryReport(window, d, len(words), len(vectors), failures)
