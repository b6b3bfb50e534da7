"""Truncated representation: structure, norms, convergence, boundary contract."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from pqt import words as W
from pqt.algebra import delta, unit
from pqt.errors import UniverseMismatch
from pqt.oper import (
    SKETCH_RANK,
    RepConfig,
    ShiftRepresentation,
    boundary_exactness_check,
    convergence_report,
    gamma_from_rep,
    op_norm,
)
from oracles import boundary_failures_by_column, op_norm_eigh, random_element

B = W.BCElement
T = W.t

CFG = RepConfig(dim=64, max_index=8)


@pytest.fixture(scope="module")
def rep():
    return ShiftRepresentation(CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        RepConfig(dim=4)
    with pytest.raises(ValueError):
        RepConfig(dim=64, max_index=0)


def test_shift_relations(rep):
    d = rep.dim
    S, Sd = rep.forward_shift, rep.backward_shift
    pq = Sd @ S  # p then q applied right-to-left: matrix of delta_p * delta_q
    defect = pq - np.eye(d)
    # rank-one boundary defect at the top corner only
    assert np.count_nonzero(defect) == 1
    assert defect[d - 1, d - 1] == -1.0
    qp = S @ Sd
    assert np.all(qp[:, 0] == 0.0)  # annihilates e_0: the intrinsic qp != e
    assert np.array_equal(rep.word_matrix(()), np.eye(d))


def test_infiniteness_gap_survives_truncation(rep):
    d = rep.dim
    pq_defect = rep.backward_shift @ rep.forward_shift - np.eye(d)
    qp_defect = rep.forward_shift @ rep.backward_shift - np.eye(d)
    assert np.linalg.matrix_rank(pq_defect) == 1
    assert op_norm(qp_defect).value >= 1.0 - 1e-9


def test_op_norm_pinned_values(rep):
    d = rep.dim
    qp_defect = rep.forward_shift @ rep.backward_shift - np.eye(d)
    known = [(rep.forward_shift, 1.0), (rep.backward_shift, 1.0), (3.0 * np.eye(d), 3.0), (qp_defect, 1.0)]
    for a, exact in known:
        res = op_norm(a)
        assert abs(res.value - exact) <= 1e-15 and res.iterations == 1
    assert op_norm(np.eye(d)).value == 1.0
    assert op_norm(np.zeros((d, d))).value == 0.0


def test_op_norm_matches_eigh_oracle(rep):
    rng = random.Random(403)
    for _ in range(200):
        a = rep.matrix(random_element(rng, W.BCS, max_len=3, max_index=3, max_exp=2))
        ref = op_norm_eigh(a)
        assert abs(op_norm(a).value - ref) <= 1e-12 * ref


def _sketch_families(rep, step):
    """t_n, t_n* and the convergence differences for every step-th n <= 64, and
    sums of up to four free words (all t_n share one 4-dimensional range)."""
    p_mat = rep.item_matrix(W.P)
    yield "t1 + ... + t6", sum(rep.free_matrix(n) for n in range(1, 7))
    for n in range(1, 65, step):
        t_n = rep.free_matrix(n)
        yield f"t{n}", t_n
        yield f"t{n}*", rep.free_matrix(n, True)
        yield f"a{n} - p", (p_mat + gamma_from_rep(n, rep) * t_n) - p_mat
    rng = random.Random(404)
    for _ in range(12):
        words = [tuple(T(rng.randint(1, 64), rng.random() < 0.5) for _ in range(rng.randint(1, 2))) for _ in range(4)]
        coeffs = [complex(rng.randint(-4, 4) or 1, rng.randint(-2, 2)) / rng.randint(1, 4) for _ in words]
        k = rng.randint(1, 4)
        yield str(words[:k]), sum(c * rep.word_matrix(w) for c, w in zip(coeffs[:k], words[:k]))


@pytest.mark.parametrize("dim,step", [(64, 1), (256, 1), (512, 7)])
def test_op_norm_sketch_path_is_certified_and_exact(dim, step):
    rep = ShiftRepresentation(RepConfig(dim=dim))
    for name, a in _sketch_families(rep, step):
        res = op_norm(a)
        assert res.residual is not None, name
        assert res.residual <= dim * np.finfo(float).eps * np.linalg.norm(a), name
        for ref in (op_norm_eigh(a), float(np.linalg.svd(a, compute_uv=False)[0])):
            assert abs(res.value - ref) <= 1e-13 * ref, name


def test_op_norm_fallback_path_is_the_svd(rep):
    d = rep.dim
    full = [
        np.eye(d) - rep.item_matrix(B(24, 24)),  # the projection onto e_0..e_23: rank 24 > SKETCH_RANK
        rep.backward_shift + rep.free_matrix(1),
        3.0 * np.eye(d),
        np.eye(d),
    ]
    assert np.linalg.matrix_rank(full[0]) == 24 > SKETCH_RANK
    for a in full:
        res = op_norm(a)
        assert res.residual is None and res.iterations == 1
        assert res.value == float(np.linalg.svd(a, compute_uv=False)[0])
    # below 2 * SKETCH_RANK rows only the SVD runs, whatever the rank
    small = ShiftRepresentation(RepConfig(dim=2 * SKETCH_RANK - 1))
    assert op_norm(small.free_matrix(1)).residual is None
    big = ShiftRepresentation(RepConfig(dim=2 * SKETCH_RANK))
    assert op_norm(big.free_matrix(1)).residual is not None


def test_op_norm_is_bitwise_deterministic():
    def bits(rep):
        mats = [
            rep.free_matrix(3),
            rep.free_matrix(5, True),
            rep.free_matrix(2) + 0.25 * rep.free_matrix(7, True),
            rep.backward_shift + rep.free_matrix(1),  # the SVD path
        ]
        out = []
        for a in mats:
            res = op_norm(a)
            out.append((res.value.hex(), None if res.residual is None else res.residual.hex()))
        return out

    first = bits(ShiftRepresentation(CFG))
    assert bits(ShiftRepresentation(CFG)) == first
    rep = ShiftRepresentation(CFG)
    assert bits(rep) == bits(rep) == first


def test_op_norm_rejects_non_matrices_and_non_finite_input():
    for a in (np.array([3.0, 4.0]), np.array(5.0), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            op_norm(a)
    a = ShiftRepresentation(CFG).free_matrix(1).copy()
    a[0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(a)


@pytest.mark.parametrize("dim", [64, 256])
def test_convergence_stats_recount(dim):
    cfg = RepConfig(dim=dim, max_index=12)
    report = convergence_report(12, cfg)
    rep = ShiftRepresentation(cfg)
    p_mat = rep.item_matrix(W.P)
    residuals = []
    for row in report.rows:
        t_n = rep.free_matrix(row.n)
        results = [op_norm(t_n), op_norm((p_mat + row.gamma * t_n) - p_mat)]
        assert row.gamma == 1.0 / (row.n * results[0].value) == gamma_from_rep(row.n, rep)
        assert row.norm_diff == results[1].value
        residuals += [res.residual for res in results if res.residual is not None]
    assert report.stats == {"norms": 24, "sketched": len(residuals), "residual_max": max(residuals, default=0.0)}
    assert report.stats["sketched"] == 24
    assert "stats" not in report.to_dict()


def test_convergence_report_memory_does_not_grow_with_count():
    # each row builds its t_n and drops it, so the peak is a few d x d matrices at any count
    tracemalloc.start()
    try:
        convergence_report(40, RepConfig(dim=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 128 * 128 * 16


def test_free_matrix_fill_is_deterministic():
    a = ShiftRepresentation(CFG)
    b = ShiftRepresentation(CFG)
    for n in (1, 3):
        assert np.array_equal(a.free_matrix(n), b.free_matrix(n))
    report_a = convergence_report(5, CFG)
    report_b = convergence_report(5, CFG)
    assert report_a.to_dict() == report_b.to_dict()


def test_free_matrix_star_is_adjoint(rep):
    assert np.array_equal(rep.free_matrix(2, True), rep.free_matrix(2).conj().T)
    with pytest.raises(ValueError):
        rep.free_matrix(CFG.max_index + 1)


def test_gamma_consistency(rep):
    for n in (1, 2, 5):
        g = gamma_from_rep(n, rep)
        norm = op_norm(rep.free_matrix(n)).value
        assert isinstance(g, float) and abs(n * g * norm - 1.0) < 1e-9


def test_convergence_rows():
    report = convergence_report(8, CFG)
    assert report.dim == CFG.dim
    values = [row.norm_diff for row in report.rows]
    for row in report.rows:
        assert abs(row.n * row.norm_diff - 1.0) <= 1e-12
    assert all(values[i] > values[i + 1] - 1e-9 for i in range(len(values) - 1))
    payload = report.to_dict()
    assert set(payload["rows"][0]) == {"n", "gamma", "norm_an_minus_p", "iters"}


@pytest.mark.parametrize("dim", [8, 16])
def test_item_matrix_equals_shift_products(dim):
    # every q^a p^b with a, b <= dim, truncation edges included
    rep = ShiftRepresentation(RepConfig(dim=dim))
    for a in range(dim + 1):
        for b in range(dim + 1):
            out = np.eye(dim, dtype=complex)
            for _ in range(a):
                out = rep.forward_shift @ out
            for _ in range(b):
                out = out @ rep.backward_shift
            assert np.array_equal(rep.item_matrix(B(a, b)), out), (a, b)


def test_boundary_exactness(rep):
    report = boundary_exactness_check(4, CFG)
    assert report.passed
    assert report.words_checked == 15
    # pinned interior actions
    d = rep.dim
    S, Sd = rep.forward_shift, rep.backward_shift
    e = np.eye(d)
    assert np.array_equal((Sd @ S)[:, 5], e[:, 5])  # p q acts as identity at e_5
    assert np.array_equal((S @ Sd)[:, 3], e[:, 3])  # q p acts as identity off e_0
    p3 = np.linalg.matrix_power(Sd, 3)
    assert np.array_equal(p3[:, 5], e[:, 2])
    with pytest.raises(ValueError):
        boundary_exactness_check(40, CFG)


def test_boundary_exactness_reports_each_inexact_column(monkeypatch):
    # q p p gets a wrong target at e_9 and an extra nonzero at e_5; q q a wrong target at e_3
    item_matrix = ShiftRepresentation.item_matrix

    def tampered(self, item):
        out = item_matrix(self, item)
        if item == B(1, 2):
            out = out.copy()
            out[9 - 2 + 1, 9] = 0.5
            out[0, 5] = 1e-300
        elif item == B(2, 0):
            out = out.copy()
            out[3 + 2, 3] = -1.0
        return out

    monkeypatch.setattr(ShiftRepresentation, "item_matrix", tampered)
    cfg = RepConfig(dim=16, max_index=2)
    report = boundary_exactness_check(3, cfg)
    assert report.failures == boundary_failures_by_column(ShiftRepresentation(cfg), 3)
    assert report.failures == [{"word": "q p p", "vector": 5}, {"word": "q p p", "vector": 9}, {"word": "q q", "vector": 3}]
    assert all(type(f["vector"]) is int for f in report.failures)
    assert json.loads(json.dumps(report.to_dict()))["failures"] == report.failures
    assert not report.passed and (report.words_checked, report.vectors_checked) == (10, 10)


def test_adjoint_consistency_on_random_elements(rep):
    rng = random.Random(401)
    for _ in range(100):
        x = random_element(rng, W.BCS, max_len=3, max_index=3, max_exp=2)
        lhs = rep.matrix(x.star())
        rhs = rep.matrix(x).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiplicativity_without_seam_cancellation(rep):
    # no p...q contact at the seam: matrix products agree to rounding
    rng = random.Random(402)
    checked = 0
    while checked < 60:
        u = tuple(T(rng.randint(1, 3), rng.random() < 0.5) for _ in range(rng.randint(0, 2)))
        v = tuple(T(rng.randint(1, 3), rng.random() < 0.5) for _ in range(rng.randint(0, 2)))
        if rng.random() < 0.5:
            u = u + (B(rng.randint(0, 2), 0),) if rng.random() < 0.5 else u
            v = (B(rng.randint(0, 2), 0),) + v if rng.random() < 0.5 else v
        u, v = W.normalize_items(u), W.normalize_items(v)
        lhs = rep.word_matrix(W.pw_mul(u, v))
        rhs = rep.word_matrix(u) @ rep.word_matrix(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        checked += 1


def test_multiplicativity_for_interior_bicyclic_words(rep):
    # cancelling seams are still exact on basis vectors that never reach the edge
    d = rep.dim
    for (a, b), (c, dd) in [((0, 1), (1, 0)), ((1, 2), (2, 1)), ((0, 3), (3, 2))]:
        u, v = (B(a, b),), (B(c, dd),)
        lhs = rep.word_matrix(W.pw_mul(u, v))
        rhs = rep.word_matrix(u) @ rep.word_matrix(v)
        for i in range(8, d - 8):
            assert np.array_equal(lhs[:, i], rhs[:, i])


def test_seam_cancellation_defect_is_top_corner_mass(rep):
    # u = p, v = q t1: the merged word is t1, but the truncated product
    # differs by the t1 mass at the top basis vector, about 1/sqrt(d)
    d = rep.dim
    u, v = (W.P,), (W.Q, T(1))
    merged = rep.word_matrix(W.pw_mul(u, v))
    product = rep.word_matrix(u) @ rep.word_matrix(v)
    gap = np.abs(merged - product)
    assert gap.max() > 1e-6  # genuinely not exact
    assert gap.max() <= 2.0 / math.sqrt(d)  # but only truncation-sized


def test_word_matrix_equals_identity_started_product(rep):
    # starting from the first item instead of the identity changes no bit
    rng = random.Random(403)
    words = W.enumerate_words(3, 2, W.BCS)
    for n in range(4):
        group = [w for w in words if len(w) == n]
        for w in rng.sample(group, min(25, len(group))):
            expected = np.eye(rep.dim, dtype=complex)
            for item in w:
                expected = expected @ rep.item_matrix(item)
            assert np.array_equal(rep.word_matrix(w), expected), W.render_word(W.BCS, w)


def test_cached_free_matrices_are_read_only(rep):
    for n in (1, 2):
        with pytest.raises(ValueError):
            rep.free_matrix(n)[0, 0] = 0
        with pytest.raises(ValueError):
            rep.word_matrix((T(n),))[0, 0] = 0


def test_element_matrix_application(rep):
    el = delta(W.BCS, (W.P,)) + delta(W.BCS, (T(1),)).scale(2)
    mat = rep.matrix(el)
    assert np.array_equal(mat, rep.backward_shift + 2.0 * rep.free_matrix(1))
    assert np.array_equal(rep.matrix(unit(W.BCS)), np.eye(rep.dim))
    with pytest.raises(UniverseMismatch):
        rep.matrix(unit(W.F2))
