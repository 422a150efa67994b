"""Tests for the enumeration and search oracles."""

import math

import mpmath
import numpy as np
import pytest

from conftest import random_power_sum, random_trace_norm
from energybounds import (
    ConfigKind,
    PowerSumConstraints,
    TraceNormConstraints,
    energy,
    energy_min_trace_norm,
    extrema_search,
    extrema_trace_norm,
    extrema_two_value,
    power_sum,
)
from energybounds import oracle


def test_two_value_witness():
    # n=3, S1=3, S3=9: minimum ~5.0961 interior, maximum 6 at (1, 2, 0)
    ext = extrema_two_value(PowerSumConstraints(3, 3, 3.0, 9.0))
    assert ext.min == pytest.approx(5.096134491443075, rel=1e-9)
    assert ext.max == pytest.approx(6.0, rel=1e-9)
    kinds = {c.kind for c in ext.candidates}
    assert kinds == {ConfigKind.INTERIOR, ConfigKind.BOUNDARY}
    tops = [c for c in ext.candidates if c.E == pytest.approx(6.0, rel=1e-9)]
    assert tops and all(c.zeros == 1 for c in tops)
    assert sorted(tops[0].as_tuple(3)) == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)


def test_two_value_unique_pair():
    # n=2, S1=3, S3=9 pins the multiset {1, 2}: both extremes collapse to 1
    ext = extrema_two_value(PowerSumConstraints(2, 3, 3.0, 9.0))
    assert ext.min == pytest.approx(1.0, rel=1e-9)
    assert ext.max == pytest.approx(1.0, rel=1e-9)
    assert sorted(ext.candidates[0].as_tuple(2)) == pytest.approx([1.0, 2.0], rel=1e-9)


def test_two_value_all_equal():
    ext = extrema_two_value(PowerSumConstraints(4, 3, 8.0, 32.0))  # (2,2,2,2)
    assert ext.min == 0.0
    assert ext.max == 0.0
    (only,) = ext.candidates
    assert only.as_tuple(4) == pytest.approx([2.0, 2.0, 2.0, 2.0])


def test_two_value_candidates_live_on_manifold():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        r = int(rng.integers(3, 6))
        ps = random_power_sum(rng, n, r)
        ext = extrema_two_value(ps)
        assert ext.candidates
        for cand in ext.candidates:
            xs = cand.as_tuple(n)
            assert len(xs) == n
            assert min(xs) >= 0.0
            assert sum(xs) == pytest.approx(ps.s1, rel=1e-8)
            assert power_sum(xs, r) == pytest.approx(ps.sr, rel=1e-8)
            # the lifted closed-form energy matches direct evaluation
            assert cand.E == pytest.approx(energy(xs), rel=1e-8, abs=1e-12)


def test_search_brackets_two_value():
    rng = np.random.default_rng(11)
    for _ in range(4):
        n = int(rng.integers(3, 6))
        ps = random_power_sum(rng, n, 3)
        tv = extrema_two_value(ps)
        se = extrema_search(ps, restarts=6, seed=3, max_iters=150)
        scale = ps.s1**2
        # the search cannot beat the true extremes, and gets close to them
        assert se.min >= tv.min - 1e-9 * scale
        assert se.max <= tv.max + 1e-9 * scale
        assert se.min <= tv.min + 1e-4 * scale
        assert se.max >= tv.max - 1e-4 * scale


SEARCHES = {
    "power": (extrema_search, PowerSumConstraints(4, 3, 4.0, 16.0)),
    "trace_norm": (extrema_trace_norm, TraceNormConstraints(4, 1.5, 3.0)),
}


@pytest.mark.parametrize("family", SEARCHES)
def test_search_is_deterministic(family):
    search, constraints = SEARCHES[family]
    a = search(constraints, restarts=5, seed=42, max_iters=120)
    b = search(constraints, restarts=5, seed=42, max_iters=120)
    assert a == b


def test_search_rejects_bad_restarts():
    for search, constraints in SEARCHES.values():
        for kwargs, match in (
            ({"restarts": 0}, "restarts"),
            ({"restarts": -2}, "restarts"),
            ({"max_iters": -1}, "max_iters"),
        ):
            with pytest.raises(ValueError, match=match):
                search(constraints, **kwargs)


def test_trace_norm_witness():
    # n=3, s=2, p=6: min matches the closed-form bound, max from k=1 positive
    ext = extrema_trace_norm(TraceNormConstraints(3, 2.0, 6.0), restarts=8, seed=0)
    assert ext.min == pytest.approx(5.096134491443073, rel=1e-9)
    assert ext.max == pytest.approx(7.668396859688313, rel=1e-9)
    assert ext.search_min == pytest.approx(ext.min, abs=1e-5 * 36.0)
    assert len(ext.candidates) == 4  # k in {1, 2}, two branches each
    for cand in ext.candidates:
        xs = cand.as_tuple(3)
        assert cand.zeros == 0 and cand.kind is ConfigKind.INTERIOR
        assert sum(xs) == pytest.approx(6.0, rel=1e-9)
        assert math.prod(xs) == pytest.approx(6.0, rel=1e-8)
        assert cand.E == pytest.approx(energy(xs), rel=1e-8, abs=1e-12)


def test_trace_norm_all_equal():
    ext = extrema_trace_norm(TraceNormConstraints(3, 2.0, 8.0), restarts=4, seed=0)
    assert ext.min == 0.0
    assert ext.max <= 1e-9


def test_trace_norm_random_manifold():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        tn = random_trace_norm(rng, n)
        ext = extrema_trace_norm(tn, restarts=4, seed=9, max_iters=150)
        scale = (n * tn.s) ** 2
        assert 0.0 <= ext.min <= ext.max
        # search extremes are corroborated by (never beyond) the enumeration
        assert ext.search_min >= ext.min - 1e-9 * scale
        assert ext.search_max <= ext.max + 1e-9 * scale


# --- the rescale roots of the projector --------------------------------------------


def _mp_bisect(f, lo, hi):
    """The sign change of f in [lo, hi], to 40 digits (f(lo) and f(hi) differ in sign)."""
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        flo = f(lo)
        for _ in range(140):
            mid = (lo + hi) / 2
            if (f(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _power_rows(seed, rows, n, r):
    """Rows about the mean s1/n = 1, and an sr every row can reach by rescaling."""
    rng = np.random.default_rng(seed)
    X = rng.random((rows, n)) + 0.05
    X = X / X.sum(axis=1, keepdims=True) * n
    mean = np.ones((rows, 1))
    sr = float(n + 0.3 * (n**r - n))  # 30 % of the way from all-equal (n) to one point (n^r)
    return mean, X - mean, sr


def test_scale_root_power_matches_mpmath():
    for n, r in ((3, 3), (5, 4), (7, 5)):
        mean, D, sr = _power_rows(n * r, 12, n, r)
        free = np.ones_like(D, dtype=bool)
        rows = oracle._scale_root_power(mean, D, free, sr, r)
        assert np.isfinite(rows).all()
        resid = np.abs((rows**r).sum(axis=1) - sr)
        assert (resid <= oracle._PROJ_TOL * sr).all()
        for row, d in zip(rows, D):
            ds = [mpmath.mpf(float(v)) for v in d]

            def h(t, ds=ds):
                return mpmath.fsum(max(1 + t * v, 0) ** r for v in ds) - sr

            t = _mp_bisect(h, 0.0, 1e3)
            exact = [float(max(1 + t * v, 0)) for v in ds]
            assert row == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_scale_root_power_root_at_a_clip_kink():
    # mean 1, D = (-2, 0, 2): t = 1/2 gives (0, 1, 2) and S3 = 9 exactly, with
    # the first coordinate reaching 0 at the root itself
    mean = np.ones((2, 1))
    D = np.array([[-2.0, 0.0, 2.0], [2.0, -2.0, 0.0]])
    rows = oracle._scale_root_power(mean, D, np.ones_like(D, dtype=bool), 9.0, 3)
    assert rows[0] == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)
    assert rows[1] == pytest.approx([2.0, 0.0, 1.0], abs=1e-12)
    assert (rows >= 0.0).all()
    assert np.abs((rows**3).sum(axis=1) - 9.0).max() <= oracle._PROJ_TOL * 9.0


def test_scale_root_prod_matches_mpmath():
    rng = np.random.default_rng(5)
    for n, logp in ((2, math.log(0.5)), (4, -3.0), (7, -30.0)):
        X = rng.random((10, n)) + 0.05
        X = X / X.sum(axis=1, keepdims=True) * n
        mean = np.ones((10, 1))
        D = X - mean
        live = np.ones_like(D, dtype=bool)
        rows = oracle._scale_root_prod(mean, D, live, logp, 1e-13)
        assert np.isfinite(rows).all() and (rows > 0.0).all()
        resid = np.abs(np.log(rows).sum(axis=1) - logp)
        assert (resid <= oracle._PROJ_TOL * max(1.0, abs(logp))).all()
        for row, d in zip(rows, D):
            ds = [mpmath.mpf(float(v)) for v in d]

            def h(t, ds=ds):
                return mpmath.fsum(mpmath.log(1 + t * v) for v in ds) - logp

            tcap = 1 / -min(ds)
            t = _mp_bisect(h, 0.0, tcap * (1 - mpmath.mpf(10) ** -35))
            exact = [float(1 + t * v) for v in ds]
            # every coordinate to a relative 1e-12, the smallest too
            assert row == pytest.approx(exact, rel=1e-12)


def test_scale_root_uniform_rows_stay_at_the_mean():
    mean = np.full((2, 1), 2.0)
    D = np.zeros((2, 4))
    free = np.ones_like(D, dtype=bool)
    power = oracle._scale_root_power(mean, D, free, 4 * 2.0**3, 3)
    prod = oracle._scale_root_prod(mean, D, free, 4 * math.log(2.0), 1e-13)
    assert (power == 2.0).all()
    assert (prod == 2.0).all()


def test_scale_root_unsolvable_rows_are_nan():
    mean = np.array([[1.0], [1.2]])
    D = np.array([[-0.5, 0.0, 0.5], [-0.2, 0.0, 0.2]])
    free = np.ones_like(D, dtype=bool)
    # S3 below the all-equal value n*mean^3 >= 3, and a product above mean^n >= 1
    assert np.isnan(oracle._scale_root_power(mean, D, free, 2.5, 3)).all()
    assert np.isnan(oracle._scale_root_prod(mean, D, free, 1.0, 1e-13)).all()
    # a solvable row beside an unsolvable one (3 * 1.2^3 > 3.2) keeps its root
    mixed = oracle._scale_root_power(mean, D, free, 3.2, 3)
    assert np.isnan(mixed[1]).all()
    assert (mixed[0] ** 3).sum() == pytest.approx(3.2, rel=oracle._PROJ_TOL)


def test_scale_root_newton_passes_are_few(monkeypatch):
    passes = []
    real = oracle._newton

    def counting(rows_at, terms, *args):
        calls = []

        def counted(*xs):
            calls.append(1)
            return terms(*xs)

        out = real(rows_at, counted, *args)
        passes.append(len(calls))
        return out

    monkeypatch.setattr(oracle, "_newton", counting)
    # rows a descent step leaves near the manifold: the root is near t = 1
    for n, r in ((3, 3), (5, 4), (7, 5)):
        mean, D, _ = _power_rows(n + r, 8, n, r)
        free = np.ones((1, n), dtype=bool)
        for d, t in zip(D, np.linspace(0.9, 1.1, 8)):
            d = d[None, :]
            sr = float((np.maximum(1.0 + t * d, 0.0) ** r).sum())
            oracle._scale_root_power(mean[:1], d, free, sr, r)
            logp = float(np.log(1.0 + t * d).sum())
            oracle._scale_root_prod(mean[:1], d, free, logp, 1e-13)
    # quadratic convergence: a 10 % error is below 1e-9 after three or four steps
    assert max(passes) <= 6 and sum(passes) / len(passes) <= 4.5
    # and over whole searches, random starts included
    passes.clear()
    extrema_search(PowerSumConstraints(5, 4, 4.0, 30.0), restarts=6, seed=3, max_iters=110)
    extrema_trace_norm(TraceNormConstraints(5, 1.5, 1.0), restarts=6, seed=3, max_iters=150)
    assert sum(passes) / len(passes) <= 3.0
    assert max(passes) < oracle._NEWTON_PASSES


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("p", [1e-8, 1e-12])
def test_trace_norm_search_tiny_product(n, p):
    # p far below s^n: the smallest coordinate of a search row is tiny, and
    # once made the whole search fail to project
    tn = TraceNormConstraints(n, 2.0, p)
    ext = extrema_trace_norm(tn)
    bound = energy_min_trace_norm(tn).value
    assert ext.search_min >= bound - 1e-12 * (n * 2.0) ** 2
    assert ext.search_max >= ext.search_min
