"""Tests for the enumeration and search oracles."""

import functools
import math
import sys

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


def test_search_rows_skip_strata_short_of_sr():
    """Next to the single-point end, ntilde snaps down to 1 although one
    coordinate cannot carry S_r: no row is spent on that stratum.  For n = 2
    the manifold is the one point (x - y)^2 = S_1^2 - 4 (S_1^3 - S_3) / (3 S_1)."""
    n, r, s1, u = 2, 3, 10.0, 1.0 - 1e-9
    lo, hi = r * math.log(s1) - (r - 1) * math.log(n), r * math.log(s1)
    ps = PowerSumConstraints(n, r, s1, math.exp(lo + u * (hi - lo)))
    assert ps.ntilde_ceil == 1
    se = extrema_search(ps, restarts=16)
    assert se.failed == ()
    only = s1**2 - 4 * (s1**3 - ps.sr) / (3 * s1)
    assert se.min == pytest.approx(only, rel=1e-12)
    assert se.max == pytest.approx(only, rel=1e-12)


SEARCHES = {
    "power":(extrema_search, PowerSumConstraints(4, 3, 4.0, 16.0)),
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


@pytest.mark.parametrize("s", [1.0, 2.0, 1e3, 1e6])
def test_trace_norm_candidates_keep_both_constraints(s):
    # each candidate's small value is read off the product, so both
    # constraints hold to rounding however small p/s^n is; s(1 + alpha m)
    # misses log p by 8e-4 already at n = 3, s = 2, p = 1e-12
    log_tiny = math.log(sys.float_info.min)
    for n in range(2, 13):
        for p in (1e-300, 1e-100, 1e-12, 1e-3):
            if math.log(p) >= n * math.log(s):
                continue
            ext = extrema_trace_norm(TraceNormConstraints(n, s, p), restarts=1, max_iters=0)
            for cand in ext.candidates:
                j = cand.k if cand.x < cand.y else n - cand.k
                # the true small value, to rounding wherever it is this small:
                # no float holds it below the smallest normal
                if math.log(p) - (n - j) * math.log(n * s / (n - j)) < j * log_tiny:
                    continue
                xs = cand.as_tuple(n)
                assert math.fsum(xs) == pytest.approx(n * s, rel=1e-12), (n, p, cand)
                assert math.fsum(map(math.log, xs)) == pytest.approx(
                    math.log(p), abs=1e-12 * abs(math.log(p))
                ), (n, p, cand)


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


def _scale_power(mean, D, sr, r):
    live = np.ones_like(D, dtype=bool)
    phi = functools.partial(oracle._power, r=r)
    return oracle._scale_root(mean, D, live, sr, phi, sr ** (1.0 / r))


def _scale_exp(mean, D, target):
    live = np.ones_like(D, dtype=bool)
    return oracle._scale_root(mean, D, live, target, oracle._exp, math.log(target))


def _log_rows(seed, rows, n, tiny=None):
    """Rows u = log x about their means, where sum x = n at t near 1.

    x is random with sum n, its first entry near e^tiny when ``tiny`` is
    given, and the offsets from the mean are stretched by 0.8 to 1.25: as a
    descent step leaves a row of a search in log coordinates.
    """
    rng = np.random.default_rng(seed)
    X = rng.random((rows, n)) + 0.05
    U = np.log(X / X.sum(axis=1, keepdims=True) * n)
    if tiny is not None:
        U[:, 0] = tiny + rng.random(rows)
    mean = U.mean(axis=1, keepdims=True)
    return mean, (U - mean) * rng.uniform(0.8, 1.25, (rows, 1))


def test_scale_root_power_matches_mpmath():
    for n, r in ((3, 3), (5, 4), (7, 5)):
        mean, D, sr = _power_rows(n * r, 12, n, r)
        rows = np.maximum(_scale_power(mean, D, sr, r), 0.0)
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


def test_scale_root_exp_matches_mpmath():
    # with tiny = -690, one coordinate of each row sits near e^-690, far
    # below any fixed floor
    for n, tiny in ((2, None), (4, None), (7, None), (3, -690.0), (7, -690.0)):
        mean, D = _log_rows(n, 10, n, tiny)
        rows = _scale_exp(mean, D, float(n))
        assert np.isfinite(rows).all()
        logp = n * mean[:, 0]
        assert np.abs(rows.sum(axis=1) - logp).max() <= 1e-12 * np.abs(logp).max()
        resid = np.abs(np.exp(rows).sum(axis=1) - n)
        assert (resid <= oracle._PROJ_TOL * n).all()
        for row, m, d in zip(rows, mean[:, 0], D):
            ms, ds = mpmath.mpf(float(m)), [mpmath.mpf(float(v)) for v in d]

            def h(t, ms=ms, ds=ds):
                return mpmath.fsum(mpmath.exp(ms + t * v) for v in ds) - n

            t = _mp_bisect(h, 0.0, (math.log(n) - m) / max(d))
            exact = [float(ms + t * v) for v in ds]
            # each log to four ulp of 690: each coordinate, the tiny ones
            # too, to a relative 5e-13
            assert row == pytest.approx(exact, rel=0.0, abs=5e-13)
        if tiny is not None:
            assert rows[:, 0].max() < -650.0


def test_scale_root_power_root_at_a_clip_kink():
    # mean 1, D = (-2, 0, 2): t = 1/2 gives (0, 1, 2) and S3 = 9 exactly, with
    # the first coordinate reaching 0 at the root itself
    mean = np.ones((2, 1))
    D = np.array([[-2.0, 0.0, 2.0], [2.0, -2.0, 0.0]])
    rows = np.maximum(_scale_power(mean, D, 9.0, 3), 0.0)
    assert rows[0] == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)
    assert rows[1] == pytest.approx([2.0, 0.0, 1.0], abs=1e-12)
    assert np.abs((rows**3).sum(axis=1) - 9.0).max() <= oracle._PROJ_TOL * 9.0


def test_scale_root_uniform_rows_stay_at_the_mean():
    mean = np.full((2, 1), 2.0)
    D = np.zeros((2, 4))
    assert (_scale_power(mean, D, 4 * 2.0**3, 3) == 2.0).all()
    # already on target, and below it: neither can move
    assert (_scale_exp(mean, D, 4 * math.exp(2.0)) == 2.0).all()
    assert (_scale_exp(mean, D, 5 * math.exp(2.0)) == 2.0).all()


def test_scale_root_unsolvable_rows_are_nan():
    mean = np.array([[1.0], [1.2]])
    D = np.array([[-0.5, 0.0, 0.5], [-0.2, 0.0, 0.2]])
    # S3 below the all-equal value n*mean^3 >= 3, and sum exp below n*e^mean
    assert np.isnan(_scale_power(mean, D, 2.5, 3)).all()
    assert np.isnan(_scale_exp(mean, D, 8.0)).all()
    # a solvable row beside an unsolvable one (3 * 1.2^3 > 3.2) keeps its root
    mixed = _scale_power(mean, D, 3.2, 3)
    assert np.isnan(mixed[1]).all()
    assert (np.maximum(mixed[0], 0.0) ** 3).sum() == pytest.approx(3.2, rel=oracle._PROJ_TOL)
    # the same for exp: 3e <= 8.5 < 3e^1.2
    mixed = _scale_exp(mean, D, 8.5)
    assert np.isnan(mixed[1]).all()
    assert np.exp(mixed[0]).sum() == pytest.approx(8.5, rel=oracle._PROJ_TOL)


def test_scale_root_newton_passes_are_few(monkeypatch):
    passes = []
    real = oracle._scale_root

    def counting(mean, D, live, target, phi, top):
        calls = []

        def counted(v, d=None):
            calls.append(1)
            return phi(v, d)

        out = real(mean, D, live, target, counted, top)
        passes.append(len(calls) - 1)  # the first call only tests h(0) <= 0
        return out

    monkeypatch.setattr(oracle, "_scale_root", counting)
    # rows a descent step leaves near the manifold: the root is near t = 1
    for n, r in ((3, 3), (5, 4), (7, 5)):
        mean, D, _ = _power_rows(n + r, 8, n, r)
        lmean, LD = _log_rows(n + r, 8, n)
        for d, ld, t in zip(D, LD, np.linspace(0.9, 1.1, 8)):
            d, ld = d[None, :], ld[None, :]
            sr = float((np.maximum(1.0 + t * d, 0.0) ** r).sum())
            _scale_power(mean[:1], d, sr, r)
            _scale_exp(lmean[:1], ld, float(np.exp(lmean[0] + t * ld).sum()))
    # quadratic convergence: a 10 % error is below 1e-9 after three or four steps
    assert max(passes) <= 6 and sum(passes) / len(passes) <= 4.5
    # and over whole searches, random starts included
    passes.clear()
    extrema_search(PowerSumConstraints(5, 4, 4.0, 30.0), restarts=6, seed=3, max_iters=110)
    extrema_trace_norm(TraceNormConstraints(5, 1.5, 1.0), restarts=6, seed=3, max_iters=150)
    assert sum(passes) / len(passes) <= 3.0
    assert max(passes) < oracle._NEWTON_PASSES


def test_scale_root_double_root_stops_before_cap():
    # mean 2 on 2 of 4 coordinates: h(t) = (2 - 1.5t)^5 + (2 + 1.5t)^5 - target
    # has h'(0) = 0, and h(0) = 64e-13 > 0 by rounding of the target, so Newton
    # halves t toward the double root at 0, linearly, until a step clamps to 0
    target = 64.0 * (1.0 - 1e-13)
    phi = functools.partial(oracle._power, r=5)
    calls = []

    def counted(v, d=None):
        calls.append(1)
        return phi(v, d)

    row = oracle._scale_root(
        np.full((1, 1), 2.0),
        np.array([[-1.5, 1.5, 0.0, 0.0]]),
        np.array([[True, True, False, False]]),
        target,
        counted,
        target ** (1.0 / 5),
    )
    assert len(calls) < oracle._NEWTON_PASSES
    assert row.tolist() == [[2.0, 2.0, 0.0, 0.0]]


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize(
    "s, p",
    [pytest.param(2.0, p, id=f"{p}") for p in (1e-8, 1e-12, 1e-100, 1e-300)]
    + [
        pytest.param(s, p, id=f"{p}-s{s:g}")
        for s in (1.0, 1e3, 1e6)
        for p in (1e-12, 1e-100, 1e-250, 1e-300)
    ],
)
def test_trace_norm_search_tiny_product(n, s, p):
    # p far below s^n: the minimizer has one coordinate near
    # p / (ns / (n-1))^(n-1), which the search reaches in log coordinates,
    # also where that coordinate underflows x = exp(u) (s = 1e6, p = 1e-300)
    tn = TraceNormConstraints(n, s, p)
    ext = extrema_trace_norm(tn)
    bound = energy_min_trace_norm(tn).value
    assert ext.search_min >= bound - 1e-12 * (n * s) ** 2
    assert ext.search_min == pytest.approx(bound, rel=1e-9)
    assert ext.search_max >= ext.search_min
