"""Tests for the enumeration and search oracles."""

import math

import numpy as np
import pytest

from conftest import random_power_sum, random_trace_norm
from energybounds import (
    ConfigKind,
    PowerSumConstraints,
    TraceNormConstraints,
    energy,
    extrema_search,
    extrema_trace_norm,
    extrema_two_value,
    power_sum,
)


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
