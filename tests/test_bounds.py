"""Tests for the closed-form bound evaluators."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, strategies as st

from energybounds import (
    BoundReport,
    Branch,
    Formula,
    HypothesisViolationError,
    PotentialSpec,
    PowerSumConstraints,
    TraceNormConstraints,
    energy,
    energy_lower_from_disc,
    energy_max_power,
    energy_min_power,
    energy_min_trace_norm,
    hyperfactorial,
    potential_lower_from_disc,
    power_sum_upper,
    reverse_amgm,
    siegel_constants,
    uv_values,
)
from energybounds.bounds import log_hyperfactorial


# --- frozen witnesses -------------------------------------------------------


def test_energy_min_trace_norm_witness():
    # n=3, s=2, p=6: alpha solves (1+2a)(1-a)^2 = 3/4, minimum is 72 a^2
    report = energy_min_trace_norm(TraceNormConstraints(3, 2.0, 6.0))
    assert report.formula is Formula.PROP_ONE_MIN
    assert report.value == pytest.approx(5.096134491443073, rel=1e-12)
    assert report.alpha.alpha == pytest.approx(-0.266044443118978, rel=1e-12)
    assert report.alpha.branch is Branch.NEGATIVE
    # (1, 2, 3) satisfies these constraints, so it must sit above the bound
    assert report.value <= energy((1.0, 2.0, 3.0)) + 1e-12



def test_energy_min_trace_norm_tiny_product():
    # p/s^n so small that alpha rounds to its end -1/(n-1): the root is still
    # solved, in the log of the small value, to the residual target.  The
    # minimum tends to (ns)^2/(n-1) as p -> 0 and is within 1e-13 of it here.
    for n, p, limit in ((2, 1e-20, 16.0), (6, 1e-12, 28.8)):
        report = energy_min_trace_norm(TraceNormConstraints(n, 2.0, p))
        assert report.value == pytest.approx(limit, rel=1e-12)
        assert abs(report.alpha.residual) <= 1e-10 * p / 2.0**n
        assert not report.alpha.at_boundary

def test_energy_min_power_witness():
    # n=3, S1=3, S3=9: alpha solves t^3 + 3t^2 = 1 after expansion
    report = energy_min_power(PowerSumConstraints(3, 3, 3.0, 9.0))
    assert report.formula is Formula.THM_ONE_MIN
    assert report.value == pytest.approx(5.096134491443075, rel=1e-12)
    assert report.alpha.alpha == pytest.approx(0.5320888862379561, rel=1e-12)
    assert report.alpha.branch is Branch.POSITIVE


def test_min_bounds_share_cubic():
    # (n,s,p) = (3,2,6) and (n,r,S1,Sr) = (3,3,3,9) both collapse to
    # t^3 + 3t^2 = 1, so the two minima agree to rounding
    a = energy_min_trace_norm(TraceNormConstraints(3, 2.0, 6.0)).value
    b = energy_min_power(PowerSumConstraints(3, 3, 3.0, 9.0)).value
    assert a == pytest.approx(b, rel=1e-12)


def test_energy_max_power_witness():
    # n=3, S1=3, S3=9: ntilde = sqrt(3), one forced zero; max 6 at (1, 2, 0)
    report = energy_max_power(PowerSumConstraints(3, 3, 3.0, 9.0))
    assert report.formula is Formula.THM_ONE_MAX_E
    assert report.value == pytest.approx(6.0, abs=1e-9)
    assert report.diagnostics["ntilde_ceil"] == 2
    assert report.diagnostics["k_star"] == 1
    assert report.alpha.alpha == pytest.approx(-1.0 / 3.0, rel=1e-9)
    assert report.value >= energy((1.0, 2.0, 0.0)) - 1e-9


def test_energy_max_single_mass():
    # S_r = S_1^r forces a single point mass: E^max = (n-1) S_1^2, no alpha
    report = energy_max_power(PowerSumConstraints(3, 3, 2.0, 8.0))
    assert report.value == 8.0
    assert report.alpha is None
    assert report.diagnostics["ntilde_ceil"] == 1
    # the configuration is unique up to permutation, so the minimum agrees
    lo = energy_min_power(PowerSumConstraints(3, 3, 2.0, 8.0))
    assert lo.value == pytest.approx(8.0, rel=1e-12)


def test_bounds_vanish_when_all_equal():
    ps = PowerSumConstraints(4, 3, 8.0, 32.0)  # (2,2,2,2)
    assert ps.all_equal
    assert energy_min_power(ps).value == pytest.approx(0.0, abs=1e-12)
    assert energy_max_power(ps).value == pytest.approx(0.0, abs=1e-12)


def test_reverse_amgm_witness():
    report = reverse_amgm(3, 2.0, 6.0)
    assert report.formula is Formula.COR_ONE_REVERSE
    assert report.value == pytest.approx(1.4247297921108533, rel=1e-12)
    # actual ratio s^n/p for (1,2,3) is 8/6, below the bound
    assert report.value >= 8.0 / 6.0


def test_reverse_amgm_equality_at_zero_energy():
    assert reverse_amgm(5, 1.7, 0.0).value == 1.0


def test_power_sum_upper_witness():
    # (1,2,3): S1=6, E=6, and S3=36 is below the bound
    report = power_sum_upper(3, 3, 6.0, 6.0)
    assert report.formula is Formula.THM_ONE_CONVERSE
    assert report.value == pytest.approx(37.15470053837923, rel=1e-12)
    assert report.value >= 36.0


def test_power_sum_upper_order_one_is_trace():
    # r=1 collapses to S_1 itself, regardless of the energy supplied
    assert power_sum_upper(4, 1, 10.0, 3.0).value == pytest.approx(10.0, rel=1e-12)


def test_energy_lower_from_disc_witness():
    # (1,2,3): Delta=4, E=6; the bound 18 (4/108)^(1/3) = 6 is attained
    report = energy_lower_from_disc(3, 4, s1=6.0, s2=14.0)
    assert report.formula is Formula.THM_TWO_DISC
    assert report.value == pytest.approx(6.0, rel=1e-12)
    assert report.diagnostics["binom"] == 3
    assert report.diagnostics["hypothesis_holds"] is True


def test_energy_lower_hypothesis_flag():
    # S1^2 = n S2 is the all-equal boundary: the flag must go False
    report = energy_lower_from_disc(3, 4, s1=6.0, s2=12.0)
    assert report.diagnostics["hypothesis_holds"] is False
    # without the moments no flag is emitted at all
    assert "hypothesis_holds" not in energy_lower_from_disc(3, 4).diagnostics


def test_potential_lower_witness():
    # V(x) = (2/3) sum x_i^2 evaluates to 28/3 at (1,2,3) and attains the bound
    report = potential_lower_from_disc(PotentialSpec(2.0, 0.0, 0.0, 0.0), 3, 6.0, 4)
    assert report.formula is Formula.THM_ONE_SEVEN_POTENTIAL
    assert report.value == pytest.approx(28.0 / 3.0, rel=1e-12)
    assert report.diagnostics["disc_term"] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_potential_energy_coefficients_match_disc_bound():
    # (a, b) = (n^2, -n^2) turns the potential into the energy itself
    n, delta = 4, 7.5
    via_potential = potential_lower_from_disc(
        PotentialSpec(float(n * n), float(-n * n), 0.0, 0.0), n, 5.0, delta
    ).value
    via_energy = energy_lower_from_disc(n, delta).value
    assert via_potential == pytest.approx(via_energy, rel=1e-12)


def test_uv_values_witness():
    # n=3, k=1, r=3, ratio=9: ntilde = sqrt(3), only the positive branch lives
    uv = uv_values(3, 1, 3, 9.0)
    assert uv.U is None and uv.G is None
    assert uv.V == pytest.approx(0.5662371657158974, rel=1e-12)
    assert uv.F == pytest.approx((uv.V + 1.0) / 3.0, rel=1e-15)


def test_uv_values_both_branches():
    # n=6, r=3, ratio=13.5 puts ntilde at 4, so k=3 carries both branches
    uv = uv_values(6, 3, 3, 13.5)
    assert None not in uv
    assert uv.U >= uv.V  # |alpha_1| >= alpha_2 for k <= n/2
    assert uv.F == pytest.approx((uv.V + 1.0) / 6.0, rel=1e-15)
    assert uv.G == pytest.approx((uv.U + 1.0) / 6.0, rel=1e-15)


def test_siegel_constants():
    sc = siegel_constants()
    # theta* to 20 digits (mpmath.findroot at 60 digits); theta is its nearest double
    theta_star = 0.31448086940763459019
    assert abs(sc.theta - theta_star) <= math.ulp(theta_star)
    assert sc.lambda0 == pytest.approx(1.7336105169846476, rel=1e-12)
    assert sc.two_over_sqrt_e == 2.0 / math.sqrt(math.e)
    assert abs(sc.residual) <= 1e-12
    assert sc.lambda_www == 1.793145
    assert sc.two_over_sqrt_e < sc.lambda0 < sc.lambda_www
    # theta satisfies its defining equation and lambda0 follows from theta
    t = sc.theta
    lhs = (1.0 + t) * math.log1p(1.0 / t) + math.log(t) / (1.0 + t)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert sc.lambda0 == pytest.approx(math.e * (1.0 + 1.0 / t) ** (-t), rel=1e-15)


def test_log_hyperfactorial_matches_exact():
    for n in range(2, 25):
        assert log_hyperfactorial(n) == pytest.approx(
            math.log(hyperfactorial(n)), rel=1e-13
        )


# --- validation and error paths ---------------------------------------------


def test_reverse_amgm_cap():
    with pytest.raises(HypothesisViolationError) as exc:
        reverse_amgm(3, 2.0, 18.0)  # cap is (ns)^2/(n-1) = 18
    assert exc.value.condition == "E < (ns)^2/(n-1)"
    with pytest.raises(ValueError, match="nonnegative"):
        reverse_amgm(3, 2.0, -1.0)
    with pytest.raises(ValueError, match="positive"):
        reverse_amgm(3, -2.0, 1.0)


def test_power_sum_upper_rejects_out_of_range_energy():
    with pytest.raises(HypothesisViolationError) as exc:
        power_sum_upper(3, 3, 6.0, -0.5)
    assert exc.value.condition == "0 <= E <= (n-1) S1^2"
    with pytest.raises(HypothesisViolationError):
        power_sum_upper(3, 3, 6.0, 72.0 * 1.01)  # above (n-1) S1^2 = 72


def test_energy_lower_requires_positive_disc():
    with pytest.raises(HypothesisViolationError) as exc:
        energy_lower_from_disc(3, 0)
    assert exc.value.condition == "Delta > 0"
    with pytest.raises(HypothesisViolationError):
        potential_lower_from_disc(PotentialSpec(1.0, 0.0, 0.0, 0.0), 3, 6.0, 0)


def test_potential_spec_validation():
    with pytest.raises(ValueError, match="must be positive"):
        PotentialSpec(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="must be finite"):
        PotentialSpec(1.0, math.inf, 0.0, 0.0)


def test_log_hyperfactorial_domain():
    with pytest.raises(ValueError):
        log_hyperfactorial(1)
    with pytest.raises(ValueError):
        log_hyperfactorial(2.5)


def test_bound_report_rejects_bad_energy_values():
    with pytest.raises(ValueError, match="nonnegative"):
        BoundReport(-1.0, Formula.THM_ONE_MIN)
    with pytest.raises(ValueError, match="finite"):
        BoundReport(math.inf, Formula.COR_ONE_REVERSE)
    # non-energy formulas may go below zero (a potential with d < 0 does)
    BoundReport(-0.5, Formula.THM_ONE_SEVEN_POTENTIAL)


# --- properties ---------------------------------------------------------------


@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.1, max_value=50.0),
)
@example(50.0, 49.96875)
@example(42.0, 41.96875)
def test_two_point_minimum_is_exact(x, y):
    # n=2: the pair is determined by (s, p), so the bound is an identity.  The
    # bound only sees the rounded s and p, so the reference is the exact
    # 4(s^2 - p) for those; (x - y)^2 differs from it by the rounding of s, p.
    # Both examples have exactly representable s and p near the all-equal point.
    assume(abs(x - y) >= 0.01)
    s, p = (x + y) / 2.0, x * y
    report = energy_min_trace_norm(TraceNormConstraints(2, s, p))
    exact = float(4 * (Fraction(s) ** 2 - Fraction(p)))
    assert report.value == pytest.approx(exact, rel=1e-9)


def _mp_alpha(n, r, s1, sr, negative):
    """60-digit root of (1 + a(n-1))^r + (n-1)(1-a)^r = n^r S_r / S_1^r."""
    with mpmath.workdps(60):
        target = mpmath.mpf(n) ** r * mpmath.mpf(sr) / mpmath.mpf(s1) ** r
        zero, one = mpmath.mpf(0), mpmath.mpf(1)  # mpf ends keep the bisection at 60 digits
        lo, hi = (-one / (n - 1), zero) if negative else (zero, one)
        for _ in range(220):
            mid = (lo + hi) / 2
            above = (1 + mid * (n - 1)) ** r + (n - 1) * (1 - mid) ** r > target
            if above != negative:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def test_power_bounds_near_equal_are_exact():
    # n = 2, r = 3: S_1 and S_3 fix the pair, so both bounds are the energy
    # (4 S_3/S_1 - S_1^2)/3, here exact in Fractions of the float inputs
    rng = random.Random(2022)
    for _ in range(300):
        x = rng.uniform(0.1, 50.0)
        y = x + rng.uniform(0.01, 0.05)
        s1, s3 = x + y, x**3 + y**3
        ps = PowerSumConstraints(2, 3, s1, s3)
        exact = float((4 * Fraction(s3) / Fraction(s1) - Fraction(s1) ** 2) / 3)
        assert energy_min_power(ps).value == pytest.approx(exact, rel=1e-12, abs=0)
        assert energy_max_power(ps).value == pytest.approx(exact, rel=1e-12, abs=0)
    # larger n: S_r at log-position u between all-equal (0) and one point (1)
    for n in (3, 8, 64, 512):
        for r in (3, 4, 5):
            ends = (10 ** rng.uniform(-7, -4), 1 - 10 ** rng.uniform(-7, -4))
            for u in (*ends, rng.uniform(0.02, 0.98)):
                s1 = rng.uniform(0.5, 10.0)
                sr = math.exp(r * math.log(s1) - (1 - u) * (r - 1) * math.log(n))
                ps = PowerSumConstraints(n, r, s1, sr)
                a = _mp_alpha(n, r, s1, sr, False)
                emin = (n - 1) * s1**2 * a**2
                assert energy_min_power(ps).value == pytest.approx(float(emin), rel=1e-12, abs=0)
                nc = ps.ntilde_ceil
                if nc > 1:
                    a = _mp_alpha(nc, r, s1, sr, True)
                    emax = s1**2 / nc * (n * (nc - 1) * a**2 + (n - nc))
                    assert energy_max_power(ps).value == pytest.approx(float(emax), rel=1e-12, abs=0)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_sandwich_and_converse(n, r, u, s1):
    # sr sweeps the strict interior of the feasible band
    sr = math.exp(r * math.log(s1) - u * (r - 1) * math.log(n))
    ps = PowerSumConstraints(n, r, s1, sr)
    lo = energy_min_power(ps)
    hi = energy_max_power(ps)
    scale = s1 * s1
    assert -1e-12 * scale <= lo.value <= hi.value + 1e-9 * scale
    assert hi.value <= (n - 1) * scale * (1.0 + 1e-9)
    # feeding the minimal energy back into the converse recovers S_r
    back = power_sum_upper(n, r, s1, lo.value)
    assert back.value >= sr * (1.0 - 1e-9)
    assert back.value == pytest.approx(sr, rel=1e-6)


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_reverse_amgm_round_trip(n, u, s):
    # at the minimal energy the reverse AM-GM saturates: bound equals s^n / p
    cap = n * math.log(s)
    p = math.exp(cap - u * min(4.0, abs(cap) + 2.0))
    e0 = energy_min_trace_norm(TraceNormConstraints(n, s, p)).value
    bound = reverse_amgm(n, s, e0).value
    assert bound >= 1.0
    assert bound == pytest.approx(s**n / p, rel=1e-7)


@given(
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_u_decreases_and_v_increases_in_k(n, r, u):
    ntilde_target = 1.0 + u * (n - 1.0)
    assume(abs(ntilde_target - round(ntilde_target)) > 1e-3)
    ratio = n**r / ntilde_target ** (r - 1)
    values = [uv_values(n, k, r, ratio) for k in range(1, n)]
    for prev, cur in zip(values, values[1:]):
        if prev.U is not None and cur.U is not None:
            assert cur.U <= prev.U + 1e-12
        if prev.V is not None and cur.V is not None:
            assert cur.V >= prev.V - 1e-12


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.1, max_value=2.9),
)
def test_f_decreases_in_n(k, r, t):
    # fixed k and fixed S_r / S_1^r: F = (V+1)/n shrinks as n grows
    ntilde_target = k + t
    assume(abs(ntilde_target - round(ntilde_target)) > 1e-3)
    q = ntilde_target ** (1.0 - r)
    start = max(k + 1, math.ceil(ntilde_target))
    values = [uv_values(n, k, r, n**r * q).F for n in range(start, start + 6)]
    assert all(v is not None for v in values)
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-12


@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_g_decreases_down_the_diagonal(n, r, u):
    # fixed S_r / S_1^r: G(k, n) >= G(k+1, n+1)
    ntilde_target = 1.0 + u * (n - 1.0)
    assume(abs(ntilde_target - round(ntilde_target)) > 1e-3)
    q = ntilde_target ** (1.0 - r)
    k_low = max(1, math.floor(n - ntilde_target) + 1)
    for k in range(k_low, n - 1):
        g_here = uv_values(n, k, r, n**r * q).G
        g_next = uv_values(n + 1, k + 1, r, (n + 1) ** r * q).G
        assert g_here is not None and g_next is not None
        assert g_here >= g_next - 1e-12
