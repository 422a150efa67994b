"""Energy identity, power sums, feasibility, and the hyperfactorial."""

import math

import pytest
from hypothesis import given, strategies as st

from energybounds import (
    Configuration,
    FeasibilityError,
    PowerSumConstraints,
    TraceNormConstraints,
    a_factor_log,
    energy,
    energy_report,
    hyperfactorial,
    ntilde,
    power_sum,
    power_sums_from_coeffs,
)
from energybounds.core import _exact_ratio_gap

finite_entries = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=12,
)


def test_energy_of_witness_tuples():
    assert energy((1.0, 2.0, 3.0)) == pytest.approx(6.0, abs=1e-12)
    assert energy((1.0, 2.0, 0.0)) == pytest.approx(6.0, abs=1e-12)
    assert energy((5.0, 5.0, 5.0)) == 0.0
    assert energy((0.0, 1.0)) == 1.0


@given(finite_entries)
def test_energy_matches_pairwise_sum(xs):
    direct = sum(
        (xs[i] - xs[j]) ** 2 for i in range(len(xs)) for j in range(i + 1, len(xs))
    )
    scale = max(1.0, max(xs) ** 2)
    assert energy(xs) == pytest.approx(direct, rel=1e-9, abs=1e-9 * scale)


@given(finite_entries)
def test_energy_identity_n_s2_minus_s1_squared(xs):
    n = len(xs)
    rep = energy_report(xs)
    scale = max(1.0, rep.s1**2)
    assert rep.energy == pytest.approx(n * rep.s2 - rep.s1**2, rel=1e-9, abs=1e-9 * scale)


def test_configuration_rejects_bad_entries():
    with pytest.raises(ValueError):
        Configuration((1.0,))
    with pytest.raises(ValueError):
        Configuration((1.0, -2.0))
    with pytest.raises(ValueError):
        Configuration((1.0, math.inf))


def test_power_sum_orders():
    assert power_sum((1.0, 2.0, 3.0), 1) == 6.0
    assert power_sum((1.0, 2.0, 3.0), 2) == 14.0
    assert power_sum((1.0, 2.0, 3.0), 3) == 36.0
    with pytest.raises(ValueError):
        power_sum((1.0, 2.0), 0)


def test_power_sums_from_coeffs_newton():
    # x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    assert power_sums_from_coeffs((1, -6, 11, -6), 4) == [6, 14, 36, 98]
    # beyond the degree the recurrence keeps going exactly
    assert power_sums_from_coeffs((1, -3, 1), 6) == [3, 7, 18, 47, 123, 322]
    with pytest.raises(ValueError):
        power_sums_from_coeffs((2, -6, 11, -6), 2)


def test_hyperfactorial_small_values():
    assert hyperfactorial(1) == 1
    assert hyperfactorial(2) == 4
    assert hyperfactorial(3) == 108
    assert hyperfactorial(4) == 27648
    assert hyperfactorial(5) == 27648 * 5**5


def test_a_factor_log_small_values():
    # A(n) = (2n)^binom(n,2) / Y(n): A(2) = 4/4 = 1, A(3) = 216/108 = 2
    assert a_factor_log(2) == pytest.approx(0.0, abs=1e-12)
    assert a_factor_log(3) == pytest.approx(math.log(2.0), abs=1e-12)
    for n in range(2, 40):
        c = math.comb(n, 2)
        exact = c * math.log(2 * n) - math.log(hyperfactorial(n))
        assert a_factor_log(n) == pytest.approx(exact, rel=1e-12, abs=1e-9)


def test_ntilde_two_value_exactness():
    # (2, 1, 0): S1 = 3, S3 = 9, ntilde solves t^2 = 27/9 = 3
    nt = ntilde(3, 3, 3.0, 9.0)
    assert nt.ntilde == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert nt.ntilde_ceil == 2
    assert nt.k_star == 1
    # all-equal data snaps to the integer n
    nt = ntilde(4, 3, 4.0, 4.0)
    assert nt.ntilde == 4.0
    assert nt.k_star == 0


def test_ntilde_infeasible_raises():
    with pytest.raises(FeasibilityError) as err:
        ntilde(3, 3, 3.0, 28.0)  # Sr > S1^r
    assert err.value.condition == "Sr <= S1^r"
    with pytest.raises(FeasibilityError) as err:
        ntilde(3, 3, 30.0, 9.0)  # S1^r > n^(r-1) Sr
    assert err.value.condition == "S1^r <= n^(r-1) Sr"


def test_power_sum_constraints_reject_r_equal_two():
    with pytest.raises(ValueError):
        PowerSumConstraints(n=3, r=2, s1=3.0, sr=5.0)


def test_power_sum_constraints_ratio():
    # the gap m^r S_r / S_1^r - m is formed exactly from the float inputs
    ps = PowerSumConstraints(n=3, r=3, s1=3.0, sr=9.0)
    assert _exact_ratio_gap(3, 3, 3.0, 9.0) == 6.0
    assert _exact_ratio_gap(2, 3, 3.0, 9.0) == 2.0 / 3.0
    assert _exact_ratio_gap(3, 3, 3.0, 3.0) == 0.0
    assert not ps.all_equal
    assert PowerSumConstraints(n=3, r=3, s1=3.0, sr=3.0).all_equal


def test_trace_norm_constraints_feasibility():
    tn = TraceNormConstraints(n=3, s=2.0, p=6.0)
    assert tn.log_target == pytest.approx(math.log(6.0 / 8.0), rel=1e-12)
    assert not tn.all_equal
    assert TraceNormConstraints(n=3, s=2.0, p=8.0).all_equal
    with pytest.raises(FeasibilityError) as err:
        TraceNormConstraints(n=3, s=2.0, p=9.0)
    assert err.value.condition == "p <= s^n"


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_ntilde_stays_in_range(n, r, s1, u):
    # Sr interpolated log-uniformly across the feasible interval
    lo = r * math.log(s1) - (r - 1) * math.log(n)
    hi = r * math.log(s1)
    sr = math.exp(lo + u * (hi - lo))
    nt = ntilde(n, r, s1, sr)
    assert 1.0 <= nt.ntilde <= n
    assert nt.ntilde_ceil == max(1, min(n, math.ceil(nt.ntilde - 1e-9)))
    assert nt.k_star == n - nt.ntilde_ceil
