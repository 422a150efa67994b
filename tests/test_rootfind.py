"""Solvers for the two transcendental critical-point equations."""

import math

import pytest
from hypothesis import given, strategies as st

from energybounds import (
    Branch,
    BranchMissingError,
    FeasibilityError,
    branch_exists,
    solve_powersum_alpha,
    solve_trace_norm_alpha,
)


def _tn_lhs(alpha, n, k):
    m = n / k - 1.0
    return (1.0 + alpha * m) ** k * (1.0 - alpha) ** (n - k)


def _ps_lhs(alpha, n, k, r):
    m = n / k - 1.0
    return k * (1.0 + alpha * m) ** r + (n - k) * (1.0 - alpha) ** r


def test_trace_norm_n2_closed_form():
    # (1 + a)(1 - a) = p/s^2  =>  a = -sqrt(1 - p/s^2)
    root = solve_trace_norm_alpha(2, 1, 1.5, 2.0, Branch.NEGATIVE)
    assert root.alpha == pytest.approx(-1.0 / 3.0, abs=1e-12)
    root = solve_trace_norm_alpha(2, 1, 1.5, 2.0, Branch.POSITIVE)
    assert root.alpha == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_trace_norm_witness_n3():
    # independent reference: bisect 2a^3 - 3a^2 + p/s^3... the (3, 2, 6) case
    root = solve_trace_norm_alpha(3, 1, 2.0, 6.0, Branch.NEGATIVE)
    assert root.alpha == pytest.approx(-0.266044443118978, abs=1e-12)
    assert _tn_lhs(root.alpha, 3, 1) == pytest.approx(6.0 / 8.0, abs=1e-10)
    # Newton stops once its step rounds to no move (it used to bisect on for
    # 11 more evaluations)
    assert root.iterations <= 22


@pytest.mark.parametrize("log_ratio", [-2e-9, -1e-6, -1e-3, -0.3, -5.0, -230.0])
def test_trace_norm_iterations_steady(log_ratio):
    # Newton from the outer estimate hi = min(L/j, -sqrt(2|L|/(nq))) crosses the
    # root once and then rises to it, so each solve takes a few steps at every
    # distance from the all-equal point
    for n in (2, 3, 7, 64, 512):
        s = 1.1
        p = math.exp(n * math.log(s) + log_ratio)
        for k in sorted({1, n // 2, n - 1}):
            for branch in Branch:
                root = solve_trace_norm_alpha(n, k, s, p, branch)
                assert root.iterations <= 6
                assert abs(root.residual) <= 1e-10 * p / s**n


@pytest.mark.parametrize(
    "n, k, branch, s, p, alpha",
    [
        # p = s^n (1 - g), g log-uniform in [1e-9, 0.3]; alpha to 20 digits from
        # mpmath.findroot at 60 digits, on the float p and s
        (2, 1, Branch.NEGATIVE, 0.37, 0.1368999300621496, -0.00071475041439451541795),
        (2, 1, Branch.POSITIVE, 1000.0, 995627.2852141599, 0.066126505924932473176),
        (3, 1, Branch.NEGATIVE, 1.0, 0.9999999989492772, -0.000018714608669748124344),
        (3, 2, Branch.NEGATIVE, 2.0, 7.932876435457374, -0.10772151540615623568),
        (5, 2, Branch.POSITIVE, 1000.0, 999425536491692.8, 0.012403622900603248904),
        (5, 3, Branch.POSITIVE, 2.0, 31.99997166731439, 0.0007288017270716352213),
        (8, 1, Branch.POSITIVE, 0.37, 0.0003507742254328792, 0.0070387253102893387421),
        (8, 6, Branch.POSITIVE, 2.0, 255.99806767391047, 0.0023780545622460791242),
        (16, 6, Branch.POSITIVE, 0.37, 1.2147805327690447e-07, 0.0343329877749968232),
        (16, 7, Branch.POSITIVE, 1000.0, 9.99996205199816e+47, 0.00060743905536434336605),
        (64, 52, Branch.POSITIVE, 0.37, 2.3169069116260657e-28, 0.00073964171418521208875),
        (64, 17, Branch.POSITIVE, 1000.0, 9.409200363408811e+191, 0.026629823481781449816),
        (128, 99, Branch.NEGATIVE, 0.37, 5.36769501202973e-56, -0.0020095681932052097573),
        (128, 67, Branch.NEGATIVE, 0.37, 4.590137170113074e-56, -0.051884183694676367891),
        (512, 118, Branch.NEGATIVE, 1.0, 0.9999877839351037, -0.00011953619206802851512),
        (512, 343, Branch.POSITIVE, 2.0, 1.3407061795993679e+154, 0.00066415656998234371204),
    ],
)
def test_trace_norm_near_equal_matches_mpmath(n, k, branch, s, p, alpha):
    # near the all-equal point t^2 is proportional to the gap, so F must not
    # cancel its linear parts in floats, or alpha loses up to five digits
    assert solve_trace_norm_alpha(n, k, s, p, branch).alpha == pytest.approx(alpha, rel=1e-14, abs=0)


@pytest.mark.parametrize("r", [3, 4, 5, 7])
def test_powersum_iterations_steady(r):
    # Newton from the tighter of sqrt(gap/c2) and the one-term bound takes a
    # few steps from the all-equal end to the single-point end
    for n in (2, 3, 5, 8, 64, 512):
        for u in (1e-6, 1e-3, 0.02, 0.25, 0.5, 0.75, 0.98, 1.0 - 1e-6):
            ratio = math.exp(math.log(n) + u * (r - 1) * math.log(n))
            for k in sorted({1, n // 2, n - 1}):
                exists = branch_exists(n, k, r, ratio)
                for branch, present in ((Branch.NEGATIVE, exists.negative),
                                        (Branch.POSITIVE, exists.positive)):
                    if not present:
                        continue
                    root = solve_powersum_alpha(n, k, r, n, ratio, branch)
                    assert root.iterations <= 8
                    assert abs(root.residual) <= 1e-10 * max(1.0, ratio)


def test_trace_norm_all_equal_limit():
    root = solve_trace_norm_alpha(4, 1, 2.0, 16.0, Branch.NEGATIVE)
    assert root.alpha == 0.0
    assert root.at_boundary


def test_trace_norm_infeasible():
    with pytest.raises(FeasibilityError):
        solve_trace_norm_alpha(3, 1, 2.0, 9.0, Branch.NEGATIVE)


def test_powersum_positive_witness():
    # ratio 9 at (n=3, k=1, r=3), passed as S1 = n and Sr = ratio as every
    # call here does: the root solves a^3 + 3a^2 = 1
    root = solve_powersum_alpha(3, 1, 3, 3, 9.0, Branch.POSITIVE)
    a = root.alpha
    assert a**3 + 3 * a**2 == pytest.approx(1.0, abs=1e-10)
    assert a == pytest.approx(0.53208888623795614, abs=1e-12)


def test_powersum_negative_witness():
    # two-point reduction of the same data: 2 + 6a^2 = 8/3 gives a = -1/3
    root = solve_powersum_alpha(2, 1, 3, 2, 8.0 / 3.0, Branch.NEGATIVE)
    assert root.alpha == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_powersum_degenerate_ratio_n():
    root = solve_powersum_alpha(3, 1, 3, 3, 3.0, Branch.POSITIVE)
    assert root.alpha == 0.0
    assert root.at_boundary


def test_powersum_missing_branch():
    # ratio 9, n=3: ntilde = sqrt(3), so k=1 has no negative root
    exists = branch_exists(3, 1, 3, 9.0)
    assert not exists.negative and exists.positive
    assert exists.ntilde == pytest.approx(math.sqrt(3.0), rel=1e-12)
    with pytest.raises(BranchMissingError) as err:
        solve_powersum_alpha(3, 1, 3, 3, 9.0, Branch.NEGATIVE)
    assert err.value.condition == "k > n - ntilde"
    # and k=2 the other way around
    assert branch_exists(3, 2, 3, 9.0).negative
    assert not branch_exists(3, 2, 3, 9.0).positive
    with pytest.raises(BranchMissingError):
        solve_powersum_alpha(3, 2, 3, 3, 9.0, Branch.POSITIVE)


def test_branch_exists_ratio_domain():
    with pytest.raises(FeasibilityError):
        branch_exists(3, 1, 3, 2.0)  # below n
    with pytest.raises(FeasibilityError):
        branch_exists(3, 1, 3, 28.0)  # above n^r


tn_cases = st.tuples(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.05, max_value=0.95),
)


@given(tn_cases, st.sampled_from([Branch.NEGATIVE, Branch.POSITIVE]))
def test_trace_norm_root_properties(case, branch):
    n, s, frac = case
    p = math.exp(n * math.log(s) * 1.0 - frac * 3.0)  # log p = n log s - 3*frac < n log s
    for k in range(1, n // 2 + 1):
        root = solve_trace_norm_alpha(n, k, s, p, branch)
        target = p / s**n
        assert abs(root.residual) <= 1e-10 * max(1.0, target)
        if branch is Branch.NEGATIVE:
            assert -k / (n - k) < root.alpha <= 0.0
        else:
            assert 0.0 <= root.alpha < 1.0
        assert _tn_lhs(root.alpha, n, k) == pytest.approx(target, abs=1e-9 * max(1.0, target))


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_powersum_root_properties(n, r, u):
    # ratio log-uniform in (n, n^r)
    ratio = math.exp(math.log(n) + u * (r - 1) * math.log(n))
    for k in range(1, n):
        exists = branch_exists(n, k, r, ratio)
        for branch, present in ((Branch.NEGATIVE, exists.negative),
                                (Branch.POSITIVE, exists.positive)):
            if not present:
                with pytest.raises(BranchMissingError):
                    solve_powersum_alpha(n, k, r, n, ratio, branch)
                continue
            root = solve_powersum_alpha(n, k, r, n, ratio, branch)
            if not root.at_boundary:
                assert abs(root.residual) <= 1e-10 * max(1.0, ratio)
            if branch is Branch.NEGATIVE:
                assert -k / (n - k) - 1e-12 <= root.alpha <= 0.0
            else:
                assert 0.0 <= root.alpha <= 1.0
            if not root.at_boundary:
                assert _ps_lhs(root.alpha, n, k, r) == pytest.approx(ratio, rel=1e-9)


@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_branch_negative_magnitude_dominates(n, r, u):
    # |alpha_1| >= alpha_2 when both branches exist and k <= n/2 (the
    # ordering can flip once the first block holds the majority of entries)
    ratio = math.exp(math.log(n) + u * (r - 1) * math.log(n))
    for k in range(1, n // 2 + 1):
        exists = branch_exists(n, k, r, ratio)
        if not (exists.negative and exists.positive):
            continue
        a1 = solve_powersum_alpha(n, k, r, n, ratio, Branch.NEGATIVE).alpha
        a2 = solve_powersum_alpha(n, k, r, n, ratio, Branch.POSITIVE).alpha
        assert abs(a1) >= a2 - 1e-12
