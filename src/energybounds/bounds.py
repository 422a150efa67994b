"""Closed-form bounds on the energy and its companions.

Each operation returns a :class:`BoundReport` tagged with the formula it
evaluates:

* ``PROP_ONE_MIN``     — minimal energy at fixed trace and product,
* ``COR_ONE_REVERSE``  — reverse AM-GM: upper bound on s^n/p from the energy,
* ``THM_ONE_MIN``      — minimal energy at fixed S_1 and S_r,
* ``THM_ONE_CONVERSE`` — upper bound on S_r from the energy,
* ``THM_ONE_MAX_E``    — maximal energy at fixed S_1 and S_r,
* ``THM_TWO_DISC``     — lower bound on the energy from the discriminant,
* ``THM_ONE_SEVEN_POTENTIAL`` — lower bound for quadratic potentials.

All binomial-power expressions are evaluated in log space with a single
final exponentiation, so they survive exponents of order n^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .core import (
    REL_TOL,
    PowerSumConstraints,
    TraceNormConstraints,
    _exact_ratio_gap,
    log_hyperfactorial,
)
from .rootfind import (
    AlphaRoot,
    Branch,
    branch_exists,
    solve_powersum_alpha,
    solve_trace_norm_alpha,
    _newton,
)

_ENERGY_FORMULAS = frozenset(
    {"PropOneMin", "ThmOneMin", "ThmOneMaxE", "ThmTwoDisc"}
)


class Formula(Enum):
    PROP_ONE_MIN = "PropOneMin"
    COR_ONE_REVERSE = "CorOneReverse"
    THM_ONE_MIN = "ThmOneMin"
    THM_ONE_CONVERSE = "ThmOneConverse"
    THM_ONE_MAX_E = "ThmOneMaxE"
    THM_TWO_DISC = "ThmTwoDisc"
    THM_ONE_SEVEN_POTENTIAL = "ThmOneSevenPotential"


class HypothesisViolationError(ValueError):
    """An input lies outside the hypothesis of the formula being evaluated."""

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)


@dataclass(frozen=True)
class BoundReport:
    value: float
    formula: Formula
    alpha: AlphaRoot | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite, got {self.value}")
        if self.formula.value in _ENERGY_FORMULAS and self.value < 0.0:
            raise ValueError(
                f"energy bound must be nonnegative, got {self.value}"
            )


@dataclass(frozen=True)
class PotentialSpec:
    """Quadratic potential (a/n)·sum x_i^2 + b·mean^2 + c·mean + d, a > 0.

    The quadruple (a, b, c, d) = (n^2, -n^2, 0, 0) makes the potential equal
    the energy itself.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("potential coefficient a must be positive")
        for name in ("b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"potential coefficient {name} must be finite")


@dataclass(frozen=True)
class SiegelConstants:
    theta: float
    lambda0: float
    two_over_sqrt_e: float
    residual: float
    lambda_www: float = 1.793145


class UVValues(NamedTuple):
    """Branch energies in scale-free form; absent when the branch is missing.

    U(k,n) = alpha1^2 (n/k - 1) from the negative root, V(k,n) likewise from
    the positive root; F = (V+1)/n and G = (U+1)/n.
    """

    U: float | None
    V: float | None
    F: float | None
    G: float | None


def energy_min_trace_norm(tn: TraceNormConstraints) -> BoundReport:
    """Sharp lower bound (n-1)(ns)^2 alpha^2 for E at fixed trace ns, product p.

    alpha is the negative root of (1 + alpha(n-1))(1 - alpha)^(n-1) = p/s^n;
    the bound is attained by the two-value configuration with one small entry.
    """
    root = solve_trace_norm_alpha(tn.n, 1, tn.s, tn.p, Branch.NEGATIVE)
    value = (tn.n - 1) * (tn.n * tn.s) ** 2 * root.alpha**2
    return BoundReport(value, Formula.PROP_ONE_MIN, alpha=root)


def reverse_amgm(n: int, s: float, energy: float) -> BoundReport:
    """Upper bound on s^n / p in terms of the energy (reverse AM-GM).

    With beta = -sqrt(E / ((n-1)(ns)^2)),

        s^n / p  <=  1 / ((1 + beta(n-1)) (1 - beta)^(n-1)),

    valid for E < (ns)^2/(n-1) (beyond that the parametrisation leaves its
    interval and no bound is claimed).  The bound is >= 1, with equality
    exactly at E = 0.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("mean s must be positive and finite")
    if not (energy >= 0.0 and math.isfinite(energy)):
        raise ValueError("energy must be nonnegative and finite")
    cap = (n * s) ** 2 / (n - 1)
    if energy >= cap:
        raise HypothesisViolationError(
            "E < (ns)^2/(n-1)",
            f"energy {energy} is at or above the cap {cap}; the reverse "
            "AM-GM bound does not apply",
        )
    beta = -math.sqrt(energy / ((n - 1) * (n * s) ** 2))
    root = AlphaRoot(beta, Branch.NEGATIVE, 1, 0.0, 0)
    value = 1.0 / ((1.0 + beta * (n - 1)) * (1.0 - beta) ** (n - 1))
    return BoundReport(value, Formula.COR_ONE_REVERSE, alpha=root)


def energy_min_power(ps: PowerSumConstraints) -> BoundReport:
    """Sharp lower bound (n-1) S_1^2 alpha^2 for E at fixed S_1 and S_r.

    alpha is the root in [0, 1] of
    (1 + alpha(n-1))^r + (n-1)(1 - alpha)^r = n^r S_r / S_1^r; it is 0 at
    the Hoelder-equality point (all entries equal) and 1 when S_r = S_1^r
    (single-point mass).
    """
    root = solve_powersum_alpha(ps.n, 1, ps.r, ps.s1, ps.sr, Branch.POSITIVE)
    value = (ps.n - 1) * ps.s1**2 * root.alpha**2
    return BoundReport(
        value,
        Formula.THM_ONE_MIN,
        alpha=root,
        diagnostics={"ntilde": ps.ntilde},
    )


def power_sum_upper(n: int, r: int, s1: float, energy: float) -> BoundReport:
    """Upper bound on S_r from the energy (converse form of the minimum).

    With beta = +sqrt(E / ((n-1) S_1^2)) in [0, 1],

        S_r <= ((1 + beta(n-1))^r + (n-1)(1 - beta)^r) * S_1^r / n^r.

    Requires 0 <= E <= (n-1) S_1^2, the full energy range at fixed S_1.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not isinstance(r, int) or r < 1:
        raise ValueError("power sum order must be a positive integer")
    if not (s1 > 0.0 and math.isfinite(s1)):
        raise ValueError("S1 must be positive and finite")
    cap = (n - 1) * s1**2
    if not (0.0 <= energy <= cap * (1.0 + REL_TOL)):
        raise HypothesisViolationError(
            "0 <= E <= (n-1) S1^2",
            f"energy {energy} outside [0, {cap}]; no nonnegative tuple with "
            f"S1={s1} attains it",
        )
    beta = min(math.sqrt(energy / cap), 1.0)
    factor = (1.0 + beta * (n - 1)) ** r + (n - 1) * (1.0 - beta) ** r
    value = math.exp(math.log(factor) + r * (math.log(s1) - math.log(n)))
    root = AlphaRoot(beta, Branch.POSITIVE, 1, 0.0, 0)
    return BoundReport(value, Formula.THM_ONE_CONVERSE, alpha=root)


def energy_max_power(ps: PowerSumConstraints) -> BoundReport:
    """Sharp upper bound for E at fixed S_1 and S_r.

    Write nc = ceil(ntilde).  The maximum is attained with n - nc zeros and a
    two-value split of the remaining nc entries:

        E^max = S_1^2 / nc * (n (nc - 1) alpha^2 + n - nc),

    where alpha is the negative root of the nc-point equation (ratio
    nc^r S_r / S_1^r).  For nc = 1 the configuration is a single point and
    E^max = (n-1) S_1^2 with no alpha term.
    """
    nc = ps.ntilde_ceil
    diagnostics = {"ntilde": ps.ntilde, "ntilde_ceil": nc, "k_star": ps.k_star}
    if nc == 1:
        value = (ps.n - 1) * ps.s1**2
        return BoundReport(value, Formula.THM_ONE_MAX_E, diagnostics=diagnostics)
    root = solve_powersum_alpha(nc, 1, ps.r, ps.s1, ps.sr, Branch.NEGATIVE)
    value = ps.s1**2 / nc * (ps.n * (nc - 1) * root.alpha**2 + (ps.n - nc))
    diagnostics["ratio_reduced"] = nc + _exact_ratio_gap(nc, ps.r, ps.s1, ps.sr)
    return BoundReport(value, Formula.THM_ONE_MAX_E, alpha=root, diagnostics=diagnostics)


def uv_values(n: int, k: int, r: int, ratio: float) -> UVValues:
    """U, V, F, G at (k, n) for the scale-free constraint ratio = n^r Sr/S1^r.

    Missing branches yield None in the corresponding slots.  These are the
    quantities whose monotonicity (in k, in n, and along the diagonal)
    orders the two-value critical energies.
    """
    exists = branch_exists(n, k, r, ratio)
    m = n / k - 1.0
    u = v = f = g = None
    if exists.negative:
        a1 = solve_powersum_alpha(n, k, r, n, ratio, Branch.NEGATIVE)
        u = a1.alpha**2 * m
        g = (u + 1.0) / n
    if exists.positive:
        a2 = solve_powersum_alpha(n, k, r, n, ratio, Branch.POSITIVE)
        v = a2.alpha**2 * m
        f = (v + 1.0) / n
    return UVValues(u, v, f, g)


def energy_lower_from_disc(
    n: int, delta, s1: float | None = None, s2: float | None = None
) -> BoundReport:
    """Lower bound binom(n,2)·2n·(Delta/Y(n))^(1/binom(n,2)) on the energy.

    ``delta`` is the discriminant prod_{i<j} (x_i - x_j)^2 and Y(n) the
    hyperfactorial.  The sharp form requires the energy hypothesis
    (n-1) S_2 < S_1^2 < n S_2; when s1 and s2 are supplied the report's
    diagnostics say whether it holds — the value is returned either way and
    interpretation is the caller's.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not delta > 0:
        raise HypothesisViolationError(
            "Delta > 0", f"discriminant must be positive, got {delta}"
        )
    c = math.comb(n, 2)
    log_delta = math.log(delta)
    value = 2 * n * c * math.exp((log_delta - log_hyperfactorial(n)) / c)
    diagnostics: dict = {"binom": c}
    if s1 is not None and s2 is not None:
        diagnostics["hypothesis_holds"] = (n - 1) * s2 < s1**2 < n * s2
    return BoundReport(value, Formula.THM_TWO_DISC, diagnostics=diagnostics)


def potential_lower_from_disc(
    spec: PotentialSpec, n: int, s1: float, delta
) -> BoundReport:
    """Lower bound for the quadratic potential of *spec* from the discriminant.

    value = binom(n,2)·(2a/n)·(Delta/Y(n))^(1/binom(n,2))
            + (a+b)·(S1/n)^2 + c·(S1/n) + d.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not math.isfinite(s1):
        raise ValueError("S1 must be finite")
    if not delta > 0:
        raise HypothesisViolationError(
            "Delta > 0", f"discriminant must be positive, got {delta}"
        )
    c = math.comb(n, 2)
    disc_term = (
        c
        * (2.0 * spec.a / n)
        * math.exp((math.log(delta) - log_hyperfactorial(n)) / c)
    )
    mean = s1 / n
    value = disc_term + (spec.a + spec.b) * mean**2 + spec.c * mean + spec.d
    return BoundReport(
        value,
        Formula.THM_ONE_SEVEN_POTENTIAL,
        diagnostics={"disc_term": disc_term},
    )


def siegel_constants() -> SiegelConstants:
    """The constants tied to the Siegel-style lower bound E >= lambda·binom(n,2).

    theta is the positive root of

        (1 + t) log(1 + 1/t) + log(t)/(1 + t) = 1,

    and lambda0 = e (1 + 1/theta)^(-theta) = 1.7336105...  The stored
    1.793145 is the best published constant for the related trace problem;
    2/sqrt(e) is the easy baseline the lambda's improve on.
    """

    def f(t: float) -> float:
        return (1.0 + t) * math.log1p(1.0 / t) + math.log(t) / (1.0 + t) - 1.0

    def fp(t: float) -> float:
        return (
            math.log1p(1.0 / t)
            - 1.0 / t
            + 1.0 / (t * (1.0 + t))
            - math.log(t) / (1.0 + t) ** 2
        )

    theta, residual, _ = _newton(f, fp, 0.05, 0.05, 0.95)
    lambda0 = math.e * (1.0 + 1.0 / theta) ** (-theta)
    return SiegelConstants(
        theta=theta,
        lambda0=lambda0,
        two_over_sqrt_e=2.0 / math.sqrt(math.e),
        residual=residual,
    )
