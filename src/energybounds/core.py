"""Basic types and identities for the pairwise squared-difference energy.

For a tuple x = (x_1, ..., x_n) of nonnegative reals the energy is

    E(x) = sum_{i<j} (x_i - x_j)^2 = n*S_2 - S_1^2,

where S_r = sum_i x_i^r.  Everything else in the package constrains or
bounds E subject to fixing S_1 together with either a higher power sum
S_r or the product of the x_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import NamedTuple, Sequence

#: Relative tolerance used for feasibility checks and integer snapping.
REL_TOL = 1e-9


class FeasibilityError(ValueError):
    """Raised when requested constraints violate a necessary inequality.

    ``condition`` names the inequality that failed, e.g. ``"Sr <= S1^r"``.
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)


class SearchFailedError(ArithmeticError):
    """Raised when every search row of one direction fails to project onto
    the constraint manifold (``condition`` is ``"search_failed"``)."""

    condition = "search_failed"


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of n >= 2 nonnegative reals."""

    xs: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        if len(xs) < 2:
            raise ValueError("a configuration needs at least two entries")
        for v in xs:
            if not math.isfinite(v):
                raise ValueError("entries must be finite")
            if v < 0.0:
                raise ValueError(f"entries must be nonnegative, got {v}")
        object.__setattr__(self, "xs", xs)

    @property
    def n(self) -> int:
        return len(self.xs)


class EnergyReport(NamedTuple):
    energy: float
    s1: float
    s2: float


def energy(config: Configuration | Sequence[float]) -> float:
    """Energy sum_{i<j} (x_i - x_j)^2, via the centered form n*sum (x_i - mean)^2.

    The centered form is algebraically identical to n*S_2 - S_1^2 but does
    not cancel two nearly equal quantities, so it stays accurate when the
    spread is tiny compared with the mean.
    """
    xs = config.xs if isinstance(config, Configuration) else Configuration(tuple(config)).xs
    n = len(xs)
    mean = fsum(xs) / n
    return n * fsum((v - mean) ** 2 for v in xs)


def power_sum(config: Configuration | Sequence[float], r: int) -> float:
    """S_r = sum_i x_i^r for integer r >= 1, with compensated summation."""
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"power sum order must be a positive integer, got {r!r}")
    xs = config.xs if isinstance(config, Configuration) else Configuration(tuple(config)).xs
    return fsum(v**r for v in xs)


def energy_report(config: Configuration | Sequence[float]) -> EnergyReport:
    cfg = config if isinstance(config, Configuration) else Configuration(tuple(config))
    return EnergyReport(energy(cfg), power_sum(cfg, 1), power_sum(cfg, 2))


def power_sums_from_coeffs(coeffs: Sequence[int], r_max: int) -> list[int]:
    """Exact power sums p_1..p_r_max of the roots of a monic integer polynomial.

    ``coeffs`` lists the coefficients leading-first, ``coeffs[0] == 1``.
    Uses the Newton recurrences; with b_i = coeffs[i],

        p_k = -(b_1 p_{k-1} + ... + b_{k-1} p_1 + k b_k)   for k <= n,
        p_k = -(b_1 p_{k-1} + ... + b_n p_{k-n})           for k > n,

    so every intermediate value is an integer.
    """
    coeffs = [_as_int(c) for c in getattr(coeffs, "coeffs", coeffs)]
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    if not isinstance(r_max, int) or r_max < 1:
        raise ValueError("r_max must be a positive integer")
    n = len(coeffs) - 1
    ps: list[int] = []
    for k in range(1, r_max + 1):
        acc = 0
        for i in range(1, min(k, n) + 1):
            if i == k:
                acc += k * coeffs[i]
            else:
                acc += coeffs[i] * ps[k - i - 1]
        ps.append(-acc)
    return ps


def _as_int(c) -> int:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise ValueError(f"integer coefficient expected, got {c!r}")
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"integer coefficient expected, got {c!r}")
        return c.numerator
    return c


def hyperfactorial(n: int) -> int:
    """Y(n) = prod_{k=2}^{n} k^k, exactly; Y(1) = 1, Y(2) = 4, Y(3) = 108."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("hyperfactorial is defined here for integers n >= 1")
    out = 1
    for k in range(2, n + 1):
        out *= k**k
    return out


def log_hyperfactorial(n: int) -> float:
    """log Y(n) = sum_{k=2}^n k log k, without forming the big integer."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    return fsum(k * math.log(k) for k in range(2, n + 1))


def a_factor_log(n: int) -> float:
    """log of A(n) = (2n)^binom(n,2) / Y(n), evaluated stably in log space."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    return math.comb(n, 2) * math.log(2 * n) - log_hyperfactorial(n)


class NTilde(NamedTuple):
    """Effective count of a power-sum constraint set.

    ``ntilde`` solves ntilde^(r-1) = S_1^r / S_r; it lies in [1, n] exactly
    when the constraints are feasible for nonnegative tuples.
    """

    ntilde: float
    ntilde_ceil: int
    k_star: int


def ntilde(n: int, r: int, s1: float, sr: float) -> NTilde:
    """Effective count, its ceiling, and k* = n - ceil(ntilde).

    Raises :class:`FeasibilityError` when (S_1, S_r) violates either the
    power-mean inequality S_1^r <= n^(r-1) S_r or positivity S_r <= S_1^r.
    Values within relative ``REL_TOL`` of an integer are snapped so that a
    constraint set built from an exact two-value configuration lands on the
    exact integer.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not isinstance(r, int) or r < 3:
        raise ValueError("power sum order must be an integer >= 3")
    if not (s1 > 0.0 and math.isfinite(s1)):
        raise ValueError("S1 must be positive and finite")
    if not (sr > 0.0 and math.isfinite(sr)):
        raise ValueError("Sr must be positive and finite")
    # Work in logs: comparing S1^r with Sr directly can overflow long before
    # the constraint set stops making sense.
    log_gap = r * math.log(s1) - math.log(sr)
    if log_gap < -REL_TOL:
        raise FeasibilityError(
            "Sr <= S1^r",
            f"Sr={sr} exceeds S1^r (log excess {-log_gap:.3e}); no nonnegative "
            "tuple has these power sums",
        )
    if log_gap > (r - 1) * math.log(n) + REL_TOL:
        raise FeasibilityError(
            "S1^r <= n^(r-1) Sr",
            f"S1={s1} is too large for Sr={sr} with n={n}; the power-mean "
            "inequality fails",
        )
    val = math.exp(log_gap / (r - 1))
    val = min(max(val, 1.0), float(n))
    nearest = round(val)
    if nearest >= 1 and abs(val - nearest) <= REL_TOL * max(1.0, val):
        val = float(nearest)
    ceil_val = math.ceil(val - REL_TOL)  # guard against 3.0000000001 -> 4
    ceil_val = min(max(ceil_val, 1), n)
    return NTilde(val, ceil_val, n - ceil_val)


@dataclass(frozen=True)
class PowerSumConstraints:
    """Constraint set: n nonnegative reals with fixed S_1 and S_r, r >= 3.

    r = 2 is deliberately rejected: with S_1 and S_2 both fixed the energy
    equals n*S_2 - S_1^2 identically and there is nothing to bound.
    """

    n: int
    r: int
    s1: float
    sr: float

    def __post_init__(self):
        nt = ntilde(self.n, self.r, self.s1, self.sr)
        object.__setattr__(self, "_ntilde", nt)

    @property
    def ntilde(self) -> float:
        return self._ntilde.ntilde

    @property
    def ntilde_ceil(self) -> int:
        return self._ntilde.ntilde_ceil

    @property
    def k_star(self) -> int:
        return self._ntilde.k_star

    @property
    def all_equal(self) -> bool:
        """True when the constraints force x_i = S_1 / n for every i."""
        return abs(_exact_ratio_gap(self.n, self.r, self.s1, self.sr)) <= REL_TOL * self.n


def _exact_ratio_gap(m: int, r: int, s1: float, sr: float) -> float:
    """m^r S_r / S_1^r - m, from the float inputs in exact integers and rounded once:
    the scale-free ratio of m points carrying all of S_1, less its all-equal value."""
    a, b = s1.as_integer_ratio()
    c, d = sr.as_integer_ratio()
    den = d * a**r
    return (c * (m * b) ** r - m * den) / den


@dataclass(frozen=True)
class TraceNormConstraints:
    """Constraint set: n positive reals with mean s and product p.

    Feasible iff p <= s^n (AM-GM); equality forces all entries equal to s.
    """

    n: int
    s: float
    p: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if not (self.s > 0.0 and math.isfinite(self.s)):
            raise ValueError("mean s must be positive and finite")
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise ValueError("product p must be positive and finite")
        if self.log_target > REL_TOL:
            raise FeasibilityError(
                "p <= s^n",
                f"product p={self.p} exceeds s^n with s={self.s}, n={self.n}; "
                "AM-GM leaves no such tuple",
            )

    @property
    def log_target(self) -> float:
        """log(p / s^n) <= 0; zero exactly at the all-equal tuple."""
        return math.log(self.p) - self.n * math.log(self.s)

    @property
    def all_equal(self) -> bool:
        return abs(self.log_target) <= REL_TOL
