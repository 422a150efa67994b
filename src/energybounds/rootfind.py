"""Roots of the two-value critical-point equations.

A critical configuration splits n points into k copies of x and n-k copies
of y with k*x + (n-k)*y = S_1.  Writing m = n/k - 1 and parametrising

    x = S_1 (1 + alpha*m) / n,      y = S_1 (1 - alpha) / n,

the remaining constraint pins alpha inside (-k/(n-k), 1):

  * fixed product (trace/norm):  (1 + alpha*m)^k (1 - alpha)^(n-k) = p / s^n,
  * fixed power sum S_r:  k (1 + alpha*m)^r + (n-k)(1 - alpha)^r = n^r S_r / S_1^r.

Both admit at most one root on each side of alpha = 0.  Each solver runs one
Newton iteration, :func:`_newton`, from a start beyond that root; the
trace/norm one solves in the log of the smaller value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .core import REL_TOL, FeasibilityError, _exact_ratio_gap

#: The power-sum search's negative end stays this far inside the interval.
_EDGE = 1e-14

_MAX_ITER = 80


class Branch(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


class BranchMissingError(ValueError):
    """The requested sign branch has no root for these constraints."""

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)


@dataclass(frozen=True)
class AlphaRoot:
    """A solved branch parameter.

    ``residual`` is the defining function evaluated at ``alpha``;
    ``at_boundary`` marks roots not iterated for: alpha = 0 at the all-equal
    point, and power-sum threshold cases pinned to an end of the interval.
    """

    alpha: float
    branch: Branch
    k: int
    residual: float
    iterations: int
    at_boundary: bool = False


class BranchExistence(NamedTuple):
    negative: bool
    positive: bool
    ntilde: float


def branch_exists(n: int, k: int, r: int, ratio: float) -> BranchExistence:
    """Which sign branches of the power-sum equation have a root.

    With ntilde defined by ntilde^(r-1) = n^(r-1) * n / ratio (the effective
    count of the scale-free constraints), the negative root exists iff
    k > n - ntilde and the positive root exists iff k < ntilde.  Values of k
    within relative ``REL_TOL`` of the threshold are reported as existing;
    the root then sits at an interval endpoint.
    """
    _check_nk(n, k)
    if not isinstance(r, int) or r < 3:
        raise ValueError("power sum order must be an integer >= 3")
    if ratio < n * (1.0 - REL_TOL) or ratio > float(n) ** r * (1.0 + REL_TOL):
        raise FeasibilityError(
            "n <= ratio <= n^r",
            f"scale-free ratio {ratio} outside [n, n^r] for n={n}, r={r}",
        )
    log_nt = (r * math.log(n) - math.log(max(ratio, n))) / (r - 1)
    nt = min(max(math.exp(log_nt), 1.0), float(n))
    neg = k > n - nt - REL_TOL * n
    pos = k < nt + REL_TOL * n
    return BranchExistence(neg, pos, nt)


def solve_trace_norm_alpha(n: int, k: int, s: float, p: float, branch: Branch) -> AlphaRoot:
    """Root of (1 + alpha*m)^k (1 - alpha)^(n-k) = p / s^n on the given branch.

    The left side equals 1 at alpha = 0 and tends to 0 at both ends of
    (-k/(n-k), 1), so for p < s^n there is exactly one root of each sign.
    Feasibility (p <= s^n) is rechecked here; p within relative tolerance of
    s^n degenerates to alpha = 0, flagged ``at_boundary``.

    The root is found in t = log(x_small / s), finite for every float p and
    s.  With j copies of the small value (j = k on the negative branch,
    n - k on the positive one) and q = j / (n - j), both branches solve

        F(t) = j t + (n-j) log1p(-q expm1(t)) = log(p / s^n),   t < 0,

    with F increasing and concave, by Newton's method from an upper bound of
    the root; alpha = expm1(t)/m on the negative branch and -expm1(t) on the
    positive one.  Near the all-equal point the right side is log1p(-gap) with
    the gap 1 - p/s^n formed exactly from the float inputs and rounded once:
    there t^2 is proportional to the gap, and reading the gap off two nearly
    equal logarithms would cost most of its digits.  For the same reason F is
    evaluated as j psi(t) + (n-j) phi(-q expm1(t)), with psi(t) = t - expm1(t)
    and phi(x) = log1p(x) - x each taken from its series where it would
    cancel.  ``residual`` is still that of the product equation.
    """
    _check_nk(n, k)
    if not (s > 0.0 and p > 0.0):
        raise ValueError("s and p must be positive")
    log_target = math.log(p) - n * math.log(s)
    if log_target > REL_TOL:
        raise FeasibilityError("p <= s^n", f"p={p} exceeds s^n for s={s}, n={n}")
    if log_target >= -REL_TOL:
        return AlphaRoot(0.0, branch, k, -math.expm1(log_target), 0, True)
    if log_target > -math.log(2.0):  # p/s^n > 1/2: the gap is the accurate datum
        log_target = math.log1p(-_exact_gap(n, s, p))
    j = k if branch is Branch.NEGATIVE else n - k
    q = j / (n - j)

    def f(t: float) -> float:
        # F(t) = j psi(t) + (n-j) phi(-q u), as (n-j) q u = j u: the linear parts
        # cancel in the algebra, not in floats
        u = math.expm1(t)
        x = -q * u
        psi = _series(_PSI, t) if abs(t) < 0.5 else t - u
        phi = _series(_PHI, x) if abs(x) < 0.1 else math.log1p(x) - x
        return j * psi + (n - j) * phi - log_target

    def fp(t: float) -> float:
        em = math.expm1(t)
        return -n * q * em / (1.0 - q * em)

    # f(hi) >= 0 as F >= j t and F >= -nq t^2/2 (F(0) = F'(0) = 0, F'' >= -nq).  F is
    # concave: the first Newton step from hi lands below the root, later ones rise to it
    hi = min(log_target / j, -math.sqrt(-2.0 * log_target / (n * q)))
    t, res, iters = _newton(f, fp, hi, -math.inf, hi)
    # m as (n-k)/k: n/k - 1 cancels for k near n, and m's error is alpha's
    alpha = math.expm1(t) / ((n - k) / k) if branch is Branch.NEGATIVE else -math.expm1(t)
    # the product side minus p/s^n, i.e. (p/s^n) * (exp(log residual) - 1)
    return AlphaRoot(alpha, branch, k, math.exp(log_target) * math.expm1(res), iters)


#: Taylor coefficients of psi(t) = t - expm1(t), t^20 down to t^2, and of
#: phi(x) = log1p(x) - x, x^18 down to x^2
_PSI = tuple(-1.0 / math.factorial(i) for i in range(20, 1, -1))
_PHI = tuple((-1.0) ** (i + 1) / i for i in range(18, 1, -1))


def _series(coeffs: tuple[float, ...], x: float) -> float:
    """x^2 times the polynomial with ``coeffs`` (highest first) at x, by Horner."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return x * x * acc


def _exact_gap(n: int, s: float, p: float) -> float:
    """1 - p/s^n for the float inputs, in exact integers, rounded once."""
    a, b = s.as_integer_ratio()
    c, d = p.as_integer_ratio()
    den = d * a**n
    return (den - (c << n * (b.bit_length() - 1))) / den  # b is a power of two


def solve_powersum_alpha(
    n: int, k: int, r: int, s1: float, sr: float, branch: Branch
) -> AlphaRoot:
    """Root of k(1+alpha*m)^r + (n-k)(1-alpha)^r = n^r S_r / S_1^r on a branch.

    The constant terms of the left side sum to n and its linear terms cancel,
    since k*m = n-k, so the equation is solved as

        h(alpha) = sum_{j=2}^{r} C(r,j) alpha^j (k m^j + (n-k)(-1)^j) = gap,

    h evaluated by Horner and the gap n^r S_r / S_1^r - n formed exactly
    from the float inputs, as in :func:`_exact_gap`: near alpha = 0, where
    alpha^2 is proportional to the gap, nothing cancels.  h decreases
    strictly on (-k/(n-k), 0) and increases strictly on (0, 1), so each
    branch holds at most one root; existence is exactly the branch
    condition of :func:`branch_exists`.  A missing branch raises
    :class:`BranchMissingError`; a threshold case (k at the existence
    boundary within relative 1e-9) returns the interval endpoint flagged
    ``at_boundary``.  ``residual`` is h(alpha) - gap.
    """
    gap = _exact_ratio_gap(n, r, s1, sr)
    ratio = n + gap
    exists = branch_exists(n, k, r, ratio)
    if abs(gap) <= REL_TOL * n:
        return AlphaRoot(0.0, branch, k, -gap, 0, True)
    if branch is Branch.NEGATIVE and not exists.negative:
        raise BranchMissingError(
            "k > n - ntilde",
            f"negative branch needs k > n - ntilde = {n - exists.ntilde:.12g}, got k={k}",
        )
    if branch is Branch.POSITIVE and not exists.positive:
        raise BranchMissingError(
            "k < ntilde",
            f"positive branch needs k < ntilde = {exists.ntilde:.12g}, got k={k}",
        )
    m = n / k - 1.0
    coeffs = tuple(math.comb(r, j) * (k * m**j + (n - k) * (-1) ** j) for j in range(r, 1, -1))

    def g(a: float) -> float:
        return _series(coeffs, a) - gap

    def gp(a: float) -> float:
        return (n - k) * r * ((1.0 + a * m) ** (r - 1) - (1.0 - a) ** (r - 1))

    # g <= 0 at the interval's end is a threshold case (k at the existence
    # boundary, or the ratio at its maximum n^r with k = 1): the root is the end
    end = -k / (n - k) * (1.0 - _EDGE) if branch is Branch.NEGATIVE else 1.0
    if g(end) <= 0.0:
        return AlphaRoot(end, branch, k, g(end), 0, True)
    # start from the tighter of alpha^2 = gap / c_2, which may fall short of the
    # root, and the one-term bound, which drops a nonnegative term and lies beyond it
    quad = math.sqrt(gap / coeffs[-1])
    if branch is Branch.NEGATIVE:
        a0 = max(-quad, 1.0 - (ratio / (n - k)) ** (1.0 / r), end)
    else:
        a0 = min(quad, ((ratio / k) ** (1.0 / r) - 1.0) / m, end)
    alpha, res, iters = _newton(g, gp, a0, min(end, 0.0), max(end, 0.0))
    return AlphaRoot(alpha, branch, k, res, iters)


def _check_nk(n: int, k: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not isinstance(k, int) or not 1 <= k <= n - 1:
        raise ValueError(f"k must be an integer in [1, n-1], got {k}")


def _newton(
    f: Callable[[float], float],
    fp: Callable[[float], float],
    x0: float,
    lo: float,
    hi: float,
) -> tuple[float, float, int]:
    """Newton's method from x0, each step clamped to [lo, hi], which holds the
    root.  Returns (root, residual, evaluations of f).

    f is monotone and convex or concave on [lo, hi]: the power-sum g is convex,
    the trace/norm f concave from hi (f >= 0), Siegel's f concave from 0.05
    (f < 0).  Where f and f'' share a sign (Fourier's condition), every step
    stays on that side of the root and moves toward it; one step from the
    other side lands there.  So once the second step has set the direction,
    a step that turns back, or rounds to no move, is rounding: the iteration
    stops.  It also stops after a step within 4 ulp of max(|x|, 1), since the
    convergence is quadratic and the next step would be below one ulp, or
    after 80 evaluations.  No test on |f| is needed: the stops on the step
    alone return the same root.
    """
    x, fx = x0, f(x0)
    iters, last = 1, 0.0
    while fx != 0.0 and iters < _MAX_ITER:
        x_new = min(max(x - fx / fp(x), lo), hi)
        step = x_new - x
        if step == 0.0 or step * last < 0.0:
            break
        if iters > 1:  # the first step may cross the root; later ones set the direction
            last = step
        x, fx = x_new, f(x_new)
        iters += 1
        if abs(step) <= 4.0 * math.ulp(max(abs(x), 1.0)):
            break
    return x, fx, iters
