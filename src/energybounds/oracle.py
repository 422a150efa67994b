"""Theory-independent verification oracles.

Two mechanisms cross-check every closed-form bound:

* exhaustive enumeration of critical configurations — two-value splits,
  padded with zeros for the boundary strata — which is where constrained
  extrema of the energy must live;
* randomized projected gradient search on the constraint manifold, which
  knows nothing about the two-value structure.  One driver, ``_descend``,
  with one projector, ``_project``, serves both constraint families.

Both are deterministic given their inputs (and seed).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import REL_TOL, PowerSumConstraints, SearchFailedError, TraceNormConstraints
from .rootfind import (
    Branch,
    branch_exists,
    solve_powersum_alpha,
    solve_trace_norm_alpha,
)

log = logging.getLogger(__name__)

#: Joint relative tolerance for constraint restoration in the search.
_PROJ_TOL = 1e-11
#: Most shift/rescale rounds per projection.
_PROJ_ROUNDS = 25
#: Most Newton passes per rescale root; convergence takes a few.
_NEWTON_PASSES = 40
#: Four units of rounding: the stopping scale of the rescale roots.
_EPS4 = 4.0 * np.finfo(float).eps


class ConfigKind(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class CriticalConfig:
    """A critical configuration: k copies of x, the rest y, plus ``zeros`` 0s."""

    k: int
    x: float
    y: float
    zeros: int
    E: float
    kind: ConfigKind

    def as_tuple(self, n: int) -> tuple[float, ...]:
        m = n - self.zeros
        return (self.x,) * self.k + (self.y,) * (m - self.k) + (0.0,) * self.zeros


class TwoValueExtrema(NamedTuple):
    candidates: tuple[CriticalConfig, ...]
    min: float
    max: float


class SearchExtrema(NamedTuple):
    min: float
    max: float
    failed: tuple[int, ...]


class TraceNormExtrema(NamedTuple):
    min: float
    max: float
    candidates: tuple[CriticalConfig, ...]
    search_min: float
    search_max: float
    failed: tuple[int, ...]


def extrema_two_value(ps: PowerSumConstraints) -> TwoValueExtrema:
    """All two-value critical configurations of E under ``ps``, with extremes.

    For each admissible number of zeros j (0..k*), the remaining m = n - j
    entries split into k at one value and m - k at another; the Lagrange
    conditions admit no other interior critical points.  Boundary strata are
    lifted by E = (n/m) E' + j S_1^2 / m.
    """
    n, r, s1 = ps.n, ps.r, ps.s1
    cands: list[CriticalConfig] = []
    for j in range(ps.k_star + 1):
        m = n - j
        kind = ConfigKind.INTERIOR if j == 0 else ConfigKind.BOUNDARY
        if m == 1:
            cands.append(
                CriticalConfig(1, s1, 0.0, j, (n - 1) * s1**2, ConfigKind.BOUNDARY)
            )
            continue
        ratio_m = ps.ratio_for(m)
        if ratio_m <= m * (1.0 + REL_TOL):
            if ratio_m >= m * (1.0 - REL_TOL):
                # the m remaining entries are forced equal (ntilde == m)
                e = _lift(0.0, j, n, m, s1)
                cands.append(CriticalConfig(m, s1 / m, 0.0, j, e, kind))
            continue
        for k in range(1, m):
            exists = branch_exists(m, k, r, ratio_m)
            for branch, present in (
                (Branch.NEGATIVE, exists.negative),
                (Branch.POSITIVE, exists.positive),
            ):
                if not present:
                    continue
                root = solve_powersum_alpha(m, k, r, ratio_m, branch)
                mk = m / k - 1.0
                x = s1 * (1.0 + root.alpha * mk) / m
                y = s1 * (1.0 - root.alpha) / m
                e = _lift(mk * root.alpha**2 * s1**2, j, n, m, s1)
                cands.append(CriticalConfig(k, x, y, j, e, kind))
    values = [c.E for c in cands]
    return TwoValueExtrema(tuple(cands), min(values), max(values))


def _lift(e_reduced: float, j: int, n: int, m: int, s1: float) -> float:
    """Energy of an m-point configuration after appending j = n - m zeros."""
    return n / m * e_reduced + j * s1**2 / m


def extrema_search(
    ps: PowerSumConstraints,
    restarts: int = 16,
    seed: int = 0,
    max_iters: int = 200,
) -> SearchExtrema:
    """Projected-gradient extremes of E on the closure {S_1, S_r, x >= 0}.

    ``restarts`` seeded starts run per direction (minimize and maximize),
    all rows advanced together in the vectorized loop that
    :func:`extrema_trace_norm` shares.  Support sizes cycle
    deterministically through n, n-1, ..., ntilde_ceil so every admissible
    boundary stratum gets its own rows (when restarts >= k* + 1); a row
    never leaves its stratum — shrinking coordinates are floored at a
    fraction of their previous value, so interior optima with tiny entries
    are approached geometrically instead of being clipped to zero.  Each
    step follows the energy gradient with backtracking, then re-projects:
    a shift of the support restores S_1, a rescale toward the mean (Newton
    from the row's own point) restores S_r, alternating to joint relative
    tolerance 1e-11.  Failed rows are reseeded, then excluded and reported;
    SearchFailedError if a direction has none left, ValueError unless
    restarts >= 1 and max_iters >= 0.
    """
    n, r, s1, sr = ps.n, ps.r, ps.s1, ps.sr
    strata = n - ps.ntilde_ceil + 1

    def start(row: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, row, attempt]))
        )
        size = n - (row % restarts) % strata
        support = np.arange(n) if size == n else rng.permutation(n)[:size]
        x = np.zeros(n)
        vals = rng.random(support.size) + 0.05
        x[support] = vals / vals.sum() * s1
        return x, np.isin(np.arange(n), support)

    def on_manifold(X: np.ndarray, free: np.ndarray) -> np.ndarray:
        return np.abs(np.where(free, X**r, 0.0).sum(axis=1) - sr) <= _PROJ_TOL * sr

    return SearchExtrema(
        *_descend(
            n, s1, restarts, max_iters, start,
            reseeds=9,
            scale_root=lambda mean, D, live: _scale_root_power(mean, D, live, sr, r),
            on_manifold=on_manifold,
            weight=lambda X: r * X ** (r - 1),
            # multiplicative floor: a coordinate shrinks by at most 1000x per
            # accepted step, so rows stay strictly inside their stratum
            trial_floor=lambda X: 1e-3 * X,
            proj_floor=0.0,
            eta0=0.1 * s1 / n,
        )
    )


def extrema_trace_norm(
    tn: TraceNormConstraints,
    restarts: int = 16,
    seed: int = 0,
    max_iters: int = 200,
) -> TraceNormExtrema:
    """Extremes of E on {sum x = ns, prod x = p, x > 0}.

    Critical configurations are two-valued (k copies of one value), giving
    E = (n/k - 1)(ns)^2 alpha^2 for each k and branch; the search of
    :func:`extrema_search` corroborates them; its rescale restoring the
    product is solved in the log of the smallest coordinate, floored at
    1e-13 s.  Returns the combined extremes plus both ingredients.
    """
    n, s = tn.n, tn.s
    cands: list[CriticalConfig] = []
    if tn.all_equal:
        cands.append(CriticalConfig(n, s, 0.0, 0, 0.0, ConfigKind.INTERIOR))
    else:
        for k in range(1, n):
            for branch in (Branch.NEGATIVE, Branch.POSITIVE):
                root = solve_trace_norm_alpha(n, k, s, tn.p, branch)
                mk = n / k - 1.0
                x = s * (1.0 + root.alpha * mk)
                y = s * (1.0 - root.alpha)
                e = mk * root.alpha**2 * (n * s) ** 2
                cands.append(CriticalConfig(k, x, y, 0, e, ConfigKind.INTERIOR))
    values = [c.E for c in cands]
    s1 = n * s
    logp = tn.log_target + n * math.log(s)

    def start(row: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, row])))
        vals = rng.random(n) + 0.05
        return vals / vals.sum() * s1, np.ones(n, dtype=bool)

    def on_manifold(X: np.ndarray, free: np.ndarray) -> np.ndarray:
        return np.abs(np.log(X).sum(axis=1) - logp) <= _PROJ_TOL * max(1.0, abs(logp))

    floor = 1e-13 * s1 / n
    smin, smax, failed = _descend(
        n, s1, restarts, max_iters, start,
        reseeds=0,
        scale_root=lambda mean, D, live: _scale_root_prod(mean, D, live, logp, floor),
        on_manifold=on_manifold,
        weight=lambda X: 1.0 / X,
        trial_floor=lambda X: 1e-13 * s,
        proj_floor=floor,
        eta0=0.1 * s,
    )
    return TraceNormExtrema(
        min(min(values), smin), max(max(values), smax), tuple(cands), smin, smax, failed
    )


def _descend(
    n: int,
    s1: float,
    restarts: int,
    max_iters: int,
    start: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    *,
    reseeds: int,
    scale_root: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    on_manifold: Callable[[np.ndarray, np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    trial_floor: Callable[[np.ndarray], np.ndarray | float],
    proj_floor: float,
    eta0: float,
) -> tuple[float, float, tuple[int, ...]]:
    """Projected-gradient search over both constraint families.

    Rows below ``restarts`` minimize E, the rest maximize it.
    ``start(row, attempt)`` gives a row's values and support; rows whose
    projection fails start again, up to ``reseeds`` times.  ``weight`` is
    the second constraint's gradient, which the tangent step removes.
    Returns (min E, max E, failed rows).
    """
    if not isinstance(restarts, int) or restarts < 1:
        raise ValueError("restarts must be a positive integer")
    if not isinstance(max_iters, int) or max_iters < 0:
        raise ValueError("max_iters must be a nonnegative integer")
    rows = 2 * restarts
    X = np.zeros((rows, n))
    free = np.zeros((rows, n), dtype=bool)
    for row in range(rows):
        X[row], free[row] = start(row, 0)
    # direction +1 minimizes E, -1 maximizes
    direction = np.where(np.arange(rows) < restarts, 1.0, -1.0)

    X, ok = _project(X, free, s1, proj_floor, scale_root, on_manifold)
    for attempt in range(1, reseeds + 1):
        if ok.all():
            break
        for row in np.flatnonzero(~ok):
            X[row], free[row] = start(row, attempt)
        X, ok = _project(X, free, s1, proj_floor, scale_root, on_manifold)
    failed = ~ok
    best = np.where(ok, direction * _row_energy(X, n), np.inf)

    eta = np.full(rows, eta0)
    active = ok.copy()
    for _ in range(max_iters):
        if not active.any():
            break
        raw = 2.0 * (n * X - s1) * direction[:, None]
        grad = _tangent_step(raw, free, weight(X))
        norm = np.sqrt((grad**2).sum(axis=1))
        stalled = norm <= 1e-14 * s1
        active &= ~stalled
        step = np.where(norm > 0.0, eta / np.maximum(norm, 1e-300), 0.0)
        trial = np.where(free, X - step[:, None] * grad, X)
        np.maximum(trial, trial_floor(X), out=trial)
        trial, proj_ok = _project(trial, free, s1, proj_floor, scale_root, on_manifold)
        phi = direction * _row_energy(trial, n)
        # the projection may pin a coordinate at zero; reject such trials so
        # the row keeps to its stratum (deeper strata have their own rows)
        alive = np.where(free, trial, 1.0).min(axis=1) > 0.0
        accept = active & proj_ok & alive & (phi < best)
        X = np.where(accept[:, None], trial, X)
        best = np.where(accept, phi, best)
        eta = np.where(accept, np.minimum(eta * 1.3, 8 * eta0), eta * 0.5)
        eta = np.where(active, eta, 0.0)
        active &= eta > 1e-9 * eta0
    if failed.any():
        log.info("projection failed for %d of %d rows", int(failed.sum()), rows)
    mins = best[:restarts][ok[:restarts]]
    maxs = -best[restarts:][ok[restarts:]]
    if mins.size == 0 or maxs.size == 0:
        raise SearchFailedError("all search restarts failed to project onto the manifold")
    return float(mins.min()), float(maxs.max()), tuple(np.flatnonzero(failed).tolist())


def _row_energy(X: np.ndarray, n: int) -> np.ndarray:
    centered = X - X.mean(axis=1, keepdims=True)
    return n * (centered**2).sum(axis=1)


def _tangent_step(grad: np.ndarray, mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise projection of ``grad`` onto {v: sum_mask v = 0, <v, w> = 0}.

    These are the tangent spaces of the constraint manifolds: the raw energy
    gradient is parallel to the rescale direction the projector uses, so
    stepping along it would be undone — only its tangent component moves.
    Rows where w is parallel to the ones vector (uniform rows) get 0.
    """
    a = mask.astype(float)
    g = np.where(mask, grad, 0.0)
    wm = np.where(mask, w, 0.0)
    aa = a.sum(axis=1)
    ab = wm.sum(axis=1)
    bb = (wm * wm).sum(axis=1)
    ga = g.sum(axis=1)
    gb = (g * wm).sum(axis=1)
    det = aa * bb - ab * ab
    degenerate = det <= 1e-14 * np.maximum(aa * bb, 1e-300)
    safe = np.where(degenerate, 1.0, det)
    alpha = (ga * bb - gb * ab) / safe
    beta = (aa * gb - ab * ga) / safe
    v = np.where(mask, g - alpha[:, None] * a - beta[:, None] * wm, 0.0)
    return np.where(degenerate[:, None], 0.0, v)


def _project(
    X: np.ndarray,
    free: np.ndarray,
    s1: float,
    floor: float,
    scale_root: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    on_manifold: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Restore S_1 and a second constraint, alternating, clamped at ``floor``.

    A uniform shift of the live support restores S_1; a 1-D rescale toward
    the mean, whose rows ``scale_root`` returns (NaN rows: no root),
    restores the second.  Absent clamping one round is exact: the rescale
    direction sums to zero, so it preserves S_1.  Extra rounds only repair
    clamp-induced drift.  Returns the projected array and a per-row success
    mask (S_1 within tolerance and ``on_manifold``).
    """
    ok = np.zeros(X.shape[0], dtype=bool)
    # work on a private copy of the support: a coordinate the rescale pins
    # at the floor stays there, so the shift/scale alternation on the remaining
    # coordinates can land on the manifold exactly instead of oscillating
    live = free.copy()
    for _ in range(_PROJ_ROUNDS):
        cnt = np.maximum(live.sum(axis=1), 1)
        cur = np.where(live, X, 0.0).sum(axis=1)
        X = np.maximum(np.where(live, X + ((s1 - cur) / cnt)[:, None], X), floor)
        mean = (s1 / cnt)[:, None]
        scaled = scale_root(mean, np.where(live, X - mean, 0.0), live)
        good = np.isfinite(scaled).all(axis=1)
        X = np.where(live & good[:, None], np.maximum(scaled, floor), X)
        live &= ~(good[:, None] & (X <= floor))
        s1_err = np.abs(np.where(free, X, 0.0).sum(axis=1) - s1)
        ok = (s1_err <= _PROJ_TOL * s1) & on_manifold(X, free)
        if ok.all():
            break
    return X, ok


def _newton(
    rows_at: Callable, terms: Callable, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    done: np.ndarray,
) -> np.ndarray:
    """Bracketed Newton on rowwise nondecreasing residuals h, all rows at once.

    ``rows_at(x)`` gives the rows that x stands for, ``terms(x, rows)``
    h(x), h'(x) and the rounding error of h(x).  [lo, hi] brackets each
    root and shrinks as h's signs are seen; a step leaving it bisects.  A
    row stops where |h| is within rounding error, or after a Newton step
    below 1e-9 max(|x|, 1), whose error is near that step squared; rows
    ``done`` on entry never move.  Returns the rows at the last points."""
    for _ in range(_NEWTON_PASSES):
        h, slope, noise = terms(x, rows_at(x))
        lo = np.where(h < 0.0, x, lo)
        hi = np.where(h > 0.0, x, hi)
        step = x - h / np.where(slope > 0.0, slope, np.nan)
        newton = (step > lo) & (step < hi)
        done |= np.abs(h) <= noise
        step = np.where(done, x, np.where(newton, step, 0.5 * (lo + hi)))
        done |= newton & (np.abs(step - x) <= 1e-9 * np.maximum(np.abs(x), 1.0))
        x = step
        if done.all():
            break
    return rows_at(x)


def _scale_root_power(
    mean: np.ndarray, D: np.ndarray, free: np.ndarray, sr: float, r: int
) -> np.ndarray:
    """Rows max(mean + t D, 0), t >= 0, with sum_free of their r-th powers sr.

    h(t) = sum_free max(mean + t D, 0)^r - sr is convex, nondecreasing and
    unbounded on t >= 0; h(0) <= 0 when the free count is at least the
    effective count, and rows with h(0) > 0 have no root: NaN.  Newton
    starts at t = 1, the caller's own point: from h >= 0 it descends
    monotonically onto the root; from h < 0 its first step lands past it
    (h is convex), or bisects past the single-coordinate bound hi.
    """
    # zero the pinned coordinates up front: 0 + t*0 = 0 and 0^r = 0, so
    # they drop out of every evaluation without a mask in the loop
    base = np.where(free, mean, 0.0)
    dm = np.where(free, D, 0.0)
    unsolvable = (base**r).sum(axis=1) - sr > _PROJ_TOL * sr
    # one growing coordinate alone reaching sr bounds the root:
    # (mean + hi*Dmax)^r = sr, the other terms being nonnegative
    dmax = dm.max(axis=1)
    hi = np.maximum((sr ** (1.0 / r) - mean[:, 0]) / np.maximum(dmax, 1e-300), 0.0)
    hi = np.where(dmax > 0.0, hi, 0.0)

    def terms(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
        vr1 = v ** (r - 1)
        total = (vr1 * v).sum(axis=1)
        return total - sr, r * (dm * vr1).sum(axis=1), _EPS4 * (total + sr)

    rows = _newton(
        lambda t: np.maximum(base + t[:, None] * dm, 0.0), terms,
        np.minimum(hi, 1.0), np.zeros_like(hi), hi, unsolvable.copy(),
    )
    return np.where(unsolvable[:, None], np.nan, rows)


def _scale_root_prod(
    mean: np.ndarray, D: np.ndarray, live: np.ndarray, logp: float, floor: float
) -> np.ndarray:
    """Rows mean + t D, t >= 0, whose logs sum to logp, pinned ones at ``floor``.

    h(t) = sum log(mean + t D) - logp is concave, h(0) >= 0 (AM-GM),
    and h falls to -inf as the most-shrinking coordinate x_j reaches 0: the
    root is unique.  It is solved in y = log x_j, rising in y up to h(0) at
    y = log mean; rows are x_j = exp(y) and (mean (D - D_j) - exp(y) D) /
    (-D_j), since mean + t D gives a tiny coordinate an absolute error of
    ulp(mean).  Uniform rows stay at the mean; rows with h(0) < 0 are NaN.
    """
    cnt = live.sum(axis=1)
    logp = logp - (live.shape[1] - cnt) * math.log(floor)  # what the live ones need
    m = mean[:, 0]
    a = -D.min(axis=1)  # the shrink rate of x_j; 0 for uniform rows
    uniform = ~(a > 0.0)
    a = np.where(uniform, 1.0, a)
    spread = mean * (D + a[:, None])  # mean (D - D_j): exactly 0 at j
    yhi = np.log(m)
    unsolvable = cnt * yhi - logp < -_PROJ_TOL * np.maximum(1.0, np.abs(logp))
    # live coordinates are below cnt * mean: h < y + (cnt-1) log(cnt mean) - logp
    ylo = np.minimum(logp - (cnt - 1) * np.log(cnt * m), yhi)

    def terms(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(x)
            slope = -(np.exp(y) / a) * (D / x).sum(axis=1)
        return lx.sum(axis=1) - logp, slope, _EPS4 * (np.abs(lx).sum(axis=1) + np.abs(logp))

    rows = _newton(
        lambda y: np.where(live, (spread - np.exp(y)[:, None] * D) / a[:, None], 1.0), terms,
        np.clip(np.log(np.maximum(m - a, 1e-300)), ylo, yhi), ylo, yhi, unsolvable | uniform,
    )
    return np.where(unsolvable[:, None], np.nan, rows)  # uniform rows: spread / 1 = mean
