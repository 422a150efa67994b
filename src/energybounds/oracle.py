"""Theory-independent verification oracles.

Two mechanisms cross-check every closed-form bound:

* exhaustive enumeration of critical configurations — two-value splits,
  padded with zeros for the boundary strata — which is where constrained
  extrema of the energy must live;
* randomized projected gradient search on the constraint manifold, which
  knows nothing about the two-value structure.  One driver, ``_descend``,
  with one projector, ``_project``, and one rescale root, ``_scale_root``,
  serves both constraint families.

Both are deterministic given their inputs (and seed).
"""

from __future__ import annotations

import functools
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
    never leaves its stratum — a step shrinks a coordinate by at most
    1000x, so interior optima with tiny entries are approached
    geometrically instead of being clipped to zero.  Each step follows the
    energy gradient with backtracking, then re-projects: a shift of the
    support restores S_1, a rescale toward the mean restores S_r, to
    joint relative tolerance 1e-11.  When the constraints force every
    entry to S_1 / n the manifold is that one point: (0, 0, ()) at once.
    Failed rows are reseeded, then excluded and reported;
    SearchFailedError if a direction has none left, ValueError unless
    restarts >= 1 and max_iters >= 0.
    """
    _check_budget(restarts, max_iters)
    if ps.all_equal:
        return SearchExtrema(0.0, 0.0, ())
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

    phi, top = functools.partial(_power, r=r), sr ** (1.0 / r)
    return SearchExtrema(
        *_descend(
            n, s1, restarts, max_iters, start,
            reseeds=9,
            project=lambda X, free: _project(X, free, s1, sr, phi, top, 0.0),
            to_x=np.asarray,  # the identity on arrays
            # a coordinate shrinks by at most 1000x per step, so rows stay
            # strictly inside their stratum
            move=lambda X, _, V: np.maximum(X - V, 1e-3 * X),
            weight=lambda X: r * X ** (r - 1),
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
    :func:`extrema_search` corroborates them.  The search runs in
    u = log x: there the product constraint, sum u = log p, is linear, and
    sum exp(u) = ns takes the place of S_r, so the same projector restores
    both, with nothing floored.  At p = s^n (within relative 1e-9) the
    manifold is one point and the search extremes are 0.  Returns the
    combined extremes plus both ingredients.
    """
    _check_budget(restarts, max_iters)
    n, s = tn.n, tn.s
    if tn.all_equal:
        only = CriticalConfig(n, s, 0.0, 0, 0.0, ConfigKind.INTERIOR)
        return TraceNormExtrema(0.0, 0.0, (only,), 0.0, 0.0, ())
    cands: list[CriticalConfig] = []
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
        return np.log(vals / vals.sum() * s1), np.ones(n, dtype=bool)

    smin, smax, failed = _descend(
        n, s1, restarts, max_iters, start,
        reseeds=0,
        project=lambda U, free: _project(U, free, logp, s1, _exp, math.log(s1), -math.inf),
        to_x=np.exp,
        move=_log_step,
        # 1/x scaled by the row's smallest x, so its squares cannot overflow
        weight=lambda U: np.exp(U.min(axis=1, keepdims=True) - U),
    )
    return TraceNormExtrema(
        min(min(values), smin), max(max(values), smax), tuple(cands), smin, smax, failed
    )


def _check_budget(restarts: int, max_iters: int) -> None:
    if not isinstance(restarts, int) or restarts < 1:
        raise ValueError("restarts must be a positive integer")
    if not isinstance(max_iters, int) or max_iters < 0:
        raise ValueError("max_iters must be a nonnegative integer")


def _power(v: np.ndarray, d: np.ndarray | None = None, *, r: int) -> tuple:
    """phi = max(., 0)^r for :func:`_scale_root`, once r is bound."""
    v = np.maximum(v, 0.0)
    vr1 = v ** (r - 1)
    return vr1 * v, None if d is None else r * (d * vr1).sum(axis=1)


def _exp(v: np.ndarray, d: np.ndarray | None = None) -> tuple:
    """phi = exp for :func:`_scale_root`."""
    e = np.exp(v)
    return e, None if d is None else (d * e).sum(axis=1)


def _log_step(U: np.ndarray, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The x step X - V, floored at 1e-3 X as for power sums, taken in log x.

    V's absolute error, near 1e-15 s, swamps V_j / x_j at a tiny smallest
    x_j, so its step comes from the tangent condition sum du = 0 instead.
    """
    du = np.log1p(np.maximum(-V / X, -0.999))
    du[np.arange(len(du)), U.argmin(axis=1)] -= du.sum(axis=1)
    return U + du


def _descend(
    n: int,
    s1: float,
    restarts: int,
    max_iters: int,
    start: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    *,
    reseeds: int,
    project: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    to_x: Callable[[np.ndarray], np.ndarray],
    move: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float, tuple[int, ...]]:
    """Projected-gradient search over both constraint families.

    Rows hold a family's coordinates: x, or u = log x, which ``to_x`` maps
    to x.  Rows below ``restarts`` minimize E, the rest maximize it.
    ``start(row, attempt)`` gives a row and its support; rows that
    ``project(rows, free)`` fails on start again, up to ``reseeds`` times.
    Steps are taken in x, along the energy gradient less its components
    along the ones vector and ``weight(rows)`` (a positive multiple of the
    second constraint's x-gradient); ``move(rows, x, step)`` gives the
    trial rows at x - step.  Returns (min E, max E, failed rows).
    """
    rows = 2 * restarts
    S = np.zeros((rows, n))
    free = np.zeros((rows, n), dtype=bool)
    for row in range(rows):
        S[row], free[row] = start(row, 0)
    # direction +1 minimizes E, -1 maximizes
    direction = np.where(np.arange(rows) < restarts, 1.0, -1.0)

    S, ok = project(S, free)
    for attempt in range(1, reseeds + 1):
        if ok.all():
            break
        for row in np.flatnonzero(~ok):
            S[row], free[row] = start(row, attempt)
        S, ok = project(S, free)
    failed = ~ok
    best = np.where(ok, direction * _row_energy(to_x(S), n), np.inf)

    eta0 = 0.1 * s1 / n
    eta = np.full(rows, eta0)
    active = ok.copy()
    for _ in range(max_iters):
        if not active.any():
            break
        X = to_x(S)
        raw = 2.0 * (n * X - s1) * direction[:, None]
        grad = _tangent_step(raw, free, weight(S))
        norm = np.sqrt((grad**2).sum(axis=1))
        stalled = norm <= 1e-14 * s1
        active &= ~stalled
        step = np.where(norm > 0.0, eta / np.maximum(norm, 1e-300), 0.0)
        trial, proj_ok = project(move(S, X, step[:, None] * grad), free)
        trial_x = to_x(trial)
        phi = direction * _row_energy(trial_x, n)
        # the projection may pin a coordinate at zero; reject such trials so
        # the row keeps to its stratum (deeper strata have their own rows)
        alive = np.where(free, trial_x, 1.0).min(axis=1) > 0.0
        accept = active & proj_ok & alive & (phi < best)
        S = np.where(accept[:, None], trial, S)
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
    Y: np.ndarray,
    free: np.ndarray,
    total: float,
    target: float,
    phi: Callable[..., tuple],
    top: float,
    floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows with sum_free Y = ``total`` and sum_free phi(Y) = ``target``.

    A uniform shift of the live support restores the sum; a rescale toward
    the mean (:func:`_scale_root`, with ``phi`` and ``top``) restores the
    second constraint.  The rescale direction sums to zero, so it keeps the
    sum, and one round is exact unless a coordinate was clamped at
    ``floor``, where phi is 0.  A clamped coordinate is pinned there, and
    the next rounds shift and rescale the others.  Returns the rows and a
    per-row success mask: both constraints within relative 1e-11.
    """
    ok = np.zeros(Y.shape[0], dtype=bool)
    live = free.copy()
    for _ in range(_PROJ_ROUNDS):
        cnt = np.maximum(live.sum(axis=1), 1)
        cur = np.where(live, Y, 0.0).sum(axis=1)
        Y = np.maximum(np.where(live, Y + ((total - cur) / cnt)[:, None], Y), floor)
        mean = (total / cnt)[:, None]
        scaled = _scale_root(mean, np.where(live, Y - mean, 0.0), live, target, phi, top)
        good = np.isfinite(scaled).all(axis=1)
        Y = np.where(live & good[:, None], np.maximum(scaled, floor), Y)
        live &= ~(good[:, None] & (Y <= floor))
        # off the support Y = 0 and max(0, 0)^r = 0; exp rows have full support
        sum_err = np.abs(Y.sum(axis=1) - total)
        phi_err = np.abs(phi(Y)[0].sum(axis=1) - target)
        ok = (sum_err <= _PROJ_TOL * np.abs(Y).sum(axis=1)) & (phi_err <= _PROJ_TOL * target)
        if ok.all():
            break
    return Y, ok


def _scale_root(
    mean: np.ndarray,
    D: np.ndarray,
    live: np.ndarray,
    target: float,
    phi: Callable[..., tuple],
    top: float,
) -> np.ndarray:
    """Rows mean + t D, t >= 0, with sum_live phi of them equal to ``target``.

    ``phi(v, d)`` gives max(v, 0)^r or exp(v) elementwise and, given d,
    the rowwise sums of d phi'(v); ``top`` is phi's inverse at ``target``.
    h(t) = sum_live phi(mean + t D) - target is convex and nondecreasing on
    t >= 0 (D sums to 0 and is ordered like phi'); rows with h(0) > 0 have
    no root: NaN.  Bracketed Newton starts at t = 1, the caller's own
    point, in [0, hi], where the most-growing coordinate alone reaches
    ``top``; notes/decisions.md has why it converges and when it stops.
    Rows with D = 0 never move.  The rows come back unclipped.
    """
    # coordinates off the live support are zeroed: 0 + t*0 = 0 and
    # max(0, 0)^r = 0 drop them from every sum without a mask in the loop.
    # exp(0) = 1 would not, but the exp family keeps every coordinate live.
    base = np.where(live, mean, 0.0)
    dm = np.where(live, D, 0.0)
    unsolvable = phi(base)[0].sum(axis=1) - target > _PROJ_TOL * target
    dmax = dm.max(axis=1)
    hi = np.maximum((top - mean[:, 0]) / np.maximum(dmax, 1e-300), 0.0)
    lo = np.zeros_like(hi)
    done = unsolvable | (dmax <= 0.0)
    t = np.minimum(hi, 1.0)
    for _ in range(_NEWTON_PASSES):
        vals, slope = phi(base + t[:, None] * dm, dm)
        sums = vals.sum(axis=1)
        h = sums - target
        noise = _EPS4 * (sums + target)
        lo = np.where(h < 0.0, t, lo)
        hi = np.where(h > 0.0, t, hi)
        step = t - h / np.where(slope > 0.0, slope, np.nan)
        newton = (step > lo) & (step < hi)
        done |= np.abs(h) <= noise
        step = np.where(done, t, np.where(newton, step, 0.5 * (lo + hi)))
        done |= newton & (np.abs(step - t) <= 1e-9 * np.maximum(np.abs(t), 1.0))
        t = step
        if done.all():
            break
    return np.where(unsolvable[:, None], np.nan, base + t[:, None] * dm)
