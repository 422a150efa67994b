"""Exhaustive enumeration of irreducible totally positive polynomials.

Search space: monic integer polynomials of degree n whose roots are all
real, distinct and positive, with trace below 2n.  The tree is walked
over the elementary symmetric values e_1..e_n, all of which are positive
integers for such a polynomial, so

  * e_1 ranges over [n, 2n): AM-GM gives e_1 >= n * e_n^(1/n) >= n;
  * e_k is capped by the Maclaurin comparison with e_1, which keeps every
    branch finite and is always applied;
  * optional interior prunes (Newton's inequalities, and real-rootedness of
    the matching derivative truncation) only cut subtrees that provably
    contain no member, so disabling either must not change the output — a
    property the tests exercise.  Newton's inequalities at every ancestor
    imply Maclaurin's between adjacent e_k (Hardy, Littlewood and Pólya,
    *Inequalities*, §2.22), so an adjacent-Maclaurin prune would cut
    nothing that Newton's does not.

The real-rootedness prune admits one integer interval of e_{d+1} per node,
proved with exact integer signs (see ``_child_bounds``); only candidates
the certificate cannot settle get an exact Sturm test.  Floats filter,
integers prove: ``_filtered_bounds`` builds the same certificate for a
whole batch of nodes in float64, and keeps a float result only where an
a-priori error bound shows it equals the exact one; every other node gets
the exact ``_child_bounds``.  So the output does not depend on the filter.

One ``logging`` INFO line per finished (degree, e_1) subtree reports its
internal nodes, leaves and members.

Leaves are accepted by exact Sturm counts (n distinct real roots, all
positive) and an exact irreducibility check, then reported through
verify_theorem2.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .factor import is_irreducible
from .intpoly import IntPolynomial, _derive, _horner
from .realroots import root_census
from .verify import PolyReport, verify_theorem2

#: isolating intervals have ends on the dyadic grid 2^-_GRID ...
_GRID = 40
#: ... and reach about 2^-_REL times the root to each side of its proposal
_REL = 30
#: nodes per ``_root_proposals`` call
_BATCH = 128
#: the unit roundoff of float64
_U = 2.0**-53

log = logging.getLogger(__name__)


@dataclass
class CorpusStats:
    """Deterministic work counters of one enumeration; no timings.

    ``pruned`` counts the children cut by each prune, checked in the order
    certificate interval, Newton, exact Sturm test; the certificate's cuts
    include leaves.
    """

    nodes: Counter = field(default_factory=Counter)  # (degree, depth) -> internal nodes
    pruned: Counter = field(default_factory=Counter)  # prune -> children cut
    certified_pass: int = 0  # children the certificate admits without a test
    exact_tests: int = 0  # _truncation_real_rooted calls
    fallback_nodes: int = 0  # nodes whose certificate failed: per-candidate scan
    filter_fallbacks: int = 0  # nodes with real proposals the float filter left to _child_bounds
    leaves: int = 0  # leaves given the root census
    leaf_rejects: Counter = field(default_factory=Counter)  # reason -> leaves

    def merge(self, other: CorpusStats) -> None:
        for f in fields(self):
            mine = getattr(self, f.name)
            if isinstance(mine, Counter):
                mine.update(getattr(other, f.name))
            else:
                setattr(self, f.name, mine + getattr(other, f.name))

    def as_dict(self) -> dict:
        degrees = sorted({n for n, _ in self.nodes})
        kinds = ("certificate", "newton", "exact_test")
        return {
            "internal_nodes": {str(n): [self.nodes[n, d] for d in range(1, n)] for n in degrees},
            "pruned": {k: self.pruned[k] for k in kinds},
            "certified_pass": self.certified_pass,
            "exact_tests": self.exact_tests,
            "fallback_nodes": self.fallback_nodes,
            "filter_fallbacks": self.filter_fallbacks,
            "leaves": self.leaves,
            "leaf_rejects": {k: self.leaf_rejects[k] for k in ("census", "reducible")},
        }


def default_trace_bound(n: int) -> int:
    """Exclusive trace bound: members satisfy trace < 2n."""
    return 2 * n


def enumerate_corpus(
    max_degree: int,
    *,
    prune_newton: bool = True,
    prune_sturm: bool = True,
    workers: int = 1,
    stats: CorpusStats | None = None,
) -> list[PolyReport]:
    """All members up to max_degree, sorted by (degree, coefficients).

    Linear polynomials are counted separately from the headline corpus, so
    degrees below 2 are skipped unless max_degree itself is 1 (whose only
    member is x - 1).  A ``stats`` record, when given, receives the run's
    counters; they do not depend on ``workers``.  Each finished (degree,
    e_1) subtree logs one INFO line, in the same order for any ``workers``.
    """
    if not isinstance(max_degree, int) or not 1 <= max_degree <= 9:
        raise ValueError("max_degree must be an integer in 1..9")
    prunes = (prune_newton, prune_sturm)
    stats = CorpusStats() if stats is None else stats
    degrees = range(min(2, max_degree), max_degree + 1)
    tops = [(n, [e1]) for n in degrees for e1 in range(n, default_trace_bound(n))]
    reports = []
    for (n, (e1,)), (members, sub) in zip(tops, _walk(tops, prunes, workers)):
        log.info(
            "degree %d, e1 = %d: %d internal nodes, %d leaves, %d members",
            n, e1, sum(sub.nodes.values()), sub.leaves, len(members),
        )
        reports.extend(members)
        stats.merge(sub)
    reports.sort(key=lambda r: (r.poly.degree, r.poly.coeffs))
    return reports


def _walk(
    tops: list[tuple[int, list[int]]], prunes: tuple[bool, bool], workers: int
) -> Iterable[tuple[list[PolyReport], CorpusStats]]:
    """The members and counters below each top node, in the order of tops,
    each yielded as soon as its subtree is done."""
    if workers <= 1:
        for n, es in tops:
            yield _subtree((n, es, prunes))
        return
    # split on (n, e1, e2): a few heavy e1 subtrees would leave workers idle
    heads, tasks = [], []
    for n, es in tops:
        head = CorpusStats()
        starts = [es] if len(es) == n else _expand(n, [es], prunes, head)
        heads.append((head, len(starts)))
        tasks.extend((n, start, prunes) for start in starts)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(_subtree, tasks)
        for sub, count in heads:
            members = []
            for chunk, chunk_stats in itertools.islice(chunks, count):
                members.extend(chunk)
                sub.merge(chunk_stats)
            yield members, sub


def _subtree(
    task: tuple[int, list[int], tuple[bool, bool]],
) -> tuple[list[PolyReport], CorpusStats]:
    """Members below one node of the tree, sorted, with the subtree's counters.

    The walk is depth first over batches of up to ``_BATCH`` nodes of one
    depth, so that one ``_root_proposals`` call serves a whole batch.  The
    floats propose roots, and decide only what their error bounds prove:
    every child ``_children`` cuts is cut by an exact integer inequality
    (Newton, the certified interval of ``_child_bounds``) or by the exact
    Sturm test, so the search visits the same nodes as one exact test per
    candidate would.
    """
    n, start, prunes = task
    stats = CorpusStats()
    out: list[PolyReport] = []
    stack = [[start]]
    while stack:
        batch = stack.pop()
        if len(batch[0]) == n:
            for es in batch:
                report = _accept(n, es, stats)
                if report is not None:
                    out.append(report)
        else:
            kids = _expand(n, batch, prunes, stats)
            stack.extend(kids[i : i + _BATCH] for i in range(0, len(kids), _BATCH))
    out.sort(key=lambda r: r.poly.coeffs)
    return out, stats


def _expand(
    n: int, batch: list[list[int]], prunes: tuple[bool, bool], stats: CorpusStats
) -> list[list[int]]:
    """The children of a batch of internal nodes of one depth."""
    caps = [_cap(n, es) for es in batch]
    bounds = _batch_bounds(n, batch, caps, stats) if prunes[1] else [None] * len(batch)
    return [
        es + [e]
        for es, cap, b in zip(batch, caps, bounds)
        for e in _children(n, es, cap, b, prunes, stats)
    ]


def _cap(n: int, es: list[int]) -> int:
    """The always-on cap on the next value, from the Maclaurin chain against
    the mean: (e_m/binom)^(1/m) <= e_1/n."""
    m = len(es) + 1
    return math.comb(n, m) * es[0] ** m // n**m


def _children(
    n: int,
    es: list[int],
    cap: int,
    bounds: tuple[int, int, int, int] | None,
    prunes: tuple[bool, bool],
    stats: CorpusStats,
) -> list[int]:
    """The values of e_{d+1} that the enabled prunes keep below the node es,
    descending, given its ``_cap`` and its certificate ``bounds`` (see
    ``_child_bounds``), or None.

    With the real-rootedness prune on, the certificate confines the
    candidates to one interval; inside it, only those it cannot settle get
    ``_truncation_real_rooted``.  Leaves (d + 1 = n) are only narrowed: the
    root census in ``_accept`` tests them.  Without a certificate every
    candidate is tested.
    """
    use_newton, use_sturm = prunes
    d = len(es)
    m = d + 1
    stats.nodes[n, d] += 1
    lo, sure_lo, sure_hi, hi = 1, 1, 0, cap
    if use_sturm:
        if bounds is None:
            stats.fallback_nodes += 1
        else:
            lo, sure_lo, sure_hi, hi = bounds
            stats.pruned["certificate"] += cap - max(0, hi - lo + 1)
    if use_newton:
        # Newton's e_{d+1} e_{d-1} / (C(n,d+1) C(n,d-1)) <= (e_d / C(n,d))^2
        # keeps exactly the candidates up to this floor
        prev, prev2 = es[-1], es[-2] if d >= 2 else 1
        b_prev, b_here, b_next = math.comb(n, d - 1), math.comb(n, d), math.comb(n, m)
        top = min(hi, prev**2 * b_prev * b_next // (prev2 * b_here**2))
        stats.pruned["newton"] += max(0, hi - max(top, lo - 1))
        hi = top
    if not (use_sturm and m < n):
        return list(range(hi, lo - 1, -1))
    # the certified passes are top..bottom; the tested candidates lie above
    # them, down to split + 1, and below them, from split down
    top, bottom = min(sure_hi, hi), max(sure_lo, lo)
    split = max(top, lo - 1)
    stats.certified_pass += max(0, top - bottom + 1)
    return (
        _tested(n, es, range(hi, split, -1), stats)
        + list(range(top, bottom - 1, -1))
        + _tested(n, es, range(min(bottom - 1, split), lo - 1, -1), stats)
    )


def _tested(n: int, es: list[int], values: range, stats: CorpusStats) -> list[int]:
    """The values e whose child es + [e] passes the exact truncation test."""
    kept = []
    for e in values:
        stats.exact_tests += 1
        if _truncation_real_rooted(n, es + [e]):
            kept.append(e)
        else:
            stats.pruned["exact_test"] += 1
    return kept


#: _FALLING[n][m][i] = (-1)^i (n-i)!/(m-i)!, the truncation's coefficient
#: factors with the signs of f's coefficients
_FALLING = [
    [
        [(-1) ** i * math.factorial(n - i) // math.factorial(m - i) for i in range(m + 1)]
        for m in range(n + 1)
    ]
    for n in range(10)
]


def _truncation(n: int, es: list[int]) -> list[int]:
    """The (n-m)-th derivative shared by every completion of e_1..e_m.

    Its coefficients are a_i (n-i)!/(m-i)!, where a_i = (-1)^i e_i are f's.
    """
    return [r * e for r, e in zip(_FALLING[n][len(es)], [1, *es])]


def _truncation_real_rooted(n: int, es: list[int]) -> bool:
    """Whether the derivative of f seen so far could come from real roots.

    With e_1..e_m fixed, the (n-m)-th derivative of every completion is the
    same degree-m polynomial; by Rolle it must itself have only real,
    strictly positive roots (multiplicities allowed) for f to qualify.
    This is the exact test, one Sturm chain per call.  ``_child_bounds``
    settles most candidates without it, by a proof in exact integers; the
    candidates it cannot settle, and every candidate of a node whose
    certificate fails, still come here.
    """
    real, positive, distinct = root_census(_truncation(n, es))
    return real == distinct and positive == distinct


def _root_proposals(polys: list[list[int]]) -> np.ndarray:
    """Float roots of integer polynomials of one degree, one row each.

    They are the eigenvalues of the companion matrices, as in ``np.roots``,
    computed in one batch; only proposals, never trusted.
    """
    p = np.array(polys, dtype=float)
    k, d = p.shape[0], p.shape[1] - 1
    comp = np.zeros((k, d, d))
    comp[:, 0, :] = -p[:, 1:] / p[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _real_rows(zs: np.ndarray) -> list[list[float] | None]:
    """Each row ascending, or None when it holds a complex or non-finite value."""
    ok = np.isfinite(zs).all(axis=1)
    if np.iscomplexobj(zs):
        ok &= ~zs.imag.any(axis=1)
        zs = zs.real
    return [row if good else None for row, good in zip(np.sort(zs, axis=1).tolist(), ok.tolist())]


def _scale(coeffs: list[int]) -> list[int]:
    """Coefficients whose value at num is p(num / 2^_GRID) * 2^(_GRID * deg p)."""
    return [c << (_GRID * i) for i, c in enumerate(coeffs)]


def _child_bounds(
    n: int, gd: list[int], zs: list[float], cap: int
) -> tuple[int, int, int, int] | None:
    """(lo, sure_lo, sure_hi, hi) for the node whose truncation is gd: the
    truncation test on the child with next value e, for 1 <= e <= cap,
    passes when sure_lo <= e <= sure_hi and fails outside [lo, hi].  None
    when the certificate cannot be built from zs, ascending real proposals
    of gd's roots.

    Let d = deg gd and m = d + 1.  The child's truncation is g = H + c,
    where H' = gd, H(0) = 0 and c = (-1)^m (n-m)! e.  If gd has d simple
    real roots, g is real-rooted (multiplicity allowed) exactly when
    H(r) + c <= 0 at each local minimum r of H and >= 0 at each local
    maximum.  Its roots are then positive by Descartes' rule, since every
    e_k >= 1 makes g's coefficients alternate strictly.  So the passing e
    form one interval.

    The certificate, in exact integers: each proposal is widened to a
    dyadic interval [a, b] whose ends give gd opposite nonzero signs; d
    disjoint such intervals prove d simple roots, one in each, and the sign
    at b tells a minimum (+) from a maximum (-).  With t the interval's
    midpoint, |H(t) - H(r)| <= M (b - a)^2 / 4, because gd(r) = 0; M bounds
    |gd'| on the hull of the intervals by |gd'|'s coefficients in absolute
    value.  Candidates whose verdict that enclosure of H(r) cannot decide
    lie inside [lo, hi] but outside [sure_lo, sure_hi], and get the exact
    test.  Fewer than d proposals, overlapping intervals or a failed sign
    check give None.  ``_filtered_bounds`` gives the same tuple from floats
    where it can prove it; this is the reference, and the path for the rest.
    """
    m = len(gd)
    if len(zs) != m - 1:
        return None
    mids = [round(z * 2.0**_GRID) for z in zs]
    halves = [(abs(t) >> _REL) + 1 for t in mids]
    g_s = _scale(gd)
    h_s = _scale([c // (m - i) for i, c in enumerate(gd)] + [0])  # H
    reach = max(abs(mids[0] - halves[0]), abs(mids[-1] + halves[-1]))
    bound = _horner(_scale([abs(c) for c in _derive(gd)]), reach)
    s = (-1) ** m
    # e * scale is compared with u = -s H(r) 2^(_GRID m)
    scale = math.factorial(n - m) << (_GRID * m)
    lo, sure_lo, sure_hi, hi = 1, 1, cap, cap
    prev_b = None
    for t, half in zip(mids, halves):
        a, b = t - half, t + half
        if prev_b is not None and a <= prev_b:
            return None
        prev_b = b
        sa, sb = _horner(g_s, a), _horner(g_s, b)
        if sa == 0 or sb == 0 or (sa > 0) == (sb > 0):
            return None
        err = bound * half * half
        u = -s * _horner(h_s, t)
        if (sb > 0) == (s > 0):  # the condition reads e <= u / scale
            sure_hi = min(sure_hi, (u - err) // scale)
            hi = min(hi, (u + err) // scale)
        else:  # e >= u / scale
            sure_lo = max(sure_lo, -(-(u + err) // scale))
            lo = max(lo, -(-(u - err) // scale))
    return lo, sure_lo, sure_hi, hi


def _batch_bounds(
    n: int, batch: list[list[int]], caps: list[int], stats: CorpusStats
) -> list[tuple[int, int, int, int] | None]:
    """``_child_bounds``' certificate for every node of a batch of one depth,
    given the nodes' ``_cap`` values, or None where it cannot be built.

    One ``_root_proposals`` call serves the batch.  ``_filtered_bounds``
    settles what it can in float64; every other node whose proposals are
    real gets the exact ``_child_bounds``, counted in ``filter_fallbacks``.
    """
    truncs = [_truncation(n, es) for es in batch]
    zs = _root_proposals(truncs)
    out = _filtered_bounds(n, truncs, zs, caps)
    for i, row in enumerate(_real_rows(zs)):
        if out[i] is None and row is not None:
            stats.filter_fallbacks += 1
            out[i] = _child_bounds(n, truncs[i], row, caps[i])
    return out


def _filtered_bounds(
    n: int, truncs: list[list[int]], zs: np.ndarray, caps: list[int]
) -> list[tuple[int, int, int, int] | None]:
    """``_child_bounds(n, gd, row, cap)`` for each truncation of a batch of
    one degree d, with its row of ``zs`` and its cap, computed in float64;
    None wherever the floats cannot prove their tuple equal to the exact one.

    The dyadic ends a and b and the midpoint t come from the proposals as in
    ``_child_bounds``, and are exact in float64 below 2^52.  Horner's rule
    at x on a polynomial of degree p with exact coefficients errs by at most
    gamma_2p sum |c_i| |x|^i (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 5.1); ``_horner_float`` returns a bound a
    little above that.  A sign of g_d at a or b is kept only when the value
    clears its bound.  Each (u -+ err)/scale gets an enclosure from the bounds
    on H(t) and on M, plus the roundings that follow, and its floor or
    ceiling is kept only when both ends of the enclosure give the same
    integer.  Where g_d has an integer root, t is that root, and u/scale
    may be an integer that err moves by far less than an ulp: that floor is
    straddled, and the node falls back.  So do rows that are complex,
    non-finite or of a shape other than (len(truncs), d), coefficients of
    magnitude 2^53 or more, and overlapping intervals.
    """
    k, m = len(truncs), len(truncs[0])
    d = m - 1
    if zs.shape != (k, d):
        return [None] * k
    unit = 2.0**-_GRID
    with np.errstate(all="ignore"):  # inf and nan fail the checks below
        ok = np.isfinite(zs).all(axis=1)
        if np.iscomplexobj(zs):
            ok &= ~zs.imag.any(axis=1)
            zs = zs.real
        G = np.array(truncs, dtype=float)
        ok &= (np.abs(G) < 2.0**53).all(axis=1)
        t = np.rint(np.sort(zs, axis=1) * 2.0**_GRID)
        half = np.floor(np.abs(t) * 2.0**-_REL) + 1.0
        ab = np.hstack([t - half, t + half])  # a and b, exact below 2^52
        g, g_err = _horner_float(G, ab * unit)
        gb = g[:, d:]
        ok &= (
            (np.abs(t) < 2.0**52).all(axis=1)
            & (ab[:, 1:d] > ab[:, d : 2 * d - 1]).all(axis=1)  # disjoint intervals
            & (np.abs(g) > g_err).all(axis=1)
            & ((g[:, :d] > 0) != (gb > 0)).all(axis=1)
        )
        # H' = g_d, H(0) = 0: G / (m - i) is exact, as in _child_bounds
        h, h_err = _horner_float(np.hstack([G / (m - np.arange(m)), np.zeros((k, 1))]), t * unit)
        reach = np.maximum(np.abs(ab[:, :1]), np.abs(ab[:, -1:]))
        bound, bound_err = _horner_float(np.abs(G[:, :-1] * (d - np.arange(d))), reach * unit)
        w = (half * unit) ** 2
        s = -1.0 if m % 2 else 1.0
        u, err = -s * h, bound * w
        # (u -+ err)/scale = (-s H(t) -+ M w) / (n - m)!, in units of the roots
        fact = math.factorial(n - m)
        delta = 2.0 * (h_err + bound_err * w + 4.0 * _U * (np.abs(u) + err)) / fact
        # at a maximum of H the condition reads e <= u / scale: floors; at a
        # minimum e >= u / scale: ceilings, taken as -floor(-x)
        at_max = (gb > 0) == (s > 0)
        flip = np.where(at_max, 1.0, -1.0)
        ints = []
        for x in ((u - err) / fact, (u + err) / fact):
            low, high = np.floor(flip * x - delta), np.floor(flip * x + delta)
            ok &= ((low == high) & np.isfinite(low)).all(axis=1)
            ints.append(low)
        minus, plus = ints
        bounds = np.stack(
            [
                np.maximum(-np.where(at_max, np.inf, minus).min(axis=1), 1.0),  # lo
                np.maximum(-np.where(at_max, np.inf, plus).min(axis=1), 1.0),  # sure_lo
                np.minimum(np.where(at_max, minus, np.inf).min(axis=1), caps),  # sure_hi
                np.minimum(np.where(at_max, plus, np.inf).min(axis=1), caps),  # hi
            ],
            axis=1,
        )
        rows = np.where(ok[:, None], bounds, 0.0).astype(np.int64).tolist()
    return [tuple(row) if good else None for row, good in zip(rows, ok.tolist())]


def _horner_float(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horner's rule for rows of coefficients (k, p + 1), leading first, at
    points x (k, j), with a bound on each value's rounding error: (2p + 2) u
    sum |c_i| |x|^i, above gamma_2p and the rounding of that sum itself."""
    mags, ax = np.abs(coeffs), np.abs(x)
    val, mag = coeffs[:, :1], mags[:, :1]
    for j in range(1, coeffs.shape[1]):
        val, mag = val * x + coeffs[:, j : j + 1], mag * ax + mags[:, j : j + 1]
    return val, (2 * coeffs.shape[1]) * _U * mag


def _accept(n: int, es: list[int], stats: CorpusStats) -> PolyReport | None:
    stats.leaves += 1
    coeffs = _truncation(n, es)  # the 0-th derivative: f itself
    real, positive, _ = root_census(coeffs)
    if real != n or positive != n:  # n distinct positive real roots, hence squarefree
        stats.leaf_rejects["census"] += 1
        return None
    poly = IntPolynomial(tuple(coeffs))
    if not is_irreducible(poly):
        stats.leaf_rejects["reducible"] += 1
        return None
    return verify_theorem2(poly)


def corpus_to_csv(reports: Iterable[PolyReport]) -> str:
    """CSV rendering, one row per member; floats use repr-style %.17g."""
    lines = ["degree,coeffs,trace,E,Delta,diffsq_squarefree,thm2_margin_log"]
    for r in reports:
        lines.append(
            ",".join(
                (
                    str(r.poly.degree),
                    "|".join(str(c) for c in r.poly.coeffs),
                    str(r.trace),
                    str(r.E),
                    str(r.Delta),
                    "true" if r.diffsq_squarefree else "false",
                    format(r.thm2_margin_log, ".17g"),
                )
            )
        )
    return "\n".join(lines) + "\n"
