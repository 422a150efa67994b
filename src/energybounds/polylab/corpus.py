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
the certificate cannot settle get an exact Sturm test.

Leaves are accepted by exact Sturm counts (n distinct real roots, all
positive) and an exact irreducibility check, then reported through
verify_theorem2.
"""

from __future__ import annotations

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
    counters; they do not depend on ``workers``.
    """
    if not isinstance(max_degree, int) or not 1 <= max_degree <= 9:
        raise ValueError("max_degree must be an integer in 1..9")
    prunes = (prune_newton, prune_sturm)
    stats = CorpusStats() if stats is None else stats
    degrees = range(min(2, max_degree), max_degree + 1)
    tops = [(n, [e1]) for n in degrees for e1 in range(n, default_trace_bound(n))]
    if workers > 1:
        # split on (n, e1, e2): a few heavy e1 subtrees would leave workers idle
        tasks = []
        for n, es in tops:
            starts = [es] if len(es) == n else _expand(n, [es], prunes, stats)
            tasks.extend((n, start, prunes) for start in starts)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_subtree, tasks))
    else:
        chunks = [_subtree((n, es, prunes)) for n, es in tops]
    reports = []
    for chunk, chunk_stats in chunks:
        reports.extend(chunk)
        stats.merge(chunk_stats)
    reports.sort(key=lambda r: (r.poly.degree, r.poly.coeffs))
    return reports


def _subtree(
    task: tuple[int, list[int], tuple[bool, bool]],
) -> tuple[list[PolyReport], CorpusStats]:
    """Members below one node of the tree, sorted, with the subtree's counters.

    The walk is depth first over batches of up to ``_BATCH`` nodes of one
    depth, so that one ``_root_proposals`` call serves a whole batch.  The
    floats only propose: every child ``_children`` cuts is cut by an exact
    integer inequality (Newton, the certified interval of ``_child_bounds``)
    or by the exact Sturm test, so the search visits the same nodes as one
    exact test per candidate would.
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
    truncs = [_truncation(n, es) for es in batch]
    rows = _real_rows(_root_proposals(truncs)) if prunes[1] else [None] * len(batch)
    return [
        es + [e]
        for es, gd, zs in zip(batch, truncs, rows)
        for e in _children(n, es, gd, zs, prunes, stats)
    ]


def _children(
    n: int,
    es: list[int],
    gd: list[int],
    zs: list[float] | None,
    prunes: tuple[bool, bool],
    stats: CorpusStats,
) -> list[int]:
    """The values of e_{d+1} that the enabled prunes keep below the node es,
    whose truncation is gd, given gd's real root proposals zs, ascending.

    With the real-rootedness prune on, ``_child_bounds`` confines the
    candidates to one interval; inside it, only those the certificate
    cannot settle get ``_truncation_real_rooted``.  Leaves (d + 1 = n) are
    only narrowed: the root census in ``_accept`` tests them.  When the
    certificate fails, or zs is None, every candidate is tested, as with no
    certificate.
    """
    use_newton, use_sturm = prunes
    d = len(es)
    m = d + 1
    stats.nodes[n, d] += 1
    # always-on cap from the Maclaurin chain against the mean:
    # (e_m/binom)^(1/m) <= e_1/n
    hi = math.comb(n, m) * es[0] ** m // n**m
    lo, sure_lo, sure_hi = 1, 1, 0
    test = use_sturm and m < n
    if use_sturm:
        bounds = None if zs is None else _child_bounds(n, gd, zs, hi)
        if bounds is None:
            stats.fallback_nodes += 1
        else:
            lo, sure_lo, sure_hi, new_hi = bounds
            stats.pruned["certificate"] += hi - max(0, new_hi - lo + 1)
            hi = new_hi
    prev = es[-1]
    prev2 = es[-2] if d >= 2 else 1
    b_prev, b_here, b_next = math.comb(n, d - 1), math.comb(n, d), math.comb(n, m)
    kept = []
    for nxt in range(hi, lo - 1, -1):
        if use_newton and nxt * prev2 * b_here**2 > prev**2 * b_prev * b_next:
            stats.pruned["newton"] += 1
            continue
        if test:
            if sure_lo <= nxt <= sure_hi:
                stats.certified_pass += 1
            else:
                stats.exact_tests += 1
                if not _truncation_real_rooted(n, es + [nxt]):
                    stats.pruned["exact_test"] += 1
                    continue
        kept.append(nxt)
    return kept


def _signed_coeffs(es: Iterable[int]) -> list[int]:
    return [1] + [(-1) ** (i + 1) * e for i, e in enumerate(es)]


#: _FALLING[n][m][i] = (n-i)!/(m-i)!, the truncation's coefficient factors
_FALLING = [
    [[math.factorial(n - i) // math.factorial(m - i) for i in range(m + 1)] for m in range(n + 1)]
    for n in range(10)
]


def _truncation(n: int, es: list[int]) -> list[int]:
    """The (n-m)-th derivative shared by every completion of e_1..e_m.

    Its coefficients are a_i (n-i)!/(m-i)!, where a_i = (-1)^i e_i are f's.
    """
    return [a * r for a, r in zip(_signed_coeffs(es), _FALLING[n][len(es)])]


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
    check give None.
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


def _accept(n: int, es: list[int], stats: CorpusStats) -> PolyReport | None:
    stats.leaves += 1
    coeffs = _signed_coeffs(es)
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
