"""Exhaustive enumeration of irreducible totally positive polynomials.

Search space: monic integer polynomials of degree n whose roots are all
real, distinct and positive, with trace below a bound (default 2n).  The
tree is walked over the elementary symmetric values e_1..e_n, all of which
are positive integers for such a polynomial, so

  * e_1 ranges over [n, bound): AM-GM gives e_1 >= n * e_n^(1/n) >= n;
  * e_k is capped by the Maclaurin comparison with e_1, which keeps every
    branch finite and is always applied;
  * optional interior prunes (adjacent Maclaurin, Newton's inequalities,
    and real-rootedness of the matching derivative truncation) only cut
    subtrees that provably contain no member, so disabling any of them
    must not change the output — a property the tests exercise.

Leaves are accepted by exact Sturm counts (n distinct real roots, all
positive) and an exact irreducibility check, then reported through
verify_theorem2.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable

from .factor import is_irreducible
from .intpoly import IntPolynomial
from .realroots import root_census
from .verify import PolyReport, verify_theorem2


def default_trace_bound(n: int) -> int:
    """Exclusive trace bound: members satisfy trace < 2n."""
    return 2 * n


def enumerate_corpus(
    max_degree: int,
    trace_bound_fn: Callable[[int], int] | None = None,
    *,
    prune_maclaurin: bool = True,
    prune_newton: bool = True,
    prune_sturm: bool = True,
    workers: int = 1,
) -> list[PolyReport]:
    """All members up to max_degree, sorted by (degree, coefficients).

    Linear polynomials are counted separately from the headline corpus, so
    degrees below 2 are skipped unless max_degree itself is 1 (whose only
    member is x - 1).
    """
    if not isinstance(max_degree, int) or not 1 <= max_degree <= 9:
        raise ValueError("max_degree must be an integer in 1..9")
    bound_fn = trace_bound_fn or default_trace_bound
    tasks = [
        (n, e1, prune_maclaurin, prune_newton, prune_sturm)
        for n in range(min(2, max_degree), max_degree + 1)
        for e1 in range(n, bound_fn(n))
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_subtree, tasks))
    else:
        chunks = [_subtree(t) for t in tasks]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=lambda r: (r.poly.degree, r.poly.coeffs))
    return reports


def _subtree(task: tuple[int, int, bool, bool, bool]) -> list[PolyReport]:
    n, e1, use_maclaurin, use_newton, use_sturm = task
    binoms = [math.comb(n, k) for k in range(n + 1)]
    out: list[PolyReport] = []
    stack = [[e1]]
    while stack:
        es = stack.pop()
        d = len(es)
        if d == n:
            report = _accept(n, es)
            if report is not None:
                out.append(report)
            continue
        # always-on cap from the Maclaurin chain against the mean:
        # (e_{d+1}/binom)^(1/(d+1)) <= e_1/n
        hi = binoms[d + 1] * e1 ** (d + 1) // n ** (d + 1)
        prev = es[-1]
        prev2 = es[-2] if d >= 2 else 1
        for nxt in range(hi, 0, -1):
            if (
                use_maclaurin
                and nxt**d * binoms[d] ** (d + 1) > prev ** (d + 1) * binoms[d + 1] ** d
            ):
                continue
            if (
                use_newton
                and nxt * prev2 * binoms[d] ** 2 > prev**2 * binoms[d - 1] * binoms[d + 1]
            ):
                continue
            child = es + [nxt]
            if use_sturm and 2 <= d + 1 < n and not _truncation_real_rooted(n, child):
                continue
            stack.append(child)
    out.sort(key=lambda r: r.poly.coeffs)
    return out


def _signed_coeffs(es: Iterable[int]) -> list[int]:
    return [1] + [(-1) ** (i + 1) * e for i, e in enumerate(es)]


def _truncation_real_rooted(n: int, es: list[int]) -> bool:
    """Whether the derivative of f seen so far could come from real roots.

    With e_1..e_m fixed, the (n-m)-th derivative of every completion is the
    same degree-m polynomial; by Rolle it must itself have only real,
    strictly positive roots (multiplicities allowed) for f to qualify.
    """
    m = len(es)
    a = _signed_coeffs(es)
    g = [a[i] * math.factorial(n - i) // math.factorial(m - i) for i in range(m + 1)]
    real, positive, distinct = root_census(g)
    return real == distinct and positive == distinct


def _accept(n: int, es: list[int]) -> PolyReport | None:
    coeffs = _signed_coeffs(es)
    real, positive, _ = root_census(coeffs)
    if real != n or positive != n:  # n distinct positive real roots, hence squarefree
        return None
    poly = IntPolynomial(tuple(coeffs))
    if not is_irreducible(poly):
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
