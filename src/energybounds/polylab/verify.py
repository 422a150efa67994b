"""Exact verification of the discriminant-energy inequality on one polynomial.

The inequality under test, for monic f of degree n with energy
E = n·S2 - S1^2 and discriminant Delta:

    E >= binom(n,2) * 2n * (Delta / Y(n))**(1/binom(n,2)),  Y the hyperfactorial,

checked as the equivalent integer statement E^C * Y(n) >= C^C * (2n)^C * Delta
so equality cases are decided exactly.  Logs of both sides are reported for
margins, alongside the weaker arithmetic-geometric baseline E >= C * Delta^(1/C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import a_factor_log, hyperfactorial, power_sums_from_coeffs
from .factor import MAX_DEGREE, is_irreducible
from .intpoly import IntPolynomial, diffsq_poly
from .realroots import root_census
# perfbench's tracer wraps these names here
from .intpoly import discriminant_exact  # noqa: F401
from .realroots import count_real_roots, is_totally_positive, squarefree_degree  # noqa: F401


@dataclass(frozen=True)
class PolyReport:
    """Everything the corpus and the verifier record about one polynomial.

    ``irreducible`` is None above the supported factoring degree.  The
    log fields are -inf/None in degenerate cases (E = 0 or Delta <= 0);
    ``thm2_holds`` itself never relies on them — it is an exact integer
    comparison.
    """

    poly: IntPolynomial
    all_real: bool
    totally_positive: bool
    irreducible: bool | None
    S1: int
    S2: int
    E: int
    Delta: int
    diffsq_squarefree: bool
    hypothesis_holds: bool
    thm2_holds: bool
    thm2_lhs_log: float
    thm2_rhs_log: float
    thm2_margin_log: float
    edelta_margin_log: float | None

    @property
    def n(self) -> int:
        return self.poly.degree

    @property
    def trace(self) -> int:
        return self.S1


def verify_theorem2(poly: IntPolynomial) -> PolyReport:
    """Fill a PolyReport for a monic integer polynomial.

    One ``root_census`` gives ``all_real`` and ``totally_positive``; a root
    0 is split off first, since it is real and not positive.  Delta is read
    off the squared-difference polynomial, as in ``discriminant_exact``.

    Degree 1 is the empty-product case: E = 0, Delta = 1, and the
    inequality holds with equality (both sides 1 after clearing the
    zeroth power).
    """
    if not poly.is_monic:
        raise ValueError("verification requires a monic polynomial")
    n = poly.degree
    s1, s2 = power_sums_from_coeffs(poly.coeffs, 2)
    energy = n * s2 - s1 * s1
    c = math.comb(n, 2)

    coeffs = list(poly.coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    real, positive, distinct = root_census(coeffs)
    all_real = real == distinct
    totally_positive = all_real and positive == distinct and poly.coeffs[-1] != 0
    irreducible = is_irreducible(poly) if n <= MAX_DEGREE else None
    hypothesis = (n - 1) * s2 < s1 * s1 < n * s2

    if n == 1:
        delta = 1
        squarefree = thm2_holds = True
        lhs_log = rhs_log = margin = edelta_margin = 0.0
    else:
        dpoly, squarefree = diffsq_poly(poly)
        assert -dpoly.coeffs[1] == energy, "trace of the squared-difference poly must equal E"
        delta = (-1) ** c * dpoly.coeffs[-1]  # P(0) = (-1)^C Delta

        # with Delta <= 0 the right side is <= 0 <= any admissible energy
        thm2_holds = delta <= 0 or (
            energy >= 0 and energy**c * hyperfactorial(n) >= c**c * (2 * n) ** c * delta
        )

        log_delta = math.log(delta) if delta > 0 else -math.inf
        lhs_log = c * (math.log(energy) - math.log(c)) if energy > 0 else -math.inf
        rhs_log = a_factor_log(n) + log_delta
        margin = lhs_log - rhs_log if delta > 0 else math.inf
        edelta_margin = lhs_log - log_delta if delta > 0 and energy > 0 else None

    return PolyReport(
        poly=poly,
        all_real=all_real,
        totally_positive=totally_positive,
        irreducible=irreducible,
        S1=s1,
        S2=s2,
        E=energy,
        Delta=delta,
        diffsq_squarefree=squarefree,
        hypothesis_holds=hypothesis,
        thm2_holds=thm2_holds,
        thm2_lhs_log=lhs_log,
        thm2_rhs_log=rhs_log,
        thm2_margin_log=margin,
        edelta_margin_log=edelta_margin,
    )
