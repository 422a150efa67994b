"""Certified real-root counting and isolation via Sturm sequences.

All pass/fail decisions (how many real roots, whether they are positive,
whether any repeat) come from exact sign computations on integer or
rational data.  Floating point appears only in the final refined root
values, after isolation is already certain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .intpoly import (
    IntPolynomial,
    _derive,
    _horner,
    _poly_trim,
    _primitive_int,
    _pseudo_rem,
    poly_gcd,
)


class RootKind(Enum):
    ALL_REAL_DISTINCT = "all_real_distinct"
    NOT_ALL_REAL = "not_all_real"
    REPEATED_ROOTS = "repeated_roots"


@dataclass(frozen=True)
class RootClassification:
    kind: RootKind
    roots: tuple[float, ...] = ()


def sturm_chain(coeffs: Sequence[int]) -> list[list[int]]:
    """Canonical Sturm chain, each member scaled to a primitive integer list.

    Remainders come from integer pseudo-division; scaling by a positive
    constant preserves all sign information, so when the implied power of
    the divisor's lead is negative the pseudo-remainder is flipped back to
    the true remainder's sign before entering the chain.
    """
    f0 = _primitive_int(coeffs)
    if len(f0) <= 1:
        return [f0] if f0 else []
    chain = [f0, _primitive_int(_derive(f0))]
    while len(chain[-1]) > 1:
        f, g = chain[-2], chain[-1]
        rem = _pseudo_rem(f, g)
        if not rem:
            break
        if g[0] < 0 and (len(f) - len(g)) % 2 == 0:
            rem = [-c for c in rem]
        chain.append(_primitive_int([-c for c in rem]))
    return chain


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _variations(signs: Sequence[int]) -> int:
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def _variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    return _variations([_sign(_horner(poly, x)) for poly in chain])


def _variations_inf(chain: Sequence[Sequence[int]], positive: bool) -> int:
    signs = []
    for poly in chain:
        lead = _sign(poly[0])
        deg = len(poly) - 1
        signs.append(lead if positive or deg % 2 == 0 else -lead)
    return _variations(signs)


def count_real_roots(
    poly: IntPolynomial | Sequence[int],
    lo: Fraction | int | None = None,
    hi: Fraction | int | None = None,
) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi].

    None means the corresponding infinity.  Finite endpoints must not be
    roots themselves (raises ValueError), which keeps both conventions
    unambiguous.
    """
    coeffs = poly.coeffs if isinstance(poly, IntPolynomial) else tuple(poly)
    chain = sturm_chain(coeffs)
    for endpoint in (lo, hi):
        if endpoint is not None and _horner(coeffs, Fraction(endpoint)) == 0:
            raise ValueError(f"interval endpoint {endpoint} is a root")
    v_lo = _variations_inf(chain, False) if lo is None else _variations_at(chain, Fraction(lo))
    v_hi = _variations_inf(chain, True) if hi is None else _variations_at(chain, Fraction(hi))
    return v_lo - v_hi


def squarefree_degree(coeffs: Sequence[int]) -> int:
    """Degree of the squarefree part (number of distinct complex roots)."""
    g = poly_gcd(coeffs, _derive(list(coeffs)))
    return len(coeffs) - len(g)


def root_census(poly: IntPolynomial | Sequence[int]) -> tuple[int, int, int]:
    """(distinct real roots, distinct roots in (0, inf), squarefree degree).

    One Sturm chain answers all three questions: sign variations at -inf,
    0 and +inf give the two counts, and the chain's final member is the
    gcd of the polynomial with its derivative, whose degree gives the
    squarefree part.  Zero must not itself be a root.
    """
    coeffs = poly.coeffs if isinstance(poly, IntPolynomial) else tuple(poly)
    trimmed = _poly_trim(list(coeffs))
    if not trimmed or trimmed[-1] == 0:
        raise ValueError("zero constant term: 0 is a root or the polynomial is 0")
    chain = sturm_chain(trimmed)
    v_neg = _variations_inf(chain, False)
    v_pos = _variations_inf(chain, True)
    v_zero = _variations([_sign(p[-1]) for p in chain])
    sf_degree = len(trimmed) - len(chain[-1])
    return v_neg - v_pos, v_zero - v_pos, sf_degree


def certified_roots(poly: IntPolynomial) -> RootClassification:
    """Classify the roots of a monic polynomial (ValueError otherwise); if
    all are real and distinct, return them all.

    Realness and multiplicity decisions are exact, from one Sturm chain
    (its last member is the gcd with the derivative, as in ``root_census``);
    roots are then isolated by interval bisection on exact rational
    endpoints, none of them a root, to width 1e-12 and Newton-polished in
    floats.
    """
    if not poly.is_monic:
        raise ValueError("polynomial must be monic")
    coeffs = poly.coeffs
    n = poly.degree
    chain = sturm_chain(coeffs)
    if len(chain[-1]) > 1:
        return RootClassification(RootKind.REPEATED_ROOTS)
    total = _variations_inf(chain, False) - _variations_inf(chain, True)
    if total < n:
        return RootClassification(RootKind.NOT_ALL_REAL)
    bound = max(abs(c) for c in coeffs) + 2  # Cauchy: every root is in (-bound, bound)
    # a monic polynomial's rational roots are integers, and no point
    # -bound - 1/3 + (2 bound + 1) j / 2^i is one: over 3 * 2^i its numerator
    # is -2^i mod 3.  So no interval end below is a root.
    a, b = Fraction(-3 * bound - 1, 3), Fraction(3 * bound + 2, 3)
    roots: list[float] = []
    stack = [(a, b, _variations_at(chain, a), _variations_at(chain, b))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if count == 1:
            roots.append(_refine_root(coeffs, a, b))
        elif count > 1:
            mid = (a + b) / 2
            vm = _variations_at(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
    roots.sort()
    return RootClassification(RootKind.ALL_REAL_DISTINCT, tuple(roots))


def _refine_root(coeffs: Sequence[int], a: Fraction, b: Fraction) -> float:
    """Bisect (a, b], neither end a root, with exact signs to width 1e-12,
    then Newton-polish."""
    sa = _sign(_horner(coeffs, a))
    while b - a > Fraction(1, 10**12):
        mid = (a + b) / 2
        if _sign(_horner(coeffs, mid)) == sa:
            a = mid
        else:
            b = mid
    x = float((a + b) / 2)
    deriv = _derive(list(coeffs))
    for _ in range(4):
        fx = _horner(coeffs, x)
        dx = _horner(deriv, x)
        if dx == 0.0:
            break
        step = fx / dx
        if not math.isfinite(step) or abs(step) > float(b - a) * 4 + 1e-9:
            break
        x -= step
    return x


def is_totally_positive(poly: IntPolynomial) -> bool:
    """True iff every root is real and strictly positive (multiplicity allowed)."""
    if not poly.is_monic:
        raise ValueError("polynomial must be monic")
    if poly.coeffs[-1] == 0:
        return False
    real, positive, distinct = root_census(poly)
    return real == distinct and positive == distinct
