"""Irreducibility testing for small monic integer polynomials.

Strategy: any monic factor over the integers is the product of a subset of
the complex roots, so we enumerate root subsets up to half the degree,
round the resulting coefficients, and confirm candidates by exact integer
division.  Numerics only ever *propose* a factor.

The roots are ``np.roots`` proposals, Newton-polished on the integer
coefficients, kept when no two lie within a relative 1e-6 and all n linear
factors multiply back to the polynomial; else real-rooted input falls back
to ``certified_roots``.  So a "reducible" verdict is exact, while an
"irreducible" one rests on the float accuracy of roots and subset products.
"""

from __future__ import annotations

import itertools

import numpy as np

from .intpoly import IntPolynomial, _derive, _divmod_monic_int, poly_gcd
from .realroots import RootKind, certified_roots

MAX_DEGREE = 9

# a proposed coefficient farther than this from an integer cannot round to
# a true factor given the root accuracy we achieve on degree <= 9
_ROUND_TOL = 0.2


def _all_roots(poly: IntPolynomial) -> list[complex]:
    coeffs = poly.coeffs
    roots = [_polish(coeffs, complex(z)) for z in np.roots([float(c) for c in coeffs])]
    pairs = itertools.combinations(roots, 2)
    close = any(abs(a - b) <= 1e-6 * max(1.0, abs(a)) for a, b in pairs)
    if close or _candidate_factor(roots) != list(coeffs):
        cls = certified_roots(poly)
        if cls.kind is RootKind.ALL_REAL_DISTINCT:
            roots = [_polish(coeffs, complex(r)) for r in cls.roots]
    return roots


def _polish(coeffs, z: complex) -> complex:
    for _ in range(24):
        val = 0j
        der = 0j
        for c in coeffs:
            der = der * z + val
            val = val * z + c
        if der == 0:
            break
        step = val / der
        z -= step
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            break
    return z


def is_irreducible(poly: IntPolynomial) -> bool:
    """Irreducibility over the integers, for monic degree <= 9.

    Degree one is irreducible; a vanishing constant term or a repeated
    factor is reducible immediately.
    """
    if not poly.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    if poly.degree > MAX_DEGREE:
        raise ValueError(f"degree {poly.degree} > {MAX_DEGREE} not supported")
    if poly.degree == 1:
        return True
    if poly.coeffs[-1] == 0:
        return False
    if len(poly_gcd(poly.coeffs, _derive(list(poly.coeffs)))) > 1:
        return False

    roots = _all_roots(poly)
    const = poly.coeffs[-1]
    for m in range(1, poly.degree // 2 + 1):
        for subset in itertools.combinations(range(poly.degree), m):
            prod = 1.0 + 0j
            for i in subset:
                prod *= roots[i]
            c0 = _nearest_int((-1) ** m * prod)
            if not c0 or const % c0 != 0:
                continue
            factor = _candidate_factor([roots[i] for i in subset])
            if factor is None:
                continue
            _, rem = _divmod_monic_int(poly.coeffs, factor)
            if not rem:
                return False
    return True


def _candidate_factor(roots: list[complex]) -> list[int] | None:
    """Round prod (x - r) to integers; None when clearly not integral."""
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = (
            [coeffs[0]]
            + [coeffs[i] - r * coeffs[i - 1] for i in range(1, len(coeffs))]
            + [-r * coeffs[-1]]
        )
    out = [_nearest_int(c) for c in coeffs]
    return None if None in out else out


def _nearest_int(z: complex) -> int | None:
    """The integer within _ROUND_TOL of z in both parts, if there is one."""
    k = round(z.real)
    return k if max(abs(z.imag), abs(z.real - k)) <= _ROUND_TOL else None
