"""Exact arithmetic for integer polynomials.

Everything here is exact: the squared-difference polynomial (roots
(x_i - x_j)^2, i < j) is built from the root power sums by Newton's
identities, and the discriminant is read off its constant term.  Floating
point never enters any value returned by this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core import power_sums_from_coeffs


@dataclass(frozen=True)
class IntPolynomial:
    """A univariate integer polynomial of degree >= 1, leading coefficient first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"integer coefficient expected, got {c!r}")
        if coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[0] == 1

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPolynomial":
        out = [1]
        for r in roots:
            out = _poly_mul(out, [1, -r])
        return cls(tuple(out))

    def __call__(self, x):
        return _horner(self.coeffs, x)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(tuple(_poly_mul(list(self.coeffs), list(other.coeffs))))

    def to_line(self) -> str:
        return " ".join(str(c) for c in self.coeffs)


def parse_poly_line(line: str) -> IntPolynomial:
    """Parse one polynomial: integer coefficients leading-first, space or
    comma separated, e.g. ``1 -6 11 -6``."""
    tokens = line.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty polynomial line")
    try:
        coeffs = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise ValueError(f"malformed polynomial line {line!r}") from exc
    return IntPolynomial(coeffs)


def parse_poly_text(text: str) -> list[IntPolynomial]:
    """Parse a text block, one polynomial per line; '#' lines are comments."""
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse_poly_line(stripped))
    return out


# ---------------------------------------------------------------------------
# coefficient-list helpers (leading-first; [] is the zero polynomial)

def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _horner(coeffs: Sequence, x):
    """Value at x, in the arithmetic of x (int, Fraction or float)."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _poly_trim(a: list) -> list:
    i = 0
    while i < len(a) and a[i] == 0:
        i += 1
    return a[i:]


def _derive(a: Sequence) -> list:
    deg = len(a) - 1
    return [(deg - i) * c for i, c in enumerate(a[:-1])]


def _divmod_monic_int(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Exact integer division by a monic divisor (quotient and remainder)."""
    if b[0] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    quot = []
    while len(rem) >= len(b):
        q = rem[0]
        quot.append(q)
        for i in range(1, len(b)):
            rem[i] -= q * b[i]
        rem.pop(0)
    return quot, _poly_trim(rem)


def _primitive_int(a: Sequence[int]) -> list[int]:
    """Divide out the content of an integer list (sign kept)."""
    a = _poly_trim(list(a))
    if not a:
        return []
    g = math.gcd(*(abs(c) for c in a))
    return [c // g for c in a]


def _pseudo_rem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """lc(g)^(deg f - deg g + 1) * (f mod g), computed purely in integers.

    Each elimination step multiplies the running remainder by lc(g) before
    cancelling its lead, so no step ever needs a fraction.  The result is
    the true remainder scaled by a known power of lc(g).
    """
    rem = list(f)
    lg = g[0]
    while len(rem) >= len(g):
        lead = rem[0]
        rem = [lg * c for c in rem[1:]]
        for i in range(1, len(g)):
            rem[i - 1] -= lead * g[i]
    return _poly_trim(rem)


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive integer gcd (positive leading coefficient); [] for gcd(0,0).

    Euclid on primitive pseudo-remainders: dividing out the content after
    every step keeps coefficients small without leaving integer arithmetic.
    """
    fa = _primitive_int(a)
    fb = _primitive_int(b)
    while fb:
        r = _pseudo_rem(fa, fb)
        fa, fb = fb, _primitive_int(r)
    if fa and fa[0] < 0:
        fa = [-c for c in fa]
    return fa


# ---------------------------------------------------------------------------
# the squared-difference polynomial

def diffsq_poly(poly: IntPolynomial) -> tuple[IntPolynomial, bool]:
    """Monic integer polynomial with roots (x_i - x_j)^2 over pairs i < j.

    With p_l the power sums of the roots x_i (p_0 = n), the power sums of
    the C = binom(n,2) squared differences are

        q_m = sum_{i<j} (x_i - x_j)^(2m) = 1/2 sum_{l=0}^{2m} C(2m,l) (-1)^l p_l p_{2m-l},

    and Newton's identities k e_k = sum_{i=1}^{k} (-1)^(i-1) e_{k-i} q_i
    turn them into the elementary symmetric functions e_k of the squared
    differences; P has coefficients (-1)^k e_k.  Both divisions are exact,
    so every value is an integer.  The second return value reports whether
    P is squarefree, i.e. whether the squared differences are pairwise
    distinct; ``_coprime_mod_q`` certifies most cases, exact Euclid the rest.
    """
    if not poly.is_monic:
        raise ValueError("polynomial must be monic")
    n = poly.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    c = n * (n - 1) // 2
    p = [n, *power_sums_from_coeffs(poly.coeffs, 2 * c)]
    q = [0]
    for m in range(1, c + 1):
        twice = sum((-1) ** l * math.comb(2 * m, l) * p[l] * p[2 * m - l] for l in range(2 * m + 1))
        q.append(_exact_div(twice, 2))
    e = [1]
    for k in range(1, c + 1):
        e.append(_exact_div(sum((-1) ** (i - 1) * e[k - i] * q[i] for i in range(1, k + 1)), k))
    pcoeffs = [(-1) ** k * ek for k, ek in enumerate(e)]
    deriv = _derive(pcoeffs)
    squarefree = _coprime_mod_q(pcoeffs, deriv) or len(poly_gcd(pcoeffs, deriv)) == 1
    return IntPolynomial(tuple(pcoeffs)), squarefree


def discriminant_exact(poly: IntPolynomial) -> int:
    """Exact integer discriminant prod_{i<j} (x_i - x_j)^2 of a monic poly.

    P(0) is the product of the C = binom(n,2) negated roots of P, so for
    the squared-difference polynomial P(0) = (-1)^C * Delta.  Degree 1 has
    the empty product 1.
    """
    if not poly.is_monic:
        raise ValueError("polynomial must be monic")
    n = poly.degree
    if n == 1:
        return 1
    return (-1) ** math.comb(n, 2) * diffsq_poly(poly)[0].coeffs[-1]


def _exact_div(a: int, b: int) -> int:
    quot, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"inexact division of {a} by {b}")
    return quot


_Q = 2**61 - 1  # a Mersenne prime


def _coprime_mod_q(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether gcd(a mod q, b mod q) is constant.  For monic a, True proves
    a and b coprime over the integers (W. S. Brown, J. ACM 18, 1971): a common
    factor could be taken monic, and it would stay a common factor mod q."""
    fa = _poly_trim([c % _Q for c in a])
    fb = _poly_trim([c % _Q for c in b])
    while fb:
        inv = pow(fb[0], -1, _Q)
        fb = [c * inv % _Q for c in fb]
        fa, fb = fb, _poly_trim([c % _Q for c in _divmod_monic_int(fa, fb)[1]])
    return len(fa) == 1
