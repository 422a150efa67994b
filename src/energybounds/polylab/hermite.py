"""Monic polynomial solutions of f'' - (lam*x - mu) f' + lam*n*f = 0.

For every rational lam > 0 and mu the degree-n solution has, exactly,
energy * lam == n^2 (n-1) and discriminant * lam^C == prod k^k over
k <= n, with C = n(n-1)/2.  Everything here is computed in Fractions so
those identities can be asserted with ==.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..core import hyperfactorial
from .intpoly import IntPolynomial, discriminant_exact


@dataclass(frozen=True)
class HermiteFamily:
    n: int
    lam: Fraction
    mu: Fraction
    coeffs: tuple[Fraction, ...]  # ascending: c_0 .. c_n, c_n == 1
    energy: Fraction
    delta: Fraction
    energy_identity: bool
    delta_identity: bool


def hermite_family(n: int, lam, mu) -> HermiteFamily:
    """Build the degree-n member and check both closed-form identities.

    The coefficient recurrence comes from matching powers of x in the ODE:
    lam*(n-k)*c_k = -mu*(k+1)*c_{k+1} - (k+2)*(k+1)*c_{k+2}.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lam = Fraction(lam)
    mu = Fraction(mu)
    if lam <= 0:
        raise ValueError("lam must be positive")

    c = [Fraction(0)] * (n + 1)
    c[n] = Fraction(1)
    c[n - 1] = Fraction(-n) * mu / lam
    for k in range(n - 2, -1, -1):
        c[k] = (-mu * (k + 1) * c[k + 1] - (k + 2) * (k + 1) * c[k + 2]) / (lam * (n - k))

    e1 = -c[n - 1]
    e2 = c[n - 2]
    energy = n * (e1 * e1 - 2 * e2) - e1 * e1

    pairs = math.comb(n, 2)
    # g(x) = D^n f(x/D) is monic with integer coefficients for D the lcm of
    # the denominators, and its roots D*x_i give Delta(g) = D^(n(n-1)) Delta(f)
    d = math.lcm(*(ck.denominator for ck in c))
    g = IntPolynomial(tuple(int(c[k] * d ** (n - k)) for k in range(n, -1, -1)))
    delta = Fraction(discriminant_exact(g), d ** (n * (n - 1)))
    return HermiteFamily(
        n=n,
        lam=lam,
        mu=mu,
        coeffs=tuple(c),
        energy=energy,
        delta=delta,
        energy_identity=(energy * lam == 2 * n * pairs),
        delta_identity=(delta * lam**pairs == hyperfactorial(n)),
    )
