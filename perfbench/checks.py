"""Reference checks, run after the timed region and in another process.

Every check recomputes the answer by an independent route (exact integer
or rational arithmetic, sympy, or mpmath at high precision) or tests a
property of the method; nothing is compared with a stored copy of an
earlier output.  ``check`` classifies each operation of a round:

* ``ok``     -- every check passed;
* ``fault``  -- the operation hit one of the two known program faults
  (``nonfinite_json``, ``powersum_near_equal``; see README.md) on the
  seed-independent inputs kept for it;
* ``wrong``  -- anything else: a wrong answer, or a known fault on an
  input where it was not expected.

``fault`` and ``wrong`` both count as failed; only ``wrong`` makes the
run incorrect.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from math import fsum

from workloads import charpoly, energy_from_coeffs

#: Per-degree member counts of the trace < 2n corpus (criterion 9).
CORPUS_COUNTS = {2: 1, 3: 1, 4: 2, 5: 4, 6: 11}

REL = 1e-9


def check(workload: str, items: list[dict], outputs: list) -> list[tuple[str, str]]:
    """(status, detail) per operation, in round order."""
    fn = {"oracle_grid": _check_oracle, "corpus_enum": _check_corpus,
          "poly_verify": _check_poly, "bound_sweep": _check_sweep}[workload]
    return [_guard(fn, item, out) for item, out in zip(items, outputs)]


def _guard(fn, item, out) -> tuple[str, str]:
    try:
        return fn(item, out)
    except _Mismatch as exc:
        return "wrong", str(exc)


class _Mismatch(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise _Mismatch(what)


def _close(a: float, b: float, rel: float = REL, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _tuple_energy(xs) -> Fraction:
    """n * sum x^2 - (sum x)^2, exactly, for the float tuple."""
    fs = [Fraction(v) for v in xs]
    return len(fs) * sum(v * v for v in fs) - sum(fs) ** 2


# ---------------------------------------------------------------------------
# oracle_grid: criterion 3 and 5 tolerances, plus every two-value candidate


def _check_oracle(item: dict, out: dict) -> tuple[str, str]:
    n = item["n"]
    if item["fam"] == "ps":
        r, s1, sr = item["r"], item["s1"], item["sr"]
        scale = s1 * s1
        tol = 1e-6 * scale
        _expect(out["lo"] <= min(out["tv_min"], out["se_min"]) + tol, "E_min above an oracle")
        _expect(out["hi"] >= max(out["tv_max"], out["se_max"]) - tol, "E_max below an oracle")
        gap = max(abs(out["tv_min"] - out["se_min"]), abs(out["tv_max"] - out["se_max"]))
        _expect(gap <= 1e-4 * scale, f"oracles disagree by {gap / scale:.2e}*S1^2")
        for k, x, y, zeros, e in out["cands"]:
            xs = (x,) * k + (y,) * (n - zeros - k) + (0.0,) * zeros
            _expect(_close(fsum(xs), s1), f"candidate {k},{zeros}: S1 not reproduced")
            _expect(_close(fsum(v**r for v in xs), sr), f"candidate {k},{zeros}: Sr not reproduced")
            _expect(_close(e, float(_tuple_energy(xs)), abs_tol=REL * scale),
                    f"candidate {k},{zeros}: E is not the tuple's energy")
        values = [c[4] for c in out["cands"]]
        _expect(out["tv_min"] == min(values) and out["tv_max"] == max(values),
                "two-value extremes are not the candidates' extremes")
        return "ok", ""
    s, p = item["s"], item["p"]
    _expect(abs(out["min"] - out["lo"]) <= 1e-6, f"|oracle - bound| = {abs(out['min'] - out['lo']):.2e}")
    for k, x, y, zeros, e in out["cands"]:
        xs = (x,) * k + (y,) * (n - k)
        _expect(_close(fsum(xs), n * s), f"candidate {k}: trace not reproduced")
        logp = math.log(p)
        _expect(abs(fsum(math.log(v) for v in xs) - logp) <= REL * max(1.0, abs(logp)),
                f"candidate {k}: product not reproduced")
        _expect(_close(e, float(_tuple_energy(xs)), abs_tol=REL * (n * s) ** 2),
                f"candidate {k}: E is not the tuple's energy")
    return "ok", ""


# ---------------------------------------------------------------------------
# corpus_enum: criterion-9 counts, then sympy and exact integers per member


def _hyperfactorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k**k
    return out


def thm2_exact(n: int, energy: int, delta: int) -> bool:
    """E^C Y(n) >= C^C (2n)^C Delta, the integer form of Theorem 2."""
    c = math.comb(n, 2)
    if delta <= 0:
        return True
    return energy >= 0 and energy**c * _hyperfactorial(n) >= c**c * (2 * n) ** c * delta


def _check_corpus(item: dict, members: list[dict]) -> tuple[str, str]:
    import sympy

    x = sympy.Symbol("x")
    expected = {d: c for d, c in CORPUS_COUNTS.items() if d <= item["max_degree"]}
    counts = dict(Counter(len(m["coeffs"]) - 1 for m in members))
    _expect(counts == expected, f"per-degree counts {dict(sorted(counts.items()))} != {expected}")
    for m in members:
        coeffs = m["coeffs"]
        n = len(coeffs) - 1
        poly = sympy.Poly(coeffs, x)
        delta = int(sympy.discriminant(poly))
        e1 = -coeffs[1]
        energy = energy_from_coeffs(coeffs)
        _expect(poly.is_irreducible, f"{coeffs}: not irreducible")
        _expect(delta != 0 and poly.count_roots() == n, f"{coeffs}: not n distinct real roots")
        _expect(poly.count_roots(0, None) == n and coeffs[-1] != 0, f"{coeffs}: a root is not positive")
        _expect(e1 < 2 * n, f"{coeffs}: trace not below 2n")
        _expect(m["S1"] == e1 and m["E"] == energy, f"{coeffs}: S1 or E differs from the coefficients")
        _expect(m["Delta"] == delta, f"{coeffs}: Delta differs from sympy.discriminant")
        _expect(m["thm2_holds"] and thm2_exact(n, energy, delta), f"{coeffs}: Theorem 2 inequality")
        _expect(m["all_real"] and m["totally_positive"] and m["irreducible"], f"{coeffs}: report flags")
    return "ok", ""


# ---------------------------------------------------------------------------
# poly_verify: strict JSON, then every field against sympy/mpmath


def _reject_constant(token: str):
    raise ValueError(f"non-JSON token {token}")


def _diffsq_squarefree_mp(coeffs: list[int]) -> bool:
    """Whether the values (x_i - x_j)^2, i < j, are pairwise distinct."""
    import mpmath

    with mpmath.workdps(80):
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        vals = [(a - b) ** 2 for i, a in enumerate(roots) for b in roots[i + 1:]]
        scale = max([abs(v) for v in vals] + [mpmath.mpf(1)])
        tol = mpmath.mpf(10) ** -30 * scale
        return all(abs(u - v) > tol for i, u in enumerate(vals) for v in vals[i + 1:])


def _check_poly(item: dict, out: dict) -> tuple[str, str]:
    import sympy

    _expect(out["code"] == 0, f"exit code {out['code']}")
    status, detail = "ok", ""
    try:
        payload = json.loads(out["stdout"], parse_constant=_reject_constant)
    except ValueError as exc:
        _expect(item["kind"] == "nonfinite", f"strict JSON parse failed: {exc}")
        payload = json.loads(out["stdout"])  # the rest is still checked
        status, detail = "fault", "nonfinite_json"
    res = payload["result"]
    coeffs = item["coeffs"]
    n = len(coeffs) - 1
    x = sympy.Symbol("x")
    poly = sympy.Poly(coeffs, x)
    e1 = -coeffs[1]
    energy = energy_from_coeffs(coeffs)
    delta = int(sympy.discriminant(poly))
    sqf_degree = sympy.sqf_part(poly).degree()
    all_real = poly.count_roots() == sqf_degree
    totally_positive = all_real and coeffs[-1] != 0 and poly.count_roots(0, None) == sqf_degree
    _expect(res["coeffs"] == coeffs and res["degree"] == n, "coefficients not echoed")
    _expect(res["S1"] == e1 and res["E"] == energy, "S1 or E differs from the coefficients")
    if item["kind"] == "charpoly":
        a = item["matrix"]
        tr = sum(a[i][i] for i in range(n))
        tr2 = sum(a[i][j] * a[j][i] for i in range(n) for j in range(n))
        _expect(charpoly(a) == coeffs, "input is not the matrix's characteristic polynomial")
        _expect(res["E"] == n * tr2 - tr * tr, "E differs from n tr(A^2) - tr(A)^2")
    _expect(res["Delta"] == delta, "Delta differs from sympy.discriminant")
    _expect(res["irreducible"] == poly.is_irreducible, "irreducible differs from sympy")
    _expect(res["all_real"] == all_real, "all_real differs from sympy")
    _expect(res["totally_positive"] == totally_positive, "totally_positive differs from sympy")
    _expect(res["diffsq_squarefree"] == _diffsq_squarefree_mp(coeffs),
            "diffsq_squarefree differs from mpmath roots")
    _expect(res["thm2_holds"] == thm2_exact(n, energy, delta), "thm2_holds differs from exact")
    _expect(res["thm2_holds"] or not all_real, "Theorem 2 fails on a real-rooted polynomial")
    return status, detail


# ---------------------------------------------------------------------------
# bound_sweep: exact n = 2 values, rebuilt extremal tuples, round trips


def _pair_energy(r: int, s1: float, sr: float):
    """(x - y)^2 for the pair with x + y = S1 and x^r + y^r = Sr.

    With P = xy: S3 = S1^3 - 3 S1 P, S4 = S1^4 - 4 S1^2 P + 2 P^2,
    S5 = S1^5 - 5 S1^3 P + 5 S1 P^2; take the root P in [0, S1^2/4].
    r = 3 is exact in Fraction, r = 4 and 5 use mpmath at 60 digits.
    """
    if r == 3:
        f1, f3 = Fraction(s1), Fraction(sr)
        return f1 * f1 - 4 * (f1**3 - f3) / (3 * f1)
    import mpmath

    with mpmath.workdps(60):
        a, b = mpmath.mpf(s1), mpmath.mpf(sr)
        if r == 4:  # 2 P^2 - 4 a^2 P + (a^4 - b) = 0, smaller root
            pp = (4 * a**2 - mpmath.sqrt(16 * a**4 - 8 * (a**4 - b))) / 4
        else:  # 5 a P^2 - 5 a^3 P + (a^5 - b) = 0, smaller root
            pp = (5 * a**3 - mpmath.sqrt(25 * a**6 - 20 * a * (a**5 - b))) / (10 * a)
        return Fraction(str(a * a - 4 * pp))


def _check_sweep(item: dict, out: dict) -> tuple[str, str]:
    n = item["n"]
    if item["fam"] == "ps":
        r, s1, sr = item["r"], item["s1"], item["sr"]
        if n == 2:
            exact = _pair_energy(r, s1, sr)
            worst = max(abs(Fraction(out[k]) - exact) / exact for k in ("emin", "emax"))
            if worst > REL:
                fixed = item["region"] == "fixed_near_equal"
                _expect(fixed and worst <= 1e-4, f"n=2 bound off the exact value by {float(worst):.2e}")
                return "fault", "powersum_near_equal"
        else:
            a = out["alpha"]
            xs = (s1 * (1.0 + a * (n - 1)) / n,) + (s1 * (1.0 - a) / n,) * (n - 1)
            _check_tuple(xs, r, s1, sr, out["emin"], "E_min")
            nc = out["nc"]
            if nc == 1:
                xs = (s1,) + (0.0,) * (n - 1)
            else:
                b = out["emax_alpha"]
                xs = ((s1 * (1.0 + b * (nc - 1)) / nc,) + (s1 * (1.0 - b) / nc,) * (nc - 1)
                      + (0.0,) * (n - nc))
            _check_tuple(xs, r, s1, sr, out["emax"], "E_max")
        _expect(_close(out["sr_upper"], sr), "power_sum_upper(E_min) != Sr")
        return "ok", ""
    s, p = item["s"], item["p"]
    if n == 2:
        exact = 4 * (Fraction(s) ** 2 - Fraction(p))
        _expect(abs(Fraction(out["emin"]) - exact) <= REL * exact, "n=2 bound off 4(s^2 - p)")
    else:
        a = out["alpha"]
        xs = (s * (1.0 + a * (n - 1)),) + (s * (1.0 - a),) * (n - 1)
        _expect(_close(fsum(xs), n * s), "E_min tuple: trace not reproduced")
        logp = math.log(p)
        _expect(abs(fsum(math.log(v) for v in xs) - logp) <= REL * max(1.0, abs(logp)),
                "E_min tuple: product not reproduced")
        _expect(_close(out["emin"], float(_tuple_energy(xs))), "E_min is not the tuple's energy")
    ratio = float(Fraction(s) ** n / Fraction(p))
    _expect(_close(out["reverse"], ratio), "reverse_amgm(E_min) != s^n/p")
    return "ok", ""


def _check_tuple(xs, r: int, s1: float, sr: float, bound: float, what: str) -> None:
    _expect(_close(fsum(xs), s1), f"{what} tuple: S1 not reproduced")
    _expect(_close(fsum(v**r for v in xs), sr), f"{what} tuple: Sr not reproduced")
    _expect(_close(bound, float(_tuple_energy(xs))),
            f"{what} is not the tuple's energy")
