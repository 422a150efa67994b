"""The four workloads: seeded inputs, the operation each input drives, and
the plain-data summary of each operation's output.

Inputs are plain JSON data made with the standard library only, so the
program sees nothing but the generated numbers and coefficient lists.  An
operation calls the program through its public names, looked up on the
package at call time, so that the traced run can wrap them.

A *round* is the workload's fixed list of operations; a run repeats whole
rounds.  Each list is stratified (a fixed count of inputs per size and kind,
only the values drawn from the seed), so rounds of different seeds cost
about the same.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction

WORKLOADS = ("oracle_grid", "corpus_enum", "poly_verify", "bound_sweep")


def generate(workload: str, seed: int, short: bool = False) -> list[dict]:
    """The round for ``workload``: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, short)


# ---------------------------------------------------------------------------
# oracle_grid: power-sum sets as in acceptance criterion 3, trace/norm sets
# as in criterion 5, each run through both oracles and the closed forms


def _power_sum_draw(rng: random.Random, n: int, r: int, u: float) -> tuple[float, float]:
    """(S1, Sr) with Sr at log-position u in [all-equal, single point]."""
    s1 = rng.uniform(0.5, 10.0)
    lo = r * math.log(s1) - (r - 1) * math.log(n)
    hi = r * math.log(s1)
    return s1, math.exp(lo + u * (hi - lo))


def _gen_oracle_grid(rng: random.Random, short: bool) -> list[dict]:
    per_cell = 1 if short else 3
    cells = [(3, 3), (6, 5)] if short else [(n, r) for n in range(3, 7) for r in range(3, 6)]
    tn_ns = [2, 6] if short else list(range(2, 7))
    items = []
    for n, r in cells:
        for _ in range(per_cell):
            s1, sr = _power_sum_draw(rng, n, r, rng.uniform(0.02, 0.98))
            items.append({"fam": "ps", "n": n, "r": r, "s1": s1, "sr": sr,
                          "search_seed": rng.randrange(2**31)})
    for n in tn_ns:
        for _ in range(per_cell):
            s = rng.uniform(0.5, 5.0)
            p = math.exp(n * math.log(s) - 4.0 * rng.uniform(0.02, 0.98))
            items.append({"fam": "tn", "n": n, "s": s, "p": p,
                          "search_seed": rng.randrange(2**31)})
    return items


def _op_oracle_grid(eb, item: dict):
    if item["fam"] == "ps":
        ps = eb.PowerSumConstraints(item["n"], item["r"], item["s1"], item["sr"])
        tv = eb.extrema_two_value(ps)
        se = eb.extrema_search(ps, restarts=6, seed=item["search_seed"], max_iters=110)
        return tv, se, eb.energy_min_power(ps), eb.energy_max_power(ps)
    tn = eb.TraceNormConstraints(item["n"], item["s"], item["p"])
    ext = eb.extrema_trace_norm(tn, restarts=6, seed=item["search_seed"], max_iters=150)
    return ext, eb.energy_min_trace_norm(tn)


def _summary_oracle_grid(item: dict, out) -> dict:
    if item["fam"] == "ps":
        tv, se, lo, hi = out
        return {
            "cands": [[c.k, c.x, c.y, c.zeros, c.E] for c in tv.candidates],
            "tv_min": tv.min, "tv_max": tv.max,
            "se_min": se.min, "se_max": se.max, "se_failed": len(se.failed),
            "lo": lo.value, "hi": hi.value,
        }
    ext, lo = out
    return {
        "cands": [[c.k, c.x, c.y, c.zeros, c.E] for c in ext.candidates],
        "min": ext.min, "max": ext.max,
        "se_min": ext.search_min, "se_max": ext.search_max, "se_failed": len(ext.failed),
        "lo": lo.value,
    }


# ---------------------------------------------------------------------------
# corpus_enum: one exhaustive enumeration; the seed does not change it


def _gen_corpus_enum(rng: random.Random, short: bool) -> list[dict]:
    return [{"max_degree": 4 if short else 6}]


def _op_corpus_enum(eb, item: dict):
    return eb.polylab.enumerate_corpus(item["max_degree"])


def _summary_corpus_enum(item: dict, out) -> list[dict]:
    return [
        {
            "coeffs": list(r.poly.coeffs), "all_real": r.all_real,
            "totally_positive": r.totally_positive, "irreducible": r.irreducible,
            "S1": r.S1, "S2": r.S2, "E": r.E, "Delta": r.Delta,
            "diffsq_squarefree": r.diffsq_squarefree, "thm2_holds": r.thm2_holds,
        }
        for r in out
    ]


# ---------------------------------------------------------------------------
# poly_verify: in-process `energy-bounds poly verify --coeffs ... --json`

#: Seed-independent inputs on which the CLI emits the bare tokens
#: Infinity/-Infinity (Delta <= 0): a complex pair, a repeated root, and a
#: degree-8 polynomial with one complex pair.  They fail in every run.
NONFINITE_JSON_POLYS = (
    (1, 0, 1),
    (1, -7, 16, -12),  # (x - 2)^2 (x - 3)
    (1, -21, 176, -756, 1799, -2499, 2344, -1764, 720),  # (x^2 + 1)(x - 1)...(x - 6)
)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def charpoly(a: list[list[int]]) -> list[int]:
    """det(xI - A), leading coefficient first, by Faddeev-LeVerrier.

    Every division is exact over the integers, so no rational ever forms.
    """
    n = len(a)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        m = [[am[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0
        coeffs.append(-tr // k)
    return coeffs


def _pd_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """B^T B + I for a random integer B with entries in [-2, 2]."""
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [
        [sum(b[t][i] * b[t][j] for t in range(n)) + (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def _squarefree(coeffs: list[int]) -> bool:
    """gcd(f, f') is a constant, by Euclid over the rationals."""
    n = len(coeffs) - 1
    f = [Fraction(c) for c in coeffs]
    g = [Fraction((n - i) * c) for i, c in enumerate(coeffs[:-1])]
    while g:
        r = f
        while len(r) >= len(g):
            q = r[0] / g[0]
            r = [a - q * b for a, b in zip(r[1:], g[1:] + [0] * (len(r) - len(g)))]
            while r and r[0] == 0:
                r = r[1:]
        f, g = g, r
    return len(f) == 1


def energy_from_coeffs(coeffs: list[int]) -> int:
    """n*S2 - S1^2 from e1 = -c1 and e2 = c2: S1 = e1, S2 = e1^2 - 2 e2."""
    n = len(coeffs) - 1
    e1 = -coeffs[1]
    e2 = coeffs[2] if n >= 2 else 0
    return n * (e1 * e1 - 2 * e2) - e1 * e1


def _charpoly_item(rng: random.Random, n: int) -> dict:
    while True:
        a = _pd_matrix(rng, n)
        coeffs = charpoly(a)
        if _squarefree(coeffs):
            return {"kind": "charpoly", "coeffs": coeffs, "matrix": a}


def _gen_poly_verify(rng: random.Random, short: bool) -> list[dict]:
    # 40 operations in cost bands: 8 below 45 ms; 10 near 60 ms (degree 7
    # and the complex degree-8 ones); 8 near 105 ms (degree-8 characteristic
    # polynomials); 14 near 210 ms (degree 9).  The median (ranks 20-21)
    # and p75 (rank 30) then fall inside a band of one kind of input, not
    # on the edge between two bands, where a seed would move them most.
    items = []
    char_degrees = [3, 7] if short else [2, 3, 4, 5, 6] + [7] * 2 + [8] * 8 + [9] * 14
    for n in char_degrees:
        items.append(_charpoly_item(rng, n))
    # products of two characteristic polynomials: reducible, all roots real
    for d1, d2 in ([(2, 3)] if short else [(3, 4), (2, 5), (3, 4), (2, 5)]):
        while True:
            coeffs = _poly_mul(_charpoly_item(rng, d1)["coeffs"], _charpoly_item(rng, d2)["coeffs"])
            if _squarefree(coeffs):
                break
        items.append({"kind": "product", "coeffs": coeffs})
    # two complex pairs times a real-rooted factor: Delta > 0, not all real
    for d in ([1] if short else [4] * 4):
        while True:
            coeffs = _charpoly_item(rng, d)["coeffs"]
            for _ in range(2):
                b = rng.randint(-4, 4)
                c = rng.randint(b * b // 4 + 1, b * b // 4 + 6)  # b^2 < 4c
                coeffs = _poly_mul(coeffs, [1, b, c])
            if _squarefree(coeffs) and energy_from_coeffs(coeffs) > 0:
                break
        items.append({"kind": "complex", "coeffs": coeffs})
    for coeffs in NONFINITE_JSON_POLYS[: 1 if short else None]:
        items.append({"kind": "nonfinite", "coeffs": list(coeffs)})
    return items


def _op_poly_verify(eb, item: dict):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = eb.cli.run(["poly", "verify", "--coeffs", " ".join(map(str, item["coeffs"])), "--json"])
    return code, buf.getvalue()


def _summary_poly_verify(item: dict, out) -> dict:
    code, stdout = out
    return {"code": code, "stdout": stdout}


# ---------------------------------------------------------------------------
# bound_sweep: closed-form bounds and the converse round trips, n = 2..512

SWEEP_NS = (2, 3, 4, 5, 6, 8, 12, 16, 32, 64, 128, 256, 512)

#: The seed-independent near-all-equal slice (n = 2, r = 3, 0.01 <= y - x
#: <= 0.05) on which energy_min_power misses the exact value.
FIXED_SLICE_SEED = 20221
FIXED_SLICE_SIZE = 100


def fixed_near_equal_slice(size: int) -> list[dict]:
    rng = random.Random(FIXED_SLICE_SEED)
    items = []
    for _ in range(size):
        x = rng.uniform(0.1, 50.0)
        y = x + rng.uniform(0.01, 0.05)
        items.append({"fam": "ps", "n": 2, "r": 3, "s1": x + y, "sr": x**3 + y**3,
                      "region": "fixed_near_equal"})
    return items


def _gen_bound_sweep(rng: random.Random, short: bool) -> list[dict]:
    draws = 1 if short else 7
    ns = (2, 3, 512) if short else SWEEP_NS
    items = []
    for n in ns:
        for r in (3, 4, 5):
            for _ in range(draws):
                if n == 2:
                    # two points at relative half-gap d; the near-equal end of
                    # n = 2 is the fixed slice below
                    m = rng.uniform(0.1, 50.0)
                    d = 10 ** rng.uniform(-2.0, math.log10(0.99))
                    x, y = m * (1.0 - d), m * (1.0 + d)
                    items.append({"fam": "ps", "n": 2, "r": r, "s1": x + y,
                                  "sr": x**r + y**r, "region": "interior"})
                    continue
                for region, u in (
                    ("interior", rng.uniform(0.02, 0.98)),
                    ("near_equal", 10 ** rng.uniform(-6.0, -3.0)),
                    ("near_point", 1.0 - 10 ** rng.uniform(-6.0, -3.0)),
                ):
                    s1, sr = _power_sum_draw(rng, n, r, u)
                    items.append({"fam": "ps", "n": n, "r": r, "s1": s1, "sr": sr,
                                  "region": region})
        for _ in range(draws):
            # keep s^n finite at n = 512
            s = rng.uniform(0.5, 1.5) if n > 64 else rng.uniform(0.5, 5.0)
            for region, gap_log in (
                ("interior", -4.0 * rng.uniform(0.02, 0.98)),
                ("near_equal", math.log1p(-(10 ** rng.uniform(-9.0, -4.0)))),
                ("near_point", -rng.uniform(6.0, 12.0)),
            ):
                p = math.exp(n * math.log(s) + gap_log)
                items.append({"fam": "tn", "n": n, "s": s, "p": p, "region": region})
    items.extend(fixed_near_equal_slice(10 if short else FIXED_SLICE_SIZE))
    return items


def _op_bound_sweep(eb, item: dict):
    if item["fam"] == "ps":
        n, r, s1 = item["n"], item["r"], item["s1"]
        ps = eb.PowerSumConstraints(n, r, s1, item["sr"])
        lo = eb.energy_min_power(ps)
        hi = eb.energy_max_power(ps)
        return lo, hi, eb.power_sum_upper(n, r, s1, lo.value)
    tn = eb.TraceNormConstraints(item["n"], item["s"], item["p"])
    lo = eb.energy_min_trace_norm(tn)
    return lo, eb.reverse_amgm(item["n"], item["s"], lo.value)


def _summary_bound_sweep(item: dict, out) -> dict:
    if item["fam"] == "ps":
        lo, hi, up = out
        return {
            "emin": lo.value, "alpha": lo.alpha.alpha,
            "emax": hi.value, "emax_alpha": hi.alpha.alpha if hi.alpha else None,
            "nc": hi.diagnostics["ntilde_ceil"], "sr_upper": up.value,
        }
    lo, rev = out
    return {"emin": lo.value, "alpha": lo.alpha.alpha, "reverse": rev.value}


# ---------------------------------------------------------------------------

_GENERATORS = {
    "oracle_grid": _gen_oracle_grid,
    "corpus_enum": _gen_corpus_enum,
    "poly_verify": _gen_poly_verify,
    "bound_sweep": _gen_bound_sweep,
}

OPS = {
    "oracle_grid": _op_oracle_grid,
    "corpus_enum": _op_corpus_enum,
    "poly_verify": _op_poly_verify,
    "bound_sweep": _op_bound_sweep,
}

SUMMARIES = {
    "oracle_grid": _summary_oracle_grid,
    "corpus_enum": _summary_corpus_enum,
    "poly_verify": _summary_poly_verify,
    "bound_sweep": _summary_bound_sweep,
}

#: One fixed operation per workload, run once as part of set-up.  The
#: corpus warm-up enumerates to degree 4 rather than 6, so that set-up does
#: not repeat the measured operation.
WARMUP = {
    "oracle_grid": {"fam": "ps", "n": 4, "r": 3, "s1": 4.0, "sr": 20.0, "search_seed": 0},
    "corpus_enum": {"max_degree": 4},
    "poly_verify": {"coeffs": [1, -9, 26, -24, 5]},
    "bound_sweep": {"fam": "ps", "n": 5, "r": 4, "s1": 5.0, "sr": 40.0},
}
