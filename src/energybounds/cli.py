"""Command-line surface: every operation, machine-readable output.

Grammar (long flags only, no positionals)::

    energy-bounds bound {emin-tn|emin-power|emax-power|reverse-amgm|
                         sr-upper|disc-lower|potential-lower} ...
    energy-bounds oracle {power|trace-norm} ...
    energy-bounds poly {verify|diffsq|hermite} ...
    energy-bounds corpus enumerate ...
    energy-bounds constants siegel

Exit codes: 0 success, 1 usage error (also an input whose result lies past
the float range), 2 infeasible or hypothesis-violated input, 3 an oracle
search that could not project onto the constraint manifold (for 2 and 3 a
report naming the condition is still printed).

``--json`` prints one object {op, inputs, result, diagnostics} with floats
at 17 significant digits, so identical invocations are byte-identical.
Non-finite floats (e.g. log margins when Delta <= 0) are written as null,
so the output is strict JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from enum import Enum
from fractions import Fraction

from .bounds import (
    HypothesisViolationError,
    PotentialSpec,
    energy_lower_from_disc,
    energy_max_power,
    energy_min_power,
    energy_min_trace_norm,
    potential_lower_from_disc,
    power_sum_upper,
    reverse_amgm,
    siegel_constants,
)
from .core import (
    REL_TOL,
    FeasibilityError,
    PowerSumConstraints,
    SearchFailedError,
    TraceNormConstraints,
)
from .oracle import extrema_search, extrema_trace_norm, extrema_two_value
from .polylab import (
    CorpusStats,
    corpus_to_csv,
    diffsq_poly,
    enumerate_corpus,
    hermite_family,
    parse_poly_line,
    verify_theorem2,
)
from .rootfind import BranchMissingError

_INFEASIBLE = (FeasibilityError, HypothesisViolationError, BranchMissingError)


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage problem raises ValueError, which :func:`run`
    reports with exit 1 (2 is reserved for bad data), and a negative
    rational such as -1/3 is a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# output formatting


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    return _to_json(str(value))


def _emit(args, result, diagnostics: dict) -> None:
    """Print one report; success and error reports echo the same inputs."""
    op = f"{args.command}.{args.which}"
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "which", "json")}
    if args.json:
        payload = {"op": op, "inputs": inputs, "result": result, "diagnostics": diagnostics}
        print(_to_json(payload))
    else:
        print(f"op: {op}")
        for key, val in inputs.items():
            _emit_human(val, prefix=f"inputs.{key}")
        _emit_human(result, prefix="")
        for key, val in diagnostics.items():
            _emit_human(val, prefix=f"diagnostics.{key}")


def _emit_human(value, prefix: str) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _emit_human(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        rendered = " ".join(
            _fmt_float(v) if isinstance(v, float) else str(v) for v in value
        )
        print(f"{prefix}: {rendered}")
    elif isinstance(value, float):
        print(f"{prefix}: {_fmt_float(value)}")
    else:
        print(f"{prefix}: {value}")


def _fields(report, skip: tuple[str, ...] = ()) -> dict:
    """A dataclass report as a dict in field order; enums print by value."""
    out = {}
    for f in dataclasses.fields(report):
        if f.name in skip:
            continue
        value = getattr(report, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif dataclasses.is_dataclass(value):
            value = _fields(value)
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# parser construction


@functools.cache  # building it costs more than a typical operation; run() reuses one
def _build_parser() -> _Parser:
    top = _Parser(prog="energy-bounds", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def with_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def with_search(p):
        # declared first, so the echoed inputs lead with the search settings
        with_common(p).add_argument("--restarts", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iters", type=int, default=200)
        return p

    bound = sub.add_parser("bound", help="closed-form bounds").add_subparsers(
        dest="which", required=True
    )

    p = with_common(bound.add_parser("emin-tn", help="minimal energy, fixed trace+product"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True, help="mean: trace is n*s")
    p.add_argument("--p", type=float, required=True, help="product of the n values")

    p = with_common(bound.add_parser("emin-power", help="minimal energy, fixed S1 and Sr"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--sr", type=float, required=True)

    p = with_common(bound.add_parser("emax-power", help="maximal energy, fixed S1 and Sr"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--sr", type=float, required=True)

    p = with_common(
        bound.add_parser("reverse-amgm", help="upper bound on s^n/p from the energy")
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)

    p = with_common(bound.add_parser("sr-upper", help="upper bound on S_r from the energy"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)

    p = with_common(
        bound.add_parser("disc-lower", help="lower bound on E from the discriminant")
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--s2", type=float, default=None)

    p = with_common(
        bound.add_parser(
            "potential-lower", help="lower bound for (a/n)*sum x^2 + b*mean^2 + c*mean + d"
        )
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--d", type=float, default=0.0)

    oracle = sub.add_parser("oracle", help="brute-force extremes").add_subparsers(
        dest="which", required=True
    )

    p = with_search(oracle.add_parser("power", help="extremes of E at fixed S1, Sr"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--sr", type=float, required=True)

    p = with_search(oracle.add_parser("trace-norm", help="extremes of E at fixed trace, product"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, required=True)

    poly = sub.add_parser("poly", help="exact polynomial reports").add_subparsers(
        dest="which", required=True
    )

    p = with_common(poly.add_parser("verify", help="full report for one polynomial"))
    p.add_argument("--coeffs", required=True, help='e.g. "1 -6 11 -6", leading first')

    p = with_common(poly.add_parser("diffsq", help="polynomial with roots (x_i-x_j)^2"))
    p.add_argument("--coeffs", required=True, help='e.g. "1 -6 11 -6", leading first')

    p = with_common(poly.add_parser("hermite", help="ODE family member and identities"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True, help="positive rational, e.g. 2 or 3/4")
    p.add_argument("--mu", required=True, help="rational, e.g. 0 or -1/3")

    corpus = sub.add_parser("corpus", help="corpus enumeration").add_subparsers(
        dest="which", required=True
    )
    p = with_common(corpus.add_parser("enumerate", help="all members up to a degree"))
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--no-prune-newton", dest="prune_newton", action="store_false")
    p.add_argument("--no-prune-sturm", dest="prune_sturm", action="store_false")

    constants = sub.add_parser("constants", help="named constants").add_subparsers(
        dest="which", required=True
    )
    with_common(constants.add_parser("siegel", help="theta, lambda0 and friends"))

    return top


def _threads(args) -> int:
    if args.threads:
        return max(1, args.threads)
    env = os.environ.get("ENERGY_BOUNDS_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise FeasibilityError(
                "ENERGY_BOUNDS_THREADS", f"not an integer: {env!r}"
            ) from exc
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# command bodies


def _fixed_energy(n: int, s1: float, s2: float) -> float:
    """r = 2 fixes the energy outright: E = n*S2 - S1^2, no bound needed."""
    if s1 * s1 > n * s2 * (1.0 + REL_TOL):
        raise FeasibilityError("S1^2 <= n*S2", f"S1^2 = {s1 * s1} exceeds n*S2 = {n * s2}")
    if s2 > s1 * s1 * (1.0 + REL_TOL):
        raise FeasibilityError("S2 <= S1^2", f"S2 = {s2} exceeds S1^2 = {s1 * s1}")
    return max(n * s2 - s1 * s1, 0.0)


def _run_bound(args) -> tuple[dict, dict]:
    which = args.which
    if which == "emin-tn":
        report = energy_min_trace_norm(TraceNormConstraints(args.n, args.s, args.p))
    elif which in ("emin-power", "emax-power"):
        if args.r == 2:
            value = _fixed_energy(args.n, args.s1, args.sr)
            return {"value": value, "formula": "EnergyIdentity", "alpha": None}, {}
        solve = energy_min_power if which == "emin-power" else energy_max_power
        report = solve(PowerSumConstraints(args.n, args.r, args.s1, args.sr))
    elif which == "reverse-amgm":
        report = reverse_amgm(args.n, args.s, args.energy)
    elif which == "sr-upper":
        report = power_sum_upper(args.n, args.r, args.s1, args.energy)
    elif which == "disc-lower":
        report = energy_lower_from_disc(args.n, args.delta, s1=args.s1, s2=args.s2)
    else:
        spec = PotentialSpec(args.a, args.b, args.c, args.d)
        report = potential_lower_from_disc(spec, args.n, args.s1, args.delta)
    return _fields(report, skip=("diagnostics",)), report.diagnostics


def _run_oracle(args) -> tuple[dict, dict]:
    search_args = {"restarts": args.restarts, "seed": args.seed, "max_iters": args.max_iters}
    if args.which == "trace-norm":
        tn = TraceNormConstraints(args.n, args.s, args.p)
        ext = extrema_trace_norm(tn, **search_args)
        result = {
            "min": float(ext.min),
            "max": float(ext.max),
            "search": {
                "min": float(ext.search_min),
                "max": float(ext.search_max),
                "failed": [int(i) for i in ext.failed],
            },
            "candidates": [_fields(c) for c in ext.candidates],
        }
        return result, {}
    if args.r == 2:
        e = _fixed_energy(args.n, args.s1, args.sr)
        result = {"min": e, "max": e, "candidates": [], "search": None}
        return result, {"note": "energy fixed when r=2"}
    ps = PowerSumConstraints(args.n, args.r, args.s1, args.sr)
    two = extrema_two_value(ps)
    search = extrema_search(ps, **search_args)
    result = {
        "min": float(min(two.min, search.min)),
        "max": float(max(two.max, search.max)),
        "two_value": {"min": two.min, "max": two.max},
        "search": {
            "min": float(search.min),
            "max": float(search.max),
            "failed": [int(i) for i in search.failed],
        },
        "candidates": [_fields(c) for c in two.candidates],
    }
    diagnostics = {
        "ntilde": ps.ntilde,
        "ntilde_ceil": ps.ntilde_ceil,
        "k_star": ps.k_star,
    }
    return result, diagnostics


def _run_poly(args) -> tuple[dict, dict]:
    if args.which == "hermite":
        try:
            lam = Fraction(args.lam)
            mu = Fraction(args.mu)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"poly hermite: bad rational: {exc}") from exc
        fam = hermite_family(args.n, lam, mu)
        result = {
            "n": fam.n,
            "lam": str(fam.lam),
            "mu": str(fam.mu),
            "coeffs_ascending": [str(c) for c in fam.coeffs],
            "energy": str(fam.energy),
            "delta": str(fam.delta),
            "energy_identity": fam.energy_identity,
            "delta_identity": fam.delta_identity,
        }
        return result, {}

    try:
        poly = parse_poly_line(args.coeffs)
    except ValueError as exc:
        raise ValueError(f"poly {args.which}: {exc}") from exc
    if args.which == "diffsq":
        dpoly, squarefree = diffsq_poly(poly)
        result = {
            "coeffs": list(poly.coeffs),
            "diffsq_coeffs": list(dpoly.coeffs),
            "squarefree": squarefree,
        }
        return result, {}
    report = verify_theorem2(poly)
    result = {"coeffs": list(poly.coeffs), "degree": poly.degree}
    return {**result, **_fields(report, skip=("poly",))}, {}


def _run_corpus(args) -> tuple[dict, dict] | None:
    args.threads = _threads(args)
    stats = CorpusStats()
    try:
        reports = enumerate_corpus(
            args.max_degree,
            prune_newton=args.prune_newton,
            prune_sturm=args.prune_sturm,
            workers=args.threads,
            stats=stats,
        )
    except ValueError as exc:
        raise ValueError(f"corpus enumerate: {exc}") from exc
    if not args.json:
        sys.stdout.write(corpus_to_csv(reports))
        return None
    per_degree: dict = {}
    for r in reports:
        key = str(r.poly.degree)
        per_degree[key] = per_degree.get(key, 0) + 1
    rows = [
        {
            "degree": r.poly.degree,
            "coeffs": list(r.poly.coeffs),
            "trace": r.trace,
            "E": r.E,
            "Delta": r.Delta,
            "diffsq_squarefree": r.diffsq_squarefree,
            "thm2_margin_log": r.thm2_margin_log,
        }
        for r in reports
    ]
    result = {"count": len(reports), "per_degree": per_degree, "members": rows}
    return result, {"stats": stats.as_dict()}


def _run_constants(args) -> tuple[dict, dict]:
    sc = siegel_constants()
    result = {
        "theta": sc.theta,
        "lambda0": sc.lambda0,
        "lambda_www": sc.lambda_www,
        "two_over_sqrt_e": sc.two_over_sqrt_e,
        "residual": sc.residual,
    }
    return result, {}


_HANDLERS = {
    "bound": _run_bound,
    "oracle": _run_oracle,
    "poly": _run_poly,
    "corpus": _run_corpus,
    "constants": _run_constants,
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code.

    Handlers only compute: each returns (result, diagnostics) for
    :func:`_emit`, except ``corpus enumerate`` without ``--json``, which
    prints its CSV itself and returns None.
    """
    try:
        args = _build_parser().parse_args(argv)
        output = _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 1
    except (*_INFEASIBLE, SearchFailedError) as exc:
        if args.json:
            _emit(args, None, {"error": exc.condition, "message": str(exc)})
        else:
            print(f"error: {exc.condition}: {exc}")
        return 3 if isinstance(exc, SearchFailedError) else 2
    except (ValueError, OverflowError) as exc:  # bad flags, or a value past the float range
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    if output is not None:
        _emit(args, *output)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
