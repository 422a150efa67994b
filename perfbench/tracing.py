"""Spans at the program's module boundaries, recorded from outside.

The traced run replaces public names on the program's modules with thin
wrappers: the names the benchmark calls on the package, and the names one
module imports from another (``energybounds.polylab.corpus.root_census`` is
``realroots.root_census`` as the corpus sees it).  Each call records a span
(name, start, end, parent) in memory; counters read off return values
(failed search rows, solver iterations, census verdicts).  Nothing inside
the program's functions is touched.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns


def _failed_rows(c: Counter, result) -> None:
    c["oracle.search_rows_failed"] += len(result.failed)


def _solve_counter(name: str, oracle: bool):
    def count(c: Counter, root) -> None:
        c[f"{name}.iters"] += root.iterations
        if oracle:
            c["rootfind.oracle_solves"] += 1
    return count


def _census(c: Counter, result) -> None:
    real, positive, distinct = result
    c["realroots.root_census.passed"] += real == positive == distinct


_SOLVE_PS = "rootfind.solve_powersum_alpha"
_SOLVE_TN = "rootfind.solve_trace_norm_alpha"

#: (module, attribute, span name, counter hook)
TARGETS = (
    ("energybounds", "PowerSumConstraints", "core.constraints", None),
    ("energybounds", "TraceNormConstraints", "core.constraints", None),
    ("energybounds", "extrema_two_value", "oracle.extrema_two_value", None),
    ("energybounds", "extrema_search", "oracle.extrema_search", _failed_rows),
    ("energybounds", "extrema_trace_norm", "oracle.extrema_trace_norm", _failed_rows),
    ("energybounds", "energy_min_power", "bounds.energy_min_power", None),
    ("energybounds", "energy_max_power", "bounds.energy_max_power", None),
    ("energybounds", "energy_min_trace_norm", "bounds.energy_min_trace_norm", None),
    ("energybounds", "power_sum_upper", "bounds.power_sum_upper", None),
    ("energybounds", "reverse_amgm", "bounds.reverse_amgm", None),
    ("energybounds.polylab", "enumerate_corpus", "corpus.enumerate", None),
    ("energybounds.cli", "run", "cli.run", None),
    ("energybounds.oracle", "solve_powersum_alpha", _SOLVE_PS, _solve_counter(_SOLVE_PS, True)),
    ("energybounds.oracle", "solve_trace_norm_alpha", _SOLVE_TN, _solve_counter(_SOLVE_TN, True)),
    ("energybounds.bounds", "solve_powersum_alpha", _SOLVE_PS, _solve_counter(_SOLVE_PS, False)),
    ("energybounds.bounds", "solve_trace_norm_alpha", _SOLVE_TN, _solve_counter(_SOLVE_TN, False)),
    ("energybounds.polylab.corpus", "root_census", "realroots.root_census", _census),
    ("energybounds.polylab.corpus", "is_irreducible", "factor.is_irreducible", None),
    ("energybounds.polylab.corpus", "verify_theorem2", "verify.verify_theorem2", None),
    ("energybounds.cli", "verify_theorem2", "verify.verify_theorem2", None),
    ("energybounds.polylab.verify", "is_irreducible", "factor.is_irreducible", None),
    ("energybounds.polylab.verify", "discriminant_exact", "intpoly.discriminant_exact", None),
    ("energybounds.polylab.verify", "diffsq_poly", "intpoly.diffsq_poly", None),
    ("energybounds.polylab.verify", "count_real_roots", "realroots.count_real_roots", None),
    ("energybounds.polylab.verify", "squarefree_degree", "realroots.squarefree_degree", None),
    ("energybounds.polylab.verify", "is_totally_positive", "realroots.is_totally_positive", None),
    ("energybounds.polylab.factor", "certified_roots", "realroots.certified_roots", None),
    ("energybounds.polylab.realroots", "root_census", "realroots.root_census", _census),
    ("energybounds.polylab.realroots", "sturm_chain", "realroots.sturm_chain", None),
)

#: (metric, unit, better); every traced run reports all of them, as a total
#: per round (one pass over the workload's operations) unless noted.
PER_LAYER = (
    ("oracle.extrema_search.ms", "ms", "lower"),
    ("oracle.extrema_trace_norm.ms", "ms", "lower"),
    ("oracle.extrema_two_value.ms", "ms", "lower"),
    ("oracle.search_rows_failed", "count", "lower"),
    ("rootfind.oracle_solves", "count", "lower"),
    ("corpus.enumerate.self.ms", "ms", "lower"),
    ("realroots.root_census.calls", "count", "lower"),
    ("realroots.root_census.ms", "ms", "lower"),
    ("realroots.root_census.pass_ratio", "ratio", "higher"),
    ("realroots.sturm_chain.calls", "count", "lower"),
    ("realroots.sturm_chain.ms", "ms", "lower"),
    ("realroots.certified_roots.ms", "ms", "lower"),
    ("factor.is_irreducible.calls", "count", "lower"),
    ("factor.is_irreducible.ms", "ms", "lower"),
    ("verify.verify_theorem2.calls", "count", "lower"),
    ("verify.verify_theorem2.self.ms", "ms", "lower"),
    ("intpoly.diffsq_poly.ms", "ms", "lower"),
    ("intpoly.discriminant_exact.ms", "ms", "lower"),
    ("cli.run.self.ms", "ms", "lower"),
    ("rootfind.solve_powersum_alpha.calls", "count", "lower"),
    ("rootfind.solve_powersum_alpha.ms", "ms", "lower"),
    ("rootfind.solve_powersum_alpha.iters_mean", "count", "lower"),
    ("rootfind.solve_trace_norm_alpha.calls", "count", "lower"),
    ("rootfind.solve_trace_norm_alpha.ms", "ms", "lower"),
    ("rootfind.solve_trace_norm_alpha.iters_mean", "count", "lower"),
    ("bounds.self.ms", "ms", "lower"),
    ("core.constraints.ms", "ms", "lower"),
    ("import.numpy.ms", "ms", "lower"),
    ("import.energybounds.self.ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans and counters while installed; see ``TARGETS``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start, end, parent
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, start, end, spans[idx][3])
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns); self excludes direct children."""
        child = defaultdict(int)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[int]] = {}
        for idx, (nid, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(self.names[nid], [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child.get(idx, 0)
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path, op_starts: list[int], end_ns: int) -> None:
        """The spans that start before ``end_ns``, one CSV line each: op,
        name, start_ns, end_ns, parent (the parent's line number, header
        excluded; -1 for none).

        ``op_starts`` holds the start time of each benchmark operation in
        order, so a span belongs to the last operation started before it.
        """
        import bisect

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for nid, start, end, parent in self.spans:
                if start >= end_ns:
                    break  # spans are appended in start order
                op = bisect.bisect_right(op_starts, start) - 1
                fh.write(f"{op},{self.names[nid]},{start},{end},{parent}\n")


def per_layer(tracer: Tracer, rounds: int) -> dict[str, float]:
    """The span- and counter-derived metrics of ``PER_LAYER``, per round."""
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t.get(name, (0, 0, 0))[0] / rounds

    def ms(name, which=1):
        return t.get(name, (0, 0, 0))[which] / rounds / 1e6

    def mean(num, den):
        return num / den if den else 0.0

    bounds = [k for k in t if k.startswith("bounds.")]
    return {
        "oracle.extrema_search.ms": ms("oracle.extrema_search"),
        "oracle.extrema_trace_norm.ms": ms("oracle.extrema_trace_norm"),
        "oracle.extrema_two_value.ms": ms("oracle.extrema_two_value"),
        "oracle.search_rows_failed": c["oracle.search_rows_failed"] / rounds,
        "rootfind.oracle_solves": c["rootfind.oracle_solves"] / rounds,
        "corpus.enumerate.self.ms": ms("corpus.enumerate", 2),
        "realroots.root_census.calls": calls("realroots.root_census"),
        "realroots.root_census.ms": ms("realroots.root_census"),
        "realroots.root_census.pass_ratio": mean(
            c["realroots.root_census.passed"], t.get("realroots.root_census", (0,))[0]),
        "realroots.sturm_chain.calls": calls("realroots.sturm_chain"),
        "realroots.sturm_chain.ms": ms("realroots.sturm_chain"),
        "realroots.certified_roots.ms": ms("realroots.certified_roots"),
        "factor.is_irreducible.calls": calls("factor.is_irreducible"),
        "factor.is_irreducible.ms": ms("factor.is_irreducible"),
        "verify.verify_theorem2.calls": calls("verify.verify_theorem2"),
        "verify.verify_theorem2.self.ms": ms("verify.verify_theorem2", 2),
        "intpoly.diffsq_poly.ms": ms("intpoly.diffsq_poly"),
        "intpoly.discriminant_exact.ms": ms("intpoly.discriminant_exact"),
        "cli.run.self.ms": ms("cli.run", 2),
        "rootfind.solve_powersum_alpha.calls": calls(_SOLVE_PS),
        "rootfind.solve_powersum_alpha.ms": ms(_SOLVE_PS),
        "rootfind.solve_powersum_alpha.iters_mean": mean(
            c[f"{_SOLVE_PS}.iters"], t.get(_SOLVE_PS, (0,))[0]),
        "rootfind.solve_trace_norm_alpha.calls": calls(_SOLVE_TN),
        "rootfind.solve_trace_norm_alpha.ms": ms(_SOLVE_TN),
        "rootfind.solve_trace_norm_alpha.iters_mean": mean(
            c[f"{_SOLVE_TN}.iters"], t.get(_SOLVE_TN, (0,))[0]),
        "bounds.self.ms": sum(ms(k, 2) for k in bounds),
        "core.constraints.ms": ms("core.constraints"),
    }
