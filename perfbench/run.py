"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Run from the root of a source checkout.  It makes the workload's round from
the seed, times the program's set-up in fresh interpreters, runs the round
in a closed loop in one more fresh interpreter (one caller, each operation
after the previous one returned), checks every output of the first round
against independent references and every later round against the first,
and prints the metrics.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run, plus the tracing overhead.  ``--short``
runs a small round of every workload, for the benchmark's own tests.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Fresh interpreters timed for setup_s before and after the measuring one,
#: which is timed too; one more, first of all, only warms the bytecode and
#: file caches and is dropped.  Taking them on both sides of the loop
#: spreads them over the run, as the host's speed drifts.
SETUP_SAMPLES = 7

#: Rounds a run makes at least, so that each operation's median over the
#: run's rounds leaves out a single slow repeat (the host's CPU steal comes
#: in bursts that slow one or two operations at a time).
MIN_ROUNDS = {"oracle_grid": 3, "poly_verify": 3, "bound_sweep": 3, "corpus_enum": 1}

WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p)
    return env


def _python(args: list[str], stdin: str | None, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        cwd=ROOT, env=_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _setup_sample(workload: str) -> float:
    out = _python([str(HERE / "worker.py"), "setup", "--workload", workload], None, SETUP_TIMEOUT_S)
    return json.loads(out.splitlines()[-1])["setup_s"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q % at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond
    it (100, the maximum, when n is ten or less)."""
    q = 100
    while q > 0 and n - math.ceil(q * n / 100) < 10 and n > 10:
        q -= 1
    return q


def op_medians(times: list[list[float]]) -> list[float]:
    """Each operation's median time over the rounds that ran it."""
    return [statistics.median(ts) for ts in zip(*times)]


def import_times() -> dict[str, float]:
    """Median over three fresh interpreters of ``-X importtime``: numpy's
    cumulative import and the self time of every energybounds module."""
    numpy_ms, own_ms = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import energybounds"],
            capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"-X importtime failed: {proc.stderr[-2000:]}")
        own = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if not parts[0].isdigit():
                continue  # the header line
            name = parts[2]
            if name == "numpy":
                numpy_ms.append(int(parts[1]) / 1000)
            if name.startswith("energybounds"):
                own += int(parts[0])
        own_ms.append(own / 1000)
    return {"import.numpy.ms": statistics.median(numpy_ms),
            "import.energybounds.self.ms": statistics.median(own_ms)}


def tally(statuses: list[tuple[str, str]]) -> tuple[int, list[tuple[int, str]]]:
    """Failed operations of a round (known faults and wrong answers), and
    the wrong answers alone with their positions."""
    wrong = [(i, d) for i, (s, d) in enumerate(statuses) if s == "wrong"]
    return sum(s != "ok" for s, _ in statuses), wrong


def measure(workload: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    if not (SRC / "energybounds" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    items = workloads.generate(workload, seed, short)
    min_rounds = 1 if short else MIN_ROUNDS[workload]
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans_{workload}_{seed}.csv"
    request = json.dumps({"items": items, "seconds": seconds, "min_rounds": min_rounds,
                          "trace": trace, "span_file": str(span_file)})

    n_setup = 0 if trace else 1 if short else SETUP_SAMPLES
    samples = [_setup_sample(workload) for _ in range(n_setup + 1)][1:]
    out = _python([str(HERE / "worker.py"), "run", "--workload", workload],
                  request, WORKER_TIMEOUT_S)
    res = json.loads(out.splitlines()[-1])
    samples += [_setup_sample(workload) for _ in range(n_setup)]

    statuses = checks.check(workload, items, res["outputs"])
    rounds = res["rounds"]
    per_round_failed, wrong = tally(statuses)
    for i, detail in wrong:
        print(f"wrong: op {i} {items[i]}: {detail}", file=sys.stderr)
    if res["changed"]:
        print(f"wrong: {res['changed']} later-round outputs differ from the first round",
              file=sys.stderr)
    faults = sorted({d for s, d in statuses if s == "fault"})

    if trace:
        metrics = dict(res["per_layer"])
        metrics.update(import_times())
        metrics["trace.overhead_s"] = (sum(op_medians(res["times"]))
                                       - sum(op_medians(res["untraced_times"])))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        per_op = op_medians(res["times"])
        metrics = {
            "setup_s": statistics.median(samples + [res["setup_s"]]),
            "wall_s": sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": percentile(per_op, tail_percentile(len(per_op))) * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    return {
        "correct": not wrong and res["changed"] == 0,
        "attempted": rounds * len(items),
        "failed": rounds * per_round_failed + res["changed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_info": {"rounds": rounds, "ops_per_round": len(items), "faults": faults},
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="a small round, for tests")
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.short)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    info = result.pop("_info")
    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{tag}: {info['rounds']} rounds of {info['ops_per_round']} operations; "
          f"attempted {result['attempted']}, failed {result['failed']} "
          f"(known faults: {', '.join(info['faults']) or 'none'}); correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    (OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
