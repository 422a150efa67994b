"""One workload in a fresh interpreter: set-up, then a closed loop.

    python3 worker.py setup --workload W
    python3 worker.py run --workload W < request.json

``setup`` times the program's own set-up (importing ``energybounds``, plus
``energybounds.cli`` for poly_verify, and one warm-up operation) and exits.
``run`` does the same set-up, reads the round and the run settings as JSON
on stdin, then runs whole rounds back to back, one operation at a time,
until the next round would overrun the time budget.  It prints one JSON
object: the timings, the first round's outputs as plain data, and how many
operations of later rounds gave a different output.  No reference library
is imported here, so the peak resident memory is the program's.
"""

from __future__ import annotations

import argparse
import json
from array import array
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(workload: str):
    """Import the program and run the warm-up operation; (module, seconds)."""
    t0 = time.perf_counter()
    import energybounds

    if workload == "poly_verify":
        import energybounds.cli  # noqa: F401
    imported = time.perf_counter() - t0
    if not Path(energybounds.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"energybounds was imported from {energybounds.__file__}, not {SRC}")
    import workloads

    t1 = time.perf_counter()
    workloads.OPS[workload](energybounds, workloads.WARMUP[workload])
    return energybounds, imported + time.perf_counter() - t1


#: Rounds whose op times are kept.  The buffer for them is allocated whole
#: before the first round, so the benchmark's own memory does not grow with
#: the number of rounds and peak_rss_mb measures the program.
KEPT_ROUNDS = 400


def run_rounds(eb, workload: str, items: list[dict], seconds: float, min_rounds: int,
               first: list | None):
    """Whole rounds until the next would end past ``seconds``.

    Returns the number of rounds, the op times per round (of the first
    KEPT_ROUNDS rounds), the first-round summaries, how many operations
    gave an output different from the first round's, and the first round's
    op start times and end time (in ns).
    """
    import workloads

    op, summarize = workloads.OPS[workload], workloads.SUMMARIES[workload]
    n = len(items)
    kept = array("d", bytes(8 * n * KEPT_ROUNDS))
    rounds = 0
    op_starts: list[int] = []
    first_end = 0
    changed = 0
    clock = time.perf_counter
    start = clock()
    while True:
        outs = []
        base = rounds * n if rounds < KEPT_ROUNDS else None
        r0 = clock()
        for i, item in enumerate(items):
            if not rounds:
                op_starts.append(time.perf_counter_ns())
            a = clock()
            outs.append(op(eb, item))
            if base is not None:
                kept[base + i] = clock() - a
        wall = clock() - r0
        rounds += 1
        first_end = first_end or time.perf_counter_ns()
        summaries = [summarize(item, out) for item, out in zip(items, outs)]
        if first is None:
            first = summaries
        else:
            changed += sum(a != b for a, b in zip(first, summaries))
        del outs, summaries
        if rounds >= min_rounds and clock() - start + wall > seconds:
            times = [kept[r * n:(r + 1) * n].tolist() for r in range(min(rounds, KEPT_ROUNDS))]
            return rounds, times, first, changed, (op_starts, first_end)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    eb, setup_s = set_up(args.workload)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    req = json.load(sys.stdin)
    items, seconds, min_rounds = req["items"], req["seconds"], req["min_rounds"]
    result: dict = {"setup_s": setup_s}
    if not req["trace"]:
        rounds, times, first, changed, _ = run_rounds(
            eb, args.workload, items, seconds, min_rounds, None)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer, per_layer

        # untraced and traced rounds alternate, so that the untraced ones
        # are a base for the tracing overhead taken under the same load
        tracer = Tracer()
        base, times, first, changed, first_round = [], [], None, 0, None
        start = time.perf_counter()
        while True:
            _, t, first, more, _ = run_rounds(eb, args.workload, items, 0, 1, first)
            base += t
            changed += more
            tracer.install()
            try:
                _, t, first, more, spanned = run_rounds(eb, args.workload, items, 0, 1, first)
            finally:
                tracer.uninstall()
            times += t
            changed += more
            first_round = first_round or spanned
            if time.perf_counter() - start + sum(base[-1]) + sum(times[-1]) > seconds:
                break
        rounds = len(base) + len(times)
        result["untraced_times"] = base
        result["per_layer"] = per_layer(tracer, len(times))
        tracer.write(req["span_file"], *first_round)
    result.update(rounds=rounds, times=times, outputs=first, changed=changed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
