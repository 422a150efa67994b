"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run every workload in its short mode (seconds each), and show that
each workload's checks flag a planted wrong answer as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import energybounds  # noqa: E402
import energybounds.cli  # noqa: E402,F401
import workloads  # noqa: E402
from run import END_TO_END, tally  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_mode(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = END_TO_END if trace == "0" else [(n, u) for n, u, _ in PER_LAYER]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(expected)
    per_round = len(workloads.generate(workload, 3, short=True))
    assert result["attempted"] % per_round == 0
    failing = {"poly_verify": 1, "bound_sweep": None}.get(workload, 0)
    rounds = result["attempted"] // per_round
    if failing is not None:
        assert result["failed"] == failing * rounds
    else:
        assert result["failed"] % rounds == 0 and result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "bound_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate("oracle_grid", 5) != workloads.generate("oracle_grid", 6)
    # the inputs kept for the two known faults do not depend on the seed
    fixed = [i for i in workloads.generate("bound_sweep", 5) if i["region"] == "fixed_near_equal"]
    assert fixed == [i for i in workloads.generate("bound_sweep", 6)
                     if i["region"] == "fixed_near_equal"]
    assert [i for i in workloads.generate("poly_verify", 5) if i["kind"] == "nonfinite"] == \
        [i for i in workloads.generate("poly_verify", 6) if i["kind"] == "nonfinite"]


def test_charpoly_matches_sympy():
    import sympy

    a = [[4, 1, 0], [1, 3, -1], [0, -1, 2]]
    x = sympy.Symbol("x")
    ref = sympy.Matrix(a).charpoly(x).all_coeffs()
    assert workloads.charpoly(a) == [int(c) for c in ref]


# ---------------------------------------------------------------------------
# planted wrong answers


def _round(workload: str):
    items = workloads.generate(workload, 3, short=True)
    op, summarize = workloads.OPS[workload], workloads.SUMMARIES[workload]
    outs = [summarize(item, op(energybounds, item)) for item in items]
    assert not tally(checks.check(workload, items, outs))[1]
    return items, outs


def _first(items, pred):
    return next(i for i, item in enumerate(items) if pred(item))


def _assert_flagged(workload, items, outs, index):
    """The planted op is a wrong answer, and it counts as failed."""
    statuses = checks.check(workload, items, outs)
    assert statuses[index][0] == "wrong", statuses[index]
    failed, wrong = tally(statuses)
    assert [i for i, _ in wrong] == [index]
    assert failed == 1 + sum(s == "fault" for s, _ in statuses)


def test_planted_oracle_grid():
    items, outs = _round("oracle_grid")
    i = _first(items, lambda it: it["fam"] == "ps")
    outs[i]["lo"] += 0.01 * items[i]["s1"] ** 2
    _assert_flagged("oracle_grid", items, outs, i)
    items, outs = _round("oracle_grid")
    i = _first(items, lambda it: it["fam"] == "tn")
    outs[i]["cands"][0][1] *= 1.001  # a candidate off the constraint set
    _assert_flagged("oracle_grid", items, outs, i)


def test_planted_corpus_enum():
    items, outs = _round("corpus_enum")
    outs[0][-1]["Delta"] += 1
    _assert_flagged("corpus_enum", items, outs, 0)
    items, outs = _round("corpus_enum")
    del outs[0][0]  # a lost member
    _assert_flagged("corpus_enum", items, outs, 0)


def test_planted_poly_verify():
    items, outs = _round("poly_verify")
    i = _first(items, lambda it: it["kind"] == "charpoly")
    payload = json.loads(outs[i]["stdout"])
    payload["result"]["irreducible"] = not payload["result"]["irreducible"]
    outs[i]["stdout"] = json.dumps(payload)
    _assert_flagged("poly_verify", items, outs, i)
    items, outs = _round("poly_verify")
    outs[i]["stdout"] = outs[i]["stdout"].replace('"thm2_lhs_log": ', '"thm2_lhs_log": NaN, "x": ')
    _assert_flagged("poly_verify", items, outs, i)  # non-JSON on a seeded input


def test_planted_bound_sweep():
    items, outs = _round("bound_sweep")
    i = _first(items, lambda it: it["n"] > 2 and it["fam"] == "ps")
    outs[i]["emin"] *= 1.0 + 1e-6
    _assert_flagged("bound_sweep", items, outs, i)
    items, outs = _round("bound_sweep")
    i = _first(items, lambda it: it["n"] == 2 and it["fam"] == "tn")
    outs[i]["emin"] *= 1.0 + 1e-6
    _assert_flagged("bound_sweep", items, outs, i)
