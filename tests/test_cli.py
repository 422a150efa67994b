"""Tests for the command-line surface (exit codes, JSON shape, determinism)."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from energybounds import oracle
from energybounds.cli import run


def _json_out(capsys, argv, expect_code=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return json.loads(out)


# --- bounds -------------------------------------------------------------------


def test_bound_emin_tn_json(capsys):
    payload = _json_out(
        capsys, ["bound", "emin-tn", "--n", "3", "--s", "2", "--p", "6", "--json"]
    )
    assert payload["op"] == "bound.emin-tn"
    assert payload["inputs"]["n"] == 3
    assert payload["inputs"]["p"] == 6.0
    result = payload["result"]
    assert result["formula"] == "PropOneMin"
    assert result["value"] == pytest.approx(5.096134491443073, rel=1e-12)
    assert result["alpha"]["branch"] == "negative"
    assert result["alpha"]["k"] == 1
    assert payload["diagnostics"] == {}



def test_bound_emin_tn_tiny_product(capsys):
    for n, p, limit in (("2", "1e-20", 16.0), ("6", "1e-12", 28.8)):
        payload = _json_out(
            capsys, ["bound", "emin-tn", "--n", n, "--s", "2", "--p", p, "--json"]
        )
        assert payload["result"]["value"] == pytest.approx(limit, rel=1e-12)
        alpha = payload["result"]["alpha"]
        assert abs(alpha["residual"]) <= 1e-10 * float(p) / 2.0 ** int(n)
        assert alpha["at_boundary"] is False


def test_bound_emin_tn_smallest_product(capsys):
    # p/s^n near the bottom of the float range: the root lies beyond the
    # bracket's end, whose residual once overflowed
    payload = _json_out(
        capsys, ["bound", "emin-tn", "--n", "2", "--s", "2", "--p", "5e-324", "--json"]
    )
    assert payload["result"]["value"] == pytest.approx(16.0, abs=1e-9)


def test_bound_emax_power_json(capsys):
    payload = _json_out(
        capsys,
        ["bound", "emax-power", "--n", "3", "--r", "3", "--s1", "3", "--sr", "9", "--json"],
    )
    assert payload["result"]["formula"] == "ThmOneMaxE"
    assert payload["result"]["value"] == pytest.approx(6.0, abs=1e-9)
    assert payload["diagnostics"]["ntilde_ceil"] == 2


def test_bound_human_output(capsys):
    assert run(["bound", "emin-power", "--n", "3", "--r", "3", "--s1", "3", "--sr", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "op: bound.emin-power"
    assert "inputs.n: 3" in lines
    assert "inputs.sr: 9" in lines  # %.17g renders 9.0 without the fraction
    assert "formula: ThmOneMin" in lines
    assert any(line.startswith("value: 5.0961344914430") for line in lines)
    assert any(line.startswith("alpha.alpha: 0.53208888623795") for line in lines)


def test_bound_disc_lower_json(capsys):
    payload = _json_out(
        capsys,
        ["bound", "disc-lower", "--n", "3", "--delta", "4", "--s1", "6", "--s2", "14", "--json"],
    )
    assert payload["result"]["value"] == pytest.approx(6.0, rel=1e-12)
    assert payload["diagnostics"]["hypothesis_holds"] is True


def test_bound_potential_lower_json(capsys):
    payload = _json_out(
        capsys,
        ["bound", "potential-lower", "--n", "3", "--s1", "6", "--delta", "4",
         "--a", "2", "--json"],
    )
    assert payload["result"]["value"] == pytest.approx(28.0 / 3.0, rel=1e-12)
    assert payload["result"]["formula"] == "ThmOneSevenPotential"


def test_bound_reverse_amgm_and_sr_upper(capsys):
    amgm = _json_out(
        capsys, ["bound", "reverse-amgm", "--n", "3", "--s", "2", "--energy", "6", "--json"]
    )
    assert amgm["result"]["value"] == pytest.approx(1.4247297921108533, rel=1e-12)
    upper = _json_out(
        capsys, ["bound", "sr-upper", "--n", "3", "--r", "3", "--s1", "6", "--energy", "6", "--json"]
    )
    assert upper["result"]["value"] == pytest.approx(37.15470053837923, rel=1e-12)


# --- the r=2 identity ----------------------------------------------------------


def test_r2_bound_is_identity(capsys):
    for which in ("emin-power", "emax-power"):
        payload = _json_out(
            capsys, ["bound", which, "--n", "3", "--r", "2", "--s1", "6", "--sr", "14", "--json"]
        )
        assert payload["result"]["formula"] == "EnergyIdentity"
        assert payload["result"]["value"] == 6.0  # 3*14 - 36
        assert payload["result"]["alpha"] is None


def test_r2_oracle_is_identity(capsys):
    payload = _json_out(
        capsys, ["oracle", "power", "--n", "3", "--r", "2", "--s1", "6", "--sr", "14", "--json"]
    )
    assert payload["result"]["min"] == payload["result"]["max"] == 6.0
    assert payload["diagnostics"]["note"] == "energy fixed when r=2"


def test_r2_infeasible_moments(capsys):
    code = run(["bound", "emin-power", "--n", "3", "--r", "2", "--s1", "3", "--sr", "10", "--json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is None
    assert payload["diagnostics"]["error"] == "S2 <= S1^2"
    # the oracle checks the same moments and reports them the same way
    code = run(["oracle", "power", "--n", "3", "--r", "2", "--s1", "3", "--sr", "10", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == payload["diagnostics"]


# --- exit codes -----------------------------------------------------------------


def test_infeasible_exits_2(capsys):
    # S3 = 9 > S1^3 = 8 cannot come from nonnegative reals
    code = run(["bound", "emin-power", "--n", "3", "--r", "3", "--s1", "2", "--sr", "9", "--json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is None
    assert payload["diagnostics"]["error"] == "Sr <= S1^r"
    assert payload["inputs"]["s1"] == 2.0


def test_infeasible_human_report(capsys):
    code = run(["bound", "emin-tn", "--n", "3", "--s", "1", "--p", "2"])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("error: p <= s^n")


def test_usage_errors_exit_1(capsys):
    assert run(["bound", "emin-tn", "--n", "3"]) == 1  # missing required flags
    capsys.readouterr()
    assert run(["bound", "no-such-op"]) == 1
    capsys.readouterr()
    assert run(["corpus", "enumerate", "--max-degree", "20"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "sr-upper", "--n", "4", "--r", "5", "--s1", "1e300", "--energy", "1"],
        ["bound", "reverse-amgm", "--n", "4", "--s", "1e300", "--energy", "1"],
        ["bound", "emin-tn", "--n", "4", "--s", "1e300", "--p", "1e300"],
        ["bound", "potential-lower", "--n", "3", "--s1", "1e300", "--delta", "4",
         "--a", "1e300", "--b", "1e300"],
    ],
    ids=lambda argv: argv[1],
)
def test_overflow_is_a_usage_error(capsys, argv, json_flag):
    # a result past the float range is reported like a non-finite bound value:
    # exit 1 and one usage line, no traceback
    assert run(argv + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage: ")
    assert captured.err.count("\n") == 1


def test_tiny_product_search_succeeds(capsys):
    # p = 1e-300: the search runs in log x, so a coordinate near 2.5e-301
    # projects like any other
    argv = ["oracle", "trace-norm", "--n", "2", "--s", "2", "--p", "1e-300", "--json"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["result"]["search"]["min"] == pytest.approx(4 * (2.0**2 - 1e-300), rel=1e-9)
    # at s = 1e6 the minimizer's small coordinate, about 4e-337, underflows
    # x = exp(u); the search still reaches the bound
    argv = ["oracle", "trace-norm", "--n", "7", "--s", "1e6", "--p", "1e-300", "--json"]
    assert run(argv) == 0
    result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["result"]
    bound = min(c["E"] for c in result["candidates"])
    assert result["search"]["min"] == pytest.approx(bound, rel=1e-9)
    assert result["min"] == pytest.approx(bound, rel=1e-9)


def test_search_failure_exits_3(capsys, monkeypatch):
    # a projector that fails every row leaves no search extremes to report
    monkeypatch.setattr(
        oracle, "_project", lambda Y, free, *args: (Y, np.zeros(Y.shape[0], dtype=bool))
    )
    argv = ["oracle", "trace-norm", "--n", "2", "--s", "2", "--p", "1"]
    assert run(argv + ["--json"]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    assert payload["result"] is None
    assert payload["diagnostics"]["error"] == "search_failed"
    assert payload["inputs"]["p"] == 1.0
    assert "Traceback" not in captured.err
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("error: search_failed: ")
    assert "Traceback" not in captured.err


def test_negative_rational_is_a_value(capsys):
    base = ["poly", "hermite", "--n", "4", "--lam", "3/4", "--json"]
    spaced = _json_out(capsys, base + ["--mu", "-1/3"])
    joined = _json_out(capsys, base + ["--mu=-1/3"])
    assert spaced == joined
    assert spaced["result"]["mu"] == "-1/3"


def test_bad_hermite_rational_exits_1(capsys):
    assert run(["poly", "hermite", "--n", "3", "--lam", "abc", "--mu", "0"]) == 1
    assert "bad rational" in capsys.readouterr().err


# --- oracles ---------------------------------------------------------------------


def test_oracle_power_json(capsys):
    payload = _json_out(
        capsys,
        ["oracle", "power", "--n", "3", "--r", "3", "--s1", "3", "--sr", "9",
         "--restarts", "4", "--seed", "1", "--json"],
    )
    result = payload["result"]
    assert result["min"] == pytest.approx(5.096134491443075, rel=1e-6)
    assert result["max"] == pytest.approx(6.0, rel=1e-6)
    assert result["search"]["failed"] == []
    kinds = {c["kind"] for c in result["candidates"]}
    assert kinds == {"interior", "boundary"}
    assert payload["diagnostics"]["k_star"] == 1


def test_oracle_trace_norm_json(capsys):
    payload = _json_out(
        capsys,
        ["oracle", "trace-norm", "--n", "3", "--s", "2", "--p", "6",
         "--restarts", "6", "--json"],
    )
    assert payload["result"]["min"] == pytest.approx(5.096134491443073, rel=1e-6)
    assert payload["result"]["max"] == pytest.approx(7.668396859688313, rel=1e-6)


def test_oracle_trace_norm_mirrored_candidates_agree(capsys):
    # k small values listed at k (negative branch) and at n - k (positive
    # branch, values swapped) are one configuration with one energy
    n = 4
    payload = _json_out(
        capsys, ["oracle", "trace-norm", "--n", str(n), "--s", "2", "--p", "10", "--json"]
    )
    cands = payload["result"]["candidates"]
    assert len(cands) == 2 * (n - 1)
    for k in range(1, n):
        neg, pos = cands[2 * (k - 1)], cands[2 * (n - k - 1) + 1]
        assert (neg["k"], pos["k"]) == (k, n - k)
        assert (pos["E"], pos["x"], pos["y"]) == (neg["E"], neg["y"], neg["x"])


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "trace-norm", "--n", "3", "--s", "2", "--p", "8.000000004"],
        ["oracle", "power", "--n", "3", "--r", "3", "--s1", "3", "--sr", "2.999999999"],
    ],
)
def test_oracle_all_equal_within_tolerance(capsys, argv):
    # within relative 1e-9 of the all-equal point the manifold is that one
    # point; the search returns 0 there instead of failing to project
    search = _json_out(capsys, argv + ["--json"])["result"]["search"]
    assert search["min"] == search["max"] == 0.0
    assert search["failed"] == []


def test_oracle_bad_restarts_exit_1(capsys):
    argv = ["oracle", "trace-norm", "--n", "3", "--s", "2", "--p", "6", "--restarts", "0",
            "--json"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: restarts must be a positive integer\n"


def test_json_output_is_byte_identical(capsys):
    argv = ["oracle", "power", "--n", "4", "--r", "3", "--s1", "4", "--sr", "16",
            "--restarts", "3", "--seed", "7", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # and it is valid JSON


def test_threads_from_env(capsys, monkeypatch):
    argv = ["corpus", "enumerate", "--max-degree", "3", "--json"]
    monkeypatch.setenv("ENERGY_BOUNDS_THREADS", "2")
    payload = _json_out(capsys, argv)
    assert payload["inputs"]["threads"] == 2
    # an explicit flag wins over the environment
    again = _json_out(capsys, argv + ["--threads", "3"])
    assert again["inputs"]["threads"] == 3
    # the split into worker tasks changes neither the result nor the counters
    assert again["result"] == payload["result"]
    assert again["diagnostics"] == payload["diagnostics"]
    monkeypatch.setenv("ENERGY_BOUNDS_THREADS", "soon")
    assert run(argv) == 2



def test_error_payload_echoes_success_inputs(capsys, monkeypatch):
    def input_keys(argv, expect_code):
        return list(_json_out(capsys, argv + ["--json"], expect_code)["inputs"])

    power = ["oracle", "power", "--n", "3", "--r", "3", "--restarts", "2", "--sr", "9", "--s1"]
    assert input_keys(power + ["3"], 0) == input_keys(power + ["2"], 2)
    corpus = ["corpus", "enumerate", "--max-degree", "2"]
    monkeypatch.setenv("ENERGY_BOUNDS_THREADS", "1")
    feasible = input_keys(corpus, 0)
    monkeypatch.setenv("ENERGY_BOUNDS_THREADS", "soon")
    assert input_keys(corpus, 2) == feasible

def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_json_is_strict(capsys):
    # Delta < 0 makes the log margins -inf; they must print as null
    assert run(["poly", "verify", "--coeffs", "1 0 1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["result"]["thm2_margin_log"] is None
    assert payload["result"]["thm2_lhs_log"] is None
    assert payload["result"]["Delta"] == -4
    # a tab in the echoed input must be escaped, not written raw
    assert run(["poly", "verify", "--coeffs", "1\t-3\t1", "--json"]) == 0
    out = capsys.readouterr().out
    assert "\t" not in out
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["inputs"]["coeffs"] == "1\t-3\t1"
    assert payload["result"]["E"] == 5


# --- polynomials -------------------------------------------------------------------


def test_poly_verify_json(capsys):
    payload = _json_out(capsys, ["poly", "verify", "--coeffs", "1 -6 11 -6", "--json"])
    result = payload["result"]
    assert result["degree"] == 3
    assert result["E"] == 6 and result["Delta"] == 4
    assert result["thm2_holds"] is True
    assert result["irreducible"] is False
    assert result["diffsq_squarefree"] is False
    assert result["thm2_margin_log"] == pytest.approx(0.0, abs=1e-12)


def test_poly_diffsq_json(capsys):
    payload = _json_out(capsys, ["poly", "diffsq", "--coeffs", "1 -3 1", "--json"])
    assert payload["result"]["diffsq_coeffs"] == [1, -5]
    assert payload["result"]["squarefree"] is True


def test_poly_hermite_json(capsys):
    payload = _json_out(
        capsys, ["poly", "hermite", "--n", "3", "--lam", "1", "--mu", "0", "--json"]
    )
    result = payload["result"]
    assert result["coeffs_ascending"] == ["0", "-3", "0", "1"]
    assert result["energy"] == "18" and result["delta"] == "108"
    assert result["energy_identity"] and result["delta_identity"]


def test_poly_bad_coeffs_exit_1(capsys):
    assert run(["poly", "verify", "--coeffs", "1 x 3"]) == 1
    assert "malformed" in capsys.readouterr().err


# --- corpus and constants ------------------------------------------------------------


def test_corpus_csv_single_row(capsys):
    assert run(["corpus", "enumerate", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "degree,coeffs,trace,E,Delta,diffsq_squarefree,thm2_margin_log\n"
        "2,1|-3|1,3,5,5,true,0\n"
    )


def test_corpus_json(capsys):
    payload = _json_out(
        capsys, ["corpus", "enumerate", "--max-degree", "3", "--threads", "1", "--json"]
    )
    result = payload["result"]
    assert result["count"] == 2
    assert result["per_degree"] == {"2": 1, "3": 1}
    assert result["members"][1]["coeffs"] == [1, -5, 6, -1]
    assert payload["inputs"]["prune_sturm"] is True
    stats = payload["diagnostics"]["stats"]
    assert list(stats) == [
        "internal_nodes", "pruned", "certified_pass", "exact_tests", "fallback_nodes",
        "filter_fallbacks", "leaves", "leaf_rejects",
    ]
    assert stats["internal_nodes"] == {"2": [2], "3": [3, 16]}
    assert stats["leaves"] - sum(stats["leaf_rejects"].values()) == result["count"]
    assert set(stats["pruned"]) == {"certificate", "newton", "exact_test"}


def test_constants_siegel(capsys):
    payload = _json_out(capsys, ["constants", "siegel", "--json"])
    result = payload["result"]
    assert result["lambda0"] == pytest.approx(1.7336105169846476, rel=1e-9)
    assert result["theta"] == pytest.approx(0.3144808694076347, rel=1e-9)
    assert result["lambda_www"] == 1.793145
    assert abs(result["residual"]) <= 1e-12


# --- the README's examples ----------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _readme_examples():
    """(argv, shown output lines) for every `$ energy-bounds` line of the README."""
    examples, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ energy-bounds "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None and line and not line.startswith("```"):
            current[1].append(line)
        else:
            current = None
    return examples


_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(_EXAMPLES) >= 6


@pytest.mark.parametrize("argv, shown", _EXAMPLES, ids=[" ".join(a) for a, _ in _EXAMPLES])
def test_readme_example_runs(capsys, monkeypatch, argv, shown):
    # each example exits 0, prints strict JSON where --json is given, and
    # prints every number the README shows for it
    monkeypatch.setenv("ENERGY_BOUNDS_THREADS", "1")
    assert run(argv) == 0
    out = capsys.readouterr().out
    if "--json" in argv:
        json.loads(out, parse_constant=_reject_constant)
    printed = set(_NUMBER.findall(out))
    for line in shown:
        for number in _NUMBER.findall(line):
            assert number in printed, (number, line)
