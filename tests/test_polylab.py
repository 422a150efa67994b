"""Tests for the exact integer-polynomial machinery."""

import itertools
import logging
import math
import re
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest

from energybounds import hyperfactorial, power_sums_from_coeffs
from energybounds.polylab import (
    MAX_DEGREE,
    IntPolynomial,
    RootKind,
    certified_roots,
    corpus_to_csv,
    count_real_roots,
    default_trace_bound,
    diffsq_poly,
    discriminant_exact,
    enumerate_corpus,
    hermite_family,
    is_irreducible,
    is_totally_positive,
    parse_poly_line,
    parse_poly_text,
    poly_gcd,
    sturm_chain,
    squarefree_degree,
    verify_theorem2,
)
from energybounds.polylab import corpus, factor, intpoly
from energybounds.polylab.intpoly import _derive
from energybounds.polylab.realroots import root_census

P123 = IntPolynomial((1, -6, 11, -6))  # (x-1)(x-2)(x-3)
GOLDEN_QUADRATIC = IntPolynomial((1, -3, 1))
# ((x-2)^2 - 2)((x-2)^2 - 3): distinct roots but colliding root differences
QUARTET = IntPolynomial((1, -8, 19, -12, 2))


# --- parsing and the polynomial type -----------------------------------------


def test_parse_poly_line():
    assert parse_poly_line("1 -6 11 -6") == P123
    assert parse_poly_line("1,-6,11,-6") == P123
    with pytest.raises(ValueError, match="empty"):
        parse_poly_line("   ")
    with pytest.raises(ValueError, match="malformed"):
        parse_poly_line("1 x 3")


def test_parse_poly_text_skips_comments():
    text = "# corpus seeds\n1 -3 1\n\n  1 -6 11 -6\n"
    assert parse_poly_text(text) == [GOLDEN_QUADRATIC, P123]


def test_poly_type_validation():
    with pytest.raises(ValueError, match="degree"):
        IntPolynomial((5,))
    with pytest.raises(ValueError, match="leading"):
        IntPolynomial((0, 1, 2))
    with pytest.raises(ValueError, match="integer"):
        IntPolynomial((1, 2.5))
    with pytest.raises(ValueError, match="integer"):
        IntPolynomial((1, True))


def test_poly_basics():
    assert P123.degree == 3
    assert P123.is_monic
    assert IntPolynomial.from_roots([1, 2, 3]) == P123
    assert [P123(x) for x in (1, 2, 3)] == [0, 0, 0]
    assert P123(0) == -6
    assert parse_poly_line(P123.to_line()) == P123
    prod = IntPolynomial((1, -1)) * IntPolynomial((1, 1))
    assert prod == IntPolynomial((1, 0, -1))


# --- discriminants ---------------------------------------------------------------


def test_discriminant_witnesses():
    assert discriminant_exact(GOLDEN_QUADRATIC) == 5  # b^2 - 4ac
    assert discriminant_exact(P123) == 4  # 1 * 4 * 1 over the pairs
    assert discriminant_exact(IntPolynomial((1, 0, -3, 0))) == 108  # x^3 - 3x
    assert discriminant_exact(IntPolynomial((1, -2))) == 1  # empty product at degree 1
    with pytest.raises(ValueError, match="monic"):
        discriminant_exact(IntPolynomial((2, 0, -3, 0)))


def test_discriminant_equals_pairwise_product():
    rng = np.random.default_rng(3)
    for _ in range(15):
        deg = int(rng.integers(2, 9))
        roots = [int(x) for x in rng.choice(np.arange(-9, 10), size=deg, replace=False)]
        poly = IntPolynomial.from_roots(roots)
        exact = math.prod(
            (a - b) ** 2 for a, b in itertools.combinations(roots, 2)
        )
        assert discriminant_exact(poly) == exact


def test_poly_gcd():
    # (x-1)^2 (x+2) and (x-1)(x+3) share x - 1
    assert poly_gcd([1, 0, -3, 2], [1, 2, -3]) == [1, -1]
    assert poly_gcd([2, 4], [4, 8]) == [1, 2]  # primitive, positive lead
    assert poly_gcd([1, -1], [1, 1]) == [1]
    assert poly_gcd([], []) == []


# --- the squared-difference polynomial ----------------------------------------


def test_diffsq_witnesses():
    # (1,2,3): squared differences {1, 1, 4} -> (z-1)^2 (z-4), not squarefree
    dpoly, squarefree = diffsq_poly(P123)
    assert dpoly == IntPolynomial((1, -6, 9, -4))
    assert squarefree is False
    # x^2-3x+1: single pair with (x1-x2)^2 = 5
    dpoly, squarefree = diffsq_poly(GOLDEN_QUADRATIC)
    assert dpoly == IntPolynomial((1, -5))
    assert squarefree is True
    # distinct roots, yet two pairs share each squared difference
    _, squarefree = diffsq_poly(QUARTET)
    assert squarefree is False
    with pytest.raises(ValueError, match="monic"):
        diffsq_poly(IntPolynomial((2, 0, -1)))


def test_diffsq_matches_direct_construction():
    rng = np.random.default_rng(5)
    for _ in range(12):
        deg = int(rng.integers(2, 8))
        roots = [int(x) for x in rng.choice(np.arange(-8, 9), size=deg, replace=True)]
        poly = IntPolynomial.from_roots(roots)
        dpoly, squarefree = diffsq_poly(poly)
        diffs = sorted((a - b) ** 2 for a, b in itertools.combinations(roots, 2))
        assert dpoly == IntPolynomial.from_roots(diffs)
        assert squarefree == (len(set(diffs)) == len(diffs))
        # the negated subleading coefficient is the energy n S2 - S1^2
        s1, s2 = power_sums_from_coeffs(poly.coeffs, 2)
        assert -dpoly.coeffs[1] == deg * s2 - s1 * s1


# --- Sturm machinery ------------------------------------------------------------


def test_sturm_chain_shape():
    chain = sturm_chain([1, -6, 11, -6])
    assert chain[0] == [1, -6, 11, -6]
    assert chain[1] == [3, -12, 11]
    assert len(chain[-1]) == 1  # squarefree: the chain ends in a constant


def test_count_real_roots():
    assert count_real_roots(P123) == 3
    assert count_real_roots(P123, Fraction(3, 2), Fraction(7, 2)) == 2
    assert count_real_roots(P123, 0, Fraction(3, 2)) == 1
    assert count_real_roots([1, 0, 1]) == 0
    with pytest.raises(ValueError, match="endpoint"):
        count_real_roots(P123, 1, 10)  # endpoints must not be roots


def test_squarefree_degree():
    assert squarefree_degree([1, 0, -3, 2]) == 2  # (x-1)^2 (x+2)
    assert squarefree_degree(list(P123.coeffs)) == 3


def test_root_census():
    assert root_census([1, 0, -3, 2]) == (2, 1, 2)  # (x-1)^2 (x+2)
    assert root_census(GOLDEN_QUADRATIC) == (2, 2, 2)
    assert root_census([1, 0, 1]) == (0, 0, 2)
    assert root_census(QUARTET) == (4, 4, 4)
    with pytest.raises(ValueError, match="zero constant"):
        root_census([1, 0])


def test_certified_roots_distinct():
    cls = certified_roots(P123)
    assert cls.kind is RootKind.ALL_REAL_DISTINCT
    assert cls.roots == pytest.approx((1.0, 2.0, 3.0), abs=1e-9)
    golden = certified_roots(GOLDEN_QUADRATIC)
    assert golden.roots == pytest.approx(
        ((3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2), rel=1e-12
    )


def test_certified_roots_exact_hits():
    # integer roots would be bisection midpoints of [-B, B]; the isolation
    # grid on (-B - 1/3, B + 2/3] holds no integer, so no end is ever a root
    cls = certified_roots(IntPolynomial.from_roots([-2, 0, 2]))
    assert cls.kind is RootKind.ALL_REAL_DISTINCT
    assert cls.roots == pytest.approx((-2.0, 0.0, 2.0), abs=1e-9)


def test_certified_roots_other_kinds():
    assert certified_roots(IntPolynomial((1, 0, 1))).kind is RootKind.NOT_ALL_REAL
    assert certified_roots(IntPolynomial((1, -2, 1))).kind is RootKind.REPEATED_ROOTS
    with pytest.raises(ValueError, match="monic"):
        certified_roots(IntPolynomial((3, -1)))


def test_is_totally_positive():
    assert is_totally_positive(P123) is True
    assert is_totally_positive(GOLDEN_QUADRATIC) is True
    assert is_totally_positive(IntPolynomial((1, -4, 5, -2))) is True  # (x-1)^2 (x-2)
    assert is_totally_positive(IntPolynomial((1, 0, -3, 2))) is False  # root -2
    assert is_totally_positive(IntPolynomial((1, 0, 1))) is False
    assert is_totally_positive(IntPolynomial((1, -1, 0))) is False  # root 0
    with pytest.raises(ValueError, match="monic"):
        is_totally_positive(IntPolynomial((2, -1)))


# --- irreducibility -------------------------------------------------------------


def test_is_irreducible():
    assert is_irreducible(GOLDEN_QUADRATIC) is True
    assert is_irreducible(IntPolynomial((1, 0, -2))) is True
    assert is_irreducible(IntPolynomial((1, 0, 0, 0, 1))) is True  # x^4 + 1
    assert is_irreducible(P123) is False
    assert is_irreducible(IntPolynomial((1, 0, 3, 0, 2))) is False  # (x^2+1)(x^2+2)
    assert is_irreducible(IntPolynomial((1, -2, 1))) is False  # repeated factor
    assert is_irreducible(IntPolynomial((1, -1, 0))) is False  # x | f
    assert is_irreducible(IntPolynomial((1, -1))) is True


def test_is_irreducible_domain():
    assert MAX_DEGREE == 9
    with pytest.raises(ValueError, match="monic"):
        is_irreducible(IntPolynomial((2, -1, 1)))
    with pytest.raises(ValueError, match="not supported"):
        is_irreducible(IntPolynomial((1,) + (0,) * 9 + (-1,)))


# --- the ODE-extremal family ----------------------------------------------------


def test_hermite_witness():
    fam = hermite_family(3, 1, 0)
    assert fam.coeffs == (0, -3, 0, 1)  # x^3 - 3x, ascending
    assert fam.energy == 18  # 2 n binom(n,2) / lam
    assert fam.delta == 108  # hyperfactorial(3) / lam^C
    assert fam.energy_identity and fam.delta_identity


def test_hermite_identities_exact():
    for n in range(2, 13):
        fam = hermite_family(n, Fraction(3, 7), Fraction(-2, 5))
        assert fam.energy_identity and fam.delta_identity
        pairs = math.comb(n, 2)
        assert fam.energy * fam.lam == 2 * n * pairs
        assert fam.delta * fam.lam**pairs == hyperfactorial(n)


def test_hermite_solves_its_ode():
    # f'' - (lam x - mu) f' + lam n f must vanish coefficientwise
    n, lam, mu = 5, Fraction(2), Fraction(1, 3)
    c = hermite_family(n, lam, mu).coeffs
    for k in range(n + 1):
        second = (k + 1) * (k + 2) * c[k + 2] if k + 2 <= n else 0
        x_fprime = k * c[k]  # coefficient k of x f'
        fprime = (k + 1) * c[k + 1] if k + 1 <= n else 0
        assert second - lam * x_fprime + mu * fprime + lam * n * c[k] == 0


def test_hermite_validation():
    with pytest.raises(ValueError, match=">= 2"):
        hermite_family(1, 1, 0)
    with pytest.raises(ValueError, match="positive"):
        hermite_family(3, 0, 0)
    with pytest.raises(ValueError, match="positive"):
        hermite_family(3, -2, 1)


# --- single-polynomial verification ----------------------------------------------


def test_verify_equality_case_cubic():
    # (1,2,3): E^C Y(3) = 6^3 * 108 equals C^C (2n)^C Delta = 27 * 216 * 4
    report = verify_theorem2(P123)
    assert (report.S1, report.S2, report.E, report.Delta) == (6, 14, 6, 4)
    assert report.n == 3 and report.trace == 6
    assert report.thm2_holds is True
    assert report.E**3 * hyperfactorial(3) == 3**3 * 6**3 * report.Delta
    assert report.thm2_lhs_log == pytest.approx(math.log(8), rel=1e-15)
    assert report.thm2_rhs_log == pytest.approx(math.log(8), rel=1e-15)
    assert abs(report.thm2_margin_log) <= 1e-12
    assert report.edelta_margin_log == pytest.approx(math.log(2), abs=1e-12)
    assert report.all_real and report.totally_positive and report.hypothesis_holds
    assert report.irreducible is False
    assert report.diffsq_squarefree is False


def test_verify_equality_case_quadratic():
    # x^2 - 3x + 1: E = Delta = 5 and C = 1 make both sides 20 exactly
    report = verify_theorem2(GOLDEN_QUADRATIC)
    assert (report.E, report.Delta) == (5, 5)
    assert report.thm2_holds is True
    assert abs(report.thm2_margin_log) <= 1e-12
    assert report.irreducible is True
    assert report.diffsq_squarefree is True
    assert report.hypothesis_holds is True


def test_verify_degree_one():
    report = verify_theorem2(IntPolynomial((1, -1)))
    assert report.E == 0 and report.Delta == 1
    assert report.thm2_holds and report.thm2_margin_log == 0.0
    assert report.all_real and report.irreducible


def test_verify_degenerate_discriminants():
    # complex roots: Delta < 0, the right side is vacuous
    gauss = verify_theorem2(IntPolynomial((1, 0, 1)))
    assert gauss.Delta == -4 and gauss.thm2_holds is True
    assert gauss.all_real is False
    assert math.isinf(gauss.thm2_margin_log)
    # repeated root: Delta = 0, E = 0
    double = verify_theorem2(IntPolynomial((1, -2, 1)))
    assert double.Delta == 0 and double.E == 0
    assert double.thm2_holds is True


def test_verify_quartet_counterexample():
    report = verify_theorem2(QUARTET)
    assert report.all_real and report.totally_positive
    assert report.diffsq_squarefree is False
    assert report.thm2_holds is True
    with pytest.raises(ValueError, match="monic"):
        verify_theorem2(IntPolynomial((2, -3, 1)))


# --- corpus enumeration ------------------------------------------------------------


def test_corpus_degree_one_convention():
    reports = enumerate_corpus(1)
    assert [r.poly.coeffs for r in reports] == [(1, -1)]
    assert reports[0].E == 0 and reports[0].Delta == 1


def test_corpus_smallest_member():
    reports = enumerate_corpus(2)
    assert [r.poly.coeffs for r in reports] == [(1, -3, 1)]


def test_corpus_through_degree_five():
    reports = enumerate_corpus(5)
    counts = Counter(r.poly.degree for r in reports)
    assert dict(counts) == {2: 1, 3: 1, 4: 2, 5: 4}
    cubic = next(r for r in reports if r.poly.degree == 3)
    assert cubic.poly.coeffs == (1, -5, 6, -1)
    assert (cubic.trace, cubic.E, cubic.Delta) == (5, 14, 49)
    assert cubic.thm2_margin_log == pytest.approx(0.036367644170873348, rel=1e-12)
    for r in reports:
        n = r.poly.degree
        assert r.trace < default_trace_bound(n)
        assert r.all_real and r.totally_positive and r.irreducible
        # membership does not require the moment hypothesis, only the bound
        assert r.thm2_holds


def test_corpus_prunes_only_skip_nonmembers():
    baseline = [r.poly.coeffs for r in enumerate_corpus(5)]
    for flag in ("prune_newton", "prune_sturm"):
        got = [r.poly.coeffs for r in enumerate_corpus(5, **{flag: False})]
        assert got == baseline


_ALL_PRUNES = (True, True)


def test_newton_prune_implies_maclaurin():
    """Newton's inequalities at every ancestor imply Maclaurin's between
    adjacent e_k (Hardy, Littlewood and Polya, *Inequalities*, 2.22), so
    the corpus walk needs no Maclaurin prune: at every internal node of
    degree <= 6, every child that the Newton prune keeps satisfies
    e_{d+1}^d C(n,d)^(d+1) <= e_d^(d+1) C(n,d+1)^d, in exact integers."""
    checked = 0
    for n in range(2, 7):
        level = [[e1] for e1 in range(n, default_trace_bound(n))]
        while len(level[0]) < n:
            for es in level:
                d = len(es)
                kept = corpus._children(
                    n, es, corpus._cap(n, es), None, (True, False), corpus.CorpusStats()
                )
                b_here, b_next = math.comb(n, d), math.comb(n, d + 1)
                for nxt in kept:
                    assert nxt**d * b_here ** (d + 1) <= es[-1] ** (d + 1) * b_next**d, (n, es, nxt)
                checked += len(kept)
            level = corpus._expand(n, level, _ALL_PRUNES, corpus.CorpusStats())
    assert checked == 95296


def _scanned_nodes(n, e1):
    """(es, children) for every internal node below e_1, with the children
    that the per-candidate ``_truncation_real_rooted`` scan keeps."""
    stack = [[e1]]
    while stack:
        es = stack.pop()
        if len(es) < n:
            cap = corpus._cap(n, es)
            kids = corpus._children(n, es, cap, None, _ALL_PRUNES, corpus.CorpusStats())
            yield es, kids
            stack.extend(es + [e] for e in kids)


def test_certified_children_match_scan():
    """At every internal node of degree <= 5, and under four degree-6 e_1,
    the certificate keeps exactly the children the exact scan keeps (leaves
    are only narrowed, keeping every real-rooted one), and its claims hold
    on every candidate around its interval.  The float filter, run on the
    same nodes in batches, gives the exact certificate's tuple wherever it
    gives one, and leaves some nodes to it: those whose truncation has an
    integer root, where (u -+ err)/scale lies next to an integer."""
    stats = corpus.CorpusStats()
    starts = [(n, e1) for n in range(2, 6) for e1 in range(n, 2 * n)]
    levels = defaultdict(list)  # (n, depth) -> nodes
    for n, e1 in starts + [(6, e1) for e1 in (6, 7, 8, 9)]:
        for es, scanned in _scanned_nodes(n, e1):
            levels[n, len(es)].append(es)
            gd = corpus._truncation(n, es)
            zs = corpus._real_rows(corpus._root_proposals([gd]))[0]
            cap = corpus._cap(n, es)
            bounds = None if zs is None else corpus._child_bounds(n, gd, zs, cap)
            certified = corpus._children(n, es, cap, bounds, _ALL_PRUNES, stats)
            if len(es) + 1 < n:
                assert certified == scanned, (n, es)
            else:
                real_rooted = {e for e in scanned if corpus._truncation_real_rooted(n, es + [e])}
                assert real_rooted <= set(certified) <= set(scanned), (n, es)
            if bounds is None:
                continue
            lo, sure_lo, sure_hi, hi = bounds
            for e in range(max(1, lo - 3), min(cap, hi + 3) + 1):
                passes = corpus._truncation_real_rooted(n, es + [e])
                if sure_lo <= e <= sure_hi:
                    assert passes, (n, es, e)
                if not lo <= e <= hi:
                    assert not passes, (n, es, e)
    # the certificate, not the fallback scan, settled nearly everything
    assert stats.certified_pass > 3 * stats.exact_tests
    assert stats.fallback_nodes < sum(stats.nodes.values()) / 10
    settled, integer_roots = 0, 0
    for (n, _), nodes in levels.items():
        for i in range(0, len(nodes), corpus._BATCH):
            batch = nodes[i : i + corpus._BATCH]
            truncs = [corpus._truncation(n, es) for es in batch]
            zs = corpus._root_proposals(truncs)
            caps = [corpus._cap(n, es) for es in batch]
            fast = corpus._filtered_bounds(n, truncs, zs, caps)
            for gd, row, cap, got in zip(truncs, corpus._real_rows(zs), caps, fast):
                if got is not None:
                    settled += 1
                    assert got == corpus._child_bounds(n, gd, row, cap), (n, gd)
                elif any(intpoly._horner(gd, r) == 0 for r in range(2 * n)):
                    integer_roots += 1
    assert settled > 4 * integer_roots > 0


@pytest.mark.parametrize("wrong", ["shifted", "one_root_twice", "one_root_lost"])
def test_corpus_falls_back_on_wrong_proposals(monkeypatch, wrong):
    """Root proposals off by 1e-3, with one root in place of another, or
    with one missing fail the exact checks: every affected node scans its
    candidates one by one, and the output is unchanged."""
    reference = corpus.CorpusStats()
    baseline = enumerate_corpus(5, stats=reference)
    true_proposals = corpus._root_proposals

    def proposals(polys):
        zs = true_proposals(polys)
        if wrong == "shifted":
            return zs + 1e-3
        if zs.shape[1] < 2:
            return zs
        if wrong == "one_root_lost":
            return zs[:, 1:]
        zs[:, 1] = zs[:, 0]
        return zs

    monkeypatch.setattr(corpus, "_root_proposals", proposals)
    stats = corpus.CorpusStats()
    assert enumerate_corpus(5, stats=stats) == baseline
    assert stats.nodes == reference.nodes
    affected = [v for (_, d), v in reference.nodes.items() if wrong == "shifted" or d >= 2]
    assert stats.fallback_nodes == sum(affected)
    assert stats.certified_pass == 0 if wrong == "shifted" else stats.certified_pass > 0


def test_corpus_progress_log(caplog):
    """One INFO line per finished (degree, e_1) subtree, in order, the same
    with workers, and summing to the run's counters."""
    stats = corpus.CorpusStats()
    with caplog.at_level(logging.INFO, logger=corpus.__name__):
        members = enumerate_corpus(4, stats=stats)
        alone = [r.getMessage() for r in caplog.records]
        caplog.clear()
        enumerate_corpus(4, workers=2)
        assert [r.getMessage() for r in caplog.records] == alone
    assert alone[4] == "degree 3, e1 = 5: 9 internal nodes, 6 leaves, 1 members"
    counts = [[int(v) for v in re.findall(r"\b\d+\b", line)] for line in alone]
    assert [c[:2] for c in counts] == [[n, e1] for n in (2, 3, 4) for e1 in range(n, 2 * n)]
    assert [sum(c[i] for c in counts) for i in (2, 3, 4)] == [
        sum(stats.nodes.values()), stats.leaves, len(members)
    ]


def test_corpus_validation():
    with pytest.raises(ValueError, match="1..9"):
        enumerate_corpus(0)
    with pytest.raises(ValueError, match="1..9"):
        enumerate_corpus(10)


def test_corpus_to_csv_golden():
    csv = corpus_to_csv(enumerate_corpus(2))
    assert csv == (
        "degree,coeffs,trace,E,Delta,diffsq_squarefree,thm2_margin_log\n"
        "2,1|-3|1,3,5,5,true,0\n"
    )


# --- independent exact cross-check against sympy ---------------------------------


def _sympy_cases():
    """30 seeded monic polynomials of degree 2-9, coefficients in [-9, 9].

    24 have uniform random coefficients (most have complex pairs); 6 are
    (x - a)^2 g, kept only when their coefficients stay in range, so the
    set includes repeated roots, whose squared-difference polynomial has
    the root 0.
    """
    rng = np.random.default_rng(2022)
    cases = []
    for i in range(24):
        deg = 2 + i % 8
        cases.append(IntPolynomial((1, *(int(c) for c in rng.integers(-9, 10, size=deg)))))
    while len(cases) < 30:
        a = int(rng.integers(-2, 3))
        g = IntPolynomial((1, *(int(c) for c in rng.integers(-1, 2, size=int(rng.integers(1, 8))))))
        poly = IntPolynomial.from_roots([a, a]) * g
        if max(abs(c) for c in poly.coeffs) <= 9:
            cases.append(poly)
    return cases


@pytest.fixture(scope="module")
def corpus6():
    """(leaves, members) of ``enumerate_corpus(6)``: the leaves are the
    polynomials that pass the root census and reach the irreducibility test,
    as the enumerator sees them."""
    leaves = []
    stats = corpus.CorpusStats()
    with pytest.MonkeyPatch.context() as mp:
        original = corpus.is_irreducible
        mp.setattr(corpus, "is_irreducible", lambda poly: leaves.append(poly) or original(poly))
        members = enumerate_corpus(6, stats=stats)
    assert len(leaves) == 268 and len(members) == 19
    return leaves, members, stats


def test_corpus_stats(corpus6):
    """The counters of ``enumerate_corpus(6)``: the internal nodes per depth
    are those of the per-candidate search, every child below depth n is
    certified or tested, and the leaves split into members and rejects."""
    leaves, members, stats = corpus6
    record = stats.as_dict()
    assert record["internal_nodes"] == {
        "2": [2], "3": [3, 16], "4": [4, 46, 105], "5": [5, 100, 620, 756],
        "6": [6, 185, 2408, 9454, 6178],
    }
    passed = record["certified_pass"] + record["exact_tests"] - record["pruned"]["exact_test"]
    assert passed == sum(v for (_, d), v in stats.nodes.items() if d >= 2) == 19868
    assert record["leaves"] - record["leaf_rejects"]["census"] == len(leaves)
    assert record["leaf_rejects"]["reducible"] == len(leaves) - len(members)
    # one root census per exact test and per leaf, far below the 95,000 of
    # one census per candidate
    assert record["exact_tests"] + record["leaves"] < 6000
    workers = corpus.CorpusStats()
    enumerate_corpus(4, workers=2, stats=workers)
    alone = corpus.CorpusStats()
    enumerate_corpus(4, stats=alone)
    assert workers == alone


def test_polylab_matches_sympy(corpus6):
    sympy = pytest.importorskip("sympy")
    y, z = sympy.symbols("y z")
    for poly in _sympy_cases():
        n = poly.degree
        f = sympy.Poly(poly.coeffs, y)
        # Res_y(f(y), f(y+z)) = z^n P(z^2)
        res = sympy.Poly(sympy.resultant(f.as_expr(), f.as_expr().subs(y, y + z), y), z)
        ref = res.exquo(sympy.Poly(z**n, z)).all_coeffs()
        assert all(c == 0 for c in ref[1::2])
        dpoly, squarefree = diffsq_poly(poly)
        assert list(dpoly.coeffs) == [int(c) for c in ref[::2]], poly
        assert squarefree == sympy.Poly(ref[::2], z).is_sqf, poly
        assert discriminant_exact(poly) == int(sympy.discriminant(f)), poly
        assert verify_theorem2(poly).Delta == int(sympy.discriminant(f)), poly
        assert is_irreducible(poly) == f.is_irreducible, poly
    leaves, _, _ = corpus6
    for poly in leaves:
        assert is_irreducible(poly) == sympy.Poly(poly.coeffs, y).is_irreducible, poly


def test_is_irreducible_falls_back_to_certified_roots(monkeypatch, corpus6):
    """Proposals that lose a root fail the full-product check, so the roots
    come from certified isolation and every verdict is still sympy's.

    The cases have distinct real roots and no root 0, the inputs on which
    the fallback does not use ``np.roots``.
    """
    sympy = pytest.importorskip("sympy")
    true_roots = np.roots

    def one_root_twice(coeffs):
        zs = true_roots(coeffs)
        zs[1] = zs[0]
        return zs

    isolated = []
    certified = factor.certified_roots
    monkeypatch.setattr(factor.np, "roots", one_root_twice)
    monkeypatch.setattr(factor, "certified_roots", lambda p: isolated.append(p) or certified(p))
    leaves, _, _ = corpus6
    cases = [
        p for p in _sympy_cases() if p.coeffs[-1] and root_census(p)[::2] == (p.degree,) * 2
    ] + leaves
    x = sympy.Symbol("x")
    for poly in cases:
        assert is_irreducible(poly) == sympy.Poly(poly.coeffs, x).is_irreducible, poly
    assert isolated == cases


def test_diffsq_squarefree_flag_is_exact(monkeypatch):
    """The modular certificate settles every squarefree case; exact Euclid
    runs on the rest, which include roots in arithmetic progression, whose
    squared differences repeat."""
    euclid = []
    real_gcd = intpoly.poly_gcd
    monkeypatch.setattr(intpoly, "poly_gcd", lambda a, b: euclid.append(a) or real_gcd(a, b))
    progressions = [
        IntPolynomial.from_roots(range(1, 1 + n * step, step))
        for n in range(3, 10)
        for step in (1, 2)
    ]
    flags = []
    for poly in _sympy_cases() + progressions:
        dpoly, squarefree = diffsq_poly(poly)
        p = list(dpoly.coeffs)
        assert squarefree == (len(real_gcd(p, _derive(p))) == 1), poly
        flags.append(squarefree)
    assert len(euclid) == flags.count(False) >= len(progressions)


def test_is_irreducible_falls_back_on_close_proposals(monkeypatch):
    """(x^2 + x - 1)(x^2 + 4x - 3) has the roots 0.618 and 0.646.  With the
    first returned twice in place of the second, all n linear factors still
    round back to the polynomial, so only the separation check catches it."""
    sympy = pytest.importorskip("sympy")
    poly = IntPolynomial((1, 5, 0, -7, 3))
    zs = np.sort(np.roots([float(c) for c in poly.coeffs]))
    zs[3] = zs[2]
    polished = [factor._polish(poly.coeffs, complex(z)) for z in zs]
    assert factor._candidate_factor(polished) == list(poly.coeffs)
    isolated = []
    certified = factor.certified_roots
    monkeypatch.setattr(factor.np, "roots", lambda coeffs: zs.copy())
    monkeypatch.setattr(factor, "certified_roots", lambda p: isolated.append(p) or certified(p))
    x = sympy.Symbol("x")
    assert is_irreducible(poly) is sympy.Poly(poly.coeffs, x).is_irreducible is False
    assert isolated == [poly]


def test_verify_theorem2_members_and_root_zero(corpus6):
    """Each corpus member's report is what ``verify_theorem2`` gives on its
    own, and with a root 0 split off before the census, ``all_real`` still
    means as many distinct real roots as distinct roots."""
    _, members, _ = corpus6
    for report in members:
        assert verify_theorem2(report.poly) == report
    extra = [
        IntPolynomial((1, -3)),
        IntPolynomial((1, 0)),  # x
        IntPolynomial((1, 0, 0, 0)),  # x^3
        IntPolynomial((1, 0, -1, 0)),  # x^3 - x
        IntPolynomial((1, -2, 1, 0)),  # x (x - 1)^2
        IntPolynomial((1, 0, 1, 0)),  # x^3 + x
        IntPolynomial((1, -3, 2, 0, 0)),  # x^2 (x - 1)(x - 2)
    ]
    for poly in _sympy_cases() + extra:
        report = verify_theorem2(poly)
        assert report.all_real == (count_real_roots(poly) == squarefree_degree(poly.coeffs)), poly
        assert report.totally_positive == is_totally_positive(poly), poly
    assert [verify_theorem2(p).all_real for p in extra] == [True] * 5 + [False, True]
