"""Exact integer-polynomial machinery behind the energy bounds.

The squared-difference polynomial and the discriminant read off it,
certified real-root classification, irreducibility, the two-parameter
family of ODE-extremal polynomials, single-polynomial verification, and
the trace-bounded corpus enumerator.
"""

from .corpus import CorpusStats, corpus_to_csv, default_trace_bound, enumerate_corpus
from .factor import MAX_DEGREE, is_irreducible
from .hermite import HermiteFamily, hermite_family
from .intpoly import (
    IntPolynomial,
    diffsq_poly,
    discriminant_exact,
    parse_poly_line,
    parse_poly_text,
    poly_gcd,
)
from .realroots import (
    RootClassification,
    RootKind,
    certified_roots,
    count_real_roots,
    is_totally_positive,
    squarefree_degree,
    sturm_chain,
)
from .verify import PolyReport, verify_theorem2

__all__ = [
    "MAX_DEGREE",
    "CorpusStats",
    "HermiteFamily",
    "IntPolynomial",
    "PolyReport",
    "RootClassification",
    "RootKind",
    "certified_roots",
    "corpus_to_csv",
    "count_real_roots",
    "default_trace_bound",
    "diffsq_poly",
    "discriminant_exact",
    "enumerate_corpus",
    "hermite_family",
    "is_irreducible",
    "is_totally_positive",
    "parse_poly_line",
    "parse_poly_text",
    "poly_gcd",
    "squarefree_degree",
    "sturm_chain",
    "verify_theorem2",
]
