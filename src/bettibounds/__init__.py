"""Exact computation with graded Betti diagrams.

Pure-diagram construction, greedy cone decomposition, binomial rank bounds
with their supporting derivative checks, asymptotic bounds for ideal powers,
and Betti numbers of monomial ideals from Taylor strands and upper Koszul
complexes on the LCM lattice.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .asymptotic import (
    PowerBoundParams,
    bound_vs_pure,
    exact_lower_bound,
    leading_bound,
    leading_coefficient,
)
from .beh import (
    beh_check,
    pure_beh_check,
    scan,
    shape_hypothesis,
)
from .decompose import Decomposition, decompose, recompose, validate_bounds
from .diagram import (
    BettiDiagram,
    check_degree_sequence,
    format_rational,
    parse_rational,
    seq_leq,
)
from .errors import (
    DomainError,
    FormatError,
    GapColumnError,
    InvalidSequenceError,
    NoFirstSyzygyError,
    NotInConeError,
    TooManyGeneratorsError,
)
from .monomial import MonomialIdeal, corpus, minimalize, taylor_betti
from .pure import (
    herzog_kuhl,
    pure_shape_check,
    pure_total,
    pure_total_partial,
    verify_binomial_floor,
    verify_first_gap_monotone,
    verify_inward_shift_monotone,
)

__all__ = [
    "__version__",
    "BettiDiagram",
    "Decomposition",
    "DomainError",
    "FormatError",
    "GapColumnError",
    "InvalidSequenceError",
    "MonomialIdeal",
    "NoFirstSyzygyError",
    "NotInConeError",
    "PowerBoundParams",
    "TooManyGeneratorsError",
    "beh_check",
    "bound_vs_pure",
    "check_degree_sequence",
    "corpus",
    "decompose",
    "exact_lower_bound",
    "format_rational",
    "herzog_kuhl",
    "leading_bound",
    "leading_coefficient",
    "minimalize",
    "parse_rational",
    "pure_beh_check",
    "pure_shape_check",
    "pure_total",
    "pure_total_partial",
    "recompose",
    "scan",
    "seq_leq",
    "shape_hypothesis",
    "taylor_betti",
    "validate_bounds",
    "verify_binomial_floor",
    "verify_first_gap_monotone",
    "verify_inward_shift_monotone",
]
