"""Exact computation with graded Betti diagrams.

Pure-diagram construction, greedy cone decomposition, binomial rank bounds
with their supporting derivative checks, asymptotic bounds for ideal powers,
and Betti numbers of monomial ideals, in closed form or on the LCM lattice.
All arithmetic is exact: rational in the diagrams, integer in the monomial engine.
"""

__version__ = "0.1.0"

from .asymptotic import power_bounds
from .beh import beh_check, pure_beh_check, scan
from .decompose import decompose, recompose, validate_bounds
from .diagram import (
    BettiDiagram,
    check_degree_sequence,
    format_rational,
    parse_rational,
)
from .errors import (
    DomainError,
    FormatError,
    GapColumnError,
    InvalidSequenceError,
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
    "DomainError",
    "FormatError",
    "GapColumnError",
    "InvalidSequenceError",
    "MonomialIdeal",
    "NotInConeError",
    "TooManyGeneratorsError",
    "beh_check",
    "check_degree_sequence",
    "corpus",
    "decompose",
    "format_rational",
    "herzog_kuhl",
    "minimalize",
    "parse_rational",
    "power_bounds",
    "pure_beh_check",
    "pure_shape_check",
    "pure_total",
    "pure_total_partial",
    "recompose",
    "scan",
    "taylor_betti",
    "validate_bounds",
    "verify_binomial_floor",
    "verify_first_gap_monotone",
    "verify_inward_shift_monotone",
]
