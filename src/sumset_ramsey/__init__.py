"""Monochromatic polynomial sumset structures: colorings, searches, audits.

The package provides exact integer colorings of the positive integers built
from geometric bands, band offsets, and a recursive logarithmic-width
construction; bit-parallel searches for monochromatic (B, C) configurations
under families of integer polynomials; stabilization audits of per-color bad
sets; finite-window shift dynamics; and closed-form witness pairs with their
sumset identity checks.
"""

from .coloring import (
    AdmissibleParams,
    ColorWindow,
    Coloring,
    ExplicitColoring,
    PeriodicColoring,
    RecursiveLogColoring,
    SeededRandomColoring,
    case2_coloring,
    check_admissible,
    find_admissible_a0,
    geometric_3coloring,
    power_2coloring,
    read_runlength,
    recursive_log_coloring,
    triple_2coloring,
    window_cap,
    write_runlength,
)
from .dynamics import (
    ReturnSet,
    density_profile,
    dichotomy_detect,
    max_gap,
    return_set,
    word_from_coloring,
)
from .errors import (
    DomainError,
    NoConfiguration,
    ParseError,
    PolynomialError,
    SumsetRamseyError,
)
from .poly import (
    GrowthCase,
    IntPolynomial,
    PsiProfile,
    a_star,
    band_offset,
    format_poly,
    parse_poly,
    psi_eval,
    psi_profile,
)
from .search import (
    AuditReport,
    Configuration,
    bad_set,
    bad_set_growth,
    exhaustive_search,
    gowers_threshold,
    greedy_search,
    longest_ap,
    survivor_set,
    verify_config,
)
from .witness import (
    WitnessParams,
    build_witness,
    check_sumset_identity,
    witness_values,
)
from .cli import parse_coloring_spec

__version__ = "1.0.0"

__all__ = [
    "AdmissibleParams",
    "AuditReport",
    "ColorWindow",
    "Coloring",
    "Configuration",
    "DomainError",
    "ExplicitColoring",
    "GrowthCase",
    "IntPolynomial",
    "NoConfiguration",
    "ParseError",
    "PeriodicColoring",
    "PolynomialError",
    "PsiProfile",
    "RecursiveLogColoring",
    "ReturnSet",
    "SeededRandomColoring",
    "SumsetRamseyError",
    "WitnessParams",
    "a_star",
    "bad_set",
    "bad_set_growth",
    "band_offset",
    "build_witness",
    "case2_coloring",
    "check_admissible",
    "check_sumset_identity",
    "density_profile",
    "dichotomy_detect",
    "exhaustive_search",
    "find_admissible_a0",
    "format_poly",
    "geometric_3coloring",
    "gowers_threshold",
    "greedy_search",
    "longest_ap",
    "max_gap",
    "parse_coloring_spec",
    "parse_poly",
    "power_2coloring",
    "psi_eval",
    "psi_profile",
    "read_runlength",
    "recursive_log_coloring",
    "return_set",
    "survivor_set",
    "triple_2coloring",
    "verify_config",
    "window_cap",
    "witness_values",
    "word_from_coloring",
    "write_runlength",
]
