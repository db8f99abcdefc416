"""Exact moment sequences of periodic continued fractions.

Convergents of 2-periodic (and general k-periodic) continued fractions,
the discrete signed measures whose moments reproduce them, exact positivity
classification, and Hankel positive-semidefiniteness probes - all in exact
rational / quadratic-field arithmetic.
"""

from .cfrac import (
    AtomRatios,
    Convergent,
    ParameterError,
    TwoPeriodicParams,
    atom_ratios,
    convergents,
    denominator_closed_form,
    generalized_fibonacci,
    kperiodic_convergents,
    limit_value,
)
from .exactnum import (
    DomainError,
    FieldMismatchError,
    InvariantError,
    QuadElem,
    QuadField,
    decimal_string,
    parse_rational,
    rational_sqrt,
)
from .hankel import (
    PsdResult,
    ScanReport,
    det_exact,
    hankel_matrix,
    psd_check,
    scan_kperiodic,
)
from .measures import (
    Atom,
    DiscreteSignedMeasure,
    GeometricAtomFamily,
    PositivityVerdict,
    binet_measure,
    classify_positivity,
    even_odd_measures,
    moment_measure,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomRatios",
    "Convergent",
    "DiscreteSignedMeasure",
    "DomainError",
    "FieldMismatchError",
    "GeometricAtomFamily",
    "InvariantError",
    "ParameterError",
    "PositivityVerdict",
    "PsdResult",
    "QuadElem",
    "QuadField",
    "ScanReport",
    "TwoPeriodicParams",
    "atom_ratios",
    "binet_measure",
    "classify_positivity",
    "convergents",
    "decimal_string",
    "denominator_closed_form",
    "det_exact",
    "even_odd_measures",
    "generalized_fibonacci",
    "hankel_matrix",
    "kperiodic_convergents",
    "limit_value",
    "moment_measure",
    "parse_rational",
    "psd_check",
    "rational_sqrt",
    "scan_kperiodic",
]
