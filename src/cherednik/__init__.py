"""Exact engine for modular Dunkl-operator representation computations.

Computes the irreducible graded quotient of the polynomial representation
of the type-A rational Cherednik algebra over small prime characteristic,
certifies catalogued singular polynomials, and evaluates/compares the
conjectured closed-form Hilbert series.
"""

__version__ = "0.1.0"

FORMAT_VERSION = 2  # RunRecord cache keys; 2: dims end at the first zero of dim L

from .fields import (  # noqa: F401
    CoeffDomain,
    DomainMismatchError,
    PrimeField,
    RationalFunctionField,
    Scalar,
)
from .poly import (  # noqa: F401
    ParseError,
    ReducedPoly,
    format_poly,
    parse_poly,
)
from .action import Transposition, apply_transposition, divided_difference  # noqa: F401
from .dunkl import (  # noqa: F401
    DunklContext,
    check_commutators,
    dunkl,
    dunkl_difference,
)
