"""Classes of low-degree projective hypersurfaces in the Grothendieck ring.

Every class is an expression in the Lefschetz class L produced by an
explicit stratification, and every derivation step over a finite field is
certified by brute-force point counting through the counting measure
L -> q.  Engines cover quadrics, hyperplane arrangements (including
Galois-descended ones), cones, cubics with a rational singular point, and
unions of two quadrics.
"""

from .fields import (
    FieldElem,
    FieldSpec,
    extension_field,
    field_from_text,
    prime_field,
    rationals,
)
from .poly import HomogPoly
from .parse import ParseError, parse_point, parse_poly
from .linalg import Matrix
from .quadform import QuadForm, diagonalize, find_projective_point, hyperbolic_normalize
from .kclass import (
    ClassExpr,
    CountTerm,
    EtaleAtom,
    Identity,
    StratResult,
    TraceStep,
    VarietyAtom,
    projective_space_class,
)
from .count import BudgetError, CountQuery, count_points, enumerate_points
from .strat import (
    DefectError,
    arrangement_inclusion_exclusion,
    class_of_arrangement,
    class_of_cone,
    class_of_quadric,
    class_of_singular_cubic,
    class_of_two_quadric_union,
    find_singular_rational_point,
)
from .descent import (
    Cocycle,
    GaloisContext,
    class_of_descended_arrangement,
    h90_trivialize,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ClassExpr",
    "Cocycle",
    "CountQuery",
    "CountTerm",
    "DefectError",
    "EtaleAtom",
    "FieldElem",
    "FieldSpec",
    "GaloisContext",
    "HomogPoly",
    "Identity",
    "Matrix",
    "ParseError",
    "QuadForm",
    "StratResult",
    "TraceStep",
    "VarietyAtom",
    "arrangement_inclusion_exclusion",
    "class_of_arrangement",
    "class_of_cone",
    "class_of_descended_arrangement",
    "class_of_quadric",
    "class_of_singular_cubic",
    "class_of_two_quadric_union",
    "count_points",
    "diagonalize",
    "enumerate_points",
    "extension_field",
    "field_from_text",
    "find_projective_point",
    "find_singular_rational_point",
    "h90_trivialize",
    "hyperbolic_normalize",
    "parse_point",
    "parse_poly",
    "prime_field",
    "projective_space_class",
    "rationals",
    "__version__",
]
