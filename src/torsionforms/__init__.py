"""Exact-arithmetic toolkit for rational elliptic-curve torsion of order
n in {5, 7, 8, 9}: curve generation from homogeneous binary forms, torsion
detection on arbitrary integral short Weierstrass curves, an independent
torsion oracle by division polynomials that never factors, Tate normal forms,
the family discriminant table, and explicit solution-count bounds."""

from .bounds import (
    disc_poly,
    evertse_bound,
    mazur_count_bound,
    prime_factor_count,
    reduced_form,
)
from .curves import (
    Curve,
    INFINITY,
    Infinity,
    Point,
    add,
    disc_AB,
    neg,
    on_curve,
    point_order,
    scalar_mul,
    twist_point,
    twist_scale,
)
from .errors import (
    DegenerateParameterError,
    FamilyDataError,
    IncompleteFactorizationError,
    OffCurveError,
    SideConditionError,
    SingularCurveError,
)
from .exact import (
    HomForm,
    IntPoly,
    factorize,
    rational_roots,
    rational_square_root,
)
from .families import FAMILIES, FAMILY_ORDERS, PROVENANCE, ThueFamily, fg_forms
from .records import CurveRecord
from .tate import (
    TATE_ORDERS,
    interpolated_pipeline_poly,
    tate_AB,
    tate_bc,
    tate_short_curve,
)
from .thue import (
    DetectionTrace,
    Witness,
    brute_force_witness_search,
    detect,
    eval_AB,
    eval_FG,
    generate_curve,
    order_n_points,
    param_cross_check,
)
from .torsion import (
    MAZUR_LABELS,
    TorsionReport,
    has_point_of_order,
    torsion_points,
    torsion_structure,
)

__version__ = "1.0.0"

__all__ = [
    "Curve", "CurveRecord", "DegenerateParameterError", "DetectionTrace",
    "FAMILIES", "FAMILY_ORDERS", "FamilyDataError", "HomForm", "INFINITY",
    "IncompleteFactorizationError", "Infinity", "IntPoly", "MAZUR_LABELS",
    "OffCurveError", "PROVENANCE", "Point", "SideConditionError",
    "SingularCurveError", "TATE_ORDERS", "ThueFamily", "TorsionReport", "Witness",
    "add", "brute_force_witness_search", "detect", "disc_AB", "disc_poly",
    "eval_AB", "eval_FG", "evertse_bound", "factorize", "fg_forms",
    "generate_curve", "has_point_of_order", "interpolated_pipeline_poly",
    "mazur_count_bound", "neg", "on_curve", "order_n_points", "param_cross_check",
    "point_order", "prime_factor_count", "rational_roots", "rational_square_root",
    "reduced_form", "scalar_mul", "tate_AB", "tate_bc", "tate_short_curve",
    "torsion_points", "torsion_structure", "twist_point", "twist_scale",
]
