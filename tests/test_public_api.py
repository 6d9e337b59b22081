"""The package's public names, pinned: a change to ``torsionforms.__all__``
must show here as a diff."""

import torsionforms

PUBLIC_NAMES = [
    "Curve", "CurveRecord", "DegenerateParameterError", "DetectionTrace", "FAMILIES",
    "FAMILY_ORDERS", "FamilyDataError", "HomForm", "INFINITY",
    "IncompleteFactorizationError", "Infinity", "IntPoly", "MAZUR_LABELS",
    "OffCurveError", "PROVENANCE", "Point", "SideConditionError",
    "SingularCurveError", "TATE_ORDERS", "ThueFamily", "TorsionReport", "Witness",
    "add", "brute_force_witness_search", "detect", "disc_AB", "disc_poly", "eval_AB",
    "eval_FG", "evertse_bound", "factorize", "generate_curve", "has_point_of_order",
    "mazur_count_bound", "neg", "on_curve", "order_n_points", "param_cross_check",
    "point_order", "prime_factor_count", "rational_roots", "rational_square_root",
    "reduced_form", "scalar_mul", "tate_AB", "tate_bc", "tate_short_curve",
    "torsion_points", "torsion_structure", "twist_point", "twist_scale",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(set(PUBLIC_NAMES))
    assert torsionforms.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in torsionforms.__all__ if not hasattr(torsionforms, name)]
    assert missing == []
