"""Value semantics of the package's immutable types: no assignment, equality
and hash by type and fields, the dataclass-style repr, and pickle and copy
through the constructor."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from torsionforms import (
    INFINITY,
    Curve,
    DetectionTrace,
    HomForm,
    IntPoly,
    Point,
    TorsionReport,
    Witness,
    generate_curve,
)
from torsionforms.families import _family_5

FAMILY_FIELDS = ("n", "kset", "sigma", "b_sign", "U", "V", "point_x", "point_y", "symmetry",
                 "degrees", "nonzero_pq", "p_ne_q", "two_p_ne_q",
                 "F", "G", "tate_A_num", "tate_B_num")
RECORD_FIELDS = ("n", "p", "q", "k", "curve", "delta", "points", "group_label", "provenance",
                 "form")

# (factory, field names, repr); the reprs were recorded from the dataclass
# versions of these types
CASES = {
    "Curve": (lambda: Curve(-43, 166), ("A", "B"), "Curve(A=-43, B=166)"),
    "Point": (lambda: Point(F(-1, 2), F(7, 8)), ("x", "y"), "(-1/2, 7/8)"),
    "ThueFamily": (_family_5, FAMILY_FIELDS, (
        "ThueFamily(n=5, kset=(Fraction(1, 1),), sigma=-1, b_sign=1, "
        "U=HomForm(4, [1, -12, 14, 12, 1]), V=HomForm(6, [1, -18, 75, 0, 75, 18, 1]), "
        "point_x=(HomForm(2, [1, -6, 1]), HomForm(2, [1, 6, 1])), "
        "point_y=(HomForm(3, [0, 0, 1, 0]), HomForm(3, [0, 1, 0, 0])), "
        "symmetry=(0, -1, 1, 0), degrees=(4, 6, 2, 3), nonzero_pq=True, p_ne_q=False, "
        "two_p_ne_q=False, F=HomForm(4, [-27, 324, -378, -324, -27]), "
        "G=HomForm(6, [54, -972, 4050, 0, 4050, 972, 54]), "
        "tate_A_num=IntPoly([-27, -324, -378, 324, -27]), "
        "tate_B_num=IntPoly([54, 972, 4050, 0, 4050, -972, 54]))")),
    "CurveRecord": (lambda: generate_curve(Witness(7, 2, 1, F(1, 3))), RECORD_FIELDS, (
        "CurveRecord(n=7, p=2, q=1, k=Fraction(1, 3), curve=Curve(A=-43, B=166), "
        "delta=-6815744, points=((3, 8), (3, -8), (-5, 16), (-5, -16), (11, 32), (11, -32)), "
        "group_label='Z/7Z', provenance='generated', form='ab')")),
    "TorsionReport": (
        lambda: TorsionReport(points=frozenset([INFINITY]), group_label="Z/1Z", exponent=1),
        ("points", "group_label", "exponent"),
        "TorsionReport(points=frozenset({O}), group_label='Z/1Z', exponent=1)"),
    "Witness": (lambda: Witness(7, 2, 1, F(1, 3)), ("n", "p", "q", "k"),
                "Witness(n=7, p=2, q=1, k=Fraction(1, 3))"),
    "DetectionTrace": (
        lambda: DetectionTrace(F(1, 2), F(3), Witness(8, 1, 3, F(1, 2)), 2, "note"),
        ("alpha", "u", "witness", "scale", "discrepancy"),
        "DetectionTrace(alpha=Fraction(1, 2), u=Fraction(3, 1), "
        "witness=Witness(n=8, p=1, q=3, k=Fraction(1, 2)), scale=2, discrepancy='note')"),
    "IntPoly": (lambda: IntPoly([1, 2, 0, 3]), ("coeffs",), "IntPoly([1, 2, 0, 3])"),
    "HomForm": (lambda: HomForm(2, (1, -6, 1)), ("coeffs",), "HomForm(2, [1, -6, 1])"),
}


@pytest.mark.parametrize("name", CASES)
def test_attributes_cannot_be_set_or_deleted(name):
    make, fields, _ = CASES[name]
    value = make()
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_give_equal_values_and_hashes(name):
    make, _, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", CASES)
def test_unequal_to_another_type_with_the_same_fields(name):
    make, fields, _ = CASES[name]
    value = make()
    twin = object.__new__(type(name, (type(value),), {"__slots__": ()}))
    for f in fields:
        object.__setattr__(twin, f, getattr(value, f))
    assert value != twin and twin != value
    assert value != tuple(getattr(value, f) for f in fields)


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_recorded_one(name):
    make, _, recorded = CASES[name]
    assert repr(make()) == recorded


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_give_an_equal_value(name):
    make, _, _ = CASES[name]
    value = make()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_int_poly_and_hom_form_with_the_same_coefficients_differ():
    assert IntPoly([1, -6, 1]) != HomForm(2, (1, -6, 1))
