from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from torsionforms import (
    FAMILIES,
    FAMILY_ORDERS,
    Curve,
    DegenerateParameterError,
    INFINITY,
    MAZUR_LABELS,
    OracleUnavailableError,
    Point,
    SideConditionError,
    SingularCurveError,
    Witness,
    add,
    eval_AB,
    generate_curve,
    has_point_of_order,
    neg,
    point_order,
    torsion_points,
    torsion_structure,
    twist_scale,
)
from torsionforms import torsion
from torsionforms.exact import divisors, factorize, integer_roots_monic_cubic


def square_divisors(c: Curve) -> list[int]:
    """The y > 0 with y**2 dividing the discriminant."""
    primes, cofactor = factorize(c.disc)
    if cofactor != 1:
        raise OracleUnavailableError(f"cofactor {cofactor}")
    return divisors({p: e // 2 for p, e in primes.items() if e >= 2})


def unsieved_torsion_points(c: Curve) -> frozenset:
    """The oracle without its residue sieve: every square divisor y of the
    discriminant is solved for x."""
    points = {INFINITY}
    for y in [0] + square_divisors(c):
        for x in integer_roots_monic_cubic(c.A, c.B - y * y):
            for P in {Point(x, y), Point(x, -y)}:
                if point_order(c, P, cap=12) is not None:
                    points.add(P)
    return frozenset(points)


class TestTorsionPoints:
    def test_two_torsion_only(self):
        assert torsion_points(Curve(1, 0)) == frozenset({INFINITY, Point(0, 0)})

    def test_order_six_curve(self):
        pts = torsion_points(Curve(0, 1))
        assert len(pts) == 6
        for xy in [(2, 3), (2, -3), (0, 1), (0, -1), (-1, 0)]:
            assert Point(*xy) in pts

    def test_order_seven_witness_curve(self):
        pts = torsion_points(Curve(-43, 166))
        expected = {INFINITY} | {
            Point(x, y) for x, y in
            [(3, 8), (3, -8), (-5, 16), (-5, -16), (11, 32), (11, -32)]
        }
        assert pts == frozenset(expected)

    def test_integral_coordinates(self):
        for A, B in [(-432, 8208), (-43, 166), (0, 1), (-219, 1654)]:
            for P in torsion_points(Curve(A, B)):
                if P is not INFINITY:
                    assert P.x.denominator == 1 and P.y.denominator == 1

    def test_closed_under_negation_and_addition(self):
        for A, B in [(-432, 8208), (-43, 166), (0, 1), (-1, 0)]:
            c = Curve(A, B)
            pts = torsion_points(c)
            for P in pts:
                assert neg(P) in pts
                for Q in pts:
                    assert add(c, P, Q) in pts

    def test_unfactorable_discriminant_raises(self):
        # disc = -432 * 1000003^2; the square prime factor exceeds the limit
        with pytest.raises(OracleUnavailableError):
            torsion_points(Curve(0, 1000003), trial_limit=10**4)


class TestTorsionStructure:
    def test_cyclic_labels(self):
        assert torsion_structure(Curve(1, 0)).group_label == "Z/2Z"
        assert torsion_structure(Curve(0, 1)).group_label == "Z/6Z"
        assert torsion_structure(Curve(-43, 166)).group_label == "Z/7Z"

    def test_full_two_torsion_label(self):
        report = torsion_structure(Curve(-1, 0))
        assert report.group_label == "Z/2Z x Z/2Z"
        assert report.exponent == 2
        assert report.order == 4

    def test_generated_order_nine(self):
        A, B = eval_AB(Witness(9, 2, 1, F(1)))
        assert torsion_structure(Curve(int(A), int(B))).group_label == "Z/9Z"

    def test_labels_in_classification(self):
        for A, B in [(1, 0), (0, 1), (-1, 0), (-43, 166), (-432, 8208), (-219, 1654)]:
            assert torsion_structure(Curve(A, B)).group_label in MAZUR_LABELS

    def test_exponent_matches_orders(self):
        report = torsion_structure(Curve(-1, 0))
        c = Curve(-1, 0)
        assert max(point_order(c, P) for P in report.points) == report.exponent


class TestHasPointOfOrder:
    def test_identity_always_present(self):
        assert has_point_of_order(Curve(1, 0), 1)

    def test_witness_curve(self):
        c = Curve(-43, 166)
        assert has_point_of_order(c, 7)
        assert not has_point_of_order(c, 5)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            has_point_of_order(Curve(1, 0), 13)

    def test_generated_corpus_agreement(self):
        # every generated witness curve carries its advertised order
        for n, p, q, k in [(5, 1, 1, F(1)), (7, 2, 1, F(1, 3)), (7, 3, 1, F(1)),
                           (8, 2, 1, F(1)), (9, 2, 1, F(1, 3))]:
            A, B = eval_AB(Witness(n, p, q, k))
            den = A.denominator * B.denominator
            if den != 1:
                A, B = A * 6**4, B * 6**6
            assert has_point_of_order(Curve(int(A), int(B)), n)


class TestResidueSieve:
    """The sieve only skips candidates that cannot be y-coordinates."""

    SETTINGS = dict(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

    def assert_matches_unsieved(self, c: Curve):
        try:
            expected = unsieved_torsion_points(c)
        except OracleUnavailableError:
            with pytest.raises(OracleUnavailableError):
                torsion_points(c)
            return
        assert torsion_points(c) == expected

    @settings(max_examples=200, **SETTINGS)
    @given(A=st.integers(-10**4, 10**4), B=st.integers(-10**4, 10**4), u=st.integers(1, 6))
    def test_random_curves(self, A, B, u):
        # the twist by u multiplies the discriminant by u**12: many square divisors
        try:
            c = twist_scale(Curve(A, B), u)
        except SingularCurveError:
            reject()
        self.assert_matches_unsieved(c)

    @settings(max_examples=60, **SETTINGS)
    @given(n=st.sampled_from(FAMILY_ORDERS), p=st.integers(-4, 4), q=st.integers(-4, 4),
           branch=st.integers(0, 2))
    def test_generated_curves(self, n, p, q, branch):
        kset = FAMILIES[n].kset
        try:
            rec = generate_curve(Witness(n, p, q, kset[branch % len(kset)]))
        except (SideConditionError, DegenerateParameterError):
            reject()
        self.assert_matches_unsieved(rec.curve)

    def test_prunes_cubic_solves(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return integer_roots_monic_cubic(a, b)

        monkeypatch.setattr(torsion, "integer_roots_monic_cubic", counted)
        torsion_points.cache_clear()
        rec = generate_curve(Witness(9, 17, -11, F(1)))
        assert rec.group_label == "Z/9Z"
        squares = len(square_divisors(rec.curve))
        assert squares > 30000
        assert len(calls) <= squares // 100
