import math
import random
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
    OffCurveError,
    Point,
    SideConditionError,
    SingularCurveError,
    Witness,
    add,
    disc_AB,
    eval_AB,
    generate_curve,
    neg,
    on_curve,
    order_n_points,
    point_order,
    scalar_mul,
    torsion_points,
    torsion_structure,
    twist_point,
    twist_scale,
)
from torsionforms import curves
from torsionforms.exact import int_to_decimal


class TestDiscriminant:
    def test_singular_flagged(self):
        assert disc_AB(0, 0) == 0
        with pytest.raises(SingularCurveError):
            Curve(0, 0)

    def test_singular_past_the_int_str_limit(self):
        # 4A^3 + 27B^2 = 0 with a 4501-digit B
        A, B = -3 * 10**3000, 2 * 10**4500
        with pytest.raises(SingularCurveError, match="^discriminant vanishes for") as info:
            Curve(A, B)
        assert str(info.value).endswith(f"({int_to_decimal(A)}, {int_to_decimal(B)})")

    def test_repr_past_the_int_str_limit(self):
        A, x = 10**5000, F(10**4400, 3)
        assert repr(Curve(A, 1)) == f"Curve(A={int_to_decimal(A)}, B=1)"
        assert repr(Point(x, -1)) == f"({int_to_decimal(10**4400)}/3, -1)"
        assert repr(Curve(-43, 166)) == "Curve(A=-43, B=166)"
        assert repr(Point(F(1, 2), 3)) == "(1/2, 3)"

    def test_non_integer_coefficients_rejected(self):
        for A, B in [(True, 1), (1, False), (1.0, 1), (F(1), 1)]:
            with pytest.raises(TypeError):
                Curve(A, B)

    def test_direct_values(self):
        assert disc_AB(-1, 0) == 64
        assert Curve(-432, 8208).disc == -23944605696

    def test_twist_scaling_law(self):
        c = Curve(-432, 8208)
        for u in (2, 3, 6):
            assert twist_scale(c, u).disc == u**12 * c.disc


class TestJInvariant:
    def test_special_values(self):
        assert Curve(1, 0).j_invariant == 1728
        assert Curve(0, 1).j_invariant == 0

    def test_equal_across_family_twist(self):
        # the (1,1) witness curve and the 6-scaled (6,6) witness curve
        c1 = Curve(-432, 8208)
        A, B = eval_AB(Witness(5, 6, 6, F(1)))
        c2 = Curve(int(A), int(B))
        assert c1.j_invariant == c2.j_invariant

    def test_invariant_under_twists(self):
        c = Curve(-43, 166)
        for u in (2, 3, 6, F(1, 2), F(5, 3)):
            try:
                assert twist_scale(c, u).j_invariant == c.j_invariant
            except ValueError:
                pass  # non-integral twist


class TestGroupLaw:
    def setup_method(self):
        self.c = Curve(-432, 8208)
        self.P = Point(-12, 108)

    def test_identity(self):
        assert add(self.c, INFINITY, self.P) == self.P
        assert add(self.c, self.P, INFINITY) == self.P

    def test_inverse(self):
        assert add(self.c, self.P, Point(-12, -108)) is INFINITY

    def test_doubling_order_five(self):
        assert add(self.c, self.P, self.P) == Point(24, -108)
        assert scalar_mul(self.c, 5, self.P) is INFINITY

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurveError):
            add(self.c, Point(1, 1), self.P)

    def test_scalar_edge_cases(self):
        assert scalar_mul(self.c, 0, self.P) is INFINITY
        assert scalar_mul(self.c, 1, self.P) == self.P
        with pytest.raises(ValueError):
            scalar_mul(self.c, -1, self.P)

    def test_order7_point_on_scaled_witness_curve(self):
        # 3-twist of Y^2 = X^3 - 43X + 166, generated from (p, q) = (2, 1), k = 1
        A, B = eval_AB(Witness(7, 2, 1, F(1)))
        c = Curve(int(A), int(B))
        P = twist_point(Point(3, 8), 3)
        assert on_curve(c, P)
        for m in range(1, 7):
            assert scalar_mul(c, m, P) is not INFINITY
        assert scalar_mul(c, 7, P) is INFINITY

    def test_associativity_sample(self):
        rng = random.Random(42)
        curves = []
        for n, p, q in [(5, 1, 1), (5, 2, 1), (5, 1, 2), (7, 2, 1), (7, 3, 1),
                        (8, 2, 1), (8, 3, 1), (9, 2, 1), (9, 3, 2), (5, 3, 2)]:
            A, B = eval_AB(Witness(n, p, q, F(1)))
            curves.append(Curve(int(A), int(B)))
        for c in curves:
            pts = sorted(torsion_points(c), key=repr)
            for _ in range(10):
                P, Q, R = (rng.choice(pts) for _ in range(3))
                left = add(c, add(c, P, Q), R)
                right = add(c, P, add(c, Q, R))
                assert left == right


class TestPointOrder:
    def test_identity_and_two_torsion(self):
        c = Curve(-1, 0)
        assert point_order(c, INFINITY) == 1
        assert point_order(c, Point(0, 0)) == 2
        assert point_order(c, Point(1, 0)) == 2

    def test_order_five(self):
        assert point_order(Curve(-432, 8208), Point(-12, 108)) == 5

    def test_cap_returns_none(self):
        # (3, 5) on Y^2 = X^3 - 2 is non-torsion
        assert point_order(Curve(0, -2), Point(3, 5)) is None

    def test_divides_torsion_exponent(self):
        for A, B in [(-432, 8208), (-43, 166), (0, 1), (1, 0), (-1, 0)]:
            c = Curve(A, B)
            report = torsion_structure(c)
            for P in report.points:
                assert report.exponent % point_order(c, P) == 0


def fraction_point_order(c, P, cap=16):
    """Reference: the chord-and-tangent walk P, 2P, ... in Fraction."""
    if not on_curve(c, P):
        raise OffCurveError(f"{P!r} is not on {c!r}")
    Q = P
    for m in range(1, cap + 1):
        if Q is INFINITY:
            return m
        if Q.x == P.x:
            if Q.y == -P.y:
                Q = INFINITY
                continue
            lam = (3 * Q.x * Q.x + c.A) / (2 * Q.y)
        else:
            lam = (P.y - Q.y) / (P.x - Q.x)
        x3 = lam * lam - Q.x - P.x
        Q = Point(x3, lam * (Q.x - x3) - Q.y)
    return None


def integral_points(c, bound=30):
    """The affine points of ``c`` with |x| <= bound and integral y."""
    pts = []
    for x in range(-bound, bound + 1):
        rhs = x**3 + c.A * x + c.B
        if rhs >= 0:
            y = math.isqrt(rhs)
            if y * y == rhs:
                pts += [Point(x, y), Point(x, -y)]
    return pts


class TestPointOrderOverIntegers:
    """point_order runs in integers; it must agree with the Fraction walk."""

    SETTINGS = dict(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    NON_TORSION = Point(3, 5)  # on Y^2 = X^3 - 2

    def assert_agrees(self, c, points):
        for P in points:
            for cap in range(17):
                expected = fraction_point_order(c, P, cap)
                assert point_order(c, P, cap) == expected, (c, P, cap)
                if cap and P is not INFINITY and P.x.denominator == P.y.denominator == 1:
                    x, y = P.x.numerator, P.y.numerator
                    assert curves._integral_order(c.A, x, y, cap) == expected, (c, P, cap)

    @settings(max_examples=150, **SETTINGS)
    @given(A=st.integers(-10**4, 10**4), B=st.integers(-10**4, 10**4))
    def test_random_curves(self, A, B):
        try:
            c = Curve(A, B)
        except SingularCurveError:
            reject()
        self.assert_agrees(c, sorted(torsion_points(c) | set(integral_points(c)), key=repr))

    @settings(max_examples=40, **SETTINGS)
    @given(n=st.sampled_from(FAMILY_ORDERS), p=st.integers(-4, 4), q=st.integers(-4, 4),
           branch=st.integers(0, 2))
    def test_printed_points_of_generated_curves(self, n, p, q, branch):
        kset = FAMILIES[n].kset
        try:
            rec = generate_curve(Witness(n, p, q, kset[branch % len(kset)]))
        except (SideConditionError, DegenerateParameterError):
            reject()
        # the oracle already ran on this curve, so torsion_points is cached
        self.assert_agrees(rec.curve, sorted(set(rec.points) | torsion_points(rec.curve), key=repr))

    def test_non_torsion_point_and_its_multiples(self):
        c = Curve(0, -2)
        P = self.NON_TORSION
        P2 = add(c, P, P)
        assert P2.x.denominator != 1  # (129/100, -383/1000)
        self.assert_agrees(c, [P, neg(P), P2, add(c, P2, P), INFINITY])
        assert point_order(c, P2) is None

    def test_cap_below_order(self):
        c, P = Curve(-432, 8208), Point(-12, 108)
        assert [point_order(c, P, cap) for cap in range(7)] == [None] * 5 + [5, 5]
        assert point_order(c, INFINITY, 0) is None

    @pytest.mark.parametrize("P", [Point(1, 1), Point(F(1, 2), F(1, 3)), Point(-12, F(108, 5))])
    @pytest.mark.parametrize("cap", [0, 16])
    def test_off_curve_rejected(self, P, cap):
        with pytest.raises(OffCurveError):
            point_order(Curve(-432, 8208), P, cap)

    @settings(max_examples=200, **SETTINGS)
    @given(A=st.integers(-10**4, 10**4), B=st.integers(-10**4, 10**4),
           x=st.integers(-10**3, 10**3), y=st.fractions().filter(lambda y: y.denominator > 1))
    def test_integral_x_on_the_curve_has_integral_y(self, A, B, x, y):
        # point_order checks only x: on the curve y^2 = x^3 + A x + B is an
        # integer, and the square of a reduced fraction with denominator
        # b > 1 has denominator b^2 > 1
        try:
            c = Curve(A, B)
        except SingularCurveError:
            reject()
        assert (y * y).denominator == y.denominator**2 > 1
        with pytest.raises(OffCurveError):
            point_order(c, Point(x, y))

    def test_no_rational_group_law(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("point_order used the rational group law")

        monkeypatch.setattr(curves, "_add_unchecked", forbidden)
        assert point_order(Curve(-432, 8208), Point(-12, 108)) == 5
        assert point_order(Curve(-1, 0), Point(1, 0)) == 2
        assert point_order(Curve(0, -2), self.NON_TORSION) is None
        A, B = eval_AB(Witness(7, 2, 1, F(1)))
        assert point_order(Curve(int(A), int(B)), twist_point(Point(3, 8), 3)) == 7


class TestTwist:
    def test_identity_and_scaling(self):
        c = Curve(-432, 8208)
        assert twist_scale(c, 1) == c
        assert twist_scale(c, 6) == Curve(6**4 * -432, 6**6 * 8208)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            twist_scale(Curve(-432, 8208), 0)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            twist_scale(Curve(-43, 166), F(1, 5))

    def test_point_map_preserves_order(self):
        rng = random.Random(9)
        pool = []
        for n, p, q in [(5, 1, 1), (7, 2, 1), (8, 2, 1), (9, 2, 1), (5, 2, 1)]:
            A, B = eval_AB(Witness(n, p, q, F(1)))
            c = Curve(int(A), int(B))
            for P in torsion_points(c):
                pool.append((c, P))
        sample = rng.sample(pool, min(50, len(pool)))
        for c, P in sample:
            for u in (2, 3):
                cu = twist_scale(c, u)
                assert point_order(cu, twist_point(P, u)) == point_order(c, P)

    def test_order_n_points_transport(self):
        w = Witness(5, 1, 1, F(1))
        for P in order_n_points(w):
            Q = twist_point(P, 6)
            c6 = Curve(6**4 * -432, 6**6 * 8208)
            assert on_curve(c6, Q)


def test_negation():
    P = Point(3, 8)
    assert neg(P) == Point(3, -8)
    assert neg(INFINITY) is INFINITY
