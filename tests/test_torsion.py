import math
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from torsionforms import (
    FAMILIES,
    FAMILY_ORDERS,
    Curve,
    DegenerateParameterError,
    INFINITY,
    MAZUR_LABELS,
    Point,
    SideConditionError,
    SingularCurveError,
    TATE_ORDERS,
    Witness,
    add,
    eval_AB,
    generate_curve,
    has_point_of_order,
    neg,
    point_order,
    tate_short_curve,
    torsion_points,
    torsion_structure,
    twist_scale,
)
from torsionforms import exact, torsion
from torsionforms.exact import divisors, factorize, integer_roots_monic_cubic, rational_roots


def unsieved_torsion_points(c: Curve):
    """Reference oracle by Nagell-Lutz: every y = 0 or y > 0 with y**2
    dividing the discriminant is solved for x.  None when trial division
    does not factor the discriminant."""
    primes, cofactor = factorize(c.disc)
    if cofactor != 1:
        return None
    points = {INFINITY}
    for y in [0] + divisors({p: e // 2 for p, e in primes.items() if e >= 2}):
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

    def test_answers_without_factoring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the torsion oracle factored")

        for owner in (exact, torsion):
            monkeypatch.setattr(owner, "factorize", refuse, raising=False)
            monkeypatch.setattr(owner, "divisors", refuse, raising=False)
        torsion_points.cache_clear()
        # 30000+ square divisors of the discriminant
        assert generate_curve(Witness(9, 17, -11, F(1))).group_label == "Z/9Z"
        assert generate_curve(Witness(8, 3, -2, F(1, 2))).group_label == "Z/8Z"
        # disc = -432 * 1000003**2
        assert torsion_points(Curve(0, 1000003)) == frozenset({INFINITY})
        # past the interpreter's 4300-digit int-to-str limit
        y = 1000003**200
        assert torsion_points(Curve(0, y * y)) == frozenset(
            {INFINITY, Point(0, y), Point(0, -y)})
        # |disc| keeps the cofactor 1659877 * 2123237 after trial division
        assert torsion_points(Curve(-9587, 3187)) == frozenset({INFINITY})


    @pytest.mark.parametrize("A, B", [(9116, -2843), (9203, 27), (7054, 403), (-8464, -4043)])
    def test_prime_cofactor_past_trial_division(self, A, B):
        # |disc| ~ 10**13 keeps a prime factor above (10**6 + 1)**2
        c = Curve(A, B)
        primes, cofactor = factorize(c.disc)
        assert cofactor == 1
        big = max(primes)
        assert big > (10**6 + 1) ** 2 and sympy.isprime(big)
        assert torsion_points(c) == unsieved_torsion_points(c)


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

    def test_exponent_matches_point_orders(self):
        # has_point_of_order reads the exponent; the point-by-point answer
        # must agree on every order 1..12
        curves = [tate_short_curve(n, alpha)[0] for n in TATE_ORDERS for alpha in (2, 3)]
        curves += [Curve(-1, 0), Curve(0, 1), Curve(1, 0), Curve(-43, 166)]
        for c in curves:
            orders = {point_order(c, P, cap=12) for P in torsion_points(c)}
            for m in range(1, 13):
                assert has_point_of_order(c, m) == (m in orders), (c, m)

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
    """The oracle equals the reference enumerator of square divisors wherever
    trial division factors the discriminant."""

    SETTINGS = dict(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

    def assert_matches_unsieved(self, c: Curve):
        expected = unsieved_torsion_points(c)
        if expected is None:
            reject()
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

    # one generated record for each even-order label that the grid
    # |p|, |q| <= 10 gives: the 2-torsion x come from the oracle's lift
    @pytest.mark.parametrize("n, p, q, label", [
        (5, -4, 3, "Z/10Z"), (8, -1, 1, "Z/8Z"), (8, -2, 1, "Z/2Z x Z/8Z"),
    ])
    def test_even_order_generated_records(self, n, p, q, label):
        c = generate_curve(Witness(n, p, q, F(1))).curve
        torsion_points.cache_clear()
        self.assert_matches_unsieved(c)
        assert torsion_structure(c).group_label == label

    def test_full_two_torsion(self):
        # y**2 = x**3 - x = (x + 1) x (x - 1)
        torsion_points.cache_clear()
        self.assert_matches_unsieved(Curve(-1, 0))
        assert torsion_structure(Curve(-1, 0)).group_label == "Z/2Z x Z/2Z"

    def test_count_gcd_two(self):
        # the point counts of y**2 = x**3 + 2x + 3 have gcd N = 2, so the
        # oracle lifts the roots of the cubic alone
        c = Curve(2, 3)
        torsion_points.cache_clear()
        with mock.patch.object(torsion, "_division_roots", wraps=torsion._division_roots) as spy:
            self.assert_matches_unsieved(c)
        assert [call.args[0] for call in spy.call_args_list] == [2]
        assert torsion_points(c) == frozenset({INFINITY, Point(-1, 0)})

    def test_prunes_cubic_solves(self, monkeypatch):
        # the reference enumerator solves the cubic once per square divisor;
        # the oracle solves none: the 2-torsion x are roots of its lift too
        rec = generate_curve(Witness(9, 17, -11, F(1)))
        primes, cofactor = factorize(rec.curve.disc)
        assert cofactor == 1
        squares = len(divisors({p: e // 2 for p, e in primes.items() if e >= 2}))
        assert squares > 30000
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rational_roots(*args, **kwargs)

        monkeypatch.setattr(exact, "rational_roots", counted)
        for c in (rec.curve, Curve(-1, 0), Curve(2, 3)):
            torsion_points.cache_clear()
            torsion_structure(c)
        assert torsion_structure(rec.curve).group_label == "Z/9Z"
        assert calls == []


def nagell_lutz_x_bound(c: Curve) -> int:
    """X = max(isqrt(2|A|), ceil(cbrt(2(|D| + |B|)))) + 1, D = 4A**3 + 27B**2,
    with the cube root exact: a torsion point has y = 0 or y**2 | D, so
    either x**2 < 2|A| or |x|**3 / 2 <= |x**3 + Ax| = |y**2 - B| <= |D| + |B|."""
    root, exact_cube = sympy.integer_nthroot(2 * (abs(4 * c.A**3 + 27 * c.B**2) + abs(c.B)), 3)
    return max(math.isqrt(2 * abs(c.A)), root + (not exact_cube)) + 1


class TestNagellLutzBound:
    """Every torsion point has |x| <= X, and the oracle lifts the roots of
    g_N past 2X, so its symmetric residues recover every such x."""

    SETTINGS = TestResidueSieve.SETTINGS

    @staticmethod
    def lift_bounds(run) -> list[int]:
        """The bounds that ``run()`` passes to the oracle's Newton lift."""
        bounds = []

        def recording(f, x, m, bound):
            bounds.append(bound)
            return exact._hensel_lift(f, x, m, bound)

        with mock.patch.object(torsion, "_hensel_lift", recording):
            run()
        return bounds

    def assert_bounded(self, c: Curve):
        torsion_points.cache_clear()
        lift_bounds = self.lift_bounds(lambda: torsion_points(c))
        X = nagell_lutz_x_bound(c)
        assert all(abs(P.x) <= X for P in torsion_points(c) if P is not INFINITY)
        assert all(bound >= 2 * X for bound in lift_bounds)

    @settings(max_examples=200, **SETTINGS)
    @given(A=st.integers(-10**4, 10**4), B=st.integers(-10**4, 10**4))
    def test_random_curves(self, A, B):
        try:
            c = Curve(A, B)
        except SingularCurveError:
            reject()
        self.assert_bounded(c)

    @settings(max_examples=120, **SETTINGS)
    @given(n=st.sampled_from(FAMILY_ORDERS), p=st.integers(-6, 6), q=st.integers(-6, 6),
           branch=st.integers(0, 2), u=st.integers(1, 6))
    def test_twists_of_generated_curves(self, n, p, q, branch, u):
        kset = FAMILIES[n].kset
        try:
            rec = generate_curve(Witness(n, p, q, kset[branch % len(kset)]))
        except (SideConditionError, DegenerateParameterError):
            reject()
        self.assert_bounded(twist_scale(rec.curve, u))

    def test_lift_covers_the_square_root_term(self):
        # A = -3s, B = 2r with s**3 - r**2 = 1641843 (Elkies' Hall near-miss):
        # D = -108 * 1641843 is so small that isqrt(2|A|) exceeds the cube
        # root term, even rounded up to a power of two
        s, r = 5853886516781223, 447884928428402042307918
        c = Curve(-3 * s, 2 * r)
        X = nagell_lutz_x_bound(c)
        assert X == math.isqrt(6 * s) + 1
        lift_bounds = self.lift_bounds(
            lambda: [torsion._division_roots(N, c.A, c.B, c.disc) for N in (3, 5, 7)])
        assert lift_bounds and all(bound >= 2 * X for bound in lift_bounds)
