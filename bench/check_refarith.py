"""Tests of the benchmark's reference arithmetic; they need no torsionforms.

    python3 bench/check_refarith.py
"""

import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refarith as ra  # noqa: E402
from workloads import DetectPlanted  # noqa: E402


def brute_count(A: int, B: int, l: int) -> int:
    squares = {}
    for y in range(l):
        squares[y * y % l] = squares.get(y * y % l, 0) + 1
    return 1 + sum(squares.get((x**3 + A * x + B) % l, 0) for x in range(l))


class GroupLaw(unittest.TestCase):
    def test_order_seven_point(self):
        self.assertEqual(ra.order(-43, 166, (3, 8)), 7)

    def test_identity_and_inverse(self):
        P = (Fraction(3), Fraction(8))
        self.assertEqual(ra.add(-43, 166, P, None), P)
        self.assertIsNone(ra.add(-43, 166, P, (P[0], -P[1])))

    def test_off_curve_point_has_no_order(self):
        self.assertIsNone(ra.order(-43, 166, (3, 9)))

    def test_two_torsion(self):
        self.assertEqual(ra.order(-1, 0, (1, 0)), 2)


class PointCounts(unittest.TestCase):
    def test_euler_criterion_matches_enumeration(self):
        for A, B in ((-43, 166), (1, 1), (0, 7), (-5, 4)):
            for l in ra.CERT_PRIMES[:15]:
                if ra.disc(A, B) % l:
                    self.assertEqual(ra.count_points(A, B, l), brute_count(A, B, l), (A, B, l))

    def test_no_certificate_where_the_point_exists(self):
        self.assertIsNone(ra.absence_certificate(-43, 166, 7))

    def test_certificate_for_other_orders(self):
        for n in (5, 8, 9):
            self.assertIsNotNone(ra.absence_certificate(-43, 166, n))

    def test_torsion_bound_is_a_multiple_of_seven(self):
        self.assertEqual(ra.torsion_bound(-43, 166) % 7, 0)

    def test_group_order(self):
        self.assertEqual(ra.group_order("Z/7Z"), 7)
        self.assertEqual(ra.group_order("Z/2Z x Z/8Z"), 16)


class TateNormalForms(unittest.TestCase):
    def test_planted_population_has_exact_order(self):
        for n, (A, B, P) in DetectPlanted.population():
            self.assertEqual(ra.order(A, B, P), n, (n, A, B))
            for u in DetectPlanted.TWISTS:
                a, b, Q = ra.twist(A, B, P, u)
                self.assertEqual(ra.order(a, b, Q), n, (n, A, B, u))

    def test_generated_curves_are_integral(self):
        for n in ra.ORDERS:
            for t in (Fraction(2, 3), Fraction(-7, 4), Fraction(11)):
                A, B, P = ra.planted_curve(n, t)
                self.assertIsInstance(A, int)
                self.assertIsInstance(B, int)
                self.assertEqual(ra.order(A, B, P), n)

    def test_cusps_are_rejected(self):
        self.assertIsNone(ra.planted_curve(5, 0))
        self.assertIsNone(ra.planted_curve(7, 1))
        self.assertIsNone(ra.planted_curve(8, 0))
        self.assertIsNone(ra.planted_curve(8, Fraction(1, 2)))
        self.assertIsNone(ra.planted_curve(9, 1))

    def test_order_seven_curve_is_a_tate_curve(self):
        # Curve(-43, 166) is the n = 7 Tate curve at t = 2, up to twist
        A, B, _ = ra.tate_short(7, 2)
        self.assertEqual(ra.j_invariant(A, B), ra.j_invariant(-43, 166))


if __name__ == "__main__":
    unittest.main()
