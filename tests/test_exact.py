import math
import random
from fractions import Fraction as F

import pytest
import sympy

from torsionforms import exact
from torsionforms.exact import (
    HomForm,
    IntPoly,
    decimal_to_int,
    divisors,
    factorize,
    int_to_decimal,
    integer_nth_root,
    integer_roots_monic_cubic,
    rational_nth_root,
    rational_roots,
    rational_square_root,
)
from torsionforms.families import FAMILIES


class TestIntPoly:
    def test_trim_and_degree(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).is_zero()
        assert IntPoly((0,)).is_zero()
        assert IntPoly((5,)).degree == 0
        assert IntPoly((0, 0, 3)).degree == 2

    def test_eval(self):
        f = IntPoly((-3, 0, 2))  # 2x^2 - 3
        assert f(2) == 5
        assert f(F(1, 2)) == F(-5, 2)
        assert f.eval_pair(1, 2) == 2 * 1 - 3 * 4  # f(1/2) * 2^2

    def test_arithmetic(self):
        f = IntPoly((1, 1))
        g = IntPoly((-1, 1))
        assert f * g == IntPoly((-1, 0, 1))
        assert f + g == IntPoly((0, 2))
        assert f - f == IntPoly(())
        assert f**3 == IntPoly((1, 3, 3, 1))
        assert 2 * f == IntPoly((2, 2))

    def test_content_valuation(self):
        f = IntPoly((0, 0, 6, -9))
        assert f.content() == 3
        assert f.primitive_part() == IntPoly((0, 0, 2, -3))
        assert f.valuation() == 2
        assert f.strip_x_power(2) == IntPoly((6, -9))


class TestHomForm:
    def test_eval_matches_expansion(self):
        # (p - q)^2 = p^2 - 2pq + q^2
        f = HomForm(1, (-1, 1)) ** 2
        assert f.coeffs == (1, -2, 1)
        assert f(3, 5) == 4

    def test_dehomogenize_sign(self):
        f = HomForm(2, (1, -12, 14))
        assert f.dehomogenize(1) == IntPoly((1, -12, 14))
        assert f.dehomogenize(-1) == IntPoly((1, 12, 14))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            HomForm(2, (1, 2))


class TestRationalRoots:
    def test_symmetric_quadratic(self):
        assert rational_roots(IntPoly((-1, 0, 1))) == {F(1), F(-1)}

    def test_linear(self):
        assert rational_roots(IntPoly((-3, 2))) == {F(3, 2)}

    def test_zero_root_reported(self):
        # x^2 (2x - 3)
        f = IntPoly((0, 0, -3, 2))
        assert rational_roots(f) == {F(0), F(3, 2)}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(IntPoly(()))

    def test_matching_polynomial_order7_witness_curve(self):
        # matching polynomial of Y^2 = X^3 - 43X + 166 for the order-7 family
        fam = FAMILIES[7]
        A, B = -43, 166
        M = B * B * fam.tate_A_num**3 - A**3 * fam.tate_B_num**2

        # independent oracle: exhaustive scan over fractions of bounded height
        def scan(bound):
            found = set()
            for s in range(1, bound + 1):
                for r in range(-bound, bound + 1):
                    if math.gcd(r, s) == 1 and M.eval_pair(r, s) == 0:
                        found.add(F(r, s))
            return found

        small = scan(40)
        # frozen from a |r|,|s| <= 1000 scan of the same oracle
        frozen = {F(-1), F(1, 2), F(2)}
        assert small == frozen
        assert rational_roots(M) == frozen
        # contains the root whose (p, q) reduction is the detector's witness
        assert F(2) in frozen  # -> (p, q) = (2, 1)

    def test_non_roots_in_candidate_set_are_not_roots(self):
        rng = random.Random(11)
        for _ in range(50):
            # product of linear factors (s*x - r) plus an irreducible quadratic
            f = IntPoly((rng.randint(1, 5), 0, rng.randint(1, 5)))
            planted = set()
            for _ in range(rng.randint(1, 3)):
                r, s = rng.randint(-9, 9), rng.randint(1, 9)
                g = math.gcd(r, s)
                r, s = r // g, s // g
                planted.add(F(r, s))
                f = f * IntPoly((-r, s))
            roots = rational_roots(f)
            assert roots == planted
            c0, cd = f.primitive_part().coeffs[0], f.primitive_part().coeffs[-1]
            if c0 == 0:
                continue
            for r in divisors(factorize(abs(c0))[0])[:20]:
                for s in divisors(factorize(abs(cd))[0])[:20]:
                    if math.gcd(r, s) != 1:
                        continue
                    for cand in (F(r, s), F(-r, s)):
                        if cand not in roots:
                            assert f(cand) != 0

    def test_candidates_counted_before_divisors_are_built(self, monkeypatch):
        # 41 * 41 candidates exceed the cap, so the fallback answers and no
        # divisor list is built
        def no_divisors(primes):
            raise AssertionError("divisor list built past candidate_cap")

        monkeypatch.setattr(exact, "divisors", no_divisors)
        f = IntPoly((-(2**40), 0, 3**40))
        roots = rational_roots(f, candidate_cap=1000)
        assert roots == {F(2**20, 3**20), F(-(2**20), 3**20)}

    def test_divisor_and_factorization_paths_agree(self):
        rng = random.Random(23)
        for _ in range(30):
            coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(2, 8))]
            if not any(coeffs):
                continue
            f = IntPoly(coeffs)
            if f.is_zero() or f.degree < 1:
                continue
            via_divisors = rational_roots(f, trial_limit=10**6)
            via_factor = rational_roots(f, trial_limit=10**6, candidate_cap=0)
            assert via_divisors == via_factor


class TestFactorize:
    def test_basic(self):
        assert factorize(12) == ({2: 2, 3: 1}, 1)
        assert factorize(1) == ({}, 1)
        assert factorize(-12) == ({2: 2, 3: 1}, 1)

    def test_order5_discriminant(self):
        assert factorize(23944605696) == ({2: 12, 3: 12, 11: 1}, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_incomplete_cofactor(self):
        m = 4 * 1000003 * 1000033  # both primes exceed the limit below
        primes, cofactor = factorize(m, trial_limit=1000)
        assert primes == {2: 2}
        assert cofactor == 1000003 * 1000033
        # 1009**2 needs trial division past 1000 to be told from a prime
        assert factorize(3 * 1009**2, trial_limit=1000) == ({3: 1}, 1009**2)

    def test_primes_bounded_by_limit(self):
        # the loop stops at 101**2 > 10007, which proves 10007 prime
        primes, cofactor = factorize(2 * 10007, trial_limit=1000)
        assert primes == {2: 1, 10007: 1}
        assert cofactor == 1
        assert factorize(16 * 1000003) == ({2: 4, 1000003: 1}, 1)
        # 626176232699 < (10**6)**2, so trial division to 10**6 proves it prime
        assert factorize(626176232699) == ({626176232699: 1}, 1)

    def test_roundtrip_random(self):
        # trial division to 10**6 proves every m <= 10**12 completely factored
        rng = random.Random(5)
        for _ in range(1000):
            m = rng.randint(1, 10**12) * rng.choice((1, -1))
            primes, cofactor = factorize(m)
            assert cofactor == 1
            prod = 1
            for p, e in primes.items():
                assert sympy.isprime(p)
                prod *= p**e
            assert prod * (1 if m > 0 else -1) == m


class TestDecimalStrings:
    def test_matches_str(self):
        rng = random.Random(3)
        for digits in (1, 5, 999, 1000, 1001, 2500):
            for _ in range(5):
                n = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
                assert int_to_decimal(n) == str(n)
                assert decimal_to_int(str(n)) == n
        assert int_to_decimal(0) == "0"
        assert int_to_decimal(10**2000) == "1" + "0" * 2000

    def test_past_the_int_str_limit(self):
        n = -(7**20000 + 12345)  # 16902 digits; str(n) raises at the default limit
        s = int_to_decimal(n)
        assert len(s) == 16903 and s[0] == "-"
        assert s[-100:] == f"{-n % 10**100:0100d}"
        assert decimal_to_int(s) == n
        assert decimal_to_int("+" + s[1:]) == -n

    def test_rejects_non_decimal(self):
        for bad in ("", "-", "1.5", "1_000", " 7", "0x10", "--3", "٣"):
            with pytest.raises(ValueError):
                decimal_to_int(bad)


class TestSquareRoots:
    def test_examples(self):
        assert rational_square_root(F(9, 4)) == F(3, 2)
        assert rational_square_root(2) is None
        assert rational_square_root(11664) == 108
        assert rational_square_root(0) == 0
        assert rational_square_root(-4) is None

    def test_nth_roots(self):
        assert rational_nth_root(F(27, 8), 3) == F(3, 2)
        assert rational_nth_root(F(16, 81), 4) == F(2, 3)
        assert rational_nth_root(F(5), 3) is None
        assert integer_nth_root(10**18, 3) == 10**6
        assert integer_nth_root(10**18 - 1, 3) == 10**6 - 1


class TestCubicRoots:
    def test_planted_roots(self):
        rng = random.Random(17)
        for _ in range(200):
            r1 = rng.randint(-50, 50)
            # x^3 + a x + b with planted root r1: b = -r1^3 - a r1
            a = rng.randint(-10**6, 10**6)
            b = -(r1**3) - a * r1
            assert r1 in integer_roots_monic_cubic(a, b)
            for r in integer_roots_monic_cubic(a, b):
                assert r**3 + a * r + b == 0

    def test_small_cases(self):
        assert integer_roots_monic_cubic(0, 2) == []
        assert integer_roots_monic_cubic(1, 1) == []
        assert integer_roots_monic_cubic(1, 2) == [-1]
        assert integer_roots_monic_cubic(-1, 0) == [-1, 0, 1]

    def test_large_coefficients(self):
        # three roots spread around huge critical points
        a = -(10**10)
        for r in integer_roots_monic_cubic(a, 0):
            assert r**3 + a * r == 0
        assert 0 in integer_roots_monic_cubic(a, 0)
