import math
import random
import tracemalloc
from fractions import Fraction as F
from functools import partial

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            HomForm(1, (1, 1)) ** -1

    def test_immutable_degree_is_read_off_the_coefficients(self):
        f = HomForm(3, (0, 0, 0, 0))
        assert f.degree == 3
        with pytest.raises(AttributeError):
            f.degree = 2
        with pytest.raises(AttributeError):
            f.coeffs = (1,)


def monomials(f) -> dict:
    """f as {(i, j): c}, the nonzero terms c * p**i * q**j; an IntPoly is
    homogenized at its degree, so x**i is p**i * q**(degree - i)."""
    return {(i, f.degree - i): c for i, c in enumerate(f.coeffs) if c}


def naive_product(*fs) -> dict:
    """The monomials of the product of ``fs``, one pair of terms at a time."""
    out = {(0, 0): 1}
    for f in fs:
        terms = {}
        for (i, j), c in out.items():
            for (k, l), d in monomials(f).items():
                terms[i + k, j + l] = terms.get((i + k, j + l), 0) + c * d
        out = {m: c for m, c in terms.items() if c}
    return out


def naive_value(f, r: int, s: int) -> int:
    return sum(c * r**i * s**j for (i, j), c in monomials(f).items())


_COEFF = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
_INT_POLYS = st.lists(_COEFF, max_size=6).map(IntPoly)
_HOM_FORMS = st.integers(0, 5).flatmap(
    lambda d: st.lists(_COEFF, min_size=d + 1, max_size=d + 1).map(partial(HomForm, d)))


class TestCoefficientArithmetic:
    """IntPoly and HomForm share one evaluation, product and power; each is
    checked against sums over the monomials of the operands."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(pair=st.sampled_from((_INT_POLYS, _HOM_FORMS)).flatmap(lambda s: st.tuples(s, s)),
           k=st.integers(-50, 50), e=st.integers(0, 4),
           r=st.integers(-(10**4), 10**4), s=st.integers(-(10**4), 10**4))
    @example(pair=(HomForm(1, (1, 0)), HomForm(1, (0, 1))), k=3, e=3, r=5, s=-7)  # q and p
    @example(pair=(HomForm(2, (0, 1, 0)), HomForm(0, (0,))), k=0, e=2, r=2, s=3)
    @example(pair=(IntPoly(()), IntPoly((0, 0, 5))), k=7, e=0, r=2, s=3)
    @example(pair=(IntPoly((0, 1)), IntPoly(())), k=-1, e=4, r=-3, s=2)
    def test_matches_monomial_sums(self, pair, k, e, r, s):
        f, g = pair
        for h in pair:
            assert h.eval_pair(r, s) == naive_value(h, r, s)
        if isinstance(f, HomForm):
            assert f(r, s) == naive_value(f, r, s)
        else:
            assert f(r) == naive_value(f, r, 1)
        for scaled in (k * f, f * k):
            assert type(scaled) is type(f)
            assert monomials(scaled) == {m: k * c for m, c in monomials(f).items() if k * c}
        fg, fe = f * g, f**e
        assert type(fg) is type(fe) is type(f)
        assert monomials(fg) == naive_product(f, g)
        assert monomials(fe) == naive_product(*[f] * e)
        if isinstance(f, HomForm):  # zero coefficients are kept: the degree adds up
            assert ((k * f).degree, fg.degree, fe.degree) == (
                f.degree, f.degree + g.degree, e * f.degree)
        rebuilt = HomForm(fg.degree, fg.coeffs) if isinstance(f, HomForm) else IntPoly(fg.coeffs)
        assert rebuilt == fg and hash(rebuilt) == hash(fg)

    def test_classes_never_equal(self):
        assert IntPoly((1, 2)) != HomForm(1, (1, 2))
        assert IntPoly((1,)) != HomForm(0, (1,))


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
        # 41 * 41 divisor candidates; the p-adic search neither factors the
        # end coefficients nor lists their divisors
        def refuse(*args):
            raise AssertionError("root search factored a coefficient")

        monkeypatch.setattr(exact, "factorize", refuse)
        monkeypatch.setattr(exact, "divisors", refuse)
        f = IntPoly((-(2**40), 0, 3**40))
        roots = rational_roots(f)
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
            assert rational_roots(f) == sympy_rational_roots(f)


def sympy_rational_roots(f: IntPoly) -> set:
    """The rational roots of f from sympy's factorization over Z."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x).factor_list()
    roots = set()
    for fac, _ in factors:
        if fac.degree() == 1:
            lead, const = (int(c) for c in fac.all_coeffs())
            roots.add(F(-const, lead))
    return roots


def _rational(draw, digits):
    r = F(
        draw(st.integers(-(10**digits), 10**digits)),
        draw(st.integers(1, 10 ** (digits // 2 + 1))),
    )
    return IntPoly((-r.numerator, r.denominator))


@st.composite
def planted_polynomials(draw):
    """A content times planted linear factors of multiplicity 1-3 times
    random factors of degree 2-4 (nearly always irreducible)."""
    f = IntPoly((draw(st.integers(1, 10**30)) * draw(st.sampled_from((1, -1))),))
    for _ in range(draw(st.integers(0, 4))):
        f = f * _rational(draw, draw(st.integers(1, 30))) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        g = IntPoly(draw(st.lists(st.integers(-(10**6), 10**6), min_size=3, max_size=5)))
        if g.degree >= 2:
            f = f * g ** draw(st.integers(1, 2))
    return f


class TestRationalRootsDifferential:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(planted_polynomials())
    # multiple roots mod every prime, so their squarefree parts are taken
    @example(
        IntPoly((-2, 0, 1)) ** 2 * IntPoly((-3, 0, 1)) ** 2
        * IntPoly((-6, 0, 1)) ** 2 * IntPoly((-5, 7)) ** 3
    )
    @example(IntPoly((1, 2, 1)) ** 5 * IntPoly((0, 0, 4)))
    def test_matches_sympy(self, f):
        assert rational_roots(f) == sympy_rational_roots(f)


def _moebius(symmetry, x: F):
    """phi(x), or None at a pole of phi."""
    a, b, c, d = symmetry
    return None if c * x + d == 0 else (a * x + b) / (c * x + d)


SYMMETRIES = tuple(fam.symmetry for fam in FAMILIES.values())
MOEBIUS = st.tuples(*[st.integers(-3, 3)] * 4)


@st.composite
def orbit_polynomials(draw):
    """A polynomial with planted rational roots and the map of their orbits:
    each planted orbit under ``true`` (a family map or a random Moebius map)
    is complete, partial or absent, times a random factor."""
    true = draw(st.one_of(st.sampled_from(SYMMETRIES), MOEBIUS))
    f = IntPoly(draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4)
                     .filter(any)))
    for _ in range(draw(st.integers(0, 3))):
        x = F(draw(st.integers(-30, 30)), draw(st.integers(1, 30)))
        orbit = [x]
        while len(orbit) < 6:
            x = _moebius(true, x)
            if x is None or x in orbit:
                break
            orbit.append(x)
        for r in orbit[:draw(st.integers(0, len(orbit)), label="kept")]:
            f = f * IntPoly((-r.numerator, r.denominator))
    return true, f


class TestRationalRootsSymmetry:
    """rational_roots under a root symmetry finds the same roots as without,
    whether the map is the orbits' own or a wrong one."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(orbit_polynomials(), st.booleans(), MOEBIUS)
    @example((SYMMETRIES[0], IntPoly((-2, 1)) * IntPoly((1, 2))), True, (0, 0, 0, 0))
    @example((SYMMETRIES[1], IntPoly((1, 1, 1))), True, (1, 1, 1, 1))
    def test_matches_the_plain_search(self, planted, wrong, other):
        true, f = planted
        assert rational_roots(f, other if wrong else true) == rational_roots(f)

    def test_one_lift_per_orbit(self, monkeypatch):
        # x -> 1 - 1/x permutes 2, 1/2, -1 (the roots of the n = 7 matching
        # polynomial of y^2 = x^3 - 43x + 166) and -2/3, 5/2, 3/5
        f = IntPoly((3, 0, 1))
        for r in (F(2), F(1, 2), F(-1), F(-2, 3), F(5, 2), F(3, 5)):
            f = f * IntPoly((-r.numerator, r.denominator))
        lifts = []
        real = exact._hensel_lift

        def counting(*args):
            lifts.append(args[1])
            return real(*args)

        monkeypatch.setattr(exact, "_hensel_lift", counting)
        roots = rational_roots(f, SYMMETRIES[1])
        assert roots == {F(2), F(1, 2), F(-1), F(-2, 3), F(5, 2), F(3, 5)}
        with_map = len(lifts)
        lifts.clear()
        assert rational_roots(f) == roots
        assert with_map == 2 < len(lifts)


def plain_factorize(m: int, trial_limit: int) -> tuple[dict[int, int], int]:
    """Reference: ``factorize`` by trial division by 2, 3 and the 6k +- 1 up
    to the limit, one at a time, while their squares do not exceed what is
    left."""
    def candidates():
        yield 2
        yield 3
        d, step = 5, 2
        while d <= trial_limit:
            yield d
            d += step
            step = 6 - step

    n, primes = abs(m), {}
    for d in candidates():
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            primes[d] = e
    proved = n < exact._SPRP_BOUND and all(
        exact._is_sprp(n, a) for a in exact._SPRP_BASES if a < n)
    if n > 1 and (math.isqrt(n) <= trial_limit or proved):
        primes[n] = 1
        n = 1
    return primes, n


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

    def test_strong_probable_prime_proof(self):
        # above (10**6 + 1)**2, so trial division alone leaves it unproved
        assert factorize(3030429723107) == ({3030429723107: 1}, 1)
        assert factorize(7 * (2**61 - 1), trial_limit=1000) == ({7: 1, 2**61 - 1: 1}, 1)
        # a strong pseudoprime to the bases 2, 3, 5 and 7 (base 11 exposes it)
        assert factorize(3215031751, trial_limit=2) == ({}, 3215031751)
        # a Carmichael number 211 * 421 * 631: a**((n - 1) / 2) = 1 for every base
        assert factorize(56052361, trial_limit=2) == ({}, 56052361)
        # prime, but above the bound below which the 13 bases prove primality
        assert factorize(2**89 - 1, trial_limit=1000) == ({}, 2**89 - 1)
        assert factorize(41, trial_limit=2) == ({41: 1}, 1)

    def test_the_proof_rests_on_the_first_thirteen_prime_bases(self):
        # Sorenson and Webster (Math. Comp. 2017): below _SPRP_BOUND, these
        # 13 bases prove primality; with one base fewer or another base a
        # composite passes
        assert exact._SPRP_BASES == tuple(sympy.prime(i) for i in range(1, 14))
        # a strong pseudoprime to the bases 2 to 37 that only base 41 rejects
        n = 399165290221 * 798330580441
        assert n == 318665857834031151167461
        assert [a for a in exact._SPRP_BASES if not exact._is_sprp(n, a)] == [41]
        assert factorize(n) == ({}, n)
        # the bound is composite and passes all 13 bases
        n = exact._SPRP_BOUND
        assert n == 3317044064679887385961981 and not sympy.isprime(n)
        assert all(exact._is_sprp(n, a) for a in exact._SPRP_BASES)
        assert factorize(n) == ({}, n)

    def test_default_trial_limit(self):
        # both primes lie between the default limit 10**6 and 10**7
        m = 1000003 * 1000033
        assert factorize(m) == ({}, 1000036000099)
        assert factorize(m, trial_limit=10**7) == ({1000003: 1, 1000033: 1}, 1)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(m=st.one_of(st.integers(-10**10, 10**10).filter(bool),
                       st.builds(lambda b, e, c: b**e * c, st.integers(1, 4000),
                                 st.integers(1, 6), st.integers(-10**5, 10**5).filter(bool))),
           trial_limit=st.sampled_from((2, 3, 4, 5, 7, 24, 25, 1000, 3000, 10**6)))
    @example(m=9, trial_limit=2)
    @example(m=3 * 1009**2, trial_limit=1009)
    def test_matches_plain_trial_division(self, m, trial_limit):
        # the block gcds change the route, not the answer nor its order
        assert list(factorize(m, trial_limit)[0].items()) == list(
            plain_factorize(m, trial_limit)[0].items())
        assert factorize(m, trial_limit)[1] == plain_factorize(m, trial_limit)[1]

    def test_memory_does_not_grow_with_trial_limit(self):
        # 100003 is prime: the blocks run up to it, far below the limit
        m = 2**300 * 100003**3
        tracemalloc.start()
        try:
            assert factorize(m, trial_limit=10**15) == ({2: 300, 100003: 3}, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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
        # a JSON object: from 3.12 on a slice is hashable, so {}[:1] would
        # raise KeyError
        for bad in ({}, {"a": 1}, [], None, 7):
            with pytest.raises(TypeError):
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
        assert integer_roots_monic_cubic(-3, 2) == [-2, 1]
        assert integer_roots_monic_cubic(-12, 16) == [-4, 2]

    def test_large_coefficients(self):
        # three roots spread around huge critical points
        a = -(10**10)
        for r in integer_roots_monic_cubic(a, 0):
            assert r**3 + a * r == 0
        assert 0 in integer_roots_monic_cubic(a, 0)
