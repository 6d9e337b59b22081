import random
from fractions import Fraction as F

import pytest

from torsionforms import (
    Curve,
    DISC_TABLE,
    IncompleteFactorizationError,
    Witness,
    disc_AB,
    disc_poly,
    eval_AB,
    evertse_bound,
    mazur_count_bound,
    prime_factor_count,
    reduced_form,
)
from torsionforms.families import FAMILIES


class TestDiscPoly:
    def test_anchor_value(self):
        assert disc_poly(5, 1, 1) == 2**12 * 3**12 * 11 == 23944605696

    def test_printed_factors_vanish(self):
        assert disc_poly(7, 3, 3) == 0
        assert disc_poly(9, 1, 1) == 0

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            disc_poly(6, 1, 1)

    def test_table_metadata(self):
        assert {n: d.raw_degree for n, d in DISC_TABLE.items()} == {
            2: 3, 3: 4, 4: 6, 5: 12, 7: 24, 8: 24, 9: 27
        }
        assert DISC_TABLE[2].reduction == "y^2 -> y"
        assert DISC_TABLE[3].reduction == "x^3 -> x"
        assert DISC_TABLE[5].reduction is None

    def test_reduced_forms(self):
        assert reduced_form(2).degree == 3
        assert reduced_form(3).degree == 4
        assert reduced_form(4).degree == 6
        # reduced n=2 value agrees with substituting y^2 -> y
        assert reduced_form(2)(5, 9) == 16 * (4 * 5 - 9) * (5 + 2 * 9) ** 2
        with pytest.raises(ValueError):
            reduced_form(5)

    def test_small_order_rows_are_the_substituted_reduced_forms(self):
        # rows n = 2, 3, 4 transcribe reduced_form(n) before REDUCTION's
        # substitution (y^2 -> y, x^3 -> x, y^2 -> y)
        for x in range(-9, 10):
            for y in range(-9, 10):
                assert disc_poly(2, x, y) == reduced_form(2)(x, y**2), (x, y)
                assert disc_poly(3, x, y) == reduced_form(3)(x**3, y), (x, y)
                assert disc_poly(4, x, y) == reduced_form(4)(x, y**2), (x, y)


def _random_witnesses(n, count, seed, k=F(1)):
    fam = FAMILIES[n]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        if p == 0 or q == 0 or not fam.side_conditions_ok(p, q):
            continue
        w = Witness(n, p, q, k)
        if disc_AB(*eval_AB(w)) == 0:
            continue
        out.append(w)
    return out


class TestTableConsistency:
    """Exact relations between generated-curve discriminants and the table.

    Only the n = 5 row equals the k = 1 curve; the n >= 7 rows carry the
    k-minimal branch normalization (and the n = 9 row lacks a y^9 factor).
    The verified identities are pinned here.
    """

    def test_order5_exact_match(self):
        for w in _random_witnesses(5, 100, seed=1):
            A, B = eval_AB(w)
            assert abs(disc_AB(int(A), int(B))) == abs(disc_poly(5, w.p, w.q))

    def test_order7_constant_ratio(self):
        for w in _random_witnesses(7, 100, seed=2):
            A, B = eval_AB(w)
            assert abs(disc_AB(int(A), int(B))) == 3**12 * abs(disc_poly(7, w.p, w.q))

    def test_order8_constant_ratio(self):
        for w in _random_witnesses(8, 100, seed=3):
            A, B = eval_AB(w)
            assert disc_AB(int(A), int(B)) == 2**12 * disc_poly(8, w.p, w.q)

    def test_order9_identity(self):
        # disc of the k=1/3 curve factors as 2^12 p^9 q^9 C3(p,q) C2(p,q)^3 (p-q)^9
        for w in _random_witnesses(9, 100, seed=4, k=F(1, 3)):
            A, B = eval_AB(w)
            p, q = w.p, w.q
            c3 = p**3 - 6 * p**2 * q + 3 * p * q**2 + q**3
            c2 = p * p - p * q + q * q
            expected = 2**12 * p**9 * q**9 * c3 * c2**3 * (p - q) ** 9
            d = disc_AB(A, B)
            assert d == expected
            # relation to the printed row: off by -16 q^9
            assert d == -16 * q**9 * disc_poly(9, p, q)


class TestEvertseBound:
    def test_degree_three(self):
        for t in range(4):
            assert evertse_bound(3, t) == 7**60 + 6 * 7 ** (2 * (t + 1))

    def test_degree_four_and_seven(self):
        assert evertse_bound(4, 2) == 7**375 + 6 * 7 ** (8 * 3)
        assert evertse_bound(7, 0) == 7**19440 + 6 * 7**70

    def test_degree_five(self):
        assert evertse_bound(5, 1) == 7**1815 + 6 * 7 ** (20 * 2)

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            evertse_bound(2, 1)
        with pytest.raises(ValueError):
            evertse_bound(3, -1)


class TestMazurCountBound:
    def test_even_family(self):
        assert mazur_count_bound(2, 0).value == 7**60 + 6 * 7**2
        for n in (2, 4, 6, 8, 10, 12):
            assert mazur_count_bound(n, 3).value == mazur_count_bound(2, 3).value

    def test_three_nine_equal(self):
        assert mazur_count_bound(9, 3).value == mazur_count_bound(3, 3).value

    def test_five_matches_general_bound(self):
        assert mazur_count_bound(5, 1).value == evertse_bound(5, 1)

    def test_corollary_consistency(self):
        pairs = {2: 3, 3: 4, 5: 5, 7: 7, 9: 4, 4: 3, 6: 3, 8: 3, 10: 3, 12: 3}
        for n, r in pairs.items():
            for t in range(6):
                assert mazur_count_bound(n, t).value == evertse_bound(r, t)

    def test_monotone_in_t(self):
        for n in (2, 3, 5, 7):
            values = [mazur_count_bound(n, t).value for t in range(6)]
            assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t", [1.5, 2.0, F(2), "2", None, True, False])
    def test_non_integer_t_is_a_type_error(self, t):
        with pytest.raises(TypeError, match="^t must be an integer$"):
            mazur_count_bound(5, t)
        with pytest.raises(TypeError, match="^t must be an integer$"):
            evertse_bound(5, t)

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            mazur_count_bound(11, 0)
        with pytest.raises(ValueError):
            mazur_count_bound(1, 0)


class TestPrimeFactorCount:
    def test_examples(self):
        assert prime_factor_count(64) == 1
        assert prime_factor_count(23944605696) == 3
        assert prime_factor_count(-64) == 1

    def test_incomplete_raises(self):
        with pytest.raises(IncompleteFactorizationError):
            prime_factor_count(1000003 * 1000033, trial_limit=1000)
        # past the interpreter's 4300-digit int-to-str limit
        with pytest.raises(IncompleteFactorizationError):
            prime_factor_count(7 * 1000003**800, trial_limit=1000)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prime_factor_count(0)

    def test_curve_discriminant(self):
        assert prime_factor_count(Curve(-1, 0).disc) == 1  # 64
