import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from torsionforms import (
    DegenerateParameterError,
    FAMILIES,
    HomForm,
    IntPoly,
    LongWeierstrass,
    TATE_ORDERS,
    has_point_of_order,
    interpolated_pipeline_poly,
    long_to_short,
    tate_AB,
    tate_bc,
    tate_short_curve,
)
from torsionforms import tate
from torsionforms.exact import rational_roots


class TestTateBC:
    def test_case_values(self):
        assert tate_bc(4, 3) == (3, 0)
        assert tate_bc(5, 1) == (1, 1)
        assert tate_bc(6, 2) == (6, 2)
        assert tate_bc(7, 2) == (4, 2)
        assert tate_bc(8, 2) == (3, F(3, 2))
        assert tate_bc(9, 2) == (2 * 2 * 1 * 3, 4)  # b = c(a(a-1)+1), c = a^2(a-1)
        b10, c10 = tate_bc(10, 2)
        assert c10 == 6 and b10 == 24
        b12, c12 = tate_bc(12, 2)
        assert c12 == 7 * (-6) and b12 == c12 * (-5)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameterError):
            tate_bc(8, 0)
        with pytest.raises(DegenerateParameterError):
            tate_bc(12, 1)
        with pytest.raises(ValueError):
            tate_bc(3, 1)

    def test_n10_denominator_has_no_rational_zero(self):
        # tate_bc(10, a) divides by a - (a - 1)^2 = -(a^2 - 3a + 1), whose
        # zeros (3 +- sqrt 5)/2 are irrational
        assert rational_roots(IntPoly((1, -3, 1))) == set()
        for a in (F(0), F(1), F(3, 2), F(-7, 3), F(13, 8)):
            assert a - (a - 1) ** 2 == -(a * a - 3 * a + 1)
            assert tate_bc(10, a) is not None


class TestLongToShort:
    def test_already_short_maps_to_six_twist(self):
        assert long_to_short(LongWeierstrass(0, 0, 0, 1, 0)) == (1296, 0)
        assert long_to_short(LongWeierstrass(0, 0, 0, -1, 2)) == (6**4 * -1, 6**6 * 2)

    def test_j_matches_conventional_reduction(self):
        # (-27c4, -54c6) versus (-c4/48, -c6/864): same j-invariant
        lw = LongWeierstrass(1 - 2, -1, -1, 0, 0)
        A, B = long_to_short(lw)
        A2, B2 = A / F(6**4), B / F(6**6)
        j1 = 6912 * A**3 / (4 * A**3 + 27 * B**2)
        j2 = 6912 * A2**3 / (4 * A2**3 + 27 * B2**2)
        assert j1 == j2


class TestTateAB:
    def test_constant_terms(self):
        assert tate_AB(5, 0) == (-27, 54)
        assert tate_AB(9, 0) == (-27, 54)

    def test_order5_matches_binary_form_anchor(self):
        assert tate_AB(5, 1) == (-432, 8208)

    def test_order_seven_at_one(self):
        # value exists even though the curve there is singular
        assert tate_AB(7, 1) == (-27, 54)
        assert FAMILIES[7].tate_value(1) == (-27, 54)

    def test_pipeline_matches_tables_pointwise(self):
        rng = random.Random(31)
        for n in (5, 7, 8, 9):
            fam = FAMILIES[n]
            done = 0
            while done < 50:
                alpha = F(rng.randint(-40, 40), rng.randint(1, 12))
                if n == 8 and alpha == 0:
                    continue
                assert tate_AB(n, alpha) == fam.tate_value(alpha)
                done += 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from((5, 7, 8, 9)), alpha=st.fractions())
    def test_pipeline_matches_tables_at_random_alpha(self, n, alpha):
        if n == 8 and alpha == 0:
            reject()
        assert tate_AB(n, alpha) == FAMILIES[n].tate_value(alpha)

    def test_pipeline_matches_tables_coefficientwise(self):
        for n in (5, 7, 8, 9):
            fam = FAMILIES[n]
            a_num, a_pow, b_num, b_pow = interpolated_pipeline_poly(n)
            assert a_num == fam.tate_A_num
            assert a_pow == fam.tate_A_denpow
            assert b_num == fam.tate_B_num
            assert b_pow == fam.tate_B_denpow

    @pytest.mark.parametrize("n", (5, 7, 8, 9))
    def test_pipeline_catches_a_wrong_form(self, n):
        # the numerators are derived from U and V, so the pipeline is what
        # checks the forms: one coefficient off must show
        fam = FAMILIES[n]
        a_num, _, b_num, _ = interpolated_pipeline_poly(n)
        for name in ("U", "V"):
            form = getattr(fam, name)
            coeffs = list(form.coeffs)
            coeffs[1] += 1
            wrong = dataclasses.replace(fam, **{name: HomForm(form.degree, coeffs)})
            assert (wrong.tate_A_num, wrong.tate_B_num) != (a_num, b_num), (n, name)
            assert (wrong.tate_A_num == a_num) == (name == "V")

    @pytest.mark.parametrize("n", (5, 7, 8, 9))
    def test_interpolation_samples_every_x_from_two(self, monkeypatch, n):
        # for these n, tate_bc divides only by alpha (n = 8), so tate_AB
        # raises only at alpha = 0 and no sample x >= 2 is skipped
        samples = []
        real = tate.tate_AB

        def recording(order, alpha):
            samples.append(alpha)
            return real(order, alpha)

        monkeypatch.setattr(tate, "tate_AB", recording)
        interpolated_pipeline_poly(n)
        assert samples == list(range(2, FAMILIES[n].tate_B_num.degree + 3))

    def test_b8_alpha10_coefficient_resolved_to_zero(self):
        _, _, b_num, _ = interpolated_pipeline_poly(8)
        assert b_num.coeffs[10] == 0


class TestTateShortCurve:
    def test_singular_parameters_rejected(self):
        for n, alpha in [(5, 0), (7, 1), (9, 1), (5, F(-1, 1))]:
            try:
                tate_short_curve(n, alpha)
            except DegenerateParameterError:
                continue
            # nonsingular values are fine too; only flag wrong successes
            A, B = tate_AB(n, alpha)
            assert 4 * A**3 + 27 * B**2 != 0

    def test_small_grid_has_advertised_torsion(self):
        for n in TATE_ORDERS:
            confirmed = 0
            for alpha in (2, 3):
                c, _u = tate_short_curve(n, alpha)
                assert has_point_of_order(c, n)
                confirmed += 1
            assert confirmed == 2

    def test_twist_relation(self):
        c, u = tate_short_curve(8, 2)
        A, B = tate_AB(8, 2)
        assert c.A == u**4 * A and c.B == u**6 * B
