from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from torsionforms import (
    Curve,
    DegenerateParameterError,
    FAMILIES,
    IntPoly,
    PROVENANCE,
    SideConditionError,
    Witness,
    brute_force_witness_search,
    eval_AB,
    eval_FG,
    rational_roots,
    tate_AB,
)

EXPECTED_DEGREES = {5: (4, 6, 2, 3), 7: (8, 12, 4, 6), 8: (8, 12, 4, 6), 9: (12, 18, 6, 9)}
EXPECTED_KSETS = {
    5: (F(1),),
    7: (F(1), F(1, 3)),
    8: (F(1), F(1, 2)),
    9: (F(1), F(1, 3)),
}
EXPECTED_SIGMA = {5: -1, 7: 1, 8: 1, 9: 1}
# alpha -> -1/alpha, 1 - 1/alpha, 1 - alpha, 1 - 1/alpha, and their orders
EXPECTED_SYMMETRY = {5: ((0, -1, 1, 0), 2), 7: ((1, -1, 1, 0), 3),
                     8: ((-1, 1, 0, 1), 2), 9: ((1, -1, 1, 0), 3)}


class TestFamilyTables:
    def test_degree_table(self):
        for n, fam in FAMILIES.items():
            assert fam.degrees == EXPECTED_DEGREES[n]
            assert fam.U.degree == fam.degrees[0]
            assert fam.V.degree == fam.degrees[1]
            for Xf in fam.point_x:
                assert Xf.degree == fam.degrees[2]
            for Yf in fam.point_y:
                assert Yf.degree == fam.degrees[3]

    def test_branch_sets(self):
        for n, fam in FAMILIES.items():
            assert fam.kset == EXPECTED_KSETS[n]

    def test_sigma_orientation_frozen(self):
        for n, fam in FAMILIES.items():
            assert fam.sigma == EXPECTED_SIGMA[n]

    def test_tate_coefficients_have_no_rational_roots(self):
        # hence no curve with A*B = 0 (j in {0, 1728}) has a point of order n,
        # and detect's matching polynomial has no root on such curves
        for fam in FAMILIES.values():
            assert rational_roots(fam.tate_A_num) == set()
            assert rational_roots(fam.tate_B_num) == set()

    def test_pipeline_pole_is_typed(self):
        # A_8 = tate_A_num / alpha**4 and tate_A_num(0) = -27 != 0, so A_8 has a
        # pole at alpha = 0, which tate_bc(8, 0) reports; the other families
        # have none and their A_n, B_n at 0 are the numerators' constant terms
        for n, fam in FAMILIES.items():
            assert (fam.tate_A_num(0), fam.tate_B_num(0)) == (-27, 54)
            if n == 8:
                with pytest.raises(DegenerateParameterError, match=r"^n=8 needs alpha != 0"):
                    tate_AB(8, 0)
            else:
                assert tate_AB(n, 0) == (-27, 54)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(-10**6, 10**6), q=st.integers(1, 10**6))
    def test_forms_match_the_pipeline(self, form_identity, p, q):
        # (p, q) need not be coprime: both sides are homogeneous of degree deg U
        for n in FAMILIES:
            if n == 8 and p == 0:
                continue
            form_identity(n, p, q)

    def test_form_anchor_values(self):
        assert FAMILIES[5].U(1, 1) == 16
        assert FAMILIES[5].V(1, 1) == 152
        assert FAMILIES[7].U(2, 1) == 129
        assert FAMILIES[7].V(2, 1) == 2241
        assert FAMILIES[8].U(3, 1) == 51361
        assert FAMILIES[8].V(3, 1) == -6826609
        assert FAMILIES[9].U(2, 1) == 657
        assert FAMILIES[9].V(2, 1) == 22329

    def test_b8_alpha10_term_is_zero(self):
        assert FAMILIES[8].tate_B_num.coeffs[10] == 0

    def test_provenance_notes_present(self):
        for key in (
            "main-disc-formula", "A8-p5q3", "B8-alpha10", "B8-v-bracket",
            "n8-z-system", "n9-point-y3", "disc-table-normalization",
        ):
            assert key in PROVENANCE and PROVENANCE[key]


def _j_parts(fam) -> tuple[IntPoly, IntPoly]:
    """(P, Q) with j(alpha) = 6912 P(alpha) / Q(alpha) on the Tate curve; the
    alpha-power denominators of A_8 and B_8 give A^3 and B^2 the same alpha^12
    and cancel."""
    P = fam.tate_A_num**3
    return P, 4 * P + 27 * fam.tate_B_num**2


def _compose(f: IntPoly, symmetry, N: int) -> IntPoly:
    """(c x + d)**N f((a x + b)/(c x + d)), for N >= deg f."""
    a, b, c, d = symmetry
    num, den = IntPoly((b, a)), IntPoly((d, c))
    out = IntPoly(())
    for i, coeff in enumerate(f.coeffs):
        out = out + coeff * num**i * den ** (N - i)
    return out


class TestRootSymmetry:
    """Each family's ``symmetry`` phi keeps j, so it permutes the roots of
    detect's matching polynomial, which depends on the curve only through j."""

    def test_maps(self):
        for n, fam in FAMILIES.items():
            assert fam.symmetry == EXPECTED_SYMMETRY[n][0]

    def test_j_is_invariant_as_a_polynomial_identity(self):
        # j(phi(x)) = j(x) is P(phi) Q = P Q(phi); times (c x + d)**N, with N
        # the larger degree, both sides are integer polynomials
        for n, fam in FAMILIES.items():
            P, Q = _j_parts(fam)
            N = max(P.degree, Q.degree)
            lhs = _compose(P, fam.symmetry, N) * Q
            rhs = P * _compose(Q, fam.symmetry, N)
            assert not lhs.is_zero()
            assert lhs == rhs, n
            # and the identity is not empty: phi moves alpha
            assert _compose(IntPoly((0, 1)), fam.symmetry, 1) != IntPoly((0, 1))

    def test_finite_order(self):
        # phi**k is the identity exactly when its matrix is a scalar
        def mul(m1, m2):
            a, b, c, d = m1
            e, f, g, h = m2
            return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

        for n, fam in FAMILIES.items():
            power, order = fam.symmetry, EXPECTED_SYMMETRY[n][1]
            for k in range(1, order):
                a, b, c, d = power
                assert not (b == c == 0 and a == d), (n, k)
                power = mul(power, fam.symmetry)
            a, b, c, d = power
            assert b == c == 0 and a == d != 0, n


class TestEvalAB:
    def test_order5_anchor(self):
        assert eval_AB(Witness(5, 1, 1, F(1))) == (-432, 8208)

    def test_order5_sign_pattern(self):
        # odd-degree terms cancel pairwise at |p| = |q| = 1 on both brackets
        assert eval_AB(Witness(5, 1, -1, F(1))) == (-432, 8208)
        assert eval_AB(Witness(5, 2, -1, F(1))) != eval_AB(Witness(5, 2, 1, F(1)))

    def test_branch_homogeneity_order7(self):
        A1, B1 = eval_AB(Witness(7, 2, 1, F(1)))
        A3, B3 = eval_AB(Witness(7, 2, 1, F(1, 3)))
        assert A1 == 81 * A3
        assert B1 == 729 * B3

    def test_branch_necessity_curves_from_witnesses(self):
        assert eval_AB(Witness(7, 2, 1, F(1, 3))) == (-43, 166)
        assert eval_AB(Witness(8, 6, 2, F(1, 2))) == (-22187952, 23592760704)
        assert eval_AB(Witness(9, 2, 1, F(1, 3))) == (-219, 1654)


class TestEvalFG:
    def test_scaling_of_anchor(self):
        assert eval_FG(Witness(5, 1, 1, F(1))) == (-432 * 1296, 8208 * 46656)

    def test_branch_constants(self):
        # (6k)^4 for k = 1/3 is 16, for k = 1/2 is 81
        fam7, fam8, fam9 = FAMILIES[7], FAMILIES[8], FAMILIES[9]
        assert eval_FG(Witness(7, 3, 1, F(1, 3)))[0] == -27 * 16 * fam7.U(3, 1)
        assert eval_FG(Witness(8, 3, 1, F(1, 2))) == (-27 * 81 * fam8.U(3, 1),
                                                      -54 * 729 * fam8.V(3, 1))
        assert eval_FG(Witness(9, 3, 1, F(1, 3)))[1] == 54 * 64 * fam9.V(3, 1)

    def test_always_integral(self):
        # S = 6k is an integer on every branch, so eval_FG's S^4 F and S^6 G
        # are integer forms
        for fam in FAMILIES.values():
            for k in fam.kset:
                assert (6 * k).denominator == 1

    def test_invalid_branch_rejected(self):
        with pytest.raises(ValueError, match=r"^k = 1/5 is not a valid branch for n = 7$"):
            brute_force_witness_search(Curve(1, 1), 7, 1, ks=(F(1, 5),))

    @pytest.mark.parametrize("matching", [False, True])
    def test_branch_outside_the_set_is_rejected(self, matching):
        # 6k = 12 is an integer, but k = 2 is no n = 7 branch: the search
        # rejects it before scanning, on a curve that nothing matches and on
        # the S = 12 model of (p, q) = (2, 1), which the scan would match
        fam = FAMILIES[7]
        c = Curve(16 * fam.F(2, 1), 64 * fam.G(2, 1)) if matching else Curve(1, 1)
        with pytest.raises(SideConditionError,
                           match=r"^k = 2 is not in the n = 7 branch set \("):
            brute_force_witness_search(c, 7, 2, ks=(2,))

    def test_order_without_family_rejected(self):
        with pytest.raises(ValueError, match="no family for order n = 6"):
            brute_force_witness_search(Curve(1, 1), 6, 1)

    @pytest.mark.parametrize("n, k", [(n, k) for n in FAMILIES for k in FAMILIES[n].kset])
    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(p=st.integers(-10**6, 10**6), q=st.integers(-10**6, 10**6))
    def test_matches_the_scaled_forms(self, n, k, p, q):
        fam = FAMILIES[n]
        assume(fam.side_conditions_ok(p, q))
        S, sign = 6 * k, -1 if n == 8 else 1
        assert eval_FG(Witness(n, p, q, k)) == (
            -27 * S**4 * fam.U(p, q), sign * 54 * S**6 * fam.V(p, q))


class TestSideConditions:
    def test_zero_rejected_where_required(self):
        for n in (5, 7, 9):
            with pytest.raises(SideConditionError):
                Witness(n, 0, 1, F(1))
            with pytest.raises(SideConditionError):
                Witness(n, 1, 0, F(1))

    def test_p_equal_q_rejected(self):
        for n in (7, 8, 9):
            with pytest.raises(SideConditionError):
                Witness(n, 3, 3, F(1))

    def test_two_p_equal_q_rejected_for_order8(self):
        with pytest.raises(SideConditionError):
            Witness(8, 1, 2, F(1))
        Witness(7, 1, 2, F(1))  # fine for the other orders

    def test_k_outside_branch_set(self):
        with pytest.raises(SideConditionError):
            Witness(7, 2, 1, F(1, 2))
