import random
from fractions import Fraction as F

import pytest

from torsionforms import (
    Curve,
    DegenerateParameterError,
    FAMILIES,
    SideConditionError,
    Witness,
    brute_force_witness_search,
    detect,
    disc_AB,
    eval_AB,
    eval_FG,
    generate_curve,
    has_point_of_order,
    order_n_points,
    param_cross_check,
    point_order,
    scalar_mul,
    twist_point,
    twist_scale,
)

BRANCH_NECESSITY_CURVES = [
    (-43, 166, 7, F(1, 3)),
    (-22187952, 23592760704, 8, F(1, 2)),
    (-219, 1654, 9, F(1, 3)),
]


def _integral_curve(w: Witness) -> Curve:
    A, B = eval_AB(w)
    if A.denominator == 1 and B.denominator == 1:
        return Curve(int(A), int(B))
    return Curve(*eval_FG(w))


class TestOrderNPoints:
    def test_order5_anchor_point(self):
        pts = order_n_points(Witness(5, 1, 1, F(1)))
        assert any(P.x == -12 and P.y == 108 for P in pts)
        # on-curve identity at the anchor: (-12)^3 - 432*(-12) + 8208 = 108^2
        assert (-12) ** 3 - 432 * (-12) + 8208 == 108**2

    def test_order5_points_form_cyclic_orbit(self):
        w = Witness(5, 1, 1, F(1))
        c = Curve(-432, 8208)
        pts = order_n_points(w)
        P = pts[0]
        orbit = {scalar_mul(c, m, P) for m in (1, 2, 3, 4)}
        assert orbit == set(pts)

    def test_order9_x_coordinates_match_scalar_multiples(self):
        w = Witness(9, 2, 1, F(1))
        A, B = eval_AB(w)
        c = Curve(int(A), int(B))
        pts = order_n_points(w)
        assert {P.x for P in pts} == {315, 99, -117}
        P = pts[0]
        assert {scalar_mul(c, m, P).x for m in (1, 2, 4)} == {315, 99, -117}

    def test_order7_points_on_minus43_curve(self):
        pts = order_n_points(Witness(7, 2, 1, F(1, 3)))
        assert {(P.x, P.y) for P in pts} == {
            (3, 8), (3, -8), (-5, 16), (-5, -16), (11, 32), (11, -32)
        }

    def test_exact_orders(self):
        for n, p, q, k in [(5, 2, 1, F(1)), (7, 3, 1, F(1, 3)), (8, 3, 1, F(1, 2)),
                           (9, 3, 2, F(1)), (8, 2, 1, F(1))]:
            w = Witness(n, p, q, k)
            c = _integral_curve(w)
            scale = 1 if c.A == eval_AB(w)[0] else 6
            for P in order_n_points(w):
                assert point_order(c, twist_point(P, scale)) == n

    def test_degenerate_witness_rejected(self):
        with pytest.raises(DegenerateParameterError):
            order_n_points(Witness(8, 1, 0, F(1)))  # singular at q = 0


class TestGenerateCurve:
    def test_order5_record(self):
        rec = generate_curve(Witness(5, 1, 1, F(1)))
        assert (rec.curve.A, rec.curve.B) == (-432, 8208)
        assert rec.group_label == "Z/5Z"
        assert rec.form == "ab"
        assert any(P.x == -12 for P in rec.points)
        rec.validate()

    def test_order9_record(self):
        rec = generate_curve(Witness(9, 2, 1, F(1)))
        assert rec.group_label == "Z/9Z"

    def test_order7_integer_branch_record(self):
        rec = generate_curve(Witness(7, 2, 1, F(1)))
        assert rec.group_label == "Z/7Z"
        assert (rec.curve.A, rec.curve.B) == (81 * -43, 729 * 166)

    def test_side_condition_violation(self):
        with pytest.raises(SideConditionError):
            Witness(8, 1, 1, F(1))

    def test_non_integral_model_uses_six_twist(self):
        rec = generate_curve(Witness(8, 2, 1, F(1, 2)))
        assert rec.form == "fg6"
        assert rec.group_label == "Z/8Z"
        rec.validate()

    def test_round_trip_serialization(self):
        from torsionforms.records import CurveRecord

        rec = generate_curve(Witness(7, 2, 1, F(1, 3)))
        again = CurveRecord.from_json_line(rec.to_json_line())
        assert again == rec


class TestDetect:
    def test_branch_necessity_curves(self):
        for A, B, n, k in BRANCH_NECESSITY_CURVES:
            trace = detect(Curve(A, B), n)
            assert trace is not None
            assert trace.witness is not None
            assert trace.witness.k == k
            assert trace.discrepancy is None
            assert trace.u2 == k.denominator
            F_val, G_val = eval_FG(trace.witness)
            assert trace.scale**4 * F_val == 1296 * A
            assert trace.scale**6 * G_val == 46656 * B

    def test_absence(self):
        assert detect(Curve(-43, 166), 5) is None
        assert detect(Curve(-43, 166), 8) is None
        assert detect(Curve(-43, 166), 9) is None

    def test_zero_coefficient_curves(self):
        for A, B in [(1, 0), (0, 1), (-1, 0), (0, -16),
                     (0, 73550963175629734993),
                     (4378218794305214720347189631209843791573, 0)]:
            c = Curve(A, B)
            for n in (5, 7, 8, 9):
                assert detect(c, n) is None

    def test_order5_round_trip(self):
        trace = detect(Curve(-432, 8208), 5)
        assert trace is not None and trace.witness is not None
        assert trace.witness.k == 1
        F_val, G_val = eval_FG(trace.witness)
        assert F_val == 1296 * -432 and G_val == 46656 * 8208
        # the 6-scaled system is equivalently solved by the (6p, 6q) rescaling
        w6 = Witness(5, 6 * trace.witness.p, 6 * trace.witness.q, F(1))
        A6, B6 = eval_AB(w6)
        assert (A6, B6) == (1296 * -432, 46656 * 8208)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            detect(Curve(-432, 8208), 6)

    def test_generated_grid_round_trip(self):
        for n, fam in FAMILIES.items():
            for (p, q) in [(2, 1), (1, 2), (-3, 1), (3, 2)]:
                if not fam.side_conditions_ok(p, q):
                    continue
                for k in fam.kset:
                    w = Witness(n, p, q, k)
                    A, B = eval_AB(w)
                    if disc_AB(A, B) == 0:
                        continue
                    c = _integral_curve(w)
                    trace = detect(c, n)
                    assert trace is not None, (n, p, q, k)

    def test_twist_soundness(self):
        for A, B in [(-432, 8208), (-43, 166), (-219, 1654), (1, 0)]:
            c = Curve(A, B)
            base = {n: detect(c, n) is not None for n in (5, 7, 8, 9)}
            for u in (1, 2, 3, 6):
                cu = twist_scale(c, u)
                for n in (5, 7, 8, 9):
                    assert (detect(cu, n) is not None) == base[n]

    def test_residual_scale_flagged_on_quartic_twist(self):
        # the 2-twist keeps the order-7 point but the plain integral system
        # loses solvability; the trace carries the residual scale
        c2 = twist_scale(Curve(-43, 166), 2)
        trace = detect(c2, 7)
        assert trace is not None
        assert trace.discrepancy is not None
        assert trace.scale == 2
        assert has_point_of_order(c2, 7)


class TestBruteForce:
    def test_order5_anchor(self):
        hits = brute_force_witness_search(Curve(-432, 8208), 5, 10)
        assert hits
        assert any(w.p == w.q for w in hits)  # diagonal-ray witnesses

    def test_bound_one_scans_units_only(self):
        hits = brute_force_witness_search(Curve(-432, 8208), 5, 1)
        assert {(w.p, w.q) for w in hits} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_wrong_order_no_hits(self):
        assert brute_force_witness_search(Curve(-43, 166), 5, 20) == []

    def test_k_restriction(self):
        c = Curve(-43, 166)
        assert brute_force_witness_search(c, 7, 10, ks=(F(1),)) == []
        hits = brute_force_witness_search(c, 7, 10, ks=(F(1, 3),))
        assert Witness(7, 2, 1, F(1, 3)) in hits

    def test_agreement_with_detect(self):
        for n, p, q, k in [(5, 2, 1, F(1)), (7, 2, 1, F(1, 3)), (9, 1, 2, F(1))]:
            c = _integral_curve(Witness(n, p, q, k))
            assert (detect(c, n) is not None) == bool(
                brute_force_witness_search(c, n, 12)
            )


class TestParamCrossCheck:
    def test_order5_at_origin(self):
        rec = param_cross_check(5, 1, 0)
        assert rec["x1"] == 3 and rec["x2"] == 3 and rec["x3"] == 9
        assert (2 * 3 + 3) * (3 + 2 * 3) == 81  # the asserted constraint value

    def test_order7_x4_value(self):
        rec = param_cross_check(7, 1, 1)
        assert rec["x4"] == -9

    def test_order9_reconstruction(self):
        rec = param_cross_check(9, 1, 2)
        assert rec["A_rec"] == -17739
        assert rec["B_rec"] == 1205766

    def test_order8_printed_constraint_fails_as_transcribed(self):
        rec = param_cross_check(8, 1, 2)
        assert rec["printed_z_constraint_residual"] != 0

    def test_random_parameters(self):
        rng = random.Random(77)
        for n in (5, 7, 8, 9):
            done = 0
            while done < 25:
                u = F(rng.randint(1, 12), rng.randint(1, 12))
                alpha = F(rng.randint(-12, 12), rng.randint(1, 12))
                if n == 8 and alpha == 0:
                    continue
                rec = param_cross_check(n, u, alpha)
                assert rec["A_rec"] == rec["expected_A"]
                assert rec["B_rec"] == rec["expected_B"]
                done += 1

    def test_zero_u_rejected(self):
        with pytest.raises(DegenerateParameterError):
            param_cross_check(5, 0, 1)


class TestOracleDetectBruteForceAgreement:
    def test_small_corpus(self):
        corpus = []
        for n, fam in FAMILIES.items():
            for p, q in [(1, 2), (2, 1), (-1, 2)]:
                if not fam.side_conditions_ok(p, q):
                    continue
                w = Witness(n, p, q, F(1))
                if disc_AB(*eval_AB(w)) == 0:
                    continue
                corpus.append(_integral_curve(w))
        corpus += [Curve(1, 0), Curve(0, 1), Curve(-43, 166)]
        for c in corpus:
            for n in (5, 7, 8, 9):
                assert (detect(c, n) is not None) == has_point_of_order(c, n)
