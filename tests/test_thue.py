import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from torsionforms import (
    Curve,
    CurveRecord,
    DegenerateParameterError,
    FAMILIES,
    FAMILY_ORDERS,
    FamilyDataError,
    Point,
    SideConditionError,
    SingularCurveError,
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
    torsion_points,
    torsion_structure,
    twist_scale,
)
from torsionforms import curves, families, thue
from torsionforms.exact import rational_nth_root, rational_roots, rational_square_root

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

    def test_root_cache_is_bounded_and_shared_by_twists(self):
        maxsize = thue._matching_roots.cache_info().maxsize
        assert maxsize is not None and maxsize == torsion_points.cache_info().maxsize
        thue._matching_roots.cache_clear()
        c = Curve(-43, 166)
        assert detect(c, 7) is not None
        assert detect(twist_scale(c, 5), 7) is not None
        info = thue._matching_roots.cache_info()
        assert (info.misses, info.hits) == (1, 1)

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

    def test_cache_hit_evaluates_no_tate_value(self, monkeypatch):
        thue._matching_roots.cache_clear()
        c = Curve(-43, 166)
        alpha = detect(c, 7).alpha

        def forbidden(*args):
            raise AssertionError("a root-cache hit evaluated Tate values or fg_forms")

        monkeypatch.setattr(families.ThueFamily, "tate_value", forbidden)
        monkeypatch.setattr(families, "fg_forms", forbidden)
        monkeypatch.setattr(thue, "fg_forms", forbidden)
        traces = {u: detect(twist_scale(c, u), 7) for u in (2, 3, 7)}
        assert all(trace.alpha == alpha for trace in traces.values())
        for u in (2, 7):
            assert traces[u].discrepancy.startswith("no integral solution of the plain system")
            assert traces[u].scale == u
        w = traces[3].witness
        assert (w.n, w.p, w.q, w.k) == (7, 2, 1, 1)
        assert traces[3].discrepancy is None

    def test_residual_scale_flagged_on_quartic_twist(self):
        # the 2-twist keeps the order-7 point but the plain integral system
        # loses solvability; the trace carries the residual scale
        c2 = twist_scale(Curve(-43, 166), 2)
        trace = detect(c2, 7)
        assert trace is not None
        assert trace.discrepancy is not None
        assert trace.scale == 2
        assert has_point_of_order(c2, 7)


class TestPositivePath:
    """detect's answer on planted curves and their twists, checked exactly."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(n=st.sampled_from(FAMILY_ORDERS), p=st.integers(-6, 6), q=st.integers(-6, 6),
           branch=st.integers(0, 1), u=st.integers(2, 13))
    def test_twisted_planted_curves(self, n, p, q, branch, u):
        fam = FAMILIES[n]
        try:
            w = Witness(n, p, q, fam.kset[branch % len(fam.kset)])
            if disc_AB(*eval_AB(w)) == 0:
                reject()
        except SideConditionError:
            reject()
        c = twist_scale(_integral_curve(w), u)
        trace = detect(c, n)
        assert trace is not None
        # the matching system, evaluated here in Fraction
        a = trace.alpha
        An = F(fam.tate_A_num(a)) / a**fam.tate_A_denpow
        Bn = F(fam.tate_B_num(a)) / a**fam.tate_B_denpow
        assert (trace.u**4 * c.A, trace.u**6 * c.B) == (An, Bn)
        if trace.witness is not None:
            thue._validate_trace(c, trace.witness, trace.scale)

    def test_corrupted_point_table_rejected(self, monkeypatch):
        fam = FAMILIES[7]
        Y = fam.point_y
        monkeypatch.setitem(FAMILIES, 7, dataclasses.replace(fam, point_y=(2 * Y[0],) + Y[1:]))
        with pytest.raises(FamilyDataError, match="is off the n = 7 curve"):
            detect(Curve(-43, 166), 7)

    def test_points_off_the_six_twist_rejected(self, monkeypatch):
        # points moved onto the 2-twist of the witness's 6-twist are exact
        # order-7 points of another curve: only the map onto c's 6-twist
        # in _validate_trace can reject them
        real = thue._six_twist_points

        def on_the_two_twist(w):
            F_val, G_val, points = real(w)
            assert all(64 * y * y == (4 * x) ** 3 + 16 * F_val * 4 * x + 64 * G_val
                       for x, y in points)
            return F_val, G_val, [(4 * x, 8 * y) for x, y in points]

        monkeypatch.setattr(thue, "_six_twist_points", on_the_two_twist)
        with pytest.raises(FamilyDataError):
            detect(Curve(-43, 166), 7)

    def test_wrong_order_points_rejected(self, monkeypatch):
        # the n = 5 tables under the label 7: every point is on the curve,
        # but of order 5
        monkeypatch.setitem(FAMILIES, 7, dataclasses.replace(FAMILIES[5], n=7))
        with pytest.raises(FamilyDataError, match="has order 5, expected 7"):
            order_n_points(Witness(7, 2, 1, F(1)))

    def test_no_rational_group_law(self, monkeypatch):
        cases = []
        for n, p, q, k in [(5, 2, 1, F(1)), (7, 2, 1, F(1, 3)), (7, 3, 1, F(1)),
                           (8, 2, 1, F(1, 2)), (8, 3, 1, F(1)), (9, 2, 1, F(1)),
                           (9, 3, 2, F(1, 3))]:
            c = _integral_curve(Witness(n, p, q, k))
            cases += [(twist_scale(c, u), n) for u in (1, 2, 3, 7)]

        def forbidden(*args):
            raise AssertionError("detect used the rational group law")

        for module, name in [(curves, "on_curve"), (curves, "_add_unchecked"),
                             (curves, "twist_point")]:
            monkeypatch.setattr(module, name, forbidden)
        for c, n in cases:
            assert detect(c, n) is not None, (c, n)


def fraction_order_n_points(w: Witness) -> list:
    """Reference: the printed points built and checked on the witness curve
    in Fraction, then their orders on an integral twist of it."""
    fam = w.family
    A, B = eval_AB(w)
    if disc_AB(A, B) == 0:
        raise DegenerateParameterError("singular")
    points = []
    for Xf, Yf in zip(fam.point_x, fam.point_y):
        x = 3 * w.k**2 * Xf(w.p, w.q)
        y = 108 * w.k**3 * Yf(w.p, w.q)
        for P in (Point(x, y), Point(x, -y)):
            if P.y * P.y != P.x**3 + A * P.x + B:
                raise FamilyDataError("off the curve")
            points.append(P)
    den = math.lcm(A.denominator, B.denominator)
    c = Curve(int(A * den**4), int(B * den**6))
    for P in points:
        if point_order(c, twist_point(P, den)) != w.n:
            raise FamilyDataError("wrong order")
    return points


BRANCHES = [(n, k) for n in FAMILY_ORDERS for k in FAMILIES[n].kset]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(branch=st.sampled_from(BRANCHES), p=st.integers(-8, 8), q=st.integers(-8, 8))
def test_order_n_points_matches_fraction_reference(branch, p, q):
    n, k = branch
    try:
        w = Witness(n, p, q, k)
    except SideConditionError:
        reject()
    try:
        expected = fraction_order_n_points(w)
    except DegenerateParameterError:
        with pytest.raises(DegenerateParameterError):
            order_n_points(w)
        return
    assert order_n_points(w) == expected


def fraction_generate_line(w: Witness) -> str:
    """Reference: the record built in Fraction on the witness curve,
    A = -27 k^4 U and B = +-54 k^6 V (``eval_AB`` must give the same), its
    points moved onto the 6-twist by the rational twist map when (A, B) is
    not integral."""
    fam = w.family
    A = -27 * w.k**4 * fam.U(w.p, w.q)
    B = fam.b_sign * 54 * w.k**6 * fam.V(w.p, w.q)
    assert eval_AB(w) == (A, B)
    points = order_n_points(w)
    if A.denominator == 1 and B.denominator == 1:
        curve, form = Curve(int(A), int(B)), "ab"
    else:
        curve, form = Curve(int(1296 * A), int(46656 * B)), "fg6"
        points = [twist_point(P, 6) for P in points]
    return CurveRecord(
        n=w.n, p=w.p, q=w.q, k=w.k, curve=curve, delta=curve.disc,
        points=tuple(points), group_label=torsion_structure(curve).group_label,
        provenance="generated", form=form,
    ).to_json_line()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(branch=st.sampled_from(BRANCHES), p=st.integers(-8, 8), q=st.integers(-8, 8))
def test_generate_curve_matches_fraction_reference(branch, p, q):
    n, k = branch
    try:
        w = Witness(n, p, q, k)
    except SideConditionError:
        reject()
    try:
        expected = fraction_generate_line(w)
    except DegenerateParameterError:
        with pytest.raises(DegenerateParameterError):
            generate_curve(w)
        return
    assert generate_curve(w).to_json_line() == expected


def fraction_witness_from_alpha_u(n: int, alpha: F, u: F):
    """Reference: the witness conversion of ``thue._witness_from_alpha_u``,
    in Fraction."""
    fam = FAMILIES[n]
    p0 = fam.sigma * alpha.numerator
    q0 = alpha.denominator
    j = fam.scale_power
    if n == 8:
        k_raw = abs(F(1) / (u * alpha.numerator * alpha.denominator))
    else:
        k_raw = abs(F(1) / (u * q0**j))
    for k in fam.kset:
        s = rational_nth_root(k_raw / k, j)
        if s is not None and s.denominator == 1 and s >= 1:
            si = int(s)
            return Witness(n, si * p0, si * q0, k), 1, k.denominator, None
    m, b = k_raw.numerator, k_raw.denominator
    if F(1, b) in fam.kset:
        note = (
            f"no integral solution of the plain system; residual scale {m} "
            f"on the k = 1/{b} branch"
        )
        return Witness(n, p0, q0, F(1, b)), m, b, note
    return None, m, b, f"branch factor {k_raw} has denominator outside the branch set"


def fraction_detect(c: Curve, n: int):
    """Reference: ``detect`` with the Tate values, u and the witness in
    Fraction, on an uncached root search."""
    fam = FAMILIES[n]
    a, b = c.j_invariant.numerator, c.j_invariant.denominator
    M = 4 * (1728 * b - a) * fam.tate_A_num**3 - 27 * a * fam.tate_B_num**2
    best = None
    for alpha in sorted(rational_roots(M),
                        key=lambda r: (r <= 0, r.denominator, abs(r.numerator))):
        if fam.tate_A_denpow and alpha == 0:
            continue
        An, Bn = fam.tate_value(alpha)
        if An == 0 or Bn == 0:
            continue
        u = rational_square_root(F(c.A) * Bn / (F(c.B) * An))
        if u is None or u == 0:
            continue
        assert u**4 * c.A == An and u**6 * c.B == Bn
        witness, scale, u2, note = fraction_witness_from_alpha_u(n, alpha, u)
        if witness is not None:
            thue._validate_trace(c, witness, scale)
        trace = thue.DetectionTrace(
            alpha=alpha, u=u, u2=u2, witness=witness, scale=scale, discrepancy=note
        )
        if note is None:
            return trace
        if best is None:
            best = trace
    return best


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(branch=st.sampled_from(BRANCHES), p=st.integers(-8, 8), q=st.integers(-8, 8),
       a=st.integers(1, 12), data=st.data())
def test_detect_matches_fraction_reference(branch, p, q, a, data):
    """detect's integer positive path against the Fraction reference, on
    planted curves twisted by a/b wherever the twist is integral (which
    includes scales that the witness cannot absorb)."""
    n, k = branch
    try:
        w = Witness(n, p, q, k)
    except SideConditionError:
        reject()
    if disc_AB(*eval_AB(w)) == 0:
        reject()
    c = _integral_curve(w)
    dens = [b for b in range(1, 13) if (c.A * a**4) % b**4 == 0 and (c.B * a**6) % b**6 == 0]
    c = twist_scale(c, F(a, data.draw(st.sampled_from(dens), label="b")))
    expected = fraction_detect(c, n)
    assert expected is not None
    assert detect(c, n) == expected


class TestBruteForce:
    def test_order_without_family_rejected(self):
        with pytest.raises(ValueError, match="no family for order n = 6"):
            brute_force_witness_search(Curve(-43, 166), 6, 3)

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

    SETTINGS = dict(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

    @staticmethod
    def assert_agree(c: Curve):
        for n in FAMILY_ORDERS:
            assert (detect(c, n) is not None) == has_point_of_order(c, n), (c, n)

    @settings(max_examples=100, **SETTINGS)
    @given(digits=st.tuples(st.integers(5, 200), st.integers(5, 200)), data=st.data())
    def test_random_curves(self, digits, data):
        A, B = (data.draw(st.integers(10 ** (d - 1), 10**d - 1)) * data.draw(st.sampled_from((-1, 1)))
                for d in digits)
        try:
            c = Curve(A, B)
        except SingularCurveError:
            reject()
        self.assert_agree(c)

    @settings(max_examples=100, **SETTINGS)
    @given(n=st.sampled_from(FAMILY_ORDERS), p=st.integers(-6, 6), q=st.integers(-6, 6),
           branch=st.integers(0, 2), u=st.integers(1, 10**40))
    def test_twists_of_generated_curves(self, n, p, q, branch, u):
        kset = FAMILIES[n].kset
        try:
            rec = generate_curve(Witness(n, p, q, kset[branch % len(kset)]))
        except (SideConditionError, DegenerateParameterError):
            reject()
        c = twist_scale(rec.curve, u)
        assert has_point_of_order(c, n)
        self.assert_agree(c)
