import hashlib
import math
import random
from fractions import Fraction as F

import pytest
import sympy
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
    tate_AB,
    twist_point,
    torsion_points,
    torsion_structure,
    twist_scale,
)
from torsionforms import curves, exact, thue, torsion
from torsionforms.exact import (
    int_to_decimal,
    integer_nth_root,
    rational_nth_root,
    rational_roots,
    rational_square_root,
    rational_to_decimal,
)

BRANCH_NECESSITY_CURVES = [
    (-43, 166, 7, F(1, 3)),
    (-22187952, 23592760704, 8, F(1, 2)),
    (-219, 1654, 9, F(1, 3)),
]

BRANCHES = [(n, k) for n in FAMILY_ORDERS for k in FAMILIES[n].kset]


def _integral_curve(w: Witness) -> Curve:
    A, B = eval_AB(w)
    if A.denominator == 1 and B.denominator == 1:
        return Curve(int(A), int(B))
    return Curve(*eval_FG(w))


def validate_trace(c: Curve, w: Witness, scale: int) -> None:
    """Reference check of a trace: the witness's 6-twist, evaluated afresh,
    rescaled by ``scale`` is c's 6-twist, and its checked order-n points map
    onto it."""
    F_val, G_val, points = thue._six_twist_points(w)
    if scale**4 * F_val != 1296 * c.A or scale**6 * G_val != 46656 * c.B:
        raise FamilyDataError("witness failed the 6-scaled system validation")
    # (x, y) -> (scale**2 x, scale**3 y) maps the witness's 6-twist onto c's
    sx, sy = scale**2, scale**3
    A6, B6 = 1296 * c.A, 46656 * c.B
    for x, y in points:
        x, y = sx * x, sy * y
        if y * y != x**3 + A6 * x + B6:
            raise FamilyDataError("witness points do not map onto the curve's 6-twist")


@pytest.fixture
def cold_root_cache():
    """An empty root cache, emptied again afterwards so that nothing a test
    patched in stays cached."""
    thue._root_cache.cache_clear()
    yield
    thue._root_cache.cache_clear()


def _planted_witnesses(per_branch: int = 2) -> list:
    """The first ``per_branch`` nonsingular witnesses of every n and branch
    on a fixed list of (p, q)."""
    out = []
    for n in FAMILY_ORDERS:
        for k in FAMILIES[n].kset:
            found = []
            for p, q in [(2, 1), (3, 1), (-2, 1), (3, 2), (-3, 2), (5, 3), (-5, 2), (4, 3)]:
                try:
                    w = Witness(n, p, q, k)
                except SideConditionError:
                    continue
                if disc_AB(*eval_AB(w)) != 0:
                    found.append(w)
            out += found[:per_branch]
    return out


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

    def test_messages_past_the_int_str_limit(self):
        big = 10**5000
        with pytest.raises(DegenerateParameterError,
                           match=f"^witness \\(p, q\\) = \\({int_to_decimal(big)}, 0\\) generates"):
            order_n_points(Witness(8, big, 0, F(1)))
        with pytest.raises(SideConditionError, match=f"^\\(p, q\\) = \\({int_to_decimal(big)}, "):
            Witness(7, big, big, F(1))
        with pytest.raises(SideConditionError, match=f"^k = {int_to_decimal(big)} is not in"):
            Witness(5, 2, 1, F(big))


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

    @pytest.mark.parametrize("k", ["1/0", "-2/0", "0/0"])
    def test_zero_denominator_k_is_typed(self, k):
        with pytest.raises(SideConditionError, match=f"^k = {k} has a zero denominator$"):
            Witness(5, 2, 1, k)

    @pytest.mark.parametrize("p, q", [(2.5, 1), ("2", 1), (True, 1), (F(1, 2), 1),
                                      (2, 1.0), (2, None), (2, False)])
    def test_non_integer_coordinates_are_type_errors(self, p, q):
        with pytest.raises(TypeError, match="^witness coordinates p and q must be integers$"):
            Witness(5, p, q, 1)

    @pytest.mark.parametrize("k, shown, why", [
        ("abc", "abc", "is not a rational"),
        (None, "None", "is not a rational"),
        (float("nan"), "nan", "is not a rational"),
        (float("inf"), "inf", "is not a rational"),
        ("x" * 60, "x" * 40, "is not a rational"),
        ("1" * 60 + "/0", "1" * 40, "has a zero denominator"),
    ])
    def test_non_rational_k_is_typed(self, k, shown, why):
        with pytest.raises(SideConditionError, match=f"^k = {shown} {why}$"):
            Witness(5, 2, 1, k)

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

    def test_u2_is_read_off_the_witness(self):
        w = Witness(7, 2, 1, F(1, 3))
        assert thue.DetectionTrace(alpha=F(2), u=F(3), witness=w, scale=1).u2 == 3
        with pytest.raises(TypeError):
            thue.DetectionTrace(alpha=F(2), u=F(3), u2=1, witness=w, scale=1)

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
        maxsize = thue._root_cache.cache_info().maxsize
        assert maxsize is not None and maxsize == torsion_points.cache_info().maxsize
        thue._root_cache.cache_clear()
        c = Curve(-43, 166)
        assert detect(c, 7) is not None
        assert detect(twist_scale(c, 5), 7) is not None
        info = thue._root_cache.cache_info()
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
        thue._root_cache.cache_clear()
        c = Curve(-43, 166)

        def forbidden(*args):
            raise AssertionError("a root search or a root-cache hit evaluated Tate values")

        monkeypatch.setattr(thue, "tate_AB", forbidden)
        # a miss on the cold cache builds the rows, and the twists hit them
        alpha = detect(c, 7).alpha
        traces = {u: detect(twist_scale(c, u), 7) for u in (2, 3, 7)}
        assert thue._root_cache.cache_info()[:2] == (3, 1)  # (hits, misses)
        assert all(trace.alpha == alpha for trace in traces.values())
        for u in (2, 7):
            assert traces[u].discrepancy.startswith("no integral solution of the plain system")
            assert traces[u].scale == u
        w = traces[3].witness
        assert (w.n, w.p, w.q, w.k) == (7, 2, 1, 1)
        assert traces[3].discrepancy is None

    def test_positive_hit_evaluates_no_form_and_no_order(self, monkeypatch):
        c = Curve(-43, 166)
        detect(c, 7)

        def forbidden(*args):
            raise AssertionError("a positive root-cache hit evaluated a form or a point order")

        monkeypatch.setattr(exact.HomForm, "__call__", forbidden)
        monkeypatch.setattr(thue, "_integral_order", forbidden)
        monkeypatch.setattr(curves, "_integral_order", forbidden)
        for u in (1, 2, 3, 6, 7):
            assert detect(twist_scale(c, u), 7) is not None

    def test_residual_scale_past_the_int_str_limit(self):
        # the residual scale 2**14701 has 4426 digits
        trace = detect(twist_scale(Curve(-43, 166), 2**14701), 7)
        assert trace is not None and trace.scale == 2**14701
        assert trace.discrepancy == (
            f"no integral solution of the plain system; residual scale "
            f"{int_to_decimal(2**14701)} on the k = 1/3 branch"
        )
        # the note of a small scale is unchanged
        assert detect(Curve(-688, 10624), 7).discrepancy == (
            "no integral solution of the plain system; residual scale 2 on the k = 1/3 branch"
        )

    @pytest.mark.parametrize("w", _planted_witnesses(), ids=repr)
    def test_quadratic_twists_reach_both_skips(self, w):
        # the twist (d^2 A, d^3 B) keeps j, so it has the planted curve's
        # rows, and divides u^2 by d: a row's u^2 is <= 0 for d < 0 and is
        # not a square for d = 2, 3, 5; detect must pass over every row
        c = _integral_curve(w)
        for d in (-1, 2, -2, 3, -3, 5, -7):
            twist = Curve(d * d * c.A, d**3 * c.B)
            assert _rows(twist, w.n), (w, d)
            assert detect(twist, w.n) is None, (w, d)
            assert not has_point_of_order(twist, w.n), (w, d)

    def test_residual_scale_flagged_on_quartic_twist(self):
        # the 2-twist keeps the order-7 point but the plain integral system
        # loses solvability; the trace carries the residual scale
        c2 = twist_scale(Curve(-43, 166), 2)
        trace = detect(c2, 7)
        assert trace is not None
        assert trace.discrepancy is not None
        assert trace.scale == 2
        assert has_point_of_order(c2, 7)

    # sha256 of the answers below, recorded when detect still built a witness
    # for every row whose mu is rational: how many witnesses a hit builds
    # must not change an answer
    ANSWERS_DIGEST = "c9af43e2987331d9f3da9e617c9a06ff366499162b20b09722b1dbb6abb548bf"

    def test_answers_are_unchanged(self, cold_root_cache):
        # every planted witness with |p| <= 5, 1 <= q <= 5 on its 6-twist, two
        # u-twists and three quadratic twists of it, each asked all four
        # orders; every field goes in as a decimal string, so the digest does
        # not depend on the Python version
        digest, answers, positive = hashlib.sha256(), 0, 0
        for n in FAMILY_ORDERS:
            for k in FAMILIES[n].kset:
                for p in range(-5, 6):
                    for q in range(1, 6):
                        try:
                            c = Curve(*eval_FG(Witness(n, p, q, k)))
                        except (SideConditionError, SingularCurveError):
                            continue
                        twists = [twist_scale(c, 2), twist_scale(c, 5)]
                        twists += [Curve(d * d * c.A, d**3 * c.B) for d in (-1, 2, -3)]
                        for curve in [c] + twists:
                            for m in FAMILY_ORDERS:
                                fields = [curve.A, curve.B, m]
                                trace = detect(curve, m)
                                if trace is not None:
                                    w = trace.witness
                                    fields += [trace.alpha, trace.u, w.n, w.p, w.q, w.k,
                                               trace.scale, trace.discrepancy]
                                    positive += 1
                                answers += 1
                                digest.update((" ".join(map(str, fields)) + "\n").encode())
        assert (answers, positive) == (7584, 948)
        assert digest.hexdigest() == self.ANSWERS_DIGEST


def _valuation(x: int, ell: int) -> int:
    e = 0
    while x % ell == 0:
        x, e = x // ell, e + 1
    return e


def _coprime_local_solution(fam, ell: int, e: int) -> bool:
    """Whether some coprime (p, q) has ell**(4e) | 27 U(p, q) and
    ell**(6e) | 54 V(p, q), by a tree search over the residues mod ell**t of
    x = p/q (q a unit mod ell) and of x = q/(ell p) (p a unit)."""
    tU, tV = max(4 * e - _valuation(27, ell), 0), max(6 * e - _valuation(54, ell), 0)
    for chart in (lambda x: (x, 1), lambda x: (1, ell * x)):
        level = [0]
        for t in range(1, max(tU, tV) + 1):
            mU, mV = ell ** min(t, tU), ell ** min(t, tV)
            level = [x for r in level for x in range(r, ell**t, ell ** (t - 1))
                     if fam.U(*chart(x)) % mU == 0 and fam.V(*chart(x)) % mV == 0]
        if level:
            return True
    return False


class TestDetectProofs:
    """Why detect's root search needs no filter and its witness conversion
    always finds a branch; a table change that breaks one of these turns
    the suite red before it reaches detect."""

    def test_matching_polynomial_is_nonzero_at_zero(self):
        # the no-filter proof of thue._matching_roots' docstring
        for fam in FAMILIES.values():
            assert (fam.tate_A_num(0), fam.tate_B_num(0)) == (-27, 54)
        a, b = sympy.symbols("a b")
        M0 = 4 * (1728 * b - a) * (-27) ** 3 - 27 * a * 54**2
        assert sympy.expand(M0 + 136048896 * b) == 0

    def test_branch_denominators_by_resultant(self):
        # the b | 6 proof of thue._witness_from_mu's docstring: each prime of
        # 6 Res(U, V) bounds its power in b locally
        x = sympy.symbols("x")
        for n, fam in FAMILIES.items():
            U = sympy.Poly(fam.U.coeffs[::-1], x)
            V = sympy.Poly(fam.V.coeffs[::-1], x)
            # at full degree the resultant is that of the binary forms
            assert (U.degree(), V.degree()) == (fam.U.degree, fam.V.degree)
            res = abs(int(sympy.resultant(U, V)))
            assert res != 0
            primes = set(sympy.factorint(res)) | {2, 3}
            dens = {1}
            for ell in primes:
                e = 0
                while _coprime_local_solution(fam, ell, e + 1):
                    e += 1
                dens = {d * ell**i for d in dens for i in range(e + 1)}
            assert dens == {k.denominator for k in fam.kset}, n

    def test_mu_check_is_the_matching_system(self):
        # the mu algebra of thue.detect's docstring, on every row: mu is
        # rational exactly when the matching system has a rational u, and
        # then every printed point of the row's model maps onto c's 6-twist
        positive, flagged = 0, 0
        for w in _planted_witnesses(3):
            planted = _integral_curve(w)
            fam = FAMILIES[w.n]
            for v in (1, 2, 3, 5, 6):
                c = twist_scale(planted, v)
                for alpha, F0, G0 in _rows(c, w.n):
                    An, Bn = tate_AB(w.n, alpha)
                    p0, q0 = fam.sigma * alpha.numerator, alpha.denominator
                    lam = abs(p0) * q0 if w.n == 8 else q0**fam.scale_power
                    assert lam == fam.pipeline_scale(p0, q0), (w.n, alpha)
                    assert (F0, G0) == (lam**4 * An, lam**6 * Bn), (c, w.n, alpha)
                    mu = rational_square_root(F(36 * c.B * F0, c.A * G0))
                    u = rational_square_root(F(c.A) * Bn / (F(c.B) * An))
                    assert (mu is None) == (u is None), (c, w.n, alpha)
                    if u is None:
                        continue
                    mu, u = abs(mu), abs(u)
                    assert mu.denominator == 1, (c, w.n, alpha)
                    assert mu * lam * u == 6, (c, w.n, alpha)
                    assert (mu**4 * F0, mu**6 * G0) == (1296 * c.A, 46656 * c.B)
                    mu = int(mu)
                    _, _, points = thue._checked_model(w.n, p0, q0, 1)
                    for x, y in points:
                        x, y = mu**2 * x, mu**3 * y
                        assert y * y == x**3 + 1296 * c.A * x + 46656 * c.B, (c, w.n, alpha)
                    witness, scale, _, note = fraction_witness_from_alpha_u(w.n, alpha, u)
                    branch = thue._mu_branch(fam, mu)
                    assert (branch is None) == (note is not None), (c, w.n, alpha)
                    assert thue._witness_from_mu(fam, alpha, mu, branch) == (witness, scale, note)
                    s = witness.q // q0
                    assert mu == scale * 6 * witness.k * s**fam.scale_power
                    positive += 1
                    flagged += note is not None
        # the corpus holds rows whose twist the witness absorbs and rows
        # whose twist it cannot absorb
        assert positive > flagged > 0


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
        An, Bn = tate_AB(n, a)
        assert (trace.u**4 * c.A, trace.u**6 * c.B) == (An, Bn)
        if trace.witness is not None:
            validate_trace(c, trace.witness, trace.scale)

    def test_corrupted_point_table_rejected(self, monkeypatch, cold_root_cache, rebuild_family):
        # a cold cache builds the root's model from the corrupted table
        fam = FAMILIES[7]
        Y = fam.point_y
        monkeypatch.setitem(FAMILIES, 7, rebuild_family(fam, point_y=(2 * Y[0],) + Y[1:]))
        with pytest.raises(FamilyDataError, match="is off the n = 7 curve"):
            detect(Curve(-43, 166), 7)

    @pytest.mark.parametrize("index", [0, 1])
    def test_model_coefficient_mismatch_rejected(self, monkeypatch, cold_root_cache, index):
        # a root model whose F0 (or G0) alone is wrong still carries points
        # that map onto c's 6-twist: the j check that _matching_roots runs on
        # each root model as it builds the rows rejects it
        real = thue._checked_model

        def off_by_two(n, p, q, S):
            model = list(real(n, p, q, S))
            model[index] *= 2
            return tuple(model)

        monkeypatch.setattr(thue, "_checked_model", off_by_two)
        with pytest.raises(FamilyDataError, match="6-scaled system validation"):
            detect(Curve(-43, 166), 7)

    def test_wrong_order_points_rejected(self, monkeypatch, rebuild_family):
        # the n = 5 tables under the label 7: every point is on the curve,
        # but of order 5
        monkeypatch.setitem(FAMILIES, 7, rebuild_family(FAMILIES[5], n=7))
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


def _j_key(c: Curve) -> tuple:
    return c.j_invariant.numerator, c.j_invariant.denominator


def _rows(c: Curve, n: int) -> tuple:
    """detect's root-cache rows for c and n: a search only on a cache miss."""
    return thue._cached_roots(n, *_j_key(c))


class TestPositiveMissCost:
    """What a positive answer computes: one Newton lift per root orbit and one
    order per point pair (x, +-y)."""

    @pytest.mark.parametrize("n, A, B", [(7, -43, 166), (9, -219, 1654)])
    def test_one_lift_per_orbit(self, monkeypatch, cold_root_cache, n, A, B):
        lifts = []
        real = exact._hensel_lift

        def counting(*args):
            lifts.append(args[1])
            return real(*args)

        monkeypatch.setattr(exact, "_hensel_lift", counting)
        c = Curve(A, B)
        assert detect(c, n) is not None
        # the orbit of alpha under alpha -> 1 - 1/alpha, found from one lift
        alphas = [row[0] for row in _rows(c, n)]
        assert len(alphas) == 3 and len(lifts) == 1
        a, b, cc, d = FAMILIES[n].symmetry
        assert {(a * x + b) / (cc * x + d) for x in alphas} == set(alphas)

    def test_one_order_per_point_pair(self, monkeypatch):
        orders = []
        real = thue._integral_order

        def counting(*args):
            orders.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(thue, "_integral_order", counting)
        w = Witness(7, 2, 1, F(1, 3))
        points = order_n_points(w)
        assert len(points) == 6 and len(orders) == 3
        assert [P.y for P in points[1::2]] == [-P.y for P in points[::2]]

    def test_rows_are_alpha_and_checked_model(self, cold_root_cache):
        # a row keeps the root and its checked model, and no point
        fam = FAMILIES[7]
        rows = _rows(Curve(-43, 166), 7)
        assert len(rows) == 3
        for row in rows:
            alpha = row[0]
            F0, G0, _ = thue._checked_model(7, fam.sigma * alpha.numerator, alpha.denominator, 1)
            assert row == (alpha, F0, G0)

    def test_discrepancy_row_before_the_clean_row(self, monkeypatch):
        # rows of one curve either all absorb the twist or none does (the
        # diamond automorphisms keep the twist class), so the branch test is
        # failed by hand, on the first row and then on every row: detect must
        # pass over the first row to the clean second row, answer with the
        # first row only when no row is clean, and test each row it passes once
        c = Curve(-43, 166)
        rows = _rows(c, 7)
        real = thue._mu_branch
        calls, flagged = [], {0}

        def flag(fam, mu):
            calls.append(mu)
            return None if len(calls) - 1 in flagged else real(fam, mu)

        monkeypatch.setattr(thue, "_mu_branch", flag)
        trace = detect(c, 7)
        assert len(calls) == 2
        alpha = rows[1][0]
        An, Bn = tate_AB(7, alpha)
        u = rational_square_root(F(c.A) * Bn / (F(c.B) * An))
        witness, scale, _, note = fraction_witness_from_alpha_u(7, alpha, u)
        assert note is None
        assert trace == thue.DetectionTrace(alpha=alpha, u=u, witness=witness, scale=scale)
        calls.clear()
        flagged.update((1, 2))
        trace = detect(c, 7)
        assert calls == [2, 2, 2]
        # mu = 2 = 6 * (1/3): the residual scale is 1 on the k = 1/3 branch
        assert (trace.alpha, trace.witness, trace.scale, trace.discrepancy) == (
            rows[0][0], Witness(7, 2, 1, F(1, 3)), 1,
            "no integral solution of the plain system; residual scale 1 on the k = 1/3 branch")

    @pytest.mark.parametrize("u, notes", [(1, 0), (2, 1)])
    def test_one_witness_per_answer(self, monkeypatch, u, notes):
        # the 2-twist's three rows all fail the branch test, yet its answer
        # builds one witness and formats one note; a clean answer formats none
        c = twist_scale(Curve(-43, 166), u)
        assert len(_rows(c, 7)) == 3
        made, formatted = [], []
        real_witness, real_decimal = thue.Witness, thue.int_to_decimal

        def witness(*args):
            made.append(args)
            return real_witness(*args)

        def decimal(x):
            formatted.append(x)
            return real_decimal(x)

        monkeypatch.setattr(thue, "Witness", witness)
        monkeypatch.setattr(thue, "int_to_decimal", decimal)
        trace = detect(c, 7)
        assert len(made) == 1 and len(formatted) == notes
        assert (trace.discrepancy is not None) == bool(notes)


def _twists(c: Curve) -> list:
    """c, two of its u-twists (u^4 A, u^6 B) and three of its quadratic twists
    (d^2 A, d^3 B): the curves with c's j-invariant that detect must tell
    apart."""
    return [c, twist_scale(c, 2), twist_scale(c, 3)] + [
        Curve(d * d * c.A, d**3 * c.B) for d in (-1, 2, -3)]


class TestCrossOrderRule:
    """Rows for one order at j rule out every other order at j (the proof is
    in thue._cached_roots' docstring), so the root cache answers the other
    orders without a root search."""

    @pytest.mark.parametrize("w", _planted_witnesses(3), ids=repr)
    def test_other_orders_have_no_roots(self, w):
        # the uncached root search, on every curve with the planted j
        keys = {_j_key(c) for c in _twists(_integral_curve(w))}
        assert len(keys) == 1
        (a, b), = keys
        assert thue._matching_roots(w.n, a, b)
        for m in FAMILY_ORDERS:
            if m != w.n:
                assert thue._matching_roots(m, a, b) == (), (w, m)

    def test_cm_j_invariants_have_no_rows(self):
        # j = 0 (A = 0) and j = 1728 (B = 0); detect keys them as 0/1, 1728/1
        for c in (Curve(0, 1), Curve(0, -16), Curve(1, 0), Curve(-1, 0), Curve(-4, 0)):
            assert _j_key(c) in {(0, 1), (1728, 1)}
        for n in FAMILY_ORDERS:
            assert thue._matching_roots(n, 0, 1) == ()
            assert thue._matching_roots(n, 1728, 1) == ()

    @pytest.mark.parametrize("w", _planted_witnesses(), ids=repr)
    def test_other_orders_answered_without_a_search(self, monkeypatch, cold_root_cache, w):
        c = _integral_curve(w)
        assert detect(c, w.n) is not None

        def forbidden(*args):
            raise AssertionError("a ruled-out order ran a root search")

        monkeypatch.setattr(thue, "rational_roots", forbidden)
        monkeypatch.setattr(thue, "_matching_roots", forbidden)
        for twist in _twists(c):
            for m in FAMILY_ORDERS:
                if m != w.n:
                    assert detect(twist, m) is None, (w, twist, m)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(branch=st.sampled_from(BRANCHES), p=st.integers(-6, 6), q=st.integers(-6, 6),
           u=st.integers(2, 7), d=st.sampled_from((-1, 2, -3, 5)),
           digits=st.integers(1, 20), seed=st.integers(0, 2**32), data=st.data())
    def test_query_order_does_not_change_the_traces(self, branch, p, q, u, d, digits, seed,
                                                     data):
        n, k = branch
        try:
            w = Witness(n, p, q, k)
            if disc_AB(*eval_AB(w)) == 0:
                reject()
        except SideConditionError:
            reject()
        c = _integral_curve(w)
        rng = random.Random(seed)
        A, B = (rng.choice((-1, 1)) * rng.randrange(10**digits) for _ in "AB")
        if disc_AB(A, B) == 0:
            reject()
        curves = [c, twist_scale(c, u), Curve(d * d * c.A, d**3 * c.B), Curve(A, B)]
        queries = [(curve, m) for curve in curves for m in FAMILY_ORDERS]
        thue._root_cache.cache_clear()
        ascending = {query: detect(*query) for query in queries}
        assert ascending[(c, n)] is not None
        drawn = data.draw(st.permutations(queries))
        thue._root_cache.cache_clear()
        try:
            assert {query: detect(*query) for query in drawn} == ascending
        finally:
            thue._root_cache.cache_clear()


def _velu_quotient(c: Curve, P: Point, n: int) -> Curve:
    """E/<P> for a point P of order n on the integral curve c, by Velu's
    formulas (C. R. Acad. Sci. Paris 273, 1971): A' = A - 5v, B' = B - 7w,
    summed over the kernel points Q = mP, 1 <= m <= n/2 (one of each pair
    +-Q), with v_Q = 3 x^2 + A, doubled unless Q has order 2, and
    w_Q = 4 y^2 + x v_Q."""
    v = w = 0
    for m in range(1, n // 2 + 1):
        Q = scalar_mul(c, m, P)
        vQ = (3 * Q.x**2 + c.A) * (1 if Q.y == 0 else 2)
        v, w = v + vQ, w + 4 * Q.y**2 + Q.x * vQ
    A, B = F(c.A - 5 * v), F(c.B - 7 * w)
    # torsion points of an integral model are integral (Nagell-Lutz)
    assert A.denominator == B.denominator == 1
    return Curve(int(A), int(B))


class TestVeluQuotients:
    """detect on the quotient E' = E/<P> of a planted curve by its point of
    order n.  E' is n-isogenous to E, so n divides #E'(F_p) at every good p
    and no point count refutes n, yet E' mostly has no point of order n:
    these negatives reach the root search."""

    @pytest.mark.parametrize("branch", BRANCHES)
    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(p=st.integers(-6, 6), q=st.integers(1, 6))
    def test_detect_agrees_with_the_oracle(self, branch, p, q):
        n, k = branch
        try:
            F_val, G_val, points = thue._six_twist_points(Witness(n, p, q, k))
        except (SideConditionError, DegenerateParameterError):
            reject()
        c = Curve(F_val, G_val)
        quotient = _velu_quotient(c, Point(*points[0]), n)
        # an isogeny keeps the point counts
        for ell in (5, 7, 11, 13):
            if c.disc % ell and quotient.disc % ell:
                counts = {torsion._count_points(e.A, e.B, ell) for e in (c, quotient)}
                assert len(counts) == 1 and counts.pop() % n == 0, (c, quotient, ell)
        assert (detect(quotient, n) is not None) == has_point_of_order(quotient, n), quotient
        for m in FAMILY_ORDERS:
            if m != n:
                assert detect(quotient, m) is None, (quotient, m)


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
    """Reference: the witness conversion of ``thue._witness_from_mu``, in
    Fraction and from the matching system's u, with k_raw = 1/(u q0^j)
    (1/|u p0 q0| for n = 8) in place of mu/6."""
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
            f"no integral solution of the plain system; residual scale {int_to_decimal(m)} "
            f"on the k = 1/{b} branch"
        )
        return Witness(n, p0, q0, F(1, b)), m, b, note
    return None, m, b, (f"branch factor {rational_to_decimal(k_raw)} has denominator "
                        "outside the branch set")


def fraction_detect(c: Curve, n: int):
    """Reference: ``detect`` with the Tate values, u and the witness in
    Fraction, on an uncached root search."""
    fam = FAMILIES[n]
    a, b = c.j_invariant.numerator, c.j_invariant.denominator
    M = 4 * (1728 * b - a) * fam.tate_A_num**3 - 27 * a * fam.tate_B_num**2
    best = None
    for alpha in sorted(rational_roots(M),
                        key=lambda r: (r <= 0, r.denominator, abs(r.numerator))):
        if n == 8 and alpha == 0:
            continue
        An, Bn = tate_AB(n, alpha)
        if An == 0 or Bn == 0:
            continue
        u = rational_square_root(F(c.A) * Bn / (F(c.B) * An))
        if u is None or u == 0:
            continue
        assert u**4 * c.A == An and u**6 * c.B == Bn
        witness, scale, u2, note = fraction_witness_from_alpha_u(n, alpha, u)
        if witness is not None:
            validate_trace(c, witness, scale)
            # DetectionTrace reads u2 off the witness
            assert u2 == witness.k.denominator
        trace = thue.DetectionTrace(
            alpha=alpha, u=u, witness=witness, scale=scale, discrepancy=note
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


@pytest.mark.parametrize("branch", BRANCHES)
@settings(max_examples=2, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(p=st.integers(-4, 4), q=st.integers(-4, 4), a=st.integers(1, 6),
       v=st.integers(10**4000, 10**4010), absorbed=st.booleans(), data=st.data())
def test_detect_matches_fraction_reference_on_huge_twists(branch, p, q, a, v, absorbed, data):
    """The same on twists by a u of 4000+ digits: either u = a v / b, mostly
    a residual scale, or u = (a r)**j for the r with r**j just below v, which
    turns the witness curve into that of (a r p, a r q, k)."""
    n, k = branch
    try:
        w = Witness(n, p, q, k)
    except SideConditionError:
        reject()
    if disc_AB(*eval_AB(w)) == 0:
        reject()
    c = _integral_curve(w)
    j = FAMILIES[n].scale_power
    if absorbed:
        u = F((a * integer_nth_root(v, j)) ** j)
    else:
        dens = [b for b in range(1, 7) if (c.A * a**4) % b**4 == 0 and (c.B * a**6) % b**6 == 0]
        u = F(a * v, data.draw(st.sampled_from(dens), label="b"))
    c = twist_scale(c, u)
    # fraction_detect checks every witness it meets with validate_trace
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

    def test_box_has_both_ends(self):
        # the order-5 witnesses of this curve sit at |p|, |q| = 1, 2: bound 1
        # must miss them all and bound 2 find each one
        c = Curve(-27, 55350)
        assert brute_force_witness_search(c, 5, 1) == []
        assert [(w.p, w.q) for w in brute_force_witness_search(c, 5, 2)] == [
            (-2, 1), (-1, -2), (1, 2), (2, -1)]

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
        assert rec["printed_z_constraint_residual"] == 162

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

    def test_order8_pole_is_the_pipelines(self):
        # the n = 8 formulas divide by alpha; tate_bc reports the pole first
        with pytest.raises(DegenerateParameterError, match=r"^n=8 needs alpha != 0"):
            param_cross_check(8, 1, 0)


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
