"""Executable form of the binary-form torsion characterization for
n in {5, 7, 8, 9}: witness evaluation, curve generation, order-n point
formulas, detection on arbitrary integral curves, bounded witness search,
and the elimination-formula cross-checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .curves import (
    Curve,
    Point,
    disc_AB,
    on_curve,
    point_order,
    twist_point,
    twist_scale,
)
from .errors import (
    DegenerateParameterError,
    FamilyDataError,
    SideConditionError,
)
from .exact import rational_nth_root, rational_roots, rational_square_root
from .families import FAMILIES, ThueFamily, fg_forms
from .records import CurveRecord
from .torsion import torsion_structure


@dataclass(frozen=True)
class Witness:
    """Parameter tuple (n, p, q, k) for the order-n family; (p, q) need not be
    coprime, and k must lie in the branch set of the family."""

    n: int
    p: int
    q: int
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k", Fraction(self.k))
        fam = FAMILIES.get(self.n)
        if fam is None:
            raise ValueError(f"no family for order n = {self.n}")
        if self.k not in fam.kset:
            raise SideConditionError(
                f"k = {self.k} is not in the n = {self.n} branch set {fam.kset}"
            )
        if not fam.side_conditions_ok(self.p, self.q):
            raise SideConditionError(
                f"(p, q) = ({self.p}, {self.q}) violates the n = {self.n} side conditions"
            )

    @property
    def family(self) -> ThueFamily:
        return FAMILIES[self.n]


@dataclass(frozen=True)
class DetectionTrace:
    """Solution of the matching system u**4 A = A_n(alpha), u**6 B = B_n(alpha),
    converted to a family witness.

    ``u2`` is the branch denominator (the part of the twist that cannot be
    absorbed into integers; always in {1, 2, 3} when conversion succeeds) and
    ``scale`` the residual integer multiplier: the curve satisfies
    6**4 A = scale**4 * F_n^(k)(p, q) and 6**6 B = scale**6 * G_n^(k)(p, q).
    ``discrepancy`` is set when the plain integral system (scale absorbed into
    (p, q)) has no solution even though the matching system does.
    """

    alpha: Fraction
    u: Fraction
    u2: int
    witness: Optional[Witness]
    scale: int
    discrepancy: Optional[str] = None


def eval_AB(w: Witness) -> tuple[Fraction, Fraction]:
    """Exact family coefficients A = -27 k^4 U_n(p,q), B = (+-)54 k^6 V_n(p,q)."""
    fam = w.family
    A = -27 * w.k**4 * fam.U(w.p, w.q)
    B = fam.b_sign * 54 * w.k**6 * fam.V(w.p, w.q)
    return A, B


def eval_FG(w: Witness) -> tuple[int, int]:
    """The 6-scaled integral system values (6^4 A, 6^6 B); always integers."""
    fam = w.family
    cf, cg = fg_forms(w.n, w.k)
    return cf * fam.U(w.p, w.q), cg * fam.V(w.p, w.q)


def order_n_points(w: Witness) -> list[Point]:
    """The printed order-n points on the curve with coefficients ``eval_AB(w)``.

    Every returned point is verified to lie on the curve and to have exact
    order n; any failure is a hard error (it would mean a table bug, not a
    data condition).
    """
    fam = w.family
    A, B = eval_AB(w)
    if disc_AB(A, B) == 0:
        raise DegenerateParameterError(
            f"witness (p, q) = ({w.p}, {w.q}) generates a singular curve"
        )
    points = []
    for Xf, Yf in zip(fam.point_x, fam.point_y):
        x = 3 * w.k**2 * Xf(w.p, w.q)
        y = 108 * w.k**3 * Yf(w.p, w.q)
        for P in (Point(x, y), Point(x, -y)):
            if P.y * P.y != P.x**3 + A * P.x + B:
                raise FamilyDataError(
                    f"point {P!r} is off the n = {w.n} curve at (p, q, k) = "
                    f"({w.p}, {w.q}, {w.k})"
                )
            points.append(P)
    _verify_orders(w.n, A, B, points)
    return points


def _verify_orders(n: int, A: Fraction, B: Fraction, points: list[Point]) -> None:
    # scale to an integral model so the Curve-based group law applies
    den = math.lcm(A.denominator, B.denominator)
    c = Curve(int(A * den**4), int(B * den**6))
    for P in points:
        order = point_order(c, twist_point(P, den))
        if order != n:
            raise FamilyDataError(f"point {P!r} has order {order}, expected {n}")


def generate_curve(w: Witness, trial_limit: int = 10**6) -> CurveRecord:
    """Validated record for the witness curve.

    Uses the direct (A, B) model when it is integral, otherwise the 6-twist
    (6^4 A, 6^6 B) model (recorded as ``form="fg6"``).  The torsion oracle
    independently confirms a point of order n.
    """
    A, B = eval_AB(w)
    points = order_n_points(w)
    if A.denominator == 1 and B.denominator == 1:
        curve = Curve(int(A), int(B))
        form = "ab"
    else:
        F, G = eval_FG(w)
        curve = Curve(F, G)
        points = [twist_point(P, 6) for P in points]
        form = "fg6"
    report = torsion_structure(curve, trial_limit)
    if report.exponent % w.n:
        raise FamilyDataError(
            f"oracle torsion {report.group_label} on {curve!r} has no order-{w.n} point"
        )
    return CurveRecord(
        n=w.n, p=w.p, q=w.q, k=w.k, curve=curve, delta=curve.disc,
        points=tuple(points), group_label=report.group_label,
        provenance="generated", form=form,
    )


# ---------------------------------------------------------------------------
# detection

_ROOT_CACHE: dict[tuple[int, Fraction], tuple[Fraction, ...]] = {}


def _matching_roots(n: int, c: Curve, trial_limit: int) -> tuple[Fraction, ...]:
    """Rational roots of the u-eliminated matching polynomial

        M(alpha) = B^2 numA(alpha)^3 denB(alpha)^2 - A^3 numB(alpha)^2 denA(alpha)^3.

    The root set depends on the curve only through its j-invariant, so results
    are cached per (n, j) and shared by all twists.
    """
    key = (n, c.j_invariant)
    cached = _ROOT_CACHE.get(key)
    if cached is not None:
        return cached
    fam = FAMILIES[n]
    A, B = c.A, c.B
    M = B * B * fam.tate_A_num**3 - A**3 * fam.tate_B_num**2
    # the alpha-power denominators (n = 8) contribute equal alpha^12 factors
    # to both terms and drop out of the root set
    if M.is_zero():
        raise FamilyDataError(
            "matching polynomial vanished identically for a nonsingular curve"
        )
    roots = tuple(
        sorted(
            rational_roots(M, trial_limit),
            key=lambda a: (a <= 0, a.denominator, abs(a.numerator)),
        )
    )
    _ROOT_CACHE[key] = roots
    return roots


def _witness_from_alpha_u(
    n: int, alpha: Fraction, u: Fraction
) -> tuple[Optional[Witness], int, int, Optional[str]]:
    """Convert a matching-system solution to a witness.

    Returns ``(witness, scale, u2, discrepancy)``.  The raw branch factor is
    k_raw = 1/(u q^j) (1/(u p q) for n = 8); if k_raw/k is the j-th power of a
    positive integer s for some branch k, the scale absorbs into (s p0, s q0)
    and the plain integral system is solvable.  Otherwise the residual integer
    scale is kept and the trace is flagged.
    """
    fam = FAMILIES[n]
    p0 = fam.sigma * alpha.numerator
    q0 = alpha.denominator
    j = fam.scale_power
    if n == 8:
        k_raw = abs(Fraction(1) / (u * alpha.numerator * alpha.denominator))
    else:
        k_raw = abs(Fraction(1) / (u * q0**j))
    for k in fam.kset:
        s = rational_nth_root(k_raw / k, j)
        if s is not None and s.denominator == 1 and s >= 1:
            si = int(s)
            return Witness(n, si * p0, si * q0, k), 1, k.denominator, None
    m, b = k_raw.numerator, k_raw.denominator
    if Fraction(1, b) in fam.kset:
        note = (
            f"no integral solution of the plain system; residual scale {m} "
            f"on the k = 1/{b} branch"
        )
        return Witness(n, p0, q0, Fraction(1, b)), m, b, note
    return None, m, b, f"branch factor {k_raw} has denominator outside the branch set"


def detect(c: Curve, n: int, trial_limit: int = 10**6) -> Optional[DetectionTrace]:
    """Decide whether ``c`` has a rational point of order n in {5, 7, 8, 9}.

    Returns None exactly when no such point exists.  When one exists, returns
    the matching-system solution (alpha, u) converted to a family witness;
    traces with a set ``discrepancy`` still certify presence.  Curves with
    A*B = 0 need no special case: the matching polynomial becomes a multiple
    of numA**3 or numB**2, neither of which has a rational root.
    """
    if n not in FAMILIES:
        raise ValueError(f"detection is defined for n in {sorted(FAMILIES)}, got {n}")
    fam = FAMILIES[n]
    best: Optional[DetectionTrace] = None
    for alpha in _matching_roots(n, c, trial_limit):
        if fam.tate_A_denpow and alpha == 0:
            continue
        An, Bn = fam.tate_value(alpha)
        if An == 0 or Bn == 0:
            continue
        u_sq = Fraction(c.A) * Bn / (Fraction(c.B) * An)
        u = rational_square_root(u_sq)
        if u is None or u == 0:
            continue
        if u**4 * c.A != An or u**6 * c.B != Bn:
            raise FamilyDataError("matching root failed the exact system re-check")
        witness, scale, u2, note = _witness_from_alpha_u(n, alpha, u)
        if witness is not None:
            _validate_trace(c, witness, scale)
        trace = DetectionTrace(
            alpha=alpha, u=u, u2=u2, witness=witness, scale=scale, discrepancy=note
        )
        if trace.discrepancy is None:
            return trace
        if best is None:
            best = trace
    return best


def _validate_trace(c: Curve, w: Witness, scale: int) -> None:
    F, G = eval_FG(w)
    if scale**4 * F != 1296 * c.A or scale**6 * G != 46656 * c.B:
        raise FamilyDataError("witness failed the 6-scaled system validation")
    six = twist_scale(c, 6)
    for P in order_n_points(w):
        if not on_curve(six, twist_point(P, 6 * scale)):
            raise FamilyDataError("witness points do not map onto the curve's 6-twist")


# ---------------------------------------------------------------------------
# independent bounded search

def brute_force_witness_search(
    c: Curve, n: int, bound: int, ks: Optional[tuple[Fraction, ...]] = None
) -> list[Witness]:
    """All witnesses with 1 <= |p|, |q| <= bound satisfying the integral system
    6^4 A = F_n^(k)(p, q), 6^6 B = G_n^(k)(p, q) exactly, by exhaustive scan.

    ``ks`` restricts the branch set (default: every branch of the family).
    """
    fam = FAMILIES[n]
    branches = fam.kset if ks is None else tuple(Fraction(k) for k in ks)
    target_f = 1296 * c.A
    target_g = 46656 * c.B
    found = []
    for k in branches:
        cf, cg = fg_forms(n, k)
        d = fam.U.degree
        for q in range(-bound, bound + 1):
            if q == 0:
                continue
            # U(p, q) as a polynomial in p for fixed q, scaled by cf
            qp = [cf * coeff * q ** (d - i) for i, coeff in enumerate(fam.U.coeffs)]
            for p in range(-bound, bound + 1):
                if p == 0 or not fam.side_conditions_ok(p, q):
                    continue
                acc = 0
                for coeff in reversed(qp):
                    acc = acc * p + coeff
                if acc != target_f:
                    continue
                if cg * fam.V(p, q) == target_g:
                    found.append(Witness(n, p, q, k))
    found.sort(key=lambda w: (w.p, w.q, w.k))
    return found


# ---------------------------------------------------------------------------
# elimination-formula cross-checks

def param_cross_check(n: int, u, alpha) -> dict:
    """Evaluate the order-n elimination formulas at (u, alpha), re-build (A, B)
    from them, and assert exact agreement with the u-twist of the Tate values.

    Raises :class:`FamilyDataError` naming the first failing identity.  Returns
    a record of all intermediate values.
    """
    u = Fraction(u)
    alpha = Fraction(alpha)
    if u == 0:
        raise DegenerateParameterError("u must be nonzero")
    fam = FAMILIES.get(n)
    if fam is None:
        raise ValueError(f"no elimination system for n = {n}")
    if n == 8 and alpha == 0:
        raise DegenerateParameterError("n = 8 formulas have a pole at alpha = 0")
    An, Bn = fam.tate_value(alpha)
    expect_A, expect_B = u**4 * An, u**6 * Bn
    record: dict = {"n": n, "u": u, "alpha": alpha, "expected_A": expect_A, "expected_B": expect_B}

    def require(name: str, lhs, rhs) -> None:
        if lhs != rhs:
            raise FamilyDataError(f"n={n} identity {name} fails at (u, alpha)=({u}, {alpha})")

    a = alpha
    if n == 5:
        x1 = 3 * u**2 * (a**2 - 6 * a + 1)
        x2 = 3 * u**2 * (a**2 + 6 * a + 1)
        x3 = -9 * u**2 * (a**2 - 1)
        record.update(x1=x1, x2=x2, x3=x3)
        require("x3^2 = (2x1+x2)(x1+2x2)", x3 * x3, (2 * x1 + x2) * (x1 + 2 * x2))
        t_sq = 3 * x1 - 2 * x3 + 3 * x2
        x4_sq = 3 * x1 + 2 * x3 + 3 * x2
        if rational_square_root(t_sq) is None:
            raise FamilyDataError("n=5 auxiliary t^2 = 3x1-2x3+3x2 is not a square")
        if rational_square_root(x4_sq) is None:
            raise FamilyDataError("n=5 auxiliary x4^2 = 3x1+2x3+3x2 is not a square")
        record.update(t_sq=t_sq, x4_sq=x4_sq)
        A_rec = -(x1**2) - x1 * x2 - x2**2 + (x1 - x2) * x3
        B_rec = Fraction(-1, 4) * (x1 + x2) * (
            -3 * x1**2 + 2 * x1 * x2 - 3 * x2**2 + 2 * (x1 - x2) * x3
        )
    elif n == 7:
        x1 = 3 * u**2 * (a**4 - 6 * a**3 + 15 * a**2 - 10 * a + 1)
        x2 = 3 * u**2 * (a**4 - 6 * a**3 + 3 * a**2 + 2 * a + 1)
        x3 = 3 * u**2 * (a**4 + 6 * a**3 - 9 * a**2 + 2 * a + 1)
        x4 = 9 * u**2 * (a**2 - a + 1) * (a**2 - 3 * a + 1)
        record.update(x1=x1, x2=x2, x3=x3, x4=x4)
        require("x4^2 = (x2+2x1)(x1+x3+x2)", x4 * x4, (x2 + 2 * x1) * (x1 + x3 + x2))
        A_rec = -(x1**2) - x2**2 - x1 * x2 + x4 * (x1 - x2)
        B_rec = (
            3 * x1**3 + x3 * x1**2 + 3 * x2**2 * x1 + x2**2 * x3
            - 2 * x1 * x2 * x3 + 2 * x2**3 + 2 * (x2**2 - x1**2) * x4
        ) / 4
    elif n == 8:
        z1 = 3 * u**2 * (20 * a**4 - 40 * a**3 + 28 * a**2 - 8 * a + 1) / a**2
        z2 = 3 * u * (2 * a - 1) ** 2 / a
        z3 = 6 * u * (1 - a)
        z4 = 3 * u * (1 - 2 * a) / a
        record.update(z1=z1, z2=z2, z3=z3, z4=z4)
        require("z4^2 = z2(2z3+z2)", z4 * z4, z2 * (2 * z3 + z2))
        # weight-corrected second factor (see PROVENANCE["n8-z-system"])
        A_rec = -3 * z1**2 + 6 * z1 * z2**2 - 2 * z2**4
        B_rec = (2 * z1 - z2**2) * (z1**2 + 2 * z1 * z2**2 - z2**4)
        record["printed_z_constraint_residual"] = 3 * z1 - z3 * z3 - z4 * z4
    else:  # n == 9
        z1 = u * (1 - 3 * a**2 + a**3)
        z2 = -9 * z1**3 + 108 * u**3 * a**3 * (a - 1) ** 3
        record.update(z1=z1, z2=z2)
        A_rec = 27 * z1**4 + 6 * z1 * z2
        B_rec = z2**2 - 27 * z1**6
        xs = (
            3 * z1**2 - 4 * (3 * u) ** 2 * a**2 * (a - 1),
            3 * z1**2 + 4 * (3 * u) ** 2 * a**3 * (a - 1) ** 2,
            3 * z1**2 + 4 * (3 * u) ** 2 * a * (a - 1) ** 3,
        )
        record.update(x_multiples=xs)
        for x in xs:
            if rational_square_root(x**3 + expect_A * x + expect_B) is None:
                raise FamilyDataError(
                    f"n=9 coordinate {x} is not on the curve at (u, alpha)=({u}, {alpha})"
                )
    require("A reconstruction", A_rec, expect_A)
    require("B reconstruction", B_rec, expect_B)
    record.update(A_rec=A_rec, B_rec=B_rec)
    return record
