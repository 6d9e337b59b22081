"""Executable form of the binary-form torsion characterization for
n in {5, 7, 8, 9}: witness evaluation, curve generation, order-n point
formulas, detection on arbitrary integral curves, bounded witness search,
and the elimination-formula cross-checks."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .curves import Curve, Point, _integral_order, disc_AB
from .errors import (
    DegenerateParameterError,
    FamilyDataError,
    SideConditionError,
)
from .exact import _Value, int_to_decimal, integer_nth_root, rational_roots, rational_square_root
from .exact import rational_to_decimal
from .families import FAMILIES, ThueFamily, family
from .records import CurveRecord
from .tate import tate_AB
from .torsion import CACHE_SIZE, torsion_structure


class Witness(_Value):
    """Parameter tuple (n, p, q, k) for the order-n family; (p, q) need not be
    coprime, and k must lie in the branch set of the family."""

    __slots__ = ("n", "p", "q", "k")

    def __init__(self, n: int, p: int, q: int, k: Fraction):
        for v in (p, q):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError("witness coordinates p and q must be integers")
        if not isinstance(k, Fraction):
            try:
                k = Fraction(k)
            except ZeroDivisionError:
                raise SideConditionError(f"k = {str(k)[:40]} has a zero denominator") from None
            except (TypeError, ValueError, OverflowError):  # "abc", None, nan, inf
                raise SideConditionError(f"k = {str(k)[:40]} is not a rational") from None
        fam = family(n)
        _require_branch(fam, k)
        if not fam.side_conditions_ok(p, q):
            raise SideConditionError(f"(p, q) = ({int_to_decimal(p)}, {int_to_decimal(q)}) "
                                     f"violates the n = {n} side conditions")
        self._fill(n, p, q, k)

    @property
    def family(self) -> ThueFamily:
        return FAMILIES[self.n]


def _require_branch(fam: ThueFamily, k: Fraction) -> None:
    """SideConditionError unless the rational k lies in the branch set of ``fam``."""
    if k not in fam.kset:
        raise SideConditionError(
            f"k = {rational_to_decimal(k)} is not in the n = {fam.n} branch set {fam.kset}"
        )


class DetectionTrace(_Value):
    """Solution of the matching system u**4 A = A_n(alpha), u**6 B = B_n(alpha),
    converted to a family witness.

    ``u2`` is the branch denominator ``witness.k.denominator`` (the part of
    the twist that cannot be absorbed into integers; always in {1, 2, 3}),
    and ``scale`` the residual integer multiplier: the curve satisfies
    (6**4 A, 6**6 B) = (scale**4 F, scale**6 G) for (F, G) = ``eval_FG(witness)``.
    ``discrepancy`` is set when the plain integral system (scale absorbed into
    (p, q)) has no solution even though the matching system does.
    """

    __slots__ = ("alpha", "u", "witness", "scale", "discrepancy")

    def __init__(self, alpha: Fraction, u: Fraction, witness: Witness, scale: int,
                 discrepancy: str | None = None):
        self._fill(alpha, u, witness, scale, discrepancy)

    @property
    def u2(self) -> int:
        return self.witness.k.denominator


def eval_AB(w: Witness) -> tuple[Fraction, Fraction]:
    """Exact family coefficients A = k^4 F_n(p,q), B = k^6 G_n(p,q),
    read off the 6-twist: ``eval_FG(w)`` divided by (6^4, 6^6)."""
    F, G = eval_FG(w)
    return Fraction(F, 1296), Fraction(G, 46656)


def eval_FG(w: Witness) -> tuple[int, int]:
    """The 6-scaled integral system values (6^4 A, 6^6 B) = (S^4 F_n(p, q),
    S^6 G_n(p, q)); always integers, as S = 6k is an integer on every branch."""
    fam = w.family
    S = 6 * w.k.numerator // w.k.denominator
    return S**4 * fam.F(w.p, w.q), S**6 * fam.G(w.p, w.q)


def order_n_points(w: Witness) -> list[Point]:
    """The printed order-n points on the curve with coefficients ``eval_AB(w)``,
    checked on its integral 6-twist by ``_checked_model``."""
    return [_witness_point(x, y) for x, y in _six_twist_points(w)[2]]


def _six_twist_points(w: Witness) -> tuple[int, int, list[tuple[int, int]]]:
    """(F, G) = ``eval_FG(w)`` and the checked order-n points, as integer
    pairs, on the 6-twist y**2 = x**3 + F*x + G of the witness curve."""
    return _checked_model(w.n, w.p, w.q, 6 * w.k.numerator // w.k.denominator)


def _checked_model(n: int, p: int, q: int, S: int) -> tuple[int, int, list[tuple[int, int]]]:
    """(F, G) = (S^4 F_n(p, q), S^6 G_n(p, q)) and the printed points
    (3 S^2 X_i, +-108 S^3 Y_i), checked on y**2 = x**3 + F*x + G.

    S = 6k, an integer on every branch, gives the 6-twist
    of the witness curve (n, p, q, k), and S = 1 the primitive model.  The
    points and all their multiples are integral (Nagell-Lutz), so the checks
    run in int: nonsingular, every point on the curve and of exact order n.
    The points are returned interleaved, (x, y) then (x, -y) for each printed
    x; as -P has the order of P, the order is checked once per pair, on (x, y).
    """
    fam = FAMILIES[n]
    F, G = S**4 * fam.F(p, q), S**6 * fam.G(p, q)
    if disc_AB(F, G) == 0:
        pq = f"{int_to_decimal(p)}, {int_to_decimal(q)}"
        raise DegenerateParameterError(f"witness (p, q) = ({pq}) generates a singular curve")
    cx, cy = 3 * S**2, 108 * S**3
    points = []
    for Xf, Yf in zip(fam.point_x, fam.point_y):
        x, y = cx * Xf(p, q), cy * Yf(p, q)
        if y * y != x**3 + F * x + G:
            raise FamilyDataError(
                f"point {_witness_point(x, y)!r} is off the n = {n} curve at "
                f"(p, q, k) = ({int_to_decimal(p)}, {int_to_decimal(q)}, {Fraction(S, 6)})"
            )
        points += [(x, y), (x, -y)]
    for x, y in points[::2]:
        order = _integral_order(F, x, y, 16)
        if order != n:
            raise FamilyDataError(
                f"point {_witness_point(x, y)!r} has order {order}, expected {n}"
            )
    return F, G, points


def _witness_point(x6: int, y6: int) -> Point:
    """The point (x6/36, y6/216) of the witness curve that sits at (x6, y6)
    on its 6-twist."""
    return Point(Fraction(x6, 36), Fraction(y6, 216))


def generate_curve(w: Witness) -> CurveRecord:
    """Validated record for the witness curve.

    Generation runs on the integral 6-twist: one ``_six_twist_points`` call
    gives (F, G) = (6^4 A, 6^6 B) and the checked order-n points there.  When
    6^4 | F and 6^6 | G the direct model (A, B) is recorded with the points
    (x/36, y/216) (``form="ab"``); otherwise the 6-twist itself
    (``form="fg6"``).  The torsion oracle independently confirms a point of
    order n.
    """
    F, G, points = _six_twist_points(w)
    if F % 1296 == 0 and G % 46656 == 0:
        curve, form = Curve(F // 1296, G // 46656), "ab"
        points = [_witness_point(x, y) for x, y in points]
    else:
        curve, form = Curve(F, G), "fg6"
        points = [Point(x, y) for x, y in points]
    report = torsion_structure(curve)
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

def _matching_roots(n: int, a: int, b: int) -> tuple[tuple, ...]:
    """Rational roots of the u-eliminated matching polynomial

        M(alpha) = B^2 numA(alpha)^3 denB(alpha)^2 - A^3 numB(alpha)^2 denA(alpha)^3,

    with their checked primitive models: the root search behind
    ``_cached_roots``, uncached.

    The root set depends on the curve only through j = a/b (lowest terms,
    b > 0), so M is built as 4 (1728 b - a) numA^3 - 27 a numB^2, which is
    186624 M / t for the t with 4 A^3 + 27 B^2 = t b.  It holds a row
    (alpha, F0, G0) for each root: the model that ``_checked_model`` checks
    at S = 1 and (sigma * alpha.numerator, alpha.denominator), checked once
    more, here, to have j-invariant a/b: 4 (1728 b - a) F0^3 = 27 a G0^2.
    So a hit evaluates no Tate value, form or order.

    The roots are found by ``rational_roots`` under the family's
    ``symmetry``: a point of order n gives M the whole orbit of its alpha
    under the diamond automorphisms, all with the same j, so one Newton lift
    finds each orbit.

    No root needs a filter: numA(0) = -27 and numB(0) = 54 in every family,
    so M(0) = -136048896 b != 0 (M is nonzero and 0, the pole of A_8, is no
    root), and numA, numB have no rational root to vanish at
    (``test_tate_coefficients_have_no_rational_roots``).  So j = 0 (a = 0,
    M = 6912 b numA^3) and j = 1728 (a = 1728 b, M = -27 a numB^2) have no
    rows for any order, and every row has A, B, F0, G0 != 0.
    """
    fam = FAMILIES[n]
    M = 4 * (1728 * b - a) * fam.tate_A_num**3 - 27 * a * fam.tate_B_num**2
    # the alpha-power denominators (n = 8) contribute equal alpha^12 factors
    # to both terms and drop out of the root set
    rows = []
    roots = sorted(rational_roots(M, fam.symmetry),
                   key=lambda r: (r <= 0, r.denominator, abs(r.numerator)))
    for alpha in roots:
        F0, G0, _ = _checked_model(n, fam.sigma * alpha.numerator, alpha.denominator, 1)
        if 4 * (1728 * b - a) * F0**3 != 27 * a * G0**2:
            raise FamilyDataError(f"the root model at alpha = {rational_to_decimal(alpha)} "
                                  "failed the 6-scaled system validation: wrong j-invariant")
        rows.append((alpha, F0, G0))
    return tuple(rows)


@lru_cache(maxsize=CACHE_SIZE)
def _root_cache(a: int, b: int) -> dict[int, tuple[tuple, ...]]:
    """The root cache's entry for j = a/b: the rows of each order asked for
    at this j, filled in by ``_cached_roots``.  One entry serves every curve
    with this j (all twists) and every order."""
    return {}


def _cached_roots(n: int, a: int, b: int) -> tuple[tuple, ...]:
    """``_matching_roots(n, a, b)``, searched at most once per order and j,
    and not at all once another order has rows at this j.

    Rows for one order rule out every other order at the same j, so such an
    order gets () with no root search:

    - A row for order k is a root alpha whose primitive model (F0, G0) has
      j-invariant j and a checked point P of exact order k.
    - Such a j is not 0 or 1728 (``_matching_roots``), so every curve with
      this j is a quadratic twist of that model.  A twist is an isomorphism
      over a quadratic field that commutes with Galois up to the sign -1, so
      it sends the cyclic group <P> to a Galois-stable cyclic group: every
      curve with this j has a rational cyclic k-isogeny.
    - A point of order n on such a curve gives a second one, of degree n.
      Any two of 5, 7, 8 and 9 are coprime, so the two kernels generate a
      Galois-stable cyclic group of order kn in {35, 40, 45, 56, 63, 72}.
      No elliptic curve over Q has a rational cyclic isogeny of any of these
      degrees: the degrees that occur are 1 to 19, 21, 25, 27, 37, 43, 67
      and 163 (Mazur 1978 for prime degrees, Kenku 1979-81 for the rest).

    So the rows are those of ``_matching_roots`` whatever the order in which
    the orders are asked for.
    """
    entry = _root_cache(a, b)
    rows = entry.get(n)
    if rows is None:
        rows = entry[n] = () if any(entry.values()) else _matching_roots(n, a, b)
    return rows


def _mu_branch(fam: ThueFamily, mu: int) -> tuple[Fraction, int] | None:
    """The branch test of a row's twist factor mu >= 1: (k, s) for the first
    branch k with mu = 6 k s^j for an integer s >= 1 (j = ``fam.scale_power``),
    or None.  Int arithmetic only; it builds no witness and no string."""
    j = fam.scale_power
    for k in fam.kset:
        t, rest = divmod(mu * k.denominator, 6 * k.numerator)
        if not rest:
            s = math.isqrt(t) if j == 2 else integer_nth_root(t, j)
            if s**j == t:
                return k, s
    return None


def _witness_from_mu(
    fam: ThueFamily, alpha: Fraction, mu: int, branch: tuple[Fraction, int] | None
) -> tuple[Witness, int, str | None]:
    """Convert the twist factor mu of a row to a witness, given the row's
    ``_mu_branch(fam, mu)``.

    Returns ``(witness, scale, discrepancy)``.  On a branch (k, s) the scale
    absorbs into (s p0, s q0) and the plain integral system is solvable: U
    and V are homogeneous of degrees 4j and 6j, so mu = 6k * s^j.  With no
    branch, the raw branch factor k_raw = mu/6 = m/b (lowest terms) is kept
    as the residual integer scale m on the k = 1/b branch and the trace is
    flagged.

    1/b is always a branch: A = -27 k_raw^4 U(p0, q0) and
    B = +-54 k_raw^6 V(p0, q0) are integers, so b^4 | 27 U and b^6 | 54 V;
    a prime dividing both values divides Res(U, V), and the check at each of
    its primes leaves exactly the denominators of the branch set
    (``test_branch_denominators_by_resultant``).  So b | 6, and mu = 6 k_raw
    is an integer whenever it is rational.
    """
    p0, q0 = fam.sigma * alpha.numerator, alpha.denominator
    if branch is not None:
        k, s = branch
        return Witness(fam.n, s * p0, s * q0, k), 1, None
    g = math.gcd(mu, 6)
    m, b = mu // g, 6 // g
    note = (
        f"no integral solution of the plain system; residual scale {int_to_decimal(m)} "
        f"on the k = 1/{b} branch"
    )
    return Witness(fam.n, p0, q0, Fraction(1, b)), m, note


def detect(c: Curve, n: int) -> DetectionTrace | None:
    """Decide whether ``c`` has a rational point of order n in {5, 7, 8, 9}.

    Returns None exactly when no such point exists.  When one exists, returns
    the matching-system solution (alpha, u) converted to a family witness;
    traces with a set ``discrepancy`` still certify presence.  The answer is
    the first row (in row order) whose twist factor mu names a branch, else
    the first row whose mu is rational.

    The rows come from the root cache (``_cached_roots``): a curve without
    rows, and an order that another order's rows at j rule out, get None at
    once; a miss runs one root search (``_matching_roots``); a hit is a few
    int products and one integer branch test (``_mu_branch``) per row it
    passes, and builds one witness and one trace, for the row it answers
    with.

    On each row the twist factor is read off the root's model (F0, G0) in
    int: mu^2 = 36 B F0 / (A G0), where A B != 0 as j = 0 and 1728 have no
    rows.  The row was built with c's j-invariant, B^2 F0^3 = A^3 G0^2, so
    mu^4 F0 = 6^4 A and mu^6 G0 = 6^6 B, and with every printed point (x, y)
    on y^2 = x^3 + F0 x + G0, so (mu^2 x, mu^3 y) lies on c's 6-twist
    y^2 = x^3 + 6^4 A x + 6^6 B, with the same order.  So the row fits c
    exactly when mu is rational, and then mu is an integer
    (``_witness_from_mu``); a row whose mu^2 is no positive integer square
    (a quadratic twist of c) is passed over.  As (F0, G0) =
    (l^4 A_n(alpha), l^6 B_n(alpha)) with l = ``fam.pipeline_scale(p0, q0)``,
    u = 6/(mu l) solves the matching system; it is computed for the trace.
    """
    fam = family(n)
    A, B = c.A, c.B
    # j = 6912 A^3 / (4 A^3 + 27 B^2) in lowest terms with a positive denominator
    A3 = A**3
    ja, jb = 6912 * A3, 4 * A3 + 27 * B**2
    g = math.gcd(ja, jb) if jb > 0 else -math.gcd(ja, jb)
    rows = _cached_roots(n, ja // g, jb // g)
    if not rows:
        return None
    answer = None
    for alpha, F0, G0 in rows:
        mu2, rest = divmod(36 * B * F0, A * G0)
        if rest or mu2 <= 0:
            continue
        mu = math.isqrt(mu2)
        if mu * mu != mu2:
            continue
        branch = _mu_branch(fam, mu)
        if branch is not None:
            answer = alpha, mu, branch
            break
        if answer is None:
            answer = alpha, mu, None
    if answer is None:
        return None
    alpha, mu, branch = answer
    witness, scale, note = _witness_from_mu(fam, alpha, mu, branch)
    lam = fam.pipeline_scale(fam.sigma * alpha.numerator, alpha.denominator)
    return DetectionTrace(alpha, Fraction(6, mu * lam), witness, scale, note)


# ---------------------------------------------------------------------------
# independent bounded search

def brute_force_witness_search(
    c: Curve, n: int, bound: int, ks: tuple[Fraction, ...] | None = None
) -> list[Witness]:
    """All witnesses with 1 <= |p|, |q| <= bound satisfying the integral system
    (6^4 A, 6^6 B) = ``eval_FG`` of the witness exactly, by exhaustive scan.

    ``ks`` restricts the branch set (default: every branch of the family).
    Each k is checked before the scan, so the answer does not depend on the
    curve: a k whose 6k is not an integer is a ValueError, and another k
    outside the branch set the SideConditionError of ``Witness``.
    """
    fam = family(n)
    branches = fam.kset if ks is None else tuple(Fraction(k) for k in ks)
    for k in branches:
        if (6 * k).denominator != 1:
            raise ValueError(f"k = {k} is not a valid branch for n = {n}")
        _require_branch(fam, k)
    target_f = 1296 * c.A
    target_g = 46656 * c.B
    box = [v for v in range(-bound, bound + 1) if v]
    found = []
    for k in branches:
        S = 6 * k.numerator // k.denominator
        for q in box:
            for p in box:
                if not fam.side_conditions_ok(p, q):
                    continue
                if S**4 * fam.F(p, q) == target_f and S**6 * fam.G(p, q) == target_g:
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
    family(n)  # ValueError for an order without a family
    An, Bn = tate_AB(n, alpha)
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
