"""Tate normal form Y**2 + (1-c)XY - bY = X**3 - bX**2 for a point of order
n in {4,...,10,12}, and its conversion to a short Weierstrass model.

The short form is normalized as (-27*c4, -54*c6), i.e. the u=6 twist of the
conventional reduction; with that choice the coefficient polynomials come out
integral for n in {5, 7, 9} and with pure alpha-power denominators for n = 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curves import Curve, disc_AB
from .errors import DegenerateParameterError
from .exact import IntPoly

TATE_ORDERS = (4, 5, 6, 7, 8, 9, 10, 12)


@dataclass(frozen=True)
class LongWeierstrass:
    """General Weierstrass model Y**2 + a1 XY + a3 Y = X**3 + a2 X**2 + a4 X + a6."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


def tate_bc(n: int, alpha) -> tuple[Fraction, Fraction]:
    """The (b, c) coefficients of the order-n Tate normal form at parameter alpha."""
    a = Fraction(alpha)
    if n == 4:
        return a, Fraction(0)
    if n == 5:
        return a, a
    if n == 6:
        return a + a * a, a
    if n == 7:
        return a**3 - a**2, a**2 - a
    if n == 8:
        if a == 0:
            raise DegenerateParameterError("n=8 needs alpha != 0 (c = b/alpha)")
        b = (2 * a - 1) * (a - 1)
        return b, b / a
    if n == 9:
        c = a * a * (a - 1)
        return c * (a * (a - 1) + 1), c
    if n == 10:
        d = a - (a - 1) ** 2
        c = (2 * a**3 - 3 * a**2 + a) / d
        return c * a * a / d, c
    if n == 12:
        if a == 1:
            raise DegenerateParameterError("n=12 needs alpha != 1")
        c = (3 * a * a - 3 * a + 1) * (a - 2 * a * a) / (a - 1) ** 3
        return c * (2 * a - 2 * a * a - 1) / (a - 1), c
    raise ValueError(f"no Tate normal form case for n = {n}")


def tate_long(n: int, alpha) -> LongWeierstrass:
    b, c = tate_bc(n, alpha)
    return LongWeierstrass(a1=1 - c, a2=-b, a3=-b, a4=Fraction(0), a6=Fraction(0))


def long_to_short(lw: LongWeierstrass) -> tuple[Fraction, Fraction]:
    """Complete the square and cube: returns (A, B) = (-27*c4, -54*c6)."""
    b2 = lw.a1 * lw.a1 + 4 * lw.a2
    b4 = 2 * lw.a4 + lw.a1 * lw.a3
    b6 = lw.a3 * lw.a3 + 4 * lw.a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6


def tate_AB(n: int, alpha) -> tuple[Fraction, Fraction]:
    """Short-model coefficients (A_n(alpha), B_n(alpha)) through the full pipeline.

    Values are returned even where the resulting model is singular; rejection
    happens only where a case formula itself degenerates: n=8 at alpha=0, and
    n=12 at alpha=1, the only rational zero of a case's denominator.
    """
    return long_to_short(tate_long(n, alpha))


def tate_short_curve(n: int, alpha) -> tuple[Curve, Fraction]:
    """An integral nonsingular model for the order-n Tate curve at alpha.

    Returns ``(curve, u)`` where the model is the u-twist of
    (A_n(alpha), B_n(alpha)).  Raises for parameters giving a singular curve.
    """
    A, B = tate_AB(n, alpha)
    if disc_AB(A, B) == 0:
        raise DegenerateParameterError(f"Tate curve for n={n} is singular at alpha={alpha}")
    u = Fraction(math.lcm(A.denominator, B.denominator))
    return Curve(int(u**4 * A), int(u**6 * B)), u


def interpolated_pipeline_poly(n: int) -> tuple[IntPoly, int, IntPoly, int]:
    """Exact coefficient extraction of the pipeline's A_n, B_n for n in {5,7,8,9}.

    Returns ``(A_num, a_pow, B_num, b_pow)`` with
    A_n(alpha) = A_num(alpha) / alpha**a_pow and likewise for B.  Obtained by
    exact interpolation of the pipeline at integer parameters, so it serves as
    the authority against which the transcribed coefficient tables are checked.
    """
    if n not in (5, 7, 8, 9):
        raise ValueError("pipeline polynomials are extracted for n in {5, 7, 8, 9}")
    a_pow, b_pow = (4, 6) if n == 8 else (0, 0)
    deg_a, deg_b = {5: (4, 6), 7: (8, 12), 8: (8, 12), 9: (12, 18)}[n]
    # tate_AB raises only at alpha = 0 (n = 8), so no sample x >= 2 is skipped
    xs = list(range(2, max(deg_a, deg_b) + 3))
    values = [tate_AB(n, Fraction(x)) for x in xs]
    ya = [A * x**a_pow for x, (A, _) in zip(xs, values)]
    yb = [B * x**b_pow for x, (_, B) in zip(xs, values)]
    return (
        _interpolate_int_poly(xs[: deg_a + 1], ya[: deg_a + 1]),
        a_pow,
        _interpolate_int_poly(xs[: deg_b + 1], yb[: deg_b + 1]),
        b_pow,
    )


def _interpolate_int_poly(xs: list[int], ys: list[Fraction]) -> IntPoly:
    """Newton interpolation; the result must have integer coefficients."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for k in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= c * xs[k]
        new[0] += coef[k]
        poly = new
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("pipeline interpolation produced non-integer coefficients")
    return IntPoly(int(c) for c in poly)
