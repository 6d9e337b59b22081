"""Short Weierstrass curves Y**2 = X**3 + A*X + B over Q, with an exact
chord-and-tangent group law, scalar multiplication, point orders, and
quartic/sextic twist scaling."""

from __future__ import annotations

from fractions import Fraction

from .errors import OffCurveError, SingularCurveError
from .exact import _Value, int_to_decimal, rational_to_decimal


def disc_AB(A, B):
    """Discriminant -16(4A**3 + 27B**2); zero exactly for singular models."""
    return -16 * (4 * A**3 + 27 * B**2)


class Curve(_Value):
    """Integral short Weierstrass curve; construction rejects singular models."""

    __slots__ = ("A", "B")

    def __init__(self, A: int, B: int):
        for v in (A, B):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError("curve coefficients must be integers")
        if disc_AB(A, B) == 0:
            raise SingularCurveError(f"discriminant vanishes for (A, B) = "
                                     f"({int_to_decimal(A)}, {int_to_decimal(B)})")
        self._fill(A, B)

    @property
    def disc(self) -> int:
        return disc_AB(self.A, self.B)

    @property
    def j_invariant(self) -> Fraction:
        return Fraction(6912 * self.A**3, 4 * self.A**3 + 27 * self.B**2)

    def __repr__(self) -> str:
        return f"Curve(A={int_to_decimal(self.A)}, B={int_to_decimal(self.B)})"


class Infinity:
    """The point at infinity (group identity); a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "O"


INFINITY = Infinity()


class Point(_Value):
    """Affine rational point; coordinates are stored as reduced fractions."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self._fill(Fraction(x), Fraction(y))

    def __repr__(self) -> str:
        return f"({rational_to_decimal(self.x)}, {rational_to_decimal(self.y)})"


PointLike = Point | Infinity


def on_curve(c: Curve, P: PointLike) -> bool:
    if P is INFINITY:
        return True
    return P.y * P.y == P.x**3 + c.A * P.x + c.B


def _require_on_curve(c: Curve, P: PointLike) -> None:
    if not on_curve(c, P):
        raise OffCurveError(f"{P!r} is not on {c!r}")


def neg(P: PointLike) -> PointLike:
    if P is INFINITY:
        return INFINITY
    return Point(P.x, -P.y)


def _add_unchecked(c: Curve, P: PointLike, Q: PointLike) -> PointLike:
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        lam = (3 * P.x * P.x + c.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return Point(x3, y3)


def add(c: Curve, P: PointLike, Q: PointLike) -> PointLike:
    """Group sum of two points on ``c``; off-curve input is rejected."""
    _require_on_curve(c, P)
    _require_on_curve(c, Q)
    return _add_unchecked(c, P, Q)


def scalar_mul(c: Curve, m: int, P: PointLike) -> PointLike:
    """m-fold sum of ``P`` (m >= 0), by double-and-add."""
    if m < 0:
        raise ValueError("scalar must be nonnegative")
    _require_on_curve(c, P)
    result: PointLike = INFINITY
    base = P
    while m:
        if m & 1:
            result = _add_unchecked(c, result, base)
        m >>= 1
        if m:
            base = _add_unchecked(c, base, base)
    return result


def point_order(c: Curve, P: PointLike, cap: int = 16) -> int | None:
    """Least m >= 1 with m*P = O, or None if the order exceeds ``cap``.

    Runs in integers.  On an integral model, which :class:`Curve` enforces,
    a point of finite order and all its multiples have integral coordinates
    (Nagell-Lutz; Silverman, AEC VIII.7.2).  So a non-integral x, or a slope
    that does not divide exactly (its multiple is then non-integral), means
    infinite order and gives None; on the curve, an integral x makes y integral.
    """
    _require_on_curve(c, P)
    if cap < 1:
        return None
    if P is INFINITY:
        return 1
    if P.x.denominator != 1:
        return None
    return _integral_order(c.A, P.x.numerator, P.y.numerator, cap)


def _integral_order(A: int, x0: int, y0: int, cap: int) -> int | None:
    """:func:`point_order` of the integral point (x0, y0) on an integral
    model y**2 = x**3 + A*x + B (B does not enter the group law); the caller
    has checked that the point lies on it and that cap >= 1."""
    x, y = x0, y0
    # (x, y) = (m - 1)P; step to mP
    for m in range(2, cap + 1):
        if x == x0:
            if y == -y0:
                return m
            num, den = 3 * x * x + A, 2 * y
        else:
            num, den = y0 - y, x0 - x
        lam, rem = divmod(num, den)
        if rem:
            return None
        x3 = lam * lam - x - x0
        x, y = x3, lam * (x - x3) - y
    return None


def twist_scale(c: Curve, u) -> Curve:
    """The twist (A, B) -> (u**4 A, u**6 B); requires integral output.

    The companion point map (x, y) -> (u**2 x, u**3 y) is a group isomorphism
    over Q, available as :func:`twist_point`.
    """
    u = Fraction(u)
    if u == 0:
        raise ValueError("twist scale must be nonzero")
    A = u**4 * c.A
    B = u**6 * c.B
    if A.denominator != 1 or B.denominator != 1:
        raise ValueError(f"twist by {u} of {c!r} is not integral")
    return Curve(int(A), int(B))


def twist_point(P: PointLike, u) -> PointLike:
    u = Fraction(u)
    if u == 0:
        raise ValueError("twist scale must be nonzero")
    if P is INFINITY:
        return INFINITY
    return Point(u**2 * P.x, u**3 * P.y)
