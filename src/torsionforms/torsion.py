"""Rational torsion oracle by division polynomials; it never factors.

The torsion of an integral model injects into E(F_p) at each odd prime p of
good reduction (Silverman, AEC VII.3.1), so its order divides the gcd N of a
few such #E(F_p).  The torsion points have integral x (Nagell-Lutz), and
the x of the nonzero points of E[N] are the roots of the division polynomial
psi_N**2 (Washington, Elliptic Curves, 3.2), the 2-torsion included; they are
Newton-lifted p-adically from the roots mod p by ``exact._hensel_lift``, the
lift ``exact.rational_roots`` uses too, and kept when they give points of
order at most 12.  The points are classified into the fifteen possible
rational torsion groups.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .curves import INFINITY, Curve, Point, _integral_order
from .errors import FamilyDataError
from .exact import _hensel_lift, _primes_from, _Value

MAZUR_ORDER_CAP = 12

# entries kept by each per-curve cache (this oracle, thue's root searches),
# so that a long run's memory stays bounded
CACHE_SIZE = 4096

# odd primes of good reduction whose point counts bound the torsion order
COUNT_PRIMES = 8

MAZUR_LABELS = frozenset(
    [f"Z/{n}Z" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [f"Z/2Z x Z/{2 * n}Z" for n in (1, 2, 3, 4)]
)


class TorsionReport(_Value):
    """Full torsion point set with its group label and exponent."""

    __slots__ = ("points", "group_label", "exponent")

    def __init__(self, points: frozenset, group_label: str, exponent: int):
        self._fill(points, group_label, exponent)

    @property
    def order(self) -> int:
        return len(self.points)


def _count_points(A: int, B: int, p: int) -> int:
    """#E(F_p) for y**2 = x**3 + A*x + B at an odd prime p of good reduction:
    the point at infinity plus, for each x, the number of square roots of the
    right-hand side."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    a, b = A % p, B % p
    return 1 + sum(roots[(x * x * x + a * x + b) % p] for x in range(p))


def _division_value(N: int, A: int, B: int, x: int, m: int) -> int:
    """g_N(x) mod m, where g_N is the division polynomial psi_N for odd N and
    psi_N / psi_2 for even N, by the doubling recurrence on values (N >= 1);
    for even N, times x**3 + A*x + B, whose roots are the 2-torsion x.  Either
    way the value vanishes exactly at the x of the nonzero points of E[N]."""
    f = (x**3 + A * x + B) % m
    F = 16 * f * f % m
    g = [0, 1, 1, (3 * x**4 + 6 * A * x * x + 12 * B * x - A * A) % m,
         2 * (x**6 + 5 * A * x**4 + 20 * B * x**3 - 5 * A * A * x * x
              - 4 * A * B * x - 8 * B * B - A**3) % m]
    for k in range(5, N + 1):
        h = k // 2
        if k % 2 == 0:
            v = g[h] * (g[h + 2] * g[h - 1] ** 2 - g[h - 2] * g[h + 1] ** 2)
        elif h % 2 == 0:
            v = F * g[h + 2] * g[h] ** 3 - g[h - 1] * g[h + 1] ** 3
        else:
            v = g[h + 2] * g[h] ** 3 - F * g[h - 1] * g[h + 1] ** 3
        g.append(v % m)
    return g[N] if N % 2 else g[N] * f % m


def _division_roots(N: int, A: int, B: int, disc: int) -> list[int]:
    """Every integer x with |x| <= X that is the x of a nonzero point of E[N],
    and other integers besides, where X = max(isqrt(2|A|), 2**ceil(b/3)) + 1
    and b is the bit length of 2(|D| + |B|), D = 4A**3 + 27B**2 = -disc/16;
    2**ceil(b/3) bounds the cube root of 2(|D| + |B|).  Each root of
    ``_division_value`` mod the first odd prime p not dividing N * disc, a
    simple root there, is Newton-lifted by ``exact._hensel_lift`` until the
    modulus exceeds 2X, and its symmetric residue is returned."""
    p = next(q for q in _primes_from(3) if N * disc % q)
    cube = 2 * (abs(disc) // 16 + abs(B))
    bound = 2 * (max(math.isqrt(2 * abs(A)), 1 << -(-cube.bit_length() // 3)) + 1)
    value = partial(_division_value, N, A, B)
    lifts = []
    for x in range(p):
        if value(x, p) == 0:
            x, m = _hensel_lift(value, x, p, bound)
            lifts.append(x - m if x > m // 2 else x)
    return lifts


@lru_cache(maxsize=CACHE_SIZE)
def torsion_points(c: Curve) -> frozenset:
    """Exactly the rational torsion points of ``c`` (the identity included)."""
    A, B, disc = c.A, c.B, c.disc
    N, primes = 0, _primes_from(3)
    for _ in range(COUNT_PRIMES):
        p = next(q for q in primes if disc % q)
        N = math.gcd(N, _count_points(A, B, p))
        if N == 1:
            break
    points = {INFINITY}
    # Nagell-Lutz: y = 0 or y**2 | D = 4A**3 + 27B**2.  So |x| <= X: either
    # x**2 < 2|A|, or |x|**3 / 2 <= |x**3 + Ax| = |y**2 - B| <= |D| + |B|
    for x in _division_roots(N, A, B, disc):
        rhs = x**3 + A * x + B
        y = math.isqrt(max(rhs, 0))
        if y * y == rhs and _integral_order(A, x, y, MAZUR_ORDER_CAP) is not None:
            points |= {Point(x, y), Point(x, -y)}
    return frozenset(points)


def torsion_structure(c: Curve) -> TorsionReport:
    """Torsion group structure: cyclic Z/NZ, or Z/2Z x Z/(N/2)Z when the full
    two-torsion is rational."""
    pts = torsion_points(c)
    n = len(pts)
    two_torsion = sum(1 for P in pts if P is INFINITY or P.y == 0)
    if two_torsion == 4:
        label = f"Z/2Z x Z/{n // 2}Z"
        exponent = n // 2
    else:
        label = f"Z/{n}Z"
        exponent = n
    if label not in MAZUR_LABELS:
        raise FamilyDataError(f"computed torsion {label} is outside the fifteen rational groups")
    return TorsionReport(points=pts, group_label=label, exponent=exponent)


def has_point_of_order(c: Curve, n: int) -> bool:
    """True when some rational torsion point has exact order ``n`` (1 <= n <= 12):
    a finite abelian group has an element of order n exactly when n divides
    its exponent."""
    if not 1 <= n <= MAZUR_ORDER_CAP:
        raise ValueError("order must be between 1 and 12")
    return torsion_structure(c).exponent % n == 0
