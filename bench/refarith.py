"""Reference arithmetic the benchmark checks answers against.

Written from the textbook formulas, independently of ``torsionforms``:

* the chord-and-tangent group law on Y**2 = X**3 + A X + B over Q;
* #E(F_l) for a prime l of good reduction, by Euler's criterion;
* Kubert's Tate normal forms E(b, c): Y**2 + (1-c)XY - bY = X**3 - bX**2
  with (0, 0) of order n (Kubert 1976, table 3), and their conversion to an
  integral short model (Silverman, AEC III.1).
"""

from __future__ import annotations

import math
from fractions import Fraction

ORDERS = (5, 7, 8, 9)

# The paper's branch sets k and witness orientation alpha = sigma * p / q,
# and its side conditions on (p, q), per order n.
BRANCHES = {5: (Fraction(1),), 7: (Fraction(1), Fraction(1, 3)),
            8: (Fraction(1), Fraction(1, 2)), 9: (Fraction(1), Fraction(1, 3))}
SIGMA = {5: -1, 7: 1, 8: 1, 9: 1}


def side_conditions_ok(n: int, p: int, q: int) -> bool:
    if n != 8 and (p == 0 or q == 0):
        return False
    if n != 5 and p == q:
        return False
    return not (n == 8 and 2 * p == q)


# ---------------------------------------------------------------------------
# group law over Q; None is the point at infinity

def on_curve(A, B, P) -> bool:
    if P is None:
        return True
    x, y = P
    return y * y == x * x * x + A * x + B


def add(A, B, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = Fraction(3 * x1 * x1 + A) / (2 * y1)
    else:
        lam = Fraction(y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def order(A, B, P, cap: int = 12):
    """Exact order of the rational point P; None when P is not on the curve
    or its order exceeds ``cap``."""
    if not on_curve(A, B, P):
        return None
    Q = P
    for m in range(1, cap + 1):
        if Q is None:
            return m
        Q = add(A, B, Q, P)
    return None


def disc(A, B):
    return -16 * (4 * A**3 + 27 * B**2)


def j_invariant(A, B) -> Fraction:
    return Fraction(6912 * A**3) / (4 * A**3 + 27 * B**2)


# ---------------------------------------------------------------------------
# reduction mod l

def count_points(A: int, B: int, l: int) -> int:
    """#E(F_l) for a prime l >= 5 of good reduction, by Euler's criterion."""
    a, b, half = A % l, B % l, (l - 1) // 2
    total = l + 1
    for x in range(l):
        v = (x * x * x + a * x + b) % l
        if v:
            total += 1 if pow(v, half, l) == 1 else -1
    return total


def primes_from(lo: int, count: int) -> list[int]:
    out, m = [], max(lo, 2)
    while len(out) < count:
        if all(m % d for d in range(2, math.isqrt(m) + 1)):
            out.append(m)
        m += 1
    return out


CERT_PRIMES = primes_from(5, 120)


def absence_certificate(A: int, B: int, n: int):
    """A prime l >= 5 with l not dividing n*disc and n not dividing #E(F_l),
    which proves that E has no rational point of order n; None if no prime
    below 700 gives one."""
    d = n * disc(A, B)
    for l in CERT_PRIMES:
        if d % l and count_points(A, B, l) % n:
            return l
    return None


def torsion_bound(A: int, B: int, count: int = 4) -> int:
    """gcd of #E(F_l) over the first ``count`` primes l >= 5 of good
    reduction; the rational torsion group injects into each E(F_l)."""
    d, g, used = disc(A, B), 0, 0
    for l in CERT_PRIMES:
        if d % l:
            g = math.gcd(g, count_points(A, B, l))
            used += 1
            if used == count:
                return g
    raise ArithmeticError("too few primes of good reduction")


def group_order(label: str) -> int:
    """Order of a torsion group written as Z/mZ or Z/2Z x Z/mZ."""
    parts = [int(p.strip()[2:-1]) for p in label.split("x")]
    return math.prod(parts)


# ---------------------------------------------------------------------------
# Kubert's Tate normal forms

def tate_bc(n: int, t):
    """(b, c) of the Tate normal form with (0, 0) of order n at parameter t,
    or None where the parametrization is undefined."""
    t = Fraction(t)
    if n == 5:
        return t, t
    if n == 7:
        return t**3 - t**2, t**2 - t
    if n == 8:
        if t == 0:
            return None
        b = (2 * t - 1) * (t - 1)
        return b, b / t
    if n == 9:
        c = t * t * (t - 1)
        return c * (t * t - t + 1), c
    raise ValueError(f"no Tate normal form for n = {n}")


def tate_short(n: int, t):
    """The short model (A, B) = (-27 c4, -54 c6) of E(b, c) at t, and the image
    of (0, 0) under (x, y) -> (36x + 3 b2, 108(2y + a1 x + a3)); None where
    the Tate curve is undefined or singular."""
    bc = tate_bc(n, t)
    if bc is None:
        return None
    b, c = bc
    a1, a2, a3 = 1 - c, -b, -b
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3, a3 * a3
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4, -54 * c6
    if 4 * A**3 + 27 * B**2 == 0:
        return None
    return A, B, (3 * b2, 108 * a3)


def integral_model(A: Fraction, B: Fraction, P):
    """The u-scaling (u**4 A, u**6 B), (u**2 x, u**3 y) with u the least common
    denominator, giving an integral short model."""
    u = math.lcm(Fraction(A).denominator, Fraction(B).denominator)
    return int(A * u**4), int(B * u**6), (P[0] * u**2, P[1] * u**3)


def twist(A: int, B: int, P, u: int):
    return A * u**4, B * u**6, (P[0] * u**2, P[1] * u**3)


def planted_curve(n: int, t):
    """Integral short curve with a rational point of order n, from Kubert's
    E(b, c) at t, and that point; None where the Tate curve degenerates."""
    short = tate_short(n, t)
    if short is None:
        return None
    return integral_model(*short)
