"""Brute-force rational torsion oracle.

Torsion points on an integral short Weierstrass curve have integer coordinates
with y = 0 or y**2 dividing the discriminant; candidates are enumerated from
the square divisors of the discriminant, kept when their order is at most 12,
and classified into the fifteen possible rational torsion groups.  A divisor y
is solved for x only when y passes a residue sieve modulo small primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import INFINITY, Curve, Point, PointLike, point_order
from .errors import FamilyDataError, OracleUnavailableError
from .exact import divisors, factorize, int_to_decimal, integer_roots_monic_cubic

MAZUR_ORDER_CAP = 12

# entries kept by each per-curve cache (this oracle, thue's root searches),
# so that a long run's memory stays bounded
CACHE_SIZE = 4096

# moduli of the residue sieve on Nagell-Lutz y-candidates
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)

MAZUR_LABELS = frozenset(
    [f"Z/{n}Z" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [f"Z/2Z x Z/{2 * n}Z" for n in (1, 2, 3, 4)]
)


@dataclass(frozen=True)
class TorsionReport:
    """Full torsion point set with its group label and exponent."""

    points: frozenset
    group_label: str
    exponent: int

    @property
    def order(self) -> int:
        return len(self.points)


def _residue_sieve(A: int, B: int) -> list[tuple[int, frozenset]]:
    """For each sieve prime q, the residues r with r**2 = x**3 + A*x + B mod q
    for some x; an integral point's y lies in every one.  Primes whose set
    holds every residue sieve nothing and are dropped."""
    tables = []
    for q in SIEVE_PRIMES:
        values = {(x * x * x + A * x + B) % q for x in range(q)}
        residues = frozenset(r for r in range(q) if r * r % q in values)
        if len(residues) < q:
            tables.append((q, residues))
    return tables


@lru_cache(maxsize=CACHE_SIZE)
def torsion_points(c: Curve, trial_limit: int = 10**6) -> frozenset:
    """Exactly the rational torsion points of ``c`` (the identity included).

    Raises :class:`OracleUnavailableError` when the discriminant does not
    factor completely within ``trial_limit``; never returns a wrong answer.
    """
    primes, cofactor = factorize(c.disc, trial_limit)
    if cofactor != 1:
        raise OracleUnavailableError(
            f"|disc| = {int_to_decimal(abs(c.disc))} left unfactored cofactor "
            f"{int_to_decimal(cofactor)} "
            f"at trial limit {trial_limit}"
        )
    # y**2 | disc  <=>  y divides the "square root part" of |disc|
    root_part = {p: e // 2 for p, e in primes.items() if e >= 2}

    candidates: set[tuple[int, int]] = set()
    for x in integer_roots_monic_cubic(c.A, c.B):
        candidates.add((x, 0))
    sieve = _residue_sieve(c.A, c.B)
    for y in divisors(root_part):
        if not all(y % q in residues for q, residues in sieve):
            continue
        for x in integer_roots_monic_cubic(c.A, c.B - y * y):
            candidates.add((x, y))
            candidates.add((x, -y))

    points: set[PointLike] = {INFINITY}
    for x, y in candidates:
        P = Point(x, y)
        if point_order(c, P, cap=MAZUR_ORDER_CAP) is not None:
            points.add(P)
    return frozenset(points)


def torsion_structure(c: Curve, trial_limit: int = 10**6) -> TorsionReport:
    """Torsion group structure: cyclic Z/NZ, or Z/2Z x Z/(N/2)Z when the full
    two-torsion is rational."""
    pts = torsion_points(c, trial_limit)
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


def has_point_of_order(c: Curve, n: int, trial_limit: int = 10**6) -> bool:
    """True when some rational torsion point has exact order ``n`` (1 <= n <= 12)."""
    if not 1 <= n <= MAZUR_ORDER_CAP:
        raise ValueError("order must be between 1 and 12")
    if n == 1:
        return True
    for P in torsion_points(c, trial_limit):
        if P is not INFINITY and point_order(c, P, cap=MAZUR_ORDER_CAP) == n:
            return True
    return False
