"""Discriminant formulas of the two-parameter families, their degree-reducing
substitutions, the explicit primitive-solution bound for binary forms of
degree r with t prime factors on the right-hand side, and the per-order
solution-count bounds M_n(t)."""

from __future__ import annotations

import math

from .errors import IncompleteFactorizationError
from .exact import HomForm, factorize, int_to_decimal

#: table Degree column (the homogeneous degree after the n <= 4 substitutions)
RAW_DEGREE = {2: 3, 3: 4, 4: 6, 5: 12, 7: 24, 8: 24, 9: 27}

#: degree-reducing substitutions for the small orders
REDUCTION = {2: "y^2 -> y", 3: "x^3 -> x", 4: "y^2 -> y"}


def disc_poly(n: int, x: int, y: int) -> int:
    """Exact value of the tabulated discriminant expression at (x, y)."""
    if n == 2:
        return 2**4 * (4 * x - y * y) * (x + 2 * y * y) ** 2
    if n == 3:
        return 2**4 * 3**3 * (5 * x**3 + y) * (9 * x**3 + y) ** 3
    if n == 4:
        return 2**4 * y * y * (12 * x - 5 * y * y) * (3 * x - y * y) ** 4
    if n == 5:
        return 2**12 * 3**12 * x**5 * y**5 * (x * x + 11 * x * y - y * y)
    if n == 7:
        return (
            2**12 * x**7 * y**7 * (x**3 - 8 * x * x * y + 5 * x * y * y + y**3)
            * (y - x) ** 7
        )
    if n == 8:
        return (
            3**12 * x**8 * y**2 * (8 * x * x - 8 * x * y + y * y)
            * (2 * x - y) ** 4 * (x - y) ** 8
        )
    if n == 9:
        return (
            -(2**8) * x**9 * (x**3 - 6 * x * x * y + 3 * x * y * y + y**3)
            * (x * x - x * y + y * y) ** 3 * (x - y) ** 9
        )
    raise ValueError(f"no discriminant table row for n = {n}")


def reduced_form(n: int) -> HomForm:
    """The homogeneous form obtained by the n <= 4 substitutions (inspection
    only; the corresponding parametrized systems are not modeled here)."""
    if n == 2:  # 16 (4x - y)(x + 2y)^2
        return 16 * (HomForm(1, (-1, 4)) * HomForm(1, (2, 1)) ** 2)
    if n == 3:  # 432 (5x + y)(9x + y)^3
        return 432 * (HomForm(1, (1, 5)) * HomForm(1, (1, 9)) ** 3)
    if n == 4:  # 16 y (12x - 5y)(3x - y)^4
        return 16 * (HomForm(1, (1, 0)) * HomForm(1, (-5, 12)) * HomForm(1, (-1, 3)) ** 4)
    raise ValueError(f"no degree reduction for n = {n}")


def evertse_bound(r: int, t: int) -> int:
    """Primitive-solution bound 7**(15(C(r,3)+1)**2) + 6*7**(2 C(r,3) (t+1))
    for a degree-r binary form equation whose right side has t prime factors."""
    if r < 3:
        raise ValueError("the bound applies to forms of degree at least 3")
    if isinstance(t, bool) or not isinstance(t, int):
        raise TypeError("t must be an integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    c = math.comb(r, 3)
    return 7 ** (15 * (c + 1) ** 2) + 6 * 7 ** (2 * c * (t + 1))


_MAZUR_DEGREES = {  # n -> the form degree r whose evertse_bound is M_n
    **dict.fromkeys((2, 4, 6, 8, 10, 12), 3),
    **dict.fromkeys((3, 9), 4),
    5: 5,
    7: 7,
}


def mazur_count_bound(n: int, t: int) -> int:
    """The printed closed forms: M_2 for even n, M_3 = M_9, M_5, and M_7,
    each ``evertse_bound`` at the degree that ``_MAZUR_DEGREES`` names."""
    if n not in _MAZUR_DEGREES:
        raise ValueError(f"n = {n} is not one of the possible torsion orders")
    return evertse_bound(_MAZUR_DEGREES[n], t)


def prime_factor_count(delta: int, trial_limit: int = 10**6) -> int:
    """Number of distinct prime factors of ``delta`` (nonzero); raises when
    trial division cannot finish, never guesses."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    primes, cofactor = factorize(delta, trial_limit)
    if cofactor != 1:
        raise IncompleteFactorizationError(
            f"|delta| = {int_to_decimal(abs(delta))} left unfactored cofactor "
            f"{int_to_decimal(cofactor)} "
            f"at trial limit {trial_limit}"
        )
    return len(primes)
