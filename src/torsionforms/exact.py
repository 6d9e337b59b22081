"""Exact arithmetic services.

Integers are plain ``int`` (unbounded), rationals are ``fractions.Fraction``
(always reduced, positive denominator).  On top of those this module provides
dense univariate integer polynomials, homogeneous bivariate forms, rational
root extraction, trial-division factorization, and exact n-th roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

Rational = Fraction


class IntPoly:
    """Dense univariate integer polynomial; ``coeffs[i]`` multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_pair(self, r: int, s: int) -> int:
        """f(r/s) * s**degree as an exact integer (s != 0)."""
        acc = 0
        sp = 1
        for c in reversed(self.coeffs):
            acc = acc * r + c * sp
            sp *= s
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly((1,))
        for _ in range(k):
            result = result * self
        return result

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive_part(self) -> "IntPoly":
        g = self.content()
        if g <= 1:
            return self
        return IntPoly(c // g for c in self.coeffs)

    def valuation(self) -> int:
        """Multiplicity of the root x = 0 (0 for a nonzero constant term)."""
        if self.is_zero():
            raise ValueError("valuation of the zero polynomial")
        v = 0
        while self.coeffs[v] == 0:
            v += 1
        return v

    def strip_x_power(self, v: int) -> "IntPoly":
        return IntPoly(self.coeffs[v:])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


class HomForm:
    """Homogeneous bivariate integer form; ``coeffs[i]`` multiplies p**i * q**(degree-i)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable[int]):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree-{degree} form needs {degree + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("HomForm is immutable")

    def __call__(self, p, q):
        acc = 0
        sp = 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * sp
            sp *= q
        return acc

    def __mul__(self, other) -> "HomForm":
        if isinstance(other, int):
            return HomForm(self.degree, (other * c for c in self.coeffs))
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return HomForm(self.degree + other.degree, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HomForm":
        result = HomForm(0, (1,))
        for _ in range(k):
            result = result * self
        return result

    def dehomogenize(self, sigma: int = 1) -> IntPoly:
        """The univariate polynomial F(sigma*x, 1), coefficients ascending."""
        return IntPoly(c * sigma**i for i, c in enumerate(self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("HomForm", self.degree, self.coeffs))

    def __repr__(self) -> str:
        return f"HomForm({self.degree}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# decimal strings of any length

# digits per chunk: far below the interpreter's int<->str digit limit (4300
# by default), which is left untouched
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def int_to_decimal(n: int) -> str:
    """``str(n)`` for an int of any number of digits."""
    sign = "-" if n < 0 else ""
    n = abs(n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def decimal_to_int(s: str) -> int:
    """The int written as an optionally signed string of decimal digits, of
    any length; raises ``ValueError`` on anything else."""
    digits = s[1:] if s[:1] in ("-", "+") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {s[:40]!r}")
    n = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[i:i + _CHUNK_DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if s[:1] == "-" else n


# ---------------------------------------------------------------------------
# factorization

def _trial_candidates(limit: int):
    yield 2
    yield 3
    d, step = 5, 2
    while d <= limit:
        yield d
        d += step
        step = 6 - step


def factorize(m: int, trial_limit: int = 10**6) -> tuple[dict[int, int], int]:
    """Trial-division factorization of ``m``.

    Returns ``(primes, cofactor)`` with ``primes`` a prime -> exponent table
    and ``cofactor >= 1`` the unfactored part (1 when complete).
    ``sign(m) * prod(p**e) * cofactor == m``.  A remainder is recorded as a
    prime only when trial division has proved it one, that is, when it is
    below ``(trial_limit + 1)**2``; primality is never guessed.
    """
    if m == 0:
        raise ValueError("cannot factorize 0")
    if trial_limit < 2:
        raise ValueError("trial_limit must be at least 2")
    n = abs(m)
    primes: dict[int, int] = {}
    for d in _trial_candidates(trial_limit):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            primes[d] = e
    if n > 1 and math.isqrt(n) <= trial_limit:
        # every prime up to sqrt(n) was tried and none divides n
        primes[n] = 1
        n = 1
    return primes, n


def divisors(primes: dict[int, int]) -> list[int]:
    """All positive divisors of the integer described by a prime-power table."""
    out = [1]
    for p, e in primes.items():
        powers = [p**i for i in range(e + 1)]
        out = [d * pw for d in out for pw in powers]
    return sorted(out)


# ---------------------------------------------------------------------------
# exact roots

def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, computed exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_nth_root(x, k: int) -> Optional[Fraction]:
    """The nonnegative exact k-th root of ``x`` if it is a perfect k-th power."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = integer_nth_root(x.numerator, k)
    if rn**k != x.numerator:
        return None
    rd = integer_nth_root(x.denominator, k)
    if rd**k != x.denominator:
        return None
    return Fraction(rn, rd)


def rational_square_root(x) -> Optional[Fraction]:
    """The nonnegative square root of ``x`` when ``x`` is a rational square."""
    return rational_nth_root(x, 2)


# ---------------------------------------------------------------------------
# rational roots of integer polynomials

def _sympy_rational_roots(f: IntPoly) -> set[Fraction]:
    from sympy import Poly, Symbol

    x = Symbol("x")
    roots: set[Fraction] = set()
    _, factors = Poly(list(reversed(f.coeffs)), x).factor_list()
    for fac, _mult in factors:
        if fac.degree() == 1:
            lead, const = (int(c) for c in fac.all_coeffs())
            roots.add(Fraction(-const, lead))
    return roots


def rational_roots(
    poly: IntPoly, trial_limit: int = 10**6, candidate_cap: int = 4096
) -> set[Fraction]:
    """Exactly the rational roots of ``poly`` (not identically zero).

    Candidates r/s with r dividing the constant and s the leading coefficient
    of the content- and x-power-stripped polynomial are verified by exact
    evaluation.  When either coefficient does not factor within ``trial_limit``
    (or the candidate set is very large) the complete answer is obtained from
    an exact polynomial factorization instead.
    """
    if poly.is_zero():
        raise ValueError("root set of the zero polynomial is undefined")
    f = poly.primitive_part()
    v = f.valuation()
    roots: set[Fraction] = set()
    if v:
        roots.add(Fraction(0))
        f = f.strip_x_power(v)
    if f.degree == 0:
        return roots
    if f.degree == 1:
        roots.add(Fraction(-f.coeffs[0], f.coeffs[1]))
        return roots

    c0, cd = abs(f.coeffs[0]), abs(f.coeffs[-1])
    fac0, cof0 = factorize(c0, trial_limit)
    facd, cofd = factorize(cd, trial_limit)
    if cof0 == 1 and cofd == 1:
        # count the candidates before building them: smooth coefficients
        # have millions of divisors, and the fallback below needs none
        if math.prod(e + 1 for e in (*fac0.values(), *facd.values())) <= candidate_cap:
            d0, dd = divisors(fac0), divisors(facd)
            f1, fm1 = f(1), f(-1)
            for s in dd:
                for r in d0:
                    if math.gcd(r, s) != 1:
                        continue
                    for rr in (r, -r):
                        if f1 and rr != s and f1 % (rr - s):
                            continue
                        if fm1 and rr != -s and fm1 % (rr + s):
                            continue
                        if f.eval_pair(rr, s) == 0:
                            roots.add(Fraction(rr, s))
            return roots
    return roots | _sympy_rational_roots(f)


# ---------------------------------------------------------------------------
# integer roots of monic cubics (Nagell-Lutz candidate solver)

def _bisect_increasing(f, lo: int, hi: int) -> Optional[int]:
    if lo > hi:
        return None
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo > 0 or fhi < 0:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fm = f(mid)
        if fm == 0:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return None


def integer_roots_monic_cubic(a: int, b: int) -> list[int]:
    """All integer roots of x**3 + a*x + b, by exact monotone bisection."""

    def f(t: int) -> int:
        return t * t * t + a * t + b

    bound = 1 + max(abs(a), abs(b))
    roots = set()
    if a >= 0:
        intervals = [(-bound, bound)]
    else:
        # critical points at +-sqrt(-a/3); split into three monotone pieces
        k = math.isqrt((-a) // 3)
        while 3 * (k + 1) * (k + 1) <= -a:
            k += 1
        ceil_r = k if 3 * k * k == -a else k + 1
        intervals = [(-bound, -ceil_r), (ceil_r, bound)]
        # the middle piece is decreasing; bisect its negation
        r = _bisect_increasing(lambda t: -f(t), -k, k)
        if r is not None:
            roots.add(r)
    for lo, hi in intervals:
        r = _bisect_increasing(f, lo, hi)
        if r is not None:
            roots.add(r)
    return sorted(roots)
