"""Exact arithmetic services.

Integers are plain ``int`` (unbounded), rationals are ``fractions.Fraction``
(always reduced, positive denominator).  On top of those this module provides
dense univariate integer polynomials, homogeneous bivariate forms, exact
rational roots by p-adic (Newton-Hensel) lifting, with no factorization and no
search bound, trial-division factorization, and exact n-th roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
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


def rational_to_decimal(x: Fraction) -> str:
    """``str(x)`` for a Fraction of any number of digits."""
    num = int_to_decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_to_decimal(x.denominator)}"


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


# No composite below this bound is a strong probable prime to all of the
# bases (Sorenson and Webster, Math. Comp. 86 (2017)), so below it the test
# is a proof of primality.
_SPRP_BOUND = 3317044064679887385961981
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_sprp(n: int, a: int) -> bool:
    """Whether odd n > a is a strong probable prime to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def factorize(m: int, trial_limit: int = 10**6) -> tuple[dict[int, int], int]:
    """Trial-division factorization of ``m``.

    Returns ``(primes, cofactor)`` with ``primes`` a prime -> exponent table
    and ``cofactor >= 1`` the unfactored part (1 when complete).
    ``sign(m) * prod(p**e) * cofactor == m``.  A remainder is recorded as a
    prime only when it is proved one: by trial division, when it is below
    ``(trial_limit + 1)**2``, or by strong probable-prime tests to the 13
    prime bases 2, ..., 41, when it is below ``_SPRP_BOUND``.  Primality is
    never guessed.
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
    if n > 1 and (math.isqrt(n) <= trial_limit or (
            n < _SPRP_BOUND and all(_is_sprp(n, a) for a in _SPRP_BASES if a < n))):
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
# rational roots of integer polynomials, by p-adic lifting

# primes with a multiple root mod p before the squarefree part is taken: the
# gcd with f' costs far more on a matching polynomial than a few more primes
_SQUAREFREE_AFTER = 3


def _primes_from(p: int):
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _eval_mod(coeffs: tuple[int, ...], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _hensel_lift(f, x: int, m: int, bound: int) -> tuple[int, int]:
    """Newton-lift a root x of f mod m, simple mod the prime under m, to
    (x, M) with f(x) = 0 mod M, where M = m, m**2, m**4, ... is the first
    such modulus above ``bound``.  ``f(x, M)`` is an integer polynomial's
    value mod M.  As f(x + m) - f(x) = m f'(x) mod m**2, the derivative mod m
    is read off two values, and mod m it is all the step needs."""
    while m <= bound:
        mm = m * m
        fx = f(x, mm)
        df = (f(x + m, mm) - fx) % mm // m
        x = (x - fx * pow(df, -1, m)) % mm
        m = mm
    return x, m


def _derivative(f: IntPoly) -> IntPoly:
    return IntPoly(i * c for i, c in enumerate(f.coeffs) if i)


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(q, r) with lead(b)**k * a == q * b + r and deg r < deg b, for some k."""
    r, q, lead, db = list(a.coeffs), [], b.coeffs[-1], b.degree
    while len(r) > db:
        top = r.pop()
        if top:
            r, q = [lead * c for c in r], [lead * c for c in q]
            shift = len(r) - db
            for i, c in enumerate(b.coeffs[:-1]):
                r[shift + i] -= top * c
        q.append(top)
    return IntPoly(reversed(q)), IntPoly(r)


def _squarefree_part(f: IntPoly) -> IntPoly:
    """f over gcd(f, f'), the gcd by the primitive polynomial remainder sequence."""
    a, b = f, _derivative(f)
    while not b.is_zero():
        a, b = b, _pseudo_divmod(a, b)[1].primitive_part()
    return _pseudo_divmod(f, a)[0].primitive_part()


def rational_roots(poly: IntPoly) -> set[Fraction]:
    """Exactly the rational roots of ``poly`` (not identically zero).

    The content and the power of x are stripped.  At the first prime p >= 5
    that does not divide the leading coefficient and at which every root of
    f mod p is simple, each such root is Newton-lifted mod p, p**2, p**4, ...
    (``_hensel_lift``) past twice the bound |lead| + max|c_i| on lead * r
    for a rational root r.  The symmetric residue of lead * (lift) over lead
    is the only rational root in that class mod p; it is kept only when exact
    evaluation gives 0.  The squarefree part is taken only after a few primes
    have failed, after which almost every prime succeeds.
    """
    if poly.is_zero():
        raise ValueError("root set of the zero polynomial is undefined")
    f = poly.primitive_part()
    v = f.valuation()
    roots = {Fraction(0)} if v else set()
    f = f.strip_x_power(v)
    df = _derivative(f)
    failures = 0
    for p in _primes_from(5):
        lead = f.coeffs[-1]
        if lead % p == 0:
            continue
        fp = tuple(c % p for c in f.coeffs)
        residues = [x for x in range(p) if _eval_mod(fp, x, p) == 0]
        if any(_eval_mod(df.coeffs, x, p) == 0 for x in residues):
            failures += 1
            if failures == _SQUAREFREE_AFTER:
                f = _squarefree_part(f)
                df = _derivative(f)
            continue
        bound = 2 * (abs(lead) + max(abs(c) for c in f.coeffs))
        value = partial(_eval_mod, f.coeffs)
        for x in residues:
            x, m = _hensel_lift(value, x, p, bound)
            num = lead * x % m
            if num > m // 2:
                num -= m
            r = Fraction(num, lead)
            if f.eval_pair(r.numerator, r.denominator) == 0:
                roots.add(r)
        return roots


def integer_roots_monic_cubic(a: int, b: int) -> list[int]:
    """All integer roots of x**3 + a*x + b, in increasing order."""
    return sorted(int(r) for r in rational_roots(IntPoly((b, a, 0, 1))))
