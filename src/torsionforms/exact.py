"""Exact arithmetic services.

Integers are plain ``int`` (unbounded), rationals are ``fractions.Fraction``
(always reduced, positive denominator).  On top of those this module provides
dense univariate integer polynomials and homogeneous bivariate forms, which
share one coefficient arithmetic (evaluation, products, powers, equality),
exact rational roots by p-adic (Newton-Hensel) lifting, with no factorization
and no search bound, trial-division factorization by block gcds, and exact
n-th roots.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter


class _Value:
    """Immutable value whose fields are the ``__slots__`` of one subclass:
    assignment raises AttributeError, equality and hash go by type and
    fields, the repr is ``Name(field=value, ...)``, and pickle and copy
    rebuild the value through its constructor, each of whose parameters
    names a field or property."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):
            cls._names = cls.__slots__
            cls._key = attrgetter(*cls.__slots__)
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fill(self, *values) -> None:
        """Set the fields, in slot order; for ``__init__`` only."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        init = type(self).__init__.__code__
        return type(self), tuple(map(self.__getattribute__, init.co_varnames[1:init.co_argcount]))


class _Coeffs(_Value):
    """Immutable integer coefficients and the arithmetic IntPoly and HomForm
    share; each subclass builds its results in ``_like(degree, coeffs)``."""

    __slots__ = ("coeffs",)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero IntPoly."""
        return len(self.coeffs) - 1

    def eval_pair(self, r: int, s: int) -> int:
        """f(r/s) * s**degree for an IntPoly (s != 0); F(r, s) for a HomForm."""
        acc = 0
        sp = 1
        for c in reversed(self.coeffs):
            acc = acc * r + c * sp
            sp *= s
        return acc

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like(self.degree, (other * c for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._like(len(out) - 1, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = self._like(0, (1,))
        for _ in range(k):
            result = result * self
        return result


class IntPoly(_Coeffs):
    """Dense univariate integer polynomial; ``coeffs[i]`` multiplies x**i."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def _like(self, degree: int, coeffs: Iterable[int]) -> "IntPoly":
        return IntPoly(coeffs)  # the trimming finds the degree

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        return self.eval_pair(x, 1)

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

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


class HomForm(_Coeffs):
    """Homogeneous bivariate integer form; ``coeffs[i]`` multiplies p**i * q**(degree-i)."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: Iterable[int]):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree-{degree} form needs {degree + 1} coefficients, got {len(cs)}")
        object.__setattr__(self, "coeffs", cs)

    def _like(self, degree: int, coeffs: Iterable[int]) -> "HomForm":
        return HomForm(degree, coeffs)

    __call__ = _Coeffs.eval_pair

    def dehomogenize(self, sigma: int = 1) -> IntPoly:
        """The univariate polynomial F(sigma*x, 1), coefficients ascending."""
        return IntPoly(c * sigma**i for i, c in enumerate(self.coeffs))

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
    any length; ``ValueError`` on any other string, ``TypeError`` on a non-string."""
    if not isinstance(s, str):
        raise TypeError(f"not a string: {type(s).__name__}")
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

# Trial division runs over blocks of 512 consecutive candidates 6i - 1, 6i + 1
# (_SPAN consecutive integers): one gcd with the block's product, and
# divisions only inside a block whose gcd is not 1.  The products are made on
# first use; the 1024 most recent stay cached, which covers the default trial
# limit, so memory does not grow with the limit.
_SPAN = 6 * 256


@lru_cache(maxsize=1024)
def _block_product(lo: int, hi: int) -> int:
    """The product of the 6i +- 1 in [lo, hi), for lo = 5 mod 6."""
    return math.prod(range(lo, hi, 6)) * math.prod(range(lo + 2, hi, 6))


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
    """Trial-division factorization of ``m``: by 2 and 3, then by the 6i +- 1
    up to ``trial_limit``, while their squares do not exceed what is left,
    taken in blocks of 512; a block is divided through only when its product
    has a common factor with what is left.

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
    for d in (2, 3):
        while n % d == 0:
            n //= d
            primes[d] = primes.get(d, 0) + 1
    for lo in range(5, trial_limit + 1, _SPAN):
        if lo * lo > n:
            break
        hi = min(lo + _SPAN, trial_limit + 1)
        if math.gcd(n, _block_product(lo, hi)) == 1:
            continue
        # a composite candidate never divides what is left: its prime
        # factors are smaller and already divided out
        for d in sorted(chain(range(lo, hi, 6), range(lo + 2, hi, 6))):
            if d * d > n:
                break
            while n % d == 0:
                n //= d
                primes[d] = primes.get(d, 0) + 1
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


def rational_nth_root(x, k: int) -> Fraction | None:
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


def rational_square_root(x) -> Fraction | None:
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


def rational_roots(poly: IntPoly, symmetry: tuple[int, int, int, int] | None = None
                   ) -> set[Fraction]:
    """Exactly the rational roots of ``poly`` (not identically zero).

    The content and the power of x are stripped.  At the first prime p >= 5
    that does not divide the leading coefficient and at which every root of
    f mod p is simple, each such root is Newton-lifted mod p, p**2, p**4, ...
    (``_hensel_lift``) past twice the bound |lead| + max|c_i| on lead * r
    for a rational root r.  The symmetric residue of lead * (lift) over lead
    is the only rational root in that class mod p; it is kept only when exact
    evaluation gives 0.  The squarefree part is taken only after a few primes
    have failed, after which almost every prime succeeds.

    ``symmetry`` = (a, b, c, d), when given, is a Moebius map
    phi(x) = (a x + b)/(c x + d) that is expected to permute the roots.  Once
    a root r is proved, phi is applied until the orbit closes, phi hits a
    pole, or an image is not a root; each image s proved a root by exact
    evaluation is kept, and its residue class mod p is not lifted: as every
    root mod p is simple, that class holds no other rational root.  The
    answer never depends on phi; a wrong map costs only the evaluations.
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
        found: set[int] = set()  # residue classes mod p of the proved roots
        for x in residues:
            if x in found:
                continue
            x, m = _hensel_lift(value, x, p, bound)
            num = lead * x % m
            if num > m // 2:
                num -= m
            r = Fraction(num, lead)
            if f.eval_pair(r.numerator, r.denominator) != 0:
                continue
            roots.add(r)
            if symmetry is None:
                continue
            a, b, c, d = symmetry
            rn, rd = r.numerator, r.denominator
            while True:
                # the image of rn/rd; its denominator is prime to p, like
                # that of every root, whenever it is a root
                sn, sd = a * rn + b * rd, c * rn + d * rd
                if sd == 0:
                    break
                s = Fraction(sn, sd)
                if s in roots or f.eval_pair(s.numerator, s.denominator) != 0:
                    break
                roots.add(s)
                rn, rd = s.numerator, s.denominator
                found.add(rn * pow(rd, -1, p) % p)
        return roots


def integer_roots_monic_cubic(a: int, b: int) -> list[int]:
    """All integer roots of x**3 + a*x + b, in increasing order."""
    return sorted(int(r) for r in rational_roots(IntPoly((b, a, 0, 1))))
