"""Exact scalar arithmetic: rationals, primality and factoring, p-adic
valuations and truncated p-adics.  The package's power series are the
integer q-expansions of the Tate curve, plain int lists in ``tate``.

Rational numbers are ``fractions.Fraction`` throughout the package: the
stdlib type already guarantees reduced form with positive denominator and
arbitrary precision, which is exactly the contract the rest of the code
relies on.

p-adic elements are certified values, not a ring: an exact rational unit
part, a valuation, and the number of digits past the valuation that are
certified to agree with the intended p-adic limit.  They carry no
arithmetic; the code that makes and reads them (``tate``) works on
integers modulo a power of p.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from math import gcd, isqrt

from .errors import InputError, PrecisionError


@total_ordering
class _Infinity:
    """Positive infinity for p-adic valuations.

    A dedicated singleton (never an ``int``) so that arithmetic on +inf
    cannot silently happen: only comparisons and addition with integers
    are defined.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+Infinity"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("padic-infinity")

    def __lt__(self, other):
        return False

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _Infinity()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first 13 prime bases, a proof of primality below
    ``_MR_PROOF_BOUND`` (about 3.3e24); above it the strong Lucas test too,
    which makes it the Baillie-PSW test, passed by no known composite."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROOF_BOUND or (isqrt(n) ** 2 != n and _strong_lucas(n))


def _strong_lucas(n: int) -> bool:
    """The strong Lucas test of an odd non-square n with no factor below 42,
    with Selfridge's P = 1, Q = (1 - D)/4 and D the first of 5, -7, 9, ...
    with (D/n) = -1 (Baillie-Wagstaff, Math. Comp. 35, 1980): U_k and V_k,
    n + 1 = k 2^s, by U_2m = U_m V_m, V_2m = V_m^2 - 2 Q^m, 2 U_m+1 = U_m +
    V_m and 2 V_m+1 = D U_m + V_m up the bits of k."""
    d = 5
    while (symbol := _jacobi(d, n)) != -1:
        if symbol == 0:
            return False
        d = -d - 2 if d > 0 else 2 - d
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k 2^s, k odd
    u, v, qk, q, half = 0, 2, 1, (1 - d) // 4, (n + 1) // 2  # U_0, V_0, Q^0
    for bit in bin((n + 1) >> s)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (d * u + v) * half % n, qk * q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a, sign = a // 2, -sign if n % 8 in (3, 5) else sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def factorize(n: int) -> dict:
    """{prime: exponent} of |n|: trial division below 10^5, then Pollard
    rho, which is slow on a cofactor with two large prime factors.  A
    factor above 3.3e24 has passed the Baillie-PSW test (see ``is_prime``)."""
    n = abs(int(n))
    if n in (0, 1):
        return {}
    out: dict = {}

    def record(p):
        out[p] = out.get(p, 0) + 1

    for p in (2, 3, 5):
        while n % p == 0:
            record(p)
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            record(f)
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()  # odd and above 1: rho's factor d has 1 < d < m
        if is_prime(m):
            record(m)
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


def _pollard_rho(n: int) -> int:
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def require_prime(p: int) -> None:
    """Raise InputError unless p is prime: the one check of a prime that a
    caller hands in, made where it enters the library."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


def val_p(x: Fraction | int, p: int):
    """p-adic valuation of a rational number; ``INFINITY`` exactly for 0."""
    require_prime(p)
    return _valuation(Fraction(x), p)


def _valuation(x: Fraction | int, p: int):
    """``val_p`` at a prime the caller has already certified (by
    ``require_prime`` or a ``PadicElement``): p is not tested again, and a p
    below 2 would loop forever."""
    if x == 0:
        return INFINITY
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_inverses(units: list, modulus: int) -> list:
    """The inverses of the units mod modulus, by one ``pow`` and prefix
    products (Montgomery, Math. Comp. 48, 1987): the ``pow`` raises
    ValueError exactly where one of the units is not invertible."""
    prefix = [1]
    for u in units:
        prefix.append(prefix[-1] * u % modulus)
    inv = pow(prefix[-1], -1, modulus)
    out = [0] * len(units)
    for i in range(len(units) - 1, -1, -1):
        out[i] = inv * prefix[i] % modulus
        inv = inv * units[i] % modulus
    return out


def bernoulli2(t: Fraction | int) -> Fraction:
    """Second Bernoulli polynomial t^2 - t + 1/6, evaluated exactly."""
    t = Fraction(t)
    return t * t - t + Fraction(1, 6)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or plain integer) strings into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def exact_int(x, name: str) -> int:
    """An integer field: a value that is not exactly an integer (5.7, "1/2",
    or a boolean, which Python counts as 0 or 1) is refused, never
    truncated."""
    if isinstance(x, bool):
        raise InputError(f"{name} must be an integer, not {x!r}")
    try:
        value = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"{name} must be an integer, not {x!r}") from exc
    if value.denominator != 1:
        raise InputError(f"{name} must be an integer, not {x!r}")
    return value.numerator


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" string (plain integer when the denominator is 1)."""
    x = Fraction(x)
    return str(x)


# ---------------------------------------------------------------------------
# Truncated p-adic elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicElement:
    """A p-adic number known modulo p**(valuation + precision).

    ``unit`` is an exact rational with p-adic valuation 0 (except for the
    exact zero, where it is 0).  The represented value is
    ``p**valuation * unit``; only the digits up to the stated precision are
    certified to agree with the intended limit.  A caller that has already
    checked the prime passes ``_prime_checked=True``, and it is not tested
    again.
    """

    prime: int
    unit: Fraction
    valuation: int
    precision: int
    _prime_checked: InitVar[bool] = False

    def __post_init__(self, _prime_checked):
        if not _prime_checked:
            require_prime(self.prime)
        if self.unit != 0:
            if self.unit.numerator % self.prime == 0 or self.unit.denominator % self.prime == 0:
                raise InputError("unit part must have valuation 0")
            if self.precision < 1:
                raise PrecisionError("no certified digits remain")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, prime: int, value: Fraction | int, precision: int) -> "PadicElement":
        value = Fraction(value)
        if value == 0:
            return cls.exact_zero(prime)
        # __post_init__ tests the prime once; below 2 the valuation would
        # not end, so v = 0 leaves the refusal to it
        v = _valuation(value, prime) if prime > 1 else 0
        return cls(prime, value / Fraction(prime) ** v, v, precision)

    @classmethod
    def exact_zero(cls, prime: int) -> "PadicElement":
        return cls(prime, Fraction(0), 0, 1)

    # -- views -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    @cached_property
    def rational(self) -> Fraction:
        """The exact rational representative, computed once."""
        return self.unit * Fraction(self.prime) ** self.valuation

    @property
    def known_mod(self):
        """Exponent k such that the element is certified mod p**k."""
        if self.is_zero():
            return INFINITY
        return self.valuation + self.precision

    def val(self):
        return INFINITY if self.is_zero() else self.valuation

    def __repr__(self):
        if self.is_zero():
            return f"PadicElement({self.prime}, 0)"
        return (
            f"PadicElement({self.prime}, {self.unit}*{self.prime}^{self.valuation}"
            f" + O({self.prime}^{self.known_mod}))"
        )
