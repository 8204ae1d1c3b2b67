"""Fixed point on Python ints for the archimedean place: a real v at scale
2^f is an int within one unit of v 2^f, a complex one the pair of its
parts."""

from __future__ import annotations

import math
from math import isqrt

_GUARD = 32  # the bits that exp carries past its scale


def exp(x: int, f: int) -> int:
    """e^x for x >= 0 at scale 2^f: the Taylor series at x / 2^h, below
    2^-8, then h squarings."""
    g, h = f + _GUARD, max(0, x.bit_length() - f + 8)
    y, total, term, k = (x << _GUARD) >> h, 1 << g, 1 << g, 0
    while term:
        k += 1
        term = (term * y >> g) // k
        total += term
    for _ in range(h):
        total = total * total >> g
    return total >> _GUARD


def log(x: int, e: int, f: int) -> int:
    """log(x / 2^e) for x > 0, at scale 2^f: y from math.log, then log w for
    w = x 2^-e e^-y = 1 + O(2^-40) as (w - 1) R_C((1 + w)^2/4, w), R_C(a, b)
    = R_F(a, b, b) (Carlson 1995), whose duplication stops at once."""
    k, one = max(0, x.bit_length() - 60), 1 << f
    y = int(math.ldexp(math.log(x >> k) + (k - e) * math.log(2), 60)) << (f - 60)
    big = exp(abs(y), f)  # e^|y| >= 1, to 2^-f relative
    w = (x << 2 * f) // (big << e) if y >= 0 else x * big >> e
    return y + ((w - one) * carlson_rf((one + w) ** 2 >> f + 2, w, w, f) >> f)


def carlson_rf(x: int, y: int, z: int, f: int) -> int:
    """Carlson's R_F(x, y, z) for x, y, z >= 0 at scale 2^f: duplication
    until the spread is below 2^-(f/8 + 2) of the mean, then the series of
    degree 7 in it (Carlson 1995; DLMF 19.36.1), whose tail is below 2^-f."""
    while True:
        a = (x + y + z) // 3
        if max(abs(a - x), abs(a - y), abs(a - z)) << f // 8 + 2 <= a:
            break
        rx, ry, rz = isqrt(x << f), isqrt(y << f), isqrt(z << f)
        lam = (rx * ry + ry * rz + rz * rx) >> f
        x, y, z = (x + lam) >> 2, (y + lam) >> 2, (z + lam) >> 2
    dx, dy = ((a - x) << f) // a, ((a - y) << f) // a
    dz = -dx - dy
    e2, e3 = (dx * dy - dz * dz) >> f, (dx * dy >> f) * dz >> f
    e22 = e2 * e2 >> f
    s = (240240 << f) - 24024 * e2 + 17160 * e3 + 10010 * e22 + (
        -16380 * e2 * e3 - 5775 * e22 * e2 + 6930 * e3 * e3 + 15015 * e22 * e3 >> f)
    return (s << f) // (240240 * isqrt(a << f))


def inverse(u: tuple, f: int) -> tuple:
    """1/u for a complex u = (re, im) at scale 2^f."""
    norm = u[0] * u[0] + u[1] * u[1]
    return (u[0] << 2 * f) // norm, (-u[1] << 2 * f) // norm
