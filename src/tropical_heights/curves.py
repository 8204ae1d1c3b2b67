"""Elliptic curves over Q in long Weierstrass form, with the exact group
law, standard invariants, and coordinate changes.

A curve is y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with rational
coefficients; all derived quantities (b2..b8, c4, c6, disc, j) are exact
Fractions, computed once, on first use.  They are worked out in one pass on
the integers of the integral model A_i = a_i s^i (s the lcm of the
coefficient denominators), and each is one Fraction over a power of s:
b_k = B_k / s^k, c4 = C4 / s^4, c6 = C6 / s^6, disc = D / s^12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InputError

# Mazur: a rational torsion point on a curve over Q has order at most 12
_MAZUR_BOUND = 12


def duplication(n: int, d: int, b: tuple) -> tuple:
    """Numerator and denominator of x(2P) for x(P) = n/d, as the degree-4
    forms F(n, d) and G(n, d); b = (b2, b4, b6, b8)."""
    b2, b4, b6, b8 = b
    n2, d2 = n * n, d * d
    n3, d3 = n2 * n, d2 * d
    num = n2 * n2 - b4 * n2 * d2 - 2 * b6 * n * d3 - b8 * d2 * d2
    den = 4 * n3 * d + b2 * n2 * d2 + 2 * b4 * n * d3 + b6 * d2 * d2
    return num, den


@dataclass(frozen=True)
class CurvePoint:
    """Affine rational point or the point at infinity."""

    x: Fraction | None = None
    y: Fraction | None = None
    infinity: bool = False

    @classmethod
    def zero(cls) -> "CurvePoint":
        return cls(infinity=True)

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        return cls(x=Fraction(x), y=Fraction(y))

    def __bool__(self):
        return not self.infinity

    def __repr__(self):
        return "O" if self.infinity else f"({self.x}, {self.y})"


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.discriminant == 0:
            raise InputError("singular Weierstrass equation (disc = 0)")

    @classmethod
    def from_coeffs(cls, a1, a2, a3, a4, a6) -> "WeierstrassCurve":
        return cls(Fraction(a1), Fraction(a2), Fraction(a3), Fraction(a4), Fraction(a6))

    # -- invariants ----------------------------------------------------------

    @cached_property
    def _scaled_invariants(self) -> tuple:
        """(B2, B4, B6, B8, C4, C6, D) as ints: the invariants of the
        integral model A_i = a_i s^i, s = ``integral_scale``, each the
        curve's own times s to its weight."""
        s = self.integral_scale
        a1, a2, a3, a4, a6 = (a.numerator * (s**i // a.denominator) for a, i in zip(
            (self.a1, self.a2, self.a3, self.a4, self.a6), (1, 2, 3, 4, 6)))
        b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        b8 = b2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        return b2, b4, b6, b8, c4, c6, disc

    def _invariant(self, index: int, weight: int) -> Fraction:
        return Fraction(self._scaled_invariants[index], self.integral_scale**weight)

    @cached_property
    def b2(self) -> Fraction:
        return self._invariant(0, 2)

    @cached_property
    def b4(self) -> Fraction:
        return self._invariant(1, 4)

    @cached_property
    def b6(self) -> Fraction:
        return self._invariant(2, 6)

    @cached_property
    def b8(self) -> Fraction:
        return self._invariant(3, 8)

    @cached_property
    def c4(self) -> Fraction:
        return self._invariant(4, 4)

    @cached_property
    def c6(self) -> Fraction:
        return self._invariant(5, 6)

    @cached_property
    def discriminant(self) -> Fraction:
        return self._invariant(6, 12)

    @cached_property
    def j_invariant(self) -> Fraction:
        """c4^3 / disc = C4^3 / D: the powers of s cancel."""
        invariants = self._scaled_invariants
        return Fraction(invariants[4] ** 3, invariants[6])

    @cached_property
    def integral_scale(self) -> int:
        """lcm s of the coefficient denominators: x -> s^2 x gives an integral model."""
        return lcm(*(a.denominator for a in (self.a1, self.a2, self.a3, self.a4, self.a6)))

    # -- membership and group law --------------------------------------------

    def residue(self, p: CurvePoint) -> Fraction:
        """Exact value of y^2 + a1 x y + a3 y - (x^3 + a2 x^2 + a4 x + a6) at p,
        zero exactly when p is on the curve."""
        if p.infinity:
            return Fraction(0)
        x, y = p.x, p.y
        a1, a2, a3, a4, a6 = (a.numerator if a.denominator == 1 else a
                              for a in (self.a1, self.a2, self.a3, self.a4, self.a6))
        e, r = divmod(y.denominator, x.denominator)
        if r == 0 and e * e == x.denominator:  # (X/e^2, Y/e^3): in integers, times e^6
            x, y, e2 = x.numerator, y.numerator, e * e
            return Fraction(y * (y + a1 * x * e + a3 * e2 * e)
                            - ((x + a2 * e2) * x + a4 * e2 * e2) * x - a6 * e2**3, e2**3)
        return (y + a1 * x + a3) * y - ((x + a2) * x + a4) * x - a6

    def contains(self, p: CurvePoint) -> bool:
        return self.residue(p) == 0

    def negate(self, p: CurvePoint) -> CurvePoint:
        if p.infinity:
            return p
        return CurvePoint.affine(p.x, -p.y - self.a1 * p.x - self.a3)

    def add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        if p.infinity:
            return q
        if q.infinity:
            return p
        if p.x == q.x:
            if p.y + q.y + self.a1 * q.x + self.a3 == 0:
                return CurvePoint.zero()
            # tangent slope
            lam = (
                3 * p.x**2 + 2 * self.a2 * p.x + self.a4 - self.a1 * p.y
            ) / (2 * p.y + self.a1 * p.x + self.a3)
        else:
            lam = (q.y - p.y) / (q.x - p.x)
        nu = p.y - lam * p.x
        x3 = lam**2 + self.a1 * lam - self.a2 - p.x - q.x
        y3 = -(lam + self.a1) * x3 - nu - self.a3
        return CurvePoint.affine(x3, y3)

    def double(self, p: CurvePoint) -> CurvePoint:
        return self.add(p, p)

    def torsion_order(self, p: CurvePoint) -> int | None:
        """Order of p if it is torsion, else None.

        Over Q a torsion point has order at most 12 (Mazur), and on the
        integral model x -> s^2 x, s = ``integral_scale``, it has 4x in Z:
        x is integral unless the point has order 2, when 4x is (Silverman,
        AEC VII.3.4).  So has every multiple, and the answer is None at the
        first multiple with 4 s^2 x not in Z.  P, 2P and 4P, which almost
        always decide a point of infinite order, are tested on ints by the
        duplication forms, and only a point that passes is walked."""
        bound = 4 * self.integral_scale**2
        if not p.infinity:  # P, 2P and 4P
            x = p.x * self.integral_scale**2
            for _ in range(3):
                if 4 % x.denominator:
                    return None
                num, den = duplication(x.numerator, x.denominator, self._scaled_invariants[:4])
                if den == 0:
                    break
                x = Fraction(num, den)
        acc = CurvePoint.zero()
        for n in range(1, _MAZUR_BOUND + 1):
            acc = self.add(acc, p)
            if acc.infinity:
                return n
            if bound % acc.x.denominator:
                return None
        return None

    # -- coordinate changes ----------------------------------------------------

    def transform(self, u, r, s, t) -> "WeierstrassCurve":
        """Substitution x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
        u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
        if u == 0:
            raise InputError("u must be nonzero")
        a1 = (self.a1 + 2 * s) / u
        a2 = (self.a2 - s * self.a1 + 3 * r - s**2) / u**2
        a3 = (self.a3 + r * self.a1 + 2 * t) / u**3
        a4 = (
            self.a4 - s * self.a3 + 2 * r * self.a2 - (t + r * s) * self.a1
            + 3 * r**2 - 2 * s * t
        ) / u**4
        a6 = (
            self.a6 + r * self.a4 + r**2 * self.a2 + r**3
            - t * self.a3 - t**2 - r * t * self.a1
        ) / u**6
        return WeierstrassCurve(a1, a2, a3, a4, a6)

    @staticmethod
    def transform_point(p: CurvePoint, u, r, s, t) -> CurvePoint:
        """Image of a point under the same substitution (old -> new)."""
        if p.infinity:
            return p
        u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
        x_new = (p.x - r) / u**2
        y_new = (p.y - s * (p.x - r) - t) / u**3
        return CurvePoint.affine(x_new, y_new)
