"""Per-prime arithmetic for elliptic curves over Q: minimal models,
reduction types, multiplicative-reduction parameters and the normalized
canonical local heights at non-archimedean places.

A p-minimal model is rebuilt from (c4, c6) by one closed form at every
prime (Kraus's conditions at p = 2, 3), with no search over residues.
The Tate curve's integer q-expansions are int lists from one sigma_k
sieve, read on the p-adic side alone.  A point built from a parameter
sums Lambert series over q's own units 1 - q^m.

All local height values are exact rationals in v-units (a uniformizer has
valuation one); multiply by log p only at global assembly time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .curves import CurvePoint, WeierstrassCurve
from .errors import (AdditiveReductionError, InputError, OnDivisorError, PreconditionError,
                     PrecisionError)
from .exact import INFINITY, PadicElement, _valuation, bernoulli2, require_prime, unit_inverses


# ---------------------------------------------------------------------------
# Integer q-expansions
# ---------------------------------------------------------------------------


def sigma_coefficients(k: int, order: int) -> list:
    """[0, sigma_k(1), ..., sigma_k(order-1)] by divisor sieving."""
    out = [0] * order
    for d in range(1, order):
        step = d**k
        for n in range(d, order, d):
            out[n] += step
    return out


def eisenstein4_coefficients(order: int) -> list:
    return [1] + [240 * c for c in sigma_coefficients(3, order)[1:]]


def eisenstein6_coefficients(order: int) -> list:
    return [1] + [-504 * c for c in sigma_coefficients(5, order)[1:]]


def tate_coefficients(order: int) -> tuple:
    """(a4, a6) of the Tate curve from one sieve of sigma_3 and sigma_5:
    a4 = -5 sigma_3 and a6 = -(5 sigma_3 + 7 sigma_5) / 12."""
    s3 = sigma_coefficients(3, order)
    num = [5 * a + 7 * b for a, b in zip(s3, sigma_coefficients(5, order))]
    if any(c % 12 for c in num):
        raise AssertionError("5 sigma3 + 7 sigma5 must be divisible by 12")
    return [-5 * c for c in s3], [-c // 12 for c in num]


def _series_mul(a: list, b: list) -> list:
    """Product of two int series, truncated to the shorter one."""
    n = min(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def _series_div(a: list, b: list) -> list:
    """a / b for an int series b with constant term 1 and len(b) >= len(a),
    truncated to len(a)."""
    out = []
    for k, c in enumerate(a):
        out.append(c - sum(b[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _e4_cubed_and_discriminant(order: int) -> tuple:
    """(E4^3, q prod (1-q^n)^24) to order, the second as (E4^3 - E6^2)/1728."""
    e4, e6 = eisenstein4_coefficients(order), eisenstein6_coefficients(order)
    e4_cubed = _series_mul(_series_mul(e4, e4), e4)
    diff = [a - b for a, b in zip(e4_cubed, _series_mul(e6, e6))]
    if any(c % 1728 for c in diff):
        raise AssertionError("E4^3 - E6^2 must be divisible by 1728")
    return e4_cubed, [c // 1728 for c in diff]


def j_times_q_coefficients(order: int) -> list:
    """q*j(q) = 1 + 744 q + 196884 q^2 + ... = E4^3 / (Delta / q) on ints."""
    e4_cubed, disc = _e4_cubed_and_discriminant(order + 1)
    return _series_div(e4_cubed[:order], disc[1:])


def _eval_int_series(coeffs: list, q: PadicElement) -> Fraction:
    """Exact rational value of sum c_n q^n, truncated once the terms vanish
    mod p**q.known_mod, to which precision it is certified; with q = a/b, by
    Horner's rule on the integers c_n a^n b^(N-n), over b^N; v(q) > 0."""
    n_max = -((-q.known_mod) // q.val())  # ceil(known_mod / v(q))
    a, b = q.rational.numerator, q.rational.denominator
    terms = coeffs[: n_max + 1]
    acc, b_power = 0, 1
    for c in reversed(terms):
        acc = acc * a + c * b_power
        b_power *= b
    return Fraction(acc, b ** (len(terms) - 1))


# ---------------------------------------------------------------------------
# Minimal models and reduction types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transformation:
    """Weierstrass substitution x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    @classmethod
    def identity(cls) -> "Transformation":
        return _IDENTITY

    def push_point(self, p: CurvePoint) -> CurvePoint:
        if self == _IDENTITY:
            return p
        return WeierstrassCurve.transform_point(p, self.u, self.r, self.s, self.t)


_IDENTITY = Transformation(Fraction(1), Fraction(0), Fraction(0), Fraction(0))


_COEFFS = ("a1", "a2", "a3", "a4", "a6")


def _p_integral(curve: WeierstrassCurve, p: int) -> bool:
    return all(getattr(curve, n).denominator % p for n in _COEFFS)


def minimal_model_at(curve: WeierstrassCurve, p: int) -> tuple:
    """A p-minimal model together with the transformation old -> new.

    A p-integral input with v(disc) < 12 or v(c4) < 4 is minimal and comes
    back unchanged.  Otherwise the minimal model is rebuilt from its
    invariants c4 / p^4k and c6 / p^6k, with k the largest exponent that
    leaves c4, c6 and disc p-integral; where Kraus's conditions fail at
    p = 2 or 3 the rebuilt model is not p-integral, and k steps down.  A
    p-integral input reached at k = 0 was minimal.  The transformation
    has u = p^k and the (r, s, t) that carries a1, a2, a3 to the model's.
    """
    require_prime(p)
    integral = _p_integral(curve, p)
    vd, vc4 = _valuation(curve.discriminant, p), _valuation(curve.c4, p)
    if integral and (vd < 12 or vc4 < 4):
        return curve, Transformation.identity()
    k = min(v // w for v, w in ((vd, 12), (vc4, 4), (_valuation(curve.c6, p), 6))
            if v is not INFINITY)
    while not (k == 0 and integral):
        u = Fraction(p) ** k
        model = _model_from_invariants(curve.c4 / u**4, curve.c6 / u**6, p)
        if _p_integral(model, p):
            s = (u * model.a1 - curve.a1) / 2
            r = (u**2 * model.a2 - curve.a2 + s * curve.a1 + s * s) / 3
            t = (u**3 * model.a3 - curve.a3 - r * curve.a1) / 2
            return model, Transformation(u, r, s, t)
        k -= 1
    return curve, Transformation.identity()


def _model_from_invariants(c4: Fraction, c6: Fraction, p: int) -> WeierstrassCurve:
    """The model with invariants c4, c6 (p-integral, as is their disc) that
    Kraus's conditions give: b2 = -c6 mod 4 at p = 2, mod 3 at p = 3, 0 at
    p >= 5, then b4 and b6 from c4 = b2^2 - 24 b4 and c6 = -b2^3 + 36 b2 b4
    - 216 b6.  It is p-integral iff the conditions hold, as always at p >= 5
    (Kraus, Acta Arith. 54, 1989; Cremona, Algorithms, 3.2)."""
    b2 = _mod_p(-c6, p, 2 if p == 2 else 1) if p <= 3 else 0
    b4 = (b2 * b2 - c4) / 24
    b6 = (-b2**3 + 36 * b2 * b4 - c6) / 216
    # b6 mod 2 is its numerator's parity when b6 is 2-integral
    a1, a3 = (b2 % 2, b6.numerator % 2) if p == 2 else (0, 0)
    return WeierstrassCurve(a1, Fraction(b2 - a1, 4), a3, (b4 - a1 * a3) / 2, (b6 - a3 * a3) / 4)


def _mod_p(x: Fraction, p: int, k: int = 1) -> int:
    """Residue of a p-integral rational (Fraction or int) modulo p**k."""
    m = p**k
    if x.denominator % p == 0:
        raise InputError("value is not p-integral")
    return x.numerator * pow(x.denominator, -1, m) % m


@dataclass(frozen=True)
class ReductionType:
    kind: str  # "good" | "split multiplicative" | "nonsplit multiplicative" | "additive"
    multiplicity: int  # v_p(minimal discriminant); 0 for good reduction

    @property
    def is_good(self) -> bool:
        return self.kind == "good"

    @property
    def is_multiplicative(self) -> bool:
        return self.kind.endswith("multiplicative")


@dataclass(frozen=True)
class LocalModel:
    """What one place of one curve tells every local computation: the
    p-minimal model, the transformation to it and the reduction type.

    Build it once per (curve, p) with ``LocalModel.at``.
    """

    prime: int
    minimal: WeierstrassCurve
    transformation: Transformation  # input model -> minimal model

    @classmethod
    def at(cls, curve: WeierstrassCurve, p: int) -> "LocalModel":
        minimal, trans = minimal_model_at(curve, p)
        return cls(p, minimal, trans)

    def require_minimal(self) -> "LocalModel":
        """The model itself, if the input was already p-integral and
        p-minimal (the transformation to the minimal model is the identity)."""
        if self.transformation != _IDENTITY:
            raise PreconditionError(
                f"curve is not a p-integral p-minimal model at {self.prime}"
            )
        return self

    @cached_property
    def reduction(self) -> ReductionType:
        """Reduction type of the minimal model.

        Split vs nonsplit: split iff -c6, a unit here, is a square in Q_p,
        i.e. -c6 = 1 mod 8 at p = 2 and Euler's criterion at odd p
        (Silverman, Advanced Topics V.5.3: gamma = -c4/c6 is a square, and
        c4 is a square at a multiplicative place).
        """
        curve, p = self.minimal, self.prime
        vd = _valuation(curve.discriminant, p)
        if vd == 0:
            return ReductionType("good", 0)
        vc4 = _valuation(curve.c4, p)
        if vc4 is INFINITY or vc4 > 0:
            return ReductionType("additive", vd)
        if p == 2:
            split = _mod_p(-curve.c6, 2, 3) == 1
        else:
            split = pow(_mod_p(-curve.c6, p), (p - 1) // 2, p) == 1
        kind = "split multiplicative" if split else "nonsplit multiplicative"
        return ReductionType(kind, vd)

    @cached_property
    def _reduced_coefficients(self) -> tuple:
        """a1, a2, a3, a4 of the minimal model mod p."""
        return tuple(_mod_p(getattr(self.minimal, n), self.prime) for n in _COEFFS[:4])

    def local_height(self, point: CurvePoint) -> "LocalHeightReport":
        """Normalized local height of a point of the input model: the point
        is mapped to the minimal model, where lambda' = i(x, D) +
        (ell/2) B2(m/ell) in v-units; at a good place ell = m = 0 and
        lambda' = i.

        The point's residue on the minimal model is checked first: it must
        be zero, or have valuation at least 3 ell + 6, deep enough that
        every valuation the formulas read is certified.

        Nonsplit places are handled by the same formulas, computed as over
        the unramified quadratic extension (same uniformizer and
        valuations), and flagged in the report.
        """
        res = self.minimal.residue(self.transformation.push_point(point))
        if res != 0 and _valuation(res, self.prime) < 3 * self.reduction.multiplicity + 6:
            raise InputError("point is not on the curve (even p-adically)")
        return self._height(point)

    def _height(self, point: CurvePoint) -> "LocalHeightReport":
        """``local_height`` of a point that the caller has checked is on the
        curve: lambda' = (12 i ell + 6 (m^2 - m ell) + ell^2) / (12 ell),
        one Fraction from ints."""
        p, red = self.prime, self.reduction
        if red.kind == "additive":
            raise AdditiveReductionError(f"additive reduction at {p} is out of scope")
        point = self.transformation.push_point(point)
        i = _intersection(point, p)
        if red.is_good:
            return LocalHeightReport(p, red, i, Fraction(0), i)
        ell, m = red.multiplicity, _component_index(self, point)
        lam = Fraction(12 * i.numerator * ell + 6 * (m * m - m * ell) + ell * ell, 12 * ell)
        note = "" if red.kind == "split multiplicative" else "via unramified quadratic extension"
        return LocalHeightReport(p, red, i, Fraction(m), lam, note)


def reduction_type(curve: WeierstrassCurve, p: int) -> ReductionType:
    """Reduction type of a p-minimal integral model."""
    return LocalModel.at(curve, p).require_minimal().reduction


# ---------------------------------------------------------------------------
# Local height reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalHeightReport:
    prime: int
    reduction: ReductionType
    intersection: Fraction      # i(x, D), in v-units
    component: Fraction         # m = min(i, ell - i) in [0, ell/2]
    lambda_v: Fraction          # lambda' in v-units; real value = lambda_v * log p
    note: str = ""

    @property
    def real_value(self) -> float:
        return float(self.lambda_v) * math.log(self.prime)


def intersection_multiplicity(point: CurvePoint, p: int) -> Fraction:
    """max(0, -v_p(x)/2) at a prime p, which is checked here."""
    require_prime(p)
    return _intersection(point, p)


def _intersection(point: CurvePoint, p: int) -> Fraction:
    """``intersection_multiplicity`` at a certified prime; odd negative
    valuations are impossible over Q_p when the point reduces into the
    smooth locus, so they signal a bug."""
    if point.infinity:
        raise PreconditionError("local height undefined at the origin")
    v = _valuation(point.x, p)
    if v is INFINITY or v >= 0:
        return Fraction(0)
    if v % 2 != 0:
        raise InputError(f"odd negative valuation v_{p}(x) = {v}; inconsistent input")
    return Fraction(-v // 2)


def _component_index(model: LocalModel, point: CurvePoint) -> int:
    """Symmetrized component index m = min(i, ell - i) in [0, ell/2] of a
    point of the minimal model at a multiplicative place: 0 unless the point
    reduces to the singular point of the reduced curve, where both partial
    derivatives of its equation vanish mod p.

    For a point with singular reduction, w = v_p(2y + a1 x + a3) equals
    min(i, ell - i) exactly except on the component opposite the identity
    (ell even, i = ell/2), where cancellation can push w above ell/2; the
    cap min(w, ell/2) therefore recovers min(i, ell - i) in every case.
    Validated against parameter-built Tate points, where v(z) is ground
    truth (see the test suite).
    """
    p, ell = model.prime, model.reduction.multiplicity
    if point.x.denominator % p == 0 or point.y.denominator % p == 0:
        return 0  # reduces to the origin, which is smooth
    x, y = _mod_p(point.x, p), _mod_p(point.y, p)
    a1, a2, a3, a4 = model._reduced_coefficients
    if (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p or (2 * y + a1 * x + a3) % p:
        return 0
    curve = model.minimal
    w = _valuation(2 * point.y + curve.a1 * point.x + curve.a3, p)
    if w is not INFINITY and 2 * w < ell:
        return w
    if ell % 2:
        raise InputError(
            f"non-integral component index {ell}/2 at p={p}; inconsistent input"
        )
    return ell // 2


def local_height_multiplicative(
    curve: WeierstrassCurve, p: int, point: CurvePoint
) -> LocalHeightReport:
    """Normalized local height at a multiplicative place of a p-minimal
    model: lambda' = i(x, D) + (ell/2) B2(m/ell) in v-units."""
    model = LocalModel.at(curve, p).require_minimal()
    if not model.reduction.is_multiplicative:
        raise PreconditionError(f"reduction at {p} is not multiplicative")
    return model.local_height(point)


def local_height_report(curve: WeierstrassCurve, p: int, point: CurvePoint) -> LocalHeightReport:
    """Normalized local height at p for any semistable place: minimalizes,
    maps the point along, and applies the formula of the reduction type."""
    return LocalModel.at(curve, p).local_height(point)


# ---------------------------------------------------------------------------
# Tate parameters and parameter-built points
# ---------------------------------------------------------------------------


def tate_parameter(curve: WeierstrassCurve, p: int, precision: int = 20) -> PadicElement:
    """The multiplicative parameter q with j(q) = j(E), certified so that
    j evaluated at the result matches j(E) modulo p**precision.

    q is the fixed point of q -> w J(q) with w = 1/j and J(q) = q j(q), an
    integer series: on p^ell Z_p the map contracts by |w| = p^-ell, so each
    step from q = w fixes ell more digits of q, on integers mod p^target
    (Silverman, Advanced Topics V.3.1: q lies in Z[[1/j]]).
    """
    require_prime(p)
    if precision < 1:
        raise InputError(f"precision = {precision!r} must be at least 1")
    j = curve.j_invariant
    vj = _valuation(j, p)
    if vj is INFINITY or vj >= 0:
        raise PreconditionError(
            f"v_{p}(j) = {vj} >= 0: curve has potentially good reduction at {p}"
        )
    ell = -vj
    target = ell + precision + 2 * ell  # certify j round-trips mod p^precision
    steps, modulus = target // ell, p**target
    # q^n with n > steps vanishes mod p^target
    coeffs = [c % modulus for c in reversed(j_times_q_coefficients(steps + 1))]
    w = _mod_p(1 / j, p, target)
    q = w
    for _ in range(steps):
        acc = 0
        for c in coeffs:
            acc = (acc * q + c) % modulus
        q = w * acc % modulus
    # v(w) = ell < target and J(q) = 1 mod p leave v(q) = ell
    return PadicElement(p, Fraction(q, p**ell), ell, target - ell, _prime_checked=True)


def tate_curve(q: PadicElement) -> WeierstrassCurve:
    """Curve y^2 + x y = x^3 + a4(q) x + a6(q) with exact rational
    representatives of the coefficient series."""
    ell = q.val()
    if ell is INFINITY or ell <= 0:
        raise InputError("parameter must have positive valuation")
    a4, a6 = (_eval_int_series(c, q) for c in tate_coefficients(q.known_mod // ell + 2))
    return WeierstrassCurve(Fraction(1), Fraction(0), Fraction(0), a4, a6)


def normalize_parameter(q: PadicElement, z: PadicElement) -> PadicElement:
    """Multiply z by a power of q so that 0 <= v(z) < v(q)."""
    if q.prime != z.prime:
        raise InputError(f"q is {q.prime}-adic but z is {z.prime}-adic")
    ell = q.val()
    if ell is INFINITY or ell <= 0:
        raise InputError("parameter must have positive valuation")
    if z.is_zero():
        raise InputError("z must be nonzero")
    if 0 <= z.val() < ell:
        return z
    k = z.val() // ell
    unit = Fraction(z.unit) / Fraction(q.unit) ** k
    return PadicElement(q.prime, unit, z.valuation - k * ell, min(z.precision, q.precision),
                        _prime_checked=True)


def tate_curve_point(q: PadicElement, z: PadicElement) -> CurvePoint:
    """Point of the Tate curve at parameter z, via the standard coordinate
    series summed in Lambert form on integers mod p^K.

    For z normalized, x = f(z) + sum_n [f(q^n z) + f(q^n / z)] - 2 s1 and
    y = g(z) + sum_n [g(q^n z) + h(q^n / z)] + s1 (n >= 1), with f(t) =
    t/(1-t)^2, g(t) = t^2/(1-t)^3, h(t) = g(1/t) and s1 = sum n q^n/(1-q^n).
    Only f(z) and g(z) carry 1 - z = p^e u (u a unit) into a denominator:
    x = A / p^2e and y = B / p^3e, A, B in [0, p^K).  With f, g, h = sum_m
    c_m t^m (c_m = m, C(m,2), -C(m+1,2)), swapping sums over n and m gives
    sum_n f(q^n z) = sum_m m (qz)^m/(1-q^m) and, w = q/z split off, sum_n
    f(q^n/z) = f(w) + sum_m m (qw)^m/(1-q^m), of ratio qw: v(qw) = 2 ell -
    v(z) > ell, where v(w) may be 1.  Each term with m > M = (K-1) // ell
    has valuation >= m ell >= K: the sums are the series' residues mod p^K.
    The only units inverted are 1 - w and 1 - q^m (m <= M), in one batch.

    Only q's digits certify the curve: with q known mod p^known, the curve
    is certified only mod p^known, and its equation multiplies a4 by x: its
    residue at the point is certified mod p^(known - 2e).  Fewer than the
    3 ell + 6 digits that membership needs raise PrecisionError.  An error
    in z moves the point along the curve, so z's digits need only certify
    e itself (e < z.known_mod).  K = known + 4e leaves x right mod
    p^(K - 2e) and y mod p^(K - 3e), finer than p^known, so v(x) and
    v(2y + a1 x + a3) up to ell/2 are the exact series'; the partials of
    the equation have valuations >= -4e in x and >= -3e in y, so rounding
    keeps the residue at valuation >= K - 6e = known - 2e >= 3 ell + 6.
    """
    ell, z = q.val(), normalize_parameter(q, z)
    if z.rational == 1:
        raise InputError("z in q^Z maps to the origin")
    p, known = q.prime, q.known_mod
    e = _valuation(1 - z.rational, p)
    if e >= z.known_mod:
        raise PrecisionError(
            f"v(1 - z) = {e} is not certified by z, known mod {p}^{z.known_mod}")
    needed = 3 * ell + 6
    if known - 2 * e < needed:
        raise PrecisionError(
            f"v(1 - z) = {e} at known_mod = {known} leaves {known - 2 * e} certified "
            f"digits of the curve equation; membership needs known_mod >= {needed + 2 * e}")
    target = known + 4 * e
    modulus = p**target
    qr, zr, w = (_mod_p(v, p, target) for v in (q.rational, z.rational, q.rational / z.rational))
    qm = [qr]  # q^m for m = 1 .. M
    for _ in range((target - 1) // ell - 1):
        qm.append(qm[-1] * qr % modulus)
    r_w, *inverses = unit_inverses([1 - w] + [1 - t for t in qm], modulus)
    sx, sy = w * r_w * r_w, -w * r_w**3  # f(w) and h(w)
    at_z, at_w = qz, qw = qr * zr % modulus, qr * w % modulus  # (qz)^m and (qw)^m
    for m, (t, r) in enumerate(zip(qm, inverses), 1):
        c = at_z + at_w - 2 * t
        sx += m * c * r  # m (qz)^m + m (qw)^m - 2m q^m, over 1 - q^m
        sy += m * (m * (at_z - at_w) - c) // 2 * r  # C(m,2) (qz)^m - C(m+1,2) (qw)^m + m q^m
        at_z, at_w = at_z * qz % modulus, at_w * qw % modulus
    u_inv = _mod_p(p**e / (1 - z.rational), p, target)  # 1 - z = p^e u
    a = (zr * u_inv**2 + p ** (2 * e) * sx) % modulus
    b = (zr * zr * u_inv**3 + p ** (3 * e) * sy) % modulus
    return CurvePoint.affine(Fraction(a, p ** (2 * e)), Fraction(b, p ** (3 * e)))


def theta_valuation(q: PadicElement, z: PadicElement) -> Fraction:
    """Valuation of theta(z) = (1-z) prod (1-q^n z)(1-q^n/z), in v-units.

    With z normalized to 0 <= v(z) < v(q), every factor 1 - q^n z and
    1 - q^n / z (n >= 1) is a unit, so v(theta(z)) = v(1 - z), certified by
    z's digits (a shift folds q's into them).  Raises OnDivisorError when
    theta vanishes to working precision.
    """
    z = normalize_parameter(q, z)
    if z.rational == 1:
        raise OnDivisorError("z lies on the divisor (z in q^Z)")
    lead = _valuation(1 - z.rational, q.prime)
    if lead is INFINITY or lead >= z.known_mod:
        raise OnDivisorError("theta(z) vanishes to working precision")
    return Fraction(lead)


def local_height_from_parameter(q: PadicElement, z: PadicElement) -> Fraction:
    """Normalized local height of the point with parameter z on the Tate
    curve of parameter q, in v-units:

        lambda' = (ell/2) B2(v(z)/ell) + v(theta(z)).
    """
    ell, z = q.val(), normalize_parameter(q, z)
    return Fraction(ell, 2) * bernoulli2(Fraction(z.val(), ell)) + theta_valuation(q, z)
