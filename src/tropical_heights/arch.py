"""Archimedean normalized canonical local height via the multiplicative
uniformization C*/q^Z.

The parameter q = e^{2 pi i tau} is real with sign(q) = sign(disc) and
small modulus (|q| <= e^{-pi} for every real curve).  It is read off the
period ratio tau, which the arithmetic-geometric mean gives in closed form
from the real roots e_i of t^3 + p t + r, t = x + b2/12 (Cohen, GTM 138,
Alg. 7.4.7); the same AGMs give the real period Omega, and with it the
rate d(log u)/dz of the uniformization, whose square scale2 gives t =
scale2 (X + 1/12) for the Tate curve's X.  c4(q), sigma_1 and j = c4^3 /
Delta, which only checks q, are the integer q-expansions of ``tate``
summed by Horner's rule.  These per-curve values are mpmath numbers, kept
in fixed point too; each point is worked on those ints alone.  The real
locus is either the real annulus |q| < |u| <= 1 or, for the twisted real
form (c6 > 0), the circles |u| = 1 and |u| = sqrt(q).  Each real
component is an arc u = u0 exp(rate z), 0 <= z <= Omega/2, from the
origin (or a 2-torsion point on the egg) to a 2-torsion point, for the
elliptic logarithm z of a point of the identity component, which
Carlson's R_F gives in closed form: z = R_F(t - e1, t - e2, t - e3)
(Carlson, Numer. Algorithms 10, 1995; Cremona-Thongjunthug, J. Number
Theory 133, 2013).  A point on the egg is first moved to the identity
component by adding the 2-torsion point (e3, .); a 2-torsion point takes
its arc end in closed form; the sign of 2y + a1 x + a3 picks u or its
inverse class.  The height, rounded to a double once, is then

    lambda'(P) = (ell/2) B2(t) - log|theta(u)|,   t = -log|u| / ell,

with ell = -log|q| and theta the triple-product kernel; this normalization
satisfies the quasi-minimum property at the origin (checked in the tests),
so no curve-dependent constant is needed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import mpmath as mp

from .curves import CurvePoint, WeierstrassCurve
from .errors import InputError, PrecisionError
from .fixed import carlson_rf, exp, inverse, log
from .tate import (
    discriminant_coefficients,
    eisenstein4_coefficients,
    sigma_coefficients,
)

_TERM_GUARD = 30
# An ArchContext's values as ints at scale 2^bits, bits = W + log2(1/|q|) for
# W = precision_bits + 40, so that a value of modulus at least |q| keeps W
# bits; rate is (re, im), root = sqrt(q) (0 when q < 0), quad = sqrt(3 e1^2 + p).
Fixed = namedtuple("Fixed", "bits q root ell rate scale2 sigma1 omega quad roots torsion_x")


def _q_expansions(q, eps) -> tuple:
    """(c4, sigma_1, Delta) at q: the integer q-expansions of ``tate``
    summed by Horner's rule, each to less than eps (relative to q for
    sigma_1 and Delta, which start at q) by its n-th coefficient's bound:
    240 zeta(3) n^3, n^2 and |tau(n)| <= d(n) n^5.5 <= 2 n^6."""
    rel = eps * abs(q)
    lists = (eisenstein4_coefficients(_terms(q, eps, 289, 3)),
             sigma_coefficients(1, _terms(q, rel, 1, 2)),
             discriminant_coefficients(_terms(q, rel, 2, 6))[1:])
    c4, sigma1, disc_over_q = (mp.polyval(c[::-1], q) for c in lists)
    return c4, sigma1, q * disc_over_q


def _terms(q, eps, growth, power) -> int:
    """Terms of sum c_n q^n, |c_n| <= growth n^power, that leave out less
    than eps: the first n with growth n^power |q|^n < eps / 2, past which
    the bound falls by more than half per term (|q| <= e^-pi)."""
    n = int(mp.log(eps / (2 * growth)) / mp.log(abs(q)))
    if n > 100000:
        raise PrecisionError("q-series failed to converge")
    while growth * n**power * abs(q) ** n >= eps / 2:
        n += 1
    return n


def _mp(value):
    return mp.mpf(value.numerator) / value.denominator


def _real_q(curve: WeierstrassCurve):
    """(q, real roots t of t^3 + p t + r, real period Omega): q = e^{2 pi i
    tau} from the periods by the AGM (Cohen, GTM 138, Alg. 7.4.7), with tau
    on the real branch of the discriminant sign: tau = i s with s >= 1 when
    disc > 0, tau = (1 + i s)/2 with s >= 1 when disc < 0."""
    # 4x^3 + b2 x^2 + 2 b4 x + b6 = 4(t^3 + p t + r) with t = x + b2/12:
    # the trigonometric or Cardano form, then two Newton steps
    p, r = -_mp(curve.c4) / 48, -_mp(curve.c6) / 864
    if curve.discriminant > 0:
        m = 2 * mp.sqrt(-p / 3)
        phi = mp.acos(max(-1, min(1, 3 * r / (p * m)))) / 3
        roots = [m * mp.cos(phi - 2 * mp.pi * i / 3) for i in range(3)]
    else:
        d = mp.sqrt(r * r / 4 + p**3 / 27)
        roots = [sum(mp.sign(v) * mp.cbrt(abs(v)) for v in (d - r / 2, -d - r / 2))]
    for _ in range(2):
        roots = [t - (t**3 + p * t + r) / (3 * t * t + p) for t in roots]
    roots = sorted(roots, reverse=True)
    if curve.discriminant > 0:
        e1, e2, e3 = roots
        a = mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
        b = mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        return mp.exp(-2 * mp.pi * max(a / b, b / a)), roots, mp.pi / a
    # beta = |3 e1 + b2/4| and alpha = sqrt(3 e1^2 + b2 e1/2 + b4/2) at t;
    # Omega = 2 pi / agm(2 sqrt(alpha), sqrt(2 alpha + 3 e1)), signed e1
    beta, alpha = 3 * abs(roots[0]), mp.sqrt(3 * roots[0] ** 2 + p)
    a = mp.agm(2 * mp.sqrt(alpha), mp.sqrt(2 * alpha + beta))
    b = mp.agm(2 * mp.sqrt(alpha), mp.sqrt(2 * alpha - beta))
    return -mp.exp(-mp.pi * a / b), roots, 2 * mp.pi / (a if roots[0] > 0 else b)


@dataclass(frozen=True)
class ArchContext:
    """Everything needed to evaluate archimedean local heights on a curve;
    immutable, so one context serves every point of the curve."""

    curve: WeierstrassCurve
    precision_bits: int
    q: mp.mpf
    ell: mp.mpf                  # -log|q|
    rate: mp.mpf | mp.mpc        # d(log u)/dz: 2 pi i/Omega, -ell/Omega or -2 ell/Omega
    scale2: mp.mpf               # rate^2, real: t = scale2 (X(u) + 1/12)
    sigma1: mp.mpf               # sum n q^n / (1 - q^n), the x-series constant
    roots: tuple                 # real roots e1 [> e2 > e3] of t^3 + p t + r
    omega: mp.mpf                # the real period
    torsion_x: tuple             # normalized x(-1) [< x(-sqrt q) < x(sqrt q)]
    twisted: bool                # c6 > 0: the real locus is |u| = 1 [and |u| = sqrt(q)]
    fixed: Fixed                 # the values above as ints, for each point


def arch_context(curve: WeierstrassCurve, precision_bits: int = 128) -> ArchContext:
    with mp.workprec(precision_bits + 40):
        eps = mp.mpf(2) ** (-(precision_bits + _TERM_GUARD))
        j = _mp(curve.j_invariant)
        q, roots, omega = _real_q(curve)
        c4q, sigma1, disc = _q_expansions(q, eps)
        if abs(c4q**3 / disc - j) > (abs(j) + 1728) * mp.mpf(2) ** (-(precision_bits - 10)):
            raise PrecisionError("q-inversion did not reproduce j to tolerance")
        ell = -mp.log(abs(q))
        # d(log u)/dz = 2 pi i / omega_1 for the period omega_1 that q^Z
        # leaves: the real period when c6 > 0, else the imaginary one
        rate = (mp.mpc(0, 2 * mp.pi / omega) if curve.c6 > 0
                else -ell / omega if q > 0 else -2 * ell / omega)
        scale2 = mp.re(rate * rate)
        torsion_x = tuple(sorted(t / scale2 - mp.mpf(1) / 12 for t in roots))
        bits = precision_bits + 40 + int(1 / abs(q)).bit_length()
        quad = mp.sqrt(3 * roots[0] ** 2 - _mp(curve.c4) / 48)
        fixed = Fixed(bits, *_fixed((q, mp.sqrt(q) if q > 0 else 0, ell, (mp.re(rate), mp.im(rate)),
                                     scale2, sigma1, omega, quad, tuple(roots), torsion_x), bits))
        return ArchContext(curve, precision_bits, q, ell, rate, scale2, sigma1,
                           tuple(roots), omega, torsion_x, curve.c6 > 0, fixed)


# -- the point on ints at scale 2^bits ---------------------------------------


def _fixed(value, bits: int):
    """An mpmath real as an int at scale 2^bits, a tuple of them as a tuple."""
    if isinstance(value, tuple):
        return tuple(_fixed(v, bits) for v in value)
    return int(mp.ldexp(value, bits))


def _x_series(ctx: ArchContext, u: tuple, eps: int) -> int:
    """Normalized x at u = (re, im) on the real locus: the real part of the
    sum of t/(1 - t)^2 over t = q^n u and q^n/u, summed while |q^n| >= eps,
    all at scale 2^bits.  For eps <= |q| and |q| <= |u| <= 1 the terms left
    out sum to less than 1.2 eps/|q|: they have n >= 2, where |q^n u| <=
    |q|^n and |q^n/u| <= |q|^(n-1) <= |q| <= e^-pi bound |t/(1 - t)^2| by
    |t| / (1 - |q|)^2, and their sum is geometric."""
    fx = ctx.fixed
    f, q, v = fx.bits, fx.q, inverse(u, fx.bits)

    def term(s, w):  # re(r^2 - r) = re t/(1 - t)^2 for r = 1/(1 - t), t = s w
        c, b = (1 << f) - (s * w[0] >> f), s * w[1] >> f
        norm = c * c + b * b
        r, i = (c << 2 * f) // norm, (b << 2 * f) // norm
        return (r * r - i * i >> f) - r

    total, qn = term(1 << f, u) - 2 * fx.sigma1, 1 << f
    while True:
        qn = qn * q >> f
        if abs(qn) < eps:
            return total
        total += term(qn, u) + term(qn, v)


def _theta_norm(fx: Fixed, u: tuple, eps: int) -> int:
    """|theta(u)|^2 at scale 2^(2 bits): |1 - u|^2, exact, times the square
    modulus of the product of (1 - q^n u)(1 - q^n/u) = 1 - q^n (u + 1/u) +
    q^2n over |q^n| >= eps."""
    f, q, v = fx.bits, fx.q, inverse(u, fx.bits)
    sr, si, pr, pi, qn = u[0] + v[0], u[1] + v[1], 1 << f, 0, 1 << f
    while True:
        qn = qn * q >> f
        if abs(qn) < eps:
            return (((1 << f) - u[0]) ** 2 + u[1] * u[1]) * (pr * pr + pi * pi) >> 2 * f
        a, b = (1 << f) + (qn * qn - qn * sr >> f), -(qn * si >> f)
        pr, pi = (pr * a - pi * b) >> f, (pr * b + pi * a) >> f


def _carlson_log(ctx: ArchContext, t: int) -> int:
    """Elliptic logarithm z in (0, Omega/2] of a point of the identity
    component, t > e1: R_F(t - e1, t - e2, t - e3) (Carlson 1995).  With
    one real root it takes the real form of the integral for one quadratic
    factor (Byrd-Friedman 239.00 with F(phi, k) in Carlson's R_F), in which
    A^2 = (e1 - e2)(e1 - e3) = 3 e1^2 + p; for t - e1 < A the angle passes
    pi/2, that form gives F(pi - phi) and z = Omega/2 - w."""
    fx = ctx.fixed
    if len(fx.roots) == 3:
        e1, e2, e3 = fx.roots
        return carlson_rf(t - e1, t - e2, t - e3, fx.bits)
    e1, a = fx.roots[0], fx.quad
    s = t - e1
    w = carlson_rf((s - a) ** 2 // s, s + 3 * e1 + a * a // s, (s + a) ** 2 // s, fx.bits)
    return w if s >= a else fx.omega // 2 - w


def elliptic_log(ctx: ArchContext, point: CurvePoint):
    """Uniformizer u in C*/q^Z of a real point, normalized so that
    0 <= -log|u| < ell.  Raises PrecisionError near the origin when the
    working precision cannot separate the point from u = 1."""
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    curve = ctx.curve
    if not curve.contains(point):
        raise InputError("point is not on the curve")
    fx, bits = ctx.fixed, ctx.precision_bits
    f, q, root, tx, one = fx.bits, fx.q, fx.root, fx.torsion_x, 1 << fx.bits
    t = point.x + curve.b2 / 12
    t = (t.numerator << f) // t.denominator
    x_target = (t << f) // fx.scale2 - one // 12
    # 2y + a1 x + a3 = alpha^3 (2Y + X), alpha = sqrt(scale2), has the
    # sign of 2Y + X, or of its imaginary part when alpha is imaginary
    eta = 2 * point.y + curve.a1 * point.x + curve.a3
    # Each real component is an arc u = ends[0] exp(rate z), 0 <= z <=
    # Omega/2, on which x is monotone.  z = 0 is the origin (x infinite)
    # on the identity component and a 2-torsion point on the egg; z =
    # Omega/2 is a 2-torsion point (u = |q| ~ -1 when q < 0 and untwisted).
    # x_target and the end values carry about precision_bits + 30 bits, so
    # a component test needs no wider slack than 2^-precision_bits (1 + |x|).
    if ctx.twisted:
        ends, x_ends = (one, -one), (None, tx[0])
        if q > 0 and x_target > tx[0] + ((one + abs(tx[0])) >> bits):
            ends, x_ends = (root, -root), (tx[2], tx[1])  # the egg |u| = sqrt(q)
    elif q > 0:
        ends, x_ends = (one, root), (None, tx[2])
        if x_target < tx[2] - ((one + abs(tx[2])) >> bits):
            ends, x_ends = (-one, -root), (tx[0], tx[1])  # the egg u <= -sqrt(q)
    else:
        ends, x_ends = (one, -one), (None, tx[0])
    egg = x_ends[0] is not None
    if eta == 0:
        # 2-torsion: an arc end in closed form (the egg's shift below
        # divides by t - e3, the one-root R_F form by t - e1)
        i = min((0, 1), key=lambda i: abs(x_ends[i] - x_target)) if egg else 1
        u = (ends[i], 0)
    else:
        if egg:  # add (e3, .), which moves the point to the identity component
            e1, e2, e3 = fx.roots
            t = e3 + (e1 - e3) * (e2 - e3) // (t - e3)
        elif abs(x_target) >> 2 * (bits + 5) > one:
            raise PrecisionError("point too close to the origin")
        c, s = exp(sum(fx.rate) * _carlson_log(ctx, t) >> f, f, ctx.twisted)
        u = (ends[0] * c >> f, ends[0] * s >> f)
        # dx/dlog(u) = 2Y + X keeps one sign on each arc, 0 < z < Omega/2:
        # positive on the identity arc and negative on the egg (rate < 0),
        # the other way round on the circles (rate imaginary)
        if (eta > 0) != (egg == ctx.twisted):
            u = (u[0], -u[1]) if ctx.twisted else ((q << f) // u[0], 0)  # the inverse class
    # the terms the series leaves out, < 1.2 eps/|q|, are below 2^-20 tol
    tol = (one + abs(x_target)) >> bits // 2
    if abs(_x_series(ctx, u, abs(q) * min(tol, one) >> f + 21) - x_target) > tol:
        raise PrecisionError("uniformizer round-trip failed; raise precision")
    with mp.workprec(f):
        return mp.mpc(*(mp.mpf((c, -f)) for c in u)) if ctx.twisted else mp.mpf((u[0], -f))


def local_height_from_uniformizer(ctx: ArchContext, u) -> float:
    """lambda' = (ell/2) B2(t) - log|theta(u)| with t = -log|u|/ell in [0,1),
    on ints at scale 2^bits, rounded to a double once.

    Accepts any u in C*; reduces modulo q^Z first, so u and q u agree.
    """
    fx = ctx.fixed
    f, q, ell = fx.bits, fx.q, fx.ell
    u = _fixed((mp.re(u), mp.im(u)), f)
    t = -(log(u[0] * u[0] + u[1] * u[1], 2 * f, f) << f) // (2 * ell)
    shift = t >> f
    for _ in range(abs(shift)):
        u = tuple((c << f) // q if shift > 0 else c * q >> f for c in u)
    t -= shift << f
    eps = 1 << f - ctx.precision_bits - _TERM_GUARD
    theta = _theta_norm(fx, u, eps)
    if theta < 100 * eps * eps:
        raise InputError("theta vanishes: point on the divisor")
    half = t - (1 << f - 1)
    b2 = (half * half >> f) - (1 << f) // 12
    return ((ell * b2 >> f + 1) - (log(theta, 2 * f, f) >> 1)) / (1 << f)


def local_height_arch(ctx: ArchContext, point: CurvePoint) -> float:
    """Archimedean normalized local height of a real rational point."""
    return local_height_from_uniformizer(ctx, elliptic_log(ctx, point))
