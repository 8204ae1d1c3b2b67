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
summed by Horner's rule.  The real locus is either the real annulus
|q| < |u| <= 1 or, for the twisted real form (c6 > 0), the circles
|u| = 1 and |u| = sqrt(q).  Each real component is an arc u = u0 exp(rate
z), 0 <= z <= Omega/2, from the origin (or a 2-torsion point on the egg)
to a 2-torsion point, for the elliptic logarithm z of a point of the
identity component, which Carlson's R_F gives in closed form:
z = R_F(t - e1, t - e2, t - e3) (Carlson, Numer. Algorithms 10, 1995;
Cremona-Thongjunthug, J. Number Theory 133, 2013).  A point on the egg is
first moved to the identity component by adding the 2-torsion point
(e3, .); a 2-torsion point takes its arc end in closed form; the sign of
2y + a1 x + a3 picks u or its inverse class.  The height is then

    lambda'(P) = (ell/2) B2(t) - log|theta(u)|,   t = -log|u| / ell,

with ell = -log|q| and theta the triple-product kernel; this normalization
satisfies the quasi-minimum property at the origin (checked in the tests),
so no curve-dependent constant is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
import mpmath as mp

from .curves import CurvePoint, WeierstrassCurve
from .errors import InputError, PrecisionError
from .tate import (
    discriminant_coefficients,
    eisenstein4_coefficients,
    sigma_coefficients,
)

_TERM_GUARD = 30


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

    @property
    def twisted(self) -> bool:
        """True when the real locus sits on |u| = 1 (and |u| = sqrt(q)):
        exactly when c6 > 0, which makes the rate imaginary."""
        return self.scale2 < 0


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
        return ArchContext(
            curve=curve,
            precision_bits=precision_bits,
            q=q,
            ell=ell,
            rate=rate,
            scale2=scale2,
            sigma1=sigma1,
            roots=tuple(roots),
            omega=omega,
            torsion_x=tuple(sorted(t / scale2 - mp.mpf(1) / 12 for t in roots)),
        )


# -- Tate coordinate series over C ------------------------------------------


def _x_series(u, q, eps, sigma1):
    """Normalized x at u on the real locus, summed while |q^n| >= eps.  A
    complex u sits on |u| = 1 or |u| = sqrt(q), where the term at q^n/u is
    the conjugate of the term at q^n u or at q^(n-1) u, so one complex term
    per n does.  For eps <= |q| and |q| <= |u| <= 1 the terms left out sum
    to less than 1.2 eps/|q|: they have n >= 2, where |q^n u| <= |q|^n and
    |q^n/u| <= |q|^(n-1) <= |q| <= e^-pi bound |f(t)| by |t| / (1 - |q|)^2,
    and their sum is geometric."""

    def f(t):
        return t / (1 - t) ** 2

    circle = isinstance(u, mp.mpc)
    if circle:  # |u| = sqrt(q) < 1/2 counts the n = 0 term twice
        total = (2 if abs(u) < 0.5 else 1) * mp.re(f(u)) - 2 * sigma1
    else:
        total = f(u) - 2 * sigma1
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += 2 * mp.re(f(qn * u)) if circle else f(qn * u) + f(qn / u)


def _theta_product(u, q, eps):
    total = 1 - u
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total *= (1 - qn * u) * (1 - qn / u)


def _carlson_log(ctx: ArchContext, t):
    """Elliptic logarithm z in (0, Omega/2] of a point of the identity
    component, t > e1: R_F(t - e1, t - e2, t - e3) (Carlson 1995).  With
    one real root it takes the real form of the integral for one quadratic
    factor (Byrd-Friedman 239.00 with F(phi, k) in Carlson's R_F), in which
    A^2 = (e1 - e2)(e1 - e3) = 3 e1^2 + p; for t - e1 < A the angle passes
    pi/2, that form gives F(pi - phi) and z = Omega/2 - w."""
    if len(ctx.roots) == 3:
        e1, e2, e3 = ctx.roots
        return mp.elliprf(t - e1, t - e2, t - e3)
    e1 = ctx.roots[0]
    s, a = t - e1, mp.sqrt(3 * e1**2 - _mp(ctx.curve.c4) / 48)
    w = mp.elliprf((s - a) ** 2 / s, s + 3 * e1 + a * a / s, (s + a) ** 2 / s)
    return w if s >= a else ctx.omega / 2 - w


def elliptic_log(ctx: ArchContext, point: CurvePoint):
    """Uniformizer u in C*/q^Z of a real point, normalized so that
    0 <= -log|u| < ell.  Raises PrecisionError near the origin when the
    working precision cannot separate the point from u = 1."""
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    curve = ctx.curve
    if not curve.contains(point):
        raise InputError("point is not on the curve")
    with mp.workprec(ctx.precision_bits + 40):
        q = ctx.q
        t = _mp(point.x + curve.b2 / 12)
        x_target = t / ctx.scale2 - mp.mpf(1) / 12
        # 2y + a1 x + a3 = alpha^3 (2Y + X), alpha = sqrt(scale2), has the
        # sign of 2Y + X, or of its imaginary part when alpha is imaginary
        eta = 2 * point.y + curve.a1 * point.x + curve.a3
        # x_target and the end values carry about precision_bits + 30 bits,
        # so a component test needs no wider slack than 2^-precision_bits
        slack = mp.mpf(2) ** -ctx.precision_bits
        root, tx = (mp.sqrt(q) if q > 0 else None), ctx.torsion_x
        # Each real component is an arc u = ends[0] exp(rate z), 0 <= z <=
        # Omega/2, on which x is monotone.  z = 0 is the origin (x infinite)
        # on the identity component and a 2-torsion point on the egg; z =
        # Omega/2 is a 2-torsion point (u = |q| ~ -1 when q < 0 and untwisted).
        if ctx.twisted:
            ends, x_ends = (1, mp.mpf(-1)), (None, tx[0])
            if q > 0 and x_target > tx[0] + slack * (1 + abs(tx[0])):
                ends, x_ends = (root, -root), (tx[2], tx[1])  # the egg |u| = sqrt(q)
        elif q > 0:
            ends, x_ends = (1, root), (None, tx[2])
            if x_target < tx[2] - slack * (1 + abs(tx[2])):
                ends, x_ends = (mp.mpf(-1), -root), (tx[0], tx[1])  # the egg u <= -sqrt(q)
        else:
            ends, x_ends = (1, mp.mpf(-1)), (None, tx[0])
        egg = x_ends[0] is not None
        if eta == 0:
            # 2-torsion: an arc end in closed form (the egg's shift below
            # divides by t - e3, the one-root R_F form by t - e1)
            i = min((0, 1), key=lambda i: abs(x_ends[i] - x_target)) if egg else 1
            u = ends[i]
        else:
            if egg:  # add (e3, .), which moves the point to the identity component
                e1, e2, e3 = ctx.roots
                t = e3 + (e1 - e3) * (e2 - e3) / (t - e3)
            elif abs(x_target) * mp.mpf(2) ** (-2 * (ctx.precision_bits + 5)) > 1:
                raise PrecisionError("point too close to the origin")
            u = ends[0] * mp.exp(ctx.rate * _carlson_log(ctx, t))
            # dx/dlog(u) = 2Y + X keeps one sign on each arc, 0 < z < Omega/2:
            # positive on the identity arc and negative on the egg (rate < 0),
            # the other way round on the circles (rate imaginary)
            if (eta > 0) != (egg == ctx.twisted):
                u = mp.conj(u) if ctx.twisted else q / u  # the inverse class
        # the terms the series leaves out, < 1.2 eps/|q|, are below 2^-20 tol
        tol = (1 + abs(x_target)) * mp.mpf(2) ** (-(ctx.precision_bits // 2))
        err = _x_series(u, q, abs(q) * tol * mp.mpf(2) ** -21, ctx.sigma1) - x_target
        if abs(err) > tol:
            raise PrecisionError("uniformizer round-trip failed; raise precision")
        return mp.mpc(u) if ctx.twisted else u


def local_height_from_uniformizer(ctx: ArchContext, u) -> float:
    """lambda' = (ell/2) B2(t) - log|theta(u)| with t = -log|u|/ell in [0,1).

    Accepts any u in C*; reduces modulo q^Z first, so u and q u agree.
    """
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + _TERM_GUARD))
        q = ctx.q
        ell = ctx.ell
        t = -mp.log(abs(u)) / ell
        shift = mp.floor(t)
        if shift != 0:
            u = u * mp.mpc(q) ** int(-shift)
            t = t - shift
        theta = _theta_product(u, q, eps)
        if abs(theta) < eps * 10:
            raise InputError("theta vanishes: point on the divisor")
        b2 = (t - mp.mpf(1) / 2) ** 2 - mp.mpf(1) / 12
        return float(ell / 2 * b2 - mp.log(abs(theta)))


def local_height_arch(ctx: ArchContext, point: CurvePoint) -> float:
    """Archimedean normalized local height of a real rational point."""
    return local_height_from_uniformizer(ctx, elliptic_log(ctx, point))
