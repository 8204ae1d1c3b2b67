"""Archimedean normalized canonical local height via the multiplicative
uniformization C*/q^Z, on Python ints in fixed point (``fixed``).

The parameter q = e^{2 pi i tau} is real with sign(q) = sign(disc) and
|q| <= e^{-pi}.  It is read off the period ratio, which Carlson's R_F gives
in closed form from the real roots e_i of t^3 + p t + r, t = x + b2/12
(Carlson, Numer. Algorithms 10, 1995): Omega = 2 R_F(0, e1 - e2, e1 - e3)
and its partner, or with one real root the AGMs of Cohen's Alg. 7.4.7 (GTM
138) as pi / (2 R_F(0, a^2, b^2)), pi = 2 R_F(0, 1, 1).  The rate d(log
u)/dz = 2 pi i / omega_1 gives t = scale2 (X + 1/12), scale2 = re(rate^2),
for the Tate curve's X = P_q(u) - 2 sigma_1, P_q(u) the sum over n in Z of
f(q^n u), f(w) = w/(1 - w)^2.  c4(q) and sigma_1 are Lambert sums over
q^n/(1 - q^n), and j = c4^3/Delta, Delta = q prod (1 - q^n)^24, checks q.
u comes down the chain of 2-isogenies E_q <- E_{q^2} <- ... of Landen's
transformation (Cremona-Thongjunthug, J. Number Theory 133, 2013): P_q(u) =
P_{q^2}(u) + P_{q^2}(q u), two roots of a quadratic whose discriminant at A
= P_q(u) is (A - P_q(sqrt q))(A - P_q(-sqrt q)), so one square root per
level takes A to P_{q^2}(u), until A = f(u) to working precision.  The real
locus is |q| < |u| <= 1 or, for the twisted real form (c6 > 0), |u| = 1 and
|u| = sqrt(q); a point on the egg first adds the 2-torsion point (e3, .), a
2-torsion point takes its u in closed form, and the sign of 2y + a1 x + a3
picks u or its inverse class.  The height, rounded to a double once, is

    lambda'(P) = (ell/2) B2(t) - log|theta(u)|,   t = -log|u| / ell,

with ell = -log|q| and theta the triple-product kernel; this normalization
satisfies the quasi-minimum property at the origin, so no curve-dependent
constant is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .curves import CurvePoint, WeierstrassCurve
from .errors import InputError, PrecisionError
from .fixed import carlson_rf, exp, inverse, log

_TERM_GUARD = 30
_MIN_BITS = 53  # the fewest precision_bits a context, and a RunConfig, accepts


def _scaled(x: Fraction, e: int) -> int:
    """floor(x 2^e) for a rational x."""
    return (x.numerator << max(e, 0)) // (x.denominator << max(-e, 0))


def _q_expansions(q: int, eps: int, f: int) -> tuple:
    """(c4, sigma_1, Delta) at q at scale 2^f: 1 + 240 sum n^3 r_n, sum n
    r_n and q prod (1 - q^n)^24, r_n = q^n / (1 - q^n), over n < N, the
    first n with 512 n^3 |q|^n < eps |q|.  As |q| <= e^-pi, |r_n| < 1.05
    |q|^n and the terms' bounds fall by 0.35 a step: the tails are below
    400 N^3 |q|^N < eps, 2 N |q|^N < eps |q| and 27 |q|^N |Delta| < 80
    |q|^(N+1) < eps |q|.  At scale 2^2f each r_n is off by under 2.2 units
    and each step of the product by under 5: at f >= 74, N <= 100000 such
    errors weighted by 240 n^3 (24 for Delta) stay below 2^-f."""
    g, n, qn, sigma1 = 2 * f, 1, q << f, 0
    one = c4 = prod = 1 << g
    while 512 * n**3 * abs(qn) >= eps * abs(q):
        if n > 100000:
            raise PrecisionError("q-series failed to converge")
        r = (qn << g) // (one - qn)
        c4, sigma1, prod = c4 + 240 * n**3 * r, sigma1 + n * r, prod * (one - qn) >> g
        n, qn = n + 1, qn * q >> f
    return c4 >> f, sigma1 >> f, q * prod**24 >> 24 * g  # prod^24 by squarings, exact


def _roots(p: int, r: int, f: int, three: bool) -> tuple:
    """The real roots of t^3 + p t + r at scale 2^f, largest first.  The root
    of largest modulus has the sign of -r and lies at least its own modulus
    from the others; Newton's steps reach it monotonically from beyond
    Cauchy's bound 1 + |p| + |r|, where the cubic is convex towards it.  The
    other two are those of the factor t^2 + e t + e^2 + p."""
    side = -1 if r > 0 else 1
    e = side * ((1 << f) + abs(p) + abs(r))
    while True:
        step = ((((e * e >> f) + p) * e >> f) + r << f) // ((3 * e * e >> f) + p)
        if side * step <= 0:
            break
        e -= step
    if not three:
        return (e,)
    gap = isqrt(max(0, -3 * e * e - (4 * p << f)))  # |e2 - e3|
    return tuple(sorted((e, (gap - e) >> 1, (-gap - e) >> 1), reverse=True))


@dataclass(frozen=True)
class ArchContext:
    """Everything needed to evaluate archimedean local heights on a curve,
    immutable: ints at scale 2^bits, bits = W + log2(1/|q|) for W =
    precision_bits + 40, so that a value of modulus at least |q| keeps W
    bits, of the model x -> x / 4^shift, whose c4 and c6 are near 1, so that
    a model rescaled by a power of two gives the same ints."""

    curve: WeierstrassCurve
    precision_bits: int
    bits: int
    shift: int
    twisted: bool                # c6 > 0: the real locus is |u| = 1 [and |u| = sqrt(q)]
    q: int
    root: int                    # sqrt(q), 0 when q < 0
    ell: int                     # -log|q|
    scale2: int                  # re(d(log u)/dz)^2: t = scale2 (X(u) + 1/12)
    sigma1: int                  # sum n q^n / (1 - q^n), the x-series constant
    omega: int                   # the real period
    roots: tuple                 # real roots e1 [> e2 > e3] of t^3 + p t + r
    torsion_x: tuple             # normalized x(-1) [< x(-sqrt q) < x(sqrt q)]
    levels: tuple                # (b+ + b-, (b+ - b-)^2 at 2^2bits), b+- = P_{q_k}(+-sqrt(q_k))


def arch_context(curve: WeierstrassCurve, precision_bits: int = 128) -> ArchContext:
    if precision_bits < _MIN_BITS:
        raise InputError(f"precision_bits = {precision_bits!r} must be at least {_MIN_BITS}")
    # rescaling x by 4^k adds k to shift and leaves every int below unchanged
    shift = max((c.numerator.bit_length() - c.denominator.bit_length()) // w
                for c, w in ((curve.c4, 4), (curve.c6, 6)) if c)
    j = curve.j_invariant
    # 1/|q| < |j| + 1000 on both branches, so the roots and q are worked out
    # at a scale g >= bits, and cut to bits once q gives it
    g = precision_bits + 40 + (abs(j.numerator) // j.denominator + 1000).bit_length()
    one, p = 1 << g, _scaled(-curve.c4 / 48, g - 4 * shift)
    roots = _roots(p, _scaled(-curve.c6 / 864, g - 6 * shift), g, curve.discriminant > 0)
    quad, pi = isqrt((3 * roots[0] ** 2 >> g) + p << g), 2 * carlson_rf(0, one, one, g)
    if len(roots) == 3:
        e1, e2, e3 = roots
        omega = 2 * carlson_rf(0, e1 - e2, e1 - e3, g)
        other = 2 * carlson_rf(0, e1 - e3, e2 - e3, g)
        ell = 2 * pi * max(omega, other) // min(omega, other)
    else:  # Cohen's AGMs are pi / 2a and pi / 2b, with alpha = quad and beta = |3 e1|
        a, b = (carlson_rf(0, 4 * quad, 2 * quad + sign * abs(3 * roots[0]), g) for sign in (1, -1))
        ell, omega = pi * b // a, 4 * (a if roots[0] > 0 else b)
    q = (one << g) // exp(ell, g) * (1 if len(roots) == 3 else -1)
    bits = precision_bits + 40 + (one // abs(q)).bit_length()
    q, ell, pi, omega, *roots = (v >> g - bits for v in (q, ell, pi, omega, *roots))
    c4q, sigma1, disc = _q_expansions(q, 1 << bits - precision_bits - _TERM_GUARD, bits)
    # |c4q^3 / disc - j| <= (|j| + 1728) 2^-(precision_bits - 10), exactly
    if abs(c4q**3 * j.denominator - (j.numerator * disc << 2 * bits)) > (
            abs(j.numerator) + 1728 * j.denominator) * abs(disc) << 2 * bits + 10 - precision_bits:
        raise PrecisionError("q-inversion did not reproduce j to tolerance")
    # d(log u)/dz = 2 pi i / omega_1 for the period omega_1 that q^Z leaves:
    # the real period when c6 > 0, else the imaginary one
    twisted = curve.c6 > 0
    rate = (2 * pi << bits) // omega if twisted else -(ell << bits) // omega * (1 if q > 0 else 2)
    scale2 = (rate * rate >> bits) * (-1 if twisted else 1)
    torsion_x = tuple(sorted((e << bits) // scale2 - (1 << bits) // 12 for e in roots))
    # the chain at q_k = q^(2^k), r = q_(k+1): b+- at k = 0 are X + 2 sigma_1 at
    # u = +-sqrt(q), whose Y = X + 1/12 solve Y^2 + y Y + y^2 + p/scale2^2 = 0
    # for y = x(-1) + 1/12; at v = P_{q_k}(-1) level k's roots are P_r(-1) <
    # P_r(-q_k), and P_r(q_k) = (b+ + b-)/4.  n levels, 2^n floor(log2 1/|q|)
    # >= bits + floor(log2 1/|q|), leave |q_n| < |q| 2^-bits.
    y, v, levels = torsion_x[0] + (1 << bits) // 12, torsion_x[0] + 2 * sigma1, []
    s, m = 4 * sigma1 - y - (1 << bits) // 6, -3 * y * y - (4 * p << 4 * bits - g) // scale2**2
    for _ in range((-(-bits // (bits - precision_bits - 41))).bit_length()):
        levels.append((s, m))
        root = isqrt((2 * v - s) ** 2 - m)
        b, v = 2 * v + root >> 2, 2 * v - root >> 2
        s, m = b + (s >> 2), (b - (s >> 2)) ** 2
    return ArchContext(curve, precision_bits, bits, shift, twisted, q,
                       isqrt(q << bits) if q > 0 else 0, ell, scale2, sigma1, omega,
                       tuple(roots), torsion_x, tuple(levels))


# -- the point on ints at scale 2^bits ---------------------------------------


def _x_series(ctx: ArchContext, u: tuple, eps: int) -> int:
    """Normalized x at u = (re, im) on the real locus: the real part of the
    sum of t/(1 - t)^2 over t = q^n u and q^n/u, summed while |q^n| >= eps,
    all at scale 2^bits.  For eps <= |q| and |q| <= |u| <= 1 the terms left
    out sum to less than 1.2 eps/|q|: they have n >= 2, where |q^n u| <=
    |q|^n and |q^n/u| <= |q|^(n-1) <= |q| <= e^-pi bound |t/(1 - t)^2| by
    |t| / (1 - |q|)^2, and their sum is geometric."""
    f, q, v = ctx.bits, ctx.q, inverse(u, ctx.bits)

    def term(s, w):  # re(r^2 - r) = re t/(1 - t)^2 for r = 1/(1 - t), t = s w
        c, b = (1 << f) - (s * w[0] >> f), s * w[1] >> f
        norm = c * c + b * b
        r, i = (c << 2 * f) // norm, (b << 2 * f) // norm
        return (r * r - i * i >> f) - r

    total, qn = term(1 << f, u) - 2 * ctx.sigma1, 1 << f
    while True:
        qn = qn * q >> f
        if abs(qn) < eps:
            return total
        total += term(qn, u) + term(qn, v)


def _theta_norm(ctx: ArchContext, u: tuple, eps: int) -> int:
    """|theta(u)|^2 at scale 2^(2 bits): |1 - u|^2, exact, times the square
    modulus of the product of (1 - q^n u)(1 - q^n/u) = 1 - q^n (u + 1/u) +
    q^2n over |q^n| >= eps."""
    f, q, v = ctx.bits, ctx.q, inverse(u, ctx.bits)
    sr, si, pr, pi, qn = u[0] + v[0], u[1] + v[1], 1 << f, 0, 1 << f
    while True:
        qn = qn * q >> f
        if abs(qn) < eps:
            return (((1 << f) - u[0]) ** 2 + u[1] * u[1]) * (pr * pr + pi * pi) >> 2 * f
        a, b = (1 << f) + (qn * qn - qn * sr >> f), -(qn * si >> f)
        pr, pi = (pr * a - pi * b) >> f, (pr * b + pi * a) >> f


def elliptic_log(ctx: ArchContext, point: CurvePoint) -> tuple:
    """Uniformizer u in C*/q^Z of a real point as the pair (re, im) of ints
    at scale 2^ctx.bits, normalized so that 0 <= -log|u| < ell.  Raises
    PrecisionError near the origin when the working precision cannot
    separate the point from u = 1."""
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    if not ctx.curve.contains(point):
        raise InputError("point is not on the curve")
    return _elliptic_log(ctx, point)


def _elliptic_log(ctx: ArchContext, point: CurvePoint) -> tuple:
    """elliptic_log of an affine point already known to be on the curve."""
    curve, f, q, root, tx = ctx.curve, ctx.bits, ctx.q, ctx.root, ctx.torsion_x
    bits, one = ctx.precision_bits, 1 << f
    t = _scaled(point.x + curve.b2 / 12, f - 2 * ctx.shift)
    x_target = (t << f) // ctx.scale2 - one // 12
    # 2y + a1 x + a3 = alpha^3 (2Y + X), alpha = sqrt(scale2), has the
    # sign of 2Y + X, or of its imaginary part when alpha is imaginary
    eta = 2 * point.y + curve.a1 * point.x + curve.a3
    # Each real component runs from ends[0] (the origin u = 1, or on the egg
    # the 2-torsion point that the shift below adds) to the 2-torsion point
    # ends[1] (u = |q| ~ -1 when q < 0 untwisted).  x_target and the end values
    # carry about precision_bits + 30 bits: a component test needs a slack of
    # 2^-precision_bits (1 + |x|).
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
        # 2-torsion: an end in closed form (the egg's shift divides by t - e3)
        i = min((0, 1), key=lambda i: abs(x_ends[i] - x_target)) if egg else 1
        u = (ends[i], 0)
    else:
        if egg:  # add (e3, .), which moves the point to the identity component
            e1, e2, e3 = ctx.roots
            t = e3 + (e1 - e3) * (e2 - e3) // (t - e3)
        elif abs(x_target) >> 2 * (bits + 5) > one:
            raise PrecisionError("point too close to the origin")
        # A = P_q(u) down the chain, larger root (smaller when twisted), to f(u): u in (0, 1]
        # is 2A/(2A + 1 + sqrt(4A + 1)); on |u| = 1, im u >= 0, 1 + 1/2A + i sqrt(-4A - 1)/(-2A)
        a, sign = (t << f) // ctx.scale2 - one // 12 + 2 * ctx.sigma1, -1 if ctx.twisted else 1
        for s, m in ctx.levels:
            a = 2 * a + sign * isqrt(max(0, (2 * a - s) ** 2 - m)) >> 2
        if ctx.twisted:
            u = (2 * a + one << f) // (2 * a), (isqrt(max(0, -4 * a - one) << f) << f) // (-2 * a)
        else:
            u = (2 * a << f) // (2 * a + one + isqrt(4 * a + one << f)), 0
        u = (ends[0] * u[0] >> f, ends[0] * u[1] >> f)
        # dx/dlog(u) = 2Y + X keeps one sign between the ends: positive on the
        # identity component, negative on the egg, the other way round on the circles
        if (eta > 0) != (egg == ctx.twisted):
            u = (u[0], -u[1]) if ctx.twisted else ((q << f) // u[0], 0)  # the inverse class
    # the terms the series leaves out, < 1.2 eps/|q|, are below 2^-20 tol
    tol = (one + abs(x_target)) >> bits // 2
    if abs(_x_series(ctx, u, abs(q) * min(tol, one) >> f + 21) - x_target) > tol:
        raise PrecisionError("uniformizer round-trip failed; raise precision")
    return u


def local_height_from_uniformizer(ctx: ArchContext, u: tuple) -> float:
    """lambda' = (ell/2) B2(t) - log|theta(u)| with t = -log|u|/ell in [0,1),
    for u = (re, im) at scale 2^ctx.bits, rounded to a double once.

    Accepts any u in C*; reduces modulo q^Z first, so u and q u agree.
    """
    f, q, ell = ctx.bits, ctx.q, ctx.ell
    t = -(log(u[0] * u[0] + u[1] * u[1], 2 * f, f) << f) // (2 * ell)
    shift = t >> f
    for _ in range(abs(shift)):
        u = tuple((c << f) // q if shift > 0 else c * q >> f for c in u)
    t -= shift << f
    eps = 1 << f - ctx.precision_bits - _TERM_GUARD
    theta = _theta_norm(ctx, u, eps)
    if theta < 100 * eps * eps:
        raise InputError("theta vanishes: point on the divisor")
    half = t - (1 << f - 1)
    b2 = (half * half >> f) - (1 << f) // 12
    return ((ell * b2 >> f + 1) - (log(theta, 2 * f, f) >> 1)) / (1 << f)


def local_height_arch(ctx: ArchContext, point: CurvePoint) -> float:
    """Archimedean normalized local height of a real rational point."""
    return local_height_from_uniformizer(ctx, elliptic_log(ctx, point))
