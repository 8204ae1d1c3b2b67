"""Archimedean normalized canonical local height via the multiplicative
uniformization C*/q^Z.

The parameter q = e^{2 pi i tau} is real with sign(q) = sign(disc) and
small modulus (|q| <= e^{-pi} for every real curve).  It is read off the
period ratio tau, which the arithmetic-geometric mean gives in closed form
from the real roots of 4x^3 + b2 x^2 + 2 b4 x + b6 (Cohen, GTM 138,
Alg. 7.4.7); the q-expansion of j only checks it.  Points are mapped to the
uniformizer u by inverting the Tate coordinate series along the real locus,
which is either the real annulus |q| < |u| <= 1 or, for the twisted real
form, the circles |u| = 1 and |u| = sqrt(q).  Each real component is an arc
on which x is monotone; Newton steps with dx/d(log u) = 2Y + X, kept inside
the arc, solve for u (Cremona-Thongjunthug, J. Number Theory 133, 2013),
and a 2-torsion point, where that derivative vanishes, takes its arc end
in closed form.  The height is then

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

_TERM_GUARD = 30
_NEWTON_GUARD = 200
_SEED_BITS = 32


def _sigma_sum(k: int, q, eps):
    """sum n^k q^n / (1 - q^n), truncated when |q|^n < eps."""
    total = mp.mpf(0)
    qn = mp.mpf(1)
    n = 1
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += (n**k) * qn / (1 - qn)
        n += 1
        if n > 100000:
            raise PrecisionError("sigma series failed to converge")


def _c4_of_q(q, eps):
    return 1 + 240 * _sigma_sum(3, q, eps)


def _c6_of_q(q, eps):
    return -(1 - 504 * _sigma_sum(5, q, eps))


def _disc_of_q(q, eps):
    prod = mp.mpf(1)
    qn = mp.mpf(1)
    n = 1
    while True:
        qn *= q
        if abs(qn) < eps:
            break
        prod *= (1 - qn) ** 24
        n += 1
        if n > 100000:
            raise PrecisionError("discriminant product failed to converge")
    return q * prod


def _j_of_q(q, eps):
    return _c4_of_q(q, eps) ** 3 / _disc_of_q(q, eps)


def _mp(value):
    return mp.mpf(value.numerator) / value.denominator


def _real_q(curve: WeierstrassCurve):
    """(q, real roots t of t^3 + p t + r): q = e^{2 pi i tau} from the
    periods by the AGM (Cohen, GTM 138, Alg. 7.4.7), with tau on the real
    branch of the discriminant sign: tau = i s with s >= 1 when disc > 0,
    tau = (1 + i s)/2 with s >= 1 when disc < 0."""
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
        return mp.exp(-2 * mp.pi * max(a / b, b / a)), roots
    # beta = |3 e1 + b2/4| and alpha = sqrt(3 e1^2 + b2 e1/2 + b4/2) at t
    beta, alpha = 3 * abs(roots[0]), mp.sqrt(3 * roots[0] ** 2 + p)
    a = mp.agm(2 * mp.sqrt(alpha), mp.sqrt(2 * alpha + beta))
    b = mp.agm(2 * mp.sqrt(alpha), mp.sqrt(2 * alpha - beta))
    return -mp.exp(-mp.pi * a / b), roots


@dataclass
class ArchContext:
    """Everything needed to evaluate archimedean local heights on a curve."""

    curve: WeierstrassCurve
    precision_bits: int
    q: mp.mpf
    ell: mp.mpf                  # -log|q|
    scale2: mp.mpf               # alpha^2 relating normalized x-coordinates
    alpha3: complex              # alpha^3 (imaginary when scale2 < 0)
    sigma1: mp.mpf               # sum n q^n / (1 - q^n), the x-series constant
    torsion_x: tuple             # normalized x(-1) [< x(-sqrt q) < x(sqrt q)]

    @property
    def twisted(self) -> bool:
        """True when the real locus sits on |u| = 1 (and |u| = sqrt(q))."""
        return self.scale2 < 0


def arch_context(curve: WeierstrassCurve, precision_bits: int = 128) -> ArchContext:
    with mp.workprec(precision_bits + 40):
        eps = mp.mpf(2) ** (-(precision_bits + _TERM_GUARD))
        j = _mp(curve.j_invariant)
        q, roots = _real_q(curve)
        c4q = _c4_of_q(q, eps)
        c6q = _c6_of_q(q, eps)
        c4e, c6e = _mp(curve.c4), _mp(curve.c6)
        if c4e != 0 and c6e != 0:
            scale2 = (c6e * c4q) / (c6q * c4e)
        elif c4e == 0:
            ratio = c6e / c6q
            scale2 = mp.sign(ratio) * mp.cbrt(abs(ratio))
        else:
            ratio = c4e / c4q
            if ratio < 0:
                raise PrecisionError("inconsistent quartic-twist data at j=1728")
            scale2 = mp.sqrt(ratio)
        alpha = mp.sqrt(mp.mpc(scale2))
        ell = -mp.log(abs(q))
        ctx = ArchContext(
            curve=curve,
            precision_bits=precision_bits,
            q=q,
            ell=ell,
            scale2=scale2,
            alpha3=alpha**3,
            sigma1=_sigma_sum(1, q, eps),
            torsion_x=tuple(sorted(t / scale2 - mp.mpf(1) / 12 for t in roots)),
        )
        jq = _j_of_q(q, eps)
        if abs(jq - j) > (abs(j) + 1728) * mp.mpf(2) ** (-(precision_bits - 10)):
            raise PrecisionError("q-inversion did not reproduce j to tolerance")
        return ctx


# -- Tate coordinate series over C ------------------------------------------


def _x_series(u, q, eps, sigma1):
    def f(t):
        return t / (1 - t) ** 2

    total = f(u) - 2 * sigma1
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += f(qn * u) + f(qn / u)


def _eta_series(u, q, eps):
    """2Y + X = sum over n of g(q^n u) with g(t) = t(1+t)/(1-t)^3, odd
    under t -> 1/t."""

    def g(t):
        return t * (1 + t) / (1 - t) ** 3

    total = g(u)
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += g(qn * u) - g(qn / u)


def _theta_product(u, q, eps):
    total = 1 - u
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total *= (1 - qn * u) * (1 - qn / u)


def _normalized_x(ctx: ArchContext, x):
    return (x + _mp(ctx.curve.b2) / 12) / ctx.scale2 - mp.mpf(1) / 12


def _eta_target(ctx: ArchContext, point: CurvePoint):
    curve = ctx.curve
    return _mp(2 * point.y + curve.a1 * point.x + curve.a3) / ctx.alpha3


def elliptic_log(ctx: ArchContext, point: CurvePoint):
    """Uniformizer u in C*/q^Z of a real point, normalized so that
    0 <= -log|u| < ell.  Raises PrecisionError near the origin when the
    working precision cannot separate the point from u = 1."""
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    if not ctx.curve.contains(point):
        raise InputError("point is not on the curve")
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + _TERM_GUARD))
        q = ctx.q
        x_target = _normalized_x(ctx, _mp(point.x))
        eta_target = _eta_target(ctx, point)
        tiny = mp.mpf(2) ** (-(ctx.precision_bits + 5))
        # x_target and the end values carry about precision_bits + 30 bits,
        # so a component test needs no wider slack than 2^-precision_bits
        slack = mp.mpf(2) ** -ctx.precision_bits
        root, tx = (mp.sqrt(q) if q > 0 else None), ctx.torsion_x
        # Each real component is an arc u = ends[0] exp(k theta), 0 <= theta
        # <= pi, on which x is monotone.  theta = 0 is the origin (x infinite)
        # on the identity component and a 2-torsion point on the egg; theta =
        # pi is a 2-torsion point (u = |q| ~ -1 when q < 0 and untwisted).
        if ctx.twisted:
            k, ends, x_ends = mp.mpc(0, 1), (1, mp.mpf(-1)), (None, tx[0])
            if q > 0 and x_target > tx[0] + slack * (1 + abs(tx[0])):
                ends, x_ends = (root, -root), (tx[2], tx[1])  # the egg |u| = sqrt(q)
        elif q > 0:
            k, ends, x_ends = -ctx.ell / (2 * mp.pi), (1, root), (None, tx[2])
            if x_target < tx[2] - slack * (1 + abs(tx[2])):
                ends, x_ends = (mp.mpf(-1), -root), (tx[0], tx[1])  # the egg u <= -sqrt(q)
        else:
            k, ends, x_ends = -ctx.ell / mp.pi, (1, mp.mpf(-1)), (None, tx[0])
        if eta_target == 0:
            # 2-torsion: an arc end, where dx/dtheta vanishes
            i = 1 if x_ends[0] is None else min((0, 1), key=lambda i: abs(x_ends[i] - x_target))
            u = ends[i]
            err = mp.re(_x_series(u, q, eps, ctx.sigma1)) - x_target
        else:
            u, err, eta_u = _newton_on_arc(ctx, ends[0], k, x_ends, x_target, tiny)
            if not ctx.twisted:
                if abs(eta_target) > tiny and mp.sign(mp.re(eta_u)) != mp.sign(mp.re(eta_target)):
                    u = q / u
            elif abs(mp.im(eta_target)) > tiny and mp.sign(mp.im(eta_u)) != mp.sign(mp.im(eta_target)):
                u = mp.conj(u)  # inverse class on either circle
        if abs(err) > (1 + abs(x_target)) * mp.mpf(2) ** (-(ctx.precision_bits // 2)):
            raise PrecisionError("uniformizer round-trip failed; raise precision")
        return mp.mpc(u) if ctx.twisted else u


def _newton_on_arc(ctx: ArchContext, start, k, x_ends, x_target, tiny):
    """Solve x(u) = x_target on the arc u = start exp(k theta), 0 < theta <
    pi; returns (u, x(u) - x_target, 2Y + X at the last Newton point).

    Newton runs in w = sin^2(theta/2), in which x has a simple pole at the
    origin (x ~ A/w, A = 1/(4 k^2)) and is smooth through the 2-torsion ends.
    The seed fits that pole, or a line on the egg, to the end values; a step
    that leaves the bracket bisects it instead.  Steps run at 32 bits until
    they converge, then at doubling precisions, so that only the last step
    and the round-trip check run at the full working precision.
    """
    if x_ends[0] is None:
        if abs(x_target) * tiny**2 > 1:
            raise PrecisionError("point too close to the origin")
        pole = mp.re(1 / (4 * k**2))
        w = pole / (x_target - x_ends[1] + pole)
    else:
        w = (x_target - x_ends[0]) / (x_ends[1] - x_ends[0])
    if not 0 < w < 1:
        w = mp.mpf(1) / 2
    # each converged step doubles the digits, so it doubles the precision
    rungs = [ctx.precision_bits + 40]
    while rungs[0] > 2 * _SEED_BITS:
        rungs.insert(0, rungs[0] // 2 + 4)
    lo, hi, bits, done = mp.mpf(0), mp.mpf(1), _SEED_BITS, False
    for _ in range(_NEWTON_GUARD):
        with mp.workprec(bits):
            eps = mp.mpf(2) ** -bits
            theta = 2 * mp.asin(mp.sqrt(w))
            u = start * mp.exp(k * theta)
            err = mp.re(_x_series(u, ctx.q, eps, ctx.sigma1)) - x_target
            if done:
                return u, err, eta_u
            eta_u = _eta_series(u, ctx.q, eps)
            slope = 2 * mp.re(k * eta_u) / mp.sin(theta)  # dx/dw; dx/dlog(u) = eta
            # below the truncation noise the sign of err says nothing
            if abs(err) > (1 + abs(x_target)) * mp.mpf(2) ** (20 - bits):
                lo, hi = (lo, w) if err * slope > 0 else (w, hi)
            step = w - err / slope
            if not lo < step < hi:
                step = (lo + hi) / 2
            shrink = abs(step - w) / w
        w = step
        if shrink < mp.mpf(2) ** (4 - bits // 2):  # w now holds about bits - 8 bits
            done = bits == rungs[-1]
            bits = next((b for b in rungs if b > bits), bits)
    raise PrecisionError("Newton on the uniformizer did not converge")


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
    u = elliptic_log(ctx, point)
    return local_height_from_uniformizer(ctx, u)
