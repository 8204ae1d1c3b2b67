"""Archimedean normalized canonical local height via the multiplicative
uniformization C*/q^Z.

The parameter q is real with sign(q) = sign(disc) and small modulus
(|q| <= e^{-pi} + eps for every real curve), found by monotone bisection on
the classical q-expansion of j.  Points are mapped to the uniformizer u by
inverting the Tate coordinate series along the real locus, which is either
the real annulus |q| < |u| <= 1 or, for the twisted real form, the circles
|u| = 1 and |u| = sqrt(q).  The height is then

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


def _find_real_q(j_target, disc_positive: bool, eps):
    """Real q with j(q) = j_target and sign(q) = sign(disc).

    j is monotone on each of the real branches q in (0, e^{-2 pi}] (values
    >= 1728) and q in [-e^{-pi}, 0) (values <= 1728), so bisection on |q|
    suffices.  A real curve always has j on the branch of its discriminant
    sign (1728 disc = c4^3 - c6^2), so a target off it raises.
    """
    j_target = mp.mpf(j_target)
    # j has critical points at the elliptic fixed points, so bisection
    # would lose digits exactly there; return those corners in closed form
    if j_target == 1728:
        return mp.e ** (-2 * mp.pi) if disc_positive else -mp.e ** (-mp.pi)
    if j_target == 0 and not disc_positive:
        return -mp.e ** (-mp.pi * mp.sqrt(3))
    if disc_positive != (j_target > 1728):
        raise PrecisionError(f"j = {j_target} lies off the branch of the discriminant sign")
    if disc_positive:
        hi = mp.e ** (-2 * mp.pi)  # CM corner j = 1728, tau = i
        sign = 1
    else:
        hi = mp.e ** (-mp.pi)  # CM corner j = 1728, tau = (1 + i)/2
        sign = -1
    lo = mp.mpf(10) ** (-mp.mp.dps - 10)
    # asymptotic seed |q| ~ 1/|j|, valid once 1/q dominates the expansion
    if abs(j_target) > 1000:
        lo = max(lo, 1 / (4 * abs(j_target)))

    def f(x):
        return _j_of_q(sign * x, eps)

    # j decreases in |q| on the positive branch and increases with |q|
    # toward the corner value 1728 on the negative branch.
    for _ in range(mp.mp.prec + 60):
        mid = (lo + hi) / 2
        val = f(mid)
        if disc_positive:
            if val > j_target:
                lo = mid
            else:
                hi = mid
        else:
            if val < j_target:
                lo = mid
            else:
                hi = mid
        if hi - lo < lo * mp.mpf(2) ** (-mp.mp.prec):
            break
    return sign * (lo + hi) / 2


@dataclass
class ArchContext:
    """Everything needed to evaluate archimedean local heights on a curve."""

    curve: WeierstrassCurve
    precision_bits: int
    q: mp.mpf
    ell: mp.mpf                  # -log|q|
    scale2: mp.mpf               # alpha^2 relating normalized x-coordinates
    alpha3: complex              # alpha^3 (imaginary when scale2 < 0)

    @property
    def twisted(self) -> bool:
        """True when the real locus sits on |u| = 1 (and |u| = sqrt(q))."""
        return self.scale2 < 0


def arch_context(curve: WeierstrassCurve, precision_bits: int = 128) -> ArchContext:
    with mp.workprec(precision_bits + 40):
        eps = mp.mpf(2) ** (-(precision_bits + _TERM_GUARD))
        j = mp.mpf(curve.j_invariant.numerator) / curve.j_invariant.denominator
        disc_positive = curve.discriminant > 0
        q = _find_real_q(j, disc_positive, eps)
        c4q = _c4_of_q(q, eps)
        c6q = _c6_of_q(q, eps)
        c4e = mp.mpf(curve.c4.numerator) / curve.c4.denominator
        c6e = mp.mpf(curve.c6.numerator) / curve.c6.denominator
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
        )
        jq = _j_of_q(q, eps)
        if abs(jq - j) > (abs(j) + 1728) * mp.mpf(2) ** (-(precision_bits - 10)):
            raise PrecisionError("q-inversion did not reproduce j to tolerance")
        return ctx


# -- Tate coordinate series over C ------------------------------------------


def _x_series(u, q, eps):
    def f(t):
        return t / (1 - t) ** 2

    total = f(u) - 2 * _sigma_sum(1, q, eps)
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


def _bisect_monotone(func, lo, hi, target, iterations):
    f_lo, f_hi = func(lo), func(hi)
    if f_lo > f_hi:
        lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo
    slack = (abs(f_lo) + abs(f_hi) + 1) * mp.mpf(2) ** (-mp.mp.prec // 2)
    if target < f_lo - slack or target > f_hi + slack:
        raise PrecisionError(
            f"target {mp.nstr(target)} outside bracket "
            f"[{mp.nstr(f_lo)}, {mp.nstr(f_hi)}]"
        )
    target = min(max(target, f_lo), f_hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if func(mid) <= target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _normalized_x(ctx: ArchContext, point: CurvePoint):
    curve = ctx.curve
    xt = (
        mp.mpf(point.x.numerator) / point.x.denominator
        + mp.mpf(curve.b2.numerator) / curve.b2.denominator / 12
    )
    return xt / ctx.scale2 - mp.mpf(1) / 12


def _eta_target(ctx: ArchContext, point: CurvePoint):
    curve = ctx.curve
    eta = 2 * point.y + curve.a1 * point.x + curve.a3
    return mp.mpf(eta.numerator) / eta.denominator / ctx.alpha3


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
        x_target = _normalized_x(ctx, point)
        eta_target = _eta_target(ctx, point)
        iterations = ctx.precision_bits + 50
        disc_positive = ctx.curve.discriminant > 0
        tiny = mp.mpf(2) ** (-(ctx.precision_bits + 5))

        def x_at(u):
            val = _x_series(u, q, eps)
            return val.real if isinstance(val, mp.mpc) else val

        if not ctx.twisted:
            # real annulus: q < u <= 1 up to sign
            if disc_positive:
                root = mp.sqrt(q)
                boundary = x_at(root)
                on_identity = x_target >= boundary - mp.mpf("1e-12") * (1 + abs(boundary))
                if on_identity:
                    hi = 1 - tiny
                    if x_at(hi) < x_target:
                        raise PrecisionError("point too close to the origin")
                    u = _bisect_monotone(x_at, root, hi, x_target, iterations)
                else:
                    u = _bisect_monotone(x_at, mp.mpf(-1), -root, x_target, iterations)
            else:
                lo = abs(q) * (1 + tiny)
                hi = 1 - tiny
                if x_at(hi) < x_target:
                    raise PrecisionError("point too close to the origin")
                u = _bisect_monotone(x_at, lo, hi, x_target, iterations)
            u = mp.mpf(u)
            eta_u = _eta_series(u, q, eps)
            eta_u = eta_u.real if isinstance(eta_u, mp.mpc) else eta_u
            eta_t = eta_target.real if isinstance(eta_target, mp.mpc) else eta_target
            if abs(eta_t) > tiny and mp.sign(eta_u) != mp.sign(eta_t):
                u = q / u
        else:
            # twisted real form: identity component on |u| = 1, egg (when
            # disc > 0) on |u| = sqrt(q)
            def x_circle(theta):
                return x_at(mp.exp(1j * theta))

            def x_egg(theta):
                return x_at(mp.sqrt(q) * mp.exp(1j * theta))

            boundary = x_circle(mp.pi)
            on_identity = True
            if disc_positive:
                on_identity = x_target <= boundary + mp.mpf("1e-12") * (1 + abs(boundary))
            if on_identity:
                lo_theta = tiny
                # x decreases to -infinity toward the origin on the circle
                if x_circle(lo_theta) > x_target:
                    raise PrecisionError("point too close to the origin")
                theta = _bisect_monotone(x_circle, lo_theta, mp.pi, x_target, iterations)
                u = mp.exp(1j * theta)
            else:
                theta = _bisect_monotone(x_egg, mp.mpf(0), mp.pi, x_target, iterations)
                u = mp.sqrt(q) * mp.exp(1j * theta)
            eta_u = _eta_series(u, q, eps)
            eta_t_im = eta_target.imag if isinstance(eta_target, mp.mpc) else mp.mpf(0)
            if abs(eta_t_im) > tiny and mp.sign(eta_u.imag) != mp.sign(eta_t_im):
                u = mp.conj(u)  # inverse class on either circle
        check = _x_series(u, q, eps)
        check = check.real if isinstance(check, mp.mpc) else check
        if abs(check - x_target) > (1 + abs(x_target)) * mp.mpf(2) ** (
            -(ctx.precision_bits // 2)
        ):
            raise PrecisionError("uniformizer round-trip failed; raise precision")
        return u


def coordinates_from_uniformizer(ctx: ArchContext, u):
    """(x, y) on the original model from a uniformizer (round-trip support)."""
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + _TERM_GUARD))
        q = ctx.q
        x_q = _x_series(u, q, eps)
        eta_q = _eta_series(u, q, eps)
        curve = ctx.curve
        b2 = mp.mpf(curve.b2.numerator) / curve.b2.denominator
        xt = ctx.scale2 * (x_q + mp.mpf(1) / 12)
        x = xt - b2 / 12
        eta = ctx.alpha3 * eta_q
        a1 = mp.mpf(curve.a1.numerator) / curve.a1.denominator
        a3 = mp.mpf(curve.a3.numerator) / curve.a3.denominator
        y = (eta - a1 * x - a3) / 2
        return x, y


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
