"""Global canonical height assembly over Q and the independent doubling
oracle.

The global sum over places of normalized local heights (v-unit values times
log p, plus the archimedean value) is compared against half the
x-coordinate canonical height

    hhat_x(P) = lim 4^{-n} h(x([2^n] P)),

computed from the doubling sequence alone, with exact gcds modulo a power
of the duplication resultant Delta^2 and the sizes as binary floats on
ints, each estimate rounded to a double once; a torsion point, as
``WeierstrassCurve.torsion_order`` decides it, gives an exact zero.  The
factor one half is the divisor-degree bookkeeping between the origin
divisor and the x-line bundle; it is pinned here by the torsion and
doubling calibration tests rather than assumed.

What belongs to the curve alone (the factored discriminant, the LocalModel
at each prime, the bad places, the ArchContext at each precision and the
oracle's integral model) is computed once per curve object and kept on it
by ``CurveModel``; each call computes only what depends on the point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt

from . import arch
from .arch import _MIN_BITS, ArchContext, arch_context
from .curves import CurvePoint, WeierstrassCurve, duplication
from .errors import AdditiveReductionError, InputError, PrecisionError
from .exact import factorize
from .tate import LocalModel, local_height_report  # noqa: F401 (perfbench's tracer wraps it)


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = 128
    n_max: int = 10
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        bounds = (("precision_bits", self.precision_bits >= _MIN_BITS, f"at least {_MIN_BITS}"),
                  ("n_max", self.n_max >= 2, "at least 2"),
                  ("tolerance", 0 < self.tolerance < math.inf, "finite and positive"))
        for name, ok, bound in bounds:
            if not ok:
                raise InputError(f"RunConfig.{name} = {getattr(self, name)!r} must be {bound}")


# ---------------------------------------------------------------------------
# Per-curve facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveModel:
    """What one curve tells every height on it, each fact computed on first
    use: its primes, the LocalModel at each prime asked for, the bad places,
    the ArchContext at each precision and the oracle's integral model.
    ``CurveModel.at(curve)`` keeps it in the curve's ``__dict__``, beside the
    curve's cached invariants, so it lives and dies with the curve object.
    """

    curve: WeierstrassCurve
    _local: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _arch: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def at(cls, curve: WeierstrassCurve) -> "CurveModel":
        model = curve.__dict__.get("_curve_model")
        if model is None:
            model = curve.__dict__["_curve_model"] = cls(curve)
        return model

    @cached_property
    def primes(self) -> tuple:
        """The primes of the discriminant and of the coefficient denominators,
        in one factorization (disc's denominator divides a power of the
        curve's integral_scale)."""
        return tuple(factorize(self.curve.discriminant.numerator * self.curve.integral_scale))

    def local(self, p: int) -> LocalModel:
        """The LocalModel at p, built on first use."""
        if p not in self._local:
            self._local[p] = LocalModel.at(self.curve, p)
        return self._local[p]

    @cached_property
    def bad_places(self) -> tuple:
        """The LocalModel at each prime with v_p(minimal discriminant) > 0."""
        models = [self.local(p) for p in self.primes]
        return tuple(m for m in models if m.reduction.multiplicity > 0)

    def arch(self, precision_bits: int) -> ArchContext:
        """The ArchContext at this precision.  A context that raises is not
        kept, so every later call raises again."""
        if precision_bits not in self._arch:
            self._arch[precision_bits] = arch_context(self.curve, precision_bits)
        return self._arch[precision_bits]

    @cached_property
    def duplication(self) -> tuple:
        """The oracle's (b, Delta^2): the b-invariants, as ints, of the
        integral model x -> s^2 x, s the curve's integral_scale, and its
        duplication resultant."""
        work = self.curve.transform(Fraction(1, self.curve.integral_scale), 0, 0, 0)
        b = tuple(int(x) for x in (work.b2, work.b4, work.b6, work.b8))
        return b, work.discriminant.numerator ** 2


# ---------------------------------------------------------------------------
# Doubling oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingOracleResult:
    value: float          # extrapolated 1/2 * hhat_x
    estimates: tuple      # 4^{-n} h(x(2^n P)) for n = 1..n_max
    is_torsion: bool


def _common_factor(num: int, den: int, res: int) -> int:
    """gcd(num, den) for the image of a coprime pair: it divides the
    duplication resultant res, so residues mod res determine it."""
    return gcd(gcd(num % res, res), den % res)


_LOG2 = sum((1 << 128) // (k << k) for k in range(1, 129))  # 2^128 log 2 = sum 2^128 / (k 2^k)


def _split_estimates(n: int, d: int, b: tuple, res: int, first: int, last: int) -> list:
    """Estimates 4^-k log max(|n_k|, d_k) for k = first..last, from the
    reduced pair (n, d) at step first - 1, without full-size integers.

    The pair enters step k known modulo res^(last - k + 1).  Its common
    factor g_k divides res, so it is read exactly from residues mod res, and
    divided by g_k the pair is known modulo res^(last - k).  The sizes are
    binary floats of W = 64 + 2 * last bits on ints (the doubling map loses
    about one bit per step), x_k = X / 2^s and d_k ~ m 2^e: with F(x) 2^4s
    and G(x) 2^3s exact from the duplication forms at (X, 2^s), d_{k+1} =
    d_k^4 |G(x_k)| / g_k and x_{k+1} = F(x_k) / G(x_k), each cut back to W
    bits.  Each estimate is rounded to a double once, from the top 60 bits
    of m max(|X|, 2^s) and its exponent.  G(x_k) = 0 raises PrecisionError.
    """
    width = 64 + 2 * last
    modulus = res ** (last - first + 1)
    s = max(0, width - n.bit_length() + d.bit_length())
    e = max(0, d.bit_length() - width)
    x, m = (n << s) // d, d >> e
    n, d = n % modulus, d % modulus
    estimates = []
    for step in range(first, last + 1):
        num, den = duplication(n, d, b)
        g = _common_factor(num, den, res)
        modulus //= res
        n, d = num // g % modulus, den // g % modulus
        fx, gx = duplication(x, 1 << s, b)
        gx >>= s
        if gx == 0:
            raise PrecisionError(f"x_{step - 1} is a root of the duplication denominator G")
        m = (m**4 * abs(gx) << g.bit_length()) // g
        trim = max(0, m.bit_length() - width)
        m, e = m >> trim, 4 * e - 3 * s + trim - g.bit_length()
        k = max(width - fx.bit_length() + gx.bit_length(), -s)
        x = (fx << k) // gx if k >= 0 else fx // (gx << -k)
        s += k
        size = m * max(abs(x), 1 << s)  # over 60 bits: |X| or 2^s is near 2^W
        bits = size.bit_length()
        mantissa = math.ldexp(size >> bits - 60, -59)
        fixed = (bits - 1 + e - s) * _LOG2 + int(math.ldexp(math.log(mantissa), 128))
        estimates.append(fixed / (1 << 128 + 2 * step))
    return estimates


def doubling_oracle(
    curve: WeierstrassCurve, point: CurvePoint, n_max: int = 10
) -> DoublingOracleResult:
    """Half the x-coordinate canonical height from the doubling sequence.

    A torsion point, as ``torsion_order`` decides it, gives an exact zero
    and no estimates.  Any other point is mapped to the integral model
    x -> s^2 x and doubled from the first step with exact gcds modulo a
    power of the duplication resultant Delta^2 and the sizes on ints
    (``_split_estimates``); the value is the Richardson
    extrapolation of the last two estimates.  A point off the curve or
    n_max < 2 raises InputError.
    """
    if n_max < 2:
        raise InputError(f"n_max = {n_max!r} must be at least 2")
    if not curve.contains(point):
        raise InputError("point is not on the curve")
    return _doubling_oracle(curve, point, n_max)


def _doubling_oracle(curve: WeierstrassCurve, point: CurvePoint,
                     n_max: int) -> DoublingOracleResult:
    """doubling_oracle of a point already known to be on the curve, n_max >= 2."""
    if curve.torsion_order(point) is not None:
        return DoublingOracleResult(0.0, (), True)
    b, res = CurveModel.at(curve).duplication
    x = point.x * curve.integral_scale**2
    estimates = _split_estimates(x.numerator, x.denominator, b, res, 1, n_max)
    value = (4 * estimates[-1] - estimates[-2]) / 3
    return DoublingOracleResult(value / 2, tuple(estimates), False)


# ---------------------------------------------------------------------------
# Global assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalHeightReport:
    curve: WeierstrassCurve
    point: CurvePoint
    local_reports: tuple          # non-archimedean LocalHeightReport entries
    arch_value: float
    global_sum: float
    oracle_value: float
    oracle_estimates: tuple       # DoublingOracleResult.estimates
    discrepancy: float
    checked_good_primes: tuple    # primes off the list verified to give 0


def bad_primes(curve: WeierstrassCurve) -> list:
    """Primes with v_p(minimal discriminant) > 0."""
    return [m.prime for m in CurveModel.at(curve).bad_places]


def is_semistable(curve: WeierstrassCurve) -> bool:
    return all(m.reduction.kind != "additive" for m in CurveModel.at(curve).bad_places)


def place_list(curve: WeierstrassCurve, point: CurvePoint) -> list:
    """The LocalModel of each place where lambda' can be nonzero: the bad
    primes and the primes of the x-denominator, sorted by prime."""
    model = CurveModel.at(curve)
    primes = {m.prime for m in model.bad_places} | set(factorize(point.x.denominator))
    return [model.local(p) for p in sorted(primes)]


@lru_cache(maxsize=256)
def _tripwire_primes(seed: int, covered: tuple) -> tuple:
    """Five primes below 44 off ``covered``, drawn by random.Random(seed);
    cached, as (seed, covered) is all it depends on: one seeding per pair."""
    candidates = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
                  if p not in covered]
    return tuple(random.Random(seed).sample(candidates, min(5, len(candidates))))


def global_height(
    curve: WeierstrassCurve, point: CurvePoint, config: RunConfig = RunConfig()
) -> GlobalHeightReport:
    """Sum of normalized local heights over all places, with the doubling
    oracle comparison.  Aborts with the offending primes at additive places."""
    if point.infinity:
        raise InputError("global height of the origin is not defined here")
    if not curve.contains(point):
        raise InputError("point is not on the curve")
    model = CurveModel.at(curve)
    # every additive place is bad: a prime off the curve's own has good reduction
    additive = [m.prime for m in model.bad_places if m.reduction.kind == "additive"]
    if additive:
        raise AdditiveReductionError(
            f"additive reduction at {additive}; restrict to semistable curves"
        )
    places = place_list(curve, point)
    # the point is checked above: each place, arch and the oracle trust it
    reports = [place._height(point) for place in places]
    ctx = model.arch(config.precision_bits)
    arch_value = arch.local_height_from_uniformizer(ctx, arch._elliptic_log(ctx, point))
    total = arch_value + sum(rep.real_value for rep in reports)
    oracle = _doubling_oracle(curve, point, config.n_max)
    # place coverage tripwire: lambda' vanishes at good primes off the list
    checked = _tripwire_primes(config.seed, tuple(m.prime for m in places))
    for p in checked:
        if model.local(p)._height(point).lambda_v != 0:
            raise InputError(f"place coverage violated: nonzero local height at good prime {p}")
    return GlobalHeightReport(curve, point, tuple(reports), arch_value, total, oracle.value,
                              oracle.estimates, abs(total - oracle.value), checked)


# ---------------------------------------------------------------------------
# Built-in curve search (demo and acceptance support)
# ---------------------------------------------------------------------------


def _rational_points_small(curve: WeierstrassCurve) -> list:
    """Small search for rational points: integer x with |x| <= 12 and a few
    quarter and ninth denominators."""
    points = []
    xs = [Fraction(n) for n in range(-12, 13)]
    xs += [Fraction(n, 4) for n in range(-4 * 8, 4 * 8 + 1) if n % 4]
    xs += [Fraction(n, 9) for n in range(-9 * 5, 9 * 5 + 1) if n % 9]
    for x in xs:
        lin = curve.a1 * x + curve.a3
        rhs = x**3 + curve.a2 * x**2 + curve.a4 * x + curve.a6
        disc = lin * lin + 4 * rhs
        if disc < 0:
            continue
        num, den = disc.numerator, disc.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            continue
        root = Fraction(rn, rd)
        for sign in (1, -1):
            y = (-lin + sign * root) / 2
            p = CurvePoint.affine(x, y)
            if curve.contains(p) and p not in points:
                points.append(p)
        if len(points) > 40:
            break
    return points


_SCAN_MAX_COEFF = 10


def find_semistable_examples(count: int = 10, want_torsion: bool = False) -> list:
    """Deterministic scan over Weierstrass coefficients |a4|, |a6| <= 10
    for semistable curves carrying a rational point of the requested kind.

    Returns (curve, point) pairs; points are non-torsion by Mazur's bound
    unless ``want_torsion``, in which case they have finite order > 1.
    Curves with a1 = a3 = 0 are scanned last: they are all additive at 2.
    """
    found = []
    seen_j = set()
    by_abs = sorted(range(-_SCAN_MAX_COEFF, _SCAN_MAX_COEFF + 1), key=lambda v: (abs(v), v))
    for a1, a3 in ((1, 0), (1, 1), (0, 1), (0, 0)):
        for a2 in (0, -1, 1):
            for a4 in by_abs:
                for a6 in by_abs:
                    if len(found) >= count:
                        return found
                    try:
                        curve = WeierstrassCurve.from_coeffs(a1, a2, a3, a4, a6)
                    except InputError:
                        continue
                    key = curve.j_invariant
                    if key in seen_j:
                        continue
                    if not is_semistable(curve):
                        continue
                    # an affine point has order None or > 1
                    point = next((p for p in _rational_points_small(curve)
                                  if (curve.torsion_order(p) is not None) == want_torsion), None)
                    if point is None:
                        continue
                    seen_j.add(key)
                    found.append((curve, point))
    return found
