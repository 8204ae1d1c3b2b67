"""Seeded inputs, operations and output checks for the four workloads.

Every workload is a list of operations over inputs drawn from one seeded
``random.Random``.  An operation calls public functions of the library
and nothing else; its check runs afterwards, outside the timed region, and
either raises ``CheckFailed`` or returns the absolute difference between
two routes to the same value (0 for an exact match), which feeds
``agreement_digits``.

The library defaults are fixed here and nowhere else: 128 bits of
precision, ``n_max`` = 10 doublings and a tolerance of 1e-6, all taken from
``RunConfig()``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import isqrt
from typing import Callable

from tropical_heights import heights, tate, tropical, verify
from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.degeneration import DegenerationData, component_group
from tropical_heights.errors import InputError
from tropical_heights.exact import PadicElement, is_prime, val_p
from tropical_heights.linalg import determinant, ldl_decompose, mat_inverse, mat_vec

CONFIG = heights.RunConfig()
WARMUP_SEED = 0
# |h(2P)/h(P) - 4| bound of the acceptance test for global heights.
RATIO_TOLERANCE = 1e-5


class CheckFailed(Exception):
    """An operation returned a value that its check rejects."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], float]


@dataclass
class Workload:
    inputs: list = field(default_factory=list)  # JSON-able description, hashed
    ops: list = field(default_factory=list)
    # The operation set-up runs once to warm up.  It is built from inputs
    # of WARMUP_SEED, so that set-up does the same work whatever the seed.
    warmup: Op = None


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# global-heights
# ---------------------------------------------------------------------------

# Inputs are held in narrow cost bands, so that a run's figures do not
# depend much on which curves the seed drew:
# - the height proxy 4^-5 h(x(2^5 P)), the fifth doubling estimate, holds
#   the oracle near 0.8 s on 2P and 0.1 s on P (on a 2-core shared VM with
#   Python 3.11), so 2P operations are oracle-bound and P operations are
#   bound by the archimedean place;
# - c6 < 0 selects the untwisted real locus, and both of the elliptic
#   log's untwisted branches are measured: two components (disc > 0) and
#   one component (disc < 0).  log|j| bounds the q-series length; with
#   disc < 0, c4 > 0 (j < 0) keeps |q| near 1/|j|, where j > 0 gives |q| up
#   to 0.04 and 1.5-2x the cost.  The twisted branches cost two to four
#   times as much and vary widely between curves;
# - bad primes stay below 500, so the O(p^2) node search (0.4 s at
#   p ~ 10^3, and 143 s per call at p = 18097, which one unrestricted draw
#   with |a_i| <= 10 hit) stays a minor share.  It is measured on purpose
#   in local-heights.
GLOBAL_HEIGHT_BAND = (0.15, 0.30)
GLOBAL_LOG_J_BAND = (6.5, 12.0)
GLOBAL_PRIME_CAP = 500
GLOBAL_COEFF = 20
# Curves per family in a run; the box holds 10 two-component and 3
# one-component curves in the bands.  Every run takes all three
# one-component curves, so agreement_digits, a minimum over the run's
# operations, does not depend on which of them the seed drew.  The
# two-component curves are drawn one from each pair adjacent in height,
# so that every seed gets a like spread of oracle costs: drawn freely,
# the tail and median latencies spread by a quarter between seeds.
GLOBAL_CURVES = {"two-component": 5, "one-component": 3}


def _integral_points(coeffs, x_range=12):
    a1, a2, a3, a4, a6 = coeffs
    for x in range(-x_range, x_range + 1):
        lin = a1 * x + a3
        disc = lin * lin + 4 * (x**3 + a2 * x * x + a4 * x + a6)
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        for sign in (1, -1):
            if (sign * root - lin) % 2 == 0:
                yield CurvePoint.affine(x, (sign * root - lin) // 2)


def _family(coeffs):
    """'two-component', 'one-component' or None (outside the bands), from
    the standard b- and c-invariants in integer arithmetic, before any
    curve object is built."""
    a1, a2, a3, a4, a6 = coeffs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if c6 >= 0 or c4 <= 0 or disc == 0:
        return None
    log_j = 3 * math.log(c4) - math.log(abs(disc))
    if not GLOBAL_LOG_J_BAND[0] <= log_j < GLOBAL_LOG_J_BAND[1]:
        return None
    return "two-component" if disc > 0 else "one-component"


def _global_candidate(coeffs):
    """(curve, point, height proxy) when the curve is semistable with bad
    primes below the cap and has a non-torsion integral point of height in
    band."""
    curve = WeierstrassCurve.from_coeffs(*coeffs)
    point = next(
        (p for p in _integral_points(coeffs) if curve.torsion_order(p) is None), None
    )
    if point is None:
        return None
    proxy = heights.doubling_oracle(curve, point, 5).estimates[-1]
    if not GLOBAL_HEIGHT_BAND[0] <= proxy < GLOBAL_HEIGHT_BAND[1]:
        return None
    if max(heights.bad_primes(curve)) >= GLOBAL_PRIME_CAP:
        return None
    if not heights.is_semistable(curve):
        return None
    return curve, point, proxy


def _global_pool():
    """Every curve of the box in the bands, by family, in order of height.
    The whole box is searched on every set-up, so set-up costs the same
    whatever the seed."""
    pool = {family: [] for family in GLOBAL_CURVES}
    for a2 in (-1, 0, 1):
        for a3 in (0, 1):
            for a4 in range(-GLOBAL_COEFF, GLOBAL_COEFF + 1):
                for a6 in range(-GLOBAL_COEFF, GLOBAL_COEFF + 1):
                    coeffs = (1, a2, a3, a4, a6)
                    family = _family(coeffs)
                    found = family and _global_candidate(coeffs)
                    if found:
                        pool[family].append((coeffs, *found))
    for members in pool.values():
        members.sort(key=lambda member: member[3])
    return pool


def global_heights(rng: random.Random, curves=GLOBAL_CURVES) -> Workload:
    """global_height on P, -P and 2P of seeded semistable curves.

    Coefficients are drawn as in the acceptance search, over a wider box
    so that the bands hold enough curves: a1 = 1, a2 in {-1, 0, 1},
    a3 in {0, 1}, |a4|, |a6| <= 20.  Each family is cut into as many
    strata of adjacent heights as the run takes curves from it, and the
    seed chooses one curve in each stratum.
    """
    pool = _global_pool()
    work = Workload()
    for family, count in curves.items():
        members = pool[family]
        for i in range(count):
            stratum = members[i * len(members) // count:(i + 1) * len(members) // count]
            coeffs, curve, point, _ = rng.choice(stratum)
            work.inputs.append([list(coeffs), str(point)])
            work.ops.extend(_global_ops(curve, point))
    _, curve, point, _ = pool["two-component"][0]
    work.warmup = _global_ops(curve, point)[0]
    return work


def _global_ops(curve, point):
    state = {}

    def call(q):
        return lambda: heights.global_height(curve, q, CONFIG)

    def check_base(report):
        _require(report.discrepancy < CONFIG.tolerance,
                 f"|global - oracle| = {report.discrepancy:.3g} on {curve} at {point}")
        state["h"] = report.global_sum
        return report.discrepancy

    def check_negated(report):
        _require(report.discrepancy < CONFIG.tolerance,
                 f"|global - oracle| = {report.discrepancy:.3g} at -P")
        _require(abs(report.global_sum - state["h"]) < CONFIG.tolerance,
                 "h(-P) != h(P)")
        return report.discrepancy

    def check_doubled(report):
        _require(report.discrepancy < CONFIG.tolerance,
                 f"|global - oracle| = {report.discrepancy:.3g} at 2P")
        ratio = report.global_sum / state["h"]
        _require(abs(ratio - 4) < RATIO_TOLERANCE, f"h(2P)/h(P) = {ratio}")
        return report.discrepancy

    return [
        Op("P", call(point), check_base),
        Op("-P", call(curve.negate(point)), check_negated),
        Op("2P", call(curve.double(point)), check_doubled),
    ]


# ---------------------------------------------------------------------------
# local-heights
# ---------------------------------------------------------------------------

# Multiplicative places drawn from two bands, to show the O(p^2) node
# search.  Bands near 10^4 and 10^5 (about 45 s and over an hour per call
# today) wait until the node is found in closed form.
LOCAL_BANDS = {"p~1e3": (950, 1050), "p~3e3": (2950, 3050)}
# The node search scans residues x-major, so its cost is about x_node * p.
# The node's x residue is drawn from [0.48p, 0.52p], so each call scans
# about half of the p^2 residue pairs, as a uniformly placed node does on
# average, and its cost moves by a few percent between draws.
NODE_WINDOW = (0.48, 0.52)
DUAL_PRIMES = (2, 3, 5, 7)
DUAL_PRECISION = 60


def _symmetric(x: int, p: int) -> int:
    x %= p
    return x - p if x > p // 2 else x


def _band_curve(rng: random.Random, lo: int, hi: int):
    """A curve with a1 = 1 through a chosen integral point, multiplicative
    at a prime p in [lo, hi]: the node (xn, yn) mod p fixes a3, a4 and a6
    mod p, and a6 is then solved exactly from the point."""
    primes = [p for p in range(lo, hi + 1) if p % 4 == 3 and is_prime(p)]
    while True:
        p = rng.choice(primes)
        xn = rng.randint(int(NODE_WINDOW[0] * p), int(NODE_WINDOW[1] * p))
        yn = rng.randrange(p)
        a2 = rng.choice((-1, 0, 1))
        a3 = _symmetric(-2 * yn - xn, p)
        a4 = _symmetric(yn - 3 * xn * xn - 2 * a2 * xn, p)
        r6 = (yn * yn + xn * yn + a3 * yn - xn**3 - a2 * xn * xn - a4 * xn) % p
        x0 = rng.randint(-20, 20)
        if (x0 - xn) % p == 0:
            continue
        lin = x0 + a3
        disc = (lin * lin + 4 * (x0**3 + a2 * x0 * x0 + a4 * x0 + r6)) % p
        root = pow(disc, (p + 1) // 4, p)
        if root * root % p != disc:
            continue
        y0 = _symmetric((root - lin) * pow(2, -1, p), p)
        a6 = y0 * y0 + x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0
        try:
            curve = WeierstrassCurve.from_coeffs(1, a2, a3, a4, a6)
        except InputError:
            continue
        ell = val_p(curve.discriminant, p)
        if not 1 <= ell < 12 or val_p(curve.c4, p) != 0:
            continue
        return curve, p, CurvePoint.affine(x0, y0), ell


def _dual_instance(rng: random.Random, p: int, ell: int, vz: int, unit_q: int):
    """Tate parameter q and point parameter z, as in the acceptance test."""
    unit_z = rng.choice([u for u in (2, 3, 7, 9, 1 + p) if u % p])
    return unit_q * p**ell, unit_z * p**vz


# Reports per round: (band, count).
LOCAL_REPORTS = (("p~3e3", 1), ("p~1e3", 3))


def local_heights(rng: random.Random, rounds: int = 2, reports=LOCAL_REPORTS,
                  duals: int = 24) -> Workload:
    """Per round: one report at p ~ 3e3, three at p ~ 1e3, the Tate
    parameter at two of those places, and 24 dual-route operations on Tate
    curves, one for each p in {2, 3, 5, 7} and v(q) in 1..6, so that four
    in five operations, and the median, are dual-route ones.  The unit of
    q, which sets a dual-route call's cost within a factor of three, steps
    through {1, 2, 3, 5} and v(z) through 0..v(q)-1 over the operations and
    rounds, so the mix of sizes is the same for every seed; the seed draws
    the unit of z, which moves the cost by a tenth."""
    work = Workload()
    for round_index in range(rounds):
        band = [(name, *_band_curve(rng, *LOCAL_BANDS[name]))
                for name, count in reports for _ in range(count)]
        for name, curve, p, point, ell in band:
            work.inputs.append(["report", _coeffs(curve), p, str(point)])
            work.ops.append(_report_op(name, curve, p, point, ell))
        for _, curve, p, _, ell in band[:2]:
            work.inputs.append(["tate_parameter", _coeffs(curve), p])
            work.ops.append(_parameter_op(curve, p, ell))
        for i in range(duals):
            p, ell = DUAL_PRIMES[i % 4], 1 + i // 4 % 6
            units_q = [u for u in (1, 2, 3, 5) if u % p]
            unit_q = units_q[(i // 4 + round_index) % len(units_q)]
            q_value, z_value = _dual_instance(rng, p, ell, (i + round_index) % ell, unit_q)
            work.inputs.append(["dual", p, str(q_value), str(z_value)])
            work.ops.append(_dual_op(p, ell, q_value, z_value))
    curve, p, point, ell = _band_curve(random.Random(WARMUP_SEED), *LOCAL_BANDS["p~1e3"])
    work.warmup = _report_op("p~1e3", curve, p, point, ell)
    return work


def _coeffs(curve):
    return [str(getattr(curve, n)) for n in ("a1", "a2", "a3", "a4", "a6")]


def _report_op(band, curve, p, point, ell):
    def check(report):
        # An integral point reducing off the node has i = 0 and m = 0, so
        # lambda' = (ell/2) B2(0) = ell/12 exactly.
        _require(report.reduction.multiplicity == ell, "wrong v_p(disc)")
        _require((12 * ell * report.lambda_v).denominator == 1,
                 f"denominator of {report.lambda_v} does not divide 12*{ell}")
        _require(report.lambda_v == F(ell, 12),
                 f"lambda = {report.lambda_v} != {ell}/12 at p = {p}")
        return abs(report.lambda_v - F(ell, 12))

    return Op(f"report {band}", lambda: tate.local_height_report(curve, p, point), check)


def _parameter_op(curve, p, ell):
    def check(q):
        _require(q.val() == ell, f"v(q) = {q.val()} != {ell} at p = {p}")
        return 0

    return Op("tate_parameter", lambda: tate.tate_parameter(curve, p), check)


def _dual_op(p, ell, q_value, z_value):
    def call():
        q = PadicElement.from_rational(p, q_value, DUAL_PRECISION)
        z = PadicElement.from_rational(p, z_value, DUAL_PRECISION)
        curve = tate.tate_curve(q)
        point = tate.tate_curve_point(q, z)
        by_parameter = tate.local_height_from_parameter(q, z)
        by_component = tate.local_height_multiplicative(curve, p, point).lambda_v
        return by_parameter, by_component

    def check(result):
        by_parameter, by_component = result
        _require(by_parameter == by_component,
                 f"dual route differs at p = {p}: {by_parameter} != {by_component}")
        _require((12 * ell * by_component).denominator == 1,
                 f"denominator of {by_component} does not divide 12*{ell}")
        return abs(by_parameter - by_component)

    return Op("dual route", call, check)


# ---------------------------------------------------------------------------
# theta-terms
# ---------------------------------------------------------------------------

THETA_RANKS = (1, 2, 3, 4)
# Evaluation points per data set.  Evaluation is the commonest operation;
# with more of them at rank 3 the median falls inside the rank-3
# evaluations (about 2 ms each, a cost the term-box target below holds)
# instead of on the sub-millisecond ones at ranks 1-2.
THETA_POINTS = {1: 8, 2: 8, 3: 24, 4: 8}
# Data is held near cost targets, so that a run's figures do not depend
# much on the draw: at rank 3, the size of the term box, which sets the
# cost of the median operation, near 2000 and det G (the order of the
# component group that quantization evaluates on, so that quantization
# costs about det G times the term box) near 175; at rank 4 the size of
# the term box (unrestricted draws build 20k-140k terms) near 30000.
# Rank-4 builds and rank-3 quantizations, four of each, hold the sample
# that latency_tail_ms reads.  Each such data set is the draw nearest its
# targets, in log distance, out of a fixed number of draws, so that set-up
# does the same work whatever the seed.
RANK3_DET_TARGET = 175
TERM_TARGETS = {3: 2000, 4: 30000}
THETA_DRAWS = {3: 48, 4: 24}
# Quantization evaluates the theta function once per element of the
# component group, whose order is det G <= 400: 8-23 s per rank-4 data set,
# which no run of this benchmark has room for.  Ranks 1-3 quantize.
QUANTIZE_MAX_RANK = 3
# The rank-4 theta characteristic takes 1.3-2.1 s per data set, nearly half
# of a pass.  With it the ten costliest operations were the four rank-4
# characteristics and six of the rank-4 builds and rank-3 quantizations,
# two classes whose costs overlap, and latency_tail_ms, which reads the
# eleventh costliest, moved by a sixth between seeds.  Ranks 1-3 solve for
# it.  The ten costliest are then the rank-4 builds, the rank-3
# quantizations and two rank-3 characteristics, and latency_tail_ms reads
# a rank-3 characteristic, a class whose costs lie within a tenth of each
# other.
CHARACTERISTIC_MAX_RANK = 3


def _term_box(data: DegenerationData) -> int:
    """Number of terms in the certified box of generate_theta_terms (its
    Babai bound with margin 2), from G and l alone."""
    ginv = mat_inverse(data.gram)
    h = [x / 2 for x in mat_vec(ginv, data.linear_part)]
    r2 = F(sum(abs(x) for row in data.gram for x in row), 4)
    total = 1
    for i in range(data.rank):
        spread = max(abs(h[i]), abs(1 + h[i]))
        coord = math.ceil(math.sqrt(r2 * ginv[i][i]))
        total *= 2 * (math.floor(spread) + 1 + coord + 2) + 1
    return total


def _theta_data(rng: random.Random, rank: int) -> DegenerationData:
    if rank not in TERM_TARGETS:
        return verify.random_principally_polarized(rng, rank)

    def distance(data):
        far = abs(math.log(_term_box(data) / TERM_TARGETS[rank]))
        if rank == 3:
            far += abs(math.log(determinant(data.gram) / RANK3_DET_TARGET))
        return far

    draws = [verify.random_principally_polarized(rng, rank) for _ in range(THETA_DRAWS[rank])]
    return min(draws, key=distance)


def theta_terms(rng: random.Random, sets: int = 4, ranks=THETA_RANKS) -> Workload:
    """Per data set of each rank 1-4: build the term list, evaluate the
    normalized theta at seeded points and, up to rank 3, solve for the
    theta characteristic and run the quantization check.

    A pass builds every term list first, then runs each data set's other
    operations spread evenly over the rest of the pass.  Run set by set,
    the rank-3 evaluations, which hold the median, fell in a few stretches
    between speed calibrations, and the error of those few scalings moved
    latency_p50_ms by a seventh between seeds."""
    work = Workload()
    spread = []  # (place in its data set's operations, operation)
    for _ in range(sets):
        for rank in ranks:
            data = _theta_data(rng, rank)
            shift = F(rng.randint(-4, 4))
            points = [[F(rng.randint(-40, 40), 7) for _ in range(rank)]
                      for _ in range(THETA_POINTS[rank])]
            moves = [[rng.randint(-2, 2) for _ in range(rank)] for _ in points]
            work.inputs.append([_data_repr(data), str(shift),
                                [[str(x) for x in nu] for nu in points], moves])
            build, *rest = _theta_ops(data, shift, points, moves)
            work.ops.append(build)
            spread += [((i + 0.5) / len(rest), op) for i, op in enumerate(rest)]
    work.ops += [op for _, op in sorted(spread, key=lambda item: item[0])]
    # Building the largest term list.
    data = _theta_data(random.Random(WARMUP_SEED), max(ranks))
    work.warmup = _theta_ops(data, F(0), [], [])[0]
    return work


def _data_repr(data: DegenerationData):
    return [data.rank, data.embedding, data.gram, data.linear_part]


def _theta_ops(data, shift, points, moves):
    state = {}
    origin = (0,) * data.rank

    def build():
        state["theta"] = None  # a failed build fails this pass's later ops
        state["theta"] = tropical.generate_theta_terms(data, constant=shift)
        return state["theta"]

    def check_build(theta):
        _require(theta.terms.get(origin) == shift, "constant term != shift")
        return 0

    def evaluate(nu):
        return lambda: state["theta"].normalized_value(nu)

    def check_invariance(nu, w):
        moved = [a + b for a, b in zip(nu, data.from_lattice_coords(w))]

        def check(value):
            other = state["theta"].normalized_value(moved)
            _require(value == other, f"normalized value not lattice invariant at {nu}")
            return abs(value - other)

        return check

    def check_characteristic(tc):
        _require(all((2 * k).denominator == 1 for k in tc.shift), "2k not integral")
        diff = data.to_lattice_coords(
            [a - b for a, b in zip(tc.shift, tc.shift_mod_lattice)])
        _require(all(x.denominator == 1 for x in diff), "kappa != k mod lattice")
        _require(tc.base_constant == shift, f"r' = {tc.base_constant} != {shift}")
        return abs(tc.base_constant - shift)

    def check_quantization(report):
        _require(report.passed, f"quantization violations {report.violations}")
        _require(report.modulus == component_group(data).exponent, "modulus != exponent")
        return 0

    ops = [Op(f"build r{data.rank}", build, check_build)]
    ops += [Op(f"evaluate r{data.rank}", evaluate(nu), check_invariance(nu, w))
            for nu, w in zip(points, moves)]
    if data.rank <= CHARACTERISTIC_MAX_RANK:
        ops.append(Op(f"characteristic r{data.rank}",
                      lambda: tropical.theta_characteristic(state["theta"]),
                      check_characteristic))
    if data.rank <= QUANTIZE_MAX_RANK:
        ops.append(Op(f"quantization r{data.rank}",
                      lambda: tropical.quantization_check(state["theta"]),
                      check_quantization))
    return ops


# ---------------------------------------------------------------------------
# riemann-theta
# ---------------------------------------------------------------------------

RIEMANN_RANKS = (2, 3, 4, 5, 6)
BRUTE_FORCE_MAX_RANK = 4
# Skewed Gram matrices are held in a band of the enumeration bound
# prod_i (2 sqrt(R/d_i) + 1), with G = L D L^T and R = sum(d_i)/4 the
# Babai radius.  Above 1e5 a single rank-6 call took up to 5 s, and one
# such draw would set ops_per_s for the whole run; the cap of 3e4 keeps the
# slowest calls, which set latency_tail_ms, alike between seeds.  At ranks
# 5 and 6 a bound of at least 1e4 keeps the enumeration the dominant cost.
SKEW_BOUND_CAP = 3e4
SKEW_BOUND_FLOOR = {5: 1e4, 6: 1e4}
# Within those bands one skewed call still costs from 0.3 to 50 ms, by how
# far from the target the Babai point lands.  Each class of rank and
# skew draws RIEMANN_POOL candidates per instance it keeps and sorts them
# by _babai_box; the instances kept are spread evenly over the lowest
# RIEMANN_KEPT_SHARE of the pool, so that every seed gets a like spread of
# costs.  The costliest tenth is left out: the two or three costliest
# draws of a pool, which set latency_tail_ms, cost twice as much in one
# seed as in another.
RIEMANN_POOL = 4
RIEMANN_KEPT_SHARE = 0.9
# Well-conditioned rank 5 is drawn twice as often as the other classes.
# With equal classes the median falls in the gap between the costs of
# rank-4 and rank-5 calls, where it moved by a tenth between seeds; with
# this one doubled it falls inside it, a class whose costs lie close.
RIEMANN_MEDIAN_CLASS = (5, False)


def _enumeration_bound(gram) -> float:
    _, diag = ldl_decompose(gram)
    radius = sum(diag) / 4
    return math.prod(2 * math.sqrt(radius / d) + 1 for d in diag)


def _skewed(rng: random.Random, base):
    rank = len(base)
    while True:
        u = verify.random_unimodular(rng, rank)
        gram = [[sum(u[k][r] * base[k][l] * u[l][c] for k in range(rank) for l in range(rank))
                 for c in range(rank)] for r in range(rank)]
        if SKEW_BOUND_FLOOR.get(rank, 0) <= _enumeration_bound(gram) <= SKEW_BOUND_CAP:
            return u, gram


def riemann_theta(rng: random.Random, per_class: int = 30) -> Workload:
    """The cvp subcommand's calls on seeded Gram matrices of rank 2-6,
    well-conditioned (random_positive_definite) and skewed as U^T G U with
    U = random_unimodular: per_class of each rank and skew, and twice that
    of RIEMANN_MEDIAN_CLASS."""
    classes = []
    for skewed in (False, True):
        for rank in RIEMANN_RANKS:
            count = per_class * (2 if (rank, skewed) == RIEMANN_MEDIAN_CLASS else 1)
            pool = [_riemann_instance(rng, rank, skewed) for _ in range(RIEMANN_POOL * count)]
            pool.sort(key=_babai_box)
            span = RIEMANN_KEPT_SHARE * len(pool) / count
            classes.append([pool[int((k + 0.5) * span)] for k in range(count)])
    work = Workload()
    for k in range(2 * per_class):
        for kept in classes:
            if k < len(kept):
                work.inputs.append(kept[k])
                work.ops.append(_riemann_op(*kept[k]))
    # A skewed rank-6 operation.
    work.warmup = _riemann_op(*_riemann_instance(random.Random(WARMUP_SEED), 6, True))
    return work


def _babai_box(instance) -> float:
    """prod_i (2 sqrt(v/d_i) + 1), with G = L D L^T and v the form value at
    the Babai point, which seeds the enumeration's radius: the box the
    enumeration may visit.  Its log follows the log of a skewed call's
    cost with correlation 0.8-0.95 at ranks 2-6."""
    gram, _, _, _, nu, _ = instance
    lmat, diag = ldl_decompose(gram)
    n = len(nu)
    x, value = [0] * n, F(0)
    for i in reversed(range(n)):
        c = nu[i] + sum(lmat[j][i] * (x[j] + nu[j]) for j in range(i + 1, n))
        x[i] = -math.floor(c + F(1, 2))
        value += diag[i] * (x[i] + c) ** 2
    return math.prod(2 * math.sqrt(value / d) + 1 for d in diag)


def _riemann_instance(rng: random.Random, rank: int, skewed: bool):
    """(gram, linear part, base, U, nu, w): the Gram matrix U^T base U, or
    base itself with U = 1 when not skewed, a target nu and a lattice
    shift w."""
    base = verify.random_positive_definite(rng, rank)
    if skewed:
        u, gram = _skewed(rng, base)
    else:
        u, gram = [[int(r == c) for c in range(rank)] for r in range(rank)], base
    linear = [rng.randint(-3, 3) for _ in range(rank)]
    linear = [v + (v + gram[j][j]) % 2 for j, v in enumerate(linear)]
    nu = [F(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(rank)]
    w = [rng.randint(-3, 3) for _ in range(rank)]
    return gram, linear, base, u, nu, w


def _riemann_op(gram, linear, base, u, nu, w):
    rank = len(gram)
    data = DegenerationData(
        rank=rank, embedding=[[int(r == c) for c in range(rank)] for r in range(rank)],
        gram=gram, linear_part=linear)
    oracle = []  # brute-force value, computed at the first check only

    def call():
        closest, half = tropical.closest_lattice_vector(data, nu)
        return (closest, half, tropical.tropical_riemann_theta(data, nu),
                tropical.normalized_tropical_riemann_theta(data, nu))

    def check(result):
        closest, half, concave, normalized = result
        gap = [a - b for a, b in zip(nu, closest)]
        reached = sum(gap[r] * data.gram[r][c] * gap[c]
                      for r in range(rank) for c in range(rank)) / 2
        _require(reached == half == normalized, "closest vector misses the minimum")
        _require(concave == normalized - data.inner_product(nu, nu) / 2,
                 "tropical_riemann_theta != normalized - [nu, nu]/2")
        shifted = [a + b for a, b in zip(nu, w)]
        moved = tropical.normalized_tropical_riemann_theta(data, shifted)
        _require(moved == normalized, "normalized theta not lattice invariant")
        diff = abs(moved - normalized)
        if rank <= BRUTE_FORCE_MAX_RANK:
            if not oracle:
                # (t+w)^T U^T G U (t+w) = (Ut + Uw)^T G (Ut + Uw), and Uw
                # runs over all integer vectors: search G around Ut.
                s = [sum(u[r][c] * nu[c] for c in range(rank)) for r in range(rank)]
                s = [x - round(x) for x in s]
                oracle.append(verify.brute_force_closest(base, s, radius=4) / 2)
            _require(oracle[0] == normalized,
                     f"CVP {normalized} != brute force {oracle[0]}")
            diff = max(diff, abs(oracle[0] - normalized))
        return diff

    return Op(f"cvp r{rank}", call, check)


WORKLOADS = {
    "global-heights": global_heights,
    "local-heights": local_heights,
    "theta-terms": theta_terms,
    "riemann-theta": riemann_theta,
}


def build(name: str, seed: int, **size) -> Workload:
    return WORKLOADS[name](random.Random(seed), **size)


def digits(diff) -> float:
    """-log10 |difference|, capped at the digits of the working precision
    (an exact match reads as the cap)."""
    cap = CONFIG.precision_bits * math.log10(2)
    if diff == 0:
        return cap
    return min(cap, -math.log10(float(diff)))
