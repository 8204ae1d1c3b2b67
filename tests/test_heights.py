import gc
import math
import random
import time
import weakref
from dataclasses import fields
from fractions import Fraction as F

import pytest

from tropical_heights import heights, tate
from tropical_heights.arch import elliptic_log, local_height_arch
from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.errors import AdditiveReductionError, InputError, PrecisionError
from tropical_heights.exact import PadicElement
from tropical_heights.heights import (
    RunConfig,
    bad_primes,
    doubling_oracle,
    factorize,
    find_semistable_examples,
    global_height,
    is_semistable,
    place_list,
)
from tropical_heights.linalg import determinant

from oracles import (
    _x_double,
    exact_prefix_doubling_oracle,
    is_integral,
    mazur_torsion_order,
    mpmath_split_estimates,
    naive_height,
)

E37 = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0)
E11 = WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20)


def test_factorize():
    assert factorize(2**3 * 3 * 37**2) == {2: 3, 3: 1, 37: 2}
    assert factorize(1) == {}
    assert factorize(10**12 + 39) == {10**12 + 39: 1}  # prime


def test_bad_primes_and_places():
    assert bad_primes(E37) == [37]
    assert bad_primes(E11) == [11]
    # fifth multiple of the generator has x = 1/4
    P = CurvePoint.affine(F(1, 4), F(-5, 8))
    assert [m.prime for m in place_list(E37, P)] == [2, 37]


def test_is_semistable():
    assert is_semistable(E37)
    assert is_semistable(E11)
    assert not is_semistable(WeierstrassCurve.from_coeffs(0, 0, 0, 0, 1))


def test_doubling_oracle_torsion_is_exact_zero():
    result = doubling_oracle(E11, CurvePoint.affine(5, 5), 10)
    assert result.is_torsion
    assert result.value == 0.0


# Points of every order Mazur allows over Q: orders 4-12 at P = (0, 0) on the
# Tate normal form y^2 + (1 - c)xy - by = x^3 - bx^2 (Kubert's (b, c) at
# t = 3); orders 2 and 3 on y^2 = x^3 + x^2 + x and y^2 + y = x^3.
_T = F(3)
_TATE_NORMAL_FORMS = {
    4: (_T, 0),
    5: (_T, _T),
    6: (_T + _T**2, _T),
    7: (_T**3 - _T**2, _T**2 - _T),
    8: ((2 * _T - 1) * (_T - 1), (2 * _T - 1) * (_T - 1) / _T),
    9: (_T**2 * (_T - 1) * (_T**2 - _T + 1), _T**2 * (_T - 1)),
    10: (_T**3 * (_T - 1) * (2 * _T - 1) / (_T**2 - 3 * _T + 1) ** 2,
         -_T * (_T - 1) * (2 * _T - 1) / (_T**2 - 3 * _T + 1)),
    12: (_T * (2 * _T - 1) * (2 * _T**2 - 2 * _T + 1) * (3 * _T**2 - 3 * _T + 1)
         / (_T - 1) ** 4,
         -_T * (2 * _T - 1) * (3 * _T**2 - 3 * _T + 1) / (_T - 1) ** 3),
}


def _torsion_curve(order):
    if order == 2:
        return WeierstrassCurve.from_coeffs(0, 1, 0, 1, 0)
    if order == 3:
        return WeierstrassCurve.from_coeffs(0, 0, 1, 0, 0)
    b, c = _TATE_NORMAL_FORMS[order]
    return WeierstrassCurve.from_coeffs(1 - c, -b, -b, 0, 0)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_doubling_oracle_torsion_every_mazur_order(order):
    curve, point = _torsion_curve(order), CurvePoint.affine(0, 0)
    assert curve.torsion_order(point) == order
    for n_max in (10, 24):
        result = doubling_oracle(curve, point, n_max)
        assert result.is_torsion
        assert result.value == 0.0


def test_doubling_oracle_gate_keeps_two_torsion_with_quarter_x():
    """(-1/4, 1/8) on y^2 + xy = x^3 + 4x + 1 has order 2 and x not in Z,
    but 4x in Z: torsion_order's early exit lets it through.  An exit on
    x not in Z instead would call it non-torsion."""
    curve = WeierstrassCurve.from_coeffs(1, 0, 0, 4, 1)
    point = CurvePoint.affine(F(-1, 4), F(1, 8))
    assert is_integral(curve) and curve.torsion_order(point) == 2
    result = doubling_oracle(curve, point)
    assert result.is_torsion
    assert result.value == 0.0


def test_torsion_order_matches_the_mazur_walk(semistable_examples):
    """torsion_order, which stops at the first multiple with 4 s^2 x not in
    Z, against the plain 12-step walk: (0, 0) of every Mazur order and the
    order-2 point (-1/4, 1/8) with 4x in Z but x not in Z, their images on
    a non-integral model (where 4x is not integral), and 2^k P, k <= 4, of
    every acceptance curve, with the images of P and 2P.  The walk from 16P
    takes most of the time."""
    move = (2, F(1, 2), F(1, 3), F(1, 5))
    torsion = [(WeierstrassCurve.from_coeffs(1, 0, 0, 4, 1), CurvePoint.affine(F(-1, 4), F(1, 8)))]
    torsion += [(_torsion_curve(order), CurvePoint.affine(0, 0))
                for order in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    multiples = []
    for curve, point in semistable_examples:
        for _ in range(5):
            multiples.append((curve, point))
            point = curve.double(point)
    moved = [(curve.transform(*move), WeierstrassCurve.transform_point(point, *move))
             for curve, point in torsion + multiples[::5] + multiples[1::5]]
    for curve, point in torsion + multiples + moved:
        assert curve.contains(point)
        assert curve.torsion_order(point) == mazur_torsion_order(curve, point), (curve, point)
    assert all(mazur_torsion_order(*case) for case in torsion + moved[:len(torsion)])
    assert all((4 * point.x).denominator > 1 for _, point in moved)


def test_doubling_oracle_gate_matches_exact_prefix(semistable_examples):
    """On 2^k P, k <= 6, of every acceptance curve the oracle gives the
    float of the reference, which runs the exact prefix on every point,
    and takes at most 5 ms (the best of three calls, each timed alone):
    the oracle runs no full-size doublings (the prefix takes up to seconds
    at 64P)."""
    for curve, point in semistable_examples:
        target = point
        for k in range(7):
            result = doubling_oracle(curve, target)
            reference = exact_prefix_doubling_oracle(curve, target)
            assert result.value == reference.value, (curve, k)
            assert not result.is_torsion and not reference.is_torsion
            elapsed = []
            for _ in range(3):
                started = time.perf_counter()
                doubling_oracle(curve, target)
                elapsed.append(time.perf_counter() - started)
            assert min(elapsed) <= 0.005, (curve, k, elapsed)
            target = curve.double(target)


def test_doubling_oracle_refuses_bad_input():
    with pytest.raises(InputError):
        doubling_oracle(E37, CurvePoint.affine(1, 1))  # off the curve
    for n_max in (0, 1):
        with pytest.raises(InputError):
            doubling_oracle(E37, CurvePoint.affine(0, 0), n_max)


# y^2 = x^3 - x: the roots 0 and +-1 of its duplication denominator
# G(x) = 4x^3 - 4x are the x of its 2-torsion points
E32 = WeierstrassCurve.from_coeffs(0, 0, 0, -1, 0)


def test_split_estimates_match_the_mpmath_track(semistable_examples):
    """The size track on ints against the mpmath track at the same 64 +
    2 * n_max bits, every estimate within one ulp: from 2^k P, k <= 6, of
    every acceptance curve at n_max 10 and 24; from x < 0, from |x| < 1 and
    from numerators and denominators over 10^4 bits (x near 2^30, 2^-30 and
    2^220, past the working precision); and from within 2^-60 of each root
    of G on y^2 = x^3 - x, where |G(x)| falls to 2^-58 or 2^-57."""
    starts = []
    for curve, point in semistable_examples:
        duplication = heights.CurveModel.at(curve).duplication
        for _ in range(7):
            x = point.x * curve.integral_scale**2
            starts += [(x.numerator, x.denominator, duplication, n_max) for n_max in (10, 24)]
            point = curve.double(point)
    rng = random.Random(7)
    pairs = [(-5, 1), (-3, 7), (2, 9), (-1, 10**6)]
    for bits_n, bits_d in ((10_030, 10_000), (10_000, 10_030), (10_220, 10_000)):
        n, d = 0, 0
        while math.gcd(n, d) != 1:
            n, d = (rng.getrandbits(bits) | 1 << bits - 1 for bits in (bits_n, bits_d))
        pairs += [(n, d), (-n, d)]
    pairs += [(r * 2**60 + sign, 2**60) for r in (-1, 0, 1) for sign in (-1, 1)]
    starts += [(n, d, heights.CurveModel.at(curve).duplication, n_max)
               for curve in (E37, E32) for n, d in pairs for n_max in (10, 24)]
    for n, d, (b, res), n_max in starts:
        estimates = heights._split_estimates(n, d, b, res, 1, n_max)
        reference = mpmath_split_estimates(n, d, b, res, 1, n_max)
        assert len(estimates) == len(reference) == n_max
        for k, (estimate, expected) in enumerate(zip(estimates, reference), 1):
            assert abs(estimate - expected) <= math.ulp(expected), (n, d, b, n_max, k)


def test_split_estimates_keep_their_width_past_a_large_common_factor():
    """On 37a under x = 2^32 x' and x = 2^40 x' the integral model's scale
    is 2^64 and 2^80, and the common factors g_k are as large: m 2^bitlen(g)
    / g keeps W bits of the size, and every estimate of (1, 0) matches the
    exact full-size doubling sequence to 1e-12."""
    for u in (2**16, 2**20):
        curve = E37.transform(u, 0, 0, 0)
        point = WeierstrassCurve.transform_point(CurvePoint.affine(1, 0), u, 0, 0, 0)
        b, res = heights.CurveModel.at(curve).duplication
        x = point.x * curve.integral_scale**2
        n, d = x.numerator, x.denominator
        for step, estimate in enumerate(doubling_oracle(curve, point).estimates, 1):
            n, d = _x_double(n, d, b, res)
            assert abs(estimate - math.log(max(abs(n), d)) / 4**step) < 1e-12, (u, step)


def test_split_estimates_refuse_a_root_of_the_duplication_denominator():
    """x = 0, 1 or -1 on y^2 = x^3 - x makes G(x) exactly zero: the 2-torsion
    points, which doubling_oracle leaves to torsion_order."""
    b, res = heights.CurveModel.at(E32).duplication
    for x in (0, 1, -1):
        with pytest.raises(PrecisionError, match="root"):
            heights._split_estimates(x, 1, b, res, 1, 10)
    assert doubling_oracle(E32, CurvePoint.affine(1, 0)).is_torsion


def test_contains_matches_the_curve_equation(semistable_examples):
    """contains and residue against the curve equation in Fractions: on P,
    2P and 4P of the acceptance curves and two fixed ones (x = X/e^2,
    y = Y/e^3, computed in integers) and of a model with fractional
    coefficients (mostly not of that shape), and on each point with y or x
    moved by 1/d (d its denominator), which leaves the curve in all but a
    few cases."""

    def equation(curve, point):
        x, y = point.x, point.y
        return y**2 + curve.a1 * x * y + curve.a3 * y == x**3 + curve.a2 * x**2 + curve.a4 * x + curve.a6

    def difference(curve, point):
        x, y = point.x, point.y
        return y**2 + curve.a1 * x * y + curve.a3 * y - (x**3 + curve.a2 * x**2 + curve.a4 * x + curve.a6)

    def in_integers(point):  # residue's path for (X/e^2, Y/e^3)
        e, r = divmod(point.y.denominator, point.x.denominator)
        return r == 0 and e * e == point.x.denominator

    move = (F(1, 2), F(1, 3), F(-2, 5), F(1, 7))
    off_curve = 0
    paths = {True: 0, False: 0}
    # curves with a6 != 0 that do not come from the search, which calls contains
    fixed = [(E11, CurvePoint.affine(5, 5)),
             (WeierstrassCurve.from_coeffs(1, 0, 0, 0, -1), CurvePoint.affine(1, 0))]
    for curve, point in fixed + semistable_examples:
        for model, target in ((curve, point), (curve.transform(*move),
                                               WeierstrassCurve.transform_point(point, *move))):
            for _ in range(3):
                assert model.contains(target) and equation(model, target)
                for off in (CurvePoint.affine(target.x, target.y + F(1, target.y.denominator)),
                            CurvePoint.affine(target.x + F(1, target.x.denominator), target.y)):
                    assert model.contains(off) == equation(model, off), (model, off)
                    off_curve += not equation(model, off)
                for checked in (target, off):
                    assert model.residue(checked) == difference(model, checked), (model, checked)
                    paths[in_integers(checked)] += 1
                target = model.double(target)
    assert off_curve >= 140, off_curve
    assert min(paths.values()) >= 30, paths


def test_doubling_oracle_matches_naive_limit(semistable_examples):
    # independent check of the duplication steps, exact and split: x(2^k P)
    # by the full group law, for k <= 8
    for curve, point in [(E37, CurvePoint.affine(0, 0))] + semistable_examples:
        result = doubling_oracle(curve, point, 8)
        Q = point
        for k in range(1, 9):
            Q = curve.double(Q)
            assert abs(result.estimates[k - 1] - naive_height(Q.x) / 4**k) < 1e-12
        # successive estimates stabilize at rate ~ 4^-n
        diffs = [abs(a - b) for a, b in zip(result.estimates, result.estimates[1:])]
        assert diffs[-1] < 1e-3


def _sylvester_resultant(curve):
    """7x7 Sylvester determinant of the x-duplication numerator
    x^4 - b4 x^2 - 2 b6 x - b8 and denominator 4x^3 + b2 x^2 + 2 b4 x + b6."""
    f = [1, 0, -curve.b4, -2 * curve.b6, -curve.b8]
    g = [4, curve.b2, 2 * curve.b4, curve.b6]
    rows = [[0] * shift + f + [0] * (2 - shift) for shift in range(3)]
    rows += [[0] * shift + g + [0] * (3 - shift) for shift in range(4)]
    return determinant(rows)


def test_duplication_resultant_is_discriminant_squared():
    # the oracle takes Res(F, G) = Delta^2 on an integral model
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        coeffs = [rng.randint(-20, 20) for _ in range(5)]
        try:
            curve = WeierstrassCurve.from_coeffs(*coeffs)
        except InputError:
            continue
        assert _sylvester_resultant(curve) == curve.discriminant**2, coeffs
        checked += 1


def test_doubling_oracle_known_value():
    # hhat_x((0,0)) on 37a = 0.0511114082...; the oracle reports half of it
    result = doubling_oracle(E37, CurvePoint.affine(0, 0), 12)
    assert abs(result.value - 0.0511114082399688 / 2) < 1e-8


def test_global_height_37a():
    report = global_height(E37, CurvePoint.affine(0, 0))
    assert report.discrepancy < 1e-6
    assert [rep.prime for rep in report.local_reports] == [37]
    assert len(report.checked_good_primes) == 5


def test_global_height_quadraticity():
    P = CurvePoint.affine(0, 0)
    r1 = global_height(E37, P)
    r2 = global_height(E37, E37.double(P))
    assert abs(r2.global_sum / r1.global_sum - 4) < 1e-5


def test_global_height_torsion_vanishes():
    report = global_height(E11, CurvePoint.affine(5, 5))
    assert abs(report.global_sum) < 1e-8


def test_global_height_rejects_additive():
    curve = WeierstrassCurve.from_coeffs(0, 0, 0, 0, 1)
    with pytest.raises(AdditiveReductionError):
        global_height(curve, CurvePoint.affine(0, 1))


def test_global_height_rejects_off_curve_point():
    with pytest.raises(InputError):
        global_height(E37, CurvePoint.affine(5, 5))


def test_global_height_model_independence():
    # non-integral model of 37a: the normalized heights are intrinsic
    moved_curve = E37.transform(2, 1, 0, -1)
    moved_point = WeierstrassCurve.transform_point(
        CurvePoint.affine(0, 0), 2, 1, 0, -1
    )
    assert moved_curve.contains(moved_point)
    assert not is_integral(moved_curve)
    base = global_height(E37, CurvePoint.affine(0, 0))
    moved = global_height(moved_curve, moved_point)
    assert abs(base.global_sum - moved.global_sum) < 1e-9


def test_run_config_validation():
    with pytest.raises(InputError, match="precision_bits = 10 must be at least 53"):
        RunConfig(precision_bits=10)
    with pytest.raises(InputError, match="n_max = 1 must be at least 2"):
        RunConfig(n_max=1)
    for bad in (0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(InputError, match="tolerance = .* must be finite and positive"):
            RunConfig(tolerance=bad)


def test_find_semistable_examples_deterministic(semistable_examples):
    again = find_semistable_examples(count=len(semistable_examples))
    assert [(c.a1, c.a2, c.a3, c.a4, c.a6) for c, _ in again] == [
        (c.a1, c.a2, c.a3, c.a4, c.a6) for c, _ in semistable_examples
    ]
    for curve, point in semistable_examples:
        assert curve.contains(point)
        assert curve.torsion_order(point) is None
        assert is_semistable(curve)


def test_lambda_vanishes_at_good_primes(semistable_examples):
    from tropical_heights.tate import local_height_report

    curve, point = semistable_examples[0]
    bad = set(bad_primes(curve)) | set(factorize(point.x.denominator))
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        if p in bad:
            continue
        assert local_height_report(curve, p, point).lambda_v == 0
        checked += 1
    assert checked >= 5


# -- per-place facts are worked out once ------------------------------------------


def test_minimal_model_search_counts(monkeypatch):
    counts = {"minimal_model_at": 0}
    inner = tate.minimal_model_at

    def wrapper(*args):
        counts["minimal_model_at"] += 1
        return inner(*args)

    monkeypatch.setattr(tate, "minimal_model_at", wrapper)

    def run(call):
        counts["minimal_model_at"] = 0
        call()
        return counts["minimal_model_at"]

    # (5, 5) on 11a1 reduces to the singular point: one search
    assert run(lambda: tate.local_height_report(E11, 11, CurvePoint.affine(5, 5))) == 1
    # at p = 3 the split test and the component index read the same model
    q = PadicElement.from_rational(3, 2 * 3**2, 30)
    z = PadicElement.from_rational(3, 2 * 3, 30)
    curve, point = tate.tate_curve(q), tate.tate_curve_point(q, z)
    assert run(lambda: tate.local_height_multiplicative(curve, 3, point)) == 1
    # the places are kept on the curve object: cold counts need fresh curves
    e11 = WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20)
    assert run(lambda: is_semistable(e11)) == 1
    assert run(lambda: is_semistable(e11)) == 0
    # one search per place, whose model gives the report too, and one for
    # each of the five good primes of the coverage tripwire: disc = -431
    curve, point = WeierstrassCurve.from_coeffs(1, 0, 0, 0, -1), CurvePoint.affine(1, 0)
    assert run(lambda: global_height(curve, point)) == 6
    # 37a at 5 * (0, 0) = (1/4, -5/8): places 37 (bad) and 2 (x-denominator)
    e37, fifth = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0), CurvePoint.affine(F(1, 4), F(-5, 8))
    assert run(lambda: global_height(e37, fifth)) == 7
    # a repeat on the same curve object searches nothing
    assert run(lambda: global_height(curve, point)) == 0
    assert run(lambda: global_height(e37, fifth)) == 0


# -- per-curve facts are worked out once per curve object ------------------------


def test_curve_facts_are_built_once(monkeypatch):
    contexts, factored = [], []
    for name, log in (("arch_context", contexts), ("factorize", factored)):
        inner = getattr(heights, name)

        def wrapper(*args, inner=inner, log=log):
            log.append(args[0])
            return inner(*args)

        monkeypatch.setattr(heights, name, wrapper)
    curve, P = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0), CurvePoint.affine(0, 0)
    for target in (P, curve.negate(P), curve.double(P)):
        global_height(curve, target, RunConfig(precision_bits=128))
    # one context; the discriminant once, then each point's x-denominator
    assert len(contexts) == 1
    assert factored == [curve.discriminant.numerator, 1, 1, 1]
    global_height(curve, P, RunConfig(precision_bits=160))
    assert len(contexts) == 2
    assert factored[4:] == [1]


def test_warm_curve_reports_equal_cold(semistable_examples):
    """P, -P and 2P on a curve object already used give the same reports,
    field by field and floats by ==, as on a fresh equal curve."""
    for curve, point in semistable_examples:
        targets = (point, curve.negate(point), curve.double(point))
        for target in targets:
            global_height(curve, target)
        for target in targets:
            warm = global_height(curve, target)
            fresh = WeierstrassCurve(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
            cold = global_height(fresh, target)
            for f in fields(warm):
                assert getattr(warm, f.name) == getattr(cold, f.name), (curve, target, f.name)


def test_curve_model_dies_with_the_curve():
    # 5077a, which no other test uses, so no equal curve is alive elsewhere
    curve = WeierstrassCurve.from_coeffs(0, 0, 1, -7, 6)
    global_height(curve, CurvePoint.affine(0, 2))
    ref = weakref.ref(curve)
    del curve
    gc.collect()
    assert ref() is None


# -- the point is checked once, where it enters -----------------------------------

# twisted curves (c6 > 0) whose P lies on the egg |u| = sqrt(q) of the real locus
EGG_BRANCH = [(WeierstrassCurve.from_coeffs(1, -1, 0, -11, a6), CurvePoint.affine(x, y))
              for a6, (x, y) in zip((-10, -9, -8, -7), [(-2, 2), (-1, 1), (F(-9, 4), F(19, 8)),
                                                        (-2, 3)])]
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@pytest.fixture
def residues(monkeypatch):
    """The point of every curve-equation evaluation the library makes."""
    calls, inner = [], WeierstrassCurve.residue
    monkeypatch.setattr(WeierstrassCurve, "residue",
                        lambda curve, point: calls.append(point) or inner(curve, point))
    return calls


def test_global_height_evaluates_the_curve_equation_once(semistable_examples, residues):
    """On P, -P and 2P of the acceptance curves: once, in global_height's
    own membership check.  The places, the coverage tripwire, the real place
    and the doubling oracle trust the checked point and evaluate nothing;
    the public LocalModel.local_height checks it p-adically, once per call,
    and the public elliptic_log and doubling_oracle once each."""
    for curve, point in semistable_examples:
        for target in (point, curve.negate(point), curve.double(point)):
            residues.clear()
            report = global_height(curve, target)
            assert residues == [target], (curve, target)
            ctx = heights.CurveModel.at(curve).arch(128)
            residues.clear()
            elliptic_log(ctx, target)
            doubling_oracle(curve, target)
            assert residues == [target] * 2, (curve, target)
            model = heights.CurveModel.at(curve)
            places = place_list(curve, target) + [model.local(p) for p in report.checked_good_primes]
            residues.clear()
            for place in places:
                place._height(target)
            assert residues == []
            for place in places:
                place.local_height(target)
            assert len(residues) == len(places)


def test_trusted_path_matches_the_public_entries(semistable_examples):
    """Everything global_height computes on its trusted cores equals what the
    public entries give, on P, -P, 2P and 4P of the acceptance curves and of
    the egg-branch curves, for seeds 0-3: each local report, the arch value,
    the oracle's value and estimates, and the tripwire's primes, which are
    random.Random(seed).sample of the small primes off the place list."""
    count = 0
    for curve, point in list(semistable_examples) + EGG_BRANCH:
        model = heights.CurveModel.at(curve)
        doubled = curve.double(point)
        for target in (point, curve.negate(point), doubled, curve.double(doubled)):
            oracle = doubling_oracle(curve, target)
            arch_value = local_height_arch(model.arch(128), target)
            for seed in range(4):
                report = global_height(curve, target, RunConfig(seed=seed))
                places = place_list(curve, target)
                assert report.local_reports == tuple(m.local_height(target) for m in places)
                assert report.arch_value == arch_value
                assert report.oracle_value == oracle.value
                assert report.oracle_estimates == oracle.estimates
                covered = {m.prime for m in places}
                candidates = [p for p in SMALL_PRIMES if p not in covered]
                expected = random.Random(seed).sample(candidates, min(5, len(candidates)))
                assert report.checked_good_primes == tuple(expected)
                assert all(model.local(p).local_height(target).lambda_v == 0 for p in expected)
                count += 1
    assert count == 4 * 4 * (len(semistable_examples) + len(EGG_BRANCH)), count
