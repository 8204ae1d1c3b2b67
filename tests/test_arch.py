import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from tropical_heights.arch import (
    _find_real_q,
    arch_context,
    coordinates_from_uniformizer,
    elliptic_log,
    local_height_arch,
    local_height_from_uniformizer,
)
from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.errors import InputError, PrecisionError

E37 = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0)
E11 = WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20)
CM1728 = WeierstrassCurve.from_coeffs(0, 0, 0, -1, 0)   # y^2 = x^3 - x


def test_context_reproduces_j():
    for curve in (E37, E11, CM1728, WeierstrassCurve.from_coeffs(0, 0, 0, 0, 1)):
        ctx = arch_context(curve, 128)
        assert abs(ctx.q) < math.exp(-math.pi) * 1.0000001
        assert (ctx.q > 0) == (curve.discriminant > 0)


def test_j_off_the_branch_is_refused():
    # j < 1728 needs disc < 0; a positive-branch request must not be clamped
    eps = mp.mpf(2) ** -100
    with pytest.raises(PrecisionError):
        _find_real_q(1000, True, eps)
    with pytest.raises(PrecisionError):
        _find_real_q(5000, False, eps)


def test_ell_is_model_invariant():
    ctx1 = arch_context(E37, 96)
    moved = E37.transform(F(2, 3), 1, -1, 2)
    ctx2 = arch_context(moved, 96)
    assert abs(ctx1.ell - ctx2.ell) < 1e-20


def test_near_cusp_q_behaves_like_inverse_j():
    curve = WeierstrassCurve.from_coeffs(1, 0, 1, -11, 12)  # |j| ~ 1.3e6
    assert abs(curve.j_invariant) > 10**6
    ctx = arch_context(curve, 96)
    j = float(curve.j_invariant)
    # q = 1/j + O(1/j^2)
    assert abs(ctx.q - 1 / j) < 2000 / j**2


def test_elliptic_log_roundtrip():
    ctx = arch_context(E37, 128)
    for point in [
        CurvePoint.affine(0, 0), CurvePoint.affine(1, 0),
        CurvePoint.affine(2, 2), CurvePoint.affine(F(1, 4), F(-5, 8)),
        CurvePoint.affine(6, 14),
    ]:
        assert E37.contains(point)
        u = elliptic_log(ctx, point)
        assert 0 <= -mp.log(abs(u)) < ctx.ell + 1e-20
        x_back, y_back = coordinates_from_uniformizer(ctx, u)
        assert abs(x_back - float(point.x)) < 1e-20 * (1 + abs(float(point.x)))
        assert abs(complex(y_back).real - float(point.y)) < 1e-18 * (1 + abs(float(point.y)))


def test_elliptic_log_inverse_class():
    ctx = arch_context(E11, 128)
    P = CurvePoint.affine(5, 5)
    u = elliptic_log(ctx, P)
    v = elliptic_log(ctx, E11.negate(P))
    # u * v must lie in q^Z: reduce and compare
    prod = u * v
    ell = ctx.ell
    t = -mp.log(abs(prod)) / ell
    assert abs(t - mp.nint(t)) < 1e-25
    assert abs(mp.im(mp.log(mp.mpc(prod))) % (2 * mp.pi)) < 1e-25 or \
        abs(mp.im(mp.log(mp.mpc(prod))) % (2 * mp.pi) - 2 * mp.pi) < 1e-25


def test_two_torsion_squares_into_parameter_lattice():
    ctx = arch_context(CM1728, 128)
    for x0 in (0, 1, -1):
        T = CurvePoint.affine(x0, 0)
        u = elliptic_log(ctx, T)
        sq = u * u
        t = -mp.log(abs(sq)) / ctx.ell
        assert abs(t - mp.nint(t)) < 1e-25


def test_height_even_and_periodic():
    ctx = arch_context(E37, 128)
    P = CurvePoint.affine(2, 2)
    lam = local_height_arch(ctx, P)
    lam_neg = local_height_arch(ctx, E37.negate(P))
    assert abs(lam - lam_neg) < 1e-12
    u = elliptic_log(ctx, P)
    assert abs(local_height_from_uniformizer(ctx, u) -
               local_height_from_uniformizer(ctx, u * ctx.q)) < 1e-12


def test_height_model_independence():
    P = CurvePoint.affine(0, 0)
    lam1 = local_height_arch(arch_context(E37, 128), P)
    moved_curve = E37.transform(F(1, 2), 3, 1, -2)
    moved_point = WeierstrassCurve.transform_point(P, F(1, 2), 3, 1, -2)
    assert moved_curve.contains(moved_point)
    lam2 = local_height_arch(arch_context(moved_curve, 128), moved_point)
    assert abs(lam1 - lam2) < 1e-9


def test_classical_two_torsion_values():
    # y^2 = x^3 - x: lambda(0,0) = -log(2)/2, lambda(+-1,0) = -log(2)/4
    ctx = arch_context(CM1728, 160)
    assert abs(local_height_arch(ctx, CurvePoint.affine(0, 0)) + math.log(2) / 2) < 1e-12
    assert abs(local_height_arch(ctx, CurvePoint.affine(1, 0)) + math.log(2) / 4) < 1e-12
    assert abs(local_height_arch(ctx, CurvePoint.affine(-1, 0)) + math.log(2) / 4) < 1e-12


def test_height_rejects_origin():
    ctx = arch_context(E37, 96)
    with pytest.raises(InputError):
        local_height_arch(ctx, CurvePoint.zero())


def test_continuity_smoke():
    # lambda along a fine uniformizer sample varies by O(step) away from O
    ctx = arch_context(E37, 96)
    step = 0.002
    us = [0.30 + step * k for k in range(40)]
    vals = [local_height_from_uniformizer(ctx, mp.mpf(u)) for u in us]
    assert all(math.isfinite(v) for v in vals)
    worst = max(abs(a - b) for a, b in zip(vals, vals[1:]))
    assert worst < 50 * step


def test_tate_limit_archimedean():
    """lambda'(P_n) + log|x/y| -> -(1/12) log|disc| along P_n -> O."""
    for curve in (E37, E11):
        ctx = arch_context(curve, 160)
        with mp.workprec(200):
            prev = None
            estimates = []
            for k in range(8, 16):
                u = 1 - mp.mpf(2) ** (-k)
                lam = local_height_from_uniformizer(ctx, u)
                x, y = coordinates_from_uniformizer(ctx, u)
                z = complex(x / y)
                estimates.append(lam + math.log(abs(z)))
            # Richardson in the step 1 - u: error is O(1 - u)
            extrap = 2 * estimates[-1] - estimates[-2]
        target = -math.log(abs(float(curve.discriminant))) / 12
        assert abs(extrap - target) < 1e-6, (extrap, target)
