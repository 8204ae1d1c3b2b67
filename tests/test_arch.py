import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from tropical_heights import arch
from tropical_heights.arch import (
    arch_context,
    elliptic_log,
    local_height_arch,
    local_height_from_uniformizer,
)
from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.errors import InputError, PrecisionError

from oracles import (
    _find_real_q,
    _mp,
    bisection_elliptic_log,
    convert,
    coordinates_from_uniformizer,
    lambert_sum,
    mpmath_arch_context,
    mpmath_elliptic_log,
    mpmath_local_height_from_uniformizer,
    newton_elliptic_log,
    q_expansion_c6,
    ratio_scale2,
    x_series,
)

E37 = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0)
E11 = WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20)
CM1728 = WeierstrassCurve.from_coeffs(0, 0, 0, -1, 0)   # y^2 = x^3 - x
E_TWIST2 = WeierstrassCurve.from_coeffs(1, -1, 0, -11, -10)  # twisted, disc > 0
J0 = WeierstrassCurve.from_coeffs(0, 0, 0, 0, 1)        # y^2 = x^3 + 1
NEAR_CUSP = WeierstrassCurve.from_coeffs(1, 0, 1, -11, 12)  # |j| ~ 1.3e6
# the models x = 4^k x' of 37a and 11a that the scale tests run on
RESCALINGS = (-80, -60, -40, 40, 60)


def test_context_reproduces_j():
    for curve in (E37, E11, CM1728, J0):
        ctx = convert(arch_context(curve, 128))
        assert abs(ctx.q) < math.exp(-math.pi) * 1.0000001
        assert (ctx.q > 0) == (curve.discriminant > 0)


@pytest.mark.parametrize("bits", [52, 0, -5])
def test_context_refuses_fewer_bits_than_a_run_config(bits):
    """Bits are checked where they enter, against the bound RunConfig uses:
    below 53 a context works under the precision its checks assume, and at
    0 or less its first elliptic log would fail on a negative shift count."""
    with pytest.raises(InputError, match=f"precision_bits = {bits} must be at least 53"):
        arch_context(E37, bits)


def test_j_off_the_branch_is_refused():
    # j < 1728 needs disc < 0; a positive-branch request must not be clamped
    eps = mp.mpf(2) ** -100
    with pytest.raises(PrecisionError):
        _find_real_q(1000, True, eps)
    with pytest.raises(PrecisionError):
        _find_real_q(5000, False, eps)


def test_ell_is_model_invariant():
    ctx1 = convert(arch_context(E37, 96))
    moved = E37.transform(F(2, 3), 1, -1, 2)
    ctx2 = convert(arch_context(moved, 96))
    assert abs(ctx1.ell - ctx2.ell) < 1e-20


def test_near_cusp_q_behaves_like_inverse_j():
    curve = NEAR_CUSP
    assert abs(curve.j_invariant) > 10**6
    ctx = convert(arch_context(curve, 96))
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
        u = convert(ctx, elliptic_log(ctx, point))
        assert 0 <= -mp.log(abs(u)) < convert(ctx).ell + 1e-20
        x_back, y_back = coordinates_from_uniformizer(ctx, u)
        assert abs(x_back - float(point.x)) < 1e-20 * (1 + abs(float(point.x)))
        assert abs(complex(y_back).real - float(point.y)) < 1e-18 * (1 + abs(float(point.y)))


def test_elliptic_log_inverse_class():
    ctx = arch_context(E11, 128)
    P = CurvePoint.affine(5, 5)
    u = convert(ctx, elliptic_log(ctx, P))
    v = convert(ctx, elliptic_log(ctx, E11.negate(P)))
    # u * v must lie in q^Z: reduce and compare
    prod = u * v
    ell = convert(ctx).ell
    t = -mp.log(abs(prod)) / ell
    assert abs(t - mp.nint(t)) < 1e-25
    assert abs(mp.im(mp.log(mp.mpc(prod))) % (2 * mp.pi)) < 1e-25 or \
        abs(mp.im(mp.log(mp.mpc(prod))) % (2 * mp.pi) - 2 * mp.pi) < 1e-25


def test_two_torsion_squares_into_parameter_lattice():
    ctx = arch_context(CM1728, 128)
    for x0 in (0, 1, -1):
        T = CurvePoint.affine(x0, 0)
        u = convert(ctx, elliptic_log(ctx, T))
        sq = u * u
        t = -mp.log(abs(sq)) / convert(ctx).ell
        assert abs(t - mp.nint(t)) < 1e-25


def test_height_even_and_periodic():
    ctx = arch_context(E37, 128)
    P = CurvePoint.affine(2, 2)
    lam = local_height_arch(ctx, P)
    lam_neg = local_height_arch(ctx, E37.negate(P))
    assert abs(lam - lam_neg) < 1e-12
    u = elliptic_log(ctx, P)
    qu = convert(ctx, convert(ctx, u) * convert(ctx).q)
    assert abs(local_height_from_uniformizer(ctx, u) -
               local_height_from_uniformizer(ctx, qu)) < 1e-12


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
    vals = [local_height_from_uniformizer(ctx, convert(ctx, mp.mpf(u))) for u in us]
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
                lam = local_height_from_uniformizer(ctx, convert(ctx, u))
                x, y = coordinates_from_uniformizer(ctx, u)
                z = complex(x / y)
                estimates.append(lam + math.log(abs(z)))
            # Richardson in the step 1 - u: error is O(1 - u)
            extrap = 2 * estimates[-1] - estimates[-2]
        target = -math.log(abs(float(curve.discriminant))) / 12
        assert abs(extrap - target) < 1e-6, (extrap, target)


def _component(ctx, u):
    """'identity' or 'egg' from where u sits on the real locus."""
    if ctx.twisted:
        return "identity" if abs(abs(u) - 1) < 1e-30 else "egg"
    return "identity" if u > 0 else "egg"


def test_agm_and_newton_match_bisection_oracles(semistable_examples):
    """q from the periods against bisection on j, and u three ways, Landen's
    chain against Newton and bisection on x, at 128 and 256 bits, on every
    real-locus branch.  The acceptance curves (one component, both twists)
    run u at 128 bits only, as 11a and [1,0,1,4,-6] cover their branches
    at 256."""
    named = [
        (E37, [CurvePoint.affine(2, 2), CurvePoint.affine(0, 0)]),
        (E11, [CurvePoint.affine(5, 5)]),
        (WeierstrassCurve.from_coeffs(1, 0, 1, 4, -6), [CurvePoint.affine(2, 2)]),
        (E_TWIST2, [CurvePoint.affine(-2, 2), CurvePoint.affine(F(35, 4), F(-215, 8))]),
    ]
    branches = set()
    for bits in (128, 256):
        searched = [(curve, [point] if bits == 128 else []) for curve, point in semistable_examples]
        for curve, points in searched + named:
            ctx = arch_context(curve, bits)
            with mp.workprec(bits + 40):
                eps = mp.mpf(2) ** -(bits + 30)
                q_ref = _find_real_q(_mp(curve.j_invariant), curve.discriminant > 0, eps)
                assert abs(convert(ctx).q - q_ref) < abs(q_ref) * mp.mpf(2) ** -bits, (curve, bits)
            for point in points:
                u = convert(ctx, elliptic_log(ctx, point))
                ref = bisection_elliptic_log(ctx, point)
                newton = newton_elliptic_log(ctx, point)
                assert abs(u - ref) < abs(ref) * mp.mpf(2) ** -(bits - 8), (curve, point)
                assert abs(newton - ref) < abs(ref) * mp.mpf(2) ** -(bits - 8), (curve, point)
                assert abs(u - newton) < abs(ref) * mp.mpf(2) ** -(bits - 8), (curve, point)
                branches.add((ctx.twisted, curve.discriminant > 0, _component(ctx, u)))
    # untwisted and twisted, one and two components, identity and egg
    assert len(branches) == 6, branches


def test_elliptic_log_keeps_its_digits_near_two_torsion():
    """Near a 2-torsion arc end x is stationary in u, so inverting x loses
    digits (the Newton and bisection references both lose about 45 bits
    here); R_F reads u from x's own digits and keeps 2^-(bits + 20)
    against a 512-bit reference."""
    curve = WeierstrassCurve.from_coeffs(0, 0, 1, 9, -14)  # twisted, disc < 0
    point = CurvePoint.affine(F(806, 625), F(-8329, 15625))  # u ~ -1
    ref = newton_elliptic_log(arch_context(curve, 512), point)
    for bits in (128, 256):
        ctx = arch_context(curve, bits)
        u = convert(ctx, elliptic_log(ctx, point))
        with mp.workprec(552):
            assert abs(u - ref) < mp.mpf(2) ** -(bits + 20), (bits, u)


def test_landen_chain_matches_the_mpmath_reference():
    """u from Landen's chain against the mpmath path (R_F and exp), within
    2^-(bits - 8) of |u|, at 64, 128 and 256 bits: P, -P and 2P of points on
    every real-locus type and component (37a's identity and egg, 11a,
    [1,0,1,4,-6], both circles of a twisted curve, a twisted one-component
    curve near u = -1) and of the near-2-torsion family, whose points lie
    within about 2^-30 of a 2-torsion end.  None takes more than the 7
    levels that bound every real curve at 256 bits."""
    cases = [(E37, [(2, 2), (0, 0)]), (E11, [(5, 5)]),
             (WeierstrassCurve.from_coeffs(1, 0, 1, 4, -6), [(2, 2)]),
             (E_TWIST2, [(-2, 2), (F(35, 4), F(-215, 8))]),
             (WeierstrassCurve.from_coeffs(0, 0, 1, 9, -14), [(F(806, 625), F(-8329, 15625))])]
    cases = [(curve, [CurvePoint.affine(x, y) for x, y in points]) for curve, points in cases]
    cases += [(curve, points) for curve, points, _ in _near_two_torsion_cases()]
    branches, count = set(), 0
    for bits in (64, 128, 256):
        for curve, points in cases:
            ctx, reference = arch_context(curve, bits), mpmath_arch_context(curve, bits)
            assert len(ctx.levels) <= 7, (curve, bits)
            for point in points:
                for target in dict.fromkeys([point, curve.negate(point), curve.double(point)]):
                    if target.infinity:
                        continue
                    u = convert(ctx, elliptic_log(ctx, target))
                    with mp.workprec(bits + 40):
                        ref = mpmath_elliptic_log(reference, target)
                        assert abs(u - ref) < abs(ref) * mp.mpf(2) ** -(bits - 8), (bits, curve, target)
                    branches.add((ctx.twisted, ctx.q > 0, _component(ctx, u)))
                    count += 1
    # untwisted and twisted, one and two components, identity and egg
    expected = {(twisted, q > 0, "identity") for twisted in (False, True) for q in (-1, 1)}
    expected |= {(False, True, "egg"), (True, True, "egg")}
    assert expected <= branches and count >= 150, (branches, count)


def test_branch_tolerance_scales_with_precision():
    """At 256 bits each point lands on its own component, 2-torsion on the
    boundary x = e1 included, and maps back to its coordinates."""
    cases = [
        (E37, {(2, 2): "identity", (6, 14): "identity", (0, 0): "egg", (-1, -1): "egg"}),
        (CM1728, {(1, 0): "identity", (0, 0): "egg", (-1, 0): "egg"}),
        (E_TWIST2, {(F(35, 4), F(-215, 8)): "identity", (-2, 2): "egg", (-2, 0): "egg"}),
    ]
    for curve, points in cases:
        ctx = arch_context(curve, 256)
        for (x, y), component in points.items():
            point = CurvePoint.affine(x, y)
            assert curve.contains(point)
            u = convert(ctx, elliptic_log(ctx, point))
            assert _component(ctx, u) == component, (curve, point, u)
            x_back, y_back = coordinates_from_uniformizer(ctx, u)
            assert abs(x_back - x) < mp.mpf(2) ** -200 * (1 + abs(x))
            assert abs(mp.re(y_back) - y) < mp.mpf(2) ** -200 * (1 + abs(y))
    # every real 2-torsion point of y^2 = x(x - a)(x - b), both twists: the
    # one at x = e1 sits on the boundary that the slack decides (with no
    # slack, 6 of these 168 points land on the wrong component)
    for a in range(1, 8):
        for b in range(a + 1, 9):
            for sign in (1, -1):
                r0, r1, r2 = sorted((0, sign * a, sign * b))
                curve = WeierstrassCurve.from_coeffs(
                    0, -(r0 + r1 + r2), 0, r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2)
                ctx = arch_context(curve, 256)
                for x in (r0, r1, r2):
                    u, q = convert(ctx, elliptic_log(ctx, CurvePoint.affine(x, 0))), convert(ctx).q
                    with mp.workprec(296):
                        assert min(abs(u * u - 1), abs(u * u - q)) < mp.mpf(2) ** -200, (curve, x)


def test_arch_work_counts(monkeypatch):
    """Series evaluations per call, independent of machine speed."""
    counts = {}
    for name in ("_q_expansions", "_x_series"):
        inner = getattr(arch, name)

        def wrapper(*args, _name=name, _inner=inner):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(arch, name, wrapper)

    def run(call):
        counts.update(_q_expansions=0, _x_series=0)
        result = call()
        return result, dict(counts)

    # each _q_expansions call gives one value of j = c4^3 / Delta
    ctx, work = run(lambda: arch_context(E37, 128))
    assert work["_q_expansions"] <= 2
    twisted_ctx = arch_context(E_TWIST2, 128)
    for c, point in [(ctx, CurvePoint.affine(2, 2)),          # 37a, identity
                     (ctx, CurvePoint.affine(0, 0)),          # 37a, egg
                     (twisted_ctx, CurvePoint.affine(-2, 2)),  # the egg |u| = sqrt(q)
                     (twisted_ctx, CurvePoint.affine(-2, 0)),  # 2-torsion on it
                     (arch_context(E11, 128), CurvePoint.affine(5, 5))]:  # |u| = 1
        _, work = run(lambda: elliptic_log(c, point))
        # R_F gives u; the one series call is the round-trip check
        assert work["_x_series"] == 1, (point, work)
        assert work["_q_expansions"] == 0, (point, work)


@pytest.mark.parametrize("value", [0, 2], ids=["c4", "Delta"])
@pytest.mark.parametrize("curve", [E37, E11], ids=["37a", "11a"])
@pytest.mark.parametrize("bits", [64, 128])
def test_the_j_check_refuses_a_perturbed_q_expansion(monkeypatch, bits, curve, value):
    """arch_context refuses a q whose c4^3 / Delta misses j by more than
    (|j| + 1728) 2^-(bits - 10).  Scaling Delta by 1 + d moves c4^3 / Delta
    by |j| d to first order, and scaling c4 moves it by 3 |j| d.  At d =
    2^-(bits - 16) that is 64 |j| (192 |j| for c4) units of 2^-(bits - 10),
    above the tolerance's |j| + 1728 once 63 |j| > 1728, or |j| > 27.43:
    37a has j = 110592/37, about 2989, and 11a |j| about 758.  At d =
    2^-(bits + 8) it is 3 |j| 2^-18 units at most, below the tolerance by a
    factor of more than 2^16, which leaves the value's own error room."""
    inner = arch._q_expansions

    def run(shift):
        def scaled(*args):
            values = list(inner(*args))
            values[value] += values[value] >> shift
            return tuple(values)

        monkeypatch.setattr(arch, "_q_expansions", scaled)
        return arch_context(curve, bits)

    with pytest.raises(PrecisionError, match="q-inversion did not reproduce j to tolerance"):
        run(bits - 16)
    run(bits + 8)  # within the tolerance: no refusal


def test_q_expansions_match_lambert_sums(semistable_examples):
    """c4, sigma_1 and Delta from the integer q-expansions, and the
    reference's c6, against Lambert sums and q (q; q)_inf^24 summed to
    2^-(bits + 60), to 2^-(bits + 20) (sigma_1 and Delta relatively), at
    the q of the acceptance curves, 37a, 11a, a twisted curve, j = 0 and
    j = 1728.  The expansions are summed to 2^-(bits + 60) and to the
    context's own cut-off 2^-(bits + _TERM_GUARD): each series is cut where
    its tail bound, coefficient growth included, is below the cut-off (the
    tail of c6 is near 504 N^5 |q|^N)."""
    curves = [E37, E11, E_TWIST2, J0, CM1728] + [curve for curve, _ in semistable_examples]
    for bits in (128, 256):
        for curve in curves:
            ctx = arch_context(curve, bits)
            q, f = convert(ctx).q, ctx.bits
            own = arch._q_expansions(ctx.q, 1 << f - bits - arch._TERM_GUARD, f)
            # summed to 2^-(bits + 60) at scale 2^(f + 60), then cut to 2^f
            deep = [v >> 60 for v in arch._q_expansions(ctx.q << 60, 1 << f - bits, f + 60)]
            with mp.workprec(bits + 40):
                cut = mp.mpf(2) ** -(bits + arch._TERM_GUARD)
                at_context = (*(convert(ctx, v) for v in own), q_expansion_c6(q, cut))
            with mp.workprec(bits + 60):
                eps = mp.mpf(2) ** -(bits + 60)
                tol = mp.mpf(2) ** -(bits + 20)
                c4_ref = 1 + 240 * lambert_sum(3, q, eps)
                c6_ref = 504 * lambert_sum(5, q, eps) - 1
                sigma1_ref, disc_ref = lambert_sum(1, q, eps), q * mp.qp(q) ** 24
                full = (*(convert(ctx, v) for v in deep), q_expansion_c6(q, eps))
                for c4, sigma1, disc, c6 in (full, at_context):
                    assert abs(c4 - c4_ref) < tol, (curve, bits)
                    assert abs(c6 - c6_ref) < tol, (curve, bits)
                    assert abs(sigma1 - sigma1_ref) < abs(sigma1) * tol, (curve, bits)
                    assert abs(disc - disc_ref) < abs(disc) * tol, (curve, bits)


def test_scale2_matches_q_series_ratio(semistable_examples):
    """scale2 = re(rate^2) from the real period against the reference
    alpha^2 from c4, c6 and c4(q), c6(q), to 2^-(bits + 20) relative at
    128 and 256 bits, on 37a, 11a, a twisted curve, j = 0, j = 1728 and
    the acceptance curves."""
    curves = [E37, E11, E_TWIST2, J0, CM1728] + [curve for curve, _ in semistable_examples]
    for bits in (128, 256):
        for curve in curves:
            ctx = convert(arch_context(curve, bits))
            with mp.workprec(bits + 40):
                ref = ratio_scale2(curve, ctx.q, mp.mpf(2) ** -(bits + arch._TERM_GUARD))
                assert abs(ctx.scale2 - ref) < abs(ref) * mp.mpf(2) ** -(bits + 20), (curve, bits)


def test_twisted_is_the_sign_of_c6():
    """The twisted real form is c6 > 0, on all four real types (one or two
    components, either twist), at j = 0 for both signs of c6 and at
    j = 1728 (c6 = 0, untwisted) for both signs of disc; the reference
    ratio's sign agrees."""
    curves = [E37, E11, E_TWIST2, WeierstrassCurve.from_coeffs(0, 0, 1, 9, -14),
              J0, WeierstrassCurve.from_coeffs(0, 0, 0, 0, -1),
              CM1728, WeierstrassCurve.from_coeffs(0, 0, 0, 1, 0)]
    kinds = set()
    for curve in curves:
        ctx = arch_context(curve, 128)
        assert ctx.twisted == (curve.c6 > 0), curve
        with mp.workprec(168):
            ratio = ratio_scale2(curve, convert(ctx).q, mp.mpf(2) ** -158)
            assert (ratio < 0) == ctx.twisted, curve
        kinds.add((ctx.twisted, curve.discriminant > 0))
    assert len(kinds) == 4, kinds


def test_real_period_from_the_agm_matches_carlson(semistable_examples):
    """Omega on ints (R_F, or the AGMs in Carlson's form with one real root)
    against 2 R_F(0, e1 - e2, e1 - e3) on the roots from mpmath's
    polynomial solver, to 2^-200 at 256 bits."""
    curves = [E37, E11, E_TWIST2] + [curve for curve, _ in semistable_examples]
    for curve in curves:
        ctx = convert(arch_context(curve, 256))
        with mp.workprec(296):
            p, r = -_mp(curve.c4) / 48, -_mp(curve.c6) / 864
            roots = mp.polyroots([1, 0, p, r], maxsteps=200, extraprec=200)
            e1 = max((e for e in roots if abs(mp.im(e)) < 2**-250), key=mp.re)
            e2, e3 = [e for e in roots if e is not e1]
            ref = mp.re(2 * mp.elliprf(0, e1 - e2, e1 - e3))
            assert abs(ctx.omega - ref) < abs(ref) * mp.mpf(2) ** -200, curve


def test_x_series_on_the_real_locus_matches_full_sum():
    """On |u| = 1 and |u| = sqrt(q) the full series is real, and the int
    series gives its value to 2^-150 relative; so it does at a real u."""
    for curve in (E37, E_TWIST2, E11):
        ctx = arch_context(curve, 128)
        f, view = ctx.bits, convert(ctx)
        with mp.workprec(168):
            eps = mp.mpf(2) ** -158
            q, radii = view.q, [1] + ([mp.sqrt(view.q)] if view.q > 0 else [])
            points = [radius * mp.expj(theta) for radius in radii for theta in (0.1, 1, 2, 3.1)]
            for u in points + [mp.mpf("0.3")]:
                full = x_series(u, q, eps, view.sigma1)
                assert abs(mp.im(full)) < mp.mpf(2) ** -150 * abs(full)
                one = convert(ctx, arch._x_series(ctx, convert(ctx, u), 1 << f - 158))
                assert abs(one - mp.re(full)) < mp.mpf(2) ** -150 * abs(full)


def test_round_trip_cut_is_within_its_bound(semistable_examples, monkeypatch):
    """elliptic_log cuts its round-trip series from the check's tolerance:
    on the acceptance curves the cut sum and the full sum differ by at most
    2^-20 of the tolerance, at 64, 128 and 256 bits."""
    calls, inner = [], arch._x_series
    monkeypatch.setattr(arch, "_x_series", lambda *args: calls.append(args) or inner(*args))
    for bits in (64, 128, 256):
        for curve, point in semistable_examples:
            ctx = arch_context(curve, bits)
            for target in (point, curve.double(point)):
                calls.clear()
                elliptic_log(ctx, target)
                [(c, u, eps)] = calls
                with mp.workprec(bits + 40):
                    x_target = _mp(target.x + curve.b2 / 12) / convert(ctx).scale2 - mp.mpf(1) / 12
                    tol = (1 + abs(x_target)) * mp.mpf(2) ** -(bits // 2)
                    full = inner(c, u, 1 << ctx.bits - bits - 30)
                    cut = convert(ctx, inner(c, u, eps) - full)
                    assert abs(cut) <= tol * mp.mpf(2) ** -20


def test_arch_height_is_newton_oracle_float(semistable_examples):
    """Through R_F and through the Newton oracle, local_height_arch returns
    the same float: P, -P, 2P and 4P of the acceptance curves (twisted ones
    included), the egg-branch curves, 37a's egg points and 2-torsion."""
    cases = [(curve, [point]) for curve, point in semistable_examples]
    cases += [(WeierstrassCurve.from_coeffs(1, -1, 0, -11, a6), [CurvePoint.affine(x, y)])
              for a6, (x, y) in zip((-10, -9, -8, -7), [(-2, 2), (-1, 1), (F(-9, 4), F(19, 8)), (-2, 3)])]
    cases += [(E37, [CurvePoint.affine(0, 0), CurvePoint.affine(-1, -1)]),
              (CM1728, [CurvePoint.affine(x, 0) for x in (-1, 0, 1)]),
              (E_TWIST2, [CurvePoint.affine(-2, 0)])]
    count = 0
    for curve, points in cases:
        ctx = arch_context(curve, 128)
        for point in points:
            doubled = curve.double(point)
            targets = dict.fromkeys([point, curve.negate(point), doubled, curve.double(doubled)])
            for target in [t for t in targets if not t.infinity]:
                u = convert(ctx, newton_elliptic_log(ctx, target))
                newton = local_height_from_uniformizer(ctx, u)
                assert local_height_arch(ctx, target) == newton, (curve, target)
                count += 1
    assert count >= 60, count


def _near_two_torsion_cases() -> list:
    """Curves of all four real-locus types (disc > 0 or < 0, c6 < 0 or > 0)
    as y^2 = x^3 + a4 x + a6 with integer roots r, their 2-torsion points,
    and the same cubic plus 2^-60 with the points (r, 2^-30), whose u lies
    within about 2^-30 of a 2-torsion arc end."""
    cases = []
    for a4, a6, roots in ((-7, 6, (1, 2, -3)), (-7, -6, (-1, -2, 3)), (1, 2, (-1,)), (1, -2, (1,))):
        cases.append((WeierstrassCurve.from_coeffs(0, 0, 0, a4, a6),
                      [CurvePoint.affine(r, 0) for r in roots], False))
        cases.append((WeierstrassCurve.from_coeffs(0, 0, 0, a4, F(a6) + F(1, 2**60)),
                      [CurvePoint.affine(r, F(1, 2**30)) for r in roots], False))
    return cases


def test_int_path_matches_the_mpmath_reference(semistable_examples):
    """The height on ints against the mpmath path it replaced, to one ulp,
    at 64, 128 and 256 bits: P, -P, 2P and 4P of the acceptance curves and
    of the egg-branch curves, 2-torsion points, and P, -P and 2P of points
    near a 2-torsion arc end on all four real-locus types.  Both answer
    every point, 2P near 2-torsion at 64 bits included: there x is above
    2^60 and the round-trip tolerance passes 1, and the cut-off, held at
    |q| 2^-21, keeps the series' n = 1 term."""
    cases = [(curve, [point], True) for curve, point in semistable_examples]
    cases += [(WeierstrassCurve.from_coeffs(1, -1, 0, -11, a6), [CurvePoint.affine(x, y)], True)
              for a6, (x, y) in zip((-10, -9, -8, -7), [(-2, 2), (-1, 1), (F(-9, 4), F(19, 8)), (-2, 3)])]
    cases += [(CM1728, [CurvePoint.affine(x, 0) for x in (-1, 0, 1)], False),
              (E_TWIST2, [CurvePoint.affine(-2, 0)], False)] + _near_two_torsion_cases()
    kinds, heights, refused = set(), 0, 0
    for bits in (64, 128, 256):
        for curve, points, deep in cases:
            ctx, reference = arch_context(curve, bits), mpmath_arch_context(curve, bits)
            kinds.add((curve.discriminant > 0, curve.c6 > 0))
            for point in points:
                doubled = curve.double(point)
                targets = [point, curve.negate(point), doubled] + [curve.double(doubled)] * deep
                for target in [t for t in dict.fromkeys(targets) if not t.infinity]:
                    try:
                        u = mpmath_elliptic_log(reference, target)
                        ref = mpmath_local_height_from_uniformizer(reference, u)
                    except PrecisionError:
                        with pytest.raises(PrecisionError):
                            local_height_arch(ctx, target)
                        refused += 1
                        continue
                    value = local_height_arch(ctx, target)
                    assert abs(value - ref) <= math.ulp(ref), (bits, curve, target, value, ref)
                    heights += 1
    assert len(kinds) == 4, kinds
    assert heights >= 270 and refused == 0, (heights, refused)


def _per_curve_values(ctx) -> dict:
    """The values of an MpmathContext that the comparison reads, each as a
    tuple: the chain's level sums and squared differences apart."""
    values = {name: getattr(ctx, name) for name in
              ("q", "ell", "omega", "scale2", "sigma1", "roots", "torsion_x")}
    values["level sums"], values["level squares"] = zip(*ctx.levels)
    return {name: v if isinstance(v, tuple) else (v,) for name, v in values.items()}


def test_per_curve_values_match_the_mpmath_reference(semistable_examples):
    """q, ell, Omega, scale2, sigma_1, the roots, torsion_x and the chain's
    per-level constants on ints against the mpmath context they replaced
    (the constants summed as series there), within 2^-(bits + 30) of each
    value's largest modulus, at 64, 128 and 256 bits: 37a, 11a, a twisted
    curve, j = 0, j = 1728, the near-cusp curve [1,0,1,-11,12], the
    acceptance curves, the near-2-torsion family and the rescaled models
    of 37a and 11a."""
    curves = [E37, E11, E_TWIST2, J0, CM1728, NEAR_CUSP]
    curves += [curve for curve, _ in semistable_examples]
    curves += [curve for curve, _, _ in _near_two_torsion_cases()]
    curves += [curve.transform(F(2) ** k, 0, 0, 0) for curve in (E37, E11) for k in RESCALINGS]
    for bits in (64, 128, 256):
        for curve in curves:
            ours, reference = convert(arch_context(curve, bits)), mpmath_arch_context(curve, bits)
            assert len(ours.levels) == len(reference.levels), (curve, bits)
            ours, reference = _per_curve_values(ours), _per_curve_values(reference)
            with mp.workprec(2 * bits + 100):
                for name, b in reference.items():
                    bound = max(abs(v) for v in b) * mp.mpf(2) ** -(bits + 30)
                    assert max(abs(x - y) for x, y in zip(ours[name], b)) <= bound, (curve, bits, name)


def test_heights_do_not_depend_on_the_scale_of_the_model():
    """37a and 11a under x = 4^k x' for each k of RESCALINGS, at 64, 128
    and 256 bits: the context works on the model normalized by a power of
    two, so each height is the unscaled one within one ulp."""
    for curve, points in ((E37, [(0, 0), (2, 2)]), (E11, [(5, 5)])):
        for bits in (64, 128, 256):
            for x, y in points:
                reference = local_height_arch(arch_context(curve, bits), CurvePoint.affine(x, y))
                for k in RESCALINGS:
                    u = F(2) ** k
                    moved = curve.transform(u, 0, 0, 0)
                    point = WeierstrassCurve.transform_point(CurvePoint.affine(x, y), u, 0, 0, 0)
                    value = local_height_arch(arch_context(moved, bits), point)
                    assert abs(value - reference) <= math.ulp(reference), (curve, bits, k, value)


def test_doubled_points_near_two_torsion_keep_their_height_at_low_precision():
    """2P of each point near a 2-torsion arc end has x above 2^60, so at 64
    and 72 bits the round-trip tolerance passes 1; the series still keeps
    its n = 1 term, and the height equals the 256-bit one within 1 ulp."""
    count = 0
    for curve, points, _ in _near_two_torsion_cases():
        for doubled in [curve.double(point) for point in points]:
            if doubled.infinity:
                continue
            reference = local_height_arch(arch_context(curve, 256), doubled)
            for bits in (64, 72):
                value = local_height_arch(arch_context(curve, bits), doubled)
                assert abs(value - reference) <= math.ulp(reference), (curve, bits, value)
                count += 1
    assert count == 16, count
