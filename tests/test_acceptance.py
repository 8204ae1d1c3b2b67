"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance (exact rational equality wherever
the criterion is exact) and prints a PASS line with its runtime so the
whole gate is auditable from the pytest -s output.
"""

import math
import random
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import rank1_tate_data
from oracles import convert, coordinates_from_uniformizer
from tropical_heights.arch import (
    arch_context,
    elliptic_log,
    local_height_from_uniformizer,
)
from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.cvp import closest_lattice_point, lattice_form
from tropical_heights.degeneration import component_group
from tropical_heights.exact import INFINITY, PadicElement, bernoulli2, val_p
from tropical_heights.heights import (
    RunConfig,
    bad_primes,
    doubling_oracle,
    factorize,
    global_height,
)
from tropical_heights.tate import (
    local_height_multiplicative,
    local_height_from_parameter,
    local_height_report,
    tate_curve,
    tate_curve_point,
)
from tropical_heights.tropical import (
    TropicalTheta,
    generate_theta_terms,
    quantization_check,
    theta_characteristic,
    tropical_riemann_theta,
)
from tropical_heights.verify import (
    brute_force_closest,
    random_positive_definite,
    random_principally_polarized,
)


def _report(name, started, budget):
    elapsed = time.time() - started
    print(f"PASS: {name} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def _fourier_terms(ell, radius=6):
    """Raw Fourier data of the multiplicative-reduction theta function."""
    return {(u,): F(ell * (u * u - u), 2) for u in range(-radius, radius + 1)}


@pytest.fixture(scope="module")
def synthetic_pp_data():
    rng = random.Random(2024)
    out = []
    for case in range(20):
        rank = [1, 2, 3][case % 3]
        out.append(random_principally_polarized(rng, rank))
    return out


def test_acceptance_rank1_closed_form():
    """||theta_trop||(nu) = (ell/2) B2(nu/ell) - ell/12 on [0, ell], exact,
    starting from the raw Fourier terms."""
    started = time.time()
    for ell in range(1, 11):
        theta = TropicalTheta(rank1_tate_data(ell), _fourier_terms(ell), margin=2)
        for k in range(50):
            nu = F(k * ell, 49)  # 50 rationals spanning [0, ell]
            expected = F(ell, 2) * bernoulli2(nu / ell) - F(ell, 12)
            assert theta.normalized_value([nu]) == expected, (ell, nu)
    _report("rank-1 closed form (exact, 10 x 50 points)", started, 1)


def test_acceptance_theta_equals_shifted_riemann_theta():
    """theta_trop(nu) = Psi(nu - ell/2) exactly on a 100-point grid per ell."""
    started = time.time()
    for ell in range(1, 11):
        data = rank1_tate_data(ell)
        theta = TropicalTheta(data, _fourier_terms(ell), margin=2)
        for k in range(100):
            nu = F((k - 50) * ell, 37)
            lhs = theta.value([nu])
            rhs = tropical_riemann_theta(data, [nu - F(ell, 2)])
            assert lhs == rhs, (ell, nu)
    _report("theta_trop = Psi o t_{-ell/2} (exact, 10 x 100 points)", started, 1)


def test_acceptance_theta_characteristic(synthetic_pp_data):
    """Existence and exactness of (kappa, r) for 20 synthetic principally
    polarized data sets of ranks 1-3."""
    started = time.time()
    rng = random.Random(77)
    for data in synthetic_pp_data:
        shift = F(rng.randint(-4, 4), rng.randint(1, 3))
        theta = generate_theta_terms(data, constant=shift)
        tc = theta_characteristic(theta)  # the closed form
        # the grid check on the scanned reload certifies it
        assert theta_characteristic(TropicalTheta(data, theta.terms, theta.margin)) == tc
        assert all((2 * k).denominator == 1 for k in tc.shift)
        # kappa is k reduced mod the lattice
        diff = data.to_lattice_coords(
            [a - b for a, b in zip(tc.shift, tc.shift_mod_lattice)]
        )
        assert all(x.denominator == 1 for x in diff)
        # generator round-trip: k solves the linear system F^T (2k) = l
        ft = [list(row) for row in zip(*data.polarization_matrix)]
        lhs = [
            sum(F(ft[i][j]) * 2 * tc.shift[j] for j in range(data.rank))
            for i in range(data.rank)
        ]
        assert lhs == [F(x) for x in data.linear_part]
        assert tc.base_constant == shift
    _report("theta characteristic on 20 synthetic data sets", started, 30)


def test_acceptance_quantization(synthetic_pp_data):
    """Every component-group value of the normalized theta has denominator
    dividing 2N."""
    started = time.time()
    for data in synthetic_pp_data:
        theta = generate_theta_terms(data)
        group = component_group(data)
        report = quantization_check(theta)
        assert report.passed
        assert report.modulus == group.exponent
        for _, value in report.values:
            assert (2 * group.exponent * value).denominator == 1
    _report("quantization over component groups (exact)", started, 10)


def test_acceptance_cvp_oracle():
    """Certified enumeration equals exhaustive radius-4 box search on 100
    random instances of ranks 1-4."""
    started = time.time()
    rng = random.Random(4242)
    for case in range(100):
        rank = [1, 2, 3, 4][case % 4]
        gram = random_positive_definite(rng, rank)
        t = [F(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(rank)]
        t = [x - round(x) for x in t]
        _, val = closest_lattice_point(lattice_form(gram), t)
        assert val == brute_force_closest(gram, t, radius=4), (gram, t)
    _report("CVP vs exhaustive box search x100", started, 30)


def test_acceptance_dual_route():
    """Component formula equals the parameter formula, exactly, on 20
    Tate-curve instances."""
    started = time.time()
    rng = random.Random(8)
    for case in range(20):
        p = [2, 3, 5, 7][case % 4]
        ell = rng.randint(1, 6)
        unit_q = rng.choice([u for u in (1, 2, 3, 5) if u % p])
        q = PadicElement.from_rational(p, unit_q * p**ell, 60)
        curve = tate_curve(q)
        vz = rng.randint(0, ell - 1)
        unit_z = rng.choice([u for u in (2, 3, 7, 9, 1 + p) if u % p])
        z = PadicElement.from_rational(p, unit_z * p**vz, 60)
        point = tate_curve_point(q, z)
        assert local_height_from_parameter(q, z) == \
            local_height_multiplicative(curve, p, point).lambda_v, (p, ell, vz)
    _report("local height dual route x20 (exact)", started, 60)


def test_acceptance_tate_normalization_limit():
    """Quasi-minimum at the origin: exact for the p-adic sequence, within
    1e-6 for the extrapolated archimedean sequence."""
    started = time.time()
    # non-archimedean: z_n -> 1 built on a Tate curve with ell = 4
    p, ell = 3, 4
    q = PadicElement.from_rational(p, 2 * p**ell, 80)
    curve = tate_curve(q)
    for n in range(1, 6):
        z = PadicElement.from_rational(p, 1 + p**n, 80)
        point = tate_curve_point(q, z)
        lam = local_height_multiplicative(curve, p, point).lambda_v
        assert lam - val_p(point.x / point.y, p) == F(ell, 12)
    # archimedean
    for coeffs in [(0, 0, 1, -1, 0), (0, -1, 1, -10, -20)]:
        e = WeierstrassCurve.from_coeffs(*coeffs)
        ctx = arch_context(e, 160)
        with mp.workprec(200):
            estimates = []
            for k in range(8, 16):
                u = 1 - mp.mpf(2) ** (-k)
                lam = local_height_from_uniformizer(ctx, convert(ctx, u))
                x, y = coordinates_from_uniformizer(ctx, u)
                estimates.append(lam + math.log(abs(complex(x / y))))
            extrap = 2 * estimates[-1] - estimates[-2]
        target = -math.log(abs(float(e.discriminant))) / 12
        assert abs(extrap - target) < 1e-6
    _report("Tate normalization limit (exact p-adic, 1e-6 archimedean)", started, 10)


def test_acceptance_global_heights(semistable_examples):
    """Sum of normalized local heights equals half the doubling-oracle
    height within 1e-6 on the built-in curve search, with the quadraticity
    ratio on doubled points."""
    started = time.time()
    assert len(semistable_examples) >= 10
    for curve, point in semistable_examples:
        report = global_height(curve, point)
        assert report.discrepancy < 1e-6, (curve, point, report.discrepancy)
        doubled = curve.double(point)
        report2 = global_height(curve, doubled)
        ratio = report2.global_sum / report.global_sum
        assert abs(ratio - 4) < 1e-5, (curve, point, ratio)
    _report(f"global = oracle on {len(semistable_examples)} curves + 2P ratio",
            started, 180)


def test_acceptance_global_heights_deep_oracle(semistable_examples):
    """At n_max = 24 the split oracle matches the global sum within 1e-12
    on the built-in curve search."""
    started = time.time()
    config = RunConfig(n_max=24)
    for curve, point in semistable_examples:
        report = global_height(curve, point, config)
        assert len(report.oracle_estimates) == 24
        assert report.discrepancy < 1e-12, (curve, point, report.discrepancy)
    _report(f"global = oracle within 1e-12 at n_max = 24 on "
            f"{len(semistable_examples)} curves", started, 60)


def test_acceptance_global_heights_egg_branch():
    """The egg |u| = sqrt(q) of twisted two-component curves, which the
    curve search never draws: P and -P on the egg, 2P on the identity
    circle, global = oracle within 1e-12 at n_max = 24."""
    started = time.time()
    config = RunConfig(n_max=24)
    points = [(-2, 2), (-1, 1), (F(-9, 4), F(19, 8)), (-2, 3)]
    for a6, (x, y) in zip((-10, -9, -8, -7), points):
        curve = WeierstrassCurve.from_coeffs(1, -1, 0, -11, a6)
        point = CurvePoint.affine(x, y)
        ctx = arch_context(curve, config.precision_bits)
        assert ctx.twisted and ctx.q > 0
        for target in (point, curve.negate(point), curve.double(point)):
            u = convert(ctx, elliptic_log(ctx, target))
            on_egg = abs(abs(u) - mp.sqrt(convert(ctx).q)) < 1e-30
            assert on_egg == (target != curve.double(point)), (a6, target)
            report = global_height(curve, target, config)
            assert report.discrepancy < 1e-12, (a6, target, report.discrepancy)
    _report("global = oracle within 1e-12 on the egg of 4 twisted curves",
            started, 60)


def test_acceptance_torsion(torsion_examples):
    started = time.time()
    assert len(torsion_examples) >= 5
    for curve, point in torsion_examples:
        report = global_height(curve, point)
        assert abs(report.global_sum) < 1e-8, (curve, point, report.global_sum)
        assert doubling_oracle(curve, point).is_torsion
    _report(f"torsion global heights < 1e-8 on {len(torsion_examples)} curves",
            started, 60)


def test_acceptance_good_reduction(semistable_examples):
    """lambda' = max(0, -v_p(x)/2) in Z>=0 at 5 random good primes per
    curve, exactly."""
    started = time.time()
    rng = random.Random(5)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for curve, point in semistable_examples[:10]:
        bad = set(bad_primes(curve)) | set(factorize(point.x.denominator))
        good = [p for p in pool if p not in bad]
        for p in rng.sample(good, 5):
            report = local_height_report(curve, p, point)
            v = val_p(point.x, p)
            expected = F(0) if (v is INFINITY or v >= 0) else F(-v, 2)
            assert report.lambda_v == expected
            assert report.lambda_v.denominator == 1
            assert report.lambda_v >= 0
    _report("good-reduction intersection formula (exact)", started, 30)
