"""Seeded verification suites exposed through the `verify` CLI subcommand.

Each suite runs a property of the implementation against an independent
oracle (exhaustive box search for the closest-vector solver, exact
symmetry and transformation identities, parameter-built points for the
local height dual route) and reports machine-readable pass/fail data with
counterexamples.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cvp import closest_lattice_point, lattice_form
from .degeneration import DegenerationData, automorphy_factor, component_group
from .errors import InputError, TropicalHeightsError
from .exact import PadicElement
from .linalg import determinant, int_matrix_inverse, mat_mul, over_denominator, transpose
from .tate import (
    local_height_from_parameter,
    local_height_multiplicative,
    tate_curve,
    tate_curve_point,
)
from .tropical import (
    TropicalTheta,
    generate_theta_terms,
    quantization_check,
    tensor_normalized,
    theta_characteristic,
)


def brute_force_closest(gram, target, radius: int = 4) -> Fraction:
    """Exhaustive integer box search for min (w+t)^T G (w+t); the oracle
    against which the enumeration solver is checked.  Integer-scaled to
    keep the inner loop cheap."""
    tt, den = over_denominator(target)
    g = len(target)
    best = None
    for x in itertools.product(range(-radius, radius + 1), repeat=g):
        w = [xi * den + ti for xi, ti in zip(x, tt)]
        val = 0
        for i in range(g):
            row = gram[i]
            val += w[i] * sum(row[j] * w[j] for j in range(g))
        if best is None or val < best:
            best = val
    return Fraction(best, den * den)


_MAX_ENTRY = 25
_MAX_DET = 400


def random_positive_definite(rng: random.Random, rank: int):
    """Random symmetric positive definite integer matrix with entries
    bounded by _MAX_ENTRY (A^T A plus a diagonal shift, redrawn until the
    bound holds)."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        shift = rng.randint(1, 4)
        gram = [
            [
                sum(a[k][i] * a[k][j] for k in range(rank)) + (shift if i == j else 0)
                for j in range(rank)
            ]
            for i in range(rank)
        ]
        if all(abs(x) <= _MAX_ENTRY for row in gram for x in row):
            return gram


def random_unimodular(rng: random.Random, rank: int):
    """Product of a few random elementary matrices."""
    m = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(rank):
            m[i][k] += c * m[j][k]
    return m


def random_principally_polarized(rng: random.Random, rank: int) -> DegenerationData:
    """Synthetic principally polarized data: G symmetric positive definite
    with |det G| <= _MAX_DET, F unimodular, M = F^{-T} G (so the polarization
    map is F), linear part parity-matched to the diagonal of G."""
    while True:
        gram = random_positive_definite(rng, rank)
        if abs(int(determinant(gram))) > _MAX_DET:
            continue
        f = random_unimodular(rng, rank)
        m = mat_mul(transpose(int_matrix_inverse(f)), gram)
        lin = [rng.randint(-6, 6) for _ in range(rank)]
        lin = [
            v if (v + gram[i][i]) % 2 == 0 else v + 1
            for i, v in enumerate(lin)
        ]
        try:
            return DegenerationData(
                rank=rank,
                embedding=[[int(x) for x in row] for row in m],
                gram=gram,
                linear_part=lin,
            )
        except TropicalHeightsError:
            continue


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


# cases per suite run
_CVP_CASES = 100
_QUANTIZATION_CASES = 20
_THETA_CHAR_CASES = 20
_TROP_INVARIANCE_CASES = 60
_DUAL_ROUTE_CASES = 20


def suite_cvp(seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []
    for case in range(_CVP_CASES):
        rank = rng.choice([1, 2, 3, 4])
        gram = random_positive_definite(rng, rank)
        t = [
            Fraction(rng.randint(-8, 8), rng.randint(2, 9)) for _ in range(rank)
        ]
        t = [x - round(x) for x in t]
        _, val = closest_lattice_point(lattice_form(gram), t)
        oracle = brute_force_closest(gram, t, radius=4)
        if val != oracle:
            failures.append(
                {"case": case, "gram": gram, "target": [str(x) for x in t],
                 "solver": str(val), "oracle": str(oracle)}
            )
    return {"suite": "cvp", "cases": _CVP_CASES, "passed": not failures, "failures": failures}


def suite_quantization(seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []
    for case in range(_QUANTIZATION_CASES):
        rank = rng.choice([1, 2, 3])
        data = random_principally_polarized(rng, rank)
        theta = generate_theta_terms(data)
        group = component_group(data)
        report = quantization_check(theta)
        if not report.passed:
            failures.append(
                {"case": case, "exponent": group.exponent,
                 "violations": [(rep, str(v)) for rep, v in report.violations]}
            )
    return {
        "suite": "quantization", "cases": _QUANTIZATION_CASES,
        "passed": not failures, "failures": failures,
    }


def suite_theta_characteristic(seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []
    for case in range(_THETA_CHAR_CASES):
        rank = rng.choice([1, 2, 3])
        data = random_principally_polarized(rng, rank)
        shift = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        theta = generate_theta_terms(data, constant=shift)
        try:
            tc = theta_characteristic(theta)
            # the closed form, certified by the grid check on the scanned reload
            scanned = theta_characteristic(TropicalTheta(data, theta.terms, theta.margin))
        except TropicalHeightsError as exc:
            failures.append({"case": case, "error": str(exc)})
            continue
        if scanned != tc:
            failures.append({"case": case, "error": f"scanned reload gives {scanned}"})
        if any((2 * k).denominator != 1 for k in tc.shift):
            failures.append({"case": case, "error": "2k not integral"})
        if tc.base_constant != shift:
            failures.append(
                {"case": case, "error":
                 f"decomposition constant {tc.base_constant} != shift {shift}"}
            )
    return {
        "suite": "theta-char", "cases": _THETA_CHAR_CASES,
        "passed": not failures, "failures": failures,
    }


def suite_trop_invariance(seed: int = 0) -> dict:
    """Lattice invariance of the normalized value, concavity of the raw
    value on segments, and tensor additivity."""
    rng = random.Random(seed)
    failures = []
    for case in range(_TROP_INVARIANCE_CASES):
        rank = rng.choice([1, 2])
        data = random_principally_polarized(rng, rank)
        theta = generate_theta_terms(data)
        nu = [Fraction(rng.randint(-40, 40), 7) for _ in range(rank)]
        w = [rng.randint(-2, 2) for _ in range(rank)]
        shifted = [a + b for a, b in zip(nu, data.from_lattice_coords(w))]
        if theta.normalized_value(nu) != theta.normalized_value(shifted):
            failures.append({"case": case, "property": "lattice invariance"})
            continue
        # concavity on a random segment
        other = [Fraction(rng.randint(-40, 40), 9) for _ in range(rank)]
        mid = [(a + b) / 2 for a, b in zip(nu, other)]
        lhs = theta.value(mid)
        rhs = (theta.value(nu) + theta.value(other)) / 2
        if lhs < rhs:
            failures.append({"case": case, "property": "concavity"})
            continue
        # cocycle transformation of the raw value
        z = automorphy_factor(data, w, nu)
        if theta.value(nu) != theta.value(shifted) + z:
            failures.append({"case": case, "property": "cocycle"})
    # tensor additivity on shared lattices: an even multiple of the Gram
    # matrix is always valid second-factor data on the same lattice
    for case in range(10):
        rank = 2
        d1 = random_principally_polarized(rng, rank)
        scale = rng.choice([2, 4])
        d2 = DegenerationData(
            rank=rank, embedding=d1.embedding,
            gram=[[scale * x for x in row] for row in d1.gram],
            linear_part=[0, 0],
        )
        t1 = generate_theta_terms(d1)
        t2 = generate_theta_terms(d2)
        prod = tensor_normalized(t1, t2)
        for _ in range(5):
            nu = [Fraction(rng.randint(-20, 20), 7) for _ in range(rank)]
            if prod.normalized_value(nu) != t1.normalized_value(nu) + t2.normalized_value(nu):
                failures.append({"case": f"tensor-{case}", "property": "additivity"})
                break
    return {
        "suite": "trop-invariance", "cases": _TROP_INVARIANCE_CASES + 10,
        "passed": not failures, "failures": failures,
    }


def suite_tate_dual_route(seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []
    primes = [2, 3, 5, 7]
    for case in range(_DUAL_ROUTE_CASES):
        p = primes[case % 4]
        ell = rng.randint(1, 6)
        unit_q = rng.choice([u for u in (1, 2, 3, 4, 5, 6, 7) if u % p != 0])
        q = PadicElement.from_rational(p, unit_q * p**ell, 60)
        curve = tate_curve(q)
        vz = rng.randint(0, ell - 1)
        unit_z = rng.choice([u for u in (1, 2, 3, 4, 5, 7, 9) if u % p != 0])
        if vz == 0 and unit_z == 1:
            unit_z = 1 + p**rng.randint(1, 3)
        z = PadicElement.from_rational(p, unit_z * p**vz, 60)
        point = tate_curve_point(q, z)
        lam_param = local_height_from_parameter(q, z)
        report = local_height_multiplicative(curve, p, point)
        if lam_param != report.lambda_v:
            failures.append(
                {"case": case, "p": p, "ell": ell, "v(z)": vz,
                 "parameter_route": str(lam_param), "component_route": str(report.lambda_v)}
            )
    return {
        "suite": "tate-dual-route", "cases": _DUAL_ROUTE_CASES,
        "passed": not failures, "failures": failures,
    }


SUITES = {
    "cvp": suite_cvp,
    "quantization": suite_quantization,
    "theta-char": suite_theta_characteristic,
    "trop-invariance": suite_trop_invariance,
    "tate-dual-route": suite_tate_dual_route,
}


def run_suite(name: str, seed: int = 0) -> list:
    """Run one suite (or 'all'); returns a list of result dictionaries."""
    if name == "all":
        return [fn(seed=seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise InputError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return [SUITES[name](seed=seed)]
