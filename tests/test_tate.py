import math
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.errors import (
    AdditiveReductionError,
    InputError,
    OnDivisorError,
    PreconditionError,
    PrecisionError,
)
from oracles import (
    exact_tate_curve_point,
    fraction_invariants,
    inverse_j_coefficients,
    is_integral,
    j_from_parameter,
    reversion_tate_parameter,
    scan_minimal_model_at,
    three_inverse_tate_curve_point,
)
from tropical_heights import exact, tate
from tropical_heights.exact import INFINITY, PadicElement, bernoulli2, val_p
from tropical_heights.heights import _rational_points_small, factorize
from tropical_heights.tate import (
    LocalHeightReport,
    LocalModel,
    Transformation,
    _e4_cubed_and_discriminant,
    _eval_int_series,
    intersection_multiplicity,
    j_times_q_coefficients,
    local_height_from_parameter,
    local_height_multiplicative,
    local_height_report,
    minimal_model_at,
    normalize_parameter,
    reduction_type,
    tate_coefficients,
    tate_curve,
    tate_curve_point,
    tate_parameter,
    theta_valuation,
)

E37 = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0)       # disc 37
E11 = WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20)   # 11a1, disc -11^5
E_ADD = WeierstrassCurve.from_coeffs(0, 0, 0, 0, 1)      # additive at 2 and 3


# -- invariants -----------------------------------------------------------------


def test_standard_relations():
    for curve in (E37, E11, E_ADD):
        assert 4 * curve.b8 == curve.b2 * curve.b6 - curve.b4**2
        assert 1728 * curve.discriminant == curve.c4**3 - curve.c6**2


def test_singular_equation_rejected():
    with pytest.raises(InputError):
        WeierstrassCurve.from_coeffs(0, 0, 0, 0, 0)


def test_invariants_match_the_fraction_formulas():
    """The one integer pass on the integral model gives the Fraction
    formulas' b2..b8, c4, c6, disc and j on integral curves, curves with
    denominators, coordinate changes with u not a unit, and Tate curves of
    fractional q."""
    curves = [E37, E11, E_ADD, WeierstrassCurve.from_coeffs(1, -1, 0, -7, 6)]
    curves += [WeierstrassCurve.from_coeffs(*a) for a in (
        (0, F(1, 4), 0, F(2, 3), 1), (F(1, 2), 0, F(2, 3), F(-5, 4), F(7, 36)),
        (1, F(1, 4), F(3, 8), F(2, 3), F(-1, 6)))]
    for base in (E37, E11, curves[4]):
        for u, r, s, t in ((F(1, 3), 1, F(1, 2), 2), (6, F(-2, 5), 3, F(1, 7)), (F(2, 9), 0, 0, 0)):
            curves.append(base.transform(u, r, s, t))
    for p, unit, ell in ((5, F(2, 3), 2), (3, F(5, 7), 1), (7, F(-4, 11), 3), (2, F(5, 3), 4)):
        curves.append(tate_curve(PadicElement.from_rational(p, unit * p**ell, 30)))
    assert any(curve.integral_scale > 10**20 for curve in curves)
    for curve in curves:
        for name, value in fraction_invariants(curve).items():
            assert getattr(curve, name) == value, (curve, name)


# -- minimal models ---------------------------------------------------------------


def test_already_minimal_is_unchanged():
    minimal, trans = minimal_model_at(E37, 5)
    assert minimal == E37
    assert trans == Transformation.identity()


def test_minimal_model_roundtrip():
    rng = random.Random(6)
    for p in (2, 3, 5, 7):
        scaled = E37.transform(F(1, p), 0, 0, 0)  # a_i multiplied by p^i
        assert is_integral(scaled)
        minimal, trans = minimal_model_at(scaled, p)
        assert val_p(minimal.discriminant, p) == val_p(E37.discriminant, p)
        # the recorded transformation maps points along
        P = CurvePoint.affine(0, 0)
        on_scaled = WeierstrassCurve.transform_point(P, F(1, p), 0, 0, 0)
        assert scaled.contains(on_scaled)
        assert minimal.contains(trans.push_point(on_scaled))


def test_minimal_discriminant_invariant_under_unimodular_changes():
    rng = random.Random(8)
    for _ in range(10):
        r, s, t = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        moved = E11.transform(1, r, s, t)
        for p in (2, 3, 11):
            m1, _ = minimal_model_at(moved, p)
            assert val_p(m1.discriminant, p) == val_p(E11.discriminant, p)


E_4X = WeierstrassCurve.from_coeffs(0, 0, 0, -4, 0)     # minimal at 2, v(disc) = 12
E_4X_SCALED = E_4X.transform(F(1, 2), 0, 0, 0)           # a_i multiplied by 2^i


def _report_or_error(model: LocalModel, point: CurvePoint):
    try:
        return model.local_height(point)
    except (InputError, PreconditionError, AdditiveReductionError) as exc:
        return type(exc), str(exc)


def test_minimal_model_matches_the_residue_scan():
    # seeded non-minimal, non-p-integral and unimodularly moved models of
    # j = 0, j = 1728, 37a, 11a, an additive curve and y^2 = x^3 - 4x (minimal
    # at 2 although v(disc) = 12 and v(c4) = 6) with its 1/2-scaled model
    rng = random.Random(15)
    bases = [E37, E11, E_ADD, E_4X, E_4X_SCALED,
             WeierstrassCurve.from_coeffs(0, 0, 1, 0, 0),     # j = 0
             WeierstrassCurve.from_coeffs(0, 0, 0, -1, 0)]    # j = 1728
    seen = {"identity": 0, "moved": 0, "reports": 0, "errors": 0}
    for base in bases:
        base_points = _rational_points_small(base)[:4]
        for p in (2, 3, 5, 7, 11):
            integral = [rng.randint(-4, 4) for _ in range(6)]
            moves = [(F(1), 0, 0, 0),
                     (F(1), *integral[:3]),                            # unimodular
                     (F(p) ** -rng.randint(1, 2), *integral[3:]),      # non-minimal
                     (F(p) ** rng.randint(0, 1), *(F(rng.randint(-4, 4), rng.choice([1, p]))
                                                   for _ in range(3)))]  # not p-integral
            for move in moves:
                curve = base.transform(*move)
                minimal, trans = minimal_model_at(curve, p)
                ref_minimal, ref_trans = scan_minimal_model_at(curve, p)
                case = (base, p, move)
                assert val_p(minimal.discriminant, p) == val_p(ref_minimal.discriminant, p), case
                assert curve.transform(trans.u, trans.r, trans.s, trans.t) == minimal, case
                identity = trans == Transformation.identity()
                assert identity == (ref_trans == Transformation.identity()), case
                seen["identity" if identity else "moved"] += 1
                model, ref = LocalModel(p, minimal, trans), LocalModel(p, ref_minimal, ref_trans)
                assert model.reduction == ref.reduction, case
                points = _rational_points_small(curve) + [
                    WeierstrassCurve.transform_point(point, *move) for point in base_points]
                for point in points:
                    report = _report_or_error(model, point)
                    assert report == _report_or_error(ref, point), (case, point)
                    seen["reports" if isinstance(report, LocalHeightReport) else "errors"] += 1
    assert seen["identity"] >= 60 and seen["moved"] >= 60 and seen["reports"] >= 600, seen


def test_minimal_model_rebuild_counts(monkeypatch):
    counts = {"rebuilds": 0}
    inner = tate._model_from_invariants

    def wrapper(*args):
        counts["rebuilds"] += 1
        return inner(*args)

    monkeypatch.setattr(tate, "_model_from_invariants", wrapper)

    def run(curve, p):
        counts["rebuilds"] = 0
        result = minimal_model_at(curve, p)
        return counts["rebuilds"], result

    # a p-integral minimal input takes the fast exit
    assert run(E37, 5) == (0, (E37, Transformation.identity()))
    # one rebuild at p >= 5, and at p = 2 and 3 where Kraus's conditions hold
    for p in (5, 2, 3):
        rebuilds, (minimal, _) = run(E37.transform(F(1, p), 0, 0, 0), p)
        assert rebuilds == 1 and val_p(minimal.discriminant, p) == 0, p
    # k = 1 fails Kraus's conditions at 2 and k = 0 is the input itself
    assert run(E_4X, 2) == (1, (E_4X, Transformation.identity()))
    # k = 2 fails, k = 1 rebuilds y^2 = x^3 - 4x
    rebuilds, (minimal, trans) = run(E_4X_SCALED, 2)
    assert rebuilds == 2 and minimal == E_4X and trans.u == 2


# -- reduction types ---------------------------------------------------------------


def test_reduction_types_basic():
    assert reduction_type(E37, 2).is_good
    assert reduction_type(E37, 37).is_multiplicative
    assert reduction_type(E11, 11).kind == "split multiplicative"
    assert reduction_type(E11, 11).multiplicity == 5
    assert reduction_type(E_ADD, 3).kind == "additive"


def _reduced_points(curve: WeierstrassCurve, p: int):
    """Affine points (x, y, singular) of the reduced curve, by brute force."""
    def md(x):
        x = F(x)
        return x.numerator * pow(x.denominator, -1, p) % p

    a1, a2, a3, a4, a6 = (md(curve.a1), md(curve.a2), md(curve.a3),
                          md(curve.a4), md(curve.a6))
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y
                    - (x**3 + a2 * x * x + a4 * x + a6)) % p:
                continue
            dx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % p
            dy = (2 * y + a1 * x + a3) % p
            yield x, y, dx == 0 and dy == 0


def _count_points_mod_p(curve: WeierstrassCurve, p: int) -> int:
    """Naive point count of the reduced curve, singular point excluded."""
    return 1 + sum(1 for _, _, singular in _reduced_points(curve, p) if not singular)


def _singular_point_mod_p(curve: WeierstrassCurve, p: int) -> tuple:
    """Residues (x0, y0) of the one singular point of a bad reduction."""
    (point,) = [(x, y) for x, y, singular in _reduced_points(curve, p) if singular]
    return point


def _integral_points(curve: WeierstrassCurve, bound: int):
    """Integral points of an integral model with |x| <= bound."""
    a1, a2, a3, a4, a6 = (int(getattr(curve, n)) for n in ("a1", "a2", "a3", "a4", "a6"))
    for x in range(-bound, bound + 1):
        b, c = a1 * x + a3, -(x**3 + a2 * x * x + a4 * x + a6)
        disc = b * b - 4 * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            continue
        for root in {math.isqrt(disc), -math.isqrt(disc)}:
            if (root - b) % 2 == 0:
                yield CurvePoint.affine(x, (root - b) // 2)


_BAD_REDUCTION_CURVES = [
    (0, 0, 1, -1, 0), (0, -1, 1, -10, -20), (1, 0, 0, 0, -1),
    (1, 0, 0, 0, 5), (1, 0, 1, -5, -8), (1, -1, 1, -10, -10),
    (1, 1, 0, -4, 4), (1, 0, 0, -2, -7), (0, 1, 1, -7, 5),
    (1, 0, 0, 3, -5), (1, 0, 1, 2, 2), (1, 1, 1, -3, 3),
    (0, 1, 1, -2, 0), (1, -1, 0, -4, 4), (1, 0, 0, -6, 9),
    (1, 1, 0, 5, -5), (0, -1, 1, -5, 8), (1, 0, 1, -7, -6),
]


def _multiplicative_places(bound: int):
    """(minimal model, p) at each multiplicative p <= bound of the curves
    above."""
    for coeffs in _BAD_REDUCTION_CURVES:
        try:
            curve = WeierstrassCurve.from_coeffs(*coeffs)
        except InputError:
            continue
        for p in factorize(abs(curve.discriminant.numerator)):
            if p > bound:
                continue
            minimal, _ = minimal_model_at(curve, p)
            if reduction_type(minimal, p).is_multiplicative:
                yield minimal, p


def test_split_test_against_point_count():
    # multiplicative reduction: #E^ns(F_p) = p - 1 split, p + 1 nonsplit
    cases = 0
    for minimal, p in _multiplicative_places(60):
        red = reduction_type(minimal, p)
        count = _count_points_mod_p(minimal, p)
        expected_split = count == p - 1
        assert (red.kind == "split multiplicative") == expected_split, (
            minimal, p, count, red.kind,
        )
        cases += 1
    assert cases >= 20


def test_singular_reduction_against_residue_scan():
    # a point has a nonzero component index exactly when it reduces to the
    # singular point that the brute-force scan finds
    at_node = {2: 0, 3: 0, "p >= 5": 0}
    for minimal, p in _multiplicative_places(60):
        node = _singular_point_mod_p(minimal, p)
        for point in _integral_points(minimal, 40):
            reduces_to_node = (point.x % p, point.y % p) == node
            m = local_height_multiplicative(minimal, p, point).component
            assert (m != 0) == reduces_to_node, (
                minimal, p, point,
            )
            at_node[p if p <= 3 else "p >= 5"] += reduces_to_node
    assert all(at_node.values()), at_node


# -- local heights at good and multiplicative places -------------------------------


def test_good_reduction_heights():
    P = CurvePoint.affine(0, 0)
    report = local_height_report(E37, 5, P)
    assert report.reduction.is_good
    assert report.lambda_v == 0
    report37 = local_height_report(E37, 2, CurvePoint.affine(6, 14))
    assert report37.reduction.is_good
    assert report37.lambda_v == 0


def test_good_reduction_denominator_point():
    # 2 * (0,0) on 37a = (1, 0); 3 * (0,0) = (-1, -1); 4 * (0,0) = (2, -3)
    # 5 * (0,0) = (1/4, -5/8): v_2(x) = -2, good reduction at 2
    P = CurvePoint.affine(0, 0)
    Q = P
    for _ in range(4):
        Q = E37.add(Q, P)
    assert Q.x == F(1, 4)
    report = local_height_report(E37, 2, Q)
    assert report.reduction.is_good
    assert report.intersection == 1
    assert report.lambda_v == 1


def test_good_reduction_even_in_negation():
    P = CurvePoint.affine(F(1, 4), F(-5, 8))
    assert E37.contains(P)
    r1 = local_height_report(E37, 2, P)
    r2 = local_height_report(E37, 2, E37.negate(P))
    assert r1.lambda_v == r2.lambda_v


def test_multiplicative_singular_component():
    # (5, 5) on 11a1 reduces to the node (5, 5) mod 11: component m = 1
    report = local_height_multiplicative(E11, 11, CurvePoint.affine(5, 5))
    assert report.component == 1
    assert report.intersection == 0
    assert report.lambda_v == F(5, 2) * bernoulli2(F(1, 5))
    assert report.lambda_v == F(1, 60)


def test_multiplicative_identity_component():
    # (16, -61) = 2 * (5, 5) on 11a1: reduces to (5, -6) mod 11, nonsingular
    Q = E11.double(CurvePoint.affine(5, 5))
    report = local_height_multiplicative(E11, 11, Q)
    assert report.component in (0, 2)
    if report.component == 0:
        assert report.lambda_v == F(5, 12)


def test_non_minimal_models_rejected():
    # integral but not minimal at 11 (a_i scaled by 11^i), and not integral
    point = CurvePoint.affine(5, 5)
    for u in (F(1, 11), 11):
        curve = E11.transform(u, 0, 0, 0)
        moved = WeierstrassCurve.transform_point(point, u, 0, 0, 0)
        assert curve.contains(moved)
        with pytest.raises(PreconditionError):
            reduction_type(curve, 11)
        with pytest.raises(PreconditionError):
            local_height_multiplicative(curve, 11, moved)
        # the minimalizing entry point still gives the height of 11a1
        assert local_height_report(curve, 11, moved).lambda_v == F(1, 60)


def test_additive_rejected():
    with pytest.raises(AdditiveReductionError):
        local_height_report(E_ADD, 2, CurvePoint.affine(0, 1))


def test_local_height_at_origin_rejected():
    with pytest.raises(PreconditionError):
        local_height_report(E37, 5, CurvePoint.zero())


@pytest.fixture
def prime_checks(monkeypatch):
    """The arguments of every Miller-Rabin test the library runs."""
    calls, inner = [], exact.is_prime
    for name, module in list(sys.modules.items()):
        if name.startswith("tropical_heights") and getattr(module, "is_prime", None) is inner:
            monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n) or inner(n))
    return calls


def test_one_prime_check_per_local_height_report(prime_checks):
    """The prime is checked where it enters, by minimal_model_at; every
    valuation after it trusts the checked prime."""
    p = 1009
    q = PadicElement.from_rational(p, 2 * p**3, 40)
    z = PadicElement.from_rational(p, 3 * p, 40)
    curve, point = tate_curve(q), tate_curve_point(q, z)
    prime_checks.clear()
    report = local_height_report(curve, p, point)
    assert report.component == 1 and prime_checks == [p]


def test_one_prime_check_per_tate_parameter(prime_checks):
    """tate_parameter checks p on entry and builds q on the checked prime;
    normalizing z by q builds its result on q's prime unchecked."""
    q = tate_parameter(E11, 11)
    assert q.val() == 5 and prime_checks == [11]
    z = PadicElement.from_rational(11, 7 * 11**12, 20)
    prime_checks.clear()
    assert normalize_parameter(q, z).val() == 2 and prime_checks == []


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: tate_parameter(E37, 1),
    lambda: tate_parameter(E37, 4),
    lambda: intersection_multiplicity(CurvePoint.affine(2, 2), 1),
    lambda: intersection_multiplicity(CurvePoint.affine(F(1, 4), 2), 4),
])
def test_entry_points_refuse_a_non_prime(call):
    """A public entry point that takes p from its caller checks it once; an
    unchecked valuation at p = 1 would never return."""
    with _deadline(5), pytest.raises(InputError, match="is not prime"):
        call()


# -- Tate parameters ------------------------------------------------------------------


def test_j_expansion_classical_coefficients():
    coeffs = j_times_q_coefficients(4)
    assert coeffs == [1, 744, 196884, 21493760]
    # Ramanujan tau(1..5)
    assert _e4_cubed_and_discriminant(6)[1] == [0, 1, -24, 252, -1472, 4830]


def test_inverse_j_series_leading_terms():
    coeffs = inverse_j_coefficients(4)
    # q = w + 744 w^2 + 750420 w^3 + ... (reversion of the j-expansion)
    assert coeffs[:3] == [0, 1, 744]
    assert coeffs[3] == 750420


def test_tate_parameter_valuation_and_roundtrip():
    for curve, p in [(E37, 37), (E11, 11)]:
        ell = -val_p(curve.j_invariant, p)
        q = tate_parameter(curve, p, precision=20)
        assert q.val() == ell
        minimal, _ = minimal_model_at(curve, p)
        assert q.val() == val_p(minimal.discriminant, p)
        j_rep, prec = j_from_parameter(q)
        assert prec >= 20
        diff = j_rep - curve.j_invariant
        assert diff == 0 or val_p(diff, p) >= 20
        # leading term q ~ 1/j
        lead = q.rational - 1 / curve.j_invariant
        assert lead == 0 or val_p(lead, p) >= 2 * ell


def test_tate_parameter_matches_reversion_oracle():
    # the fixed point of q -> w J(q) against the reversion of the
    # j-expansion, on seeded curves (p = 2 and 3 among their multiplicative
    # places) and on one multiplicative at p = 1009, node at x = p - 2
    rng = random.Random(31)
    pairs = []
    while len(pairs) < 40:
        try:
            curve = WeierstrassCurve.from_coeffs(*(rng.randint(-9, 9) for _ in range(5)))
        except InputError:
            continue
        pairs += [(curve, p) for p in factorize(curve.j_invariant.denominator)]
    p, a = 1009, 1007
    pairs.append((WeierstrassCurve.from_coeffs(0, 0, 0, -3 * a * a, 2 * a**3 + p), p))
    assert {2, 3, 1009} <= {p for _, p in pairs}
    for precision in (8, 20):
        for curve, p in pairs:
            q = tate_parameter(curve, p, precision)
            reference = reversion_tate_parameter(curve, p, precision)
            assert q.known_mod == reference.known_mod
            diff = q.rational - reference.rational
            assert diff == 0 or val_p(diff, p) >= q.known_mod, (curve, p, precision)


def test_tate_parameter_needs_negative_j_valuation():
    with pytest.raises(PreconditionError):
        tate_parameter(E37, 5, precision=8)


@pytest.mark.parametrize("precision", [0, -1])
def test_tate_parameter_refuses_a_precision_below_one(precision):
    """Below one certified digit q would carry nothing: the bound is checked
    where it enters."""
    with pytest.raises(InputError, match=f"precision = {precision} must be at least 1"):
        tate_parameter(E11, 11, precision)


@pytest.mark.parametrize("q", [
    PadicElement.from_rational(5, 3, 20),
    PadicElement.from_rational(5, F(3, 25), 20),
    PadicElement.exact_zero(5),
], ids=["v(q)=0", "v(q)=-2", "q=0"])
@pytest.mark.parametrize("call", [
    lambda q, z: tate_curve(q), tate_curve_point, theta_valuation, local_height_from_parameter,
], ids=["tate_curve", "tate_curve_point", "theta_valuation", "local_height_from_parameter"])
def test_a_parameter_without_positive_valuation_is_an_input_error(q, call):
    """Every entry that takes a Tate parameter, tate_curve included, refuses
    v(q) <= 0 and the exact zero before its series divide by v(q)."""
    with pytest.raises(InputError, match="parameter must have positive valuation"):
        call(q, PadicElement.from_rational(5, 2, 20))


@pytest.mark.parametrize("call", [
    normalize_parameter, tate_curve_point, theta_valuation, local_height_from_parameter,
], ids=["normalize_parameter", "tate_curve_point", "theta_valuation",
        "local_height_from_parameter"])
def test_q_and_z_of_different_primes_are_an_input_error(call):
    """A parameter z is read at q's prime: a 5-adic z beside a 3-adic q is
    refused with both primes named, not summed as if it were 3-adic."""
    q, z = PadicElement.from_rational(3, 9, 20), PadicElement.from_rational(5, 2, 20)
    with pytest.raises(InputError, match="q is 3-adic but z is 5-adic"):
        call(q, z)


def test_tate_curve_reduction_is_split():
    q = PadicElement.from_rational(3, 3**2, 40)
    curve = tate_curve(q)
    assert val_p(curve.discriminant, 3) == 2
    assert reduction_type(curve, 3).kind == "split multiplicative"


def test_normalize_parameter():
    q = PadicElement.from_rational(5, 5**3, 30)
    z = PadicElement.from_rational(5, 5**7 * 2, 30)
    z0 = normalize_parameter(q, z)
    assert 0 <= z0.val() < 3
    z_neg = PadicElement.from_rational(5, F(2, 5**4), 30)
    assert 0 <= normalize_parameter(q, z_neg).val() < 3


@pytest.mark.parametrize("p, q_value, z_value", [
    (5, 5**3 * F(2, 3), 5 * F(4, 7)),
    (2, 2**2 * 3, 1 + 2**2 * 5),
    (3, 3 * F(5, 2), F(7, 4)),
    (7, 7**2 * 3, 7 * 2),
])
def test_normalize_parameter_moves_z_by_powers_of_q(p, q_value, z_value):
    """z q^j for j = +-1, +-2 normalizes to z's unit and valuation, with the
    precision min(z.precision, q.precision), and both routes give z's
    height there."""
    q = PadicElement.from_rational(p, q_value, 40)
    curve = tate_curve(q)
    z0 = PadicElement.from_rational(p, z_value, 40)
    height = local_height_from_parameter(q, z0)
    for j in (-2, -1, 1, 2):
        for precision in (30, 50):
            z = PadicElement.from_rational(p, z_value * F(q_value) ** j, precision)
            moved = normalize_parameter(q, z)
            assert moved == PadicElement(p, z0.unit, z0.valuation, min(precision, 40)), j
            assert local_height_from_parameter(q, z) == height
            report = local_height_multiplicative(curve, p, tate_curve_point(q, z))
            assert report.lambda_v == height, (j, precision)


def test_tate_point_on_curve():
    rng = random.Random(17)
    for p, ell in [(2, 3), (3, 2), (5, 1), (7, 2)]:
        unit = rng.choice([u for u in (1, 2, 3) if u % p])
        q = PadicElement.from_rational(p, unit * p**ell, 50)
        curve = tate_curve(q)
        for vz in range(ell):
            unit_z = rng.choice([u for u in (2, 3, 7) if u % p])
            z = PadicElement.from_rational(p, unit_z * p**vz, 50)
            point = tate_curve_point(q, z)
            res = (
                point.y**2 + curve.a1 * point.x * point.y + curve.a3 * point.y
                - (point.x**3 + curve.a2 * point.x**2
                   + curve.a4 * point.x + curve.a6)
            )
            assert res == 0 or val_p(res, p) >= 40


def test_tate_point_inversion_symmetry():
    p, ell = 5, 2
    q = PadicElement.from_rational(p, p**ell * 3, 50)
    z = PadicElement.from_rational(p, 7 * p, 50)
    point = tate_curve_point(q, z)
    z_inv = normalize_parameter(q, PadicElement.from_rational(p, F(1, 35), 50))
    mirrored = tate_curve_point(q, z_inv)
    diff = point.x - mirrored.x  # x(z) = x(q/z): inverse parameter class
    assert diff == 0 or val_p(diff, p) >= 40


def test_eval_int_series_matches_fraction_sum():
    # a fractional unit part puts powers of 3 in every denominator
    q = PadicElement.from_rational(5, 25 * F(2, 3), 30)
    n_max = -(-q.known_mod // q.val())  # the terms kept: n <= ceil(known_mod / ell)
    for order in (5, 40):
        coeffs = tate_coefficients(order)[1]
        direct = sum(F(c) * q.rational**n for n, c in enumerate(coeffs[: n_max + 1]))
        assert _eval_int_series(coeffs, q) == direct


def test_tate_curve_point_matches_exact_sum_oracle():
    """The sums on integers mod p^K agree with the exact rational sums to
    p^known, the digits the oracle certifies, and both points give the
    parameter route's height and the same component; inputs too close to 1
    for q's certified digits, or for z's to certify v(1 - z), are refused."""
    rng = random.Random(37)
    units = (1, 2, 3, 5, F(2, 3), F(5, 7), F(4, 3))
    primes = (2, 3, 5, 7, 11, 1009)
    refused = 0
    for trial in range(48):
        p = primes[trial % 6]
        ell = rng.randint(1, 6)
        precision = rng.randint(20, 80)
        p_units = [u for u in units if val_p(u, p) == 0]
        q = PadicElement.from_rational(p, rng.choice(p_units) * p**ell, precision)
        depth = trial // 6 % 4
        if depth:
            z_value = 1 + rng.choice(p_units) * p**depth  # z = 1 mod p^depth
        else:
            z_value = rng.choice(p_units[1:]) * p ** rng.randint(0, ell - 1)
        z = PadicElement.from_rational(p, z_value, precision)
        known = min(q.known_mod, z.known_mod)
        z0 = normalize_parameter(q, z)
        e = val_p(1 - z0.rational, p)
        case = (p, ell, precision, z_value)
        if e >= z0.known_mod or q.known_mod - 2 * e < 3 * ell + 6:
            with pytest.raises(PrecisionError):
                tate_curve_point(q, z)
            refused += 1
            continue
        point, oracle = tate_curve_point(q, z), exact_tate_curve_point(q, z)
        for new, old in ((point.x, oracle.x), (point.y, oracle.y)):
            assert new == old or val_p(new - old, p) >= known, case
        curve = tate_curve(q)
        report = local_height_multiplicative(curve, p, point)
        reference = local_height_multiplicative(curve, p, oracle)
        assert report.lambda_v == reference.lambda_v == local_height_from_parameter(q, z), case
        assert report.component == reference.component, case
    assert 0 < refused < 8


def test_tate_curve_point_guard_reads_q_digits():
    """q and z drawn with independent precisions, z also moved by q^j: the
    curve is certified by q's digits alone, and z's need only certify
    e = v(1 - z).  Every input that a guard on min(q.known_mod, z.known_mod)
    answers is answered, more are, and both routes agree on every answer."""
    rng = random.Random(5)
    units = (1, 2, 3, 5, F(2, 3), F(5, 7), F(4, 3))
    primes = (2, 3, 5, 7, 11, 1009)
    answered = answered_by_min = 0
    for trial in range(400):
        p = primes[trial % 6]
        ell = rng.randint(1, 6)
        p_units = [u for u in units if val_p(u, p) == 0]
        q_value = rng.choice(p_units) * p**ell
        q = PadicElement.from_rational(p, q_value, rng.randint(20, 80))
        depth = rng.randint(0, 4)
        if depth:
            z_value = 1 + rng.choice(p_units) * p**depth  # z = 1 mod p^depth
        else:
            z_value = rng.choice(p_units[1:]) * p ** rng.randint(0, ell - 1)
        z_value *= F(q_value) ** rng.choice((-1, 0, 0, 1))
        z = PadicElement.from_rational(p, z_value, rng.randint(20, 80))
        z0 = normalize_parameter(q, z)
        e = val_p(1 - z0.rational, p)
        needed = 3 * ell + 6
        by_min = min(q.known_mod, z0.known_mod) - 2 * e >= needed
        case = (p, ell, q.precision, z.precision, z_value)
        try:
            point = tate_curve_point(q, z)
        except PrecisionError:
            assert not by_min, case
            assert e >= z0.known_mod or q.known_mod - 2 * e < needed, case
            continue
        answered += 1
        answered_by_min += by_min
        report = local_height_multiplicative(tate_curve(q), p, point)
        assert report.lambda_v == local_height_from_parameter(q, z), case
    assert answered > answered_by_min


def test_tate_curve_point_stays_small():
    """Numerators below p^(K + 3e), for the modulus K = q.known_mod + 4e,
    over the powers of p that 1 - z = p^e u puts in the denominators."""
    p, e = 2, 3
    q = PadicElement.from_rational(p, p * F(5, 3), 60)
    z = PadicElement.from_rational(p, 1 + p**e * F(5, 7), 60)
    point = tate_curve_point(q, z)
    bound = p ** (q.known_mod + 4 * e + 3 * e)
    assert 0 <= point.x.numerator < bound and point.x.denominator == p ** (2 * e)
    assert 0 <= point.y.numerator < bound and point.y.denominator == p ** (3 * e)


@pytest.mark.parametrize("p, q_value, precision, answered_before", [
    (3, 2 * 3**2, 30, 7), (2, 2, 20, 4), (5, 5**4, 40, 11),
])
def test_component_route_near_the_origin(p, q_value, precision, answered_before):
    """z = 1 + p^k tends to the origin as k grows, and the point's valuation
    -2k eats into the digits of the curve that are certified.  Every k gets
    the same height by both routes, or a PrecisionError from the point, never
    the InputError of a membership check that cannot be certified."""
    q = PadicElement.from_rational(p, q_value, precision)
    curve = tate_curve(q)
    answered, refused = [], []
    for k in range(1, precision + 4):
        z = PadicElement.from_rational(p, 1 + p**k, precision)
        try:
            point = tate_curve_point(q, z)
        except PrecisionError:
            refused.append(k)
            continue
        report = local_height_multiplicative(curve, p, point)
        assert report.lambda_v == local_height_from_parameter(q, z), k
        answered.append(k)
    assert answered == list(range(1, len(answered) + 1))
    assert len(answered) >= answered_before
    assert refused == list(range(len(answered) + 1, precision + 4))


def test_tate_curve_point_matches_three_inverse_reference():
    """One modular inverse per point gives exactly the points of three
    inverses per term, not only mod p^known, on every v(z) below v(q) and
    on z near 1; both refuse the same inputs."""
    units = (1, 3, F(2, 3), F(5, 7))
    checked = refused = 0
    for p in (2, 3, 5, 7, 1009):
        p_units = [u for u in units if val_p(u, p) == 0]
        for ell in range(1, 7):
            for unit_q in p_units:
                q = PadicElement.from_rational(p, unit_q * p**ell, 40)
                z_values = [u * p**vz for vz in range(ell) for u in p_units[1:]]
                z_values += [1 + u * p**depth for depth in (1, 2, 5, 20) for u in p_units]
                for z_value in z_values:
                    z = PadicElement.from_rational(p, z_value, 40)
                    try:
                        reference = three_inverse_tate_curve_point(q, z)
                    except PrecisionError:
                        with pytest.raises(PrecisionError):
                            tate_curve_point(q, z)
                        refused += 1
                        continue
                    assert tate_curve_point(q, z) == reference, (p, ell, unit_q, z_value)
                    checked += 1
    assert checked > 500 and refused > 0


def test_lambert_sums_match_three_inverse_reference_on_the_band_valuations():
    """The Lambert sums give exactly the per-term loop's points up to the
    band curves' v(q) = 11, at primes up to 2971: every v(z) below v(q),
    the last one included, and z = 1 + u p^d as deep as d = 20, at 20 and
    100 digits of q and z; both refuse the same inputs."""
    units = (1, 3, F(2, 3), F(5, 7))
    checked = refused = 0
    for p in (2, 3, 7, 1009, 2971):
        p_units = [u for u in units if val_p(u, p) == 0]
        for ell in range(1, 12):
            for precision in (20, 100):
                q = PadicElement.from_rational(p, p_units[ell % len(p_units)] * p**ell, precision)
                z_values = [p_units[1 + vz % (len(p_units) - 1)] * p**vz for vz in range(ell)]
                z_values += [1 + p_units[d % len(p_units)] * p**d for d in (1, 2, 3, 5, 8, 13, 20)]
                for z_value in z_values:
                    z = PadicElement.from_rational(p, z_value, precision)
                    case = (p, ell, precision, z_value)
                    try:
                        reference = three_inverse_tate_curve_point(q, z)
                    except PrecisionError:
                        with pytest.raises(PrecisionError):
                            tate_curve_point(q, z)
                        refused += 1
                        continue
                    assert tate_curve_point(q, z) == reference, case
                    checked += 1
    assert checked > 900 and refused > 400


def test_tate_curve_point_inverts_one_batch_of_q_units(monkeypatch):
    """One ``unit_inverses`` call per point, of 1 - q/z and 1 - q^m for
    m <= (K - 1) // v(q), K = q.known_mod + 4 v(1 - z): at most
    (K - 1) // v(q) + 1 units, where three per term took 3 (K // v(q) + 1)."""
    calls = []

    def recording(units, modulus):
        calls.append(len(units))
        return exact.unit_inverses(units, modulus)

    monkeypatch.setattr(tate, "unit_inverses", recording)
    for p, ell, z_value in ((2, 1, 3), (3, 4, 2 * 3**3), (5, 2, 1 + 5**2), (1009, 3, 1 + 1009)):
        q = PadicElement.from_rational(p, 2 * p**ell, 40)
        z = PadicElement.from_rational(p, z_value, 40)
        calls.clear()
        tate_curve_point(q, z)
        target = q.known_mod + 4 * val_p(1 - z_value, p)
        assert len(calls) == 1 and calls[0] <= (target - 1) // ell + 1, (p, ell, z_value, calls)


def test_tate_point_rejects_divisor():
    q = PadicElement.from_rational(5, 25, 30)
    with pytest.raises(InputError):
        tate_curve_point(q, PadicElement.from_rational(5, 1, 30))


# -- theta valuations -------------------------------------------------------------------


def test_theta_valuation_unit_cases():
    q = PadicElement.from_rational(5, 5**5, 40)
    z = PadicElement.from_rational(5, 2 * 25, 40)  # v(z) = 2 < 5
    assert theta_valuation(q, z) == 0


def test_theta_valuation_near_one():
    q = PadicElement.from_rational(5, 5, 30)
    z = PadicElement.from_rational(5, 6, 30)
    assert theta_valuation(q, z) == 1


def test_theta_valuation_on_divisor():
    q = PadicElement.from_rational(5, 25, 30)
    with pytest.raises(OnDivisorError):
        theta_valuation(q, PadicElement.from_rational(5, 1, 30))


def test_theta_valuation_reads_z_digits():
    # q known mod 5^7 does not cap v(1 - z): z's 20 digits certify 8
    q = PadicElement.from_rational(5, 25, 5)
    assert q.known_mod == 7
    assert theta_valuation(q, PadicElement.from_rational(5, 1 + 5**8, 20)) == 8
    # shifted by q, z keeps only q's relative precision: 8 is not certified
    with pytest.raises(OnDivisorError):
        theta_valuation(q, PadicElement.from_rational(5, 25 * (1 + 5**8), 20))


def test_theta_fourier_vs_product():
    # min-plus value of the Fourier data equals the product valuation plus
    # the parameter's quadratic normalization on the skeleton
    from conftest import rank1_tate_data
    from tropical_heights.tropical import TropicalTheta

    p, ell = 3, 4
    q = PadicElement.from_rational(p, p**ell, 60)
    data = rank1_tate_data(ell)
    terms = {(u,): F(ell * (u * u - u), 2) for u in range(-5, 6)}
    theta = TropicalTheta(data, terms, margin=2)
    for vz in range(ell):
        z = PadicElement.from_rational(p, 2 * p**vz, 60)
        assert theta.value([F(vz)]) == theta_valuation(q, z)


# -- the local height dual route -----------------------------------------------------


def test_local_height_from_parameter_examples():
    q1 = PadicElement.from_rational(2, 2, 30)
    z1 = PadicElement.from_rational(2, 3, 30)  # v(z)=0, v(theta)=v(1-3)=1
    assert local_height_from_parameter(q1, z1) == F(1, 12) + 1
    q5 = PadicElement.from_rational(5, 5**5, 40)
    z5 = PadicElement.from_rational(5, 2 * 25, 40)
    assert local_height_from_parameter(q5, z5) == F(5, 2) * bernoulli2(F(2, 5))
    assert F(5, 2) * bernoulli2(F(2, 5)) == F(-11, 60)


def test_component_index_matches_parameter_valuation():
    """The capped formula min(v(2y + a1 x + a3), ell/2) must reproduce
    min(v(z), ell - v(z)) on parameter-built points (ground truth)."""
    rng = random.Random(23)
    for trial in range(40):
        p = rng.choice([2, 3, 5, 7])
        ell = rng.randint(2, 6)
        unit_q = rng.choice([u for u in (1, 2, 3, 5) if u % p])
        q = PadicElement.from_rational(p, unit_q * p**ell, 60)
        curve = tate_curve(q)
        vz = rng.randint(1, ell - 1)
        unit_z = rng.choice([u for u in (1, 2, 3, 4, 7) if u % p])
        z = PadicElement.from_rational(p, unit_z * p**vz, 60)
        point = tate_curve_point(q, z)
        m = local_height_multiplicative(curve, p, point).component
        assert m == min(vz, ell - vz), (p, ell, vz, m)


def test_component_index_rejects_points_off_the_curve():
    # (3, 5) is not on 11a1, yet both partials vanish there mod 11
    assert not E11.contains(CurvePoint.affine(3, 5))
    with pytest.raises(InputError):
        local_height_multiplicative(E11, 11, CurvePoint.affine(3, 5)).component


def test_membership_is_certified_to_three_ell_plus_six_digits():
    """At a multiplicative place a point is accepted when its residue on the
    curve vanishes or has valuation >= 3 ell + 6: a parameter-built Tate
    point (residue nonzero, deep), and the same point with y moved until
    the valuation is exactly 3 ell + 6.  One digit less, and an integral
    point off the curve, are refused."""
    p, ell = 5, 2
    q = PadicElement.from_rational(p, 2 * p**ell, 20)
    z = PadicElement.from_rational(p, p, 20)
    curve, point = tate_curve(q), tate_curve_point(q, z)
    assert curve.residue(point) != 0 and val_p(curve.residue(point), p) >= 3 * ell + 6
    w = val_p(2 * point.y + curve.a1 * point.x + curve.a3, p)
    deep = CurvePoint.affine(point.x, point.y + p ** (3 * ell + 6 - w))
    shallow = CurvePoint.affine(point.x, point.y + p ** (3 * ell + 5 - w))
    assert val_p(curve.residue(deep), p) == 3 * ell + 6
    assert val_p(curve.residue(shallow), p) == 3 * ell + 5
    expected = local_height_from_parameter(q, z)
    for accepted in (point, deep):
        assert local_height_multiplicative(curve, p, accepted).lambda_v == expected
    off_curve = CurvePoint.affine(0, 0)  # residue -a6, of valuation ell
    assert val_p(curve.residue(off_curve), p) == ell
    for refused in (shallow, off_curve):
        with pytest.raises(InputError, match="even p-adically"):
            local_height_multiplicative(curve, p, refused)


def test_component_index_cancellation_case():
    """Middle component with engineered cancellation in 2y + x: the naive
    min(w, ell - w) would fail here; the cap keeps it right."""
    p, ell = 5, 2
    q = PadicElement.from_rational(p, p**2, 60)
    curve = tate_curve(q)
    # z = p u with u^2 = q/p^2 would give exact 2-torsion; u = 1 + p gives
    # v(z - q/z) > 1 while min(v(z), ell - v(z)) = 1
    z = PadicElement.from_rational(p, p * (1 + p), 60)
    point = tate_curve_point(q, z)
    w = val_p(2 * point.y + point.x, p)
    assert w is INFINITY or w > 1  # the cancellation actually happens
    assert local_height_multiplicative(curve, p, point).component == 1


def test_dual_route_exact_equality():
    rng = random.Random(29)
    for trial in range(20):
        p = [2, 3, 5, 7][trial % 4]
        ell = rng.randint(1, 6)
        unit_q = rng.choice([u for u in (1, 3, 5) if u % p])
        q = PadicElement.from_rational(p, unit_q * p**ell, 60)
        curve = tate_curve(q)
        vz = rng.randint(0, ell - 1)
        unit_z = rng.choice([u for u in (2, 3, 7, 9) if u % p])
        z = PadicElement.from_rational(p, unit_z * p**vz, 60)
        if normalize_parameter(q, z).rational == 1:
            continue
        lam_param = local_height_from_parameter(q, z)
        report = local_height_multiplicative(curve, p, point := tate_curve_point(q, z))
        assert lam_param == report.lambda_v
        # evenness through the inverse parameter
        neg = curve.negate(point)
        neg_report = local_height_multiplicative(curve, p, neg)
        assert neg_report.lambda_v == report.lambda_v


def test_dual_route_at_a_large_prime():
    # at p = 100003 no step may scan the residues mod p
    p = 100003
    for ell in (2, 3):
        q = PadicElement.from_rational(p, 2 * p**ell, 30)
        curve = tate_curve(q)
        for vz in range(ell):
            z = PadicElement.from_rational(p, 3 * p**vz, 30)
            report = local_height_multiplicative(curve, p, tate_curve_point(q, z))
            assert local_height_from_parameter(q, z) == report.lambda_v
            assert report.component == min(vz, ell - vz)


def test_tate_normalization_limit_nonarchimedean():
    """lambda'(P_n) - v(x/y) converges to v(disc)/12 (exactly, for the
    constructed sequence z_n -> 1)."""
    p, ell = 3, 4
    q = PadicElement.from_rational(p, 2 * p**ell, 80)
    curve = tate_curve(q)
    for n in range(1, 6):
        z = PadicElement.from_rational(p, 1 + p**n, 80)
        point = tate_curve_point(q, z)
        report = local_height_multiplicative(curve, p, point)
        v_z_coord = val_p(point.x / point.y, p)
        assert report.lambda_v - v_z_coord == F(ell, 12)


def test_nonsplit_flagged():
    report = local_height_report(E37, 37, CurvePoint.affine(2, 2))
    assert report.reduction.kind == "nonsplit multiplicative"
    assert "quadratic extension" in report.note
