import math
import random
from fractions import Fraction as F

import pytest

from conftest import rank1_tate_data
from oracles import fincke_pohst_closest, fraction_theta_terms, quadratic_value
from tropical_heights import cvp, degeneration, linalg, serialize, tropical
from tropical_heights.cvp import closest_lattice_point, lattice_form
from tropical_heights.degeneration import DegenerationData, component_group
from tropical_heights.errors import (
    InputError,
    InsufficientTermsError,
    NotPrincipallyPolarizedData,
)
from tropical_heights.tropical import (
    TropicalTheta,
    evaluation_grid,
    generate_theta_terms,
    normalized_tropical_riemann_theta,
    quantization_check,
    tensor_normalized,
    theta_characteristic,
    tropical_riemann_theta,
)
from tropical_heights.verify import (
    brute_force_closest,
    random_positive_definite,
    random_principally_polarized,
    random_unimodular,
)


def fourier_terms_rank1(ell, radius=4):
    """Raw multiplicative-reduction Fourier data a_u = ell (u^2 - u)/2."""
    return {
        (u,): F(ell * (u * u - u), 2) for u in range(-radius, radius + 1)
    }


def test_value_vanishes_on_period_interval():
    theta = TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=2)
    for nu in [0, 1, F(5, 2), F(19, 4), 5]:
        assert theta.value([F(nu)]) == 0


def test_value_outside_interval():
    theta = TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=2)
    assert theta.value([F(-1)]) == -1


def test_value_cocycle_transformation():
    theta = TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=2)
    d = theta.data
    rng = random.Random(1)
    from tropical_heights.degeneration import automorphy_factor

    for _ in range(100):
        nu = [F(rng.randint(-200, 200), 13)]
        w = [rng.randint(-3, 3)]
        shifted = [nu[0] + 5 * w[0]]
        assert theta.value(nu) == theta.value(shifted) + automorphy_factor(d, w, nu)


def test_normalized_examples_ell5():
    theta = TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=2)
    expected = {0: F(0), 1: F(-2, 5), 2: F(-3, 5), 3: F(-3, 5), 4: F(-2, 5)}
    for nu, val in expected.items():
        assert theta.normalized_value([F(nu)]) == val


def test_normalized_is_lattice_invariant():
    theta = generate_theta_terms(rank1_tate_data(7))
    rng = random.Random(2)
    for _ in range(100):
        nu = [F(rng.randint(-500, 500), 17)]
        w = rng.randint(-3, 3)
        assert theta.normalized_value(nu) == theta.normalized_value([nu[0] + 7 * w])


def test_concavity_on_segments():
    theta = generate_theta_terms(rank1_tate_data(6))
    rng = random.Random(4)
    for _ in range(100):
        a = [F(rng.randint(-300, 300), 11)]
        b = [F(rng.randint(-300, 300), 11)]
        mid = [(a[0] + b[0]) / 2]
        assert theta.value(mid) >= (theta.value(a) + theta.value(b)) / 2


def test_insufficient_terms_is_detected():
    # only u in {0, 1}: the winner at 2 is u = 0, which lacks a full shell
    theta = TropicalTheta(
        rank1_tate_data(5), {(0,): F(0), (1,): F(0)}, margin=1
    )
    with pytest.raises(InsufficientTermsError) as excinfo:
        theta.value([F(2)])
    assert excinfo.value.point == [F(2)]


def _brute_force_min(theta, nu):
    """Fraction scan of the whole term list at the reduced point: (reduced
    point, lattice shift, minimum, argmins in term-dict order)."""
    nu0, w = theta.data.reduce_mod_lattice(nu)
    values = {u: a + sum(ui * x for ui, x in zip(u, nu0)) for u, a in theta.terms.items()}
    low = min(values.values())
    return nu0, w, low, [u for u, val in values.items() if val == low]


def _assert_matches_brute_force(theta, points):
    data = theta.data
    for nu in points:
        nu0, w, low, argmins = _brute_force_min(theta, nu)
        assert theta._min_term(nu0) == (low, argmins)
        expected = (
            low
            - degeneration.automorphy_factor(data, w, nu0)
            + degeneration.trivialization_valuation_real(data, nu)
        )
        assert theta.normalized_value(nu) == expected


def test_exact_scan_with_huge_coefficients():
    # every coefficient shifted far beyond float range
    shift = 10**400
    plain = fourier_terms_rank1(5, radius=40)
    assert len(plain) > 64
    terms = {u: a + shift for u, a in plain.items()}
    theta = TropicalTheta(rank1_tate_data(5), terms, margin=2)
    points = [[F(k, 7)] for k in range(-10, 45)] + [[F(-3)], [F(0)], [F(5)]]
    _assert_matches_brute_force(theta, points)
    reference = TropicalTheta(rank1_tate_data(5), plain, margin=2)
    for nu in points:
        assert theta.normalized_value(nu) == reference.normalized_value(nu) + shift


def test_exact_scan_separates_near_ties():
    data = rank1_tate_data(5)
    tied = fourier_terms_rank1(5, radius=40)
    assert len(tied) > 64
    # u = 0 and u = 1 tie exactly at 0 and 5
    theta = TropicalTheta(data, tied, margin=2)
    _assert_matches_brute_force(theta, [[F(0)], [F(5)]])
    assert theta._min_term([F(0)]) == (0, [(0,), (1,)])
    eps = F(1, 10**30)
    for delta in (eps, -eps):
        # at the grid point 1/7, u = 1 is off the minimum 0 of u = 0 by delta
        terms = dict(tied)
        terms[(1,)] = F(-1, 7) + delta
        theta = TropicalTheta(data, terms, margin=2)
        points = [[F(1, 7)], [F(0)]] + evaluation_grid(data)
        _assert_matches_brute_force(theta, points)
        expected = [(1,)] if delta < 0 else [(0,)]
        assert theta._min_term([F(1, 7)]) == (min(delta, 0), expected)


def test_margin_validation():
    with pytest.raises(InputError):
        TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=0)
    with pytest.raises(InputError):
        TropicalTheta(rank1_tate_data(5), {}, margin=1)


@pytest.mark.parametrize("index", [F(3, 2), 1.5, True])
def test_non_integral_fourier_index_is_refused(index):
    terms = {(index,): F(0), (0,): F(1)}
    with pytest.raises(InputError, match="Fourier index must be an integer"):
        TropicalTheta(rank1_tate_data(5), terms, margin=1)


def test_duplicate_fourier_index_in_a_pair_list_is_refused():
    """A pair list is checked before dict() could merge a repeated index
    and keep its last coefficient."""
    data = rank1_tate_data(5)
    for pairs in ([((1,), 0), ((0,), 0), ((1,), 5)], [((2,), 0), ((F(4, 2),), 1)]):
        with pytest.raises(InputError, match=r"duplicate Fourier index \(\d,\)"):
            TropicalTheta(data, pairs, margin=1)
    theta = TropicalTheta(data, [((1,), F(5)), ((0,), F(0))], margin=1)
    assert theta.terms == {(1,): 5, (0,): 0}


def test_exactly_integral_fourier_index_is_accepted():
    theta = TropicalTheta(rank1_tate_data(5), {(2,): 0, (F(4, 2),): 1, (0,): F(1, 3)}, margin=1)
    assert theta.terms == {(2,): F(1), (0,): F(1, 3)}
    assert all(type(x) is int for u in theta.terms for x in u)
    assert all(type(a) is F for a in theta.terms.values())


# -- tropical Riemann theta ----------------------------------------------------


def test_riemann_theta_rank1_examples():
    d = rank1_tate_data(1)
    assert tropical_riemann_theta(d, [0]) == 0
    assert tropical_riemann_theta(d, [F(3, 4)]) == F(-1, 4)
    assert normalized_tropical_riemann_theta(d, [F(3, 4)]) == F(1, 32)


def test_riemann_theta_vanishes_on_lattice():
    d = DegenerationData(
        rank=2, embedding=[[2, 1], [1, 2]], gram=[[2, 1], [1, 2]],
        linear_part=[0, 0],
    )
    for w in [[0, 0], [1, 0], [-2, 3]]:
        nu = d.from_lattice_coords(w)
        assert normalized_tropical_riemann_theta(d, nu) == 0
        assert tropical_riemann_theta(d, nu) <= 0


def test_riemann_theta_deep_hole():
    d = DegenerationData(
        rank=2, embedding=[[1, 0], [0, 1]], gram=[[1, 0], [0, 1]],
        linear_part=[-1, -1],
    )
    assert normalized_tropical_riemann_theta(d, [F(1, 2), F(1, 2)]) == F(1, 4)


def test_riemann_theta_is_even():
    rng = random.Random(7)
    d = random_principally_polarized(rng, 2)
    for _ in range(100):
        nu = [F(rng.randint(-40, 40), 9) for _ in range(2)]
        neg = [-x for x in nu]
        assert tropical_riemann_theta(d, nu) == tropical_riemann_theta(d, neg)


def test_cvp_against_box_oracle():
    rng = random.Random(13)
    for _ in range(100):
        rank = rng.choice([1, 2, 3, 4])
        gram = random_positive_definite(rng, rank)
        t = [F(rng.randint(-8, 8), rng.randint(2, 9)) for _ in range(rank)]
        t = [x - round(x) for x in t]
        w, val = closest_lattice_point(lattice_form(gram), t)
        assert val == brute_force_closest(gram, t, radius=4)
        assert quadratic_value(gram, [a + b for a, b in zip(w, t)]) == val


# Skewed Gram matrices whose box prod_i (2 sqrt(r / d_i) + 1), r = sum(d) / 4,
# exceeds this are redrawn: the Fraction reference scans that box, and at
# rank 6 an unbounded skew can cost it seconds on one pair.
_REFERENCE_BOX = 3e4


def _skewed(rng, gram):
    """U^T G U for U = random_unimodular, redrawn until its box is at most
    _REFERENCE_BOX."""
    while True:
        u = random_unimodular(rng, len(gram))
        skewed = linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(gram, u))
        _, diag = linalg.ldl_decompose(skewed)
        radius = sum(diag) / 4
        if math.prod(2 * math.sqrt(radius / d) + 1 for d in diag) <= _REFERENCE_BOX:
            return skewed


def test_cvp_matches_fincke_pohst_reference():
    """The integer Schnorr-Euchner search against the Fraction enumeration
    it replaced, at ranks 1-6, every other Gram matrix skewed as U^T G U."""
    rng = random.Random(17)
    for case in range(360):
        rank = 1 + case // 2 % 6
        gram = random_positive_definite(rng, rank)
        if case % 2:
            gram = _skewed(rng, gram)
        t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rank)]
        w, val = closest_lattice_point(lattice_form(gram), t)
        _, expected = fincke_pohst_closest(linalg.ldl_decompose(gram), t)
        assert val == expected, (gram, t)
        assert quadratic_value(gram, [a + b for a, b in zip(w, t)]) == val


@pytest.mark.parametrize(
    "data, nu",
    [
        (DegenerationData(rank=2, embedding=[[1, 0], [0, 1]], gram=[[1, 0], [0, 1]],
                          linear_part=[1, 1]), [F(1, 2), F(1, 2)]),
        (DegenerationData(rank=2, embedding=[[1, 0], [0, 1]], gram=[[2, 1], [1, 2]],
                          linear_part=[0, 0]), [F(1, 3), F(1, 3)]),
        (rank1_tate_data(5), [F(5, 2)]),
        (rank1_tate_data(6), [F(-3)]),
    ],
)
def test_closest_vector_at_a_tie_attains_the_distance(data, nu):
    """Points equidistant from several lattice vectors: whichever one comes
    back attains the half squared distance."""
    closest, half = tropical.closest_lattice_vector(data, nu)
    gap = data.to_lattice_coords([a - b for a, b in zip(nu, closest)])
    assert all(x.denominator == 1 for x in data.to_lattice_coords(closest))
    assert quadratic_value(data.gram, gap) / 2 == half
    assert half == normalized_tropical_riemann_theta(data, nu)


@pytest.mark.parametrize("length", [1, 3])
def test_point_of_the_wrong_length_is_refused(length):
    data = random_principally_polarized(random.Random(3), 2)
    theta = generate_theta_terms(data)
    nu = [F(1, 2)] * length
    calls = [
        theta.value,
        theta.normalized_value,
        lambda x: normalized_tropical_riemann_theta(data, x),
        lambda x: tropical_riemann_theta(data, x),
        lambda x: tropical.closest_lattice_vector(data, x),
        lambda x: degeneration.trivialization_valuation_real(data, x),
        lambda x: closest_lattice_point(data.lattice_form, x),
        lambda x: degeneration.trivialization_valuation(data, [1] * len(x)),
        lambda x: data.inner_product(x, [1, 2]),
        lambda x: data.inner_product([1, 2], x),
        lambda x: degeneration.automorphy_factor(data, [1, 1], x),
        lambda x: degeneration.automorphy_factor(data, [1] * len(x), [F(1, 2)] * 2),
        data.from_lattice_coords,
    ]
    for call in calls:
        with pytest.raises(InputError):
            call(nu)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_generated_theta_is_the_riemann_theta_moved_by_k(rank):
    rng = random.Random(90 + rank)
    data = random_principally_polarized(rng, rank)
    constant = F(rng.randint(-9, 9), 4)
    theta = generate_theta_terms(data, constant=constant)
    k = data.characteristic_shift
    offset = constant - data.inner_product(k, k) / 2
    points = [[F(rng.randint(-60, 60), 7) for _ in range(rank)] for _ in range(8)]
    for nu in points + evaluation_grid(data)[:4]:
        moved = [a + b for a, b in zip(nu, k)]
        assert theta.normalized_value(nu) == (
            normalized_tropical_riemann_theta(data, moved) + offset
        ), nu
    assert theta_characteristic(theta).shift == k


# -- theta characteristic --------------------------------------------------------


def test_theta_characteristic_rank1():
    theta = TropicalTheta(rank1_tate_data(3), fourier_terms_rank1(3), margin=2)
    tc = theta_characteristic(theta)
    assert tc.shift == [F(-3, 2)]
    assert tc.shift_mod_lattice == [F(3, 2)]
    # 2 kappa lies in the lattice
    assert (2 * tc.shift_mod_lattice[0]) % 3 == 0
    assert tc.base_constant == 0


def test_theta_characteristic_r_value():
    theta = TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=2)
    tc = theta_characteristic(theta)
    # r = -[k, k]/2 + r' with r' = 0 and [k, k] = (5/2)^2 / 5
    assert tc.constant == F(-5, 8)


def test_theta_characteristic_decomposition_with_shift():
    d = rank1_tate_data(4)
    theta = generate_theta_terms(d, constant=F(7, 3))
    tc = theta_characteristic(theta)
    assert tc.base_constant == F(7, 3)
    assert tc.constant == F(7, 3) - d.inner_product(tc.shift, tc.shift) / 2


def test_theta_characteristic_synthetic_rank2_roundtrip():
    rng = random.Random(21)
    for _ in range(5):
        d = random_principally_polarized(rng, 2)
        theta = generate_theta_terms(d)
        tc = theta_characteristic(theta)
        # generator construction: k solves F^T (2k) = l
        ft = [list(row) for row in zip(*d.polarization_matrix)]
        lhs = [sum(F(ft[i][j]) * 2 * tc.shift[j] for j in range(2)) for i in range(2)]
        assert lhs == [F(x) for x in d.linear_part]
        assert all((2 * k).denominator == 1 for k in tc.shift)


def test_theta_characteristic_rejects_non_principal():
    # det F = 2: not principally polarized
    d = DegenerationData(rank=1, embedding=[[1]], gram=[[2]], linear_part=[0])
    theta = generate_theta_terms(d)
    with pytest.raises(NotPrincipallyPolarizedData):
        theta_characteristic(theta)


def test_theta_characteristic_rejects_inconsistent_terms():
    d = rank1_tate_data(3)
    terms = fourier_terms_rank1(3)
    terms[(1,)] -= F(1, 9)  # lower one coefficient so it wins near 0
    theta = TropicalTheta(d, terms, margin=2)
    with pytest.raises(NotPrincipallyPolarizedData):
        theta_characteristic(theta)


# -- quantization ----------------------------------------------------------------


def test_quantization_rank1():
    theta = TropicalTheta(rank1_tate_data(5), fourier_terms_rank1(5), margin=2)
    report = quantization_check(theta)
    assert report.passed
    assert report.modulus == 5
    values = sorted(v for _, v in report.values)
    assert values == sorted([F(0), F(-2, 5), F(-3, 5), F(-3, 5), F(-2, 5)])
    for _, v in report.values:
        assert (2 * 5 * v).denominator == 1


def test_quantization_trivial_lattice():
    d = DegenerationData(rank=1, embedding=[[1]], gram=[[1]], linear_part=[-1])
    report = quantization_check(generate_theta_terms(d))
    assert report.modulus == 1
    assert len(report.values) == 1
    assert (2 * report.values[0][1]).denominator == 1


def test_quantization_rank2_diag():
    d = DegenerationData(
        rank=2, embedding=[[2, 0], [0, 3]], gram=[[2, 0], [0, 3]],
        linear_part=[0, 1],
    )
    report = quantization_check(generate_theta_terms(d))
    assert report.passed
    assert report.modulus == 6
    assert len(report.values) == 6
    for _, v in report.values:
        assert (12 * v).denominator == 1


# -- tensor products ---------------------------------------------------------------


def test_tensor_with_trivial_factor():
    d = rank1_tate_data(4)
    theta = generate_theta_terms(d)
    # a zero Gram factor is not valid data (not positive definite), so the
    # neutral element check uses two genuine factors minus a comparison
    with pytest.raises(InputError):
        DegenerationData(rank=1, embedding=[[4]], gram=[[0]], linear_part=[0])


def test_tensor_pointwise_additivity_rank1():
    d2 = rank1_tate_data(2)
    d3 = DegenerationData(rank=1, embedding=[[2]], gram=[[6]], linear_part=[-6])
    t2 = generate_theta_terms(d2)
    t3 = generate_theta_terms(d3)
    prod = tensor_normalized(t2, t3)
    assert prod.data.gram == [[8]]
    for num in range(-14, 15):
        nu = [F(num, 3)]
        assert prod.normalized_value(nu) == t2.normalized_value(nu) + t3.normalized_value(nu)


def test_tensor_rank_mismatch():
    t1 = generate_theta_terms(rank1_tate_data(2))
    d2 = DegenerationData(
        rank=2, embedding=[[1, 0], [0, 1]], gram=[[2, 0], [0, 2]],
        linear_part=[0, 0],
    )
    with pytest.raises(InputError):
        tensor_normalized(t1, generate_theta_terms(d2))


def test_evaluation_grid_is_deterministic_and_reduced():
    d = rank1_tate_data(3)
    grid1 = evaluation_grid(d)
    grid2 = evaluation_grid(d)
    assert grid1 == grid2
    assert len(grid1) >= 50
    for nu in grid1:
        t = d.to_lattice_coords(nu)
        assert all(0 <= x < 1 for x in t)


# -- lattice facts are worked out once -------------------------------------------


def test_linear_algebra_call_counts(monkeypatch):
    counts = dict.fromkeys(
        ("determinant", "mat_mul", "mat_inverse", "ldl_decompose", "mat_vec"), 0
    )

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # linalg's own names catch the calls linalg makes internally
    for module in (linalg, cvp, degeneration, tropical):
        for name in counts:
            if hasattr(module, name):
                count(module, name)

    def run(call):
        d = random_principally_polarized(random.Random(5), 3)
        counts.update(dict.fromkeys(counts, 0))
        call(d)
        return counts

    def construct(d):
        DegenerationData(
            rank=d.rank, embedding=d.embedding, gram=d.gram, linear_part=d.linear_part
        )

    def riemann_theta(d):
        for i in range(10):
            tropical_riemann_theta(d, [F(i, 7), F(2 * i - 3, 5), F(1, 3)])

    assert run(construct)["determinant"] == 1
    assert run(riemann_theta)["mat_mul"] == 1
    # lattice coordinates and [nu, nu] read M^{-1} and H as integer matrices
    # over one denominator, not through a Fraction mat_vec
    assert run(riemann_theta)["mat_vec"] == 0
    assert run(lambda d: theta_characteristic(generate_theta_terms(d)))["mat_inverse"] == 1

    def construct_and_evaluate(d):
        fresh = DegenerationData(
            rank=d.rank, embedding=d.embedding, gram=d.gram, linear_part=d.linear_part
        )
        riemann_theta(fresh)

    assert run(construct_and_evaluate)["ldl_decompose"] == 1


def test_one_lattice_coordinate_conversion_per_normalized_value(monkeypatch):
    # every conversion, Fraction or integer, goes through scaled_lattice_coords
    theta = generate_theta_terms(random_principally_polarized(random.Random(5), 3))
    calls = []
    inner = DegenerationData.scaled_lattice_coords

    def counted(self, nu):
        calls.append(nu)
        return inner(self, nu)

    monkeypatch.setattr(DegenerationData, "scaled_lattice_coords", counted)
    # the reduction, the automorphy factor and the quadratic extension all
    # run at this point, outside the fundamental parallelotope
    nu = [F(37, 3), F(-29, 2), F(41, 4)]
    assert theta.normalized_value(nu) == theta.value(nu) + (
        degeneration.trivialization_valuation_real(theta.data, nu)
    )
    calls.clear()
    theta.normalized_value(nu)
    assert len(calls) == 1


def test_one_lattice_coordinate_conversion_per_scanned_normalized_value(monkeypatch):
    # an explicit term list is scanned: the reduction, the automorphy factor
    # and the quadratic extension share one set of lattice coordinates
    data = random_principally_polarized(random.Random(5), 3)
    theta = TropicalTheta(data, generate_theta_terms(data).terms, margin=2)
    calls = []
    inner = DegenerationData.to_lattice_coords

    def counted(self, nu):
        calls.append(nu)
        return inner(self, nu)

    monkeypatch.setattr(DegenerationData, "to_lattice_coords", counted)
    nu = [F(37, 3), F(-29, 2), F(41, 4)]
    theta.normalized_value(nu)
    assert len(calls) == 1


# -- generated theta: the term list on integers, evaluation by CVP ---------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_generated_terms_match_the_fraction_build(rank):
    data = random_principally_polarized(random.Random(40 + rank), rank)
    for constant in (0, -3, F(7, 3)):
        terms = generate_theta_terms(data, constant=constant).terms
        reference = fraction_theta_terms(data, constant)
        assert terms == reference
        assert list(terms.items()) == list(reference.items())


def _scan_twin(theta):
    """The same Fourier data, built from its term dict: scanned, not searched."""
    return TropicalTheta(theta.data, theta.terms, theta.margin)


def test_generated_theta_searches_and_its_reload_scans(monkeypatch):
    data = random_principally_polarized(random.Random(8), 2)
    theta = generate_theta_terms(data, constant=F(7, 3))
    reloaded = serialize.theta_from_dict(serialize.theta_to_dict(theta))
    assert reloaded == theta == _scan_twin(theta)
    searches, scans = [], []
    search, scan = tropical.closest_lattice_point, TropicalTheta._min_term
    monkeypatch.setattr(tropical, "closest_lattice_point",
                        lambda *args: searches.append(args) or search(*args))
    monkeypatch.setattr(TropicalTheta, "_min_term",
                        lambda self, nu0: scans.append(nu0) or scan(self, nu0))
    nu = [F(19, 3), F(-11, 4)]
    value = theta.normalized_value(nu)
    assert (len(searches), len(scans)) == (1, 0)
    assert reloaded.normalized_value(nu) == value
    assert (len(searches), len(scans)) == (1, 1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_generated_theta_by_cvp_matches_the_term_scan(rank):
    rng = random.Random(70 + rank)
    for constant in (F(7, 3), F(-3)):
        data = random_principally_polarized(rng, rank)
        theta = generate_theta_terms(data, constant=constant)
        twin = _scan_twin(theta)
        inside = [data.from_lattice_coords([F(rng.randrange(60), 60) for _ in range(rank)])
                  for _ in range(10)]
        outside = [[F(rng.randint(-400, 400), rng.randint(1, 9)) for _ in range(rank)]
                   for _ in range(10)]
        reps = [[F(x) for x in rep] for rep in component_group(data).representatives]
        for nu in inside + outside + evaluation_grid(data) + reps:
            assert theta.normalized_value(nu) == twin.normalized_value(nu), nu
            assert theta.value(nu) == twin.value(nu), nu
        assert theta_characteristic(theta) == theta_characteristic(twin)
        assert quantization_check(theta) == quantization_check(twin)


def test_generated_rank4_theta_by_cvp_matches_the_term_scan():
    rng = random.Random(74)
    data = random_principally_polarized(rng, 4)
    theta = generate_theta_terms(data, constant=F(-5, 2))
    twin = _scan_twin(theta)
    points = [[F(rng.randint(-90, 90), 7) for _ in range(4)] for _ in range(6)]
    for nu in points + evaluation_grid(data)[:4]:
        assert theta.normalized_value(nu) == twin.normalized_value(nu), nu
        assert theta.value(nu) == twin.value(nu), nu


def _skewed_product_data(rng, rank):
    """G = U^T D U with D = diag(l_i), l_i in 1..9, and U unimodular, over
    M = G (so F is the identity), with l the parity of G's diagonal:
    (l_i, U, data)."""
    ells = [rng.randint(1, 9) for _ in range(rank)]
    u = random_unimodular(rng, rank)
    gram = [[sum(u[k][i] * ells[k] * u[k][j] for k in range(rank)) for j in range(rank)]
            for i in range(rank)]
    data = DegenerationData(rank=rank, embedding=gram, gram=gram,
                            linear_part=[gram[i][i] % 2 for i in range(rank)])
    return ells, u, data


@pytest.mark.parametrize("rank, cases", [(4, 20), (5, 50), (6, 50)])
def test_skewed_product_theta_is_exact_beyond_its_term_box(rank, cases, monkeypatch):
    """On a product form the normalized theta is the sum of the rank-1
    values l_i ||(U t)_i||^2 / 2, ||x|| the distance to the nearest integer,
    less [k, k]/2, for t the lattice coordinates of nu + k.  The term box
    is refused only when it is read: at ranks 5 and 6 on every draw."""
    rng = random.Random(rank)
    searches = []
    search = tropical.closest_lattice_point
    monkeypatch.setattr(tropical, "closest_lattice_point",
                        lambda *args: searches.append(args) or search(*args))
    for _ in range(cases):
        ells, u, data = _skewed_product_data(rng, rank)
        theta = generate_theta_terms(data)
        k = data.characteristic_shift
        half_kk = data.inner_product(k, k) / 2
        for _ in range(5):
            nu = [F(rng.randint(-40, 40), 7) for _ in range(rank)]
            t = data.to_lattice_coords([a + b for a, b in zip(nu, k)])
            ut = [sum(x * y for x, y in zip(row, t)) for row in u]
            expected = sum(ell * (x - round(x)) ** 2 for ell, x in zip(ells, ut)) / 2
            assert theta.normalized_value(nu) == expected - half_kk, nu
        searches.clear()
        assert theta_characteristic(theta).constant == -half_kk
        assert searches == []
        if rank >= 5:
            with pytest.raises(InputError, match="certified term box needs"):
                theta.terms
