import random
from fractions import Fraction as F

import pytest

from conftest import rank1_tate_data
from oracles import (
    fraction_automorphy_factor,
    fraction_inner_product,
    fraction_lattice_coords,
    fraction_valuation_real,
)
from tropical_heights.degeneration import (
    DegenerationData,
    automorphy_factor,
    component_group,
    trivialization_valuation,
    trivialization_valuation_real,
)
from tropical_heights.errors import InputError
from tropical_heights.linalg import (
    determinant,
    int_matrix_inverse,
    ldl_decompose,
    mat_inverse,
    mat_mul,
    smith_normal_form,
    transpose,
)
from tropical_heights.verify import (
    random_positive_definite,
    random_principally_polarized,
    random_unimodular,
)


def test_validation_rejects_bad_data():
    with pytest.raises(InputError):  # singular embedding
        DegenerationData(rank=1, embedding=[[0]], gram=[[2]], linear_part=[0])
    with pytest.raises(InputError):  # not positive definite
        DegenerationData(rank=1, embedding=[[1]], gram=[[-2]], linear_part=[0])
    with pytest.raises(InputError):  # asymmetric
        DegenerationData(
            rank=2, embedding=[[1, 0], [0, 1]], gram=[[2, 1], [0, 2]],
            linear_part=[0, 0],
        )
    with pytest.raises(InputError):  # odd parity: c would be half-integral
        DegenerationData(rank=1, embedding=[[1]], gram=[[1]], linear_part=[0])
    with pytest.raises(InputError):  # polarization map not integral
        DegenerationData(rank=1, embedding=[[2]], gram=[[1]], linear_part=[1])


def test_polarization_matrix_rank1():
    d = rank1_tate_data(5)
    assert d.polarization_matrix == [[1]]
    assert d.is_principally_polarized()
    assert d.inner_product([1], [1]) == F(1, 5)


def test_trivialization_valuation_examples():
    d = rank1_tate_data(5)
    # ell (u^2 - u)/2 at u = 2
    assert trivialization_valuation(d, [2]) == 5
    assert trivialization_valuation(d, [0]) == 0
    assert trivialization_valuation_real(d, [F(5, 2)]) == F(-5, 8)
    # extension property: agrees on the lattice
    assert trivialization_valuation_real(d, [10]) == trivialization_valuation(d, [2])


def test_quadratic_form_and_inner_product_ranks_1_to_4():
    rng = random.Random(8)
    for rank in (1, 2, 3, 4):
        d = random_principally_polarized(rng, rank)
        g, lin = d.gram, d.linear_part

        def form(x, y):
            return sum(x[i] * g[i][j] * y[j] for i in range(rank) for j in range(rank))

        for _ in range(10):
            a = [rng.randint(-5, 5) for _ in range(rank)]
            b = [rng.randint(-5, 5) for _ in range(rank)]
            t = [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rank)]
            assert trivialization_valuation_real(
                d, d.from_lattice_coords(a)
            ) == trivialization_valuation(d, a)
            assert trivialization_valuation_real(d, d.from_lattice_coords(t)) == (
                form(t, t) + sum(x * y for x, y in zip(lin, t))
            ) / 2
            assert d.inner_product(d.from_lattice_coords(a), d.from_lattice_coords(b)) == form(a, b)


def test_cocycle_at_identity_and_example():
    d3 = rank1_tate_data(3)
    assert automorphy_factor(d3, [0], [F(7, 3)]) == 0
    assert automorphy_factor(d3, [1], [0]) == 0  # c(1) = 0


def test_cocycle_law_random():
    rng = random.Random(11)
    d = DegenerationData(
        rank=2, embedding=[[4, 1], [1, 2]], gram=[[4, 1], [1, 2]],
        linear_part=[4, -2],
    )
    for _ in range(100):
        u = [rng.randint(-4, 4), rng.randint(-4, 4)]
        v = [rng.randint(-4, 4), rng.randint(-4, 4)]
        nu = [F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 7)]
        uv = [a + b for a, b in zip(u, v)]
        translated = [x + y for x, y in zip(nu, d.from_lattice_coords(v))]
        lhs = automorphy_factor(d, uv, nu)
        rhs = automorphy_factor(d, u, translated) + automorphy_factor(d, v, nu)
        assert lhs == rhs


def test_quadratic_extension_cocycle_identity():
    rng = random.Random(5)
    d = DegenerationData(
        rank=2, embedding=[[4, 1], [1, 2]], gram=[[4, 1], [1, 2]],
        linear_part=[4, -2],
    )
    for _ in range(100):
        w = [rng.randint(-3, 3), rng.randint(-3, 3)]
        nu = [F(rng.randint(-30, 30), 11), F(rng.randint(-30, 30), 11)]
        shifted = [x + y for x, y in zip(nu, d.from_lattice_coords(w))]
        assert trivialization_valuation_real(d, shifted) == (
            trivialization_valuation_real(d, nu) + automorphy_factor(d, w, nu)
        )


def test_linear_part_recovered_from_values():
    # c(w) - w^T G w / 2 must be l^T w / 2 at basis vectors
    d = DegenerationData(
        rank=2, embedding=[[1, 0], [0, 1]], gram=[[2, 1], [1, 4]],
        linear_part=[4, -2],
    )
    for i, e in enumerate([[1, 0], [0, 1]]):
        quad = F(d.gram[i][i], 2)
        assert trivialization_valuation(d, e) - quad == F(d.linear_part[i], 2)


def test_homogeneous_part_positive():
    d = DegenerationData(
        rank=2, embedding=[[2, 1], [1, 2]], gram=[[2, 1], [1, 2]],
        linear_part=[0, 2],
    )
    rng = random.Random(3)
    for _ in range(50):
        nu = [F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)]
        if all(x == 0 for x in nu):
            continue
        t = d.to_lattice_coords(nu)
        linear = sum(F(a) * b for a, b in zip(d.linear_part, t)) / 2
        assert trivialization_valuation_real(d, nu) - linear > 0


# -- Smith normal form and component groups ------------------------------------


def test_snf_hand_examples():
    diag, u, v = smith_normal_form([[2]])
    assert diag == [2]
    diag, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    diag, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_snf_transform_identity():
    rng = random.Random(9)
    for _ in range(40):
        g = rng.choice([2, 3])
        m = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(g)]
        if determinant(m) == 0:
            continue
        diag, u, v = smith_normal_form(m)
        umv = mat_mul(mat_mul(u, m), v)
        assert all(
            umv[i][j] == (diag[i] if i == j else 0)
            for i in range(g) for j in range(g)
        )
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        # divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_component_group_examples():
    grp = component_group(rank1_tate_data(2))
    assert grp.invariant_factors == [2] and grp.exponent == 2
    grp = component_group(
        DegenerationData(
            rank=2, embedding=[[2, 0], [0, 3]], gram=[[2, 0], [0, 3]],
            linear_part=[0, 1],
        )
    )
    assert grp.invariant_factors == [6]
    assert grp.exponent == 6
    assert len(grp.representatives) == 6
    trivial = component_group(
        DegenerationData(
            rank=2, embedding=[[1, 0], [0, 1]], gram=[[2, 1], [1, 2]],
            linear_part=[0, 2],
        )
    )
    assert trivial.exponent == 1 and len(trivial.representatives) == 1


def test_component_group_invariants():
    m = [[2, 1, 0], [0, 2, 1], [0, 0, 3]]
    gram = [
        [sum(m[k][i] * m[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]  # M^T M keeps the polarization map integral for any M
    d = DegenerationData(
        rank=3, embedding=m, gram=gram,
        linear_part=[0 if gram[i][i] % 2 == 0 else 1 for i in range(3)],
    )
    grp = component_group(d)
    order = 1
    for f in grp.invariant_factors:
        order *= f
    assert order == d.covolume == 12
    # exponent annihilates every representative
    for rep in grp.representatives:
        scaled = [grp.exponent * x for x in rep]
        assert grp.reduce(scaled) == tuple([0] * len(grp._diagonal))
    # representatives are pairwise distinct in the quotient
    residues = {grp.reduce(rep) for rep in grp.representatives}
    assert len(residues) == order


def test_reduce_mod_lattice():
    d = rank1_tate_data(5)
    nu0, w = d.reduce_mod_lattice([F(-1)])
    assert nu0 == [F(4)] and w == [-1]
    nu0, w = d.reduce_mod_lattice([F(12)])
    assert nu0 == [F(2)] and w == [2]


def test_ldl_reconstructs():
    g = [[4, 2, 0], [2, 3, 1], [0, 1, 5]]
    l, dvec = ldl_decompose(g)
    n = 3
    rebuilt = [
        [
            sum(l[i][k] * dvec[k] * l[j][k] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert rebuilt == [[F(x) for x in row] for row in g]
    assert all(x > 0 for x in dvec)


def test_mat_inverse_exact():
    m = [[2, 1], [7, 4]]
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == [[1, 0], [0, 1]]


def test_integer_lattice_maps_match_the_fraction_references():
    # embeddings off the identity, so that M^{-1} and H have a denominator:
    # seeded principally polarized data of rank 1-6, and M = 3I (det 27).
    # Above rank 4 M = F^{-T} G is built here from the same draws, because
    # random_principally_polarized's bound on det G takes seconds to meet.
    rng = random.Random(19)
    cases = [random_principally_polarized(rng, rank) for rank in range(1, 5) for _ in range(2)]
    for rank in (5, 6, 5, 6):
        gram = random_positive_definite(rng, rank)
        f = random_unimodular(rng, rank)
        cases.append(DegenerationData(
            rank=rank, embedding=mat_mul(transpose(int_matrix_inverse(f)), gram), gram=gram,
            linear_part=[gram[i][i] % 2 for i in range(rank)],
        ))
    cases.append(DegenerationData(
        rank=3, embedding=[[3, 0, 0], [0, 3, 0], [0, 0, 3]],
        gram=[[6, 3, 0], [3, 6, 3], [0, 3, 6]], linear_part=[2, -4, 0],
    ))
    assert all(d.covolume > 1 for d in cases)
    for d in cases:
        g = d.rank
        points = [
            [0] * g,
            [rng.randint(-9, 9) for _ in range(g)],
            [F(rng.randint(-9, 9)) for _ in range(g)],
        ]
        points += [  # mixed denominators, ints among them
            [F(rng.randint(-40, 40), rng.randint(1, 12)) if k % 3 else rng.randint(-5, 5)
             for k in range(g)]
            for _ in range(4)
        ]
        for nu in points:
            assert d.to_lattice_coords(nu) == fraction_lattice_coords(d, nu), (d, nu)
            assert trivialization_valuation_real(d, nu) == fraction_valuation_real(d, nu)
            for mu in points[::2]:
                assert d.inner_product(mu, nu) == fraction_inner_product(d, mu, nu), (d, mu, nu)
            w = [rng.randint(-4, 4) for _ in range(g)]
            assert automorphy_factor(d, w, nu) == fraction_automorphy_factor(d, w, nu), (d, w, nu)
