import json
import random
from fractions import Fraction as F

import pytest

from conftest import rank1_tate_data
from oracles import polygon_area2, rank2_domains_of_linearity
from tropical_heights.cli import main
from tropical_heights.degeneration import DegenerationData
from tropical_heights.errors import InputError
from tropical_heights.serialize import theta_to_dict
from tropical_heights.tropical import TropicalTheta, breakpoints, generate_theta_terms
from tropical_heights.verify import random_principally_polarized


def _argmins(theta, nu):
    """Terms attaining min a_u + u nu at a rank-1 point nu."""
    values = {u: a + u[0] * nu for u, a in theta.terms.items()}
    best = min(values.values())
    return [u for u, v in values.items() if v == best]


def _domains(theta):
    """(left, right, active term) per domain, from consecutive breakpoints
    and the unique minimizer at the midpoint."""
    points = breakpoints(theta)
    out = []
    for left, right in zip(points, points[1:]):
        winners = _argmins(theta, (left + right) / 2)
        assert len(winners) == 1, (left, right, winners)
        out.append((left, right, winners[0]))
    return out


def test_rank1_tate_cells():
    theta = generate_theta_terms(rank1_tate_data(5))
    domains = _domains(theta)
    intervals = {(left, right) for left, right, _ in domains}
    assert (F(-5), F(0)) in intervals
    assert (F(0), F(5)) in intervals
    # breakpoints sit on lattice translates of 0 (Voronoi of 5Z shifted by -5/2)
    assert all(b % 5 == 0 for b in breakpoints(theta))
    # one domain per lattice orbit: one midpoint in the fundamental domain
    assert sum(1 for left, right, _ in domains if 0 <= (left + right) / 2 < 5) == 1


def test_rank1_active_terms_follow_cocycle():
    theta = generate_theta_terms(rank1_tate_data(4))
    by_interval = {(left, right): u for left, right, u in _domains(theta)}
    assert by_interval[(F(0), F(4))] == (0,)
    assert by_interval[(F(-4), F(0))] == (1,)
    assert by_interval[(F(4), F(8))] == (-1,)


def test_single_term_single_cell():
    theta = TropicalTheta(rank1_tate_data(3), {(0,): F(0)}, margin=1)
    domains = _domains(theta)
    assert len(domains) == 1
    assert domains[0][2] == (0,)


def test_rank2_identity_voronoi_squares():
    d = DegenerationData(
        rank=2, embedding=[[1, 0], [0, 1]], gram=[[1, 0], [0, 1]],
        linear_part=[-1, -1],
    )
    cx = rank2_domains_of_linearity(generate_theta_terms(d))
    assert len(cx.quotient_cells) == 1
    cell = cx.quotient_cells[0]
    assert len(cell.vertices) == 4
    # Voronoi cell of the origin shifted by -k with k = (-1/2, -1/2)
    assert set(cell.vertices) == {
        (F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)),
    }
    # every window cell is a translate: four vertices each
    assert all(len(c.vertices) == 4 for c in cx.cells)


def test_rank2_cells_tile_measure():
    # areas of the quotient cells add up to the covolume
    d = DegenerationData(
        rank=2, embedding=[[2, 1], [1, 2]], gram=[[2, 1], [1, 2]],
        linear_part=[0, 2],
    )
    cx = rank2_domains_of_linearity(generate_theta_terms(d))
    total = sum(abs(polygon_area2(list(c.vertices))) for c in cx.quotient_cells) / 2
    assert total == d.covolume


def test_rank3_rejected():
    for rank in (2, 3):
        d = DegenerationData(
            rank=rank,
            embedding=[[int(i == j) for j in range(rank)] for i in range(rank)],
            gram=[[2 * int(i == j) for j in range(rank)] for i in range(rank)],
            linear_part=[0] * rank,
        )
        with pytest.raises(InputError):
            breakpoints(generate_theta_terms(d))


def test_cell_interiors_are_strict():
    # at a cell's midpoint the active term is the unique minimizer
    theta = generate_theta_terms(rank1_tate_data(6))
    points = breakpoints(theta)
    for left, right in zip(points, points[1:]):
        assert len(_argmins(theta, (left + right) / 2)) == 1, (left, right)


def test_breakpoints_are_envelope_corners():
    """On seeded rank-1 data, two or more terms tie at every interior
    breakpoint, and exactly one term is minimal at every midpoint."""
    rng = random.Random(13)
    for _ in range(20):
        theta = generate_theta_terms(random_principally_polarized(rng, 1))
        points = breakpoints(theta)
        assert points == sorted(set(points))
        for nu in points[1:-1]:
            assert len(_argmins(theta, nu)) >= 2, (theta.data, nu)
        for left, right in zip(points, points[1:]):
            assert len(_argmins(theta, (left + right) / 2)) == 1, (theta.data, left, right)


# period 2 with the middle domain's translate carrying the wrong term, and
# period 3 with terms u^2, whose domains have length 2
NON_PERIODIC = [
    (2, {(1,): 0, (0,): 0, (-2,): 4}),
    (3, {(u,): u * u for u in range(-4, 5)}),
]


@pytest.mark.parametrize("ell, terms", NON_PERIODIC)
def test_non_periodic_data_rejected(ell, terms, tmp_path, capsys):
    theta = TropicalTheta(rank1_tate_data(ell), terms, margin=1)
    with pytest.raises(InputError, match="not lattice-periodic"):
        breakpoints(theta)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_to_dict(theta)))
    assert main(["trop-eval", str(path), "--breakpoints"]) == 2
    assert "not lattice-periodic" in capsys.readouterr().err


def test_rank2_non_periodic_data_rejected():
    # terms a^2 + b^2 over M = G = 3 I: the cells have side 2, not 3, so
    # the translate of the cell at the origin lies in the window but is no cell
    d = DegenerationData(
        rank=2, embedding=[[3, 0], [0, 3]], gram=[[3, 0], [0, 3]], linear_part=[-3, -3],
    )
    terms = {(a, b): a * a + b * b for a in range(-4, 5) for b in range(-4, 5)}
    with pytest.raises(InputError, match="not lattice-periodic"):
        rank2_domains_of_linearity(TropicalTheta(d, terms, margin=1))


def test_rank2_seeded_data_passes_the_periodicity_check():
    # skewed embeddings clip quotient cells at the window's edge; periodic
    # data must not be refused for it, and the check must compare some
    # translate by each generator
    rng = random.Random(7)
    for _ in range(6):
        data = random_principally_polarized(rng, 2)
        cx = rank2_domains_of_linearity(generate_theta_terms(data))
        assert cx.quotient_cells, data
        assert all(n >= 1 for n in cx.translates_checked), (data, cx.translates_checked)
