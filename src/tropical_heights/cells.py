"""Domains of linearity of a tropicalized theta function (ranks 1 and 2).

Cells are the maximal regions where a single Fourier term achieves the
minimum.  They are computed exactly: rank 1 by a lower envelope of lines,
rank 2 by half-plane clipping with rational arithmetic.  Cells are closed;
shared faces belong to all adjacent cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import mat_vec
from .tropical import TropicalTheta


@dataclass(frozen=True)
class Cell:
    active_term: tuple
    vertices: tuple  # tuple of coordinate tuples (Fractions), CCW for rank 2

    def key(self):
        return frozenset(self.vertices)


@dataclass(frozen=True)
class CellComplex:
    rank: int
    cells: tuple
    quotient_cells: tuple  # one representative cell per lattice orbit

    def breakpoints(self) -> list:
        """Rank-1 convenience: sorted cell endpoints (plot support)."""
        if self.rank != 1:
            raise InputError("breakpoints are a rank-1 notion")
        pts = sorted({v[0] for cell in self.cells for v in cell.vertices})
        return pts


def _window_corners(data):
    """Corners of the lattice window {M t : t in [-1, 2]^2}, CCW."""
    corners_t = [(-1, -1), (2, -1), (2, 2), (-1, 2)]
    pts = [tuple(mat_vec(data.embedding, [Fraction(a), Fraction(b)])) for a, b in corners_t]
    area2 = _polygon_area2(pts)
    if area2 < 0:
        pts.reverse()
    return pts


def _polygon_area2(pts):
    total = Fraction(0)
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _clip_halfplane(poly, normal, offset):
    """Keep the part of poly with normal . p <= offset (exact)."""
    if not poly:
        return []
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_in = normal[0] * cur[0] + normal[1] * cur[1] <= offset
        n_in = normal[0] * nxt[0] + normal[1] * nxt[1] <= offset
        if c_in:
            out.append(cur)
        if c_in != n_in:
            # intersection of segment with the boundary line
            d = (
                normal[0] * (nxt[0] - cur[0])
                + normal[1] * (nxt[1] - cur[1])
            )
            t = (offset - normal[0] * cur[0] - normal[1] * cur[1]) / d
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    # drop consecutive duplicates
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _cells_rank1(theta: TropicalTheta) -> list:
    data = theta.data
    period = data.embedding[0][0]
    lo, hi = Fraction(-1) * period, Fraction(2) * period
    if period < 0:
        lo, hi = hi, lo
    lines = sorted(
        ((u[0], a) for u, a in theta.terms.items()), key=lambda p: (p[0], p[1])
    )
    # smallest intercept per slope
    by_slope = {}
    for slope, intercept in lines:
        if slope not in by_slope or intercept < by_slope[slope]:
            by_slope[slope] = intercept
    # lower envelope: largest slope dominates near -inf, so activity order
    # left to right is by decreasing slope; a stack prunes dominated lines.
    env = []  # (slope, intercept), active left to right
    for s in sorted(by_slope, reverse=True):
        a = by_slope[s]
        while len(env) >= 2:
            s1, a1 = env[-2]
            s2, a2 = env[-1]
            x_new = (a - a1) / Fraction(s1 - s)    # new line meets env[-2]
            x_old = (a2 - a1) / Fraction(s1 - s2)  # env[-1] took over here
            if x_new <= x_old:
                env.pop()
            else:
                break
        env.append((s, a))
    # breakpoints between consecutive envelope lines
    cells = []
    cuts = [lo]
    for i in range(len(env) - 1):
        s1, a1 = env[i]
        s2, a2 = env[i + 1]
        cuts.append((a2 - a1) / Fraction(s1 - s2))
    cuts.append(hi)
    for i, (s, a) in enumerate(env):
        left = max(lo, cuts[i])
        right = min(hi, cuts[i + 1])
        if left < right:
            cells.append(Cell(active_term=(s,), vertices=((left,), (right,))))
    return cells


def _cells_rank2(theta: TropicalTheta) -> list:
    data = theta.data
    window = _window_corners(data)
    cells = []
    items = list(theta.terms.items())
    for u, a in items:
        poly = window
        for v, b in items:
            if v == u:
                continue
            # a + <u, nu> <= b + <v, nu>  <=>  <u - v, nu> <= b - a
            normal = (Fraction(u[0] - v[0]), Fraction(u[1] - v[1]))
            if normal == (0, 0):
                if a > b:
                    poly = []
                    break
                continue
            poly = _clip_halfplane(poly, normal, Fraction(b - a))
            if len(poly) < 3:
                poly = []
                break
        if poly and abs(_polygon_area2(poly)) > 0:
            cells.append(Cell(active_term=u, vertices=tuple(poly)))
    return cells


def _quotient(theta: TropicalTheta, cells) -> list:
    """Representatives: cells whose centroid lies in the fundamental
    parallelotope [0,1)^g of lattice coordinates."""
    data = theta.data
    reps = []
    for cell in cells:
        g = data.rank
        n = len(cell.vertices)
        centroid = [
            sum(Fraction(v[i]) for v in cell.vertices) / n for i in range(g)
        ]
        t = data.to_lattice_coords(centroid)
        if all(0 <= x < 1 for x in t):
            reps.append(cell)
    return reps


def _assert_periodicity(theta: TropicalTheta, cells, reps):
    """Each quotient cell translated by a lattice generator must reappear
    in the complex (with the matching term shift) whenever the translate
    stays inside the window."""
    data = theta.data
    keys = {}
    for cell in cells:
        keys.setdefault(cell.key(), set()).add(cell.active_term)
    f = data.polarization_matrix
    g = data.rank
    for cell in reps:
        for j in range(g):
            step = [data.embedding[i][j] for i in range(g)]
            shifted = frozenset(
                tuple(Fraction(v[i]) + step[i] for i in range(g))
                for v in cell.vertices
            )
            if shifted in keys:
                # f(nu + M e_j) picks up the cocycle, moving the active
                # term from u to u - F e_j
                moved_term = tuple(
                    cell.active_term[i] - f[i][j] for i in range(g)
                )
                if moved_term not in keys[shifted]:
                    raise InputError(
                        "cell complex is not lattice-periodic: "
                        f"term {cell.active_term} fails at generator {j}"
                    )


def domains_of_linearity(theta: TropicalTheta) -> CellComplex:
    """Maximal domains of linearity, clipped to the fundamental
    parallelotope plus one lattice margin layer on every side."""
    rank = theta.data.rank
    if rank == 1:
        cells = _cells_rank1(theta)
    elif rank == 2:
        cells = _cells_rank2(theta)
    else:
        raise InputError("domains of linearity supported for rank <= 2 only")
    reps = _quotient(theta, cells)
    _assert_periodicity(theta, cells, reps)
    return CellComplex(rank=rank, cells=tuple(cells), quotient_cells=tuple(reps))
