"""Tropicalized theta functions from finite Fourier data, their
normalization, the tropical Riemann theta function, theta characteristics
and quantization checks.

A tropicalized theta function is the concave piecewise affine function

    value(nu) = min over terms (u, a)  of  a + <u, nu>

extended to all of X*_R by the lattice automorphy factor.  A finite term
list that a caller supplies (JSON input, a tensor product, direct
construction) is a ``TropicalTheta`` and carries a margin certificate:
evaluation in the fundamental domain is trusted only when the minimizing
term has a full shell of lattice translates present, so a too-small list
fails loudly instead of returning a wrong minimum.

Data built by ``generate_theta_terms`` is a ``GeneratedTheta``: the terms
u = F w, a = c(w) + r over all lattice vectors w, c the trivialization
valuation, held as their quadratic form.  Its normalized value is the
tropical Riemann theta moved by the characteristic k = M G^{-1} l / 2
(``DegenerationData.characteristic_shift``):
||theta||(nu) = ||Psi||(nu + k) - [k, k]/2 + r, so it is evaluated by one
certified closest-vector search, its characteristic is this closed form,
and its term list is built only when read, and refused there if too large.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product

from .cvp import closest_lattice_point
from .degeneration import (
    DegenerationData,
    automorphy_factor,
    component_group,
    trivialization_valuation,
    trivialization_valuation_real,
)
from .errors import (
    InputError,
    InsufficientTermsError,
    NotPrincipallyPolarizedData,
)
from .exact import exact_int
from .linalg import mat_vec, over_denominator


def _ceil_sqrt(x: Fraction) -> int:
    """ceil(sqrt(x)) for rational x >= 0, exact."""
    r = math.isqrt(x.numerator * x.denominator) // x.denominator
    return r if Fraction(r) ** 2 == x else r + 1


# lattice-translate shells around a certified minimizer in generated term lists
_TERM_MARGIN = 2
# points on which theta_characteristic certifies a term list's constant offset
_GRID_POINTS = 50


def _is_clean(terms: dict, rank: int) -> bool:
    """Whether every key is a tuple of ``rank`` ints and every value a
    Fraction, by C-level passes over the dict rather than one per term."""
    return (
        set(map(type, terms)) == {tuple}
        and set(map(len, terms)) == {rank}
        and set(map(type, chain.from_iterable(terms))) == {int}
        and set(map(type, terms.values())) == {Fraction}
    )


@dataclass
class TropicalTheta:
    """Finite Fourier data (u, a_u) over degeneration data, evaluated by
    the certified scan of its terms.

    ``terms`` maps integer X-vectors (tuples) to exact rational
    coefficients, normalized at construction and not changed after it.
    ``margin`` is the number of lattice-translate shells required around a
    certified minimizer.
    """

    data: DegenerationData
    terms: dict
    margin: int = _TERM_MARGIN

    def __post_init__(self):
        if not self.terms:
            raise InputError("term list must be non-empty")
        if self.margin < 1:
            raise InputError("margin must be at least 1 for certified evaluation")
        if isinstance(self.terms, Mapping):
            terms = dict(self.terms)
            pairs = terms.items()
        else:  # a pair list is read as given: dict() would merge a repeated index
            pairs = list(self.terms)
            terms = dict(pairs)
        if len(terms) < len(pairs) or not _is_clean(terms, self.data.rank):
            clean = {}
            for u, a in pairs:
                key = tuple(exact_int(x, "Fourier index") for x in u)
                if len(key) != self.data.rank:
                    raise InputError("Fourier index of wrong rank")
                if key in clean:
                    raise InputError(f"duplicate Fourier index {key}")
                clean[key] = Fraction(a)
            terms = clean
        self.terms = terms

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _scaled_terms(self) -> tuple:
        """The term list over its common denominator D: D, the integers
        D a_u, and the Fourier indices in column layout (one tuple per
        coordinate), all in term-dict order."""
        coeffs, d = over_denominator(self.terms.values())
        return d, coeffs, tuple(zip(*self.terms))

    def _min_term(self, nu0):
        """Exact minimum over the term list and its argmins in term-dict
        order, by one integer scan: every value a_u + <u, nu0> is scaled by
        D times the common denominator of nu0."""
        d, coeffs, columns = self._scaled_terms
        n, den = over_denominator(nu0)
        acc = [c * den for c in coeffs]
        for column, x in zip(columns, n):
            step = d * x
            acc = [s + ui * step for s, ui in zip(acc, column)]
        low = min(acc)
        return Fraction(low, d * den), [u for u, s in zip(self.terms, acc) if s == low]

    @cached_property
    def _shell_offsets(self) -> tuple:
        """Offsets F s of the lattice translates s in [-margin, margin]^g,
        s != 0, that a certified minimizer must have in the term list."""
        rng = range(-self.margin, self.margin + 1)
        return tuple(
            tuple(mat_vec(self.data.polarization_matrix, shift))
            for shift in product(rng, repeat=self.data.rank)
            if any(shift)
        )

    def _is_interior(self, u) -> bool:
        return all(
            tuple(a + b for a, b in zip(u, offset)) in self.terms
            for offset in self._shell_offsets
        )

    def value(self, nu) -> Fraction:
        """Tropicalized theta at nu: the term list scanned after reduction
        to the fundamental parallelotope and moved back by the translation
        cocycle."""
        return self._value(nu, self.data.to_lattice_coords(nu))

    def normalized_value(self, nu) -> Fraction:
        """Lattice-invariant normalization: value + quadratic extension,
        both read from one set of lattice coordinates t of nu."""
        t = self.data.to_lattice_coords(nu)
        return self._value(nu, t) + trivialization_valuation(self.data, *over_denominator(t))

    def _value(self, nu, t) -> Fraction:
        """value(nu) by the term scan, given the lattice coordinates t of nu."""
        nu0, w = self.data.reduce_mod_lattice(nu, t)
        best, argmins = self._min_term(nu0)
        if not any(self._is_interior(u) for u in argmins):
            raise InsufficientTermsError(nu0)
        if all(x == 0 for x in w):
            return best
        return best - automorphy_factor(self.data, w, nu0)


@dataclass(frozen=True, eq=False)
class GeneratedTheta:
    """The theta of (G, l) with coefficients c(w) + ``constant``, read like
    a ``TropicalTheta`` but evaluated by one closest-vector search.  It
    equals any theta with the same data, terms and margin, so it equals
    its reload, which scans to the same values."""

    data: DegenerationData
    constant: Fraction
    margin = _TERM_MARGIN

    def __eq__(self, other):
        if not isinstance(other, (GeneratedTheta, TropicalTheta)):
            return NotImplemented
        return (self.data == other.data and self.margin == other.margin
                and self.terms == other.terms)

    @cached_property
    def offset(self) -> Fraction:
        """r = constant - [k, k]/2, the constant between the normalized value
        and the Riemann theta moved by k."""
        k = self.data.characteristic_shift
        return self.constant - self.data.inner_product(k, k) / 2

    def value(self, nu) -> Fraction:
        """The normalized value less the quadratic extension."""
        return self.normalized_value(nu) - trivialization_valuation_real(self.data, nu)

    def normalized_value(self, nu) -> Fraction:
        """The Riemann theta at nu + k plus r - [k, k]/2."""
        self.data.check_length(nu)
        moved = [a + b for a, b in zip(nu, self.data.characteristic_shift)]
        return normalized_tropical_riemann_theta(self.data, moved) + self.offset

    @cached_property
    def terms(self) -> dict:
        """The certified term box, built on first read: the terms over the
        lattice vectors |w_i| <= bounds[i], in ``itertools.product`` order.
        A Babai bound on the quadratic part sizes the box so that every
        minimizer for the fundamental parallelotope lies ``margin`` shells
        inside it; a box of more than 300,000 terms is refused.

        Built column by column on ints.  Coordinates join from the last,
        which varies fastest, to the first; joining x at coordinate j maps w
        to x e_j + w, which adds x F e_j to u and x (G w)_j + c(x e_j) to c.
        By parity c(x e_j) = (G_jj x^2 + l_j x) / 2 is an integer.  One
        Fraction is made per distinct coefficient and shared by its terms.
        """
        data = self.data
        gram, lin, ginv = data.gram, data.linear_part, data.gram_inverse
        h = data.to_lattice_coords(data.characteristic_shift)  # G^{-1} l / 2
        r2 = Fraction(sum(abs(x) for row in gram for x in row), 4)
        bounds = [math.floor(max(abs(x), abs(1 + x))) + 1 + _ceil_sqrt(r2 * ginv[i][i])
                  + self.margin for i, x in enumerate(h)]
        total = math.prod(2 * b + 1 for b in bounds)
        if total > 300000:
            raise InputError(
                f"certified term box needs {total} terms; the Gram matrix is too "
                "ill-conditioned for a static term list at this rank"
            )
        num, den = self.constant.numerator, self.constant.denominator
        us = [[0] for _ in range(data.rank)]  # columns of u = F w
        gw = [[0] for _ in range(data.rank)]  # columns of G w, kept for j not yet joined
        cs = [num]                            # den c(w) + num

        def join(rows, columns, j, xs):
            """Columns of (rows) w after w -> x e_j + w, x outermost."""
            return [[a + s for s in [row[j] * x for x in xs] for a in col]
                    for row, col in zip(rows, columns)]

        for j in reversed(range(data.rank)):
            xs = range(-bounds[j], bounds[j] + 1)
            steps = [(den * x, den * ((gram[j][j] * x + lin[j]) * x // 2)) for x in xs]
            cs = [c + s * v + k for s, k in steps for c, v in zip(cs, gw[j])]
            us = join(data.polarization_matrix, us, j, xs)
            gw = join(gram[:j], gw[:j], j, xs)
        values = {c: Fraction(c, den) for c in set(cs)}  # far fewer than terms
        return dict(zip(zip(*us), map(values.__getitem__, cs)))


def generate_theta_terms(data: DegenerationData, constant: Fraction | int = 0) -> GeneratedTheta:
    """The theta of (G, l) with coefficients c(w) + constant, c the
    trivialization valuation; its term list is built when first read."""
    return GeneratedTheta(data, Fraction(constant))


# ---------------------------------------------------------------------------
# Tropical Riemann theta function (closest-vector form)
# ---------------------------------------------------------------------------


def normalized_tropical_riemann_theta(data: DegenerationData, nu) -> Fraction:
    """Half the squared lattice distance min over w of (t+w)^T G (t+w) / 2,
    where t are the lattice coordinates of nu.  Exact, via certified CVP."""
    _, minimum = closest_lattice_point(data.lattice_form, *data.scaled_lattice_coords(nu))
    return minimum / 2


def tropical_riemann_theta(data: DegenerationData, nu) -> Fraction:
    """Concave min-form min over w of ([Mw, Mw]/2 + [Mw, nu]); always <= 0,
    and 0 exactly on the Voronoi cell of the origin."""
    return normalized_tropical_riemann_theta(data, nu) - data.inner_product(nu, nu) / 2


def closest_lattice_vector(data: DegenerationData, nu) -> tuple[list, Fraction]:
    """A lattice vector (X*-coordinates) closest to nu, with the half
    squared distance.  On a tie it is one of several closest vectors."""
    w, minimum = closest_lattice_point(data.lattice_form, *data.scaled_lattice_coords(nu))
    return data.from_lattice_coords([-x for x in w]), minimum / 2


# ---------------------------------------------------------------------------
# Theta characteristic (principally polarized data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaCharacteristic:
    shift: list          # k, X*-coordinates (rationals), 2k integral
    shift_mod_lattice: list  # k reduced into the fundamental parallelotope
    constant: Fraction   # r with ||theta|| = ||Psi|| o translate(k) + r
    base_constant: Fraction  # r' in the decomposition r = -[k,k]/2 + r'


def evaluation_grid(data: DegenerationData) -> list:
    """Deterministic grid of _GRID_POINTS rationals inside the fundamental
    parallelotope.

    Denominator-7 lattice points (which avoid cell walls for generic data)
    visited in a strided order for coverage, topped up with denominator-53
    diagonal points when the rank-g grid alone is too small.
    """
    g = data.rank
    strides = [3, 5, 2, 6][:g] + [3] * max(0, g - 4)
    total = 7**g
    points = []
    for k in range(min(total, _GRID_POINTS)):
        digits = [(k // 7**i) % 7 for i in range(g)]
        t = [Fraction((strides[i] * (digits[i] + k) + i) % 7, 7) for i in range(g)]
        points.append(data.from_lattice_coords(t))
    j = 1
    while len(points) < _GRID_POINTS:
        points.append(data.from_lattice_coords([Fraction(j % 52 + 1, 53)] * g))
        j += 1
    return points


def theta_characteristic(theta: TropicalTheta | GeneratedTheta) -> ThetaCharacteristic:
    """The translation k relating the normalized theta to the normalized
    tropical Riemann theta, and the constant offset r.  A generated theta
    returns its closed form; a term list certifies r on a deterministic
    grid (exact equality at every point)."""
    data = theta.data
    if not data.is_principally_polarized():
        raise NotPrincipallyPolarizedData(
            "polarization map is not unimodular; no theta characteristic"
        )
    k = data.characteristic_shift
    if any((2 * x).denominator != 1 for x in k):
        raise NotPrincipallyPolarizedData("2k is not an integral vector")
    if isinstance(theta, GeneratedTheta):
        r = theta.offset
    else:
        r = theta.normalized_value([0] * data.rank) - normalized_tropical_riemann_theta(data, k)
        for nu in evaluation_grid(data):
            shifted = [x + ki for x, ki in zip(nu, k)]
            value = theta.normalized_value(nu) - normalized_tropical_riemann_theta(data, shifted)
            if value != r:
                raise NotPrincipallyPolarizedData(f"offset not constant: {value} != {r} at {nu}")
    kappa, _ = data.reduce_mod_lattice(k)
    r_base = r + data.inner_product(k, k) / 2
    return ThetaCharacteristic(
        shift=list(k), shift_mod_lattice=kappa, constant=r, base_constant=r_base
    )


# ---------------------------------------------------------------------------
# Quantization over the component group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizationReport:
    modulus: int               # N with N * (X*/Y) = 0
    values: list               # (representative, normalized value) pairs
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def quantization_check(theta: TropicalTheta) -> QuantizationReport:
    """Check that the normalized theta takes values in (1/2N) Z on the
    component group X*/Y, with N its exponent."""
    group = component_group(theta.data)
    if group.representatives is None:
        raise InputError("component group too large to enumerate")
    n = group.exponent
    values = []
    violations = []
    for rep in group.representatives:
        val = theta.normalized_value([Fraction(x) for x in rep])
        values.append((list(rep), val))
        if (2 * n * val).denominator != 1:
            violations.append((list(rep), val))
    return QuantizationReport(modulus=n, values=values, violations=violations)


# ---------------------------------------------------------------------------
# Tensor product of normalized theta data
# ---------------------------------------------------------------------------


def tensor_normalized(t1: TropicalTheta, t2: TropicalTheta) -> TropicalTheta:
    """Tropical product: Gram matrices and linear parts add, coefficients
    combine by min-plus convolution.  The normalized value of the result is
    the pointwise sum of the inputs' normalized values."""
    d1, d2 = t1.data, t2.data
    if d1.rank != d2.rank:
        raise InputError("rank mismatch in tensor product")
    if d1.embedding != d2.embedding:
        raise InputError("tensor product requires identical period lattices")
    data = DegenerationData(
        rank=d1.rank,
        embedding=d1.embedding,
        gram=[
            [d1.gram[i][j] + d2.gram[i][j] for j in range(d1.rank)]
            for i in range(d1.rank)
        ],
        linear_part=[a + b for a, b in zip(d1.linear_part, d2.linear_part)],
    )
    terms: dict = {}
    for u1, a1 in t1.terms.items():
        for u2, a2 in t2.terms.items():
            u = tuple(x + y for x, y in zip(u1, u2))
            val = a1 + a2
            if u not in terms or val < terms[u]:
                terms[u] = val
    return TropicalTheta(data=data, terms=terms, margin=min(t1.margin, t2.margin))


# ---------------------------------------------------------------------------
# Rank-1 breakpoints
# ---------------------------------------------------------------------------


def breakpoints(theta: TropicalTheta) -> list:
    """Sorted ends of the domains of linearity of a rank-1 theta on the
    window [-P, 2P], P the period: the corners of the exact lower envelope
    of the lines a_u + u nu.

    The domains are closed intervals, one per active term.  A domain whose
    midpoint lies in [0, P) must reappear one period on, with active term
    u - F, whenever that translate lies in the window; Fourier data that
    breaks this is refused as not lattice-periodic.
    """
    data = theta.data
    if data.rank != 1:
        raise InputError("breakpoint lists are a rank-1 feature")
    period = Fraction(data.embedding[0][0])
    lo, hi = sorted((-period, 2 * period))
    # smallest intercept per slope
    by_slope = {}
    for (slope,), a in theta.terms.items():
        if slope not in by_slope or a < by_slope[slope]:
            by_slope[slope] = a
    # lower envelope: largest slope dominates near -inf, so activity order
    # left to right is by decreasing slope; a stack prunes dominated lines.
    env = []  # (slope, intercept), active left to right
    for s in sorted(by_slope, reverse=True):
        a = by_slope[s]
        while len(env) >= 2:
            (s1, a1), (s2, a2) = env[-2:]
            # the new line meets env[-2] before env[-1] took over from it
            if (a - a1) / (s1 - s) <= (a2 - a1) / (s1 - s2):
                env.pop()
            else:
                break
        env.append((s, a))
    cuts = [lo]
    for (s1, a1), (s2, a2) in zip(env, env[1:]):
        cuts.append((a2 - a1) / (s1 - s2))
    cuts.append(hi)
    domains = {}  # (left, right) -> active slope
    for (s, _), left, right in zip(env, cuts, cuts[1:]):
        left, right = max(lo, left), min(hi, right)
        if left < right:
            domains[left, right] = s
    # f(nu + P) picks up the cocycle, moving the active term from u to u - F
    f = data.polarization_matrix[0][0]
    for (left, right), s in domains.items():
        shifted = (left + period, right + period)
        if (
            0 <= (left + right) / 2 / period < 1
            and lo <= shifted[0] and shifted[1] <= hi
            and domains.get(shifted) != s - f
        ):
            raise InputError(
                f"cell complex is not lattice-periodic: term {(s,)} fails at generator 0"
            )
    return sorted({x for interval in domains for x in interval})
