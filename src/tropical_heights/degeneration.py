"""Degeneration data for a totally degenerate abelian variety and the
integer-valued quadratic map attached to its trivialization.

Concrete coordinate conventions (fixed once, used everywhere):

* ``X*`` is Z^g with its standard basis; evaluation against the dual
  lattice ``X`` is the ordinary dot product.
* The period lattice ``Y`` sits inside X* as the column span of the
  ``embedding`` matrix M, so a lattice vector with Y-coordinates w is the
  X*-vector M w.
* ``gram`` is the positive definite symmetric integer matrix G of the
  pairing on Y-coordinates, ``linear_part`` the integer vector l of the
  linear correction, so the trivialization valuation on the lattice is
  w -> (w^T G w + l^T w) / 2.
* The polarization map from Y-coordinates to X is forced by the cocycle
  identity to be F = M^{-T} G, which must therefore be an integer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

from .cvp import lattice_form
from .errors import InputError
from .linalg import (
    determinant,
    int_matrix_inverse,
    is_symmetric,
    mat_inverse,
    mat_mul,
    mat_vec,
    over_denominator,
    smith_normal_form,
    transpose,
)

DEFAULT_ENUMERATION_BOUND = 10**6


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class DegenerationData:
    """Rank, lattice embedding, Gram matrix and linear part.

    Immutable; derived matrices, and the integer form of G that the
    closest-vector search reads, are computed once, on first use.
    """

    rank: int
    embedding: list  # g x g integer matrix M, columns = Y-generators in X*
    gram: list       # g x g integer symmetric positive definite matrix G
    linear_part: list  # length-g integer vector l

    def __post_init__(self):
        g = self.rank
        if g < 1:
            raise InputError("rank must be >= 1")
        for name, m in (("embedding", self.embedding), ("gram", self.gram)):
            if len(m) != g or any(len(row) != g for row in m):
                raise InputError(f"{name} must be {g}x{g}")
            if any(not isinstance(x, int) for row in m for x in row):
                raise InputError(f"{name} must have integer entries")
        if len(self.linear_part) != g or any(
            not isinstance(x, int) for x in self.linear_part
        ):
            raise InputError("linear_part must be a length-g integer vector")
        if self.covolume == 0:
            raise InputError("embedding matrix must be nonsingular")
        if not is_symmetric(self.gram):
            raise InputError("gram matrix must be symmetric")
        try:
            self.lattice_form
        except InputError:
            raise InputError("gram matrix must be positive definite") from None
        self.polarization_matrix  # raises InputError unless F is integral
        for i in range(g):
            if (self.gram[i][i] + self.linear_part[i]) % 2 != 0:
                raise InputError(
                    "parity violation: gram[i][i] + linear_part[i] must be even "
                    "for the trivialization valuation to be integer-valued"
                )

    # -- derived matrices ----------------------------------------------------

    @cached_property
    def embedding_inverse(self) -> list:
        return mat_inverse(self.embedding)

    @cached_property
    def polarization_matrix(self) -> list:
        """Integer matrix F = M^{-T} G mapping Y-coordinates into X."""
        phi = mat_mul(transpose(self.embedding_inverse), self.gram)
        if any(x.denominator != 1 for row in phi for x in row):
            raise InputError(
                "gram matrix incompatible with embedding: the induced "
                "polarization map M^{-T} G is not integral"
            )
        return [[x.numerator for x in row] for row in phi]

    @cached_property
    def covolume(self) -> int:
        return abs(int(determinant(self.embedding)))

    @cached_property
    def lattice_form(self) -> tuple:
        """``cvp.lattice_form`` of G: the integer sum of squares that every
        closest-vector search on this lattice reads."""
        return lattice_form(self.gram)

    @cached_property
    def gram_inverse(self) -> list:
        return mat_inverse(self.gram)

    @cached_property
    def characteristic_shift(self) -> list:
        """k = M G^{-1} l / 2 in X*-coordinates: <F w, k> = l^T w / 2 for every
        w, so the generated theta is the Riemann theta moved by k."""
        two_k = mat_vec(self.embedding, mat_vec(self.gram_inverse, self.linear_part))
        return [x / 2 for x in two_k]

    def is_principally_polarized(self) -> bool:
        return abs(int(determinant(self.polarization_matrix))) == 1

    @cached_property
    def scaled_inverse(self) -> tuple:
        """M^{-1} over one denominator: (N, D) with M^{-1} = N / D, N an
        integer matrix and D > 0 the least common denominator."""
        flat, d = over_denominator([x for row in self.embedding_inverse for x in row])
        g = self.rank
        return [flat[i * g:(i + 1) * g] for i in range(g)], d

    @cached_property
    def scaled_inner_product(self) -> tuple:
        """The induced inner product on X*-coordinates over one denominator:
        (K, D) with [mu, nu] = mu^T K nu / D, normalized so that
        [Mw, Mw'] = w^T G w'; that is, K / D = M^{-T} G M^{-1} = F M^{-1}."""
        inverse, d = self.scaled_inverse
        return mat_mul(self.polarization_matrix, inverse), d

    # -- coordinate helpers ---------------------------------------------------

    def check_length(self, *vectors) -> None:
        """Refuse any vector that does not have ``rank`` coordinates."""
        for v in vectors:
            if len(v) != self.rank:
                raise InputError(f"point needs {self.rank} coordinates, got {len(v)}")

    def scaled_lattice_coords(self, nu) -> tuple:
        """X*-vector -> Y-coordinates as integer numerators over one denominator."""
        self.check_length(nu)
        n, e = over_denominator(nu)
        inverse, d = self.scaled_inverse
        return [_dot(row, n) for row in inverse], d * e

    def to_lattice_coords(self, nu) -> list:
        """X*-vector (ints or Fractions) -> Y-coordinates (Fractions)."""
        n, d = self.scaled_lattice_coords(nu)
        return [Fraction(x, d) for x in n]

    def from_lattice_coords(self, w) -> list:
        self.check_length(w)
        return mat_vec(self.embedding, list(w))

    def reduce_mod_lattice(self, nu, t=None) -> tuple[list, list]:
        """Split nu = nu0 + M w with w integral and M^{-1} nu0 in [0, 1)^g;
        t, when given, is M^{-1} nu, which is then not computed again.

        Returns (nu0, w).
        """
        if t is None:
            t = self.to_lattice_coords(nu)
        w = [x.numerator // x.denominator for x in t]  # floor
        nu0 = [Fraction(a) - b for a, b in zip(nu, self.from_lattice_coords(w))]
        return nu0, w

    def inner_product(self, mu, nu) -> Fraction:
        self.check_length(mu, nu)
        k, d = self.scaled_inner_product
        m, a = over_denominator(mu)
        n, b = over_denominator(nu)
        return Fraction(_dot(m, [_dot(row, n) for row in k]), d * a * b)


def trivialization_valuation(data: DegenerationData, w, den: int = 1) -> Fraction:
    """Quadratic-plus-linear valuation (w^T G w + l^T w)/2 at the
    Y-coordinates w / den: (w^T G w + den l^T w) / (2 den^2), so that
    rational coordinates enter as integer numerators over one denominator.

    Integer-valued on the lattice by the parity condition enforced at
    construction; returned as an exact Fraction for uniformity.
    """
    w = list(w)
    data.check_length(w)
    quad = _dot(w, [_dot(row, w) for row in data.gram])
    return Fraction(quad + den * _dot(data.linear_part, w), 2 * den * den)


def trivialization_valuation_real(data: DegenerationData, nu) -> Fraction:
    """Unique quadratic extension of the lattice valuation to X*_Q: the same
    form evaluated at the rational Y-coordinates of nu."""
    return trivialization_valuation(data, *data.scaled_lattice_coords(nu))


def automorphy_factor(data: DegenerationData, w, nu) -> Fraction:
    """1-cocycle value c(w) + <F w, nu> controlling lattice translations."""
    data.check_length(w, nu)
    n, e = over_denominator(nu)
    pairing = Fraction(_dot(mat_vec(data.polarization_matrix, list(w)), n), e)
    return trivialization_valuation(data, w) + pairing


@dataclass(frozen=True)
class ComponentGroup:
    """The finite group X*/Y presented by its invariant factors."""

    invariant_factors: list  # d_1 | d_2 | ... with unit factors dropped
    exponent: int
    representatives: list | None  # X*-vectors, one per element (or None)
    _transform: list = field(repr=False)        # U with U M V = diag
    _diagonal: list = field(repr=False)         # full SNF diagonal incl. units

    @property
    def order(self) -> int:
        return math.prod(self._diagonal)

    def reduce(self, v) -> tuple:
        """Canonical residue tuple of an X*-vector modulo the lattice."""
        image = mat_vec(self._transform, list(v))
        return tuple(int(x) % d for x, d in zip(image, self._diagonal))


def component_group(data: DegenerationData) -> ComponentGroup:
    """Component group of the degeneration via Smith normal form.

    Representatives are enumerated only when the order is at most
    ``DEFAULT_ENUMERATION_BOUND``.
    """
    diag, u, _v = smith_normal_form(data.embedding)
    if any(d == 0 for d in diag):
        raise InputError("embedding matrix must be nonsingular")
    u_inv = int_matrix_inverse(u)
    factors = [d for d in diag if d != 1]
    exponent = diag[-1] if diag else 1
    reps = None
    if math.prod(diag) <= DEFAULT_ENUMERATION_BOUND:
        reps = [mat_vec(u_inv, idx) for idx in product(*map(range, diag))]
    return ComponentGroup(
        invariant_factors=factors if factors else [1],
        exponent=exponent,
        representatives=reps,
        _transform=u,
        _diagonal=diag,
    )
