"""Test-side references and helpers.

Superseded or retired paths of the library, kept as references for
tests: all but the rank-2 cells were replaced by a closed form or a faster
method, and the tests check the replacement against them.

* the Tate parameter by compositional inversion of the j-expansion
  (``series_compose_invert`` on int lists), and j evaluated back from
  a parameter, against ``tate.tate_parameter``'s fixed point;
* the real q by bisection on j (from Lambert sums and mpmath's
  q-Pochhammer symbol, not the integer q-expansions), alpha^2 = scale2
  from the ratio of c4, c6 to c4(q), c6(q) (the library's route before
  the rate of the uniformization), and the uniformizer
  u by bisection on the x-series and by Newton steps on it (the library's
  route before Carlson's R_F, with the two-sided x- and eta-series),
  against ``arch``'s periods and u from Landen's chain;
* the point of the Tate curve at a parameter z by exact rational sums of
  the coordinate series, against ``tate.tate_curve_point``'s Lambert sums
  on integers mod a power of p; and the library's per-term loop from two
  versions back, the two-sided sums on integers with three modular
  inverses per term (``three_inverse_tate_curve_point``), against its one
  batch of the units 1 - q/z and 1 - q^m, bit for bit;
* the curve invariants b2..b8, c4, c6, disc and j by their Fraction
  formulas, one invariant from the next (``fraction_invariants``), against
  ``WeierstrassCurve``'s one integer pass on the integral model;
* the rank-2 domains of linearity by exact half-plane clipping, with their
  lattice-periodicity check: the library keeps only the rank-1 envelope
  (``tropical.breakpoints``), and the tests check rank-2 cell shapes and
  areas against this reference;
* the p-minimal model by a stepwise search over residue triples (every
  triple at p <= 3, the one integral triple at p >= 5), against
  ``tate.minimal_model_at``'s model rebuilt from (c4, c6) by Kraus's
  conditions;
* the doubling oracle with its exact prefix (four exact doublings on
  full-size integers, with a ``seen`` set that catches a torsion orbit) run
  on every point, against ``heights.doubling_oracle``, which leaves
  torsion to ``torsion_order`` and doubles every other point split from
  the first step;
* the archimedean place in mpmath at W = bits + 40: the per-curve values
  (``mpmath_arch_context``: the roots by the trigonometric or Cardano form
  and Newton's steps, q and Omega by the AGM, both at W + log2(|j| + 1000)
  bits, the q-expansions by ``mp.polyval``, and the Landen chain's
  per-level branch values summed as series, ``chain_levels``), against
  ``arch_context``'s values on ints, each within 2^-(bits + 30); and on
  that context the point (``mpmath_elliptic_log`` and
  ``mpmath_local_height_from_uniformizer``, with R_F by ``mp.elliprf`` and
  exp, and their one-sided x-series and theta product), against ``arch``'s
  path on ints in fixed point, u within 2^-(bits - 8) and every height
  within one ulp;
* the doubling oracle's size track in mpmath at 64 + 2 n_max bits
  (``mpmath_split_estimates``), against ``heights._split_estimates``'
  binary floats of the same width on ints, every estimate within one ulp;
* the order of a torsion point by the plain 12-step walk over Mazur's
  bound (``mazur_torsion_order``), against
  ``WeierstrassCurve.torsion_order``, which tests P, 2P and 4P on ints
  and stops at the first multiple with 4 s^2 x not integral.
* the lattice coordinates M^{-1} nu, the inner product mu^T H nu with
  H = F M^{-1}, the quadratic extension of the trivialization valuation
  and the automorphy factor, each by Fraction matrix-vector products and
  sums (``fraction_lattice_coords`` and its neighbours), against
  ``DegenerationData``'s integer matrices over one denominator;
* the generated theta's term list by one ``trivialization_valuation``
  Fraction per lattice vector of the box (``fraction_theta_terms``),
  against ``generate_theta_terms``'s column build on ints;
* the closest lattice point by a depth-first Fincke-Pohst enumeration
  in Fractions over the LDL^T factors, from a Babai seed and scanning each
  level from its lowest to its highest coordinate
  (``fincke_pohst_closest``), against ``cvp.closest_lattice_point``'s
  Schnorr-Euchner search on integers.

Helpers that only tests call, so that every function in the library has a
caller in it:

* ``naive_height`` of a rational, the size the doubling estimates divide
  by 4^n;
* ``is_integral`` for a Weierstrass model;
* ``quadratic_value`` x^T G x, which certifies a closest-vector answer;
* ``coordinates_from_uniformizer``, the inverse of the elliptic log, for
  round trips at the archimedean place;
* ``convert``, the one crossing between ``arch``'s ints and mpmath: an
  ArchContext as the mpmath values of the curve's own model, and an int or
  a uniformizer either way.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import mpmath as mp

from tropical_heights import arch, heights
from tropical_heights.curves import CurvePoint, WeierstrassCurve, duplication
from tropical_heights.degeneration import trivialization_valuation
from tropical_heights.errors import InputError, PrecisionError
from tropical_heights.exact import INFINITY, PadicElement, is_prime, val_p
from tropical_heights.linalg import mat_inverse, mat_mul, mat_vec
from tropical_heights.tate import (
    Transformation,
    _e4_cubed_and_discriminant,
    _eval_int_series,
    _mod_p,
    _p_integral,
    _series_div,
    _series_mul,
    eisenstein4_coefficients,
    eisenstein6_coefficients,
    j_times_q_coefficients,
    normalize_parameter,
    sigma_coefficients,
)
from tropical_heights.tropical import _TERM_MARGIN, _ceil_sqrt


# -- power series: composition and reversion on int lists -------------------


def identity(order: int) -> list:
    return [0, 1] + [0] * (order - 2)


def compose(outer: list, inner: list) -> list:
    """outer(inner(x)), truncated to the shorter list; inner must have zero
    constant term."""
    if inner[0] != 0:
        raise InputError("composition needs inner constant term 0")
    n = min(len(outer), len(inner))
    result = [outer[n - 1]] + [0] * (n - 1)
    # Horner scheme in the truncated ring.
    for k in range(n - 2, -1, -1):
        result = _series_mul(result, inner)
        result[0] += outer[k]
    return result


def series_compose_invert(s: list) -> list:
    """Compositional inverse of s(x) = +-x + O(x^2), truncated to the same
    order; integer in, integer out.

    Solves s(g(x)) = x coefficient by coefficient; the triangular structure
    makes each new coefficient of g a linear problem.
    """
    if s[0] != 0:
        raise InputError("series must vanish at 0")
    if len(s) < 2 or s[1] not in (1, -1):
        raise InputError("leading coefficient is not a unit")
    g = [0, s[1]]
    for k in range(2, len(s)):
        composed = compose(s[: k + 1], g + [0])
        # coefficient of x^k in s(g + t x^k) is composed[k] + s1 * t
        g.append(-composed[k] * g[1])
    return g


# -- Tate parameter by reversion of the j-expansion -------------------------


def inverse_j_coefficients(order: int) -> list:
    """Integer coefficients g_n with q = sum g_n w^n, w = 1/j.

    Obtained by compositional inversion of w(q) = q / (q j(q)).
    """
    w = [0] + _series_div(identity(order)[1:], j_times_q_coefficients(order))
    return series_compose_invert(w)


def reversion_tate_parameter(curve, p: int, precision: int = 20) -> PadicElement:
    """q = sum g_n w^n at w = 1/j, summed exactly in rationals, with the
    same target precision as ``tate.tate_parameter``."""
    j = curve.j_invariant
    ell = -val_p(j, p)
    target = ell + precision + 2 * ell
    coeffs = inverse_j_coefficients(target // ell + 3)
    w = 1 / j
    acc = Fraction(0)
    power = Fraction(1)
    for c in coeffs:
        if c:
            acc += c * power
        power *= w
    return PadicElement(p, acc / Fraction(p) ** ell, ell, target - ell)


def j_from_parameter(q: PadicElement) -> tuple:
    """(representative of j(q), certified absolute precision exponent)."""
    ell = q.val()
    e4 = _eval_int_series(eisenstein4_coefficients(q.known_mod // ell + 2), q)
    disc = _eval_int_series(_e4_cubed_and_discriminant(q.known_mod // ell + 2)[1], q)
    return e4**3 / disc, q.known_mod - 2 * ell


# -- Tate curve points by exact rational sums --------------------------------


def exact_tate_curve_point(q: PadicElement, z: PadicElement) -> CurvePoint:
    """Point of the Tate curve at parameter z, via the standard coordinate
    series; exact rational representatives certified against q.known_mod.

    The two-sided sums over q^n z collapse to one-sided ones through
    t -> 1/t: the x-summand t/(1-t)^2 is invariant, while the y-summand
    t^2/(1-t)^3 turns into -t/(1-t)^3 at t = q^n / z.
    """
    ell = q.val()
    z = normalize_parameter(q, z)
    if z.rational == 1:
        raise InputError("z in q^Z maps to the origin")
    known = min(q.known_mod, z.known_mod)
    n_max = (known + 3 * ell) // ell + 2
    qr = q.rational
    zr = z.rational

    def f(t: Fraction) -> Fraction:
        return t / (1 - t) ** 2

    def g(t: Fraction) -> Fraction:
        return t * t / (1 - t) ** 3

    def h(t: Fraction) -> Fraction:
        return -t / (1 - t) ** 3

    s1 = Fraction(0)
    x = f(zr)
    y = g(zr)
    qn = Fraction(1)
    for n in range(1, n_max + 1):
        qn *= qr
        s1 += n * qn / (1 - qn)
        x += f(qn * zr) + f(qn / zr)
        y += g(qn * zr) + h(qn / zr)
    return CurvePoint.affine(x - 2 * s1, y + s1)


def three_inverse_tate_curve_point(q: PadicElement, z: PadicElement) -> CurvePoint:
    """``tate.tate_curve_point`` with the per-term loop it had two versions
    back, before batch inversion and before the Lambert sums: for each
    term n <= K // ell + 1 of the two-sided series, three
    ``pow(., -1, p^K)`` for 1 - q^n z, 1 - q^n / z and 1 - q^n.  Same
    guards, same K, same residues."""
    ell = q.val()
    z = normalize_parameter(q, z)
    if z.rational == 1:
        raise InputError("z in q^Z maps to the origin")
    p = q.prime
    known = q.known_mod
    e = val_p(1 - z.rational, p)
    if e >= z.known_mod:
        raise PrecisionError(
            f"v(1 - z) = {e} is not certified by z, known mod {p}^{z.known_mod}")
    needed = 3 * ell + 6
    if known - 2 * e < needed:
        raise PrecisionError(
            f"v(1 - z) = {e} at known_mod = {known} leaves {known - 2 * e} certified "
            f"digits of the curve equation; membership needs known_mod >= {needed + 2 * e}")
    target = known + 4 * e
    modulus = p**target
    qr = _mod_p(q.rational, p, target)
    zr = _mod_p(z.rational, p, target)
    t_over = _mod_p(q.rational / z.rational, p, target)  # q^n / z at n = 1
    s1 = sx = sy = 0
    qn = 1
    for n in range(1, target // ell + 2):
        qn = qn * qr % modulus
        t = qn * zr % modulus
        r, r_over = pow(1 - t, -1, modulus), pow(1 - t_over, -1, modulus)
        s1 += n * qn * pow(1 - qn, -1, modulus)
        sx += (t * r * r + t_over * r_over * r_over) % modulus
        sy += (t * t * r**3 - t_over * r_over**3) % modulus
        t_over = t_over * qr % modulus
    u_inv = _mod_p(p**e / (1 - z.rational), p, target)  # 1 - z = p^e u
    a = (zr * u_inv**2 + p ** (2 * e) * (sx - 2 * s1)) % modulus
    b = (zr * zr * u_inv**3 + p ** (3 * e) * (sy + s1)) % modulus
    return CurvePoint.affine(Fraction(a, p ** (2 * e)), Fraction(b, p ** (3 * e)))


# -- curve invariants by their Fraction formulas -----------------------------


def fraction_invariants(curve: WeierstrassCurve) -> dict:
    """b2, b4, b6, b8, c4, c6, disc and j of the curve's own coefficients,
    each a Fraction expression in the ones before it."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2**2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6,
            "discriminant": disc, "j_invariant": c4**3 / disc}


# -- minimal models by a search over residues --------------------------------


def compose_transformations(first: Transformation, second: Transformation) -> Transformation:
    """The substitution that applies ``first`` and then ``second``."""
    return Transformation(
        u=first.u * second.u,
        r=first.u**2 * second.r + first.r,
        s=first.s + first.u * second.s,
        t=first.u**3 * second.t + first.s * first.u**2 * second.r + first.t,
    )


def scan_minimal_model_at(curve: WeierstrassCurve, p: int) -> tuple:
    """A p-minimal model together with the transformation old -> new.

    First scales into p-integrality, then greedily searches one u = p step
    at a time over the complete residue ranges r mod p^2, s mod p,
    t mod p^3; the loop reduces v_p(disc) by 12 each time it succeeds, so
    termination and minimality are immediate.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    trans = Transformation.identity()
    cur = curve
    # clear p from denominators
    worst = 0
    for i, name in ((1, "a1"), (2, "a2"), (3, "a3"), (4, "a4"), (6, "a6")):
        v = val_p(getattr(curve, name), p)
        if v is not INFINITY and v < 0:
            need = (-v + i - 1) // i
            worst = max(worst, need)
    if worst:
        step = Transformation(Fraction(1, p**worst), Fraction(0), Fraction(0), Fraction(0))
        cur = cur.transform(step.u, step.r, step.s, step.t)
        trans = compose_transformations(trans, step)

    while True:
        vd = val_p(cur.discriminant, p)
        vc4 = val_p(cur.c4, p)
        if vd is INFINITY:
            raise InputError("singular curve")
        if vd < 12 or (vc4 is not INFINITY and vc4 < 4):
            break
        found = None
        for r, s, t in _substitution_candidates(cur, p):
            cand = cur.transform(p, r, s, t)
            if _p_integral(cand, p):
                found = (
                    Transformation(Fraction(p), Fraction(r), Fraction(s), Fraction(t)),
                    cand,
                )
                break
        if not found:
            break
        step, cur = found
        trans = compose_transformations(trans, step)
    return cur, trans


def _substitution_candidates(curve: WeierstrassCurve, p: int):
    """Complete residue triples (r mod p^2, s mod p, t mod p^3) that could
    make transform(p, r, s, t) p-integral.

    For p >= 5 integrality of a1', a2', a3' pins the triple uniquely; for
    p in {2, 3} the full (small) ranges are searched.
    """
    if p <= 3:
        for r in range(p**2):
            for s in range(p):
                for t in range(p**3):
                    yield r, s, t
        return
    inv2 = pow(2, -1, p**3)
    inv3 = pow(3, -1, p**2)
    s = -_mod_p(curve.a1, p) * inv2 % p
    r = (_mod_p(curve.a2, p, 2) - s * s - s * _mod_p(curve.a1, p, 2)) * (-inv3) % p**2
    t = (-_mod_p(curve.a3, p, 3) - r * _mod_p(curve.a1, p, 3)) * inv2 % p**3
    yield r, s, t


# -- torsion: the plain walk over Mazur's bound --------------------------------


def mazur_torsion_order(curve, point):
    """Order of the point if it is at most 12 (Mazur's bound over Q), else
    None, by up to 12 exact additions with no early exit; the reference for
    ``WeierstrassCurve.torsion_order``."""
    acc = CurvePoint.zero()
    for n in range(1, 13):
        acc = curve.add(acc, point)
        if acc.infinity:
            return n
    return None


# -- doubling oracle with the exact prefix for every point --------------------


def _x_double(n: int, d: int, b: tuple, res: int) -> tuple:
    """One exact x-only duplication step on a coprime integer pair (n : d),
    returned reduced with d > 0, or (1, 0) when 2P = O."""
    num, den = duplication(n, d, b)
    if den == 0:
        return (1, 0)
    g = heights._common_factor(num, den, res)
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    return num, den


def mpmath_split_estimates(n: int, d: int, b: tuple, res: int, first: int, last: int) -> list:
    """Estimates 4^-k log max(|n_k|, d_k) for k = first..last, from the
    reduced pair (n, d) at step first - 1, without full-size integers.

    The pair is kept modulo M = res^(steps + 2).  Each step's common
    factor g_k divides res, so it is read exactly from residues mod res,
    and the pair and M are divided by it.  The sizes are tracked in
    floating point, log d_{k+1} = 4 log d_k + log|G(x_k)| - log g_k and
    x_{k+1} = F(x_k) / G(x_k) with F, G the duplication polynomials, at
    64 + 2 * last bits: the doubling map loses about one bit per step.
    """
    b2, b4, b6, b8 = b
    modulus = res ** (last - first + 3)
    estimates = []
    with mp.workprec(64 + 2 * last):
        x = mp.mpf(n) / d
        log_d = mp.log(d)
        n, d = n % modulus, d % modulus
        for step in range(first, last + 1):
            num, den = duplication(n, d, b)
            g = heights._common_factor(num, den, res)
            n, d = num % modulus // g, den % modulus // g
            modulus //= g
            fx = ((x * x - b4) * x - 2 * b6) * x - b8
            gx = ((4 * x + b2) * x + 2 * b4) * x + b6
            log_d = 4 * log_d + mp.log(abs(gx)) - mp.log(g)
            x = fx / gx
            estimates.append(float((log_d + mp.log(max(abs(x), 1))) / 4**step))
    return estimates


# Over Q every torsion orbit under doubling repeats or reaches O within
# this many steps (Mazur: orders 1-10 and 12), so the exact prefix sees it.
_EXACT_STEPS = 4


def exact_prefix_doubling_oracle(curve, point, n_max: int = 10):
    """The doubling oracle with an exact prefix on every point: its first
    min(n_max, 4) doublings are exact on full-size integers, where a
    torsion orbit cycles or reaches O, before the split steps; the
    reference for ``heights.doubling_oracle``, which leaves torsion to
    ``torsion_order``."""
    b, res = heights.CurveModel.at(curve).duplication
    x = point.x * curve.integral_scale**2
    n, d = x.numerator, x.denominator
    estimates, seen = [], {(n, d)}
    exact_steps = min(n_max, _EXACT_STEPS)
    for step in range(1, exact_steps + 1):
        n, d = _x_double(n, d, b, res)
        if d == 0 or (n, d) in seen:
            return heights.DoublingOracleResult(0.0, tuple(estimates), True)
        seen.add((n, d))
        estimates.append(math.log(max(abs(n), d)) / 4**step)
    estimates += heights._split_estimates(n, d, b, res, exact_steps + 1, n_max)
    value = (4 * estimates[-1] - estimates[-2]) / 3
    return heights.DoublingOracleResult(value / 2, tuple(estimates), False)


# -- lattice coordinates and the cocycle in Fractions ------------------------


def fraction_lattice_coords(data, nu) -> list:
    """M^{-1} nu by a Fraction mat_vec over the Fraction inverse of M."""
    return mat_vec(mat_inverse(data.embedding), [Fraction(x) for x in nu])


def fraction_inner_product(data, mu, nu) -> Fraction:
    """mu^T H nu as a g^2 Fraction double sum over H = F M^{-1}."""
    h = mat_mul(data.polarization_matrix, mat_inverse(data.embedding))
    g = data.rank
    return sum(Fraction(mu[i]) * h[i][j] * Fraction(nu[j]) for i in range(g) for j in range(g))


def _fraction_valuation(data, t) -> Fraction:
    g = data.rank
    quad = sum(Fraction(t[i]) * data.gram[i][j] * t[j] for i in range(g) for j in range(g))
    return (quad + sum(a * Fraction(b) for a, b in zip(data.linear_part, t))) / 2


def fraction_valuation_real(data, nu) -> Fraction:
    """(t^T G t + l^T t) / 2 at the Fraction lattice coordinates t of nu."""
    return _fraction_valuation(data, fraction_lattice_coords(data, nu))


def fraction_automorphy_factor(data, w, nu) -> Fraction:
    """c(w) + <F w, nu> in Fractions."""
    fw = mat_vec(data.polarization_matrix, [Fraction(x) for x in w])
    return _fraction_valuation(data, w) + sum(a * Fraction(b) for a, b in zip(fw, nu))


# -- the generated term list, one Fraction per term --------------------------


def fraction_theta_terms(data, constant=0) -> dict:
    """The term dict of ``generate_theta_terms`` built term by term: u = F w
    and ``trivialization_valuation(data, w) + constant`` for each w of the
    certified box, in ``itertools.product`` order."""
    g = data.rank
    ginv = data.gram_inverse
    h = [x / 2 for x in mat_vec(ginv, data.linear_part)]
    r2 = Fraction(sum(abs(x) for row in data.gram for x in row), 4)
    bounds = []
    for i in range(g):
        spread = max(abs(h[i]), abs(1 + h[i]))
        coord = _ceil_sqrt(r2 * ginv[i][i])
        extra = spread.numerator // spread.denominator + 1
        bounds.append(extra + coord + _TERM_MARGIN)
    f = data.polarization_matrix
    terms = {}
    for w in product(*[range(-b, b + 1) for b in bounds]):
        u = tuple(
            sum(f[i][j] * w[j] for j in range(g)) for i in range(g)
        )
        terms[u] = trivialization_valuation(data, w) + Fraction(constant)
    return terms


# -- closest vectors: Fincke-Pohst enumeration in Fractions -----------------


def floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for rational x >= 0, exact."""
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    return math.isqrt(p * q) // q


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def fincke_pohst_closest(ldl, target) -> tuple[list, Fraction]:
    """Minimize (w + target)^T G (w + target) over integer vectors w, given
    ldl = (L, D) with G = L diag(D) L^T from ``linalg.ldl_decompose``.

    Returns (argmin, minimum).  The result is certified: the enumeration
    visits every integer point whose form value could beat the incumbent.
    """
    n = len(target)
    t = [Fraction(x) for x in target]
    lmat, diag = ldl

    def form_value(x):
        # G = L D L^T gives (x+t)^T G (x+t) = sum_i d_i y_i^2 with
        # y_i = (x+t)_i + sum_{j>i} L[j][i] (x+t)_j, so y_i only depends on
        # coordinates >= i and the enumeration can fix them tail-first.
        total = Fraction(0)
        for i in range(n):
            y = x[i] + t[i] + sum(lmat[j][i] * (x[j] + t[j]) for j in range(i + 1, n))
            total += diag[i] * y * y
        return total

    # Babai rounding from the last coordinate down seeds the search radius.
    seed = [0] * n
    for i in range(n - 1, -1, -1):
        c = t[i] + sum(lmat[j][i] * (seed[j] + t[j]) for j in range(i + 1, n))
        seed[i] = -_round_half_up(c)

    best_val = form_value(seed)
    best_vec = list(seed)
    if best_val == 0:
        return best_vec, best_val

    def recurse(i, tail_sum, x):
        nonlocal best_val, best_vec
        c = t[i] + sum(lmat[j][i] * (x[j] + t[j]) for j in range(i + 1, n))
        budget = best_val - tail_sum
        if budget < 0:
            return
        r = floor_sqrt(budget / diag[i])  # |x_i + c| <= sqrt(budget/d_i)
        lo = -c - r - 1
        hi = -c + r + 1
        lo_i = lo.numerator // lo.denominator
        hi_i = -((-hi.numerator) // hi.denominator)
        for xi in range(lo_i, hi_i + 1):
            y = xi + c
            contrib = diag[i] * y * y
            if contrib > budget:
                continue
            x[i] = xi
            if i == 0:
                val = tail_sum + contrib
                if val < best_val:
                    best_val = val
                    best_vec = list(x)
            else:
                recurse(i - 1, tail_sum + contrib, x)
        x[i] = 0

    recurse(n - 1, Fraction(0), [0] * n)
    return best_vec, best_val


# -- helpers that only tests call -------------------------------------------


def naive_height(x: Fraction) -> float:
    """log max(|numerator|, denominator) of a rational number."""
    x = Fraction(x)
    return math.log(max(abs(x.numerator), x.denominator, 1))


def is_integral(curve) -> bool:
    return all(
        getattr(curve, n).denominator == 1 for n in ("a1", "a2", "a3", "a4", "a6")
    )


def quadratic_value(gram, x) -> Fraction:
    n = len(x)
    return sum(
        Fraction(x[i]) * gram[i][j] * Fraction(x[j]) for i in range(n) for j in range(n)
    )


# -- archimedean place: the per-curve values in mpmath, and the boundary ------


def _q_expansions(q, eps) -> tuple:
    """(c4, sigma_1, Delta) at q: the integer q-expansions of ``tate``
    summed by Horner's rule in mpmath, each to less than eps (relative to q
    for sigma_1 and Delta, which start at q) by its n-th coefficient's
    bound: 240 zeta(3) n^3, n^2 and |tau(n)| <= d(n) n^5.5 <= 2 n^6.  It is
    the coefficient-list reference for the Lambert sums and the product
    that ``arch._q_expansions`` sums on ints."""
    rel = eps * abs(q)
    lists = (eisenstein4_coefficients(_terms(q, eps, 289, 3)),
             sigma_coefficients(1, _terms(q, rel, 1, 2)),
             _e4_cubed_and_discriminant(_terms(q, rel, 2, 6))[1][1:])
    c4, sigma1, disc_over_q = (mp.polyval(c[::-1], q) for c in lists)
    return c4, sigma1, q * disc_over_q


def _terms(q, eps, growth, power) -> int:
    """Terms of sum c_n q^n, |c_n| <= growth n^power, that leave out less
    than eps: the first n with growth n^power |q|^n < eps / 2, past which
    the bound falls by more than half per term (|q| <= e^-pi)."""
    n = int(mp.log(eps / (2 * growth)) / mp.log(abs(q)))
    if n > 100000:
        raise PrecisionError("q-series failed to converge")
    while growth * n**power * abs(q) ** n >= eps / 2:
        n += 1
    return n


def _mp(value):
    return mp.mpf(value.numerator) / value.denominator


def _real_q(curve: WeierstrassCurve):
    """(q, real roots t of t^3 + p t + r, real period Omega): q = e^{2 pi i
    tau} from the periods by the AGM (Cohen, GTM 138, Alg. 7.4.7), with tau
    on the real branch of the discriminant sign: tau = i s with s >= 1 when
    disc > 0, tau = (1 + i s)/2 with s >= 1 when disc < 0."""
    # 4x^3 + b2 x^2 + 2 b4 x + b6 = 4(t^3 + p t + r) with t = x + b2/12:
    # the trigonometric or Cardano form, then two Newton steps
    p, r = -_mp(curve.c4) / 48, -_mp(curve.c6) / 864
    if curve.discriminant > 0:
        m = 2 * mp.sqrt(-p / 3)
        phi = mp.acos(max(-1, min(1, 3 * r / (p * m)))) / 3
        roots = [m * mp.cos(phi - 2 * mp.pi * i / 3) for i in range(3)]
    else:
        d = mp.sqrt(r * r / 4 + p**3 / 27)
        roots = [sum(mp.sign(v) * mp.cbrt(abs(v)) for v in (d - r / 2, -d - r / 2))]
    for _ in range(2):
        roots = [t - (t**3 + p * t + r) / (3 * t * t + p) for t in roots]
    roots = sorted(roots, reverse=True)
    if curve.discriminant > 0:
        e1, e2, e3 = roots
        a = mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
        b = mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        return mp.exp(-2 * mp.pi * max(a / b, b / a)), roots, mp.pi / a
    # beta = |3 e1 + b2/4| and alpha = sqrt(3 e1^2 + b2 e1/2 + b4/2) at t;
    # Omega = 2 pi / agm(2 sqrt(alpha), sqrt(2 alpha + 3 e1)), signed e1
    beta, alpha = 3 * abs(roots[0]), mp.sqrt(3 * roots[0] ** 2 + p)
    a = mp.agm(2 * mp.sqrt(alpha), mp.sqrt(2 * alpha + beta))
    b = mp.agm(2 * mp.sqrt(alpha), mp.sqrt(2 * alpha - beta))
    return -mp.exp(-mp.pi * a / b), roots, 2 * mp.pi / (a if roots[0] > 0 else b)


@dataclass(frozen=True)
class MpmathContext:
    """The per-curve values of ``arch.ArchContext`` as mpmath numbers, on
    the curve's own model."""

    curve: WeierstrassCurve
    precision_bits: int
    q: mp.mpf
    ell: mp.mpf                  # -log|q|
    rate: mp.mpf | mp.mpc        # d(log u)/dz: 2 pi i/Omega, -ell/Omega or -2 ell/Omega
    scale2: mp.mpf               # rate^2, real: t = scale2 (X(u) + 1/12)
    sigma1: mp.mpf               # sum n q^n / (1 - q^n), the x-series constant
    roots: tuple                 # real roots e1 [> e2 > e3] of t^3 + p t + r
    omega: mp.mpf                # the real period
    torsion_x: tuple             # normalized x(-1) [< x(-sqrt q) < x(sqrt q)]
    twisted: bool                # c6 > 0: the real locus is |u| = 1 [and |u| = sqrt(q)]
    levels: tuple                # (b+ + b-, (b+ - b-)^2), b+- = P_{q_k}(+-sqrt(q_k)), per level


def mpmath_arch_context(curve: WeierstrassCurve, precision_bits: int = 128) -> MpmathContext:
    """The per-curve values in mpmath at W = precision_bits + 40: the
    library's path before it moved to ints, the reference for
    ``arch.arch_context``.  q and the roots are worked at W + log2(|j| +
    1000) bits: near the cusp e2 - e3 ~ sqrt(q) and q = exp(-2 pi a/b)
    cancel about log2(1/|q|) < log2(|j| + 1000) of their bits."""
    j = curve.j_invariant
    with mp.workprec(precision_bits + 40 + (abs(j.numerator) // j.denominator + 1000).bit_length()):
        q, roots, omega = _real_q(curve)
    with mp.workprec(precision_bits + 40):
        eps = mp.mpf(2) ** (-(precision_bits + arch._TERM_GUARD))
        j = _mp(j)
        c4q, sigma1, disc = _q_expansions(q, eps)
        if abs(c4q**3 / disc - j) > (abs(j) + 1728) * mp.mpf(2) ** (-(precision_bits - 10)):
            raise PrecisionError("q-inversion did not reproduce j to tolerance")
        ell = -mp.log(abs(q))
        # d(log u)/dz = 2 pi i / omega_1 for the period omega_1 that q^Z
        # leaves: the real period when c6 > 0, else the imaginary one
        rate = (mp.mpc(0, 2 * mp.pi / omega) if curve.c6 > 0
                else -ell / omega if q > 0 else -2 * ell / omega)
        scale2 = mp.re(rate * rate)
        torsion_x = tuple(sorted(t / scale2 - mp.mpf(1) / 12 for t in roots))
        return MpmathContext(curve, precision_bits, q, ell, rate, scale2, sigma1,
                             tuple(roots), omega, torsion_x, curve.c6 > 0,
                             chain_levels(q, precision_bits))


def chain_levels(q, precision_bits: int) -> tuple:
    """The per-level constants of ``arch.ArchContext.levels`` summed
    directly, for as many levels as the library takes: (b+ + b-, (b+ -
    b-)^2) with b+- = P_{q_k}(+-w) = 2 sum over odd j of f((+-w)^j), f(t) =
    t/(1 - t)^2, w = sqrt(q_k) (imaginary at level 0 when q < 0), summed
    while |w^j| >= 2^-(bits + 60)."""
    bits = precision_bits + 40 + int(1 / abs(q)).bit_length()
    eps, w, levels = mp.mpf(2) ** -(bits + 60), mp.sqrt(mp.mpc(q)), []

    def branch(w):
        total, wj = 0, w
        while abs(wj) >= eps:
            total, wj = total + 2 * wj / (1 - wj) ** 2, wj * w * w
        return total

    with mp.workprec(bits + 60):
        for _ in range((-(-bits // (bits - precision_bits - 41))).bit_length()):
            plus, minus = branch(w), branch(-w)
            levels.append((mp.re(plus + minus), mp.re((plus - minus) ** 2)))
            w = w * w  # +-q and +-|q| are the same pair
    return tuple(levels)


def convert(ctx, value=None):
    """The boundary between ``arch``'s ints at scale 2^ctx.bits and mpmath.
    With no value, the ArchContext as an MpmathContext of the curve's own
    model; an int as an mpf; a uniformizer (re, im) of ints as an mpc on
    the twisted form and as the mpf re otherwise; an mpmath number or a
    float as that pair of ints."""
    if isinstance(value, (mp.mpf, mp.mpc, float)):
        return int(mp.ldexp(mp.re(value), ctx.bits)), int(mp.ldexp(mp.im(value), ctx.bits))
    with mp.workprec(ctx.bits + 64):  # wide enough to hold every int exactly

        def real(v, e=0):  # v 2^(e - bits), 2^e from the model x -> x / 4^shift back
            return mp.ldexp(mp.mpf(v), e - ctx.bits)

        if isinstance(value, int):
            return real(value)
        if isinstance(value, tuple):
            return mp.mpc(real(value[0]), real(value[1])) if ctx.twisted else real(value[0])
        s, q, ell, omega = ctx.shift, real(ctx.q), real(ctx.ell), real(ctx.omega, -ctx.shift)
        rate = (mp.mpc(0, 2 * mp.pi / omega) if ctx.twisted
                else -ell / omega if q > 0 else -2 * ell / omega)
        return MpmathContext(ctx.curve, ctx.precision_bits, q, ell, rate, real(ctx.scale2, 2 * s),
                             real(ctx.sigma1), tuple(real(e, 2 * s) for e in ctx.roots), omega,
                             tuple(map(real, ctx.torsion_x)), ctx.twisted,
                             tuple((real(a), real(b, -ctx.bits)) for a, b in ctx.levels))


def coordinates_from_uniformizer(ctx, u):
    """(x, y) on the original model from a uniformizer (round-trip support)."""
    ctx = convert(ctx)
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + arch._TERM_GUARD))
        q = ctx.q
        x_q = x_series(u, q, eps, ctx.sigma1)
        eta_q = eta_series(u, q, eps)
        curve = ctx.curve
        x = ctx.scale2 * (x_q + mp.mpf(1) / 12) - _mp(curve.b2) / 12
        y = (alpha3(ctx) * eta_q - _mp(curve.a1) * x - _mp(curve.a3)) / 2
        return x, y


def alpha3(ctx):
    """alpha^3 for alpha = sqrt(scale2), imaginary when scale2 < 0: the
    factor in 2y + a1 x + a3 = alpha^3 (2Y + X)."""
    return mp.sqrt(mp.mpc(ctx.scale2)) ** 3


# -- archimedean place: the two-sided series, u by Newton on the arc --------


def x_series(u, q, eps, sigma1):
    """The Tate x-series at any u in C*, both sums in full: the reference
    for ``arch._x_series``, which sums one side on the real locus."""

    def f(t):
        return t / (1 - t) ** 2

    total = f(u) - 2 * sigma1
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += f(qn * u) + f(qn / u)


def eta_series(u, q, eps):
    """2Y + X = sum over n of g(q^n u) with g(t) = t(1+t)/(1-t)^3, odd
    under t -> 1/t."""

    def g(t):
        return t * (1 + t) / (1 - t) ** 3

    total = g(u)
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += g(qn * u) - g(qn / u)


def normalized_x(ctx, x):
    return (x + _mp(ctx.curve.b2) / 12) / ctx.scale2 - mp.mpf(1) / 12


def eta_target(ctx, point: CurvePoint):
    curve = ctx.curve
    return _mp(2 * point.y + curve.a1 * point.x + curve.a3) / alpha3(ctx)


_NEWTON_GUARD = 200
_SEED_BITS = 32


def newton_elliptic_log(ctx, point: CurvePoint):
    """Uniformizer u of a real point by Newton steps on the x-series along
    its arc, the library's route before Carlson's R_F; the reference for
    ``arch.elliptic_log``, normalized the same way."""
    ctx = convert(ctx)
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    if not ctx.curve.contains(point):
        raise InputError("point is not on the curve")
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + arch._TERM_GUARD))
        q = ctx.q
        x_target = normalized_x(ctx, _mp(point.x))
        eta_t = eta_target(ctx, point)
        tiny = mp.mpf(2) ** (-(ctx.precision_bits + 5))
        slack = mp.mpf(2) ** -ctx.precision_bits
        root, tx = (mp.sqrt(q) if q > 0 else None), ctx.torsion_x
        # each real component is an arc u = ends[0] exp(k theta), 0 <= theta
        # <= pi, on which x is monotone
        if ctx.twisted:
            k, ends, x_ends = mp.mpc(0, 1), (1, mp.mpf(-1)), (None, tx[0])
            if q > 0 and x_target > tx[0] + slack * (1 + abs(tx[0])):
                ends, x_ends = (root, -root), (tx[2], tx[1])
        elif q > 0:
            k, ends, x_ends = -ctx.ell / (2 * mp.pi), (1, root), (None, tx[2])
            if x_target < tx[2] - slack * (1 + abs(tx[2])):
                ends, x_ends = (mp.mpf(-1), -root), (tx[0], tx[1])
        else:
            k, ends, x_ends = -ctx.ell / mp.pi, (1, mp.mpf(-1)), (None, tx[0])
        if eta_t == 0:
            i = 1 if x_ends[0] is None else min((0, 1), key=lambda i: abs(x_ends[i] - x_target))
            u = ends[i]
            err = mp.re(x_series(u, q, eps, ctx.sigma1)) - x_target
        else:
            u, err, eta_u = _newton_on_arc(ctx, ends[0], k, x_ends, x_target, tiny)
            if not ctx.twisted:
                if abs(eta_t) > tiny and mp.sign(mp.re(eta_u)) != mp.sign(mp.re(eta_t)):
                    u = q / u
            elif abs(mp.im(eta_t)) > tiny and mp.sign(mp.im(eta_u)) != mp.sign(mp.im(eta_t)):
                u = mp.conj(u)  # inverse class on either circle
        if abs(err) > (1 + abs(x_target)) * mp.mpf(2) ** (-(ctx.precision_bits // 2)):
            raise PrecisionError("uniformizer round-trip failed; raise precision")
        return mp.mpc(u) if ctx.twisted else u


def _newton_on_arc(ctx, start, k, x_ends, x_target, tiny):
    """Solve x(u) = x_target on the arc u = start exp(k theta), 0 < theta <
    pi; returns (u, x(u) - x_target, 2Y + X at the last Newton point).

    Newton runs in w = sin^2(theta/2), in which x has a simple pole at the
    origin (x ~ A/w, A = 1/(4 k^2)) and is smooth through the 2-torsion ends.
    The seed fits that pole, or a line on the egg, to the end values; a step
    that leaves the bracket bisects it instead.  Steps run at 32 bits until
    they converge, then at doubling precisions, so that only the last step
    and the round-trip check run at the full working precision.
    """
    if x_ends[0] is None:
        if abs(x_target) * tiny**2 > 1:
            raise PrecisionError("point too close to the origin")
        pole = mp.re(1 / (4 * k**2))
        w = pole / (x_target - x_ends[1] + pole)
    else:
        w = (x_target - x_ends[0]) / (x_ends[1] - x_ends[0])
    if not 0 < w < 1:
        w = mp.mpf(1) / 2
    # each converged step doubles the digits, so it doubles the precision
    rungs = [ctx.precision_bits + 40]
    while rungs[0] > 2 * _SEED_BITS:
        rungs.insert(0, rungs[0] // 2 + 4)
    lo, hi, bits, done = mp.mpf(0), mp.mpf(1), _SEED_BITS, False
    for _ in range(_NEWTON_GUARD):
        with mp.workprec(bits):
            eps = mp.mpf(2) ** -bits
            theta = 2 * mp.asin(mp.sqrt(w))
            u = start * mp.exp(k * theta)
            err = mp.re(x_series(u, ctx.q, eps, ctx.sigma1)) - x_target
            if done:
                return u, err, eta_u
            eta_u = eta_series(u, ctx.q, eps)
            slope = 2 * mp.re(k * eta_u) / mp.sin(theta)  # dx/dw; dx/dlog(u) = eta
            # below the truncation noise the sign of err says nothing
            if abs(err) > (1 + abs(x_target)) * mp.mpf(2) ** (20 - bits):
                lo, hi = (lo, w) if err * slope > 0 else (w, hi)
            step = w - err / slope
            if not lo < step < hi:
                step = (lo + hi) / 2
            shrink = abs(step - w) / w
        w = step
        if shrink < mp.mpf(2) ** (4 - bits // 2):  # w now holds about bits - 8 bits
            done = bits == rungs[-1]
            bits = next((b for b in rungs if b > bits), bits)
    raise PrecisionError("Newton on the uniformizer did not converge")


# -- archimedean place: the per-point path in mpmath ----------------------


def mpmath_x_series(u, q, eps, sigma1):
    """Normalized x at u on the real locus, summed while |q^n| >= eps: the
    library's round-trip series in mpmath, before it moved to ints.  A
    complex u sits on |u| = 1 or |u| = sqrt(q), where the term at q^n/u is
    the conjugate of the term at q^n u or at q^(n-1) u, so one complex term
    per n does.  For eps <= |q| and |q| <= |u| <= 1 the terms left out sum
    to less than 1.2 eps/|q|: they have n >= 2, where |q^n u| <= |q|^n and
    |q^n/u| <= |q|^(n-1) <= |q| <= e^-pi bound |f(t)| by |t| / (1 - |q|)^2,
    and their sum is geometric."""

    def f(t):
        return t / (1 - t) ** 2

    circle = isinstance(u, mp.mpc)
    if circle:  # |u| = sqrt(q) < 1/2 counts the n = 0 term twice
        total = (2 if abs(u) < 0.5 else 1) * mp.re(f(u)) - 2 * sigma1
    else:
        total = f(u) - 2 * sigma1
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total += 2 * mp.re(f(qn * u)) if circle else f(qn * u) + f(qn / u)


def mpmath_theta_product(u, q, eps):
    total = 1 - u
    qn = mp.mpf(1)
    while True:
        qn *= q
        if abs(qn) < eps:
            return total
        total *= (1 - qn * u) * (1 - qn / u)


def mpmath_carlson_log(ctx, t):
    """Elliptic logarithm z in (0, Omega/2] of a point of the identity
    component, t > e1: R_F(t - e1, t - e2, t - e3) (Carlson 1995).  With
    one real root it takes the real form of the integral for one quadratic
    factor (Byrd-Friedman 239.00 with F(phi, k) in Carlson's R_F), in which
    A^2 = (e1 - e2)(e1 - e3) = 3 e1^2 + p; for t - e1 < A the angle passes
    pi/2, that form gives F(pi - phi) and z = Omega/2 - w."""
    if len(ctx.roots) == 3:
        e1, e2, e3 = ctx.roots
        return mp.elliprf(t - e1, t - e2, t - e3)
    e1 = ctx.roots[0]
    s, a = t - e1, mp.sqrt(3 * e1**2 - _mp(ctx.curve.c4) / 48)
    w = mp.elliprf((s - a) ** 2 / s, s + 3 * e1 + a * a / s, (s + a) ** 2 / s)
    return w if s >= a else ctx.omega / 2 - w


def mpmath_elliptic_log(ctx, point: CurvePoint):
    """Uniformizer u in C*/q^Z of a real point, normalized so that
    0 <= -log|u| < ell: the library's path in mpmath before it moved to
    ints, the reference for ``arch.elliptic_log``.  Raises PrecisionError
    near the origin when the working precision cannot separate the point
    from u = 1."""
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    curve = ctx.curve
    if not curve.contains(point):
        raise InputError("point is not on the curve")
    with mp.workprec(ctx.precision_bits + 40):
        q = ctx.q
        t = _mp(point.x + curve.b2 / 12)
        x_target = t / ctx.scale2 - mp.mpf(1) / 12
        # 2y + a1 x + a3 = alpha^3 (2Y + X), alpha = sqrt(scale2), has the
        # sign of 2Y + X, or of its imaginary part when alpha is imaginary
        eta = 2 * point.y + curve.a1 * point.x + curve.a3
        # x_target and the end values carry about precision_bits + 30 bits,
        # so a component test needs no wider slack than 2^-precision_bits
        slack = mp.mpf(2) ** -ctx.precision_bits
        root, tx = (mp.sqrt(q) if q > 0 else None), ctx.torsion_x
        # Each real component is an arc u = ends[0] exp(rate z), 0 <= z <=
        # Omega/2, on which x is monotone.  z = 0 is the origin (x infinite)
        # on the identity component and a 2-torsion point on the egg; z =
        # Omega/2 is a 2-torsion point (u = |q| ~ -1 when q < 0 and untwisted).
        if ctx.twisted:
            ends, x_ends = (1, mp.mpf(-1)), (None, tx[0])
            if q > 0 and x_target > tx[0] + slack * (1 + abs(tx[0])):
                ends, x_ends = (root, -root), (tx[2], tx[1])  # the egg |u| = sqrt(q)
        elif q > 0:
            ends, x_ends = (1, root), (None, tx[2])
            if x_target < tx[2] - slack * (1 + abs(tx[2])):
                ends, x_ends = (mp.mpf(-1), -root), (tx[0], tx[1])  # the egg u <= -sqrt(q)
        else:
            ends, x_ends = (1, mp.mpf(-1)), (None, tx[0])
        egg = x_ends[0] is not None
        if eta == 0:
            # 2-torsion: an arc end in closed form (the egg's shift below
            # divides by t - e3, the one-root R_F form by t - e1)
            i = min((0, 1), key=lambda i: abs(x_ends[i] - x_target)) if egg else 1
            u = ends[i]
        else:
            if egg:  # add (e3, .), which moves the point to the identity component
                e1, e2, e3 = ctx.roots
                t = e3 + (e1 - e3) * (e2 - e3) / (t - e3)
            elif abs(x_target) * mp.mpf(2) ** (-2 * (ctx.precision_bits + 5)) > 1:
                raise PrecisionError("point too close to the origin")
            u = ends[0] * mp.exp(ctx.rate * mpmath_carlson_log(ctx, t))
            # dx/dlog(u) = 2Y + X keeps one sign on each arc, 0 < z < Omega/2:
            # positive on the identity arc and negative on the egg (rate < 0),
            # the other way round on the circles (rate imaginary)
            if (eta > 0) != (egg == ctx.twisted):
                u = mp.conj(u) if ctx.twisted else q / u  # the inverse class
        # the terms the series leaves out, < 1.2 eps/|q|, are below 2^-20 tol
        tol = (1 + abs(x_target)) * mp.mpf(2) ** (-(ctx.precision_bits // 2))
        err = mpmath_x_series(u, q, abs(q) * min(tol, 1) * mp.mpf(2) ** -21, ctx.sigma1) - x_target
        if abs(err) > tol:
            raise PrecisionError("uniformizer round-trip failed; raise precision")
        return mp.mpc(u) if ctx.twisted else u


def mpmath_local_height_from_uniformizer(ctx, u) -> float:
    """lambda' = (ell/2) B2(t) - log|theta(u)| with t = -log|u|/ell in [0,1):
    the library's path in mpmath before it moved to ints, the reference
    for ``arch.local_height_from_uniformizer``.

    Accepts any u in C*; reduces modulo q^Z first, so u and q u agree.
    """
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + arch._TERM_GUARD))
        q = ctx.q
        ell = ctx.ell
        t = -mp.log(abs(u)) / ell
        shift = mp.floor(t)
        if shift != 0:
            u = u * mp.mpc(q) ** int(-shift)
            t = t - shift
        theta = mpmath_theta_product(u, q, eps)
        if abs(theta) < eps * 10:
            raise InputError("theta vanishes: point on the divisor")
        b2 = (t - mp.mpf(1) / 2) ** 2 - mp.mpf(1) / 12
        return float(ell / 2 * b2 - mp.log(abs(theta)))


# -- archimedean place: alpha^2 from a ratio of q-series ---------------------


def q_expansion_c6(q, eps):
    """c6(q) = -E6(q) from ``tate``'s integer expansion by Horner's rule,
    cut where its n-th coefficient's bound 504 zeta(5) n^5 falls below eps."""
    return -mp.polyval(eisenstein6_coefficients(_terms(q, eps, 523, 5))[::-1], q)


def ratio_scale2(curve, q, eps):
    """alpha^2 with (c4, c6) = (alpha^4 c4(q), alpha^6 c6(q)), read off the
    ratio c6 c4(q) / (c6(q) c4), or off a root of the one invariant left at
    j = 0 (c4 = 0) and j = 1728 (c6 = 0): the reference for
    ``ArchContext.scale2``, which ``arch`` takes from the rate of the
    uniformization instead."""
    c4q = _q_expansions(q, eps)[0]
    c6q = q_expansion_c6(q, eps)
    c4, c6 = _mp(curve.c4), _mp(curve.c6)
    if c4 != 0 and c6 != 0:
        return (c6 * c4q) / (c6q * c4)
    if c4 == 0:
        ratio = c6 / c6q
        return mp.sign(ratio) * mp.cbrt(abs(ratio))
    if c4 / c4q < 0:
        raise PrecisionError("inconsistent quartic-twist data at j=1728")
    return mp.sqrt(c4 / c4q)


# -- archimedean place: q by bisection on j, u by bisection on x ------------


def lambert_sum(k: int, q, eps):
    """sum n^k q^n / (1 - q^n), truncated when |q|^n < eps: the sigma_k
    series summed without the library's integer q-expansions."""
    total, qn, n = mp.mpf(0), q, 1
    while abs(qn) >= eps:
        total += n**k * qn / (1 - qn)
        qn, n = qn * q, n + 1
    return total


def lambert_j(q, eps):
    """j = c4^3 / Delta with c4 = 1 + 240 sum n^3 q^n / (1 - q^n) and
    Delta = q (q; q)_inf^24 from mpmath's q-Pochhammer symbol."""
    return (1 + 240 * lambert_sum(3, q, eps)) ** 3 / (q * mp.qp(q) ** 24)


def _find_real_q(j_target, disc_positive: bool, eps):
    """Real q with j(q) = j_target and sign(q) = sign(disc).

    j is monotone on each of the real branches q in (0, e^{-2 pi}] (values
    >= 1728) and q in [-e^{-pi}, 0) (values <= 1728), so bisection on |q|
    suffices.  A real curve always has j on the branch of its discriminant
    sign (1728 disc = c4^3 - c6^2), so a target off it raises.
    """
    j_target = mp.mpf(j_target)
    # j has critical points at the elliptic fixed points, so bisection
    # would lose digits exactly there; return those corners in closed form
    if j_target == 1728:
        return mp.e ** (-2 * mp.pi) if disc_positive else -mp.e ** (-mp.pi)
    if j_target == 0 and not disc_positive:
        return -mp.e ** (-mp.pi * mp.sqrt(3))
    if disc_positive != (j_target > 1728):
        raise PrecisionError(f"j = {j_target} lies off the branch of the discriminant sign")
    if disc_positive:
        hi = mp.e ** (-2 * mp.pi)  # CM corner j = 1728, tau = i
        sign = 1
    else:
        hi = mp.e ** (-mp.pi)  # CM corner j = 1728, tau = (1 + i)/2
        sign = -1
    lo = mp.mpf(10) ** (-mp.mp.dps - 10)
    # asymptotic seed |q| ~ 1/|j|, valid once 1/q dominates the expansion
    if abs(j_target) > 1000:
        lo = max(lo, 1 / (4 * abs(j_target)))

    def f(x):
        return lambert_j(sign * x, eps)

    # j decreases in |q| on the positive branch and increases with |q|
    # toward the corner value 1728 on the negative branch.
    for _ in range(mp.mp.prec + 60):
        mid = (lo + hi) / 2
        val = f(mid)
        if disc_positive:
            if val > j_target:
                lo = mid
            else:
                hi = mid
        else:
            if val < j_target:
                lo = mid
            else:
                hi = mid
        if hi - lo < lo * mp.mpf(2) ** (-mp.mp.prec):
            break
    return sign * (lo + hi) / 2


def _bisect_monotone(func, lo, hi, target, iterations):
    f_lo, f_hi = func(lo), func(hi)
    if f_lo > f_hi:
        lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo
    slack = (abs(f_lo) + abs(f_hi) + 1) * mp.mpf(2) ** (-mp.mp.prec // 2)
    if target < f_lo - slack or target > f_hi + slack:
        raise PrecisionError(
            f"target {mp.nstr(target)} outside bracket "
            f"[{mp.nstr(f_lo)}, {mp.nstr(f_hi)}]"
        )
    target = min(max(target, f_lo), f_hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if func(mid) <= target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def bisection_elliptic_log(ctx, point: CurvePoint):
    """Uniformizer u of a real point by bisection on each monotone branch of
    the x-series, ctx.precision_bits + 50 halvings per solve; the reference
    for `arch.elliptic_log`."""
    ctx = convert(ctx)
    if point.infinity:
        raise InputError("the origin has no uniformizer")
    if not ctx.curve.contains(point):
        raise InputError("point is not on the curve")
    with mp.workprec(ctx.precision_bits + 40):
        eps = mp.mpf(2) ** (-(ctx.precision_bits + arch._TERM_GUARD))
        q = ctx.q
        x_target = normalized_x(ctx, _mp(point.x))
        eta_z = eta_target(ctx, point)
        iterations = ctx.precision_bits + 50
        disc_positive = ctx.curve.discriminant > 0
        tiny = mp.mpf(2) ** (-(ctx.precision_bits + 5))

        def x_at(u):
            val = x_series(u, q, eps, ctx.sigma1)
            return val.real if isinstance(val, mp.mpc) else val

        if not ctx.twisted:
            # real annulus: q < u <= 1 up to sign
            if disc_positive:
                root = mp.sqrt(q)
                boundary = x_at(root)
                on_identity = x_target >= boundary - mp.mpf("1e-12") * (1 + abs(boundary))
                if on_identity:
                    hi = 1 - tiny
                    if x_at(hi) < x_target:
                        raise PrecisionError("point too close to the origin")
                    u = _bisect_monotone(x_at, root, hi, x_target, iterations)
                else:
                    u = _bisect_monotone(x_at, mp.mpf(-1), -root, x_target, iterations)
            else:
                lo = abs(q) * (1 + tiny)
                hi = 1 - tiny
                if x_at(hi) < x_target:
                    raise PrecisionError("point too close to the origin")
                u = _bisect_monotone(x_at, lo, hi, x_target, iterations)
            u = mp.mpf(u)
            eta_u = eta_series(u, q, eps)
            eta_u = eta_u.real if isinstance(eta_u, mp.mpc) else eta_u
            eta_t = eta_z.real if isinstance(eta_z, mp.mpc) else eta_z
            if abs(eta_t) > tiny and mp.sign(eta_u) != mp.sign(eta_t):
                u = q / u
        else:
            # twisted real form: identity component on |u| = 1, egg (when
            # disc > 0) on |u| = sqrt(q)
            def x_circle(theta):
                return x_at(mp.exp(1j * theta))

            def x_egg(theta):
                return x_at(mp.sqrt(q) * mp.exp(1j * theta))

            boundary = x_circle(mp.pi)
            on_identity = True
            if disc_positive:
                on_identity = x_target <= boundary + mp.mpf("1e-12") * (1 + abs(boundary))
            if on_identity:
                lo_theta = tiny
                # x decreases to -infinity toward the origin on the circle
                if x_circle(lo_theta) > x_target:
                    raise PrecisionError("point too close to the origin")
                theta = _bisect_monotone(x_circle, lo_theta, mp.pi, x_target, iterations)
                u = mp.exp(1j * theta)
            else:
                theta = _bisect_monotone(x_egg, mp.mpf(0), mp.pi, x_target, iterations)
                u = mp.sqrt(q) * mp.exp(1j * theta)
            eta_u = eta_series(u, q, eps)
            eta_t_im = eta_z.imag if isinstance(eta_z, mp.mpc) else mp.mpf(0)
            if abs(eta_t_im) > tiny and mp.sign(eta_u.imag) != mp.sign(eta_t_im):
                u = mp.conj(u)  # inverse class on either circle
        check = x_series(u, q, eps, ctx.sigma1)
        check = check.real if isinstance(check, mp.mpc) else check
        if abs(check - x_target) > (1 + abs(x_target)) * mp.mpf(2) ** (
            -(ctx.precision_bits // 2)
        ):
            raise PrecisionError("uniformizer round-trip failed; raise precision")
        return u


# -- rank-2 domains of linearity by half-plane clipping ----------------------


@dataclass(frozen=True)
class Cell:
    active_term: tuple
    vertices: tuple  # coordinate tuples (Fractions), counter-clockwise


@dataclass(frozen=True)
class CellComplex:
    cells: tuple
    quotient_cells: tuple  # one representative cell per lattice orbit
    translates_checked: tuple  # per generator, quotient cells whose translate was compared


# lattice coordinates of the window: the fundamental parallelotope [0, 1)^2
# and two lattice margin layers on every side, so that on skewed embeddings
# some quotient cell and its translates by both generators lie unclipped in it
_WINDOW = (-2, 3)


def _window_corners(data):
    """Corners of the lattice window {M t : t in _WINDOW^2}, CCW."""
    lo, hi = _WINDOW
    corners_t = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    pts = [tuple(mat_vec(data.embedding, [Fraction(a), Fraction(b)])) for a, b in corners_t]
    if polygon_area2(pts) < 0:
        pts.reverse()
    return pts


def polygon_area2(pts):
    """Twice the signed area of a polygon (shoelace)."""
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
            d = normal[0] * (nxt[0] - cur[0]) + normal[1] * (nxt[1] - cur[1])
            t = (offset - normal[0] * cur[0] - normal[1] * cur[1]) / d
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    # drop consecutive duplicates
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _cells_rank2(theta) -> list:
    window = _window_corners(theta.data)
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
        if poly and abs(polygon_area2(poly)) > 0:
            cells.append(Cell(active_term=u, vertices=tuple(poly)))
    return cells


def _quotient(theta, cells) -> list:
    """Representatives: cells whose vertex centroid lies in the fundamental
    parallelotope [0,1)^2 of lattice coordinates."""
    reps = []
    for cell in cells:
        n = len(cell.vertices)
        centroid = [sum(Fraction(v[i]) for v in cell.vertices) / n for i in range(2)]
        if all(0 <= x < 1 for x in theta.data.to_lattice_coords(centroid)):
            reps.append(cell)
    return reps


def _assert_periodicity(theta, cells, reps) -> tuple:
    """A quotient cell that the window does not clip, translated by a
    lattice generator, must be a cell of the complex carrying the matching
    term shift whenever the translate lies in the window.  Returns, per
    generator, the number of translates compared."""
    data = theta.data
    lo, hi = _WINDOW
    keys = {}
    for cell in cells:
        keys.setdefault(frozenset(cell.vertices), set()).add(cell.active_term)

    def coords(vertices):
        return [c for v in vertices for c in data.to_lattice_coords(v)]

    f = data.polarization_matrix
    checked = [0, 0]
    for cell in reps:
        if not all(lo < c < hi for c in coords(cell.vertices)):
            continue  # clipped, or touching the window's edge
        for j in range(2):
            step = [data.embedding[i][j] for i in range(2)]
            shifted = frozenset(
                tuple(Fraction(v[i]) + step[i] for i in range(2)) for v in cell.vertices
            )
            if not all(lo <= c <= hi for c in coords(shifted)):
                continue
            # f(nu + M e_j) picks up the cocycle, moving the active
            # term from u to u - F e_j
            moved_term = tuple(cell.active_term[i] - f[i][j] for i in range(2))
            if moved_term not in keys.get(shifted, ()):
                raise InputError(
                    "cell complex is not lattice-periodic: "
                    f"term {cell.active_term} fails at generator {j}"
                )
            checked[j] += 1
    return tuple(checked)


def rank2_domains_of_linearity(theta) -> CellComplex:
    """Maximal rank-2 domains of linearity, clipped to the lattice window
    (the fundamental parallelotope plus two lattice margin layers on every
    side).  Cells are closed; shared edges belong to all adjacent cells."""
    cells = _cells_rank2(theta)
    reps = _quotient(theta, cells)
    checked = _assert_periodicity(theta, cells, reps)
    return CellComplex(cells=tuple(cells), quotient_cells=tuple(reps), translates_checked=checked)
