"""Exact closest-vector search for positive definite integer Gram matrices.

Strategy: ``lattice_form`` turns the LDL^T decomposition of G over Q
(``linalg.ldl_decompose``, once per lattice) into integers, so that
S den^2 (w+t)^T G (w+t) = sum_i W_i Y_i^2 with every Y_i an integer linear
form in w.  A depth-first Schnorr-Euchner search (Math. Programming 66,
1994) over this sum of squares (Fincke-Pohst, Math. Comp. 44, 1985)
certifies the true minimum: each level starts at its rounded centre and
zigzags outward, so the first leaf is Babai's point.  The search runs on
ints alone; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError
from .linalg import ldl_decompose, over_denominator


def lattice_form(gram) -> tuple:
    """(A, N, W, S) for G = L diag(d) L^T: A_i the lcm of the denominators
    of column i of L below the diagonal, N[i][j] = A_i L[j][i] for j > i,
    W_i = S d_i / A_i^2 with S the least integer making every W_i integral.

    Then S den^2 (w+t)^T G (w+t) = sum_i W_i Y_i^2 with T = den t integral
    and Y_i = A_i (den w_i + T_i) + sum_{j>i} N[i][j] (den w_j + T_j).
    Raises InputError unless G is positive definite."""
    lmat, diag = ldl_decompose(gram)
    columns = list(zip(*lmat))  # on and above the diagonal 1 and 0: no change to the lcm
    scale = [lcm(*(x.denominator for x in col)) for col in columns]
    cross = [[a // x.denominator * x.numerator for x in col] for a, col in zip(scale, columns)]
    ratios = [d / (a * a) for d, a in zip(diag, scale)]
    s = lcm(*(r.denominator for r in ratios))
    return scale, cross, [r.numerator * (s // r.denominator) for r in ratios], s


def closest_lattice_point(form, target, den: int | None = None) -> tuple[list, Fraction]:
    """Minimize (w + t)^T G (w + t) over integer vectors w, given the
    ``lattice_form`` of G: t is the target, or the target over den.

    Returns (a closest vector, the minimum).  The minimum is certified: the
    search visits every integer point whose value could beat the incumbent,
    and only a strictly smaller value replaces it, so on a tie the vector
    is one minimizer among several.
    """
    scale, cross, weights, s = form
    n = len(weights)
    if len(target) != n:
        raise InputError(f"target needs {n} coordinates, got {len(target)}")
    shift, den = over_denominator(target) if den is None else (list(target), den)
    x = list(shift)  # den w + T, fixed from the last coordinate down
    best, best_x = None, None

    def search(i, partial):
        nonlocal best, best_x
        step = scale[i] * den
        row = cross[i]
        c = scale[i] * shift[i] + sum(row[j] * x[j] for j in range(i + 1, n))
        k = -((2 * c + step) // (2 * step))  # -round_half_up(c / step)
        y = c + k * step  # Y_i at the centre, in [-step/2, step/2)
        weight = weights[i]
        if i == 0:
            # the centre is the least Y_0^2: no other leaf can beat it
            value = partial + weight * y * y
            if best is None or value < best:
                x[0] = shift[0] + k * den
                best, best_x = value, list(x)
            return
        # zigzag k, k + e, k - e, k + 2e, ... with e toward the nearer side,
        # so |Y_i| never decreases and the first contribution over budget
        # ends the level
        x[i] = shift[i] + k * den
        e = 1 if y < 0 else -1
        while True:
            contrib = weight * y * y
            if best is not None and partial + contrib > best:
                return
            search(i - 1, partial + contrib)
            x[i] += e * den
            y += e * step
            e = -e - 1 if e > 0 else -e + 1

    search(n - 1, 0)
    return [(a - b) // den for a, b in zip(best_x, shift)], Fraction(best, s * den * den)
