"""Exact closest-vector enumeration for positive definite integer Gram
matrices.

Strategy: the LDL^T decomposition over Q (``linalg.ldl_decompose``, which
the caller computes once per lattice) turns the quadratic form into a sum
of weighted squares; Babai-style rounding gives the initial radius, and a
depth-first Fincke-Pohst enumeration with exact per-coordinate interval
bounds certifies the true minimum.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for rational x >= 0, exact."""
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    return isqrt(p * q) // q


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def closest_lattice_point(ldl, target) -> tuple[list, Fraction]:
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
