"""Small exact linear algebra helpers over Z and Q.

Everything here works on plain lists of lists of ints / Fractions; sizes in
this package are tiny (the cvp command and the benchmarks reach rank 6), so
clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError

Matrix = list
Vector = list


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def over_denominator(values) -> tuple[list, int]:
    """(n, d) with values = n / d: d > 0 the least common denominator of
    the rationals (ints or Fractions), n the integer numerators over it."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def transpose(m: Matrix) -> Matrix:
    return [list(row) for row in zip(*m)]


def determinant(m: Matrix) -> Fraction:
    """Determinant by Gaussian elimination over Fractions: the product of
    the pivots, negated once per row swap."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse over Q via Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise InputError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(n))


def ldl_decompose(g: Matrix) -> tuple[Matrix, Vector]:
    """G = L D L^T with unit lower-triangular L and positive diagonal D.

    Requires G symmetric positive definite; everything stays in Q.
    """
    n = len(g)
    l = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = Fraction(g[j][j]) - sum(l[j][k] ** 2 * d[k] for k in range(j))
        if d[j] <= 0:
            raise InputError("matrix is not positive definite")
        for i in range(j + 1, n):
            s = Fraction(g[i][j]) - sum(l[i][k] * l[j][k] * d[k] for k in range(j))
            l[i][j] = s / d[j]
    return l, d


def smith_normal_form(m: Matrix) -> tuple[list, Matrix, Matrix]:
    """Smith normal form over Z.

    Returns (diag, U, V) with U * M * V = diag(d_1, ..., d_n), U and V
    unimodular, and d_1 | d_2 | ... (nonnegative).  Standard pivot/gcd
    elimination; fine for the small matrices handled here.
    """
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise InputError("square matrix required")
    u = identity_matrix(n)
    v = identity_matrix(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(n):
        # move a nonzero pivot of smallest magnitude into (t, t)
        while True:
            entries = [
                (abs(a[i][j]), i, j)
                for i in range(t, n)
                for j in range(t, n)
                if a[i][j] != 0
            ]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            done = True
            for i in range(t + 1, n):
                if a[i][t] % a[t][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    done = False
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    done = False
            if not done:
                continue
            for i in range(t + 1, n):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
            # divisibility of the remaining block by the pivot
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]

    for t in range(n):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return [a[i][i] for i in range(n)], u, v


def int_matrix_inverse(m: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, returned with int entries."""
    inv = mat_inverse(m)
    out = []
    for row in inv:
        int_row = []
        for x in row:
            if x.denominator != 1:
                raise InputError("matrix is not unimodular")
            int_row.append(x.numerator)
        out.append(int_row)
    return out
