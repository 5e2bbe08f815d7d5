"""Small exact linear algebra: row HNF and its back-substitution, the
Bareiss determinant, and one rational Gauss-Jordan for ranks and inverses.

Everything here works on Python ints and Fractions (no overflow) in plain
nested lists; the matrices involved are at most a few hundred rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def _as_int_rows(mat) -> list[list[int]]:
    return [[int(x) for x in row] for row in mat]


def hnf_rows(mat) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U @ mat = H, H in row echelon form
    with positive pivots and entries above each pivot reduced mod the pivot.
    Zero rows of H sink to the bottom.
    """
    a = _as_int_rows(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    row = 0
    for col in range(n):
        # Euclid on the entries of this column, below `row`.
        while True:
            nz = [r for r in range(row, m) if a[r][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda r: abs(a[r][col]))
            a[row], a[piv] = a[piv], a[row]
            u[row], u[piv] = u[piv], u[row]
            done = True
            for r in range(row + 1, m):
                if a[r][col] != 0:
                    q = a[r][col] // a[row][col]
                    if q:
                        a[r] = [x - q * y for x, y in zip(a[r], a[row])]
                        u[r] = [x - q * y for x, y in zip(u[r], u[row])]
                    if a[r][col] != 0:
                        done = False
            if done:
                break
        if row < m and a[row][col] != 0:
            if a[row][col] < 0:
                a[row] = [-x for x in a[row]]
                u[row] = [-x for x in u[row]]
            for r in range(row):
                q = a[r][col] // a[row][col]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
            row += 1
        if row == m:
            break
    return a, u


def hnf_coordinates(h, vec) -> Optional[list[int]]:
    """Integer y with y @ h == vec, one entry per row of the row HNF `h`
    (as `hnf_rows` returns it; zero rows get 0), or None when vec lies
    outside the lattice the rows of h generate."""
    resid = [int(v) for v in vec]
    y = [0] * len(h)
    piv = 0
    for r, row in enumerate(h):
        while piv < len(row) and row[piv] == 0:  # pivots strictly increase
            piv += 1
        if piv == len(row):
            break  # only zero rows follow
        q, rem = divmod(resid[piv], row[piv])
        if rem:
            return None
        if q:
            y[r] = q
            resid = [x - q * hx for x, hx in zip(resid, row)]
    return None if any(resid) else y


def det_int(mat) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    a = _as_int_rows(mat)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gauss_jordan(mat) -> tuple[list[list[Fraction]], int]:
    """Reduced row echelon form over Q of a rational matrix, and its rank."""
    a = [[Fraction(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(m):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == m:
            break
    return a, rank


def rank_rational(mat) -> int:
    """Rank over Q of an integer/rational matrix."""
    return gauss_jordan(mat)[1]


def rational_matrix_inverse(mat) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix: Gauss-Jordan on [M | I]."""
    n = len(mat)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a, _ = gauss_jordan([list(row) + e for row, e in zip(mat, eye)])
    if [row[:n] for row in a] != eye:  # the left block reduces to I iff M is regular
        raise ValueError("singular matrix")
    return [row[n:] for row in a]
