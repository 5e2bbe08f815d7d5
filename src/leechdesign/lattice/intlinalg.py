"""Small exact linear algebra in integers: row HNF and its
back-substitution, and the adjugate with the determinant by one
fraction-free Gauss-Jordan.

Everything here works on Python ints (no overflow) in plain nested lists;
the matrices involved are at most a few hundred rows.
"""

from __future__ import annotations

from typing import Optional


def _as_int_rows(mat) -> list[list[int]]:
    return [[int(x) for x in row] for row in mat]


def hnf_rows(mat) -> list[list[int]]:
    """Row Hermite normal form H of an integer matrix, by unimodular row
    operations: row echelon form with positive pivots and entries above
    each pivot reduced mod the pivot.  Zero rows of H sink to the bottom.
    """
    a = _as_int_rows(mat)
    m = len(a)
    n = len(a[0]) if m else 0

    row = 0
    for col in range(n):
        # Euclid on the entries of this column, below `row`.
        while True:
            nz = [r for r in range(row, m) if a[r][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda r: abs(a[r][col]))
            a[row], a[piv] = a[piv], a[row]
            done = True
            for r in range(row + 1, m):
                if a[r][col] != 0:
                    q = a[r][col] // a[row][col]
                    if q:
                        a[r] = [x - q * y for x, y in zip(a[r], a[row])]
                    if a[r][col] != 0:
                        done = False
            if done:
                break
        if row < m and a[row][col] != 0:
            if a[row][col] < 0:
                a[row] = [-x for x in a[row]]
            for r in range(row):
                q = a[r][col] // a[row][col]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[row])]
            row += 1
        if row == m:
            break
    return a


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


def adjugate(mat) -> tuple[Optional[list[list[int]]], int]:
    """(adj M, det M) of a square integer matrix, with adj M @ M = M @ adj M
    = det M * I: one fraction-free Gauss-Jordan on [M | I] (Bareiss, Math.
    Comp. 22, 1968).  Every entry stays a minor of [M | I], so each
    division by the previous pivot is exact.  A singular M gives (None, 0).
    """
    n = len(mat)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return None, 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk[k] * x - f * y) // prev for x, y in zip(a[i], pk)]
        prev = pk[k]
    # The swaps permute [M | I] to [PM | P], which ends as [d I | d (PM)^-1 P]
    # with d = det PM = sign * det M; the right block is d M^-1 = sign * adj M.
    return [[sign * x for x in row[n:]] for row in a], sign * prev
