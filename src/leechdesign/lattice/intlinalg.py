"""Exact linear algebra in integers: the adjugate with the determinant by
one fraction-free Gauss-Jordan.

It works on Python ints (no overflow) in plain nested lists; the matrices
involved are 22 x 22.
"""

from __future__ import annotations

from typing import Optional


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
