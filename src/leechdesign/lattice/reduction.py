"""Lattice basis reduction: exact integral LLL, and coset representatives.

`reduce_basis_rows` is the integral LLL algorithm (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7) with delta = 99/100.
It keeps only integers, the Gram determinants d of the leading rows and
lam[k][j] = d[j + 1] mu_kj, so every decision is exact and the loop
terminates by the usual potential argument.  Every row operation is
unimodular, so the output generates the same lattice.  `shorten_against`
rounds in floating point, which only picks a representative of the same
coset.
"""

from __future__ import annotations

import numpy as np


def reduce_basis_rows(rows) -> np.ndarray:
    """LLL-reduced rows generating the same lattice as the independent
    integer rows `rows` (size-reduced, Lovasz condition with delta 99/100)."""
    b = [[int(x) for x in r] for r in np.asarray(rows)]
    n = len(b)
    d = [1] * (n + 1)  # d[i + 1]: Gram determinant of rows 0..i
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt_row(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("basis rows are linearly dependent")
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        # subtract round(mu_kl) = round(lam[k][l] / d[l + 1]) times row l
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        lk = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new

    k, kmax = 1, 0
    if n:
        gram_schmidt_row(0)
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt_row(k)
        size_reduce(k, k - 1)
        # Lovasz fails: B_k < (99/100 - mu_k,k-1^2) B_k-1, times 100 d[k] d[k-1]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return np.array(b, dtype=np.int64)


def shorten_against(vec, basis_rows) -> np.ndarray:
    """Subtract a rounded projection of `vec` onto the lattice of
    `basis_rows` (coset representative stays in the same coset)."""
    k = np.asarray(basis_rows, dtype=np.int64)
    v = np.asarray(vec, dtype=np.int64).copy()
    gram = (k @ k.T).astype(float)
    for _ in range(4):
        coeff = np.linalg.solve(gram, k @ v.astype(float))
        q = np.rint(coeff).astype(np.int64)
        if not q.any():
            break
        v = v - q @ k
    return v
