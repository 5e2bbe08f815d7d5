"""Coset shells by exact sphere search, a reference independent of the
Golay-built minimal vectors that `leechdesign.lattice.enumerate_coset_shell`
filters; the tests compare the two.

The route: a 24 x 24 integer basis of the lattice from its generators by
HNF, the rank-(24-k) sublattice orthogonal to the anchors and one
particular solution of the inner-product system from one more HNF, an
integral LLL of the sublattice, a coset representative shortened against
it, the coset centre from the LDL^T of the sublattice Gram, and the
Fincke-Pohst search (`enumerate_sphere`, on a rational LDL^T from
`rational_cholesky`) on that coset.  It works for every norm and every
independent set of lattice anchors.  The same general search, restricted
to the cube, is the reference for the uniqueness stage's integer cube
search.

Also here: the exact references the tests compare the program's integer
routines with, in rational arithmetic, row HNF or Python sets
(`det_rational`, `hnf_rows` and `hnf_coordinates`, `rows_as_set`).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

import numpy as np

from leechdesign.lattice import (
    B_CANONICAL,
    EnumerationStats,
    LeechConstructionError,
    canonical_sort,
    membership_mask,
)
from leechdesign.lattice.intlinalg import adjugate

_LEECH_SCALED_DET = 8**12  # covolume of the sqrt8-scaled lattice


def det_rational(mat) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination over
    Fractions, the reference for `intlinalg.adjugate`."""
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((r for r in range(k, len(a)) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def hnf_rows(mat) -> list[list[int]]:
    """Row Hermite normal form H of an integer matrix, by unimodular row
    operations: row echelon form with positive pivots and entries above
    each pivot reduced mod the pivot.  Zero rows of H sink to the bottom.
    """
    a = [[int(x) for x in row] for row in mat]
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


def rows_as_set(arr) -> set[tuple[int, ...]]:
    return {tuple(int(x) for x in row) for row in np.asarray(arr)}


class InfeasibleCosetError(RuntimeError):
    """The integer constraint system has no solution in the lattice at all
    (as opposed to a feasible coset whose shell happens to be empty)."""


def leech_basis(code) -> np.ndarray:
    """A 24x24 integer basis (rows) of the scaled lattice.

    Generators: twice the generator codewords, 4(e_0 + e_i), and the odd
    coset representative (-3, 1, ..., 1); reduced to a basis by HNF.  The
    result is checked against the known covolume 8^12 and the membership
    conditions, which are implemented independently of this construction.
    """
    gens: list[list[int]] = []
    for row in code.generator:
        gens.append([2 * int(b) for b in row])
    for i in range(1, 24):
        v = [0] * 24
        v[0] = 4
        v[i] = 4
        gens.append(v)
    gens.append(list(B_CANONICAL))

    rows = [r for r in hnf_rows(gens) if any(r)]
    if len(rows) != 24:
        raise LeechConstructionError(f"basis rank {len(rows)} != 24")
    d = abs(adjugate(rows)[1])
    if d != _LEECH_SCALED_DET:
        raise LeechConstructionError(f"basis determinant {d} != 8^12")
    basis = np.array(rows, dtype=np.int64)
    if not bool(membership_mask(basis, code).all()):
        raise LeechConstructionError("basis row fails membership conditions")
    return basis


def shell_size(norm, code) -> int:
    """Exact shell count by shape-class counting (norms 0, 2, 4, 6)."""
    n = Fraction(norm)
    if n == 0:
        return 1
    if n == 2:
        return 0
    n_octads = code.weight_counts.get(8, 0)
    n_dodecads = code.weight_counts.get(12, 0)
    if n == 4:
        # (+-4^2), octad (+-2^8) even minus, (-+3, +-1^23)
        return 4 * 276 + n_octads * 128 + 4096 * 24
    if n == 6:
        # dodecad (+-2^12) even minus; (+-4, octad +-2^8) with the 4 off the
        # octad and odd minus count; (+-5, +-1^23); (-+3^3, +-1^21)
        return (
            n_dodecads * 2048
            + n_octads * 16 * 2 * 128
            + 4096 * 24
            + 4096 * 2024
        )
    raise ValueError(f"shell_size supports norms 0,2,4,6; got {norm}")


def coset_setup(constraints, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Particular solution x0 and sublattice rows K for the constraint set.

    One row HNF [H | U] of [M | I_24], M the 24 x k inner-product matrix,
    gives all three: the rank of M (that of the anchors, the basis being
    regular), the kernel (the rows of U where H is zero), and x0 (y U for
    the y with y H = target).
    """
    if not constraints:
        return np.zeros(24, dtype=np.int64), basis.copy()

    cols = []
    for c in constraints:
        prod = basis @ np.asarray(c.anchor, dtype=np.int64)
        if np.any(prod % 8):
            raise ValueError("anchor is not in the lattice dual (scaled by 8)")
        cols.append(prod // 8)
    k = len(constraints)
    hu = hnf_rows(np.concatenate([np.stack(cols, axis=1), np.eye(24, dtype=np.int64)], axis=1))
    h, u = [row[:k] for row in hu], [row[k:] for row in hu]
    zero = [not any(row) for row in h]
    if 24 - sum(zero) != k:
        raise ValueError("constraint anchors must be linearly independent")

    target = [c.value for c in constraints]
    y = hnf_coordinates(h, target)
    if y is None:
        raise InfeasibleCosetError(f"no lattice point satisfies inner products {target}")
    kernel = [row for row, z in zip(u, zero) if z]

    part = [sum(q * row[j] for q, row in zip(y, u) if q) for j in range(24)]
    x0 = np.asarray(part, dtype=np.int64) @ basis
    k_rows = np.array(kernel, dtype=np.int64) @ basis
    return x0, k_rows


def reduce_basis_rows(rows) -> np.ndarray:
    """LLL-reduced rows generating the same lattice as the independent
    integer rows `rows` (size-reduced, Lovasz condition with delta 99/100).

    The integral LLL algorithm (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7).  It keeps only integers, the Gram
    determinants d of the leading rows and lam[k][j] = d[j + 1] mu_kj, so
    every decision is exact and the loop terminates by the usual potential
    argument.  Every row operation is unimodular.
    """
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
    `basis_rows`.  The rounding is in floating point, which only picks
    another representative of the same coset."""
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


class NotPositiveDefiniteError(ValueError):
    pass


def rational_cholesky(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose Q(y) = y^T gram y as sum_i d_i (y_i + sum_{j>i} mu_ij y_j)^2."""
    n = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d: list[Fraction] = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] <= 0:
            raise NotPositiveDefiniteError(f"pivot {i} is {d[i]}")
        for j in range(i + 1, n):
            mu[i][j] = q[i][j] / d[i]
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[i][k] * q[i][m] / d[i]  # upper triangle only
    return d, mu


def enumerate_sphere(
    ldl,
    shift,
    target,
    allowed: Optional[Sequence[Sequence[int]]] = None,
    stats: Optional[EnumerationStats] = None,
) -> list[tuple[int, ...]]:
    """All integer w with (w + shift)^T G (w + shift) == target, sorted,
    for the form G given by `ldl = rational_cholesky(G)` (Fincke & Pohst,
    Math. Comp. 44, 1985).  Every level is scaled by one common integer, so
    the remaining radius and each level's bound are Python ints.

    allowed: per-coordinate finite candidate sets (sorted ints).
    """
    d, mu = ldl
    n = len(d)
    if stats is None:
        stats = EnumerationStats()
    tau = [Fraction(x) for x in shift]
    target = Fraction(target)

    tden = lcm(*(t.denominator for t in tau))
    tau_num = [int(t * tden) for t in tau]
    mden = [lcm(*(mu[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    # mucol[j][i] = mu_ij * mden_i for i < j: what fixing y_j adds to ctr_i
    mucol = [[int(mu[i][j] * mden[i]) for i in range(j)] for j in range(n)]
    sden = [mden[i] * tden for i in range(n)]
    # Level i contributes d_i (num / sden_i)^2 with num = w sden_i + ctr_i.
    # Scaling every level by one integer M turns it into coef_i num^2 and
    # the remaining radius into the integer R = M * (target - partial sum).
    scale = lcm(target.denominator, *(x.denominator * s * s for x, s in zip(d, sden)))
    coef = [int(x * scale) // (s * s) for x, s in zip(d, sden)]

    # Preallocated per-level state (valid along the current DFS path only).
    ctr = [[0] * n for _ in range(n)]
    rstack = [0] * n
    wlists: list[list[int]] = [[] for _ in range(n)]
    widx = [0] * n
    wcur = [0] * n

    solutions: list[tuple[int, ...]] = []

    def candidate_values(level: int) -> list[int]:
        # coef num^2 <= R  <=>  |num| <= isqrt(R // coef), num integral
        r = rstack[level]
        if r < 0:
            return []
        s = isqrt(r // coef[level])
        c, den = ctr[level][level], sden[level]
        lo, hi = -((s + c) // den), (s - c) // den
        if lo > hi:
            return []
        if allowed is not None:
            return [v for v in allowed[level] if lo <= v <= hi]
        return list(range(lo, hi + 1))

    top = n - 1
    ctr[top] = [t * m for t, m in zip(tau_num, mden)]
    rstack[top] = int(target * scale)
    wlists[top] = candidate_values(top)

    level = top
    while level <= top:
        if widx[level] >= len(wlists[level]):
            level += 1
            continue
        w = wlists[level][widx[level]]
        widx[level] += 1
        stats.nodes += 1

        num = w * sden[level] + ctr[level][level]
        rem = rstack[level] - coef[level] * num * num

        if level == 0:
            if rem == 0:
                stats.leaves += 1
                wcur[0] = w
                solutions.append(tuple(wcur))
                stats.solutions += 1
            continue

        wcur[level] = w
        y_num = w * tden + tau_num[level]
        child = level - 1
        row_src, row_dst, col = ctr[level], ctr[child], mucol[level]
        for i in range(level):
            row_dst[i] = row_src[i] + col[i] * y_num
        rstack[child] = rem
        wlists[child] = candidate_values(child)
        widx[child] = 0
        level = child

    solutions.sort()
    return solutions


def ldl_solve(ldl, rhs) -> list[Fraction]:
    """The exact x with G x = rhs, for G in the form `rational_cholesky`
    returns: G = U^T D U with U unit upper triangular, U_ij = mu_ij."""
    d, mu = ldl
    n = len(d)
    z: list[Fraction] = []
    for i in range(n):  # U^T z = rhs
        z.append(Fraction(rhs[i]) - sum(mu[j][i] * z[j] for j in range(i)))
    x: list[Fraction] = [Fraction(0)] * n
    for i in reversed(range(n)):  # U x = D^-1 z
        x[i] = z[i] / d[i] - sum(mu[i][j] * x[j] for j in range(i + 1, n))
    return x


def sphere_coset_shell(constraints, norm, basis: np.ndarray, stats=None) -> np.ndarray:
    """The complete set {x in Lambda : (x,x)=norm, (x,anchor_i)=value_i}
    by sphere search, as an (n, 24) int64 array in canonical order.

    Raises InfeasibleCosetError when the inner-product system has no
    lattice solution; an empty array means a feasible but empty shell.
    """
    norm = Fraction(norm)
    if norm <= 0:
        raise ValueError("norm must be positive")
    target_scaled = 8 * norm
    if target_scaled.denominator != 1:
        return np.zeros((0, 24), dtype=np.int64)  # even lattice: no such norm

    x0, k_rows = coset_setup(constraints, basis)
    k_rows = reduce_basis_rows(k_rows)
    x0 = shorten_against(x0, k_rows)

    # one LDL^T of the Gram gives both the centre tau = G^-1 (K x0) and
    # the search
    ldl = rational_cholesky((k_rows @ k_rows.T).tolist())
    rhs = (k_rows @ x0).tolist()
    tau = ldl_solve(ldl, rhs)
    tau_g_tau = sum(t * r for t, r in zip(tau, rhs))
    fp_target = target_scaled - int(x0 @ x0) + tau_g_tau
    if fp_target < 0:
        return np.zeros((0, 24), dtype=np.int64)

    solutions = enumerate_sphere(ldl, tau, fp_target, stats=stats)
    if not solutions:
        return np.zeros((0, 24), dtype=np.int64)
    return canonical_sort(np.array(solutions, dtype=np.int64) @ k_rows + x0)
