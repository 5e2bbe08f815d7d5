"""Exact sphere enumeration for positive-definite rational forms.

Depth-first search over integer coordinate vectors w such that

    (w + shift)^T  G  (w + shift)  ==  target        (exactly)

using the rational LDL^T decomposition
Q(y) = sum_i d_i (y_i + sum_{j>i} mu_ij y_j)^2 (Fincke & Pohst, Math.
Comp. 44, 1985).  The decomposition is exact, and the caller computes it
once and passes it in.  The search scales every level by one common
integer, so the remaining radius, each level's contribution and the
interval bound (an integer isqrt) are Python ints.
No floating point and no rational arithmetic run inside the search, and
its completeness is unconditional.

The search can restrict each coordinate to a finite allowed set (the
candidate search of `unique` uses the cube {0, +-1}^22); every other
condition on the solutions is the caller's to apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence


@dataclass
class EnumerationStats:
    nodes: int = 0
    leaves: int = 0
    solutions: int = 0


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
    for the form G given by `ldl = rational_cholesky(G)`.

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
