"""Exact sphere / coset enumeration for positive-definite rational forms.

Depth-first search over integer coordinate vectors w such that

    (w + shift)^T  G  (w + shift)  ==  target        (exactly)

using the rational Cholesky decomposition
Q(y) = sum_i d_i (y_i + sum_{j>i} mu_ij y_j)^2.  All pruning bounds are
computed with integer arithmetic (isqrt on scaled numerators); no floating
point is involved anywhere, so completeness of the search is unconditional.

The search can restrict each coordinate to a finite allowed set (the
candidate search of `unique` uses the cube {0, +-1}^22); every other
condition on the solutions is the caller's to apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
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
                q[k][m] -= q[i][k] * q[i][m] / d[i]
                q[m][k] = q[k][m]
    return d, mu


def _floor_plus_sqrt(a: int, b: int, p: int, q: int) -> int:
    """floor(a/b + sqrt(p/q)) for integers with b, q > 0, p >= 0."""
    t = p * q
    r = isqrt(t)
    f = (a * q + b * r) // (b * q)
    bb_t = b * b * t

    def le(k: int) -> bool:
        left = (k * b - a) * q
        if left <= 0:
            return True
        return left * left <= bb_t

    while le(f + 1):
        f += 1
    while not le(f):
        f -= 1
    return f


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def enumerate_sphere(
    gram,
    shift,
    target,
    allowed: Optional[Sequence[Sequence[int]]] = None,
    stats: Optional[EnumerationStats] = None,
) -> list[tuple[int, ...]]:
    """All integer w with (w + shift)^T gram (w + shift) == target, sorted.

    allowed: per-coordinate finite candidate sets (sorted ints).
    """
    n = len(gram)
    if stats is None:
        stats = EnumerationStats()
    d, mu = rational_cholesky(gram)
    tau = [Fraction(x) for x in shift]
    target = Fraction(target)

    tden = _lcm([t.denominator for t in tau]) if n else 1
    tau_num = [int(t * tden) for t in tau]
    mden = [
        _lcm([mu[i][j].denominator for j in range(i + 1, n)] or [1]) for i in range(n)
    ]
    munum = [
        [int(mu[i][j] * mden[i]) for j in range(n)] for i in range(n)
    ]
    sden = [mden[i] * tden for i in range(n)]
    d_num = [x.numerator for x in d]
    d_den = [x.denominator for x in d]

    # Preallocated per-level state (valid along the current DFS path only).
    ctr = [[0] * n for _ in range(n)]
    rstack: list[Fraction] = [Fraction(0)] * n
    wlists: list[list[int]] = [[] for _ in range(n)]
    widx = [0] * n
    wcur = [0] * n

    solutions: list[tuple[int, ...]] = []

    def candidate_values(level: int) -> list[int]:
        r = rstack[level]
        if r < 0:
            return []
        rho = r / d[level]
        p, q = rho.numerator, rho.denominator
        a, b = ctr[level][level], sden[level]
        hi = _floor_plus_sqrt(-a, b, p, q)
        lo = -_floor_plus_sqrt(a, b, p, q)
        if lo > hi:
            return []
        if allowed is not None:
            return [v for v in allowed[level] if lo <= v <= hi]
        return list(range(lo, hi + 1))

    top = n - 1
    for i in range(n):
        ctr[top][i] = tau_num[i] * mden[i]
    rstack[top] = target
    wlists[top] = candidate_values(top)
    widx[top] = 0

    level = top
    while level <= top:
        if widx[level] >= len(wlists[level]):
            level += 1
            continue
        w = wlists[level][widx[level]]
        widx[level] += 1
        stats.nodes += 1

        num = w * sden[level] + ctr[level][level]
        val = Fraction(d_num[level] * num * num, d_den[level] * sden[level] * sden[level])
        rem = rstack[level] - val

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
        row_src = ctr[level]
        row_dst = ctr[child]
        for i in range(level):
            row_dst[i] = row_src[i] + munum[i][level] * y_num
        rstack[child] = rem
        wlists[child] = candidate_values(child)
        widx[child] = 0
        level = child

    solutions.sort()
    return solutions
