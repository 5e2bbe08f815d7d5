"""Exact arithmetic substrate: rationals and exact rational linear algebra.

Every verification decision in this package is made on exact values, and
every one of them is rational: `fractions.Fraction` (arbitrary precision,
always in lowest terms with positive denominator) is the only exact number
type.  The radicals of the construction never need representing: the
strength sums are rational, and the cross-shell products are reported
multiplied by sqrt(11), which makes them rational too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class SingularMatrixError(ValueError):
    """Linear solve hit a singular matrix; carries the rank that was found."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"singular matrix: rank {rank} < size {size}")


def rat_to_text(x: Fraction) -> str:
    """Serialize a rational as "p/q" (q always present and positive)."""
    return f"{x.numerator}/{x.denominator}"


def rat_from_text(s: str) -> Fraction:
    p, q = s.strip().split("/")
    return Fraction(int(p), int(q))


def rational_linear_solve(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve M x = rhs exactly over Q by Gaussian elimination.

    Raises SingularMatrixError (carrying the rank found) when M is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the rhs length")
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(n):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[rank])]
        rank += 1
    if rank < n:
        raise SingularMatrixError(rank, n)
    # Rows are now a permuted identity; read the solution off the pivots.
    sol: list[Fraction] = [Fraction(0)] * n
    for r in range(n):
        col = next(c for c in range(n) if a[r][c] != 0)
        sol[col] = a[r][n]
    return sol


def rational_matrix_inverse(
    matrix: Sequence[Sequence[Fraction]],
) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix (Gauss-Jordan, augmented)."""
    n = len(matrix)
    a = [
        [Fraction(x) for x in row]
        + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(rank, n)
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(n):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[rank])]
        rank += 1
    return [row[n:] for row in a]
