"""Leech lattice construction and fixed-norm coset enumeration.

The public surface: build the Golay code and lattice context once, then
enumerate {x in Lambda : (x,x) = norm, (x, anchor_k) = value_k} exactly.
The enumerator reduces the problem to the rank-(24-k) sublattice
orthogonal to the anchors (integer kernel of the inner-product map), finds
one particular solution of the inhomogeneous integer system, both from one
Hermite normal form, and runs the exact sphere search on that coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .fincke_pohst import EnumerationStats, enumerate_sphere, ldl_solve, rational_cholesky
from .golay import GolayCode, GolayConstructionError, build_golay
from .intlinalg import hnf_coordinates, hnf_rows
from .leech import (
    A_ALTERNATE,
    A_CANONICAL,
    B_ALTERNATE,
    B_CANONICAL,
    LeechConstructionError,
    canonical_sort,
    leech_basis,
    membership_mask,
    norm4_shell,
    conventional_inner,
    rows_as_set,
    shell_size,
)
from .reduction import reduce_basis_rows, shorten_against

__all__ = [
    "A_ALTERNATE",
    "A_CANONICAL",
    "B_ALTERNATE",
    "B_CANONICAL",
    "CosetConstraint",
    "EnumerationStats",
    "GolayCode",
    "GolayConstructionError",
    "InfeasibleCosetError",
    "LeechConstructionError",
    "LeechContext",
    "build_golay",
    "canonical_sort",
    "default_context",
    "enumerate_coset_shell",
    "enumerate_sphere",
    "leech_basis",
    "membership_mask",
    "norm4_shell",
    "conventional_inner",
    "rows_as_set",
    "shell_size",
]


class InfeasibleCosetError(RuntimeError):
    """The integer constraint system has no solution in the lattice at all
    (as opposed to a feasible coset whose shell happens to be empty)."""


@dataclass(frozen=True)
class CosetConstraint:
    """Requires conventional_inner(x, anchor) == value (value integral)."""

    anchor: np.ndarray
    value: int


@dataclass(frozen=True)
class LeechContext:
    code: GolayCode
    basis: np.ndarray  # (24, 24) rows generate the scaled lattice


@lru_cache(maxsize=1)
def default_context() -> LeechContext:
    code = build_golay()
    return LeechContext(code=code, basis=leech_basis(code))


def _coset_setup(
    constraints: Sequence[CosetConstraint], ctx: LeechContext
) -> tuple[np.ndarray, np.ndarray]:
    """Particular solution x0 and sublattice rows K for the constraint set.

    One row HNF H = U M of the 24 x k inner-product matrix M gives all
    three: its rank (M has the rank of the anchors, the basis being
    regular), the kernel (the rows of U at the zero rows of H), and x0
    (y U for the y with y H = target).
    """
    basis = ctx.basis
    if not constraints:
        return np.zeros(24, dtype=np.int64), basis.copy()

    cols = []
    for c in constraints:
        prod = basis @ np.asarray(c.anchor, dtype=np.int64)
        if np.any(prod % 8):
            raise ValueError("anchor is not in the lattice dual (scaled by 8)")
        cols.append(prod // 8)
    h, u = hnf_rows(np.stack(cols, axis=1).tolist())  # 24 x k
    zero = [not any(row) for row in h]
    if 24 - sum(zero) != len(constraints):
        raise ValueError("constraint anchors must be linearly independent")

    target = [c.value for c in constraints]
    y = hnf_coordinates(h, target)
    if y is None:
        raise InfeasibleCosetError(
            f"no lattice point satisfies inner products {target}"
        )
    kernel = [row for row, z in zip(u, zero) if z]

    part = [sum(q * row[j] for q, row in zip(y, u) if q) for j in range(24)]
    x0 = np.asarray(part, dtype=np.int64) @ basis
    k_rows = np.array(kernel, dtype=np.int64) @ basis
    return x0, k_rows


def enumerate_coset_shell(
    constraints: Sequence[CosetConstraint],
    norm,
    ctx: Optional[LeechContext] = None,
    stats: Optional[EnumerationStats] = None,
) -> np.ndarray:
    """The complete set {x in Lambda : (x,x)=norm, (x,anchor_i)=value_i}.

    Returns an (n, 24) int64 array in canonical (lexicographic) order.
    Raises InfeasibleCosetError when the inner-product system has no
    lattice solution; an empty array means a feasible but empty shell.
    """
    if ctx is None:
        ctx = default_context()
    norm = Fraction(norm)
    if norm <= 0:
        raise ValueError("norm must be positive")
    target_scaled = 8 * norm
    if target_scaled.denominator != 1:
        return np.zeros((0, 24), dtype=np.int64)  # even lattice: no such norm

    x0, k_rows = _coset_setup(constraints, ctx)
    k_rows = reduce_basis_rows(k_rows)
    x0 = shorten_against(x0, k_rows)

    # one LDL^T of the Gram gives both the centre tau = G^-1 (K x0) and
    # the search
    ldl = rational_cholesky((k_rows @ k_rows.T).tolist())
    rhs = (k_rows @ x0).tolist()
    tau = ldl_solve(ldl, rhs)
    tau_g_tau = sum(t * r for t, r in zip(tau, rhs))
    x0_sq = Fraction(int(x0 @ x0))
    fp_target = Fraction(target_scaled) - x0_sq + tau_g_tau
    if fp_target < 0:
        return np.zeros((0, 24), dtype=np.int64)

    solutions = enumerate_sphere(ldl, tau, fp_target, stats=stats)

    if not solutions:
        return np.zeros((0, 24), dtype=np.int64)
    w = np.array(solutions, dtype=np.int64)
    points = w @ k_rows + x0

    _verify_shell(points, constraints, target_scaled, ctx)
    return canonical_sort(points)


def _verify_shell(
    points: np.ndarray,
    constraints: Sequence[CosetConstraint],
    target_scaled: Fraction,
    ctx: LeechContext,
) -> None:
    norms = (points.astype(np.int64) ** 2).sum(axis=1)
    if not bool((norms == int(target_scaled)).all()):
        raise LeechConstructionError("enumerated point with wrong norm")
    for c in constraints:
        dots = points @ np.asarray(c.anchor, dtype=np.int64)
        if not bool((dots == 8 * c.value).all()):
            raise LeechConstructionError("enumerated point violates a constraint")
    if not bool(membership_mask(points, ctx.code).all()):
        raise LeechConstructionError("enumerated point is not a lattice member")
    if len(rows_as_set(points)) != len(points):
        raise LeechConstructionError("duplicate points in enumeration")
