"""Leech lattice construction and norm-4 coset shells.

The public surface: build the Golay code and lattice context once, then
list {x in Lambda : (x,x) = 4, (x, anchor_k) = value_k} exactly.  Every
shell the pipeline needs is such a filter of the 196560 minimal vectors,
which `leech.norm4_blocks` builds from the Golay code in small chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .golay import GolayCode, GolayConstructionError, build_golay
from .leech import (
    A_CANONICAL,
    B_CANONICAL,
    LeechConstructionError,
    canonical_sort,
    distinct_rows,
    has_repeated_row,
    membership_mask,
    norm4_blocks,
    norm4_shell,
    conventional_inner,
    same_row_set,
)


@dataclass
class EnumerationStats:
    """Work counters of an enumeration: nodes visited, leaves reached and
    solutions kept."""

    nodes: int = 0
    leaves: int = 0
    solutions: int = 0


@dataclass(frozen=True)
class CosetConstraint:
    """Requires conventional_inner(x, anchor) == value (value integral)."""

    anchor: np.ndarray
    value: int


@dataclass(frozen=True)
class LeechContext:
    code: GolayCode


@lru_cache(maxsize=1)
def default_context() -> LeechContext:
    return LeechContext(code=build_golay())


def enumerate_coset_shell(
    constraints: Sequence[CosetConstraint],
    norm,
    *,
    stats: Optional[EnumerationStats] = None,
) -> np.ndarray:
    """The complete set {x in Lambda : (x,x)=4, (x,anchor_i)=value_i}, a
    filter of the minimal vectors; `norm` must be 4, and any other norm
    raises ValueError.

    Returns an (n, 24) int64 array in canonical (lexicographic) order; an
    empty array means an empty shell.  `stats.solutions` counts the rows
    returned; no search runs, so `stats.nodes` stays 0.

    Each chunk is filtered by one float64 BLAS product with the anchors,
    exact while 24 * 4 * max|anchor| (|coordinate| <= 4) is below 2^53, as
    in `construct.exact_matmul`; a larger anchor raises ValueError first.
    """
    if norm != 4:
        raise ValueError(f"coset shells of norm 4 only; got {norm}")
    anchors = np.array([c.anchor for c in constraints], dtype=np.int64).reshape(-1, 24).T
    bound = 24 * 4 * max(int(anchors.max(initial=0)), -int(anchors.min(initial=0)))
    if bound >= 2**53:
        raise ValueError(f"anchor product bound {bound} is not below 2^53")
    want = 8 * np.array([c.value for c in constraints], dtype=np.int64)

    code = default_context().code
    fanchors = anchors.astype(np.float64)
    kept = [
        block[(block.astype(np.float64) @ fanchors == want).all(axis=1)]
        for block in norm4_blocks(code)
    ]
    points = canonical_sort(np.concatenate(kept).astype(np.int64))
    _verify_shell(points, constraints, code)
    if stats is not None:
        stats.solutions += len(points)
    return points


def _verify_shell(
    points: np.ndarray, constraints: Sequence[CosetConstraint], code: GolayCode
) -> None:
    norms = (points.astype(np.int64) ** 2).sum(axis=1)
    if not bool((norms == 32).all()):
        raise LeechConstructionError("enumerated point with wrong norm")
    for c in constraints:
        dots = points @ np.asarray(c.anchor, dtype=np.int64)
        if not bool((dots == 8 * c.value).all()):
            raise LeechConstructionError("enumerated point violates a constraint")
    if not bool(membership_mask(points, code).all()):
        raise LeechConstructionError("enumerated point is not a lattice member")
    if has_repeated_row(points):
        raise LeechConstructionError("duplicate points in enumeration")
