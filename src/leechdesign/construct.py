"""Build the weighted two-shell point configuration and its companions.

Coordinates live in the sqrt8-scaled integer frame of the lattice module.
A projected point with denominator d is stored as the integer vector
d * (scaled coords); the conventional inner product of stored rows u, v
with denominators d_u, d_v is (u . v) / (8 d_u d_v).  For the design built
here all denominators are 5 (the A,B-projection has denominator 15 and the
outer shell is rescaled by 3), so every pairwise quantity downstream is an
exact integer computation.  Every product of integer rows, here and in the
later stages, is one `exact_matmul` call; the `PointLayer` bounds, checked
where a design enters, make every product of stored design rows pass it.

Every claim about a design that needs only the inner products of its
pairs as a multiset reads them from `WeightedPointSet.pair_stats(i, j)`:
the value histogram of each block, made in one pass of 256-row slabs.
A check that needs each pair's value (the relation labels, the probe
profiles, the candidate split) streams its own slabs from `slab_products`
and keeps only what it needs, so no block-sized array is made.

The companions are the four norm-4 families Y projected along one anchor,
and the antipodal double cover of the design on S^22.  The cover is never
materialized: its inner products follow from the design's Gram histograms,
as integers over one denominator, in a `BlockStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterator

import numpy as np

from .lattice import (
    CosetConstraint,
    canonical_sort,
    default_context,
    distinct_rows,
    enumerate_coset_shell,
    has_repeated_row,
    membership_mask,
    conventional_inner,
    same_row_set,
)
from .lattice.intlinalg import adjugate

W1 = Fraction(1)
W2 = Fraction(1, 729)
R1_SQ = Fraction(12, 5)
R2_SQ = Fraction(132, 5)

# Input bounds under which every product of stored rows passes
# `exact_matmul`: 24 (2^24 - 1)^2 < 2^53.
COORD_BOUND = 2**24
NORM_BOUND = 2**53


class StepError(RuntimeError):
    """Base of the errors by which the program rejects its input; a claim
    whose step raises one fails."""


class DesignConstructionError(StepError):
    pass


def max_abs(x: np.ndarray) -> int:
    """max |x| as a Python int: -(-2^63) has no int64."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def exact_matmul(
    a: np.ndarray, b: np.ndarray, b_max: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """a @ b for integer arrays, exact in int64 through float64 BLAS.  Every
    partial sum, in any order, is an integer of absolute value at most
    (inner dimension) * max|a| * max|b|; below 2^53 a float64 holds each one
    exactly (Dumas, Giorgi & Pernet, ACM TOMS 35, 2008), and a larger bound
    is refused.  The result is filled in slabs of 256 rows, so that no
    second full-size array is live, and a float64 operand is not copied.  A
    caller that multiplies many left operands by one b passes `b_max =
    max_abs(b)`, taken once, or the max of the table a gathered b is read
    from, and may pass one int64 `out` to take each product in turn."""
    bound = a.shape[-1] * max_abs(a) * (max_abs(b) if b_max is None else b_max)
    if bound >= 2**53:
        raise DesignConstructionError(f"product bound {bound} is not below 2^53")
    bf = b.astype(np.float64, copy=False)
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for r in range(0, len(a), 256):
        out[r : r + 256] = a[r : r + 256].astype(np.float64, copy=False) @ bf
    return out


@dataclass(frozen=True)
class PointLayer:
    """Concentric layer: `points / denom` are scaled-frame coordinates."""

    points: np.ndarray  # (n, 24) int64
    denom: int
    weight: Fraction
    r2: Fraction  # conventional squared radius

    def __post_init__(self):
        pts = self.points
        if pts.max(initial=0) >= COORD_BOUND or pts.min(initial=0) <= -COORD_BOUND:
            raise DesignConstructionError("coordinate out of range: |c| must be below 2^24")
        expect = self.r2 * 8 * self.denom * self.denom
        if not 0 < expect < NORM_BOUND:
            raise DesignConstructionError(
                f"stored squared norm {expect} out of range: 8 r2 denom^2 must be in (0, 2^53)"
            )
        norms = (pts.astype(np.int64) ** 2).sum(axis=1)
        if expect.denominator != 1 or not bool((norms == int(expect)).all()):
            raise DesignConstructionError(
                f"layer norm check failed (expected {expect})"
            )
        if self.weight <= 0:
            raise DesignConstructionError("weights must be positive")

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class WeightedPointSet:
    layers: tuple[PointLayer, ...]
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return sum(layer.size for layer in self.layers)

    def dot_scale(self, i: int, j: int) -> int:
        """Stored-int dot D corresponds to conventional inner D / dot_scale."""
        return 8 * self.layers[i].denom * self.layers[j].denom

    def pair_stats(self, i: int, j: int) -> BlockStats:
        """`BlockStats` of the stored-integer dots of layers i <= j, which the
        `PointLayer` bounds keep exact, made when first asked for: a check
        that fails in one block never reads the others."""
        if (i, j) not in self._stats:
            self._stats[(i, j)] = BlockStats.of(self.layers[i].points, self.layers[j].points)
        return self._stats[(i, j)]

    def pair_values(self, i: int, j: int) -> np.ndarray:
        """The distinct stored dots of pairs of distinct points in block
        (i, j), i <= j: a diagonal block's histogram less its n diagonal
        entries, which hold the layer's stored squared norm."""
        st = self.pair_stats(i, j)
        norm = int(self.dot_scale(i, i) * self.layers[i].r2)
        on_diagonal = (st.values == norm) * self.layers[i].size if i == j else 0
        return st.values[st.counts > on_diagonal]


def slab_products(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(r, a[r : r + 256] @ b.T) for every 256-row slab of a, in row order,
    under the bound of b taken once.  Every slab is made into one reused
    buffer, so that its pages are not faulted in anew: a caller may
    overwrite a slab, and reads it before it asks for the next."""
    bt, b_max = b.T.astype(np.float64), max_abs(b)
    buf = np.empty((min(len(a), 256), len(b)), dtype=np.int64)
    for r in range(0, len(a), 256):
        x = a[r : r + 256]
        yield r, exact_matmul(x, bt, b_max, buf[: len(x)])


def distinct_values(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an array, ascending, by a sort and a mask: a
    value-only `np.unique` imports numpy.ma for its masked-array test."""
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


@dataclass(frozen=True)
class BlockStats:
    """The value histogram of the block a @ b.T of two integer point sets."""

    values: np.ndarray  # distinct stored dots, ascending
    counts: np.ndarray  # occurrences of each value in the block

    @classmethod
    def of(cls, a: np.ndarray, b: np.ndarray) -> BlockStats:
        """One pass over the 256-row slabs of a @ b.T, whose histograms are
        merged: no block-sized array is made."""
        return cls.merge([np.unique(p, return_counts=True) for _, p in slab_products(a, b)])

    @classmethod
    def merge(cls, hists) -> BlockStats:
        """The histogram of the union of (values, counts) pairs, each of
        distinct values, of int64 or of Python ints in an object array."""
        values = distinct_values(np.concatenate([v for v, _ in hists]))
        counts = np.zeros(len(values), dtype=np.int64)
        for v, c in hists:
            counts[np.searchsorted(values, v)] += c
        return cls(values=values, counts=counts)


def check_anchor_pair(a, b) -> None:
    pair = np.stack([np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)])
    if not bool(membership_mask(pair, default_context().code).all()):
        raise DesignConstructionError("anchors must be lattice members")
    if conventional_inner(a, a) != 4 or conventional_inner(b, b) != 4:
        raise DesignConstructionError("anchors must have norm 4")
    if conventional_inner(a, b) != -1:
        raise DesignConstructionError("anchors must have inner product -1")


def check_orthogonal_to_anchors(ws: WeightedPointSet, a, b) -> None:
    """A design built from the anchors a, b lies in their orthogonal
    complement.  One built from other anchors does not, and a claim that
    rebuilds its lattice side from a, b has nothing to compare it with."""
    check_anchor_pair(a, b)
    ab = np.stack([np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)], axis=1)
    if any(np.any(exact_matmul(layer.points, ab)) for layer in ws.layers):
        raise DesignConstructionError(
            "design is not orthogonal to the anchors; replay with the --anchors it was built from"
        )


def project_rows_scaled(rows: np.ndarray, *anchors, mult: int) -> np.ndarray:
    """mult * P(row) for every row, verified integral, P projecting out the
    span of one or two lattice anchors.  With M their conventional Gram,
    P(x) = x - (x, anchors) M^-1 anchors, and M^-1 = adj M / det M: det M
    is 4 for one norm-4 anchor, and 15 for a pair (a, b) with (a, b) = -1."""
    rows = np.asarray(rows, dtype=np.int64)
    anchors = np.array(anchors, dtype=np.int64)
    k = len(anchors)
    dots = exact_matmul(np.concatenate([anchors, rows]), anchors.T)  # 8 * (x, anchor)
    if np.any(dots % 8):
        raise DesignConstructionError("non-integral inner product against anchor")
    adj, det = adjugate((dots[:k] // 8).tolist())
    scaled = det * mult * rows - mult * ((dots[k:] // 8) @ np.array(adj)) @ anchors
    if np.any(scaled % det):
        raise DesignConstructionError(f"projection not integral at mult={mult}")
    return scaled // det


def build_design(a, b) -> WeightedPointSet:
    """The weighted configuration: 275 points at squared radius 12/5 with
    weight 1, and 2025 points at squared radius 132/5 with weight 1/729."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    check_anchor_pair(a, b)

    # The inner shell {(x, a) = 3, (x, b) = -3} at norm 6 is the translate by
    # a of this norm-4 shell, and the projection does not see a.
    shell1 = enumerate_coset_shell([CosetConstraint(a, -1), CosetConstraint(b, -2)], 4)
    shell2 = enumerate_coset_shell([CosetConstraint(a, 2), CosetConstraint(b, 0)], 4)
    if shell1.shape[0] != 275 or shell2.shape[0] != 2025:
        raise DesignConstructionError(
            f"wrong shell cardinalities: {shell1.shape[0]}, {shell2.shape[0]}"
        )

    x1 = canonical_sort(project_rows_scaled(shell1, a, b, mult=5))
    x2 = canonical_sort(project_rows_scaled(shell2, a, b, mult=15))  # 5 * (3 P(x))

    layer1 = PointLayer(points=x1, denom=5, weight=W1, r2=R1_SQ)
    layer2 = PointLayer(points=x2, denom=5, weight=W2, r2=R2_SQ)

    if has_repeated_row(x1) or has_repeated_row(x2):
        raise DesignConstructionError("projection collapsed points")
    return WeightedPointSet(layers=(layer1, layer2))


def build_Y(a, b):
    """The norm-4 shell with (x, a) = 2, projected along a only and stored as
    2 * P_a(x) with denominator 2, split by (x, b) into four families, in
    shell order: keys +1, +2, -2, -1 for (x, b) = 1, 0, -1, -2.  Every row
    has one of these values: the Leech lattice has no norm-2 vectors, and x -
    a - b would have norm 2 at (x, b) = 2, and x -+ b at (x, b) = +-3.

    Returns dict keyed by +1, +2, -2, -1 mapping to (n, 24) int arrays.
    Their sizes and the size of their union are left to the caller.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    check_anchor_pair(a, b)
    shell = enumerate_coset_shell([CosetConstraint(a, 2)], 4)
    proj = project_rows_scaled(shell, a, mult=2)
    if not bool(((proj**2).sum(axis=1) == 8 * 4 * 3).all()):  # r^2 = 3 at denom 2
        raise DesignConstructionError("Y projection radius is not 3")
    b_value = exact_matmul(shell, b) // 8
    return {key: proj[b_value == v] for key, v in ((1, 1), (2, 0), (-2, -1), (-1, -2))}


def y_antipodal_pair_count(y_sets) -> int:
    """Number of {v, -v} pairs in the union of the four projected families."""
    union = distinct_rows(np.concatenate([y_sets[k] for k in (1, 2, -1, -2)]))
    if not union.any(axis=1).all():  # only the zero row is its own antipode
        raise DesignConstructionError("self-antipodal point in Y union")
    if not np.array_equal(union, distinct_rows(-union)):
        raise DesignConstructionError("Y union is not antipode-closed")
    return len(union) // 2


def check_X1_equals_PY(ws: WeightedPointSet, y_plus1: np.ndarray, a, b) -> bool:
    """Does projecting the (2, 1) family through the full A,B-projection
    reproduce the inner shell of `ws` exactly, as sets of rational vectors?

    `y_plus1` is Y[+1] as `build_Y` returns it, 2 * P_a(x) at denominator 2.
    Since P_AB(P_a(x)) = P_AB(x), five times its A,B-projection is twice
    the inner shell at denominator 5.
    """
    proj = project_rows_scaled(y_plus1, a, b, mult=5)
    if np.any(proj % 2):
        return False
    return same_row_set(proj // 2, ws.layers[0].points)


# -- the antipodal double cover on S^22 ---------------------------------------


# Layer i joins the unit sphere of R^23 as the points +-(a_i x / r_1, b_i),
# a_i^2 (r_i/r_1)^2 + b_i^2 = 1: a_1 = 2/sqrt5, b_1 = 1/sqrt5, a_2 = 2/(3 sqrt5),
# b_2 = 1/(3 sqrt5).  Block (i, j) of the cover has a_i a_j / r_1^2 and b_i b_j:
_Z_MAPS = {
    (0, 0): (Fraction(1, 3), Fraction(1, 5)),
    (1, 1): (Fraction(1, 27), Fraction(1, 45)),
    (0, 1): (Fraction(1, 9), Fraction(1, 15)),
}


def z_value_histogram(design: WeightedPointSet) -> tuple[BlockStats, int]:
    """The inner products over all ordered pairs of the antipodal cover Z,
    from the design's Gram histograms: the histogram of the integers den * z,
    as Python ints, and den, the least common denominator of the maps from a
    block's stored dots to z.  `seven/z-pair-count` checks the total."""
    # the stored dot d of block (i, j) gives z = +-(slope d + shift)
    maps = {ij: (a / design.dot_scale(*ij), b) for ij, (a, b) in _Z_MAPS.items()}
    den = lcm(*(x.denominator for pair in maps.values() for x in pair))
    pieces = []
    for (i, j), (slope, shift) in maps.items():
        st = design.pair_stats(i, j)
        z = st.values.astype(object) * int(slope * den) + int(shift * den)
        # each sign twice (+/+ and -/-, +/- and -/+), and block (1, 0) as (0, 1)
        counts = (2 if i == j else 4) * st.counts
        pieces += [(z, counts), (-z, counts)]
    return BlockStats.merge(pieces), den
