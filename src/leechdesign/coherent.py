"""Pair classification and intersection numbers of the 13-relation
configuration carried by the two-shell design.

`classify_pairs` gives every ordered pair (x, y) of the 2300 points the
index in `LABELS` of its relation, decided by fiber pair and exact
normalized inner product; the result is one (n, n) label matrix.  It
builds no Gram block of its own: it reads the design's pair statistics,
one table lookup per block, and transposes the (1, 2) labels into the
(2, 1) block, so the matrix is transpose-consistent by construction.  The
composition counts p_{a,b}^c are computed for every ordered pair of
relations by 0/1 matrix products, read at one representative pair per
relation, and checked against every pair (not a sample) in one
gather-and-compare.  `check_tensor_identities` is the one structural check
for any 13x13x13 tensor, computed or reference.

Counts are accumulated in float32 BLAS products of indicator matrices.
Every partial sum is an integer no larger than a fiber size, so the
products are exact while each fiber has fewer than 2^24 points, which
`intersection_numbers` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construct import WeightedPointSet
from .coherent_fixture import (
    LABELS,
    LABEL_FIBERS,
    LABEL_INDEX,
    NORMALIZED_PRODUCTS,
    TRANSPOSE,
    VALENCIES,
    fixture_tensor,
)

_TRANSPOSE = np.array(TRANSPOSE, dtype=np.int8)
_IDENTITY = (LABEL_INDEX["11.0"], LABEL_INDEX["22.0"])  # per fiber
_FIBER_SIZES = (275, 2025)
_FLOAT32_EXACT = 2**24


class RelationClassificationError(RuntimeError):
    """An inner product outside the nine admissible values appeared."""


class ConfigurationAxiomError(RuntimeError):
    """A composition count is not constant on a relation class, or a tensor
    breaks an identity every coherent configuration satisfies."""

    def __init__(self, message: str, witnesses: tuple = ()):
        super().__init__(message)
        self.witnesses = witnesses


@dataclass(frozen=True)
class RelationPartition:
    """labels[p, q] is the index in LABELS of the relation of the ordered
    pair (p, q); fiber 1 first."""

    labels: np.ndarray  # (n, n) int8
    fiber_sizes: tuple[int, int]


def _fiber_slices(fiber_sizes) -> tuple[slice, slice]:
    n1, n2 = fiber_sizes
    return slice(0, n1), slice(n1, n1 + n2)


def _block_dots(ws: WeightedPointSet, i: int, j: int) -> list[tuple[int, int]]:
    """(relation, stored-integer dot) for every relation of block (i, j)."""
    r2i, r2j = ws.layers[i].r2, ws.layers[j].r2
    if i != j and r2j / r2i not in (Fraction(11), Fraction(1, 11)):
        raise RelationClassificationError("cross radii are not in ratio 11")
    # |x| |y| is r2i within a fiber and sqrt(r2i r2j) = sqrt(11) min(r2i, r2j)
    # across, where the normalized products are listed times sqrt(11).
    unit = min(r2i, r2j) * ws.dot_scale(i, j)
    out = []
    for c, fibers in enumerate(LABEL_FIBERS):
        if fibers == (i + 1, j + 1):
            dot = NORMALIZED_PRODUCTS[c] * unit
            if dot.denominator != 1:
                raise RelationClassificationError(f"non-integer expected dot {dot}")
            out.append((c, int(dot)))
    return out


def classify_pairs(ws: WeightedPointSet) -> RelationPartition:
    """Label every ordered pair; fatal if any inner product is off-list.
    Each block is one lookup: a table from its distinct values to relations,
    read at every entry's position among them."""
    if len(ws.layers) != 2:
        raise RelationClassificationError("expected exactly two layers")
    sizes = (ws.layers[0].size, ws.layers[1].size)
    fiber = _fiber_slices(sizes)
    labels = np.empty((sum(sizes), sum(sizes)), dtype=np.int8)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        dots = _block_dots(ws, i, j)
        st = ws.pair_stats(i, j)
        lut = np.full(len(st.values), -1, dtype=np.int8)
        for c, dot in dots:
            lut[st.values == dot] = c
        # The identity relation is exactly the diagonal, which holds the
        # layer's norm (`PointLayer` checks it): any more entries at it are
        # pairs of equal points.
        if i == j and st.counts[lut == _IDENTITY[i]].sum() != ws.layers[i].size:
            raise RelationClassificationError("duplicate point: off-diagonal pair at full norm")
        block = lut[st.index]
        if bool((lut < 0).any()):
            p, q = np.argwhere(block < 0)[0]
            raise RelationClassificationError(
                f"inner product {st.values[st.index[p, q]]}/{ws.dot_scale(i, j)} in "
                f"block ({i},{j}) is outside the admissible set"
            )
        labels[fiber[i], fiber[j]] = block
    labels[fiber[1], fiber[0]] = _TRANSPOSE[labels[fiber[0], fiber[1]].T]
    return RelationPartition(labels=labels, fiber_sizes=sizes)


def intersection_numbers(part: RelationPartition) -> np.ndarray:
    """The full 13x13x13 tensor, with exhaustive well-definedness checks."""
    if max(part.fiber_sizes) >= _FLOAT32_EXACT:
        raise ConfigurationAxiomError(
            f"a fiber of {max(part.fiber_sizes)} points: float32 counts are "
            f"exact only below 2^24"
        )
    labels = part.labels
    fiber = _fiber_slices(part.fiber_sizes)
    offset = (0, part.fiber_sizes[0])
    indicator = [
        (labels[fiber[r - 1], fiber[c - 1]] == a).astype(np.float32)
        for a, (r, c) in enumerate(LABEL_FIBERS)
    ]
    # One representative pair per relation, local to the relation's block;
    # None for a relation no pair carries.
    flat = labels.ravel()
    rep = []
    for c, (rf, cf) in enumerate(LABEL_FIBERS):
        k = int(np.argmax(flat == c))
        p, q = divmod(k, len(labels))
        rep.append((p - offset[rf - 1], q - offset[cf - 1]) if flat[k] == c else None)

    tensor = np.zeros((13, 13, 13), dtype=np.int64)
    for a, (ra, ca) in enumerate(LABEL_FIBERS):
        for b, (rb, cb) in enumerate(LABEL_FIBERS):
            if rb != ca:
                continue
            counts = np.rint(indicator[a] @ indicator[b])
            lut = np.zeros(13, dtype=np.float32)
            for c, fibers in enumerate(LABEL_FIBERS):
                if fibers == (ra, cb) and rep[c] is not None:
                    lut[c] = counts[rep[c]]
            target = labels[fiber[ra - 1], fiber[cb - 1]]
            bad = counts != lut[target]
            if bool(bad.any()):
                p, q = np.unravel_index(np.argmax(bad), bad.shape)
                c = int(target[p, q])
                w1 = (rep[c][0] + offset[ra - 1], rep[c][1] + offset[cb - 1])
                w2 = (int(p) + offset[ra - 1], int(q) + offset[cb - 1])
                raise ConfigurationAxiomError(
                    f"p_[{LABELS[a]},{LABELS[b]}]^[{LABELS[c]}] not well defined: "
                    f"pair {w1} sees {int(lut[c])}, pair {w2} sees {int(counts[p, q])}",
                    (w1, w2),
                )
            tensor[a, b] = lut
    return tensor


def compare_with_reference(tensor: np.ndarray) -> list[tuple[str, str, str, int, int]]:
    """Entrywise comparison with the reference tables; returns mismatches
    (a, b, c, got, expected)."""
    reference = fixture_tensor()
    return [
        (LABELS[a], LABELS[b], LABELS[c], int(tensor[a, b, c]), int(reference[a, b, c]))
        for a, b, c in np.argwhere(tensor != reference)
    ]


def check_tensor_identities(tensor: np.ndarray) -> list[int]:
    """Structural identities every coherent configuration on fibers of 275
    and 2025 points must satisfy; returns the valencies k_a in LABELS order.

    Transpose symmetry p_{a,b}^c = p_{b^T,a^T}^{c^T}; the valencies
    k_a = p_{a,a^T}^{identity of a's source fiber}; the valencies of the
    relations from fiber i to fiber j sum to |X_j|; and the column sums
    sum_b p_{a,b}^c = k_a over the b that compose a into c.
    """
    swapped = tensor[np.ix_(_TRANSPOSE, _TRANSPOSE, _TRANSPOSE)].transpose(1, 0, 2)
    bad = np.argwhere(tensor != swapped)
    if len(bad):
        a, b, c = bad[0]
        raise ConfigurationAxiomError(
            f"transpose symmetry fails at p_[{LABELS[a]},{LABELS[b]}]^[{LABELS[c]}]: "
            f"{tensor[a, b, c]} != {swapped[a, b, c]}"
        )
    valency = [
        int(tensor[a, TRANSPOSE[a], _IDENTITY[r - 1]])
        for a, (r, _) in enumerate(LABEL_FIBERS)
    ]
    for rf, cf in ((1, 1), (2, 2), (1, 2), (2, 1)):
        total = sum(k for k, f in zip(valency, LABEL_FIBERS) if f == (rf, cf))
        if total != _FIBER_SIZES[cf - 1]:
            raise ConfigurationAxiomError(
                f"valencies of the {rf}{cf}.* relations sum to {total}, "
                f"not |X{cf}| = {_FIBER_SIZES[cf - 1]}"
            )
    for a, (ra, ca) in enumerate(LABEL_FIBERS):
        for c, (rc, cc) in enumerate(LABEL_FIBERS):
            if rc != ra:
                continue
            s = sum(
                int(tensor[a, b, c])
                for b in range(13)
                if LABEL_FIBERS[b] == (ca, cc)
            )
            if s != valency[a]:
                raise ConfigurationAxiomError(
                    f"column sum {s} != valency {valency[a]} at a={LABELS[a]}, c={LABELS[c]}"
                )
    return valency


def fixture_self_test() -> None:
    """Transcription guard for the reference tables: they pass
    `check_tensor_identities`, and the valencies they give are `VALENCIES`."""
    valency = check_tensor_identities(fixture_tensor())
    listed = [VALENCIES[name] for name in LABELS]
    if valency != listed:
        raise ConfigurationAxiomError(
            f"reference valencies {valency} differ from VALENCIES {listed}"
        )
