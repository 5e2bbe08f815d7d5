"""Pair classification and intersection numbers of the 13-relation
configuration carried by the two-shell design.

`classify_pairs` gives every ordered pair (x, y) of the 2300 points the
index in `LABELS` of its relation, decided by fiber pair and exact
normalized inner product; the result is one (n, n) label matrix.  It
builds no Gram block of its own: it reads the design's pair statistics,
one table lookup per block, and transposes the (1, 2) labels into the
(2, 1) block, so the matrix is transpose-consistent by construction.

`intersection_numbers` computes the composition counts p_{a,b}^c for
every ordered pair of relations.  The identity relations must be exactly
the diagonal, which it checks; their counts are then [b = c] and [a = c]
and need no product.  Each of the 11 other relations a is one product
A_a @ R of its 0/1 indicator with a packed operand: R weights each
non-identity relation b by 2^(w j), j its position among the at most three
non-identity relations of its block, so one entry of the product holds
the counts of up to three b as base-2^w digits (Kronecker substitution;
Harvey, J. Symb. Comput. 44, 2009).  The digit width w is the bit length
of the larger fiber, 11 here: a count is at most a fiber size, so it never
carries into the next digit.  The products run through
`construct.exact_matmul`, whose 2^53 bound is the one exactness check;
every fiber of fewer than 2^17 points keeps it, since a packed sum is
below 2^(3w) <= 2^51.  The packed counts are read at one
representative pair per relation and checked against every pair (not a
sample) in slabs of 256 rows; a mismatch names its b by the lowest
differing digit.  `check_tensor_identities` is the one structural check
for any 13x13x13 tensor, computed or reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construct import WeightedPointSet, exact_matmul
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
# Each non-identity relation's position among those of its block: its digit
# in a packed count.
_DIGIT = {
    b: sum(LABEL_FIBERS[d] == LABEL_FIBERS[b] for d in range(b) if d not in _IDENTITY)
    for b in range(13)
    if b not in _IDENTITY
}


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
    """The full 13x13x13 tensor, with exhaustive well-definedness checks:
    one packed product per non-identity relation (see the module notes)."""
    labels = part.labels
    fiber = _fiber_slices(part.fiber_sizes)
    # One representative pair per relation; None for a relation no pair
    # carries.
    flat = labels.ravel()
    rep = []
    for c in range(13):
        hits = flat == c
        k = int(np.argmax(hits))
        rep.append(divmod(k, len(labels)) if flat[k] == c else None)
        if c in _IDENTITY:
            f = fiber[_IDENTITY.index(c)]
            if np.count_nonzero(hits) != f.stop - f.start or bool(
                (np.diagonal(labels)[f] != c).any()
            ):
                raise ConfigurationAxiomError(
                    f"relation {LABELS[c]} is not exactly the diagonal of its fiber"
                )
    tensor = np.zeros((13, 13, 13), dtype=np.int64)
    for c, (rc, cc) in enumerate(LABEL_FIBERS):
        if rep[c] is not None:
            tensor[_IDENTITY[rc - 1], c, c] = tensor[c, _IDENTITY[cc - 1], c] = 1

    # A count is at most a fiber size, so below 2^w.
    w = max(part.fiber_sizes).bit_length()
    weight = np.zeros(13)
    for b, j in _DIGIT.items():
        weight[b] = 2.0 ** (w * j)

    def count(packed: int, j: int) -> int:
        return (packed >> (w * j)) & ((1 << w) - 1)

    packed = packed_fiber = None
    for a, (ra, ca) in enumerate(LABEL_FIBERS):
        if a not in _DIGIT:
            continue
        if ca != packed_fiber:  # 11.*, then 22.* and 12.*, then 21.*
            packed = None  # one packed operand at a time
            packed, packed_fiber = weight[labels[fiber[ca - 1]]], ca
        rows = fiber[ra - 1]
        counts = exact_matmul(labels[rows, fiber[ca - 1]] == a, packed)
        lut = np.zeros(13, dtype=np.int64)
        for c, (rc, cc) in enumerate(LABEL_FIBERS):
            if rc == ra and rep[c] is not None:
                lut[c] = counts[rep[c][0] - rows.start, rep[c][1]]
                for b, j in _DIGIT.items():
                    if LABEL_FIBERS[b] == (ca, cc):
                        tensor[a, b, c] = count(int(lut[c]), j)
        target = labels[rows]
        for r in range(0, len(counts), 256):
            bad = counts[r : r + 256] != lut[target[r : r + 256]]
            if bool(bad.any()):
                p, q = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
                c = int(target[r + p, q])
                got, want = int(counts[r + p, q]), int(lut[c])
                low = (got ^ want) & -(got ^ want)  # the lowest differing bit
                j = (low.bit_length() - 1) // w
                b = next(
                    d for d, k in _DIGIT.items()
                    if k == j and LABEL_FIBERS[d] == (ca, LABEL_FIBERS[c][1])
                )
                w2 = (rows.start + r + p, q)
                raise ConfigurationAxiomError(
                    f"p_[{LABELS[a]},{LABELS[b]}]^[{LABELS[c]}] not well defined: "
                    f"pair {rep[c]} sees {count(want, j)}, pair {w2} sees {count(got, j)}",
                    (rep[c], w2),
                )
        del counts  # before the next product is allocated
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
