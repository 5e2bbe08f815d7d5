"""Pair classification and intersection numbers of the 13-relation
configuration carried by the two-shell design.

`classify_pairs` gives every ordered pair (x, y) of the 2300 points the
index in `LABELS` of its relation, decided by fiber pair and exact
normalized inner product; the result is one (n, n) label matrix.  It
compares each 256-row slab of the blocks (1, 1), (1, 2) and (2, 2) with
the block's three or four relation dots, so no Gram block is held, and
transposes the (1, 2) labels into the (2, 1) block, so the matrix is
transpose-consistent by construction.

`intersection_numbers` computes the composition counts p_{a,b}^c for every
ordered pair of relations.  It first checks, on every pair and in this
order, that each label lies in its own fiber block, that the identity
relations are exactly the diagonal, that each relation a has a constant
count k_a per row on its source fiber, and that labels[q, p] is
T(labels[p, q]).  Then b has k_(T b) per column, and H_qp[a, b] =
H_pq[T b, T a] for H_pq[a, b] = #{z : (p, z) in a, (z, q) in b}, so the
pairs with q >= p decide every count.  In a coherent configuration the
relations of each fiber block sum to J (Higman, Geom. Dedicata 4, 1975),
so of the non-identity relations of a block all but the last are free: at
most two per block.  Each fiber block (r, s) is one product A @ B, A
weighting the free relation a_i of block (r, s) by 2^(2wi) and B the free
b_j of each block (s, t) by 2^(wj), so one entry holds up to four counts,
count(a_i, b_j) at base-2^w digit 2i + j (Kronecker substitution on both
operands; Harvey, J. Symb. Comput. 44, 2009).  The digit width w is the
bit length of the larger fiber, 11 here: a count is at most a fiber size,
so it never carries.  The products run through `construct.exact_matmul`,
whose 2^53 bound is the one exactness check; every fiber of fewer than
2^13 points keeps it, since the bound is a fiber size times 2^(3w), below
2^(4w).  The blocks sharing an inner fiber run as one product, whose right
operand is never whole: it is built a block of 512 columns at a time, each
block once for all the 128-row slabs at x that read it, on the columns
q >= x only (the panel reuse of blocked GEMM; Goto & van de Geijn, ACM TOMS
34, 2008).  The blocks visit pairs out of row order, so the entries at each
relation's representative, its first pair in row order, come first, from
one small product per fiber: 6,421,719,600 multiply-adds in all, 53 % of
2300^3.  Every pair with q > p is compared with its representative (not a
sample); a diagonal pair needs none, its counts following from the row
counts and the transpose check.  Every other entry follows exactly: the
identity relations give [b = c] and [a = c], over the b of block (s, t)
the counts sum to k_a, over the a of block (r, s) to k_(T b), and a (2, 1)
relation c takes p_{a,b}^c = p_{T b,T a}^{T c}, which a symmetric c must
satisfy at its representative.
A failure names the first (a, b) at which the direct composition
histograms of its two witness pairs differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construct import StepError, WeightedPointSet, exact_matmul, max_abs, slab_products
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
_SLAB = 128  # rows per slab of the counts, the transpose check and the products
_COLUMNS = 4 * _SLAB  # columns per block of the products' right operand
# The non-identity relations of each fiber block, in LABELS order.  All but
# the last are free, each at its position i among them.
_NON_IDENTITY = {
    f: [c for c, g in enumerate(LABEL_FIBERS) if g == f and c not in _IDENTITY]
    for f in ((1, 1), (1, 2), (2, 1), (2, 2))
}
_FREE = {c: i for block in _NON_IDENTITY.values() for i, c in enumerate(block[:-1])}


class RelationClassificationError(StepError):
    """An inner product outside the nine admissible values appeared."""


class ConfigurationAxiomError(StepError):
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
    Each 256-row slab of a block is compared with the block's few dots,
    and the first off-list entry in row order is named once its block is
    done, after a diagonal block's duplicate check."""
    if len(ws.layers) != 2:
        raise RelationClassificationError("expected exactly two layers")
    sizes = (ws.layers[0].size, ws.layers[1].size)
    fiber = _fiber_slices(sizes)
    labels = np.empty((sum(sizes), sum(sizes)), dtype=np.int8)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        dots = _block_dots(ws, i, j)
        block = labels[fiber[i], fiber[j]]
        on_norm, off_list = 0, None
        for r, product in slab_products(ws.layers[i].points, ws.layers[j].points):
            slab = block[r : r + len(product)]
            slab.fill(-1)
            for c, dot in dots:
                hit = product == dot
                slab += hit.view(np.int8) * (c + 1)
                if c in _IDENTITY:
                    on_norm += np.count_nonzero(hit)
            if off_list is None and slab.min() < 0:
                off_list = int(product[tuple(np.argwhere(slab < 0)[0])])
        # The identity relation is exactly the diagonal, which holds the
        # layer's norm (`PointLayer` checks it): any more entries at it are
        # pairs of equal points.
        if i == j and on_norm != ws.layers[i].size:
            raise RelationClassificationError("duplicate point: off-diagonal pair at full norm")
        if off_list is not None:
            raise RelationClassificationError(
                f"inner product {off_list}/{ws.dot_scale(i, j)} in "
                f"block ({i},{j}) is outside the admissible set"
            )
    labels[fiber[1], fiber[0]] = _TRANSPOSE[labels[fiber[0], fiber[1]].T]
    return RelationPartition(labels=labels, fiber_sizes=sizes)


def _not_well_defined(labels: np.ndarray, w1: tuple, w2: tuple) -> ConfigurationAxiomError:
    """Two pairs of one relation c whose composition counts differ, named at
    the first (a, b) where their direct histograms
    h[a, b] = #{z : (p, z) in a, (z, q) in b} differ."""
    h1, h2 = (
        np.bincount(13 * labels[p].astype(np.int64) + labels[:, q], minlength=169).reshape(13, 13)
        for p, q in (w1, w2)
    )
    a, b = (int(i) for i in np.argwhere(h1 != h2)[0])
    return ConfigurationAxiomError(
        f"p_[{LABELS[a]},{LABELS[b]}]^[{LABELS[labels[w1]]}] not well defined: "
        f"pair {w1} sees {h1[a, b]}, pair {w2} sees {h2[a, b]}",
        (w1, w2),
    )


def intersection_numbers(part: RelationPartition) -> np.ndarray:
    """The full 13x13x13 tensor, with exhaustive well-definedness checks:
    one packed product per fiber block, on the pairs q >= p (module notes)."""
    labels = part.labels
    n = len(labels)
    fiber = _fiber_slices(part.fiber_sizes)
    for r, s in _NON_IDENTITY:
        # LABELS lists the relations of each block contiguously.
        block = [c for c, g in enumerate(LABEL_FIBERS) if g == (r, s)]
        lo, hi = block[0], block[-1]
        entries = labels[fiber[r - 1], fiber[s - 1]]
        if entries.min(initial=lo) < lo or entries.max(initial=hi) > hi:
            p, q = np.argwhere((entries < lo) | (entries > hi))[0]
            c = int(entries[p, q])
            raise ConfigurationAxiomError(
                f"pair {(fiber[r - 1].start + int(p), fiber[s - 1].start + int(q))} carries "
                f"{LABELS[c] if 0 <= c < 13 else c}, not a relation of the {r}{s}.* block"
            )

    # rows[x, a] = #{z : (x, z) in a}
    rows = np.zeros((n, 13), dtype=np.int64)
    for x in range(0, n, _SLAB):
        slab = labels[x : x + _SLAB].astype(np.int64)
        m = len(slab)
        rows[x : x + m] = np.bincount(
            (slab + 13 * np.arange(m)[:, None]).ravel(), minlength=13 * m
        ).reshape(m, 13)
    diagonal = np.diagonal(labels)
    for f, c in zip(fiber, _IDENTITY):
        if bool((diagonal[f] != c).any() or (rows[f, c] != 1).any()):
            raise ConfigurationAxiomError(
                f"relation {LABELS[c]} is not exactly the diagonal of its fiber"
            )
    # Each relation's row count is constant on its source fiber; a point
    # where it is not sees a different histogram at its diagonal pair.
    for f in fiber:
        bad = (rows[f] != rows[f][:1]).any(axis=1)
        if bool(bad.any()):
            x = f.start + int(np.argmax(bad))
            raise _not_well_defined(labels, (f.start, f.start), (x, x))
    # Transposing a pair transposes its relation, so the column counts of b
    # are the row counts of T b and H_qp[a, b] = H_pq[T b, T a].
    for x in range(0, n, _SLAB):
        bad = labels[x : x + _SLAB] != _TRANSPOSE[labels[:, x : x + _SLAB].T]
        if bool(bad.any()):
            p, q = divmod(x * n + int(np.argmax(bad)), n)
            raise ConfigurationAxiomError(
                f"pair {(p, q)} carries {LABELS[labels[p, q]]}, but its transpose {(q, p)} "
                f"carries {LABELS[labels[q, p]]}, not {LABELS[_TRANSPOSE[labels[p, q]]]}",
                ((p, q), (q, p)),
            )
    valency = rows[[fiber[r - 1].start for r, _ in LABEL_FIBERS], range(13)]
    covalency = valency[_TRANSPOSE]

    # One representative pair per relation, the first in row order; None for
    # a relation no pair carries, or of block (2, 1), whose pairs have q < p.
    rep = [None] * 13
    for c in range(13):
        x = int(np.argmax(rows[:, c] > 0))
        if rows[x, c] and c not in _NON_IDENTITY[2, 1]:
            rep[c] = (x, int(np.argmax(labels[x] == c)))

    # A count is at most a fiber size, so below 2^w.  A free relation a of
    # block (r, s) weighs 2^(2wi) on the left and a free b of block (s, t)
    # 2^(wj) on the right, so count(a, b) is digit 2i + j of the product.
    w = max(part.fiber_sizes).bit_length()
    left, right = np.zeros(13), np.zeros(13)
    for c, i in _FREE.items():
        left[c], right[c] = 2.0 ** (2 * w * i), 2.0 ** (w * i)
    # packed[s - 1, c]: the value at rep[c] of the product through fiber s,
    # taken first, as the column blocks visit pairs out of row order; the
    # fill reads it for the identities too, whose pairs are not compared.
    packed = np.zeros((2, 13), dtype=np.int64)
    cs = [c for c, pair in enumerate(rep) if pair is not None]
    ps, qs = np.array([rep[c] for c in cs]).T
    for s, inner in zip((1, 2), fiber):
        packed[s - 1, cs] = np.diagonal(
            exact_matmul(left[labels[ps, inner]], right[labels[inner, qs]])
        )
    # Through inner fiber s, the rows of fiber r are block (r, s)'s product.
    # Its right operand is built a column block at a time, from the rows
    # j0..j1 by the transpose check, and read by every slab x < j1 on the
    # columns q >= x.  Only q > p is compared: H_pp[a, b] = [b = T a] k_a
    # already follows from the row counts and the transpose check.  Each
    # left operand is gathered into one buffer per fiber ("clip" never acts:
    # every label is checked in range above).
    transposed, b_max = right[_TRANSPOSE], max_abs(right)
    buf = np.empty((_SLAB, _COLUMNS), dtype=np.int64)
    for s, inner in zip((1, 2), fiber):
        lhs_buf = np.empty((_SLAB, inner.stop - inner.start))
        for j0 in range(0, n, _COLUMNS):
            j1 = min(j0 + _COLUMNS, n)
            block = transposed[labels[j0:j1, inner]].T
            for x in range(0, j1, _SLAB):
                q0, rows = max(x, j0), labels[x : x + _SLAB, inner]
                lhs = left.take(rows, mode="clip", out=lhs_buf[: len(rows)])
                counts = exact_matmul(lhs, block[:, q0 - j0 :], b_max, buf[: len(lhs), : j1 - q0])
                target = labels[x : x + _SLAB, q0:j1]
                bad = np.triu(counts != packed[s - 1][target], x - q0 + 1)
                if bool(bad.any()):
                    p, q = (int(i) for i in np.argwhere(bad)[0])
                    raise _not_well_defined(labels, rep[target[p, q]], (x + p, q0 + q))
            del block  # before the next one is built

    # Every other entry follows from the valencies.  Over the relations b of
    # block (s, t), sum_b p_(a,b)^c = k_a, where p_(a,identity)^c = [a = c];
    # over the a of block (r, s), sum_a p_(a,b)^c = k_(T b) likewise.
    tensor = np.zeros((13, 13, 13), dtype=np.int64)
    for c, (r, t) in enumerate(LABEL_FIBERS):
        if rep[c] is None:
            continue
        tensor[_IDENTITY[r - 1], c, c] = tensor[c, _IDENTITY[t - 1], c] = 1
        for s in (1, 2):
            *free_a, last_a = _NON_IDENTITY[r, s]
            *free_b, last_b = _NON_IDENTITY[s, t]
            for a in free_a:
                for b in free_b:
                    digit = w * (2 * _FREE[a] + _FREE[b])
                    tensor[a, b, c] = (int(packed[s - 1, c]) >> digit) & ((1 << w) - 1)
                tensor[a, last_b, c] = valency[a] - (a == c) - tensor[a, free_b, c].sum()
            for b in (*free_b, last_b):
                tensor[last_a, b, c] = covalency[b] - (b == c) - tensor[free_a, b, c].sum()
        # p_(a,b)^(T c) = p_(T b,T a)^c gives the (2, 1) relations; check it for T c = c.
        swapped = tensor[:, :, c][np.ix_(_TRANSPOSE, _TRANSPOSE)].T
        if _TRANSPOSE[c] == c and bool((swapped != tensor[:, :, c]).any()):
            raise _not_well_defined(labels, rep[c], rep[c][::-1])
        tensor[:, :, _TRANSPOSE[c]] = swapped
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
    sum_b p_{a,b}^c = k_a over the b that compose a into c.  On a tensor of
    `intersection_numbers` the first and the last hold by construction, since
    it derives the (2, 1) relations and each block's last relation from
    them; on the reference tables they remain a real check.
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
