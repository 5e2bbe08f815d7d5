"""The Leech lattice in the sqrt8-scaled integer frame.

A lattice vector is stored as 24 integers; a vector whose conventional
squared norm is m has coordinate square sum 8m, and the conventional
inner product of u and v is (u . v) / 8 ("conventional_inner" below).  In this
frame every vector of the lattice is integral and membership is three
congruence conditions against the Golay code.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .golay import GolayCode

# Canonical anchor pair: both norm 4, conventional_inner(A, B) = -1.
A_CANONICAL = np.array([4, 4] + [0] * 22, dtype=np.int64)
B_CANONICAL = np.array([-3] + [1] * 23, dtype=np.int64)


class LeechConstructionError(RuntimeError):
    pass


def conventional_inner(u, v) -> Fraction:
    """Conventional inner product of two scaled-frame vectors: (u.v)/8, in
    Python ints, since an int64 dot of coordinates near 2^32 wraps."""
    return Fraction(sum(int(x) * int(y) for x, y in zip(u, v, strict=True)), 8)


def membership_mask(arr: np.ndarray, code: GolayCode) -> np.ndarray:
    """Lattice membership of each row of an (n, 24) int array: the three
    membership conditions

    1. all coordinates share one parity m in {0, 1};
    2. ((c_i - m)/2 mod 2) is a Golay codeword;
    3. sum(c_i) = 4m (mod 8).
    """
    arr = np.asarray(arr, dtype=np.int64)
    par = arr & 1
    m = par[:, 0]
    ok = np.all(par == m[:, None], axis=1)
    halved = ((arr - m[:, None]) >> 1) & 1
    powers = (np.int64(1) << np.arange(24, dtype=np.int64))
    masks = halved @ powers
    idx = np.searchsorted(code.codewords, masks)
    idx = np.clip(idx, 0, len(code.codewords) - 1)
    in_code = code.codewords[idx] == masks
    sums_ok = (arr.sum(axis=1) - 4 * m) % 8 == 0
    return ok & in_code & sums_ok


def _even_sign_patterns(k: int) -> np.ndarray:
    """All sign vectors in {+1,-1}^k with an even number of -1 entries, in
    ascending order of their -1 positions read as a k-bit mask."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return (1 - 2 * bits[bits.sum(axis=1) % 2 == 0]).astype(np.int64)


# Rows per streamed chunk of the norm-4 shell: 96 KB in int8.  The whole
# shell would add tens of MB to the peak memory of every `build`.
BLOCK_ROWS = 4096


def norm4_blocks(code: GolayCode):
    """All 196560 minimal vectors, streamed as int8 chunks of at most
    `BLOCK_ROWS` rows, built shape class by shape class from the Golay code
    (Conway & Sloane, SPLAG ch. 4): (+-4, +-4, 0^22) from coordinate pairs,
    (+-2^8, 0^16) from octads with evenly many minus signs, and
    (-+3, +-1^23) from a codeword sign flip with one coordinate pushed to
    +-3.  Raises LeechConstructionError after the last chunk unless the
    chunks total 196560 rows.

    A consumer that filters each chunk never holds the whole shell.
    """
    total = 0
    for block in _shape_classes(code):
        total += len(block)
        yield block
    if total != 196560:
        raise LeechConstructionError(f"norm-4 shell size {total}")


def _shape_classes(code: GolayCode):
    # each pair i < j with the signs (+, +), (+, -), (-, +), (-, -)
    i, j = np.triu_indices(24, 1)
    four = np.zeros((len(i), 4, 24), dtype=np.int8)
    four[np.arange(len(i)), :, i] = [4, 4, -4, -4]
    four[np.arange(len(i)), :, j] = [4, -4, 4, -4]
    yield four.reshape(-1, 24)

    signs8 = 2 * _even_sign_patterns(8).astype(np.int8)
    octads = code.masks_of_weight(8)
    support = np.nonzero((octads[:, None] >> np.arange(24)) & 1)[1].reshape(-1, 8)
    per_block = BLOCK_ROWS // len(signs8)
    for start in range(0, len(octads), per_block):
        pos = support[start : start + per_block]  # ascending, as `signs8` columns
        block = np.zeros((len(pos), len(signs8), 24), dtype=np.int8)
        octad = np.arange(len(pos))[:, None, None]
        block[octad, np.arange(len(signs8))[:, None], pos[:, None]] = signs8
        yield block.reshape(-1, 24)

    s = 1 - 2 * code.words.astype(np.int8)  # (4096, 24), entries +-1
    for j in range(24):
        x = s.copy()
        x[:, j] *= -3
        yield x


def norm4_shell(code: GolayCode) -> np.ndarray:
    """The 196560 minimal vectors of `norm4_blocks` as one int64 array in
    canonical order.  `enumerate_coset_shell` filters the same chunks
    without concatenating them; the sphere search of the test suite is the
    independent oracle of both."""
    return canonical_sort(np.concatenate(list(norm4_blocks(code)))).astype(np.int64)


def canonical_sort(arr: np.ndarray) -> np.ndarray:
    """Lexicographic row sort; the canonical order for all vector sets."""
    arr = np.asarray(arr)
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def has_repeated_row(sorted_rows: np.ndarray) -> bool:
    """Whether an array in canonical order holds two equal rows; equal rows
    of a sorted array are adjacent."""
    return bool((sorted_rows[1:] == sorted_rows[:-1]).all(axis=1).any())


def distinct_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array, in canonical order."""
    rows = canonical_sort(arr)
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def same_row_set(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two integer arrays hold the same set of rows, repeats ignored."""
    return np.array_equal(distinct_rows(a), distinct_rows(b))
