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
    """All sign vectors in {+1,-1}^k with an even number of -1 entries."""
    out = []
    for mask in range(1 << k):
        if mask.bit_count() & 1:
            continue
        out.append([-1 if (mask >> i) & 1 else 1 for i in range(k)])
    return np.array(out, dtype=np.int64)


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
    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    four = np.zeros((len(pairs) * 4, 24), dtype=np.int8)
    r = 0
    for i, j in pairs:
        for si in (4, -4):
            for sj in (4, -4):
                four[r, i] = si
                four[r, j] = sj
                r += 1
    yield four

    signs8 = 2 * _even_sign_patterns(8).astype(np.int8)
    octads = code.masks_of_weight(8)
    per_block = BLOCK_ROWS // len(signs8)
    for start in range(0, len(octads), per_block):
        batch = octads[start : start + per_block]
        block = np.zeros((len(batch), len(signs8), 24), dtype=np.int8)
        for k, m in enumerate(batch):
            pos = [i for i in range(24) if (int(m) >> i) & 1]
            block[k][:, pos] = signs8
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


def rows_as_set(arr: np.ndarray) -> set[tuple[int, ...]]:
    return {tuple(int(x) for x in row) for row in np.asarray(arr)}
