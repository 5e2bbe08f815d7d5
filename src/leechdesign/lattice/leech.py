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
from .intlinalg import det_int, hnf_rows

# Canonical anchor pair: both norm 4, conventional_inner(A, B) = -1.
A_CANONICAL = np.array([4, 4] + [0] * 22, dtype=np.int64)
B_CANONICAL = np.array([-3] + [1] * 23, dtype=np.int64)

# An alternative valid pair for anchor-independence checks.
A_ALTERNATE = np.array([0, 0, 4, 4] + [0] * 20, dtype=np.int64)
B_ALTERNATE = np.array([1, 1, 1, -3] + [1] * 20, dtype=np.int64)

_LEECH_SCALED_DET = 8**12  # covolume of the sqrt8-scaled lattice


class LeechConstructionError(RuntimeError):
    pass


def conventional_inner(u, v) -> Fraction:
    """Conventional inner product of two scaled-frame vectors: (u.v)/8."""
    s = int(np.dot(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)))
    return Fraction(s, 8)


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


def leech_basis(code: GolayCode) -> np.ndarray:
    """A 24x24 integer basis (rows) of the scaled lattice.

    Generators: twice the generator codewords, 4(e_0 + e_i), and the odd
    coset representative (-3, 1, ..., 1); reduced to a basis by HNF.  The
    result is checked against the known covolume 8^12 and the membership
    conditions, which are implemented independently of this construction.
    """
    gens: list[list[int]] = []
    for row in code.generator:
        gens.append([2 * int(b) for b in row])
    for i in range(1, 24):
        v = [0] * 24
        v[0] = 4
        v[i] = 4
        gens.append(v)
    gens.append(list(B_CANONICAL))

    h, _ = hnf_rows(gens)
    rows = [r for r in h if any(r)]
    if len(rows) != 24:
        raise LeechConstructionError(f"basis rank {len(rows)} != 24")
    d = abs(det_int(rows))
    if d != _LEECH_SCALED_DET:
        raise LeechConstructionError(f"basis determinant {d} != 8^12")
    basis = np.array(rows, dtype=np.int64)
    if not bool(membership_mask(basis, code).all()):
        raise LeechConstructionError("basis row fails membership conditions")
    return basis


def _even_sign_patterns(k: int) -> np.ndarray:
    """All sign vectors in {+1,-1}^k with an even number of -1 entries."""
    out = []
    for mask in range(1 << k):
        if mask.bit_count() & 1:
            continue
        out.append([-1 if (mask >> i) & 1 else 1 for i in range(k)])
    return np.array(out, dtype=np.int64)


def norm4_shell(code: GolayCode) -> np.ndarray:
    """All 196560 minimal vectors, built shape class by shape class.

    This route is independent of the sphere enumerator and serves as its
    oracle: shape (+-4, +-4, 0^22) from coordinate pairs, (+-2^8, 0^16)
    from octads with evenly many minus signs, and (-+3, +-1^23) from a
    codeword sign flip with one coordinate pushed to +-3.
    """
    blocks: list[np.ndarray] = []

    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    four = np.zeros((len(pairs) * 4, 24), dtype=np.int64)
    r = 0
    for i, j in pairs:
        for si in (4, -4):
            for sj in (4, -4):
                four[r, i] = si
                four[r, j] = sj
                r += 1
    blocks.append(four)

    signs8 = _even_sign_patterns(8)
    octads = code.masks_of_weight(8)
    oct_block = np.zeros((len(octads) * len(signs8), 24), dtype=np.int64)
    r = 0
    for m in octads:
        pos = [i for i in range(24) if (int(m) >> i) & 1]
        chunk = np.zeros((len(signs8), 24), dtype=np.int64)
        chunk[:, pos] = 2 * signs8
        oct_block[r : r + len(signs8)] = chunk
        r += len(signs8)
    blocks.append(oct_block)

    s = 1 - 2 * code.words.astype(np.int64)  # (4096, 24), entries +-1
    odd_blocks = []
    for j in range(24):
        x = s.copy()
        x[:, j] = -3 * s[:, j]
        odd_blocks.append(x)
    blocks.append(np.concatenate(odd_blocks))

    shell = np.concatenate(blocks)
    if shell.shape[0] != 196560:
        raise LeechConstructionError(f"norm-4 shell size {shell.shape[0]}")
    return canonical_sort(shell)


def shell_size(norm, code: GolayCode) -> int:
    """Exact shell count by shape-class counting (norms 0, 2, 4, 6)."""
    n = Fraction(norm)
    if n == 0:
        return 1
    if n == 2:
        return 0
    n_octads = code.weight_counts.get(8, 0)
    n_dodecads = code.weight_counts.get(12, 0)
    if n == 4:
        # (+-4^2), octad (+-2^8) even minus, (-+3, +-1^23)
        return 4 * 276 + n_octads * 128 + 4096 * 24
    if n == 6:
        # dodecad (+-2^12) even minus; (+-4, octad +-2^8) with the 4 off the
        # octad and odd minus count; (+-5, +-1^23); (-+3^3, +-1^21)
        return (
            n_dodecads * 2048
            + n_octads * 16 * 2 * 128
            + 4096 * 24
            + 4096 * 2024
        )
    raise ValueError(f"shell_size supports norms 0,2,4,6; got {norm}")


def canonical_sort(arr: np.ndarray) -> np.ndarray:
    """Lexicographic row sort; the canonical order for all vector sets."""
    arr = np.asarray(arr)
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def rows_as_set(arr: np.ndarray) -> set[tuple[int, ...]]:
    return {tuple(int(x) for x in row) for row in np.asarray(arr)}
