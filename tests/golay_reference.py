"""The extended Golay code built one codeword at a time, a reference for
the vectorized `leechdesign.lattice.build_golay`; the tests compare the two.

Every word is the XOR of the generator rows at the set bits of its index,
taken by a Python loop over the 4096 indices, and every bit is extracted
one at a time.
"""

from __future__ import annotations

import numpy as np

# x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1
GEN_POLY_BITS = (0, 2, 4, 5, 6, 10, 11)


def _bits(mask: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(24)]


def golay_by_loop():
    """(generator, sorted codeword masks, words, weight counts) as uint8,
    int64, uint8 arrays and a dict."""
    gen_mask23 = sum(1 << e for e in GEN_POLY_BITS)
    gen_rows = []
    for i in range(12):
        row23 = gen_mask23 << i
        gen_rows.append(row23 | ((row23.bit_count() & 1) << 23))
    masks = []
    for sel in range(4096):
        mask = 0
        for row in range(12):
            if (sel >> row) & 1:
                mask ^= gen_rows[row]
        masks.append(mask)
    masks.sort()
    counts: dict[int, int] = {}
    for m in masks:
        counts[m.bit_count()] = counts.get(m.bit_count(), 0) + 1
    return (
        np.array([_bits(r) for r in gen_rows], dtype=np.uint8),
        np.array(masks, dtype=np.int64),
        np.array([_bits(m) for m in masks], dtype=np.uint8),
        dict(sorted(counts.items())),
    )
