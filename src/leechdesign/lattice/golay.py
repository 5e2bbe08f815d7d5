"""Extended binary Golay code [24,12,8], materialized.

Built from the length-23 cyclic code with generator polynomial
x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, extended by an overall parity
bit.  All 4096 codewords are materialized both as 24-bit integers
(bit i = coordinate i) and as a (4096, 24) uint8 array, because the
lattice layer needs fast vectorized membership tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Coefficients of x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1 as exponent set.
_GEN_POLY_BITS = (0, 2, 4, 5, 6, 10, 11)

EXPECTED_WEIGHT_ENUMERATOR = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


class GolayConstructionError(RuntimeError):
    """The construction self-check failed; the generator is wrong."""


@dataclass(frozen=True)
class GolayCode:
    generator: np.ndarray  # (12, 24) uint8
    codewords: np.ndarray  # (4096,) int64, sorted 24-bit masks
    words: np.ndarray  # (4096, 24) uint8, rows aligned with `codewords`
    weight_counts: dict[int, int] = field(default_factory=dict)

    def masks_of_weight(self, w: int) -> np.ndarray:
        weights = np.array([int(m).bit_count() for m in self.codewords])
        return self.codewords[weights == w]


def _bits_from_mask(mask: int, n: int = 24) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)


def build_golay() -> GolayCode:
    """Construct the code and run the full self-check.

    Raises GolayConstructionError if the materialized code does not have
    4096 distinct words, the weight enumerator 1 + 759 x^8 + 2576 x^12 +
    759 x^16 + x^24, or fails self-duality.
    """
    length23 = 23
    gen_mask23 = 0
    for e in _GEN_POLY_BITS:
        gen_mask23 |= 1 << e

    gen_rows = []
    for i in range(12):
        row23 = gen_mask23 << i
        if row23 >= (1 << length23):
            raise GolayConstructionError("generator shift left the block")
        parity = row23.bit_count() & 1
        gen_rows.append(row23 | (parity << length23))

    codeword_masks = np.zeros(4096, dtype=np.int64)
    for sel in range(4096):
        mask = 0
        s = sel
        row = 0
        while s:
            if s & 1:
                mask ^= gen_rows[row]
            s >>= 1
            row += 1
        codeword_masks[sel] = mask

    uniq = np.unique(codeword_masks)
    if len(uniq) != 4096:
        raise GolayConstructionError("generator rows are not independent")

    weights = np.array([int(m).bit_count() for m in uniq])
    counts: dict[int, int] = {}
    for w in np.unique(weights):
        counts[int(w)] = int(np.sum(weights == w))
    if counts != EXPECTED_WEIGHT_ENUMERATOR:
        raise GolayConstructionError(f"wrong weight enumerator: {counts}")

    # Self-duality: |C| = 2^12 and C is self-orthogonal (all pairwise
    # intersections even), so C = C-perp.  Checking the generators suffices.
    for i in range(12):
        for j in range(12):
            if (gen_rows[i] & gen_rows[j]).bit_count() & 1:
                raise GolayConstructionError("code is not self-orthogonal")

    words = np.zeros((4096, 24), dtype=np.uint8)
    for k, m in enumerate(uniq):
        words[k] = _bits_from_mask(int(m))

    generator = np.stack([_bits_from_mask(r) for r in gen_rows])
    return GolayCode(
        generator=generator, codewords=uniq, words=words, weight_counts=counts
    )
