"""Extended binary Golay code [24,12,8], materialized.

Built from the length-23 cyclic code with generator polynomial
x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, extended by an overall parity
bit.  The 4096 codewords are the XORs of the generator rows over every
subset of them, taken in one vectorized reduction, and are materialized
both as sorted 24-bit integers (bit i = coordinate i) and, by bit
extraction, as a (4096, 24) uint8 array, because the lattice layer needs
fast vectorized membership tests.  The construction checks itself: 4096
distinct words, the weight enumerator, and self-orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Coefficients of x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1 as exponent set.
_GEN_POLY_BITS = (0, 2, 4, 5, 6, 10, 11)

EXPECTED_WEIGHT_ENUMERATOR = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}

_BIT = np.arange(24, dtype=np.int64)


class GolayConstructionError(RuntimeError):
    """The construction self-check failed; the generator is wrong."""


@dataclass(frozen=True)
class GolayCode:
    generator: np.ndarray  # (12, 24) uint8
    codewords: np.ndarray  # (4096,) int64, sorted 24-bit masks
    words: np.ndarray  # (4096, 24) uint8, rows aligned with `codewords`
    weight_counts: dict[int, int] = field(default_factory=dict)

    def masks_of_weight(self, w: int) -> np.ndarray:
        return self.codewords[self.words.sum(axis=1) == w]


def build_golay() -> GolayCode:
    """Construct the code and run the full self-check.

    Raises GolayConstructionError if the materialized code does not have
    4096 distinct words, the weight enumerator 1 + 759 x^8 + 2576 x^12 +
    759 x^16 + x^24, or fails self-duality.
    """
    # Row i is x^i g(x) on coordinates 0..22, then its parity bit at 23.
    exponents = np.arange(12)[:, None] + np.array(_GEN_POLY_BITS)
    if exponents.max() >= 23:
        raise GolayConstructionError("generator shift left the block")
    generator = np.zeros((12, 24), dtype=np.uint8)
    np.put_along_axis(generator, exponents, 1, axis=1)
    generator[:, 23] = generator.sum(axis=1) & 1
    gen_masks = generator.astype(np.int64) @ (1 << _BIT)

    # Codeword `sel` is the XOR of the generator rows at the set bits of sel.
    chosen = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    codewords = np.sort(np.bitwise_xor.reduce(chosen * gen_masks, axis=1))
    if not bool((codewords[1:] != codewords[:-1]).all()):
        raise GolayConstructionError("generator rows are not independent")

    words = ((codewords[:, None] >> _BIT) & 1).astype(np.uint8)
    weights = np.bincount(words.sum(axis=1), minlength=25)
    counts = {w: int(c) for w, c in enumerate(weights.tolist()) if c}
    if counts != EXPECTED_WEIGHT_ENUMERATOR:
        raise GolayConstructionError(f"wrong weight enumerator: {counts}")

    # Self-duality: |C| = 2^12 and C is self-orthogonal (all pairwise
    # intersections even), so C = C-perp.  Checking the generators suffices.
    g = generator.astype(np.int64)
    if bool(((g @ g.T) & 1).any()):
        raise GolayConstructionError("code is not self-orthogonal")

    return GolayCode(
        generator=generator, codewords=codewords, words=words, weight_counts=counts
    )
