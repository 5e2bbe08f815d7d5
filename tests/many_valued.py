"""Two legal design files that fail their claims, to measure what each stage
costs on inputs unlike the canonical design.  Both pass `read_design`.

- `many_valued_design`: two layers whose Gram blocks hold thousands of
  distinct dots: 275 and 2025 distinct seeded signed permutations of two
  integer vectors, zero-padded to 24 coordinates, with the radii and weights
  of the canonical design.  It measures the cost per histogram value.
- `many_layered_design(k)`: k one-point layers, the canonical outer point
  scaled by 1..k, so every radius is distinct and every block holds one
  value.  It measures the cost per layer block.

To write one:

    PYTHONPATH=src:tests python -c "import many_valued as m; from leechdesign import io;
    io.write_design('design.txt', m.many_valued_design())"
"""

from fractions import Fraction

import numpy as np

from leechdesign.construct import PointLayer, WeightedPointSet

INNER = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 9, 3, 2, 1)  # norm 480: r2 = 480 / (8 * 5^2) = 12/5
OUTER = (70, 19, 4, 1, 1, 1)  # norm 5280: r2 = 132/5
# the first outer point of the canonical build, at denominator 5: norm 5280
OUTER_POINT = (-26, 26, -62) + (-2,) * 21


def signed_permutations(rng: np.random.Generator, base, count: int) -> np.ndarray:
    """`count` distinct rows, each `base` zero-padded to 24 coordinates,
    permuted and signed at random."""
    padded = np.array(list(base) + [0] * (24 - len(base)), dtype=np.int64)
    rows: dict[bytes, np.ndarray] = {}
    while len(rows) < count:
        row = padded[rng.permutation(24)] * rng.choice([-1, 1], 24)
        rows.setdefault(row.tobytes(), row)
    return np.array(list(rows.values()))


def many_valued_design(seed: int = 25) -> WeightedPointSet:
    rng = np.random.default_rng(seed)
    inner = signed_permutations(rng, INNER, 275)
    outer = signed_permutations(rng, OUTER, 2025)
    return WeightedPointSet(
        layers=(
            PointLayer(points=inner, denom=5, weight=Fraction(1), r2=Fraction(12, 5)),
            PointLayer(points=outer, denom=5, weight=Fraction(1, 729), r2=Fraction(132, 5)),
        )
    )


def many_layered_design(k: int) -> WeightedPointSet:
    point = np.array([OUTER_POINT], dtype=np.int64)
    weight, r2 = Fraction(1, 729), Fraction(132, 5)
    return WeightedPointSet(
        layers=tuple(PointLayer(s * point, 5, weight, r2 * s * s) for s in range(1, k + 1))
    )
