"""Reference data for the 13-relation configuration.

The relations, in the canonical order used by every table and by the
label matrix of `coherent.classify_pairs`:

    11.0 11.1 11.2 | 22.0 22.1 22.2 22.3 | 12.1 12.2 12.3 | 21.1 21.2 21.3

(block.index; index 0 is the identity relation of a fiber, cross-fiber
blocks have no identity).  Each relation is fixed by its fiber pair and
its normalized inner product, listed in `NORMALIZED_PRODUCTS`.

Thirteen 13x13 matrices B_a with B_a[b][c] = p_{a,b}^c give the reference
intersection numbers.  Only compositions with matching fibers can be
nonzero; everything outside the listed blocks is a structural zero.
`coherent.fixture_self_test` guards the transcription: the tables must
pass the structural identities of `coherent.check_tensor_identities` and
reproduce `VALENCIES`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

LABELS = [
    "11.0",
    "11.1",
    "11.2",
    "22.0",
    "22.1",
    "22.2",
    "22.3",
    "12.1",
    "12.2",
    "12.3",
    "21.1",
    "21.2",
    "21.3",
]

LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}

# (row_fiber, col_fiber) of each relation, fibers numbered 1 and 2.
LABEL_FIBERS = [
    (1, 1),
    (1, 1),
    (1, 1),
    (2, 2),
    (2, 2),
    (2, 2),
    (2, 2),
    (1, 2),
    (1, 2),
    (1, 2),
    (2, 1),
    (2, 1),
    (2, 1),
]

# Normalized inner product <x, y> / (|x| |y|) of each relation; the cross
# values are multiplied by sqrt(11), which makes them rational.
NORMALIZED_PRODUCTS = [
    Fraction(1),
    Fraction(1, 6),
    Fraction(-1, 4),
    Fraction(1),
    Fraction(7, 22),
    Fraction(-1, 44),
    Fraction(-4, 11),
    Fraction(1),
    Fraction(-1, 4),
    Fraction(-3, 2),
    Fraction(1),
    Fraction(-1, 4),
    Fraction(-3, 2),
]

# Transpose pairing: within-fiber relations are symmetric, 12.k <-> 21.k.
TRANSPOSE = [0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 7, 8, 9]

VALENCIES = {
    "11.0": 1,
    "11.1": 162,
    "11.2": 112,
    "22.0": 1,
    "22.1": 462,
    "22.2": 1232,
    "22.3": 330,
    "12.1": 567,
    "12.2": 1296,
    "12.3": 162,
    "21.1": 77,
    "21.2": 176,
    "21.3": 22,
}

_ALPHA = slice(0, 3)
_BETA = slice(3, 7)
_GPLUS = slice(7, 10)
_GMINUS = slice(10, 13)

# Displayed numeric blocks.  For a with fibers (1,1): rows b in alpha with
# cols c in alpha, and rows b in 12.* with cols c in 12.*; and so on.
_BLOCKS: dict[str, dict[str, list[list[int]]]] = {
    "11.1": {
        "aa": [[0, 1, 0], [162, 105, 81], [0, 56, 81]],
        "pp": [[60, 42, 21], [96, 105, 120], [6, 15, 21]],
    },
    "11.2": {
        "aa": [[0, 0, 1], [0, 56, 81], [112, 56, 30]],
        "pp": [[16, 35, 56], [80, 70, 56], [16, 7, 0]],
    },
    "22.1": {
        "bb": [
            [0, 1, 0, 0],
            [462, 185, 96, 28],
            [0, 256, 291, 280],
            [0, 20, 75, 154],
        ],
        "mm": [[216, 105, 21], [240, 315, 336], [6, 42, 105]],
    },
    "22.2": {
        "bb": [
            [0, 0, 1, 0],
            [0, 256, 291, 280],
            [1232, 776, 730, 784],
            [0, 200, 210, 168],
        ],
        "mm": [[320, 357, 336], [816, 770, 840], [96, 105, 56]],
    },
    "22.3": {
        "bb": [
            [0, 0, 0, 1],
            [0, 20, 75, 154],
            [0, 200, 210, 168],
            [330, 110, 45, 7],
        ],
        "mm": [[30, 105, 210], [240, 210, 120], [60, 15, 0]],
    },
    "12.1": {
        "bp": [[1, 0, 0], [216, 105, 21], [320, 357, 336], [30, 105, 210]],
        "ma": [[567, 210, 81], [0, 336, 405], [0, 21, 81]],
    },
    "12.2": {
        "bp": [[0, 1, 0], [240, 315, 336], [816, 770, 840], [240, 210, 120]],
        "ma": [[0, 336, 405], [1296, 840, 810], [0, 120, 81]],
    },
    "12.3": {
        "bp": [[0, 0, 1], [6, 42, 105], [96, 105, 56], [60, 15, 0]],
        "ma": [[0, 21, 81], [0, 120, 81], [162, 21, 0]],
    },
    "21.1": {
        "am": [[1, 0, 0], [60, 42, 21], [16, 35, 56]],
        "pb": [[77, 36, 20, 7], [0, 40, 51, 56], [0, 1, 6, 14]],
    },
    "21.2": {
        "am": [[0, 1, 0], [96, 105, 120], [80, 70, 56]],
        "pb": [[0, 40, 51, 56], [176, 120, 110, 112], [0, 16, 15, 8]],
    },
    "21.3": {
        "am": [[0, 0, 1], [6, 15, 21], [16, 7, 0]],
        "pb": [[0, 1, 6, 14], [0, 16, 15, 8], [22, 5, 1, 0]],
    },
}

_BLOCK_SLICES = {
    "aa": (_ALPHA, _ALPHA),
    "bb": (_BETA, _BETA),
    "pp": (_GPLUS, _GPLUS),
    "mm": (_GMINUS, _GMINUS),
    "bp": (_BETA, _GPLUS),
    "ma": (_GMINUS, _ALPHA),
    "am": (_ALPHA, _GMINUS),
    "pb": (_GPLUS, _BETA),
}


def fixture_matrices() -> dict[str, np.ndarray]:
    """All thirteen B_a as full 13x13 integer matrices."""
    out: dict[str, np.ndarray] = {}

    b = np.zeros((13, 13), dtype=np.int64)
    for i in (*range(0, 3), *range(7, 10)):
        b[i, i] = 1
    out["11.0"] = b

    b = np.zeros((13, 13), dtype=np.int64)
    for i in (*range(3, 7), *range(10, 13)):
        b[i, i] = 1
    out["22.0"] = b

    for name, blocks in _BLOCKS.items():
        b = np.zeros((13, 13), dtype=np.int64)
        for key, data in blocks.items():
            rs, cs = _BLOCK_SLICES[key]
            b[rs, cs] = np.array(data, dtype=np.int64)
        out[name] = b
    return out


def fixture_tensor() -> np.ndarray:
    """p[a][b][c] as a 13x13x13 integer tensor."""
    mats = fixture_matrices()
    t = np.zeros((13, 13, 13), dtype=np.int64)
    for name, mat in mats.items():
        t[LABEL_INDEX[name]] = mat
    return t

