"""Uniqueness computation: all second-shell candidates against a fixed
inner shell, their two-class split, and the isometric twin.

Setting (all exact): rescaling the 275-point shell so that its vectors
have squared norm 12 makes the lattice L it generates integral with
pairwise inner products {2, -3}.  Working coordinates are the stored
integer vectors of the design layer; the lattice inner product of stored
rows u, v is (u . v) / 40.  A second-shell candidate y (the unit-sphere
second shell rescaled to squared norm 44/3) must satisfy

    <y, x> in {4, -1, -6}  for all 275 shell vectors x,

and writing y over the dual basis e'_1..e'_22 of 22 chosen shell vectors
forces the coefficient of e'_i to be 5 c_i - 1 with c_i in {0, +-1}: the
coefficient is <y, e_i>, and the three admissible values are congruent
to -1 mod 5.  The search over c in {0,+-1}^22 with the exact norm
constraint is therefore complete; no candidate outside that cube exists.

The dual frame is integral throughout and reads only the shell Gram: the
basis comes from one fraction-free row reduction and a swap descent that
stops when every shell vector has integer coordinates over the basis,
and G^-1 is kept as the integer matrix D * G^-1 over its common
denominator D, from `intlinalg.adjugate`.  Every swap lowers det G, a
positive integer, or the descent raises; so it terminates.  The
computation then runs in three steps: the sphere search over the cube
(`enumerate_sphere`, which checks the norm only), one integer check of
the 275 admissibility conditions on the array of its leaves, and one
integer matmul over D that turns the surviving coefficient vectors into
integer vectors 3 * y in stored coordinates.
Every integer product is one `construct.exact_matmul` call, and all
pairwise decisions downstream are exact integer arithmetic, read from
pair statistics (`construct.BlockStats`): the shell's products from the
design's, the two-class split from the candidates', streamed from the
4050 candidate rows so that their 4050 x 4050 Gram is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from .construct import BlockStats, PointLayer, StepError, WeightedPointSet, exact_matmul
from .lattice import canonical_sort, distinct_rows, has_repeated_row
from .lattice.fincke_pohst import EnumerationStats, enumerate_sphere, rational_cholesky
from .lattice.intlinalg import adjugate, hnf_coordinates, hnf_rows

WORK_DEN = 40  # stored dot / 40 = lattice inner product
CANDIDATE_NORM = Fraction(44, 3)
ADMISSIBLE_PRODUCTS = (4, -1, -6)


class UniquenessError(StepError):
    pass


@dataclass(frozen=True)
class IntegralizedLayer:
    """The inner shell as an integral lattice generating set."""

    points: np.ndarray  # (275, 24) stored ints
    norm: int  # lattice squared norm of every point
    products: tuple[int, ...]  # lattice inner products of distinct points, descending


@dataclass(frozen=True)
class DualFrame:
    basis_indices: tuple[int, ...]  # 22 rows of the layer
    basis_points: np.ndarray  # (22, 24)
    gram: np.ndarray  # (22, 22) int
    ginv: np.ndarray  # (22, 22) int: den * G^-1
    den: int  # the common denominator D of G^-1
    coeffs: np.ndarray  # (275, 22) int: x = sum_j coeffs[x, j] e_j


@dataclass(frozen=True)
class CandidateSet:
    vectors3: np.ndarray  # (n, 24) int: 3 * stored candidate coordinates
    dual_coeffs: np.ndarray  # (n, 22) int: coefficients 5 c - 1 over e'
    stats: EnumerationStats  # solutions: leaves that pass the filter

    @property
    def rejected_leaves(self) -> int:
        """Leaves of the right norm that fail the admissibility filter."""
        return self.stats.leaves - self.stats.solutions


def integralize_X1(ws: WeightedPointSet) -> IntegralizedLayer:
    """The inner shell with its lattice inner products, read from the
    histogram of its Gram block."""
    if len(ws.layers) < 2:
        raise UniquenessError(
            f"{len(ws.layers)} layers; the computation needs both shells"
        )
    layer = ws.layers[0]
    if layer.r2 != Fraction(12, 5) or layer.denom != 5:
        raise UniquenessError("expected the inner shell at squared radius 12/5")
    # the diagonal, left out, holds the stored norm 480 that `PointLayer` checked
    off = ws.pair_values(0, 0)
    if np.any(off % WORK_DEN):
        raise UniquenessError("non-integral lattice inner product")
    off //= WORK_DEN
    if not set(off.tolist()) <= {2, -3}:
        raise UniquenessError("integralized inner products are not {2, -3}")
    norm = int(layer.r2 * ws.dot_scale(0, 0)) // WORK_DEN
    return IntegralizedLayer(points=layer.points, norm=norm, products=tuple(off.tolist()[::-1]))


def _operand(rows: list[list[int]]) -> np.ndarray:
    """An integer matrix as an int64 `exact_matmul` operand; an entry at or
    above 2^53 is refused."""
    if max(abs(v) for row in rows for v in row) >= 2**53:
        raise UniquenessError("adjugate entry is not below 2^53")
    return np.array(rows, dtype=np.int64)


def build_dual_frame(layer: IntegralizedLayer, order: Optional[list[int]] = None) -> DualFrame:
    """Choose 22 shell vectors forming a basis of the lattice generated by
    the whole shell, invert their Gram matrix exactly as D * G^-1 over its
    common denominator D, and express all 275 shell vectors integrally over
    the chosen basis.

    The start takes each point, in `order`, that a fraction-free row
    reduction against the points already taken leaves nonzero.  The descent
    reads the shell Gram S, computed once: for a basis B with G = S[B, B],
    the rows of S[:, B] @ (D * G^-1) are D times every point's coordinates
    over B.  It stops when every coordinate is an integer.  Otherwise it
    replaces basis vector k by a point whose coordinate at k is not an
    integer and has absolute value c < 1, which multiplies det G, a
    positive integer, by c^2.  A swap that does not lower det G raises
    UniquenessError, so the descent terminates; a shell of rank above 22
    fails there or at the coefficient round trip.
    """
    pts = layer.points
    pref = list(range(len(pts))) if order is None else list(order)
    shell_gram = exact_matmul(pts, pts.T)
    if np.any(shell_gram % WORK_DEN):
        raise UniquenessError("shell Gram is not integral")
    shell_gram //= WORK_DEN

    echelon: list[tuple[int, list[int]]] = []  # (pivot column, primitive row)
    subset: list[int] = []
    for idx in pref:
        v = pts[idx].tolist()
        for c, r in echelon:
            if v[c]:
                g = gcd(v[c], r[c])
                f, h = r[c] // g, v[c] // g
                v = [f * x - h * y for x, y in zip(v, r)]
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is not None:
            g = gcd(*v)
            echelon.append((piv, [x // g for x in v]))
            subset.append(idx)
            if len(subset) == 22:
                break
    if len(subset) != 22:
        raise UniquenessError("shell does not span 22 dimensions")

    last = None  # det G of the previous basis
    while True:
        gram = shell_gram[np.ix_(subset, subset)]
        adj, det = adjugate(gram.tolist())
        if last is not None and det >= last:
            raise UniquenessError(f"swap descent did not lower det G ({last} -> {det})")
        # G^-1 = adj / det in lowest terms: D = det / g is its common denominator
        g = gcd(det, *(v for row in adj for v in row))
        ginv, den = _operand([[v // g for v in row] for row in adj]), det // g
        scaled = exact_matmul(shell_gram[:, subset], ginv)  # D * coordinates over B
        fractional = scaled % den != 0
        if not fractional.any():
            break
        fits = fractional & (np.abs(scaled) < den)
        idx = next((i for i in pref if fits[i].any()), None)
        if idx is None:
            raise UniquenessError(
                f"swap descent stuck at det G = {det}; no single-point "
                "exchange improves the basis"
            )
        # the fitting position of least |coordinate|, the first on a tie
        subset[int(np.where(fits[idx], np.abs(scaled[idx]), den).argmin())] = idx
        last = det

    basis = pts[subset]
    coeffs = scaled // den
    # Round trip: the coefficients must reproduce the points exactly.
    if not bool((exact_matmul(coeffs, basis) == pts).all()):
        raise UniquenessError("dual-frame coefficient round trip failed")
    return DualFrame(
        basis_indices=tuple(subset),
        basis_points=basis,
        gram=gram,
        ginv=ginv,
        den=den,
        coeffs=coeffs,
    )


def enumerate_candidates(frame: DualFrame, layer: IntegralizedLayer) -> CandidateSet:
    """Complete candidate enumeration (see module docstring).

    The sphere search checks the norm only; the admissibility filter then
    runs once on all of its leaves, and the leaves it rejects are counted
    in `CandidateSet.rejected_leaves`.
    """
    shift = [Fraction(-1, 5)] * 22

    sums = frame.coeffs.sum(axis=1)
    if np.any((sums - 1) % 5):
        raise UniquenessError(
            "a shell vector has coefficient sum != 1 mod 5; no candidate "
            "can satisfy its admissibility constraint"
        )
    k = (sums - 1) // 5

    # The form 25 G^-1 and the target, both scaled by D: the same solutions
    # and the same search, since every interval reads their ratio.
    stats = EnumerationStats()
    leaves = enumerate_sphere(
        rational_cholesky((25 * frame.ginv).tolist()),
        shift,
        CANDIDATE_NORM * frame.den,
        allowed=[(-1, 0, 1)] * 22,
        stats=stats,
    )
    # <y, x> = 5 (c . coeffs_x) - sum(coeffs_x) is in {4, -1, -6} exactly
    # when c . coeffs_x lies in [k_x - 1, k_x + 1].
    c_arr = np.array(leaves, dtype=np.int64).reshape(-1, 22)
    dots = exact_matmul(c_arr, frame.coeffs.T)
    c_arr = c_arr[((dots >= k - 1) & (dots <= k + 1)).all(axis=1)]
    stats.solutions = len(c_arr)
    if not len(c_arr):
        raise UniquenessError("no candidates found")
    u_arr = 5 * c_arr - 1

    # y = sum_i (G^-1 u)_i e_i, materialized as 3 y (integral).
    scaled = exact_matmul(exact_matmul(u_arr, frame.ginv.T), 3 * frame.basis_points)
    if np.any(scaled % frame.den):
        raise UniquenessError("candidate is not in (1/3) * stored frame")
    vecs3 = scaled // frame.den

    order = np.lexsort(vecs3.T[::-1])
    vecs3 = vecs3[order]
    u_arr = u_arr[order]

    _verify_candidates(vecs3, u_arr, layer, frame)
    return CandidateSet(vectors3=vecs3, dual_coeffs=u_arr, stats=stats)


def _verify_candidates(
    vecs3: np.ndarray, u_arr: np.ndarray, layer: IntegralizedLayer, frame: DualFrame
) -> None:
    norms = (vecs3**2).sum(axis=1)
    expect = CANDIDATE_NORM * 9 * WORK_DEN
    if expect.denominator != 1 or not bool((norms == int(expect)).all()):
        raise UniquenessError("candidate with wrong squared norm")
    prods = exact_matmul(vecs3, layer.points.T)  # 3 * 40 * <y, x>
    if np.any(prods % (3 * WORK_DEN)):
        raise UniquenessError("candidate inner product is not integral")
    vals = prods // (3 * WORK_DEN)
    if not set(np.unique(vals).tolist()) <= set(ADMISSIBLE_PRODUCTS):
        raise UniquenessError("candidate with inadmissible inner product")
    if has_repeated_row(vecs3):  # in canonical order
        raise UniquenessError("duplicate candidates")
    # Dual coefficients are the inner products against the basis vectors.
    against_basis = vals[:, list(frame.basis_indices)]
    if not bool((against_basis == u_arr).all()):
        raise UniquenessError("dual coefficients disagree with inner products")


def generated_lattice_membership(frame: DualFrame, u_arr: np.ndarray) -> int:
    """How many candidates lie in the lattice generated by 5 e_1..5 e_22
    and -sum_i e'_i (coefficients over e': rows 5 G and all -1)."""
    gen_rows = [[5 * int(frame.gram[i, j]) for j in range(22)] for i in range(22)]
    gen_rows.append([-1] * 22)
    h = hnf_rows(gen_rows)
    return sum(hnf_coordinates(h, u) is not None for u in u_arr.tolist())


@dataclass(frozen=True)
class CandidateSplit:
    part_a: np.ndarray  # 3 * stored coords, canonical order
    part_b: np.ndarray
    cross_products: tuple[Fraction, ...]  # distinct <y, y'> across parts
    disjoint: bool  # no pair across the parts is compatible, so none is shared
    covering: bool  # every candidate lies in a part


def split_candidates(candidates: CandidateSet, ws: WeightedPointSet) -> CandidateSplit:
    """Partition by the compatibility relation: same part iff the pairwise
    normalized inner product is one of the three second-shell values.

    One part is the class of candidate 0, the other the class of the first
    candidate outside it; each must be a clique of the relation (checked
    exhaustively).  Part A is the class that shares more points with the
    given second shell.  The sizes of the parts, whether they equal that
    shell, and whether they are disjoint and cover all candidates are left
    to the caller.
    """
    vec = candidates.vectors3
    n = len(vec)
    if n != 4050:
        raise UniquenessError(f"expected 4050 candidates, got {n}")
    st = BlockStats.of(vec, vec)  # dots 9 * 40 * <y, y'>
    scale = 9 * WORK_DEN
    shell2 = (Fraction(7, 22), Fraction(-1, 44), Fraction(-4, 11))  # normalized products
    same = np.isin(st.values, [int(u * CANDIDATE_NORM * scale) for u in shell2])[st.index]
    np.fill_diagonal(same, True)

    in_a = same[0]
    outside = np.flatnonzero(~in_a)
    if not len(outside):
        raise UniquenessError("every candidate is compatible with candidate 0")
    in_b = same[outside[0]]
    if not bool(same[np.ix_(in_a, in_a)].all()):
        raise UniquenessError("compatibility is not transitive on part A")
    if not bool(same[np.ix_(in_b, in_b)].all()):
        raise UniquenessError("compatibility is not transitive on part B")

    cross = st.values[np.unique(st.index[np.ix_(in_a, in_b)])]

    part_a = canonical_sort(vec[in_a])
    part_b = canonical_sort(vec[in_b])
    x2 = distinct_rows(ws.layers[1].points)

    def shared(part):  # rows of the part (distinct candidates) that x2 holds
        return len(part) + len(x2) - len(distinct_rows(np.concatenate([part, x2])))

    if shared(part_b) > shared(part_a):
        part_a, part_b = part_b, part_a
    return CandidateSplit(
        part_a=part_a,
        part_b=part_b,
        cross_products=tuple(Fraction(int(v), scale) for v in cross),
        disjoint=not same[np.ix_(in_a, in_b)].any(),
        covering=bool((in_a | in_b).all()),
    )


def twin_design(ws: WeightedPointSet, split: CandidateSplit) -> WeightedPointSet:
    """The companion configuration: same inner shell, second shell replaced
    by the other candidate class (same radius, weight, and denominators)."""
    twin_layer = PointLayer(
        points=split.part_b,
        denom=ws.layers[1].denom,
        weight=ws.layers[1].weight,
        r2=ws.layers[1].r2,
    )
    return WeightedPointSet(layers=(ws.layers[0], twin_layer))
