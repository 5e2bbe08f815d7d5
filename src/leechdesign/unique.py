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
to -1 mod 5.  The search over u = 5 c - 1 in {-6, -1, 4}^22 with the
exact norm constraint u^T G^-1 u = 44/3 is therefore complete; no
candidate outside that cube exists.

The dual frame is integral throughout and reads only the shell Gram: the
basis comes from one fraction-free row reduction and a swap descent that
stops when every shell vector has integer coordinates over the basis,
and G^-1 is kept as the integer matrix D * G^-1 over its common
denominator D, from `intlinalg.adjugate`.  Every swap lowers det G, a
positive integer, or the descent raises; so it terminates.  The
computation then runs in three steps: the search of that cube for
u^T (3 D G^-1) u = 44 D in integers alone (`_cube_leaves`, which checks
the norm only), one integer check of the 275 admissibility conditions
<y, x> = u . coeffs_x on its leaves, 256 at a time, and one
integer matmul over D that turns the surviving coefficient vectors into
integer vectors 3 * y in stored coordinates.  The same D * G^-1 answers
the report's one note on the lattice read literally, generated by 5 e_i
and -sum e'_i: membership is one congruence mod 5 D
(`generated_lattice_membership`).
Every integer product is one `construct.exact_matmul` call, and all
pairwise decisions downstream are exact integer arithmetic: the shell's
products are read from the histogram of the design's inner block, and the
two-class split from 256-row slabs of its parts' products
(`construct.slab_products`), so that no 4050 x 4050 array is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .construct import (
    PointLayer,
    StepError,
    WeightedPointSet,
    distinct_values,
    exact_matmul,
    slab_products,
)
from .lattice import EnumerationStats, canonical_sort, distinct_rows, has_repeated_row
from .lattice.intlinalg import adjugate

WORK_DEN = 40  # stored dot / 40 = lattice inner product
CANDIDATE_NORM = Fraction(44, 3)
ADMISSIBLE_PRODUCTS = (4, -1, -6)
CUBE = (-6, -1, 4)  # the coefficients 5 c - 1, c in {-1, 0, 1}


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


def build_dual_frame(layer: IntegralizedLayer) -> DualFrame:
    """Choose 22 shell vectors forming a basis of the lattice generated by
    the whole shell, invert their Gram matrix exactly as D * G^-1 over its
    common denominator D, and express all 275 shell vectors integrally over
    the chosen basis.

    The start takes each point, in row order, that a fraction-free row
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
    shell_gram = exact_matmul(pts, pts.T)
    if np.any(shell_gram % WORK_DEN):
        raise UniquenessError("shell Gram is not integral")
    shell_gram //= WORK_DEN

    echelon: list[tuple[int, list[int]]] = []  # (pivot column, primitive row)
    subset: list[int] = []
    for idx, v in enumerate(pts.tolist()):
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
        if not fits.any():
            raise UniquenessError(
                f"swap descent stuck at det G = {det}; no single-point "
                "exchange improves the basis"
            )
        # the first point that fits; its fitting position of least
        # |coordinate|, the first on a tie
        idx = int(fits.any(axis=1).argmax())
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


def _cube_leaves(form, target: int, stats: EnumerationStats) -> list[tuple[int, ...]]:
    """Every u in CUBE^n with u^T form u == target, for a positive-definite
    integer form, by depth-first search from the last coordinate down.

    One forward Bareiss elimination (Bareiss, Math. Comp. 22, 1968) of the
    form leaves integer rows r_k with r_k[k] = d_k, the k-th leading minor,
    and u^T form u = sum_k (r_k . u)^2 / (d_(k-1) d_k) (Fincke & Pohst,
    Math. Comp. 44, 1985).  Scaled by M = lcm_k d_(k-1) d_k, level k's term
    is coef_k (r_k . u)^2 and the rest of the target an integer.  A node is
    a value whose term fits into that rest (`stats.nodes`); a leaf, one
    whose last term uses it up exactly (`stats.leaves`).
    """
    n = len(form)
    rows = [[int(x) for x in row] for row in form]
    prev = 1
    for k in range(n):
        if rows[k][k] <= 0:
            raise UniquenessError(f"search form is not positive definite (minor {k + 1})")
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(rows[k][k] * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = rows[k][k]
    dets = [1] + [rows[k][k] for k in range(n)]
    scale = lcm(*(dets[k] * dets[k + 1] for k in range(n)))
    coef = [scale // (dets[k] * dets[k + 1]) for k in range(n)]
    cols = [[rows[i][k] for i in range(k)] for k in range(n)]  # what u_k adds to r_i . u
    leaves: list[tuple[int, ...]] = []
    u = [0] * n

    def descend(k: int, partial: list[int], rest: int) -> None:
        # partial[i] = sum over the fixed j > k of r_i[j] u_j, for i <= k
        piv, scale_k = rows[k][k], coef[k]
        for v in CUBE:
            num = piv * v + partial[k]
            left = rest - scale_k * num * num
            if left < 0:
                continue
            stats.nodes += 1
            u[k] = v
            if k:
                descend(k - 1, [p + r * v for p, r in zip(partial, cols[k])], left)
            elif not left:
                stats.leaves += 1
                leaves.append(tuple(u))

    descend(n - 1, [0] * n, target * scale)
    return leaves


def enumerate_candidates(frame: DualFrame, layer: IntegralizedLayer) -> CandidateSet:
    """Complete candidate enumeration (see module docstring).

    The search runs on the levels sorted by the diagonal of G^-1, ascending
    (Wubben et al., Electron. Lett. 37, 2001): the same leaves, in a
    fraction of the nodes.  It checks the norm only; the admissibility filter
    then runs on its leaves, one 256-row slab at a time, and the leaves it
    rejects are counted in `CandidateSet.rejected_leaves`.
    """
    sums = frame.coeffs.sum(axis=1)
    if np.any((sums - 1) % 5):
        raise UniquenessError(
            "a shell vector has coefficient sum != 1 mod 5; no candidate "
            "can satisfy its admissibility constraint"
        )

    # u^T G^-1 u = 44/3 for y = sum_i u_i e'_i; times 3 D, integers only
    levels = np.argsort(np.diag(frame.ginv), kind="stable")
    form = 3 * frame.ginv[np.ix_(levels, levels)]
    stats = EnumerationStats()
    leaves = _cube_leaves(form.tolist(), 44 * frame.den, stats)
    u_arr = np.empty((len(leaves), 22), dtype=np.int64)
    u_arr[:, levels] = np.array(leaves, dtype=np.int64).reshape(-1, 22)
    admissible = np.zeros(len(u_arr), dtype=bool)
    for r, products in slab_products(u_arr, frame.coeffs):  # <y, x> = u . coeffs_x
        admissible[r : r + len(products)] = np.isin(products, ADMISSIBLE_PRODUCTS).all(axis=1)
    u_arr = u_arr[admissible]
    stats.solutions = len(u_arr)
    if not len(u_arr):
        raise UniquenessError("no candidates found")

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
    if has_repeated_row(vecs3):  # in canonical order
        raise UniquenessError("duplicate candidates")
    for r, vals in slab_products(vecs3, layer.points):  # 3 * 40 * <y, x>
        if np.any(vals % (3 * WORK_DEN)):
            raise UniquenessError("candidate inner product is not integral")
        vals //= 3 * WORK_DEN  # in place: the slab is ours until the next
        if not np.isin(vals, ADMISSIBLE_PRODUCTS).all():
            raise UniquenessError("candidate with inadmissible inner product")
        # Dual coefficients are the inner products against the basis vectors.
        if np.any(vals[:, list(frame.basis_indices)] != u_arr[r : r + len(vals)]):
            raise UniquenessError("dual coefficients disagree with inner products")


def generated_lattice_membership(frame: DualFrame, u_arr: np.ndarray) -> int:
    """How many candidates lie in the lattice generated by 5 e_1..5 e_22
    and -sum_i e'_i (coefficients over e': rows 5 G and all -1).

    u = 5 G m - k 1 has an integer solution m exactly when
    D G^-1 (u + k 1) = 0 mod 5 D, G being symmetric; only k mod 5 D
    matters, since D G^-1 (5 D 1) = 0 mod 5 D.  One residue at a time, so
    that no (5 D, n, 22) array is made.
    """
    mod = 5 * frame.den
    a = exact_matmul(u_arr, frame.ginv) % mod
    b = frame.ginv.sum(axis=0) % mod
    member = np.zeros(len(a), dtype=bool)
    for k in range(mod):
        member |= ((a + k * b) % mod == 0).all(axis=1)
    return int(member.sum())


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
    scale = 9 * WORK_DEN  # dots 9 * 40 * <y, y'>
    shell2 = (Fraction(7, 22), Fraction(-1, 44), Fraction(-4, 11))  # normalized products
    dots = [int(u * CANDIDATE_NORM * scale) for u in shell2]

    def compatible(row: int) -> np.ndarray:  # the class of one candidate
        same = np.isin(exact_matmul(vec[row : row + 1], vec.T)[0], dots)
        same[row] = True
        return same

    in_a = compatible(0)
    outside = np.flatnonzero(~in_a)
    if not len(outside):
        raise UniquenessError("every candidate is compatible with candidate 0")
    in_b = compatible(outside[0])

    # Each part must be a clique: every pair of it compatible, or a
    # diagonal pair.  No pair across the parts may be, nor may a candidate
    # lie in both.
    a, b = vec[in_a], vec[in_b]
    for part, name in ((a, "A"), (b, "B")):
        for r, product in slab_products(part, part):
            same = np.isin(product, dots)
            k = np.arange(len(product))
            same[k, r + k] = True
            if not bool(same.all()):
                raise UniquenessError(f"compatibility is not transitive on part {name}")
    cross, disjoint = [], not (in_a & in_b).any()
    for _, product in slab_products(a, b):
        disjoint = disjoint and not np.isin(product, dots).any()
        cross.append(distinct_values(product))
    cross = distinct_values(np.concatenate(cross))

    part_a, part_b = canonical_sort(a), canonical_sort(b)
    x2 = distinct_rows(ws.layers[1].points)

    def shared(part):  # rows of the part (distinct candidates) that x2 holds
        return len(part) + len(x2) - len(distinct_rows(np.concatenate([part, x2])))

    if shared(part_b) > shared(part_a):
        part_a, part_b = part_b, part_a
    return CandidateSplit(
        part_a=part_a,
        part_b=part_b,
        cross_products=tuple(Fraction(int(v), scale) for v in cross),
        disjoint=disjoint,
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
