"""Design-strength verification by exact kernel sums and moment oracles.

The working criterion: a weighted set on p concentric spheres is a
t-design iff for every degree l in 1..t and every radial exponent
j in 0..min((t-l)//2, p-1) the pairwise sum

    T(l,j) = sum_{x,y} w(x) w(y) (|x||y|)^(l+2j) Q_l(cos(x,y))

vanishes, where Q_l is the degree-l positive-definite zonal kernel with
Q_l(1) = 1.  (Conditions with l = 0 hold identically for unions of
concentric layers; radial exponents beyond p-1 follow from the lower ones
because the radial Vandermonde system of p distinct radii is regular.)
Because Q_l has the parity of l, each term is a polynomial in the exact
rationals (x.y) and |x|^2 |y|^2, so every T(l,j) is computed in Q without
any radicals, for arbitrary rational input layers.

An exact probe-moment check (necessary conditions from powers of linear
forms) accompanies the kernel route as an independent oracle.

Every exact check reads the pair statistics of the design
(`WeightedPointSet.pair_stats`), built once per layer block.  The kernel
sums need only the histograms of stored inner products, and every kernel
value comes from one three-term recurrence (`zonal_values`).  The
probe-moment oracle probes with every design point y.  Its moment sum
sum_x w(x) (x.y)^k depends on y only through the multiset of y's inner
products with each layer, its profile (Delsarte, Goethals and Seidel
1977), and the oracle groups the probes by profile: by the count of each
value in the probe's row of every block's index.  So the sum is evaluated
exactly once per distinct profile and copied to every probe with that
profile: an identity, not a sample, and each probe is still checked and
named by its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .construct import DesignConstructionError, PointLayer, WeightedPointSet

DIMENSION = 22  # the design lives in R^22, the orthogonal complement of the anchors


@dataclass(frozen=True)
class StrengthCondition:
    label: str
    value: Fraction
    passed: bool  # value exactly zero


def zonal_values(t: int, n: int, dot: Fraction, nx2ny2: Fraction) -> list[Fraction]:
    """H_k = (|x||y|)^k Q_k(x.y / |x||y|) for k = 0..t, from dot = x.y and
    nx2ny2 = |x|^2 |y|^2, where Q_k is the normalized degree-k zonal kernel
    on S^(n-1).  The Gegenbauer recurrence multiplied through by (|x||y|)^k,

        H_k = ((2k+n-4) dot H_{k-1} - (k-1) nx2ny2 H_{k-2}) / (k+n-3),

    stays rational even where |x||y| is not.  With nx2ny2 = 1 it gives Q_k(dot).
    """
    h = [Fraction(1), Fraction(dot)]
    for k in range(2, t + 1):
        h.append(((2 * k + n - 4) * dot * h[k - 1] - (k - 1) * nx2ny2 * h[k - 2]) / (k + n - 3))
    return h[: t + 1]


def euclidean_strength(ws: WeightedPointSet, t: int) -> list[StrengthCondition]:
    """One condition per (l, j); the set is a t-design iff all pass.

    The l = 0 conditions are omitted: they hold identically for any union
    of concentric layers (see module docstring).
    """
    p = len(ws.layers)
    radii = [layer.r2 for layer in ws.layers]
    if len(set(radii)) != p or any(r <= 0 for r in radii):
        raise DesignConstructionError("layers must have distinct positive radii")
    totals = {
        (l, j): Fraction(0) for l in range(1, t + 1) for j in range(min((t - l) // 2, p - 1) + 1)
    }
    for bi in range(p):
        for bj in range(bi, p):
            nx2ny2 = ws.layers[bi].r2 * ws.layers[bj].r2
            scale = ws.dot_scale(bi, bj)
            st = ws.pair_stats(bi, bj)
            sums = [Fraction(0)] * (t + 1)  # sum over the block of c * H_l
            for d, c in zip(st.values.tolist(), st.counts.tolist()):
                for l, h in enumerate(zonal_values(t, DIMENSION, Fraction(d, scale), nx2ny2)):
                    sums[l] += c * h
            w2 = (1 if bi == bj else 2) * ws.layers[bi].weight * ws.layers[bj].weight
            for l, j in totals:
                totals[(l, j)] += w2 * nx2ny2**j * sums[l]
    return [
        StrengthCondition(label=f"l={l},j={j}", value=total, passed=total == 0)
        for (l, j), total in totals.items()
    ]


def spherical_strength_from_values(
    values: Iterable[tuple[Fraction, int]], t: int, dimension: int
) -> list[StrengthCondition]:
    """Kernel sums sum Q_k(u) over a histogram of unit-sphere cosines."""
    totals = [Fraction(0)] * (t + 1)
    for u, c in values:
        for k, h in enumerate(zonal_values(t, dimension, Fraction(u), Fraction(1))):
            totals[k] += c * h
    return [
        StrengthCondition(label=f"k={k}", value=totals[k], passed=totals[k] == 0)
        for k in range(1, t + 1)
    ]


def spherical_strength(ws: WeightedPointSet, i: int, t: int) -> list[StrengthCondition]:
    """Spherical design strength of layer i on its own (unweighted), from
    the histogram of its Gram block; `PointLayer` holds one radius."""
    st = ws.pair_stats(i, i)
    unit = ws.dot_scale(i, i) * ws.layers[i].r2  # the stored squared norm
    hist = [(Fraction(v) / unit, c) for v, c in zip(st.values.tolist(), st.counts.tolist())]
    return spherical_strength_from_values(hist, t, DIMENSION)


def sphere_monomial_average(alpha: Sequence[int], n: int) -> Fraction:
    """Average of prod x_i^alpha_i over the unit sphere S^(n-1), exact:
    zero when any exponent is odd, else
    prod (alpha_i - 1)!! / prod_{j=0}^{k-1} (n + 2j) with k = |alpha| / 2."""
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    k = sum(alpha) // 2
    num = 1
    for a in alpha:
        for odd in range(1, a, 2):
            num *= odd
    den = 1
    for j in range(k):
        den *= n + 2 * j
    return Fraction(num, den)


class ProbeMomentResult(NamedTuple):
    probe_index: int
    k: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def moment_spot_check(ws: WeightedPointSet, t: int) -> list[ProbeMomentResult]:
    """Necessary-condition oracle, independent of the kernel route.

    Every design point y is a probe.  For each k <= t the design property
    forces

        sum_x w(x) (x.y)^k  ==  [k even] (k-1)!! / prod_{j<k/2}(n+2j)
                                * |y|^k * sum_i w_i |X_i| r_i^k.

    Probes are numbered layer by layer, in stored order.  The left side is
    evaluated once per distinct inner-product profile among a layer's
    probes (module docstring), the right side once per layer, since |y|^2
    is the layer's r2.
    """
    p = len(ws.layers)
    # the right side without |y|^k: the sphere average of u^k times the radial sum
    radial = [
        sphere_monomial_average([k], DIMENSION)
        * sum(layer.weight * layer.size * layer.r2 ** (k // 2) for layer in ws.layers)
        for k in range(t + 1)
    ]
    results: list[ProbeMomentResult] = []
    first_index = 0
    for m, probe_layer in enumerate(ws.layers):
        stats = [ws.pair_stats(m, i) if m <= i else ws.pair_stats(i, m) for i in range(p)]
        # counts[q, c]: how often column c's value occurs in probe q's row of
        # its block; two probes have the same profile exactly when these are
        # equal.  A profile's sum_x w(x) (x.y)^k is, over the blocks, w /
        # scale^k times the integer sum_c count_c v_c^k of the stored dots v_c.
        counts, blocks = [], []
        for i, st in enumerate(stats):
            axis = 1 if m <= i else 0  # the block (i, m) holds probe rows as columns
            counts += [(st.index == v).sum(axis=axis) for v in range(len(st.values))]
            powers = [[v**k for k in range(t + 1)] for v in st.values.tolist()]
            factors = [Fraction(ws.layers[i].weight, ws.dot_scale(i, m) ** k) for k in range(t + 1)]
            blocks.append((np.array(powers, dtype=object).reshape(-1, t + 1), np.array(factors)))
        profiles, inverse = np.unique(np.stack(counts, axis=1), axis=0, return_inverse=True)
        profiles, start, lhs = profiles.astype(object), 0, 0
        for powers, factors in blocks:
            lhs = lhs + (profiles[:, start : start + len(powers)] @ powers) * factors
            start += len(powers)
        rhs = [radial[k] * probe_layer.r2 ** (k // 2) for k in range(t + 1)]
        for q, g in enumerate(inverse.ravel().tolist()):
            results.extend(
                ProbeMomentResult(first_index + q, k, lhs[g][k], rhs[k]) for k in range(t + 1)
            )
        first_index += probe_layer.size
    return results


def tightness_check(ws: WeightedPointSet, e: int) -> bool:
    """Cardinality meets the dim P_e(R^n) bound: |X| = C(n+e, e)."""
    return ws.size == comb(DIMENSION + e, e)


def mutate_design(
    ws: WeightedPointSet, layer_idx: int, point_idx: int, step_a: int = 1, step_b: int = 2
) -> WeightedPointSet:
    """Move one point by the difference of two other layer points (an
    integer step inside the design's linear span); the moved point becomes
    its own layer at its new exact radius."""
    layer = ws.layers[layer_idx]
    pts = layer.points.copy()
    moved = pts[point_idx] + pts[step_a] - pts[step_b]
    if not moved.any():
        raise ValueError("mutation produced the zero vector")
    rest = np.delete(pts, point_idx, axis=0)
    new_r2 = Fraction(int(moved @ moved), 8 * layer.denom * layer.denom)
    if any(new_r2 == other.r2 for other in ws.layers):
        raise ValueError("mutation landed on an existing radius; pick another delta")
    layers = list(ws.layers)
    layers[layer_idx] = PointLayer(
        points=rest, denom=layer.denom, weight=layer.weight, r2=layer.r2
    )
    layers.append(
        PointLayer(
            points=moved.reshape(1, -1),
            denom=layer.denom,
            weight=layer.weight,
            r2=new_r2,
        )
    )
    return WeightedPointSet(layers=tuple(layers))
