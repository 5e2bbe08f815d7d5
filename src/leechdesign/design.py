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

Both read the design's inner products only as multisets: the value
histograms of its layer blocks (`WeightedPointSet.pair_stats`), which enter
every sum through their exact integer power sums (`power_sums`).  The
kernels' recurrence runs once per degree and dimension, on their
coefficients (`zonal_coefficients`).  The probe-moment oracle probes with
every design point y.  Its moment sum sum_x w(x) (x.y)^k depends on y only
through the multiset of y's inner products with each layer, its profile
(Delsarte, Goethals and Seidel 1977), and the oracle groups the probes by
profile: by the count of each value in the probe's row of every block, read
from the runs of the row sorted, one 256-row slab at a time.  So the sum is
evaluated and compared once per profile and degree, and the verdict is
copied to every probe with that profile: an identity, not a sample.
`design/probe-moment-oracle` names the first failing probe by its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, prod
from typing import NamedTuple, Sequence

import numpy as np

from .construct import DesignConstructionError, PointLayer, WeightedPointSet, slab_products

DIMENSION = 22  # the design lives in R^22, the orthogonal complement of the anchors


@dataclass(frozen=True)
class StrengthCondition:
    label: str
    value: Fraction
    passed: bool  # value exactly zero


def power_sums(counts: np.ndarray, values: np.ndarray, t: int) -> np.ndarray:
    """counts @ [values^0 .. values^t] in exact Python ints, in an object
    array: counts is one histogram's, or one row per probe profile.  The
    powers are made 4,096 values at a time, so that a many-valued histogram
    never holds them all at once."""
    sums = np.zeros((*counts.shape[:-1], t + 1), dtype=object)
    for c in range(0, len(values), 4096):
        powers = np.vander(values[c : c + 4096].astype(object), t + 1, increasing=True)
        sums += counts[..., c : c + 4096] @ powers
    return sums


@cache
def zonal_coefficients(t: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """q[k][i], the coefficient of u^i in the normalized degree-k zonal kernel
    Q_k on S^(n-1), k = 0..t, by the Gegenbauer recurrence, run once per (t, n):

        Q_k = ((2k+n-4) u Q_{k-1} - (k-1) Q_{k-2}) / (k+n-3),  Q_k(1) = 1."""
    q = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(2, t + 1):
        up, down = Fraction(2 * k + n - 4, k + n - 3), Fraction(k - 1, k + n - 3)
        q.append([up * a - down * b for a, b in zip([0] + q[k - 1], q[k - 2] + [0, 0])])
    return tuple(map(tuple, q[: t + 1]))


def kernel_sums(values, counts, scale, nx2ny2, t: int, n: int) -> list[Fraction]:
    """sum_c counts[c] H_k(values[c] / scale) for k = 0..t, where H_k(dot) =
    (|x||y|)^k Q_k(dot / |x||y|) at dot = x.y and nx2ny2 = |x|^2 |y|^2.  Q_k
    has the parity of k, so H_k(dot) = sum_i q[k][i] nx2ny2^((k-i)/2) dot^i,
    and the k-th sum is sum_i q[k][i] nx2ny2^((k-i)/2) S_i / scale^i over the
    histogram's power sums S_i."""
    s = [Fraction(x, scale**i) for i, x in enumerate(power_sums(counts, values, t).tolist())]
    radial = [nx2ny2**m for m in range(t // 2 + 1)]
    return [
        sum(c * radial[(k - i) // 2] * s[i] for i, c in enumerate(qk) if c)
        for k, qk in enumerate(zonal_coefficients(t, n))
    ]


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
            st = ws.pair_stats(bi, bj)
            sums = kernel_sums(st.values, st.counts, ws.dot_scale(bi, bj), nx2ny2, t, DIMENSION)
            w2 = (1 if bi == bj else 2) * ws.layers[bi].weight * ws.layers[bj].weight
            for l, j in totals:
                totals[(l, j)] += w2 * nx2ny2**j * sums[l]
    return [
        StrengthCondition(label=f"l={l},j={j}", value=total, passed=total == 0)
        for (l, j), total in totals.items()
    ]


def spherical_strength(ws: WeightedPointSet, i: int, t: int) -> list[StrengthCondition]:
    """Spherical design strength of layer i on its own (unweighted): the
    kernel sums sum_c counts[c] Q_k(values[c] / unit), k = 1..t, over the
    histogram of its Gram block; `PointLayer` holds one radius."""
    st = ws.pair_stats(i, i)
    unit = ws.dot_scale(i, i) * ws.layers[i].r2  # the stored squared norm
    sums = kernel_sums(st.values, st.counts, unit, 1, t, DIMENSION)
    return [StrengthCondition(f"k={k}", sums[k], sums[k] == 0) for k in range(1, t + 1)]


def sphere_monomial_average(alpha: Sequence[int], n: int) -> Fraction:
    """Average of prod x_i^alpha_i over the unit sphere S^(n-1), exact:
    zero when any exponent is odd, else
    prod (alpha_i - 1)!! / prod_{j=0}^{k-1} (n + 2j) with k = |alpha| / 2."""
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    k = sum(alpha) // 2
    num = prod(odd for a in alpha for odd in range(1, a, 2))
    return Fraction(num, prod(range(n, n + 2 * k, 2)))


class ProbeMomentResult(NamedTuple):
    probe_index: int
    k: int
    lhs: Fraction
    rhs: Fraction
    passed: bool  # lhs == rhs, compared once per profile and k


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
    # a count is at most the size of the layer a probe's row runs over
    width = np.min_scalar_type(max(layer.size for layer in ws.layers))
    results: list[ProbeMomentResult] = []
    first_index = 0
    for m, probe_layer in enumerate(ws.layers):
        values = [ws.pair_stats(min(m, i), max(m, i)).values for i in range(p)]
        start = np.cumsum([0] + [len(v) for v in values])
        # counts[q, start[i] + c]: how often value c of block (m, i) occurs in
        # probe q's row; two probes have the same profile exactly when these
        # are equal.  Each slab's rows are sorted, and each run of equal dots
        # is one count, at its value's rank.
        counts = np.zeros((probe_layer.size, start[-1]), dtype=width)
        for i, layer in enumerate(ws.layers):
            for r, product in slab_products(probe_layer.points, layer.points):
                product.sort(axis=1)
                first = np.ones(product.shape, dtype=bool)
                np.not_equal(product[:, 1:], product[:, :-1], out=first[:, 1:])
                runs = np.flatnonzero(first)
                ranks = start[i] + np.searchsorted(values[i], product.ravel()[runs])
                counts[r + runs // layer.size, ranks] = np.diff(runs, append=product.size)
        profiles, inverse = np.unique(counts, axis=0, return_inverse=True)
        del counts
        # A profile's sum_x w(x) (x.y)^k is, over the blocks, w / scale^k
        # times the integer sum_c count_c v_c^k of the stored dots v_c,
        # evaluated for 256 profiles at a time.
        rhs = [radial[k] * probe_layer.r2 ** (k // 2) for k in range(t + 1)]
        lhs: list = []
        for g in range(0, len(profiles), 256):
            group = profiles[g : g + 256]
            total = 0
            for i, (layer, vals) in enumerate(zip(ws.layers, values)):
                factors = [Fraction(layer.weight, ws.dot_scale(i, m) ** k) for k in range(t + 1)]
                total = total + power_sums(group[:, start[i] : start[i + 1]], vals, t) * factors
            lhs += total.tolist()
        passed = [[s == r for s, r in zip(sums, rhs)] for sums in lhs]
        for q, g in enumerate(inverse.ravel().tolist()):
            results.extend(
                ProbeMomentResult(first_index + q, k, lhs[g][k], rhs[k], passed[g][k])
                for k in range(t + 1)
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
