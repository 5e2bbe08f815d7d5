import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import prod

import numpy as np
import pytest

from float_oracle import float_polynomial_check
from gegenbauer_reference import GegenbauerEvaluator
from many_valued import many_layered_design, many_valued_design
from leechdesign.cli import verify_design_claims
from leechdesign.construct import (
    DesignConstructionError,
    PointLayer,
    WeightedPointSet,
    z_value_histogram,
)
import leechdesign.design as design_module
from leechdesign.design import (
    DIMENSION,
    euclidean_strength,
    kernel_sums,
    moment_spot_check,
    mutate_design,
    power_sums,
    spherical_strength,
    sphere_monomial_average,
    tightness_check,
    zonal_coefficients,
)
from leechdesign.report import VerificationReport


def one_value_sums(dot: Fraction, nx2ny2, t: int, n: int) -> list[Fraction]:
    """`kernel_sums` of the one-entry histogram {dot: 1}: H_0..H_t at dot,
    with dot = p / q stored as the value p at scale q."""
    return kernel_sums(np.array([dot.numerator]), np.array([1]), dot.denominator, nx2ny2, t, n)


def test_gegenbauer_normalization():
    for n in (22, 23):
        assert one_value_sums(Fraction(1), Fraction(1), 7, n) == [1] * 8


def test_gegenbauer_degree_zero_and_two():
    for u in (Fraction(0), Fraction(2, 7), Fraction(-3)):
        h = one_value_sums(u, Fraction(1), 2, 22)
        assert h[0] == 1
        assert h[2] == Fraction(22 * u * u - 1, 21)


def test_gegenbauer_against_direct_expansion():
    # k <= 3 closed forms from the recurrence, at 100 random rationals
    n = 22
    rng = random.Random(99)
    for _ in range(100):
        u = Fraction(rng.randint(-50, 50), rng.randint(1, 25))
        q2 = Fraction(n, n - 1) * u * u - Fraction(1, n - 1)
        q3 = ((2 + n) * u * q2 - 2 * u) / n
        assert one_value_sums(u, Fraction(1), 3, n)[2:] == [q2, q3]


@pytest.mark.parametrize("n", [22, 23])
def test_kernel_sums_match_the_coefficient_tables(n):
    # homogeneous values off the unit sphere: |x|^2 |y|^2 != 1, as in the
    # cross-layer blocks, where |x||y| itself is irrational
    reference = GegenbauerEvaluator(n, 8)
    rng = random.Random(n)
    for _ in range(60):
        dot = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        nx2ny2 = Fraction(rng.randint(1, 900), rng.randint(1, 30))
        if nx2ny2 == 1:
            continue
        expect = [reference.homogeneous_pair_value(k, dot, nx2ny2) for k in range(9)]
        assert one_value_sums(dot, nx2ny2, 8, n) == expect


def reference_strength(ws: WeightedPointSet, t: int) -> dict[str, Fraction]:
    """T(l, j) of every (l, j) from `homogeneous_pair_value`, summed value by
    value over each block's histogram: the route the power sums replace."""
    reference = GegenbauerEvaluator(DIMENSION, t)
    p = len(ws.layers)
    totals = {}
    for bi in range(p):
        for bj in range(bi, p):
            nx2ny2 = ws.layers[bi].r2 * ws.layers[bj].r2
            st = ws.pair_stats(bi, bj)
            sums = [Fraction(0)] * (t + 1)
            for d, c in zip(st.values.tolist(), st.counts.tolist()):
                dot = Fraction(d, ws.dot_scale(bi, bj))
                for l in range(t + 1):
                    sums[l] += c * reference.homogeneous_pair_value(l, dot, nx2ny2)
            w2 = (1 if bi == bj else 2) * ws.layers[bi].weight * ws.layers[bj].weight
            for l in range(1, t + 1):
                for j in range(min((t - l) // 2, p - 1) + 1):
                    key = f"l={l},j={j}"
                    totals[key] = totals.get(key, 0) + w2 * nx2ny2**j * sums[l]
    return totals


@pytest.fixture(scope="module")
def many_valued():
    return many_valued_design()


@pytest.mark.parametrize("which", ["many-valued", "mutated", "many-layered"])
def test_euclidean_strength_equals_the_per_value_reference(design, many_valued, which):
    ws = {
        "many-valued": many_valued,
        "mutated": mutate_design(design, 1, 5, 7, 9),
        "many-layered": many_layered_design(20),
    }[which]
    if which == "many-valued":
        # 618, 1826 and 1725 distinct dots
        assert min(len(ws.pair_stats(i, j).values) for i, j in ((0, 0), (0, 1), (1, 1))) > 600
    else:
        assert len(ws.layers) == {"mutated": 3, "many-layered": 20}[which]
    if which == "many-layered":  # the canonical outer point, scaled by 1..20
        assert np.array_equal(ws.layers[0].points[0], design.layers[1].points[0])
    conds = euclidean_strength(ws, 6)
    assert {c.label: c.value for c in conds} == reference_strength(ws, 6)
    assert not all(c.passed for c in conds)


def test_kernel_sums_run_once_per_block_whatever_the_number_of_values(
    design, many_valued, monkeypatch
):
    calls = []

    def spy(values, *args):
        calls.append(len(values))
        return kernel_sums(values, *args)

    monkeypatch.setattr(design_module, "kernel_sums", spy)
    for ws in (design, many_valued):
        sizes = [len(ws.pair_stats(i, j).values) for i, j in ((0, 0), (0, 1), (1, 1))]
        calls.clear()
        euclidean_strength(ws, 6)
        assert calls == sizes  # one call per block, two layers
        calls.clear()
        spherical_strength(ws, 1, 4)
        assert calls == sizes[2:]
    assert sum(sizes) > 4000  # the many-valued file's blocks hold thousands of values


def test_zonal_coefficients_are_built_once_per_degree_and_dimension(monkeypatch):
    built = []

    @cache
    def spy(t, n):
        built.append((t, n))
        return zonal_coefficients.__wrapped__(t, n)

    blocks = []

    def counted(values, *args):
        blocks.append(len(values))
        return kernel_sums(values, *args)

    monkeypatch.setattr(design_module, "zonal_coefficients", spy)
    monkeypatch.setattr(design_module, "kernel_sums", counted)
    ws = many_layered_design(20)
    euclidean_strength(ws, 6)
    euclidean_strength(ws, 6)
    spherical_strength(ws, 3, 4)
    assert blocks == [1] * (2 * 210 + 1)  # 210 one-value blocks, twice
    assert built == [(6, DIMENSION), (4, DIMENSION)]


def test_kernel_sums_hold_a_bounded_part_of_a_many_valued_histogram():
    # 200,000 distinct values near 2^41: their powers up to 2 at once, as
    # Python ints in an object array, take about 20 MB
    values = np.arange(-100_000, 100_000, dtype=np.int64) * 22_000_001 + 7
    counts = np.arange(len(values), dtype=np.int64) % 5 + 1
    tracemalloc.start()
    try:
        sums = kernel_sums(values, counts, 1, 1, 2, DIMENSION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    histogram = zip(values.tolist(), counts.tolist())
    assert sums[:2] == [int(counts.sum()), sum(c * v for v, c in histogram)]


def test_strength_values_are_fractions_and_power_sums_python_ints(design, many_valued):
    # powers past int64: an int64 power sum would wrap, a numpy scalar would
    # make `Fraction` raise
    values = np.array([-3, 0, 5, 2**19 - 1, -(2**23)], dtype=np.int64)
    counts = np.array([1, 2, 3, 2**40, 7], dtype=np.int64)
    # one-hot counts read the power table row by row
    table = power_sums(np.eye(len(values), dtype=np.int64), values, 7)
    assert table.tolist() == [[v**i for i in range(8)] for v in values.tolist()]
    assert all(type(x) is int for x in table.ravel())
    sums = power_sums(counts, values, 7).tolist()
    assert all(type(x) is int for x in sums)
    histogram = list(zip(values.tolist(), counts.tolist()))
    assert sums == [sum(c * v**i for v, c in histogram) for i in range(8)]
    expect = [0] * 8
    for v, c in histogram:
        for k, h in enumerate(one_value_sums(Fraction(v, 7), Fraction(5, 3), 7, 22)):
            expect[k] += c * h
    assert kernel_sums(values, counts, 7, Fraction(5, 3), 7, 22) == expect
    for ws in (design, many_valued):
        conds = euclidean_strength(ws, 7) + spherical_strength(ws, 0, 5)
        hist, den = z_value_histogram(ws)
        z_sums = kernel_sums(hist.values, hist.counts, den, 1, 7, 23)
        assert all(type(c.value) is Fraction for c in conds)
        assert all(type(x) is Fraction for x in z_sums)


def test_sphere_monomial_average_examples():
    assert sphere_monomial_average([0] * 22, 22) == 1
    assert sphere_monomial_average([1] + [0] * 21, 22) == 0
    assert sphere_monomial_average([2] + [0] * 21, 22) == Fraction(1, 22)
    # sum over coordinates of x_i^2 averages to 1
    assert 22 * sphere_monomial_average([2] + [0] * 21, 22) == 1
    assert sphere_monomial_average([4] + [0] * 21, 22) == Fraction(3, 22 * 24)
    assert sphere_monomial_average([2, 2] + [0] * 20, 22) == Fraction(1, 22 * 24)


def test_single_point_is_not_a_1_design():
    # one unit-weight point at radius 1: the degree-1 sum is exactly 1
    pt = np.zeros((1, 24), dtype=np.int64)
    pt[0, 0] = 2
    pt[0, 1] = 2
    layer = PointLayer(points=pt, denom=1, weight=Fraction(1), r2=Fraction(1))
    ws = WeightedPointSet(layers=(layer,))
    conds = euclidean_strength(ws, 1)
    assert len(conds) == 1 and not conds[0].passed
    assert conds[0].value == 1


def test_spherical_strength_rejects_mixed_radii(design):
    # spherical strength reads one layer's histogram at that layer's radius;
    # a layer holding two radii is rejected where it is built
    points = np.concatenate([design.layers[0].points, design.layers[1].points])
    with pytest.raises(DesignConstructionError):
        PointLayer(points=points, denom=5, weight=Fraction(1), r2=Fraction(12, 5))


def test_euclidean_strength_six_all_zero(design):
    conds = euclidean_strength(design, 6)
    assert len(conds) == 10
    assert all(c.passed for c in conds)
    assert all(c.value == 0 for c in conds)


def test_degree_seven_condition_nonzero(design):
    conds = euclidean_strength(design, 7)
    assert len(conds) == 12
    extra = [c for c in conds if c.label in ("l=7,j=0", "l=5,j=1")]
    assert len(extra) == 2
    assert all(not c.passed for c in extra)


def test_strength_values_nonnegative_as_floats(design):
    for c in euclidean_strength(design, 7):
        assert float(c.value) >= -1e-9
    for i in (0, 1):
        for c in spherical_strength(design, i, 5):
            assert float(c.value) >= -1e-9


def test_spherical_strengths(design):
    s1 = spherical_strength(design, 0, 5)
    assert [c.passed for c in s1] == [True, True, True, True, False]
    s2 = spherical_strength(design, 1, 4)
    assert all(c.passed for c in s2)


def test_inner_shell_meets_tight_spherical_4_design_bound(design):
    # a spherical 4-design on S^(n-1) has at least n(n+3)/2 points; the
    # inner shell meets the bound exactly
    n = 22
    assert design.layers[0].size == n * (n + 3) // 2 == 275


def test_z_strength_seven(design):
    hist, den = z_value_histogram(design)
    sums = kernel_sums(hist.values, hist.counts, den, 1, 7, 23)
    assert not any(sums[1:])


def test_tightness(design):
    assert tightness_check(design, 3)
    smaller = WeightedPointSet(
        layers=(
            PointLayer(
                points=design.layers[0].points[:-1],
                denom=5,
                weight=Fraction(1),
                r2=design.layers[0].r2,
            ),
            design.layers[1],
        )
    )
    assert not tightness_check(smaller, 3)


def test_probe_moment_oracle_passes(design):
    results = moment_spot_check(design, 6)
    # every design point is a probe, checked at k = 0..6
    assert [(r.probe_index, r.k) for r in results] == [
        (q, k) for q in range(2300) for k in range(7)
    ]
    assert all(r.passed for r in results)
    # k = 0 reproduces the total weight 275 + 2025/729
    k0 = [r for r in results if r.k == 0]
    assert all(r.lhs == Fraction(275) + Fraction(2025, 729) for r in k0)
    # odd moments vanish
    assert all(r.lhs == 0 for r in results if r.k % 2 == 1)


def test_scale_invariance_of_verdicts(design):
    scaled = WeightedPointSet(
        layers=tuple(
            PointLayer(
                points=3 * layer.points,
                denom=layer.denom,
                weight=layer.weight * Fraction(7, 3),
                r2=layer.r2 * 9,
            )
            for layer in design.layers
        )
    )
    conds = euclidean_strength(scaled, 6)
    assert all(c.passed for c in conds)
    conds7 = euclidean_strength(scaled, 7)
    assert any(not c.passed for c in conds7)


def test_all_three_oracles_agree_on_mutated_design(design):
    bad = mutate_design(design, 0, 0)
    conds = euclidean_strength(bad, 6)
    assert any(not c.passed for c in conds)

    moments = moment_spot_check(bad, 6)
    assert any(not m.passed for m in moments)

    pairs = float_polynomial_check(bad, 6, seed=20240601, trials=40)
    worst = max(abs(l - r) for l, r in pairs)
    assert worst > 1e-9


def test_float_oracle_on_design(design):
    pairs = float_polynomial_check(design, 6, seed=20240601, trials=40)
    worst = max(abs(l - r) for l, r in pairs)
    assert worst <= 1e-9


def test_probe_and_kernel_oracles_agree_on_design(design):
    conds = euclidean_strength(design, 6)
    moments = moment_spot_check(design, 6)
    assert all(c.passed for c in conds) == all(m.passed for m in moments)


def _probe_moments(ws, y, dy, t, n=22):
    """Direct reference for one probe: (lhs, rhs) of every k <= t, from
    the histogram of the probe's own dot products with each layer."""
    hists = []
    for layer in ws.layers:
        vals, counts = np.unique(layer.points @ y, return_counts=True)
        scale = 8 * layer.denom * dy
        hists += [(layer.weight, Fraction(int(v), scale), int(c)) for v, c in zip(vals, counts)]
    y_norm2 = Fraction(int(y @ y), 8 * dy * dy)
    out = []
    for k in range(t + 1):
        lhs = sum(w * c * u**k for w, u, c in hists)
        rhs = Fraction(0)
        if k % 2 == 0:
            average = Fraction(prod(range(1, k, 2)), prod(n + 2 * j for j in range(k // 2)))
            radial = sum(
                layer.weight * layer.size * layer.r2 ** (k // 2) for layer in ws.layers
            )
            rhs = average * y_norm2 ** (k // 2) * radial
        out.append((lhs, rhs))
    return out


@pytest.mark.parametrize("mutated", [False, True])
def test_moment_spot_check_matches_per_probe_reference(design, mutated):
    ws = mutate_design(design, 0, 0) if mutated else design
    results = moment_spot_check(ws, 6)
    probes = [(row, layer.denom) for layer in ws.layers for row in layer.points]
    assert len(results) == 7 * len(probes)
    for q in range(0, len(probes), 59):  # 39 probes from every layer
        got = [(r.lhs, r.rhs) for r in results[7 * q : 7 * q + 7]]
        assert [r.probe_index for r in results[7 * q : 7 * q + 7]] == [q] * 7
        assert got == _probe_moments(ws, *probes[q], 6)
    if mutated:  # the last probe is the moved point, alone in its layer
        got = [(r.lhs, r.rhs) for r in results[-7:]]
        assert got == _probe_moments(ws, *probes[-1], 6)


def test_moment_spot_check_with_a_many_valued_block_matches_per_probe_reference():
    # an antipodal layer of signed permutations of (1, ..., 24), whose Gram
    # block holds thousands of distinct dots, next to the antipodal layer
    # +-2 e_i, whose blocks hold few
    rng = np.random.default_rng(7)
    half = np.array([rng.permutation(24) + 1 for _ in range(60)]) * rng.choice([-1, 1], (60, 24))
    wide = PointLayer(np.concatenate([half, -half]), 1, Fraction(1), Fraction(4900, 8))
    axes = 2 * np.concatenate([np.eye(24, dtype=np.int64), -np.eye(24, dtype=np.int64)])
    narrow = PointLayer(axes, 1, Fraction(3, 7), Fraction(4, 8))
    ws = WeightedPointSet(layers=(wide, narrow))
    sizes = [len(ws.pair_stats(i, j).values) for i, j in ((0, 0), (0, 1), (1, 1))]
    assert sizes[0] > 256 and max(sizes[1:]) < 256
    _assert_every_probe_matches_the_reference(ws)


def _assert_every_probe_matches_the_reference(ws) -> list:
    """moment_spot_check(ws, 6) equals `_probe_moments` at every probe;
    returns each probe's (lhs, rhs) pairs."""
    results = moment_spot_check(ws, 6)
    probes = [(row, layer.denom) for layer in ws.layers for row in layer.points]
    assert [(r.probe_index, r.k) for r in results] == [
        (q, k) for q in range(len(probes)) for k in range(7)
    ]
    got = [[(r.lhs, r.rhs) for r in results[7 * q : 7 * q + 7]] for q in range(len(probes))]
    for q, probe in enumerate(probes):
        assert got[q] == _probe_moments(ws, *probe, 6)
    return got


def test_moment_spot_check_with_many_profiles_matches_per_probe_reference():
    # 150 seeded signed permutations of (1, ..., 24), not antipodal, next to
    # +-2 e_i at another denominator: the probes of the first layer see
    # over a hundred distinct multisets of dots, so as many profiles are
    # summed, each at both blocks' scales
    rng = np.random.default_rng(11)
    wide = np.array([rng.permutation(24) + 1 for _ in range(150)]) * rng.choice([-1, 1], (150, 24))
    axes = 2 * np.concatenate([np.eye(24, dtype=np.int64), -np.eye(24, dtype=np.int64)])
    ws = WeightedPointSet(layers=(
        PointLayer(wide, 1, Fraction(2, 5), Fraction(4900, 8)),
        PointLayer(axes, 3, Fraction(3, 7), Fraction(4, 72)),
    ))
    got = _assert_every_probe_matches_the_reference(ws)
    assert len({tuple(g) for g in got}) >= 100


def test_verify_design_builds_each_gram_block_once(design, block_calls):
    report = VerificationReport(name="design")
    verify_design_claims(WeightedPointSet(layers=design.layers), report)
    assert report.passed
    assert sorted(block_calls) == [(275, 275), (275, 2025), (2025, 2025)]
    assert "first-failing-probe" not in report.notes


def test_a_failing_probe_moment_oracle_names_its_first_failing_probe(design):
    ws = mutate_design(design, 1, 5, 7, 9)
    report = VerificationReport(name="design")
    verify_design_claims(ws, report)
    first = next(m for m in moment_spot_check(ws, 6) if not m.passed)
    oracle = [r.passed for r in report.results if r.claim == "design/probe-moment-oracle"]
    assert oracle == [False]
    assert report.notes["first-failing-probe"] == (
        f"probe {first.probe_index}, k={first.k}: lhs {first.lhs}, rhs {first.rhs}"
    )
