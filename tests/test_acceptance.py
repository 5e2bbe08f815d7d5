"""Acceptance gate: one test per criterion, each printing a verdict line.

Everything is exact (expected values asserted with zero tolerance) except
the seeded floating-point oracle, whose stated tolerance is 1e-9.
Stated runtime targets: coset enumerations under 2 minutes, strength
sums under 10 minutes, the 22-dimensional candidate search under 30
minutes; measured times are printed with each verdict.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np

from coset_reference import rows_as_set, sphere_coset_shell
from float_oracle import float_polynomial_check
from leechdesign.coherent import classify_pairs, compare_with_reference, intersection_numbers
from leechdesign.coherent_fixture import LABEL_INDEX
from leechdesign.construct import (
    build_Y,
    check_X1_equals_PY,
    exact_matmul,
    project_rows_scaled,
    y_antipodal_pair_count,
    z_value_histogram,
)
from leechdesign.design import (
    euclidean_strength,
    moment_spot_check,
    mutate_design,
    kernel_sums,
    spherical_strength,
)
from leechdesign.lattice import (
    A_CANONICAL,
    B_CANONICAL,
    CosetConstraint,
)
from leechdesign.unique import CANDIDATE_NORM


def _verdict(num: int, ok: bool, text: str, seconds: float = None) -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{seconds:.1f}s]" if seconds is not None else ""
    print(f"\nACCEPTANCE {num}: {mark} - {text}{suffix}")
    assert ok


def test_criterion_1_construction_counts(basis, design):
    t0 = time.monotonic()
    shell1 = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 3), CosetConstraint(B_CANONICAL, -3)], 6, basis
    )
    shell2 = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)], 4, basis
    )
    dt = time.monotonic() - t0
    ok = (
        shell1.shape[0] == 275
        and shell2.shape[0] == 2025
        and design.size == 2300
        and comb(25, 3) == 2300
    )
    _verdict(1, ok, "coset shells 275 and 2025; |X| = 2300 = C(25,3)", dt)


def _gram(ws, i, j):
    """The whole Gram block of layers i and j, as a reference."""
    return exact_matmul(ws.layers[i].points, ws.layers[j].points.T)


def test_criterion_2_parameter_reproduction(design):
    g11 = _gram(design, 0, 0)
    off11 = {
        Fraction(int(v), 200) / design.layers[0].r2
        for v in np.unique(g11[~np.eye(275, dtype=bool)])
    }
    g22 = _gram(design, 1, 1)
    off22 = {
        Fraction(int(v), 200) / design.layers[1].r2
        for v in np.unique(g22[~np.eye(2025, dtype=bool)])
    }
    g12 = _gram(design, 0, 1)
    cross_sqrt11 = {
        Fraction(int(v), 200) / design.layers[0].r2 for v in np.unique(g12)
    }
    ok = (
        off11 == {Fraction(1, 6), Fraction(-1, 4)}
        and off22 == {Fraction(7, 22), Fraction(-1, 44), Fraction(-4, 11)}
        and cross_sqrt11 == {Fraction(1), Fraction(-1, 4), Fraction(-3, 2)}
        and design.layers[1].r2 / design.layers[0].r2 == 11
        and design.layers[1].weight / design.layers[0].weight == Fraction(1, 729)
    )
    _verdict(2, ok, "inner-product sets, squared radius ratio 11, weight ratio 1/729")


def test_criterion_3_design_strength(design):
    t0 = time.monotonic()
    conds6 = euclidean_strength(design, 6)
    conds7 = euclidean_strength(design, 7)
    dt = time.monotonic() - t0
    degree7 = [c for c in conds7 if c.label in ("l=7,j=0", "l=5,j=1")]
    ok = (
        len(conds6) == 10
        and all(c.passed for c in conds6)
        and any(not c.passed for c in degree7)
    )
    _verdict(3, ok, "strength 6 exact (10 conditions), degree-7 condition nonzero", dt)


def test_criterion_4_spherical_strengths(design):
    t0 = time.monotonic()
    s1 = spherical_strength(design, 0, 5)
    s2 = spherical_strength(design, 1, 4)
    hist, den = z_value_histogram(design)
    sz = kernel_sums(hist.values, hist.counts, den, 1, 7, 23)
    dt = time.monotonic() - t0
    ok = (
        [c.passed for c in s1] == [True] * 4 + [False]
        and all(c.passed for c in s2)
        and not any(sz[1:])
        and int(hist.counts.sum()) == 4600 * 4600
        and (hist.values[-1], hist.counts[-1]) == (den, 4600)
        and (hist.values[0], hist.counts[0]) == (-den, 4600)  # 2300 antipodal pairs, z.-z = -1
    )
    _verdict(
        4,
        ok,
        "shell1 spherical 4 (fails 5), shell2 spherical 4, double cover is a "
        "spherical 7-design on 4600 points with 2300 antipodal pairs",
        dt,
    )


def test_criterion_5_configuration_tables(tensor):
    mismatches = compare_with_reference(tensor)
    li = LABEL_INDEX
    ok = (
        mismatches == []
        and tensor[li["11.1"], li["11.1"], li["11.1"]] == 105
        and tensor[li["22.1"], li["22.1"], li["22.0"]] == 462
        and tensor[li["22.2"], li["22.2"], li["22.0"]] == 1232
        and tensor[li["22.3"], li["22.3"], li["22.0"]] == 330
    )
    _verdict(
        5,
        ok,
        "13x13x13 tensor well-defined (exhaustive by construction) and equal "
        "to the reference tables",
    )


def test_criterion_6_uniqueness(basis, design, candidates, split, twin):
    t0 = time.monotonic()
    norms_ok = bool(
        ((candidates.vectors3**2).sum(axis=1) == int(CANDIDATE_NORM * 9 * 40)).all()
    )
    shell = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 0), CosetConstraint(B_CANONICAL, -2)], 4, basis
    )
    other = project_rows_scaled(shell, A_CANONICAL, B_CANONICAL, mult=15)
    twin_conds = euclidean_strength(twin, 6)
    twin_tensor = intersection_numbers(classify_pairs(twin))
    dt = time.monotonic() - t0
    ok = (
        candidates.vectors3.shape[0] == 4050
        and norms_ok
        and split.part_a.shape[0] == 2025
        and split.part_b.shape[0] == 2025
        and rows_as_set(split.part_a) == rows_as_set(design.layers[1].points)
        and rows_as_set(split.part_b) == rows_as_set(other)
        and all(c.passed for c in twin_conds)
        and compare_with_reference(twin_tensor) == []
    )
    _verdict(
        6,
        ok,
        "4050 candidates at squared norm 44/3 split 2025+2025 into the second "
        "shell and the projected twin; twin passes strength and tables",
        dt,
    )


def test_criterion_7_cross_construction_identity(design):
    t0 = time.monotonic()
    ys = build_Y(A_CANONICAL, B_CANONICAL)
    same = check_X1_equals_PY(design, ys[1], A_CANONICAL, B_CANONICAL)
    mirrored = all(
        rows_as_set(ys[i]) == {tuple(-c for c in row) for row in ys[-i]}
        for i in (1, 2)
    )
    pairs = y_antipodal_pair_count(ys)
    dt = time.monotonic() - t0
    ok = same and mirrored and pairs == 2300
    _verdict(7, ok, "first shell equals the projected (2,1)-family; mirror symmetry", dt)


def test_criterion_8_anchor_independence(design, alt_design, tensor, alt_tensor):
    t0 = time.monotonic()
    grams_equal = True
    for i in range(2):
        for j in range(2):
            va, ca = np.unique(_gram(design, i, j), return_counts=True)
            vb, cb = np.unique(_gram(alt_design, i, j), return_counts=True)
            grams_equal &= bool((va == vb).all()) and bool((ca == cb).all())
    tensors_equal = bool((tensor == alt_tensor).all())
    dt = time.monotonic() - t0
    ok = grams_equal and tensors_equal
    _verdict(
        8,
        ok,
        "second anchor pair: identical normalized Gram multiset and tensor",
        dt,
    )


def test_criterion_9_oracle_agreement(design):
    t0 = time.monotonic()
    kern_good = all(c.passed for c in euclidean_strength(design, 6))
    probe_good = all(m.passed for m in moment_spot_check(design, 6))
    float_good = (
        max(abs(l - r) for l, r in float_polynomial_check(design, 6, seed=20240601))
        <= 1e-9
    )

    bad = mutate_design(design, 0, 0)
    kern_bad = all(c.passed for c in euclidean_strength(bad, 6))
    probe_bad = all(m.passed for m in moment_spot_check(bad, 6))
    float_bad = (
        max(abs(l - r) for l, r in float_polynomial_check(bad, 6, seed=20240601))
        <= 1e-9
    )
    dt = time.monotonic() - t0
    ok = (
        kern_good and probe_good and float_good
        and not kern_bad and not probe_bad and not float_bad
    )
    _verdict(
        9,
        ok,
        "kernel, probe-moment, and float oracles all pass on the design and "
        "all fail on a one-point mutation",
        dt,
    )
