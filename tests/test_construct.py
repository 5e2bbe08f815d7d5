import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import A_ALTERNATE, B_ALTERNATE
from coset_reference import rows_as_set, sphere_coset_shell
from leechdesign import construct
from leechdesign.cli import verify_seven_claims
from leechdesign.construct import (
    DesignConstructionError,
    PointLayer,
    WeightedPointSet,
    build_design,
    build_Y,
    check_orthogonal_to_anchors,
    check_X1_equals_PY,
    exact_matmul,
    project_rows_scaled,
    y_antipodal_pair_count,
    z_value_histogram,
)
from leechdesign.lattice import (
    A_CANONICAL,
    B_CANONICAL,
    CosetConstraint,
    enumerate_coset_shell,
)
from leechdesign.report import VerificationReport


def test_projection_annihilates_anchors():
    anchors = np.stack([A_CANONICAL, B_CANONICAL])
    assert not project_rows_scaled(anchors, A_CANONICAL, B_CANONICAL, mult=1).any()
    assert not project_rows_scaled(anchors[:1], A_CANONICAL, mult=1).any()


def test_projected_norms(basis):
    x1_shell = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 3), CosetConstraint(B_CANONICAL, -3)], 6, basis
    )
    # stored rows are mult * P(x); conventional norm is (row . row) / (8 mult^2)
    p = project_rows_scaled(x1_shell, A_CANONICAL, B_CANONICAL, mult=5)
    assert {Fraction(int(v), 8 * 25) for v in (p * p).sum(axis=1)} == {Fraction(12, 5)}

    x2_shell = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)], 4, basis
    )
    p = project_rows_scaled(x2_shell, A_CANONICAL, B_CANONICAL, mult=15)
    assert {Fraction(int(v), 8 * 225) for v in (p * p).sum(axis=1)} == {Fraction(44, 15)}

    # orthogonality is exact
    for vec in (A_CANONICAL, B_CANONICAL):
        assert not (p @ vec).any()


def test_design_shape(design):
    assert [layer.size for layer in design.layers] == [275, 2025]
    assert design.size == 2300
    assert design.layers[0].r2 == Fraction(12, 5)
    assert design.layers[1].r2 == Fraction(132, 5)
    assert design.layers[1].r2 / design.layers[0].r2 == 11
    assert design.layers[1].weight / design.layers[0].weight == Fraction(1, 729)


def _gram(ws, i, j):
    """The whole Gram block of layers i and j, as a reference."""
    return exact_matmul(ws.layers[i].points, ws.layers[j].points.T)


def test_normalized_product_sets(design):
    g11 = _gram(design, 0, 0)
    off = g11[~np.eye(275, dtype=bool)]
    s11 = {Fraction(int(v), 8 * 25) / design.layers[0].r2 for v in np.unique(off)}
    assert s11 == {Fraction(1, 6), Fraction(-1, 4)}

    g22 = _gram(design, 1, 1)
    off = g22[~np.eye(2025, dtype=bool)]
    s22 = {Fraction(int(v), 8 * 25) / design.layers[1].r2 for v in np.unique(off)}
    assert s22 == {Fraction(7, 22), Fraction(-1, 44), Fraction(-4, 11)}

    g12 = _gram(design, 0, 1)
    # normalized product * sqrt(11) = D / (scale * r1^2)
    s12 = {Fraction(int(v), 8 * 25) / design.layers[0].r2 for v in np.unique(g12)}
    assert s12 == {Fraction(1), Fraction(-1, 4), Fraction(-3, 2)}


def test_outer_shell_is_three_times_projection(basis, design):
    x2_shell = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)], 4, basis
    )
    scaled = project_rows_scaled(x2_shell, A_CANONICAL, B_CANONICAL, mult=15)
    assert rows_as_set(scaled) == rows_as_set(design.layers[1].points)


def test_rebuild_with_other_anchor_pair_same_gram_multiset(design, alt_design):
    for i in range(2):
        for j in range(2):
            a = _gram(design, i, j)
            b = _gram(alt_design, i, j)
            va, ca = np.unique(a, return_counts=True)
            vb, cb = np.unique(b, return_counts=True)
            assert bool((va == vb).all()) and bool((ca == cb).all())


def test_layer_bounds_keep_int64_products_exact(design):
    inner = design.layers[0]
    for bad in (-(2**24), 2**24):
        points = inner.points.copy()
        points[0, 0] = bad
        with pytest.raises(DesignConstructionError, match="coordinate out of range"):
            PointLayer(points, inner.denom, inner.weight, inner.r2)
    # 8 r2 denom^2 = 2^53 reaches the bound, which is excluded
    with pytest.raises(DesignConstructionError, match="squared norm"):
        PointLayer(inner.points, 1, inner.weight, Fraction(2**50))
    with pytest.raises(DesignConstructionError, match="squared norm"):
        PointLayer(inner.points, inner.denom, inner.weight, Fraction(0))
    # The largest coordinates a layer admits: every product of its rows
    # passes the kernel, and is exact.
    rng = np.random.default_rng(0)
    edge = (2**24 - 1) * rng.choice([-1, 1], size=(64, 24))
    layer = PointLayer(edge, 1, Fraction(1), Fraction(3 * (2**24 - 1) ** 2))
    st = WeightedPointSet(layers=(layer,)).pair_stats(0, 0)
    exact = edge.astype(object) @ edge.T.astype(object)
    values, counts = np.unique(exact.astype(np.int64), return_counts=True)
    assert st.values.tolist() == values.tolist() and st.counts.tolist() == counts.tolist()


def test_exact_matmul_is_exact_below_the_bound_and_refuses_it():
    rng = np.random.default_rng(1)
    a = (2**24 - 1) * rng.choice([-1, 1], size=(700, 24))  # more rows than one slab
    b = rng.integers(-(2**24) + 1, 2**24, size=(24, 5))
    exact = a.astype(object) @ b.astype(object)
    assert exact_matmul(a, b).tolist() == exact.tolist()
    assert exact_matmul(a, b[:, 0]).tolist() == exact[:, 0].tolist()
    # 32 * 2^24 * 2^24 = 2^53: one partial sum may no longer be a float64 integer
    big = np.full((2, 32), 2**24, dtype=np.int64)
    with pytest.raises(DesignConstructionError, match="not below 2\\^53"):
        exact_matmul(big, big.T)
    # int64's most negative value has no int64 absolute value; it is still seen
    with pytest.raises(DesignConstructionError, match="not below 2\\^53"):
        exact_matmul(np.array([[-(2**63)]]), np.array([[1]]))


def test_exact_matmul_refuses_a_right_operand_past_the_bound_taken_once():
    # the bound of b taken once for many left slabs, as the tensor takes it
    a = np.ones((3, 32), dtype=np.int64)
    big = np.full((32, 2), 2**24, dtype=np.int64)
    big[0, 0] = 2**48  # 32 * 1 * 2^48 = 2^53
    for b_max in (None, construct.max_abs(big)):
        with pytest.raises(DesignConstructionError, match="not below 2\\^53"):
            exact_matmul(a, big, b_max)
    assert construct.max_abs(np.array([-(2**63)])) == 2**63


def test_block_stats_equal_the_unique_histogram():
    # three slabs of a non-square block with hundreds of distinct values,
    # some of them rare
    rng = np.random.default_rng(3)
    a = rng.integers(-40, 40, size=(600, 24))
    b = rng.integers(-40, 40, size=(300, 24))
    st = construct.BlockStats.of(a, b)
    values, counts = np.unique(a @ b.T, return_counts=True)
    assert len(values) > 256 and counts.min() == 1
    assert st.values.dtype == values.dtype and st.values.tolist() == values.tolist()
    assert st.counts.tolist() == counts.tolist()


def test_block_stats_refuse_operands_past_the_product_bound():
    # 32 * 2^24 * 2^24 = 2^53: the kernel's bound, reached by one entry of b
    a = np.ones((300, 32), dtype=np.int64)
    b = np.ones((5, 32), dtype=np.int64)
    b[4, 0] = 2**48
    with pytest.raises(DesignConstructionError, match="not below 2\\^53"):
        construct.BlockStats.of(a, b)


def test_pair_stats_keep_no_block_sized_product(design):
    # the int64 Gram of the outer layer alone would be 2025^2 * 8 bytes, 33 MB
    ws = WeightedPointSet(layers=design.layers)
    tracemalloc.start()
    try:
        st = ws.pair_stats(1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.counts.sum() == 2025**2
    assert peak < 20 * 2**20


def test_collapsing_projection_is_refused(monkeypatch):
    # one projected inner point moved onto another: both stay on the sphere
    project = construct.project_rows_scaled

    def collapsing(rows, *anchors, mult):
        out = project(rows, *anchors, mult=mult)
        out[1] = out[0]
        return out

    monkeypatch.setattr(construct, "project_rows_scaled", collapsing)
    with pytest.raises(DesignConstructionError, match="^projection collapsed points$"):
        build_design(A_CANONICAL, B_CANONICAL)


def test_y_union_size_claim_sees_a_repeated_row(design, monkeypatch):
    # One row of the (x, a) = 2 shell replaced by another row of its own
    # (x, b) = -2 family: every family keeps its size, so only the union
    # claim can fail.
    def repeated(constraints, norm):
        shell = enumerate_coset_shell(constraints, norm)
        first, second = np.flatnonzero(shell @ B_CANONICAL == -16)[:2]
        shell[second] = shell[first]
        return shell

    monkeypatch.setattr(construct, "enumerate_coset_shell", repeated)
    report = VerificationReport(name="seven")
    verify_seven_claims(design, report, (A_CANONICAL, B_CANONICAL))
    results = {r.claim: r for r in report.results}
    assert results["seven/y-family-sizes"].passed
    assert report.first_failure().claim == "seven/y-union-size"
    assert results["seven/y-union-size"].computed == "4599"


def _two_anchor_reference(rows, a, b, mult):
    """mult * P_ab(row) by the fixed coefficients of a norm-4 pair with (a, b)
    = -1: 15 P_ab(x) = 15 x - (4 (x, a) + (x, b)) a - ((x, a) + 4 (x, b)) b."""
    ia, ib = (rows @ np.stack([a, b], axis=1) // 8).T
    out15 = 15 * mult * rows - mult * np.outer(4 * ia + ib, a) - mult * np.outer(ia + 4 * ib, b)
    assert not (out15 % 15).any()
    return out15 // 15


def _one_anchor_reference(rows, a, mult):
    """mult * P_a(row) for a norm-4 anchor: 4 P_a(x) = 4 x - (x, a) a."""
    out4 = 4 * mult * rows - mult * np.outer(rows @ a // 8, a)
    assert not (out4 % 4).any()
    return out4 // 4


@pytest.mark.parametrize(
    "a, b", [(A_CANONICAL, B_CANONICAL), (A_ALTERNATE, B_ALTERNATE)], ids=["canonical", "alternate"]
)
def test_projection_equals_the_one_and_two_anchor_formulas(a, b):
    y_shell = enumerate_coset_shell([CosetConstraint(a, 2)], 4)
    assert len(y_shell) == 4600
    assert np.array_equal(
        project_rows_scaled(y_shell, a, mult=2), _one_anchor_reference(y_shell, a, 2)
    )
    assert np.array_equal(
        project_rows_scaled(y_shell, a, b, mult=15), _two_anchor_reference(y_shell, a, b, 15)
    )
    inner = enumerate_coset_shell([CosetConstraint(a, -1), CosetConstraint(b, -2)], 4)
    assert np.array_equal(
        project_rows_scaled(inner, a, b, mult=5), _two_anchor_reference(inner, a, b, 5)
    )


def test_projection_refuses_a_result_that_is_not_integral():
    # on the inner shell, P_ab(x) = x + (2 a + 3 b) / 5 has fifths
    constraints = [CosetConstraint(A_CANONICAL, -1), CosetConstraint(B_CANONICAL, -2)]
    inner = enumerate_coset_shell(constraints, 4)
    with pytest.raises(DesignConstructionError, match="^projection not integral at mult=1$"):
        project_rows_scaled(inner, A_CANONICAL, B_CANONICAL, mult=1)


def test_each_y_family_is_its_projected_two_constraint_shell(ys):
    for key, value in ((1, 1), (2, 0), (-2, -1), (-1, -2)):
        constraints = [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, value)]
        family = project_rows_scaled(enumerate_coset_shell(constraints, 4), A_CANONICAL, mult=2)
        assert rows_as_set(ys[key]) == rows_as_set(family)
        assert len(ys[key]) == len(family)


def test_build_Y_filters_the_shell_once(coset_calls):
    build_Y(A_CANONICAL, B_CANONICAL)
    assert coset_calls == [((tuple(A_CANONICAL.tolist()), 2),)]


def test_anchor_preconditions_enforced():
    with pytest.raises(DesignConstructionError):
        build_design(A_CANONICAL, A_CANONICAL)


def test_orthogonality_check_validates_the_anchors(design, alt_design):
    check_orthogonal_to_anchors(design, A_CANONICAL, B_CANONICAL)
    with pytest.raises(DesignConstructionError, match="not orthogonal to the anchors"):
        check_orthogonal_to_anchors(alt_design, A_CANONICAL, B_CANONICAL)
    # an invalid pair is named, before any product with it is taken
    with pytest.raises(DesignConstructionError, match="inner product -1"):
        check_orthogonal_to_anchors(design, A_CANONICAL, A_CANONICAL)


def test_Y_family(ys):
    assert {k: v.shape[0] for k, v in ys.items()} == {1: 275, 2: 2025, -2: 2025, -1: 275}
    union = rows_as_set(ys[1]) | rows_as_set(ys[2]) | rows_as_set(ys[-1]) | rows_as_set(ys[-2])
    assert len(union) == 4600
    for i in (1, 2):
        assert rows_as_set(ys[i]) == {tuple(-c for c in row) for row in ys[-i]}
    assert y_antipodal_pair_count(ys) == 2300


def test_antipodal_pair_count_rejects_an_open_union(ys):
    with pytest.raises(DesignConstructionError, match="^Y union is not antipode-closed$"):
        y_antipodal_pair_count({**ys, -1: ys[-1][1:]})
    with_zero = np.vstack([ys[1], np.zeros((1, 24), dtype=np.int64)])
    with pytest.raises(DesignConstructionError, match="^self-antipodal point in Y union$"):
        y_antipodal_pair_count({**ys, 1: with_zero})


def test_X1_equals_projected_Y_plus_one(design, ys):
    assert check_X1_equals_PY(design, ys[1], A_CANONICAL, B_CANONICAL)


def test_X1_check_sees_a_negated_inner_point(design, ys):
    inner, outer = design.layers
    points = inner.points.copy()
    points[0] = -points[0]
    negated = WeightedPointSet(
        (PointLayer(points, inner.denom, inner.weight, inner.r2), outer)
    )
    assert not check_X1_equals_PY(negated, ys[1], A_CANONICAL, B_CANONICAL)


def test_Z_value_histogram(design):
    hist, den = z_value_histogram(design)
    assert den == 5400  # the least common denominator of the three blocks' maps
    assert [Fraction(v, den) for v in hist.values.tolist()] == [
        Fraction(-1),
        Fraction(-1, 3),
        Fraction(0),
        Fraction(1, 3),
        Fraction(1),
    ]
    assert int(hist.counts.sum()) == 4600 * 4600
    assert hist.counts[-1] == 4600  # z = 1: exactly the diagonal
    assert hist.counts[0] == 4600  # z = -1: exactly the antipodal pairs


def test_Z_matches_projected_model(design, ys):
    stacked = np.concatenate([ys[1], ys[2], ys[-1], ys[-2]])
    gram = stacked @ stacked.T
    vals, counts = np.unique(gram, return_counts=True)
    hist, den = z_value_histogram(design)
    assert np.array_equal(hist.values * 96, vals.astype(object) * den)  # z = dot / 96
    assert np.array_equal(hist.counts, counts)
