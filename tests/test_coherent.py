import re
import tracemalloc

import numpy as np
import pytest

from many_valued import large_fiber_design
from leechdesign import coherent, construct
from leechdesign.coherent import (
    ConfigurationAxiomError,
    RelationClassificationError,
    RelationPartition,
    _block_dots,
    check_tensor_identities,
    classify_pairs,
    compare_with_reference,
    fixture_self_test,
    intersection_numbers,
)
from leechdesign.coherent_fixture import (
    LABEL_FIBERS,
    LABELS,
    LABEL_INDEX,
    TRANSPOSE,
    VALENCIES,
    fixture_matrices,
    fixture_tensor,
)
from leechdesign.cli import verify_coherent_claims
from leechdesign.construct import PointLayer, WeightedPointSet, exact_matmul
from leechdesign.report import VerificationReport


def test_fixture_self_test_passes():
    fixture_self_test()


def test_fixture_row_sum_oracle():
    # Column beta_0 of the first nontrivial fiber-2 table reproduces the
    # valency 462, summed over compatible rows.
    t = fixture_tensor()
    a = LABEL_INDEX["22.1"]
    c = LABEL_INDEX["22.0"]
    col = sum(int(t[a, b, c]) for b in range(13))
    assert col == 462


def _names(labels) -> set[str]:
    return {LABELS[c] for c in np.unique(labels).tolist()}


def test_classification_sets(partition):
    # 2 off-diagonal classes on fiber 1, 3 on fiber 2, 3 across
    labels = partition.labels
    lab11 = labels[:275, :275]
    assert _names(lab11[~np.eye(275, dtype=bool)]) == {"11.1", "11.2"}
    lab22 = labels[275:, 275:]
    assert _names(lab22[~np.eye(2025, dtype=bool)]) == {"22.1", "22.2", "22.3"}
    assert _names(labels[:275, 275:]) == {"12.1", "12.2", "12.3"}


def test_valencies_constant_per_point(partition):
    lab11 = partition.labels[:275, :275]
    counts1 = (lab11 == LABEL_INDEX["11.1"]).sum(axis=1)
    assert bool((counts1 == 162).all())
    counts2 = (lab11 == LABEL_INDEX["11.2"]).sum(axis=1)
    assert bool((counts2 == 112).all())
    assert 1 + 162 + 112 == 275


def test_tensor_spot_values(tensor):
    li = LABEL_INDEX
    assert tensor[li["11.1"], li["11.1"], li["11.1"]] == 105
    assert tensor[li["22.1"], li["22.1"], li["22.0"]] == 462
    assert tensor[li["22.2"], li["22.2"], li["22.0"]] == 1232
    assert tensor[li["22.3"], li["22.3"], li["22.0"]] == 330
    assert tensor[li["22.3"], li["22.3"], li["22.3"]] == 7


def test_tensor_matches_reference_exactly(tensor):
    assert compare_with_reference(tensor) == []


def test_corrupted_tensor_detected(tensor):
    bad = tensor.copy()
    li = LABEL_INDEX
    bad[li["11.1"], li["11.1"], li["11.2"]] += 1
    mismatches = compare_with_reference(bad)
    assert len(mismatches) == 1
    a, b, c, got, want = mismatches[0]
    assert (a, b, c) == ("11.1", "11.1", "11.2")
    assert got == want + 1
    with pytest.raises(ConfigurationAxiomError, match="column sum"):
        check_tensor_identities(bad)


def test_identity_check_sees_a_broken_transpose_pair(tensor):
    bad = tensor.copy()
    li = LABEL_INDEX
    bad[li["11.1"], li["12.1"], li["12.2"]] += 1  # its partner (21.1, 11.1, 21.2) is not
    with pytest.raises(
        ConfigurationAxiomError, match=r"^transpose symmetry fails at p_\[11.1,12.1\]\^\[12.2\]"
    ):
        check_tensor_identities(bad)


def test_transpose_symmetry(tensor):
    for a in range(13):
        for b in range(13):
            for c in range(13):
                assert (
                    tensor[a, b, c]
                    == tensor[TRANSPOSE[b], TRANSPOSE[a], TRANSPOSE[c]]
                )


def test_tensor_identities(tensor):
    assert check_tensor_identities(tensor) == [VALENCIES[name] for name in LABELS]


def test_fiber2_block_is_association_scheme(tensor, partition):
    # restricted to the 2025-point fiber: symmetric relations, identity,
    # and well-defined intersection numbers (the latter is established by
    # the exhaustive tensor computation); valencies sum to the fiber size
    lab22 = partition.labels[275:, 275:]
    assert bool((lab22 == lab22.T).all())
    assert bool((np.diag(lab22) == LABEL_INDEX["22.0"]).all())
    li = LABEL_INDEX
    k = [int(tensor[li[f"22.{i}"], li[f"22.{i}"], li["22.0"]]) for i in range(4)]
    assert k == [1, 462, 1232, 330]
    assert sum(k) == 2025


def test_classification_deterministic(design):
    p1 = classify_pairs(design)
    p2 = classify_pairs(design)
    assert p1.fiber_sizes == p2.fiber_sizes == (275, 2025)
    assert bool((p1.labels == p2.labels).all())


def test_alt_anchor_tensor_identical(alt_tensor, tensor):
    assert bool((alt_tensor == tensor).all())


def test_global_label_matrix_partitions(partition):
    g = partition.labels
    assert g.shape == (2300, 2300)
    # every pair got exactly one of the 13 labels
    assert set(np.unique(g).tolist()) <= set(range(13))
    # identity relations occupy exactly the diagonal
    diag = np.diag(g)
    assert bool((diag[:275] == LABEL_INDEX["11.0"]).all())
    assert bool((diag[275:] == LABEL_INDEX["22.0"]).all())
    off = g[~np.eye(2300, dtype=bool)]
    assert not bool(np.isin(off, [LABEL_INDEX["11.0"], LABEL_INDEX["22.0"]]).any())
    # each relation lies in its own fiber block, and transposing a pair
    # transposes its relation
    fiber = np.repeat([1, 2], [275, 2025])
    blocks = np.array(LABEL_FIBERS)[g]
    assert bool((blocks[..., 0] == fiber[:, None]).all())
    assert bool((blocks[..., 1] == fiber[None, :]).all())
    assert bool((g.T == np.array(TRANSPOSE)[g]).all())


def _composition_histogram(labels, p, q) -> np.ndarray:
    """h[a, b] = #{z : (p, z) in a, (z, q) in b}, counted directly."""
    return np.bincount(
        13 * labels[p].astype(np.int64) + labels[:, q], minlength=169
    ).reshape(13, 13)


def test_relabelled_pair_breaks_well_definedness(partition):
    labels = partition.labels.copy()
    p = 275
    q = 275 + int(np.argmax(labels[p, 275:] == LABEL_INDEX["22.1"]))
    labels[p, q] = labels[q, p] = LABEL_INDEX["22.2"]
    with pytest.raises(ConfigurationAxiomError) as info:
        intersection_numbers(RelationPartition(labels, partition.fiber_sizes))
    w1, w2 = info.value.witnesses
    assert w1 != w2
    assert all(isinstance(i, int) and 0 <= i < 2300 for i in (*w1, *w2))
    assert labels[w1] == labels[w2]
    # the message names the (a, b) and the two counts the witnesses see,
    # decoded from their packed products
    found = re.match(
        r"^p_\[(.+?),(.+?)\]\^\[(.+?)\] not well defined: "
        r"pair \(\d+, \d+\) sees (\d+), pair \(\d+, \d+\) sees (\d+)$",
        str(info.value),
    )
    assert found is not None
    a, b = LABEL_INDEX[found[1]], LABEL_INDEX[found[2]]
    assert LABEL_INDEX[found[3]] == labels[w1]
    h1, h2 = (_composition_histogram(labels, *w) for w in (w1, w2))
    assert (int(found[4]), int(found[5])) == (h1[a, b], h2[a, b])
    assert h1[a, b] != h2[a, b]


def _two_relation_partition(n2: int = 7) -> RelationPartition:
    """Fibers of 3 and n2 points: 11.1 and 22.1 off the diagonal, 12.1 and
    21.1 on every cross pair.  Then p_{12.1,21.1}^{11.0} = n2; at n2 = 7 =
    2^3 - 1 it fills its digit, 3 being the bit length of the larger fiber."""
    li = LABEL_INDEX
    fiber = np.repeat([0, 1], [3, n2])
    table = np.array([[li["11.1"], li["12.1"]], [li["21.1"], li["22.1"]]], dtype=np.int8)
    labels = table[fiber[:, None], fiber[None, :]]
    labels[np.arange(3 + n2), np.arange(3 + n2)] = np.where(fiber == 0, li["11.0"], li["22.0"])
    return RelationPartition(labels, (3, n2))


def _pairwise_tensor(part: RelationPartition) -> np.ndarray:
    reference = np.zeros((13, 13, 13), dtype=np.int64)
    for p, q in np.ndindex(part.labels.shape):
        reference[:, :, part.labels[p, q]] = _composition_histogram(part.labels, p, q)
    return reference


def test_full_digit_matches_the_pairwise_count():
    part = _two_relation_partition()
    tensor = intersection_numbers(part)
    assert tensor[LABEL_INDEX["12.1"], LABEL_INDEX["21.1"], LABEL_INDEX["11.0"]] == 7
    assert np.array_equal(tensor, _pairwise_tensor(part))


def _cycle_scheme_partition(n2: int, relation_of_distance: dict) -> RelationPartition:
    """`_two_relation_partition(n2)` with the relation of each pair of fiber 2
    set by the cyclic distance of its two points."""
    part = _two_relation_partition(n2)
    i = np.arange(n2)
    distance = np.minimum((i[:, None] - i) % n2, (i - i[:, None]) % n2)
    part.labels[3:, 3:] = [[LABEL_INDEX[relation_of_distance[d]] for d in row] for row in distance]
    return part


def _assert_names_differing_counts(error, labels, relation: str) -> tuple:
    """The message names p_[a,b]^[relation] and what its two witnesses of
    that relation see, which are their direct counts at (a, b) and differ;
    returns the witnesses."""
    w1, w2 = error.witnesses
    assert LABELS[labels[w1]] == LABELS[labels[w2]] == relation
    found = re.match(
        rf"^p_\[(.+?),(.+?)\]\^\[{re.escape(relation)}\] not well defined: "
        rf"pair {re.escape(str(w1))} sees (\d+), pair {re.escape(str(w2))} sees (\d+)$",
        str(error),
    )
    assert found is not None
    a, b = LABEL_INDEX[found[1]], LABEL_INDEX[found[2]]
    h1, h2 = (_composition_histogram(labels, *w) for w in (w1, w2))
    assert (int(found[3]), int(found[4])) == (h1[a, b], h2[a, b])
    assert h1[a, b] != h2[a, b]
    return w1, w2


def test_two_free_relations_match_the_pairwise_count():
    # The distance scheme of the 7-cycle: 22.1 and 22.2 are both free, so
    # the counts of (22.i, 22.j) fill all four digits of the (2, 2) product.
    part = _cycle_scheme_partition(7, {0: "22.0", 1: "22.1", 2: "22.2", 3: "22.3"})
    tensor = intersection_numbers(part)
    li = LABEL_INDEX
    assert tensor[li["22.1"], li["22.2"], li["22.1"]] == 1
    assert tensor[li["22.3"], li["22.3"], li["22.1"]] == 1
    assert np.array_equal(tensor, _pairwise_tensor(part))


def test_a_regular_relation_that_is_not_coherent_is_caught_by_the_products(monkeypatch):
    # On the 6-cycle, 22.1 (distance 1) and 22.2 (distance 2 or 3) have
    # constant valencies 2 and 3, but a 22.2 pair at distance 2 has one
    # common 22.1-neighbour and one at distance 3 has none.  It is caught
    # with one slab and one column block, and with tiles that start right
    # of their slab or end inside it, whose compared pairs a wrong triangle
    # offset would cut short.
    part = _cycle_scheme_partition(6, {0: "22.0", 1: "22.1", 2: "22.2", 3: "22.2"})
    for slab, columns in [(256, 768)] + [(m, c) for m in (1, 2, 3, 4) for c in (m, 2 * m + 1)]:
        monkeypatch.setattr(coherent, "_SLAB", slab)
        monkeypatch.setattr(coherent, "_COLUMNS", columns)
        with pytest.raises(ConfigurationAxiomError) as info:
            intersection_numbers(part)
        w1, w2 = _assert_names_differing_counts(info.value, part.labels, "22.2")
        assert w1 != w2 and w1[0] != w1[1] and w2[0] != w2[1]


@pytest.mark.parametrize("pair, relation", [((4, 5), "12.3"), ((0, 1), "22.2")])
def test_a_label_outside_its_fiber_block_is_rejected(pair, relation):
    part = _two_relation_partition()
    part.labels[pair] = LABEL_INDEX[relation]
    with pytest.raises(ConfigurationAxiomError, match=rf"^pair {re.escape(str(pair))} carries "
                       rf"{re.escape(relation)}, not a relation of the") as info:
        intersection_numbers(part)
    assert len(set(info.value.witnesses)) == len(info.value.witnesses)


def test_a_point_with_another_valency_is_named_at_its_diagonal_pair(partition):
    # Only (p, q) is relabelled: row p loses a 22.1 and column q gains a 22.2.
    labels = partition.labels.copy()
    p = 300
    q = 275 + int(np.argmax(labels[p, 275:] == LABEL_INDEX["22.1"]))
    labels[p, q] = LABEL_INDEX["22.2"]
    with pytest.raises(ConfigurationAxiomError) as info:
        intersection_numbers(RelationPartition(labels, partition.fiber_sizes))
    assert _assert_names_differing_counts(info.value, labels, "22.0") == ((275, 275), (p, p))


def test_a_relation_with_constant_rows_but_not_columns_is_rejected():
    # Every point of fiber 1 has one 12.2 pair, always to point 3, so the
    # row counts are constant and the column counts of 12.2 are 3, 0, ..., 0.
    # The transposed pairs still carry 21.1, which the transpose check names.
    part = _two_relation_partition()
    part.labels[:3, 3] = LABEL_INDEX["12.2"]
    with pytest.raises(ConfigurationAxiomError, match=r"^pair \(0, 3\) carries 12.2, but its "
                       r"transpose \(3, 0\) carries 21.1, not 21.2$") as info:
        intersection_numbers(part)
    assert info.value.witnesses == ((0, 3), (3, 0))


def test_a_transpose_consistent_relation_with_constant_rows_but_not_columns_is_rejected():
    # The same pairs with their transposes relabelled too, so that the
    # partition is transpose-consistent: point 3 has no 21.1 pair left,
    # point 4 three.
    part = _two_relation_partition()
    part.labels[:3, 3] = LABEL_INDEX["12.2"]
    part.labels[3, :3] = LABEL_INDEX["21.2"]
    with pytest.raises(ConfigurationAxiomError, match=r"^p_\[21.1,12.1\]\^\[22.0\] not well "
                       r"defined: pair \(3, 3\) sees 0, pair \(4, 4\) sees 3$") as info:
        intersection_numbers(part)
    assert info.value.witnesses == ((3, 3), (4, 4))


def test_two_labels_swapped_within_a_row_break_transpose_consistency(partition):
    # Row p keeps every count, but its pairs to q1 and q2 no longer carry
    # the transposes of (q1, p) and (q2, p); the first of them is named.
    labels = partition.labels.copy()
    p = 300
    q1, q2 = (
        p + 1 + int(np.argmax(labels[p, p + 1 :] == LABEL_INDEX[r])) for r in ("22.1", "22.2")
    )
    labels[p, [q1, q2]] = labels[p, [q2, q1]]
    q = min(q1, q2)
    new, old = LABELS[labels[p, q]], LABELS[labels[q, p]]
    with pytest.raises(ConfigurationAxiomError, match=rf"^pair \({p}, {q}\) carries {new}, but "
                       rf"its transpose \({q}, {p}\) carries {old}, not {new}$") as info:
        intersection_numbers(RelationPartition(labels, partition.fiber_sizes))
    assert info.value.witnesses == ((p, q), (q, p))


def test_the_tensor_costs_one_product_per_fiber_block(partition, monkeypatch):
    # rows x inner x columns summed over every product: through each inner
    # fiber, one product per digit for the slab of m rows at x on the
    # 2300 - x columns q >= x, in column blocks, and none at the
    # representatives, whose counts are taken directly; so
    # 2 sum_x m (2300 - x) 2300 multiply-adds, twice 53 % of 2300^3 with
    # slabs of 128 rows, each on float32 operands.
    work, kinds = [], set()

    def spy(a, b, b_max=None, out=None):
        work.append(a.shape[0] * a.shape[1] * b.shape[1])
        kinds.add((a.dtype.name, b.dtype.name))
        return exact_matmul(a, b, b_max, out)

    monkeypatch.setattr(coherent, "exact_matmul", spy)
    tensor = intersection_numbers(partition)
    assert sum(work) == 12_842_979_200 <= 13e9
    assert kinds == {("float32", "float32")}
    assert compare_with_reference(tensor) == []


def test_the_tensor_holds_no_full_size_operand(partition):
    # A right operand of the 2025-point fiber against all 2300 columns in
    # float32 alone is 17.8 MiB; a column block of 512 is 4.0 MiB.  The
    # kernel's traced peak is 7.7 MiB.
    tracemalloc.start()
    try:
        intersection_numbers(partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_a_fiber_whose_packed_counts_could_pass_int64_is_refused():
    # four counts of 16 bits each need 64 bits; the check comes before any
    # label is read
    part = RelationPartition(np.zeros((0, 0), dtype=np.int8), (1, 2**15))
    with pytest.raises(construct.StepError, match="not below 2\\^15"):
        intersection_numbers(part)


def test_a_layer_above_the_absolute_bound_is_refused_before_the_label_matrix():
    # A set on one sphere in R^24 with three off-diagonal inner products has
    # at most 2900 points, so a layer of 2901 is refused before its
    # (2902, 2902) int8 label matrix of 8.4 MB is made.
    ws = large_fiber_design(2901)
    tracemalloc.start()
    try:
        with pytest.raises(RelationClassificationError,
                           match=r"^a layer of 2901 points, above the 2900 of a 3-distance set "):
            classify_pairs(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _pentagon_partition() -> RelationPartition:
    """The orbitals of the dihedral group of the pentagon on its 5 edges
    (fiber 1) and 5 vertices (fiber 2): edges and vertices at cyclic
    distance 1 or 2, and an edge incident to a vertex (12.1), adjacent to
    it (12.2) or opposite it (12.3)."""
    i = np.arange(5)
    d = (i[None, :] - i[:, None]) % 5  # d[p, q] = q - p mod 5
    within = np.array([0, 1, 2, 2, 1])
    cross = np.array([1, 1, 2, 3, 2])  # edge {p, p + 1} to vertex p + d
    li = LABEL_INDEX
    labels = np.empty((10, 10), dtype=np.int8)
    labels[:5, :5] = np.array([li["11.0"], li["11.1"], li["11.2"]])[within[d]]
    labels[5:, 5:] = np.array([li["22.0"], li["22.1"], li["22.2"]])[within[d]]
    labels[:5, 5:] = (li["12.1"] - 1 + cross)[d]
    labels[5:, :5] = np.array(TRANSPOSE, dtype=np.int8)[labels[:5, 5:].T]
    return RelationPartition(labels, (5, 5))


@pytest.mark.parametrize("slab", [1, 2, 3, 4])
def test_slabs_smaller_than_a_fiber_match_the_pairwise_count(monkeypatch, slab):
    # The pairs q > p of each slab cross slab, column-block and fiber
    # boundaries, and the (2, 1) entries, derived from p_(a,b)^c =
    # p_(T b, T a)^(T c), equal the direct counts as well.  A column block
    # of 2 slab + 1 ends inside a slab.
    monkeypatch.setattr(coherent, "_SLAB", slab)
    for columns in (slab, 2 * slab + 1):
        monkeypatch.setattr(coherent, "_COLUMNS", columns)
        for part in (
            _cycle_scheme_partition(7, {0: "22.0", 1: "22.1", 2: "22.2", 3: "22.3"}),
            _pentagon_partition(),
        ):
            tensor = intersection_numbers(part)
            assert tensor[:, :, [LABEL_INDEX[f"21.{k}"] for k in (1, 2, 3)]].any()
            assert np.array_equal(tensor, _pairwise_tensor(part)), f"columns {columns}"


@pytest.mark.parametrize("pair, relation", [((0, 1), "11.0"), ((4, 4), "22.1"), ((5, 6), "22.0")])
def test_identity_off_the_diagonal_is_rejected(pair, relation):
    part = _two_relation_partition()
    part.labels[pair] = LABEL_INDEX[relation]
    with pytest.raises(ConfigurationAxiomError, match="is not exactly the diagonal"):
        intersection_numbers(part)


def test_duplicated_outer_point_is_rejected(design):
    inner, outer = design.layers
    points = np.vstack([outer.points, outer.points[:1]])
    doubled = WeightedPointSet(
        layers=(inner, PointLayer(points, outer.denom, outer.weight, outer.r2))
    )
    with pytest.raises(
        RelationClassificationError,
        match=r"^duplicate point: off-diagonal pair at full norm$",
    ):
        classify_pairs(doubled)


def test_fixture_matrices_block_structure():
    mats = fixture_matrices()
    assert set(mats) == set(LABELS)
    # valency appears at (a, a^T, fiber identity)
    t = fixture_tensor()
    for name, k in VALENCIES.items():
        a = LABEL_INDEX[name]
        ident = LABEL_INDEX["11.0"] if name.startswith(("11", "12")) else LABEL_INDEX["22.0"]
        assert t[a, TRANSPOSE[a], ident] == k


def _per_entry_labels(ws) -> np.ndarray:
    """Reference labelling: every Gram block, the (2, 1) block too, built on
    its own and compared entry by entry with each relation's dot."""
    n1 = ws.layers[0].size
    fiber = (slice(0, n1), slice(n1, ws.size))
    labels = np.full((ws.size, ws.size), -1, dtype=np.int8)
    for i in (0, 1):
        for j in (0, 1):
            gram = exact_matmul(ws.layers[i].points, ws.layers[j].points.T)
            block = labels[fiber[i], fiber[j]]
            for c, dot in _block_dots(ws, i, j):
                block[gram == dot] = c
    return labels


@pytest.mark.parametrize("fixture", ["design", "alt_design"])
def test_labels_match_the_per_entry_reference(request, fixture):
    ws = request.getfixturevalue(fixture)
    labels = classify_pairs(ws).labels
    assert bool((labels >= 0).all())
    assert np.array_equal(labels, _per_entry_labels(ws))


def _slab_spy(monkeypatch) -> list:
    """The (rows, columns) of every product `construct.slab_products` makes
    while the test runs."""
    calls = []
    matmul = construct.exact_matmul

    def spy(a, b, b_max=None, out=None):
        calls.append((a.shape[0], b.shape[1]))
        return matmul(a, b, b_max, out)

    monkeypatch.setattr(construct, "exact_matmul", spy)
    return calls


def _slabs(n: int, columns: int) -> list:
    return [(min(256, n - r), columns) for r in range(0, n, 256)]


def test_negated_inner_point_fails_in_the_first_block(design, block_calls, monkeypatch):
    inner, outer = design.layers
    points = inner.points.copy()
    points[100] = -points[100]
    ws = WeightedPointSet(
        layers=(PointLayer(points, inner.denom, inner.weight, inner.r2), outer)
    )
    slabs = _slab_spy(monkeypatch)
    # the message of the per-entry labelling: the first off-list entry in row order
    with pytest.raises(
        RelationClassificationError,
        match=r"^inner product -80/200 in block \(0,0\) is outside the admissible set$",
    ):
        classify_pairs(ws)
    assert block_calls == []
    assert slabs == _slabs(275, 275)  # the other blocks are never read


def test_duplicate_is_named_before_an_earlier_off_list_value(design):
    # row 100 negated gives off-list dots from row 0 on; the duplicate of
    # row 5 at row 270 lies in the block's second slab
    inner, outer = design.layers
    points = inner.points.copy()
    points[100] = -points[100]
    points[270] = points[5]
    ws = WeightedPointSet(
        layers=(PointLayer(points, inner.denom, inner.weight, inner.r2), outer)
    )
    with pytest.raises(
        RelationClassificationError, match=r"^duplicate point: off-diagonal pair at full norm$"
    ):
        classify_pairs(ws)


def test_verify_coherent_makes_no_block_stats_and_each_blocks_slabs_once(
    design, block_calls, monkeypatch, tmp_path
):
    slabs = _slab_spy(monkeypatch)
    report = VerificationReport(name="coherent")
    verify_coherent_claims(WeightedPointSet(layers=design.layers), report, tmp_path)
    assert report.passed
    assert block_calls == []
    assert slabs == _slabs(275, 275) + _slabs(275, 2025) + _slabs(2025, 2025)
