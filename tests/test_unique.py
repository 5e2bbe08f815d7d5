import dataclasses
import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from coset_reference import (
    enumerate_sphere,
    hnf_coordinates,
    hnf_rows,
    rational_cholesky,
    rows_as_set,
    sphere_coset_shell,
)
from leechdesign import io as design_io
from leechdesign.coherent import classify_pairs, compare_with_reference, intersection_numbers
from leechdesign.construct import exact_matmul, project_rows_scaled
from leechdesign.design import euclidean_strength
from leechdesign.lattice import A_CANONICAL, B_CANONICAL, CosetConstraint, EnumerationStats
from leechdesign.lattice.intlinalg import adjugate
from leechdesign.unique import (
    CANDIDATE_NORM,
    CUBE,
    UniquenessError,
    _cube_leaves,
    build_dual_frame,
    enumerate_candidates,
    _verify_candidates,
    generated_lattice_membership,
    split_candidates,
)


def test_integralized_layer(x1_integral):
    # the histogram reading agrees with the whole 275 x 275 lattice Gram matrix
    d = x1_integral.points @ x1_integral.points.T
    assert bool((d % 40 == 0).all())
    inner = d // 40
    assert bool((np.diag(inner) == 12).all())
    off = inner[~np.eye(275, dtype=bool)]
    assert set(np.unique(off).tolist()) == {2, -3}
    assert (x1_integral.norm, x1_integral.products) == (12, (2, -3))


def test_dual_frame_biorthogonality(dual_frame):
    # D G^-1 G = G D G^-1 = D I, in Python ints
    ginv, gram = dual_frame.ginv.tolist(), dual_frame.gram.tolist()
    eye = [[dual_frame.den * (i == j) for j in range(22)] for i in range(22)]
    for a, b in ((ginv, gram), (gram, ginv)):
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a] == eye


def test_dual_frame_gram_positive_definite(dual_frame):
    _, d = adjugate(dual_frame.gram.tolist())
    assert d == 3 * 5**21  # D = 15 is d over the gcd of d and adj G


def test_dual_frame_is_pinned(dual_frame):
    # the basis the swap descent reaches from the greedy start in row order,
    # and G^-1 in lowest terms over its common denominator
    assert dual_frame.basis_indices == (
        22, 23, 27, 24, 26, 28, 30, 29, 38, 9, 25, 78, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21
    )
    assert dual_frame.den == 15
    assert int(np.abs(dual_frame.ginv).max()) == 1476


def test_dual_frame_coefficients_reconstruct_points(x1_integral, dual_frame):
    assert bool(
        (dual_frame.coeffs @ dual_frame.basis_points == x1_integral.points).all()
    )


def test_dual_frame_basis_generates_the_shell_lattice(x1_integral, dual_frame):
    # equal row HNFs: the 22 chosen rows and all 275 generate one lattice
    def nonzero_hnf(rows):
        return [row for row in hnf_rows(rows) if any(row)]

    assert nonzero_hnf(dual_frame.basis_points) == nonzero_hnf(x1_integral.points)


@pytest.mark.parametrize("extra_first", [True, False], ids=["first", "last"])
def test_dual_frame_refuses_a_shell_of_rank_23(x1_integral, extra_first):
    # 5 a is orthogonal to every shell vector.  Taken first, it stays in the
    # basis and the descent over the other 21 rows cannot lower det G; taken
    # last, every coordinate over the basis is an integer, but the basis does
    # not reach 5 a.
    extra = 5 * A_CANONICAL[None]
    rows = [extra, x1_integral.points] if extra_first else [x1_integral.points, extra]
    layer = dataclasses.replace(x1_integral, points=np.concatenate(rows))
    match = "did not lower det G" if extra_first else "round trip failed"
    with pytest.raises(UniquenessError, match=match):
        build_dual_frame(layer)


def test_candidate_count_and_norms(candidates):
    assert candidates.vectors3.shape == (4050, 24)
    norms = (candidates.vectors3**2).sum(axis=1)
    assert bool((norms == int(CANDIDATE_NORM * 9 * 40)).all())


def test_candidate_coefficient_form(candidates):
    assert set(np.unique(candidates.dual_coeffs).tolist()) <= {-6, -1, 4}


def test_candidate_admissibility_full_shell(candidates, x1_integral):
    prods = candidates.vectors3 @ x1_integral.points.T
    vals = prods // 120
    assert bool((prods % 120 == 0).all())
    assert set(np.unique(vals).tolist()) <= {4, -1, -6}


def test_no_norm_leaf_fails_the_filter(candidates):
    # every vector of the right norm in the coefficient cube already
    # satisfies all 275 admissibility constraints
    assert candidates.stats.leaves == 4050
    assert candidates.rejected_leaves == 0


def test_candidate_search_output_is_pinned(tmp_path, candidates):
    # work counters and the exact candidate file of the canonical pair
    assert candidates.stats.nodes == 205836
    assert candidates.stats.leaves == candidates.stats.solutions == 4050
    assert candidates.rejected_leaves == 0
    path = tmp_path / "candidates.txt"
    design_io.write_candidates(path, candidates.vectors3)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9e7838f43abbc6353f1be6c1d94599a6dcca70b3f39e991b564d77bd1acd3feb"
    )


def _reference_cube_search(form, target):
    """The sorted u leaves and the node count of the general rational sphere
    search on the cube: with u = 5 c - 1 and c in {-1, 0, 1},
    u^T form u = (c - 1/5)^T (25 form) (c - 1/5)."""
    n = len(form)
    stats = EnumerationStats()
    leaves = enumerate_sphere(
        rational_cholesky([[25 * x for x in row] for row in form]),
        [Fraction(-1, 5)] * n,
        target,
        allowed=[(-1, 0, 1)] * n,
        stats=stats,
    )
    return sorted(tuple(5 * c - 1 for c in w) for w in leaves), stats.nodes


@pytest.fixture(scope="module")
def reference_leaves(dual_frame):
    # the canonical frame's search form 3 D G^-1 in its own (unsorted) order
    return _reference_cube_search((3 * dual_frame.ginv).tolist(), 44 * dual_frame.den)


def test_cube_search_agrees_with_brute_force_and_reference():
    # one target a random cube vector hits, and one between the form's
    # values on the cube that no cube vector hits; the reference also pins
    # the node count
    rng = np.random.default_rng(21)
    outcomes = []
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = rng.integers(-3, 4, size=(n, n))
        form = a.T @ a + np.eye(n, dtype=np.int64)
        cube = np.array(list(itertools.product(CUBE, repeat=n)))
        values = np.einsum("ij,jk,ik->i", cube, form, cube)
        missed = rng.choice(np.setdiff1d(np.arange(values.min(), values.max()), values))
        for target in (int(rng.choice(values)), int(missed)):
            stats = EnumerationStats()
            leaves = _cube_leaves(form.tolist(), target, stats)
            brute = sorted(map(tuple, cube[values == target].tolist()))
            assert sorted(leaves) == brute
            assert stats.leaves == len(brute)
            assert (sorted(leaves), stats.nodes) == _reference_cube_search(form.tolist(), target)
            outcomes.append(bool(brute))
    assert outcomes.count(True) == outcomes.count(False) == 20


def test_cube_search_refuses_a_form_that_is_not_positive_definite():
    with pytest.raises(UniquenessError, match="not positive definite \\(minor 2\\)"):
        _cube_leaves([[1, 2], [2, 4]], 5, EnumerationStats())


def test_cube_search_matches_the_reference_on_the_unsorted_form(dual_frame, reference_leaves):
    # the same nodes as the general search in the same level order: one
    # node definition; sorting the levels alone brings 773,264 to 205,836
    stats = EnumerationStats()
    leaves = _cube_leaves((3 * dual_frame.ginv).tolist(), 44 * dual_frame.den, stats)
    assert (sorted(leaves), stats.nodes) == reference_leaves
    assert (stats.nodes, stats.leaves) == (773264, 4050)


def test_filter_rejects_leaves_of_a_shifted_frame(dual_frame, x1_integral, reference_leaves):
    # Adding 5 to one coefficient keeps every coefficient sum 1 mod 5 but
    # moves that shell vector's admissible window, so some norm-passing
    # leaves must now fail the filter; the survivors are still candidates,
    # and they are the reference's leaves u with every u . coeffs_x admissible.
    coeffs = dual_frame.coeffs.copy()
    coeffs[0, 0] += 5
    shifted = dataclasses.replace(dual_frame, coeffs=coeffs)
    cands = enumerate_candidates(shifted, x1_integral)
    assert cands.rejected_leaves > 0
    assert cands.stats.leaves == 4050
    assert len(cands.vectors3) == cands.stats.solutions == 4050 - cands.rejected_leaves
    _verify_candidates(cands.vectors3, cands.dual_coeffs, x1_integral, dual_frame)
    u = np.array(reference_leaves[0], dtype=np.int64)
    admissible = u[np.isin(u @ coeffs.T, [4, -1, -6]).all(axis=1)]
    assert rows_as_set(cands.dual_coeffs) == rows_as_set(admissible)


def test_split_sizes_and_equivalence(split):
    assert split.part_a.shape == (2025, 24)
    assert split.part_b.shape == (2025, 24)
    assert not (rows_as_set(split.part_a) & rows_as_set(split.part_b))


def test_parts_disjoint_fails_on_a_copied_candidate(candidates, split, design):
    # The last part-B candidate becomes a copy of candidate 0: it is then
    # compatible with neither class row, so the parts no longer cover the
    # 4050 candidates and unique/parts-disjoint must fail.
    assert split.disjoint and split.covering
    vec = candidates.vectors3.copy()
    part_b = rows_as_set(split.part_b)
    last_b = max(i for i, row in enumerate(vec.tolist()) if tuple(row) in part_b)
    vec[last_b] = vec[0]
    broken = split_candidates(dataclasses.replace(candidates, vectors3=vec), design)
    assert not (broken.disjoint and broken.covering)
    assert sorted([len(broken.part_a), len(broken.part_b)]) == [2024, 2025]


@pytest.mark.parametrize("part", ["A", "B"])
def test_a_part_that_is_no_clique_is_refused(candidates, design, part):
    # The last candidate of the part becomes a multiple of a unit vector,
    # compatible with the part's first row (dot -120, normalized -1/44) but
    # not with a candidate that is zero at its coordinate (dot 0); for part
    # B it is not compatible with candidate 0 either.
    vec = candidates.vectors3.copy()
    dots = [1680, -120, -1920]
    in_a = np.isin(vec @ vec[0], dots)
    in_a[0] = True
    first = 0 if part == "A" else int(np.argmin(in_a))
    in_part = in_a if part == "A" else np.isin(vec @ vec[first], dots)
    last = int(np.flatnonzero(in_part)[-1])
    y = np.zeros(24, dtype=np.int64)
    for i, c in enumerate(vec[first].tolist()):
        if c and 120 % c == 0 and (part == "A" or -120 // c * vec[0, i] not in dots):
            y[i] = -120 // c
            break
    assert y @ vec[first] == -120 and last > first
    vec[last] = y
    with pytest.raises(UniquenessError, match=f"^compatibility is not transitive on part {part}$"):
        split_candidates(dataclasses.replace(candidates, vectors3=vec), design)


def test_the_split_holds_no_candidate_sized_block(candidates, design):
    # the compatibility relation of the 4050 candidates alone is 16 MB as
    # bools, and their int64 Gram 131 MB; the split reads 256-row slabs of
    # its parts' products
    tracemalloc.start()
    try:
        split_candidates(candidates, design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_part_a_is_the_constructed_second_shell(split, design):
    assert rows_as_set(split.part_a) == rows_as_set(design.layers[1].points)


def test_part_b_is_the_other_projected_coset(basis, split):
    shell = sphere_coset_shell(
        [CosetConstraint(A_CANONICAL, 0), CosetConstraint(B_CANONICAL, -2)], 4, basis
    )
    twin_pts = project_rows_scaled(shell, A_CANONICAL, B_CANONICAL, mult=15)
    assert rows_as_set(split.part_b) == rows_as_set(twin_pts)


def test_candidates_are_union_of_both_shells(candidates, split):
    both = rows_as_set(split.part_a) | rows_as_set(split.part_b)
    assert rows_as_set(candidates.vectors3) == both


def test_cross_part_products_disjoint_from_shell_set(split):
    shell_values = {Fraction(7, 22), Fraction(-1, 44), Fraction(-4, 11)}
    normalized = {v / CANDIDATE_NORM for v in split.cross_products}
    assert not (normalized & shell_values)


def test_twin_is_a_tight_6_design(twin):
    assert [layer.size for layer in twin.layers] == [275, 2025]
    conds = euclidean_strength(twin, 6)
    assert all(c.passed for c in conds)


def test_twin_tensor_matches_reference(twin):
    tensor = intersection_numbers(classify_pairs(twin))
    assert compare_with_reference(tensor) == []


def _reversed(layer):
    # the shell with its rows in reverse order: another basis for the descent
    return dataclasses.replace(layer, points=layer.points[::-1])


def test_basis_choice_does_not_change_candidates(x1_integral, candidates):
    layer2 = _reversed(x1_integral)
    cands2 = enumerate_candidates(build_dual_frame(layer2), layer2)
    assert bool((cands2.vectors3 == candidates.vectors3).all())


def test_two_bases_have_equal_gram_determinant(x1_integral, dual_frame):
    frame2 = build_dual_frame(_reversed(x1_integral))
    assert tuple(274 - i for i in frame2.basis_indices) != dual_frame.basis_indices
    d1 = adjugate(dual_frame.gram.tolist())[1]
    d2 = adjugate(frame2.gram.tolist())[1]
    assert d1 == d2  # both are bases of the same lattice


def test_literal_generated_lattice_membership_is_rare(dual_frame, candidates):
    # Read literally (5 e_i primal), the generated lattice contains almost
    # none of the candidates; the dual-basis reading contains all of them
    # by construction.  Recorded as data, not a claim.
    n = generated_lattice_membership(dual_frame, candidates.dual_coeffs)
    assert n == 1


def test_membership_congruence_matches_hnf_reference(dual_frame):
    # Rows 5 G m - k 1 are members by construction.  The same rows + e_1 are
    # not: 5 G m - k 1 = e_1 would need k = -1 and k = 0 mod 5 at the first
    # two entries.  Every count must equal the one from the generators' HNF.
    rng = np.random.default_rng(20)
    m = rng.integers(-3, 4, size=(40, 22))
    k = rng.integers(-4, 5, size=(40, 1))
    members = exact_matmul(m, 5 * dual_frame.gram) - k
    shifted = members.copy()
    shifted[:, 0] += 1
    h = hnf_rows([*(5 * dual_frame.gram).tolist(), [-1] * 22])

    def reference(rows):
        return sum(hnf_coordinates(h, u) is not None for u in rows.tolist())

    for rows, expect in ((members, 40), (shifted, 0), (np.concatenate([members, shifted]), 40)):
        assert generated_lattice_membership(dual_frame, rows) == reference(rows) == expect


def test_coefficient_sums_are_one_mod_five(dual_frame):
    sums = dual_frame.coeffs.sum(axis=1)
    assert bool(((sums - 1) % 5 == 0).all())


def test_swapped_negated_anchors_build_the_twin(design, twin):
    # the defining inner products of the two shells are symmetric under
    # (a, b) -> (-b, -a) with the second shell replaced by the companion
    # class, and the projection is unchanged; so rebuilding with the
    # swapped negated anchors must reproduce the twin configuration
    from leechdesign.construct import build_design

    rebuilt = build_design(-B_CANONICAL, -A_CANONICAL)
    assert rows_as_set(rebuilt.layers[0].points) == rows_as_set(design.layers[0].points)
    assert rows_as_set(rebuilt.layers[1].points) == rows_as_set(twin.layers[1].points)
