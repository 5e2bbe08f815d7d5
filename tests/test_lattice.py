import hashlib

import numpy as np
import pytest

from conftest import A_ALTERNATE, B_ALTERNATE
from coset_reference import (
    InfeasibleCosetError,
    coset_setup,
    enumerate_sphere,
    rational_cholesky,
    reduce_basis_rows,
    rows_as_set,
    shell_size,
    sphere_coset_shell,
)
from golay_reference import golay_by_loop
import leechdesign.lattice as lattice
from leechdesign.lattice import (
    A_CANONICAL,
    B_CANONICAL,
    CosetConstraint,
    EnumerationStats,
    LeechConstructionError,
    build_golay,
    canonical_sort,
    distinct_rows,
    enumerate_coset_shell,
    membership_mask,
    norm4_blocks,
    norm4_shell,
    conventional_inner,
    same_row_set,
)
from leechdesign.lattice.intlinalg import adjugate


def test_golay_weight_distribution(ctx):
    assert ctx.code.weight_counts == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_golay_equals_the_word_by_word_construction():
    generator, codewords, words, counts = golay_by_loop()
    code = build_golay()
    for got, want in ((code.generator, generator), (code.codewords, codewords),
                      (code.words, words)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert code.weight_counts == counts
    for w in counts:
        assert code.masks_of_weight(w).tolist() == [
            m for m in codewords.tolist() if m.bit_count() == w
        ]


def test_golay_contains_zero_and_all_ones(ctx):
    words = set(ctx.code.codewords.tolist())
    assert 0 in words
    assert (1 << 24) - 1 in words


def test_golay_octad_count(ctx):
    assert len(ctx.code.masks_of_weight(8)) == 759


def test_membership_examples(ctx):
    rows = np.array(
        [
            [4, 4] + [0] * 22,
            [-3] + [1] * 23,
            [1] + [0] * 23,
            # sum condition: all-even, codeword zero, but sum = 4 != 0 mod 8
            [4] + [0] * 23,
        ]
    )
    assert membership_mask(rows, ctx.code).tolist() == [True, True, False, False]


def test_conventional_inner_examples(ctx):
    assert conventional_inner(A_CANONICAL, A_CANONICAL) == 4
    assert conventional_inner(A_CANONICAL, B_CANONICAL) == -1
    zero = np.zeros(24, dtype=np.int64)
    assert conventional_inner(zero, zero) == 0


def test_row_sets_compare_sorted_distinct_rows():
    a = np.array([[1, 2], [0, 5], [1, 2], [-3, 0]], dtype=np.int64)
    assert distinct_rows(a).tolist() == [[-3, 0], [0, 5], [1, 2]]
    assert same_row_set(a, a[1:])  # order and repeats are ignored
    assert not same_row_set(a, a[:2])
    assert distinct_rows(a[:0]).shape == (0, 2)


def test_basis_determinant(basis):
    assert abs(adjugate(basis.tolist())[1]) == 8**12


def test_shell_sizes(ctx):
    assert shell_size(4, ctx.code) == 196560
    assert shell_size(6, ctx.code) == 16773120
    assert shell_size(2, ctx.code) == 0


def test_norm4_shell_matches_count_and_membership(ctx):
    shell = norm4_shell(ctx.code)
    assert shell.dtype == np.int64 and shell.shape == (196560, 24)
    # the benchmark draws its seeded anchor pairs from this array
    assert hashlib.sha256(shell.tobytes()).hexdigest() == (
        "2e498b4aba3af5ec1cc1e55c0b9ef571b86365ff67ad63bf0c028249b815aaeb"
    )
    assert bool(((shell**2).sum(axis=1) == 32).all())
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(shell), 2000)
    assert bool(membership_mask(shell[idx], ctx.code).all())


def test_closure_on_random_pairs(ctx):
    shell = norm4_shell(ctx.code)
    rng = np.random.default_rng(42)
    i = rng.integers(0, len(shell), 1000)
    j = rng.integers(0, len(shell), 1000)
    sums = shell[i] + shell[j]
    assert bool(membership_mask(sums, ctx.code).all())


def test_norm4_blocks_are_small_chunks_of_the_shell(ctx):
    # the coset filter holds one chunk at a time, never the whole shell
    sizes = [len(block) for block in norm4_blocks(ctx.code)]
    assert max(sizes) <= 4096
    assert sum(sizes) == 196560


@pytest.fixture(scope="module")
def x2_shell(ctx):
    return enumerate_coset_shell(
        [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)], 4
    )


def test_coset_enumeration_size_and_contracts(ctx, x2_shell):
    assert x2_shell.shape[0] == 2025
    assert bool(membership_mask(x2_shell, ctx.code).all())
    assert bool(((x2_shell**2).sum(axis=1) == 32).all())
    assert bool((x2_shell @ A_CANONICAL == 16).all())
    assert bool((x2_shell @ B_CANONICAL == 0).all())


def test_coset_enumeration_matches_shape_filter_oracle(ctx, x2_shell):
    shell = norm4_shell(ctx.code)
    keep = (shell @ A_CANONICAL == 16) & (shell @ B_CANONICAL == 0)
    oracle = canonical_sort(shell[keep])
    assert oracle.shape == x2_shell.shape
    assert bool((oracle == x2_shell).all())


def test_coset_enumeration_deterministic_and_thread_independent(ctx, x2_shell):
    again = enumerate_coset_shell(
        [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)], 4
    )
    assert bool((again == x2_shell).all())


def test_infeasible_constraints_reported_distinctly(ctx, basis):
    double_a = 2 * A_CANONICAL
    assert bool(membership_mask(double_a.reshape(1, -1), ctx.code).all())
    with pytest.raises(InfeasibleCosetError):
        sphere_coset_shell([CosetConstraint(double_a, 1)], 4, basis)


def test_feasible_but_empty_shell_returns_empty():
    # (x, A) = 4 with norm 4 forces x = A by Cauchy-Schwarz (equality);
    # adding (x, B) = 0 contradicts (A, B) = -1, so the coset has no
    # norm-4 vector, while the constraint system itself is feasible.
    out = enumerate_coset_shell(
        [CosetConstraint(A_CANONICAL, 4), CosetConstraint(B_CANONICAL, 0)], 4
    )
    assert out.shape[0] == 0


def test_anchor_dependence_guard(basis):
    with pytest.raises(ValueError):
        sphere_coset_shell(
            [CosetConstraint(A_CANONICAL, 2), CosetConstraint(2 * A_CANONICAL, 4)],
            4,
            basis,
        )


def test_coset_shell_rejects_unsupported_norms():
    pair = [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)]
    for norm in (2, 6, 8, "9/2"):
        with pytest.raises(ValueError, match="norm 4 only"):
            enumerate_coset_shell(pair, norm)


# first anchor pair of seed 1 in the benchmark inputs: a capped reducer left
# a norm-224 row in its (3, -3) kernel
SEED1_A = np.array([0, 0, 0, 0, 0, -2, -2, -2, 0, 0, 0, 0, -2, -2, 2, 0, 0, 0, 2, 0, 0, 0, -2, 0])
SEED1_B = np.array([0, 0, 0, 0, 0, 2, -2, 2, 2, 0, -2, 0, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 2, -2])


def _exact_gram_schmidt(rows):
    """mu_ij and |b*_i|^2 of integer rows, in Fractions."""
    from fractions import Fraction

    gram = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in rows] for u in rows]
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar_sq = []
    for i in range(n):
        for j in range(i):
            # <b_i, b*_j> = <b_i, b_j> - sum_{k<j} mu_jk <b_i, b*_k>
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * bstar_sq[k] for k in range(j))) / bstar_sq[j]
        bstar_sq.append(gram[i][i] - sum(mu[i][k] ** 2 * bstar_sq[k] for k in range(i)))
    return mu, bstar_sq


@pytest.mark.parametrize(
    "a, b", [(A_CANONICAL, B_CANONICAL), (SEED1_A, SEED1_B)], ids=["canonical", "seed1"]
)
@pytest.mark.parametrize("values", [(3, -3), (2, 0)])
def test_reduced_kernel_rows_are_an_lll_basis_of_norm_32(basis, a, b, values):
    from fractions import Fraction

    cons = [CosetConstraint(a, values[0]), CosetConstraint(b, values[1])]
    _, k_rows = coset_setup(cons, basis)
    out = reduce_basis_rows(k_rows)
    assert out.shape == k_rows.shape == (22, 24)
    k = [list(map(int, r)) for r in k_rows]
    r = [list(map(int, row)) for row in out]

    # same lattice: each output row is an integer combination of the input
    # rows (U = R K^T (K K^T)^-1 = R K^T adj / det is integral), and the Gram
    # determinants agree
    gram_k = [[sum(x * y for x, y in zip(u, v)) for v in k] for u in k]
    gram_r = [[sum(x * y for x, y in zip(u, v)) for v in r] for u in r]
    adj, det = adjugate(gram_k)
    for row in r:
        prods = [sum(x * y for x, y in zip(row, v)) for v in k]
        coeffs = [sum(p * adj[i][j] for i, p in enumerate(prods)) for j in range(22)]
        assert all(c % det == 0 for c in coeffs)
    assert adjugate(gram_r)[1] == det

    mu, bstar_sq = _exact_gram_schmidt(r)
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(22) for j in range(i))
    assert all(
        bstar_sq[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * bstar_sq[i - 1]
        for i in range(1, 22)
    )
    assert all(sum(x * x for x in row) == 32 for row in r)


# (value against a, value against b, norm) of every coset shell the
# pipeline reads: the inner and outer shells, the four Y families and the
# uniqueness twin
COSET_KEYS = [(-1, -2, 4), (2, 0, 4), (2, 1, 4), (2, -1, 4), (2, -2, 4), (0, -2, 4)]


@pytest.mark.parametrize(
    "a, b",
    [(A_CANONICAL, B_CANONICAL), (A_ALTERNATE, B_ALTERNATE), (SEED1_A, SEED1_B)],
    ids=["canonical", "alternate", "seed1"],
)
@pytest.mark.parametrize("key", COSET_KEYS, ids=lambda k: f"{k[0]},{k[1]}@{k[2]}")
def test_coset_filter_matches_sphere_reference(basis, a, b, key):
    va, vb, norm = key
    cons = [CosetConstraint(a, va), CosetConstraint(b, vb)]
    stats = EnumerationStats()
    shell = enumerate_coset_shell(cons, norm, stats=stats)
    reference = sphere_coset_shell(cons, norm, basis)
    assert shell.dtype == np.int64 and len(shell) in (275, 2025)
    assert np.array_equal(shell, reference)
    assert (stats.nodes, stats.solutions) == (0, len(shell))


@pytest.mark.slow
def test_unconstrained_enumeration_matches_shell_size(ctx, basis):
    shell = sphere_coset_shell([], 4, basis)
    assert shell.shape[0] == shell_size(4, ctx.code)
    assert rows_as_set(shell) == rows_as_set(norm4_shell(ctx.code))


def _random_spd_form(rng, n):
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    # A^T A + I: positive definite with min eigenvalue >= 1, so any
    # solution satisfies |w_i| <= sqrt(target) + |shift_i|
    return [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def test_sphere_search_agrees_with_brute_force():
    import itertools
    import math
    import random
    from fractions import Fraction

    rng = random.Random(2024)
    for _ in range(15):
        n = rng.randint(1, 3)
        gram = _random_spd_form(rng, n)
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        w0 = [rng.randint(-2, 2) for _ in range(n)]
        y = [Fraction(w0[i]) + shift[i] for i in range(n)]
        target = sum(y[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
        sols = set(enumerate_sphere(rational_cholesky(gram), shift, target))
        bound = math.isqrt(int(target)) + 5
        brute = set()
        for w in itertools.product(range(-bound, bound + 1), repeat=n):
            y = [Fraction(w[i]) + shift[i] for i in range(n)]
            q = sum(y[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
            if q == target:
                brute.add(w)
        assert tuple(w0) in brute
        assert sols == brute


@pytest.mark.parametrize(
    "gram, shift, target, expected",
    [
        # 3 w^2 = 12: both solutions sit on the bound of the only level
        ([[3]], [0], 12, [(-2,), (2,)]),
        # 3 (w + 1/3)^2 = 16/3: w = 1 on the upper end, -5/3 is not integral
        ([[3]], ["1/3"], "16/3", [(1,)]),
        # 2 (y0 + y1/2)^2 + 3/2 y1^2 with y = w + (1/2, 0) and target 3/2:
        # the only solutions put the whole radius on the top level
        ([[2, 1], [1, 2]], ["1/2", 0], "3/2", [(-1, 1), (0, -1)]),
    ],
)
def test_sphere_search_finds_solutions_exactly_on_the_bound(gram, shift, target, expected):
    from fractions import Fraction

    shift = [Fraction(x) for x in shift]
    assert enumerate_sphere(rational_cholesky(gram), shift, Fraction(target)) == expected


def test_sphere_search_with_allowed_sets_agrees_with_brute_force():
    # the setting in which it is the cube search's reference: a shift of
    # -1/5 and a finite allowed set per coordinate, which excludes
    # solutions outside it
    import itertools
    import random
    from fractions import Fraction

    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 4)
        gram = _random_spd_form(rng, n)
        shift = [Fraction(-1, 5)] * n
        allowed = [tuple(sorted(rng.sample([-2, -1, 0, 1, 2], 3))) for _ in range(n)]
        w0 = [rng.choice(allowed[i]) for i in range(n)]
        y = [Fraction(w0[i]) + shift[i] for i in range(n)]
        target = sum(y[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
        brute = []
        for w in itertools.product(*allowed):
            y = [Fraction(w[i]) + shift[i] for i in range(n)]
            q = sum(y[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
            if q == target:
                brute.append(w)
        stats = EnumerationStats()
        sols = enumerate_sphere(
            rational_cholesky(gram), shift, target, allowed=allowed, stats=stats
        )
        assert tuple(w0) in brute
        assert sols == sorted(brute)
        assert stats.leaves == stats.solutions == len(brute)


def test_a_repeated_minimal_vector_is_a_duplicate_point(ctx, monkeypatch):
    # every chunk twice: each point of the shell comes back twice, and passes
    # the norm, constraint and membership checks
    blocks = norm4_blocks

    def twice(code):
        for block in blocks(code):
            yield block
            yield block

    monkeypatch.setattr(lattice, "norm4_blocks", twice)
    with pytest.raises(LeechConstructionError, match="^duplicate points in enumeration$"):
        enumerate_coset_shell(
            [CosetConstraint(A_CANONICAL, 2), CosetConstraint(B_CANONICAL, 0)], 4
        )


def test_coset_filter_refuses_an_anchor_past_the_float_bound(ctx, monkeypatch):
    # 24 * 4 * 2^48 = 1.5 * 2^54: the float64 filter could round
    def no_products(code):
        raise AssertionError("a product ran before the bound was checked")
        yield

    monkeypatch.setattr(lattice, "norm4_blocks", no_products)
    with pytest.raises(ValueError, match="not below 2\\^53"):
        enumerate_coset_shell([CosetConstraint(2**48 * A_CANONICAL // 4, 0)], 4)
