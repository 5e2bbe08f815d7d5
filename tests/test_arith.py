import random
from fractions import Fraction

import pytest

from coset_reference import (
    NotPositiveDefiniteError,
    det_rational,
    hnf_coordinates,
    hnf_rows,
    ldl_solve,
    rational_cholesky,
)
from leechdesign.arith import rat_from_text, rat_to_text
from leechdesign.lattice.intlinalg import adjugate


def test_text_round_trip():
    assert rat_from_text(rat_to_text(Fraction(-7, 3))) == Fraction(-7, 3)


def test_gram_solve_examples():
    ldl = rational_cholesky([[4, -1], [-1, 4]])
    assert ldl_solve(ldl, [3, -3]) == [Fraction(3, 5), Fraction(-3, 5)]
    assert ldl_solve(ldl, [2, 0]) == [Fraction(8, 15), Fraction(2, 15)]
    assert ldl_solve(rational_cholesky([[1, 0], [0, 1]]), [9, -2]) == [9, -2]


def test_solve_compose_identity():
    # G = A^T A + I is symmetric positive definite; G x = rhs must hold exactly
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        g = [
            [sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        x = ldl_solve(rational_cholesky(g), rhs)
        assert [sum(g[i][j] * x[j] for j in range(n)) for i in range(n)] == rhs


def test_singular_matrix_reports_rank():
    # rank 1: the LDL^T stops at the second pivot, which is 0
    with pytest.raises(NotPositiveDefiniteError, match="pivot 1 is 0"):
        rational_cholesky([[1, 2], [2, 4]])


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_adjugate_examples():
    assert adjugate([[4, -1], [-1, 4]]) == ([[4, 1], [1, 4]], 15)
    assert adjugate([[0, 1], [1, 0]]) == ([[0, -1], [-1, 0]], -1)  # a pivot swap
    assert adjugate([[1, 2], [2, 4]]) == (None, 0)


def test_adjugate_of_random_integer_matrices():
    # adj M M = M adj M = det M I, with det M from the rational reference;
    # the small entry range makes singular and pivot-swapping inputs common
    rng = random.Random(11)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        adj, det = adjugate(m)
        assert det == det_rational(m)
        if det == 0:
            assert adj is None
            singular += 1
            continue
        eye = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert _matmul(adj, m) == _matmul(m, adj) == eye
        if n > 1:  # a row swap flips the sign and swaps the adjugate's columns
            i, j = rng.sample(range(n), 2)
            swapped = list(m)
            swapped[i], swapped[j] = m[j], m[i]
            adj2, det2 = adjugate(swapped)
            assert det2 == -det
            assert [[-row[k] for k in range(n)] for row in adj2] == [
                [row[j] if k == i else row[i] if k == j else row[k] for k in range(n)]
                for row in adj
            ]
    assert 0 < singular < 300


def test_hnf_coordinates_inside_and_outside_the_lattice():
    rows = [[2, 4, 6, 0], [0, 3, 3, 3], [2, 7, 9, 3], [4, 2, 0, 0]]  # row 3 = row 1 + row 2
    # the HNF of [rows | I] carries its transform U in the right block
    hu = hnf_rows([r + [int(i == j) for j in range(4)] for i, r in enumerate(rows)])
    h, u = [r[:4] for r in hu], [r[4:] for r in hu]
    assert h == hnf_rows(rows)
    assert not any(h[-1])  # rank 3: the zero row sinks to the bottom
    vec = [sum(c * r[k] for c, r in zip((3, -2, 0, 5), rows)) for k in range(4)]
    y = hnf_coordinates(h, vec)
    assert y is not None and y[-1] == 0
    assert [sum(q * hr[k] for q, hr in zip(y, h)) for k in range(4)] == vec
    x = [sum(q * ur[i] for q, ur in zip(y, u)) for i in range(4)]
    assert [sum(c * r[k] for c, r in zip(x, rows)) for k in range(4)] == vec
    # the lattice has even first coordinates, and no vector outside the row
    # space is in it
    assert hnf_coordinates(h, [1, 0, 0, 0]) is None
    assert hnf_coordinates(h, [0, 0, 0, 1]) is None
