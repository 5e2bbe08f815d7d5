import random
from fractions import Fraction

import pytest

from leechdesign.arith import (
    SingularMatrixError,
    rat_from_text,
    rat_to_text,
    rational_linear_solve,
    rational_matrix_inverse,
)


def test_text_round_trip():
    assert rat_from_text(rat_to_text(Fraction(-7, 3))) == Fraction(-7, 3)


def test_gram_solve_examples():
    m = [[Fraction(4), Fraction(-1)], [Fraction(-1), Fraction(4)]]
    assert rational_linear_solve(m, [Fraction(3), Fraction(-3)]) == [Fraction(3, 5), Fraction(-3, 5)]
    assert rational_linear_solve(m, [Fraction(2), Fraction(0)]) == [Fraction(8, 15), Fraction(2, 15)]
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert rational_linear_solve(eye, [Fraction(9), Fraction(-2)]) == [Fraction(9), Fraction(-2)]


def test_solve_compose_identity():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        try:
            x = rational_linear_solve(m, rhs)
        except SingularMatrixError:
            continue
        back = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert back == rhs


def test_singular_matrix_reports_rank():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularMatrixError) as err:
        rational_linear_solve(m, [Fraction(1), Fraction(1)])
    assert err.value.rank == 1


def test_matrix_inverse_exact():
    m = [[Fraction(4), Fraction(-1)], [Fraction(-1), Fraction(4)]]
    inv = rational_matrix_inverse(m)
    assert inv == [[Fraction(4, 15), Fraction(1, 15)], [Fraction(1, 15), Fraction(4, 15)]]
