"""Exact elimination cross-checked against minor-rank and substitution."""

from fractions import Fraction
from random import Random

import pytest

from inclab import linalg

from oracles import minor_rank


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rank_small_cases():
    assert linalg.rank(frac_matrix([[1, 2], [2, 4]])) == 1
    assert linalg.rank(frac_matrix([[1, 0], [0, 1]])) == 2
    assert linalg.rank(frac_matrix([[0, 0], [0, 0]])) == 0


def test_rank_matches_minor_rank_on_random_matrices():
    rng = Random(20240817)
    for _ in range(120):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        assert linalg.rank(m) == minor_rank(m)


def test_solve_affine_substitutes_back():
    rng = Random(7)
    for _ in range(80):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n_rows)]
        solved = linalg.solve_affine(a, b)
        if solved is None:
            # inconsistent: rank of [A|b] must exceed rank of A
            assert linalg.rank([row + [bb] for row, bb in zip(a, b)]) > linalg.rank(a)
            continue
        particular, basis = solved
        for row, bb in zip(a, b):
            assert sum(x * y for x, y in zip(row, particular)) == bb
        for vec in basis:
            for row in a:
                assert sum(x * y for x, y in zip(row, vec)) == 0
        assert len(basis) == n_cols - linalg.rank(a)


def test_nullspace_dimension_and_membership():
    a = frac_matrix([[1, 2, 3], [2, 4, 6]])
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for vec in basis:
        assert sum(x * y for x, y in zip(a[0], vec)) == 0


def test_solve_square_unique_and_singular():
    a = frac_matrix([[1, 1], [1, -1]])
    assert linalg.solve_square(a, [Fraction(3), Fraction(1)]) == [
        Fraction(2),
        Fraction(1),
    ]
    singular = frac_matrix([[1, 1], [2, 2]])
    assert linalg.solve_square(singular, [Fraction(1), Fraction(2)]) is None
    assert linalg.solve_square(singular, [Fraction(1), Fraction(3)]) is None


def test_solve_square_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.solve_square([[Fraction(1), Fraction(2)]], [Fraction(1)])


def test_clear_denominators_primitive_and_sign():
    # with a zero constant, integer_row_and_offset is the primitive
    # sign-canonical integer direction of the row
    row = [Fraction(2, 3), Fraction(-4, 3), Fraction(0)]
    assert linalg.integer_row_and_offset(row, 0)[0] == (1, -2, 0)
    assert linalg.integer_row_and_offset([Fraction(-2), Fraction(4)], 0)[0] == (1, -2)
    assert linalg.integer_row_and_offset([Fraction(0), Fraction(0)], 0)[0] == (0, 0)


def test_integer_row_and_offset_scales_consistently():
    row, c = linalg.integer_row_and_offset(
        [Fraction(-2, 3), Fraction(4, 3)], Fraction(5, 6)
    )
    assert row == (1, -2)
    assert c == Fraction(-5, 4)
    # the rescaled equation defines the same solution set
    # -2/3 x + 4/3 y = 5/6  <=>  x - 2 y = -5/4
    x, y = Fraction(1), Fraction(9, 8)
    assert Fraction(-2, 3) * x + Fraction(4, 3) * y == Fraction(5, 6)
    assert row[0] * x + row[1] * y == c
