"""Exact elimination cross-checked against minor-rank, substitution and a
Fraction Gauss-Jordan oracle."""

from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inclab import Flat, InvalidInput, linalg

from oracles import (determinant, fraction_row_echelon, fraction_solve_affine, minor_rank,
                     rref_nullspace)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rank(matrix):
    """The rank as the number of pivots of the integer kernel."""
    return len(linalg.integer_rref(matrix)[1])


def test_rank_small_cases():
    assert rank(frac_matrix([[1, 2], [2, 4]])) == 1
    assert rank(frac_matrix([[1, 0], [0, 1]])) == 2
    assert rank(frac_matrix([[0, 0], [0, 0]])) == 0


def test_rank_matches_minor_rank_on_random_matrices():
    rng = Random(20240817)
    for _ in range(120):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        assert rank(m) == minor_rank(m)


def test_solve_rref_substitutes_back():
    rng = Random(7)
    for _ in range(80):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n_rows)]
        augmented = [row + [bb] for row, bb in zip(a, b)]
        solved = linalg.solve_rref(*linalg.integer_rref(augmented), n_cols)
        if solved is None:
            # inconsistent: rank of [A|b] must exceed rank of A
            assert rank(augmented) > rank(a)
            continue
        point, q, directions = solved
        assert q > 0
        for row, bb in zip(a, b):
            assert sum(x * y for x, y in zip(row, point)) == bb * q
        for vec in directions:
            for row in a:
                assert sum(x * y for x, y in zip(row, vec)) == 0
        assert len(directions) == n_cols - rank(a)


def test_nullspace_dimension_and_membership():
    a = frac_matrix([[1, 2, 3], [2, 4, 6]])
    q, basis = rref_nullspace(a)
    assert len(basis) == 2 and q == 1
    assert [vec[1:] for vec in basis] == [[1, 0], [0, 1]]  # q at each free column
    for vec in basis:
        assert sum(x * y for x, y in zip(a[0], vec)) == 0


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
    # an integral offset comes back as an int, on the zero row too
    for coefficients, constant, offset in [
        ([Fraction(-2, 3), Fraction(4, 3)], Fraction(2, 3), -1),
        ([Fraction(0), Fraction(0)], Fraction(3), 3),
    ]:
        got = linalg.integer_row_and_offset(coefficients, constant)[1]
        assert got == offset and type(got) is int


@pytest.mark.parametrize("row, constant, expected", [
    ((1, -2, 0), 7, ((1, -2, 0), 7)),  # primitive, sign-canonical: unchanged
    ((0, 0, 0), 5, ((0, 0, 0), 5)),  # zero row: only the constant is scaled, by 1
    ((0, 0), Fraction(3, 2), ((0, 0), Fraction(3, 2))),
    ((0, -3, 1), 2, ((0, 3, -1), -2)),  # negative leading entry
    ((-2, 4), 6, ((1, -2), -3)),  # negative and non-primitive
    ((4, 6), 3, ((2, 3), Fraction(3, 2))),  # non-primitive: the offset halves
    ((4, 6), 8, ((2, 3), 4)),
    ((1, 2), Fraction(7, 2), ((1, 2), Fraction(7, 2))),  # Fraction constants
    ((-4, 6), Fraction(2, 3), ((2, -3), Fraction(-1, 3))),
    ((6, 9), Fraction(3, 2), ((2, 3), Fraction(1, 2))),
    # a rational row with an int constant still scales the constant
    ((Fraction(3, 2), 0, 0, 1), 3, ((3, 0, 0, 2), 6)),
])
def test_integer_rows_keep_their_canonical_form(row, constant, expected):
    got = linalg.integer_row_and_offset(row, constant)
    assert got == expected
    assert all(type(a) is int for a in got[0])
    assert type(got[1]) is type(expected[1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.one_of(st.integers(-9, 9), st.fractions(max_denominator=6)))
def test_integer_rows_match_their_fraction_form(row, constant):
    # an all-int row skips the denominator pass; the result, and the type
    # of the offset, are those of the same row given as Fractions
    got = linalg.integer_row_and_offset(row, constant)
    want = linalg.integer_row_and_offset([Fraction(a) for a in row], constant)
    assert got == want and type(got[1]) is type(want[1])


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(2**62 - 2, 2**62 + 2),
    st.integers(-(2**70), 2**70),
).map(Fraction)


@st.composite
def systems(draw):
    """``(a, b)``: 1-4 drawn rows of width 1-5 plus up to two derived rows
    (a zero row, a duplicate, or a combination of two rows), in shuffled
    order.  A derived row's right side is either the consistent one or off
    by one, which makes the system inconsistent."""
    width = draw(st.integers(1, 5))
    row = st.lists(ENTRIES, min_size=width, max_size=width)
    a = draw(st.lists(row, min_size=1, max_size=4))
    b = draw(st.lists(ENTRIES, min_size=len(a), max_size=len(a)))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "combo"]), max_size=2)):
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        x, y = draw(ENTRIES), draw(ENTRIES)
        if kind == "zero":
            new, c = [Fraction(0)] * width, Fraction(0)
        elif kind == "dup":
            new, c = list(a[i]), b[i]
        else:
            new = [x * u + y * v for u, v in zip(a[i], a[j])]
            c = x * b[i] + y * b[j]
        a.append(new)
        b.append(c + draw(st.sampled_from([0, 0, 1])))
    order = draw(st.permutations(range(len(a))))
    return [a[k] for k in order], [b[k] for k in order]


def _over_q(solved):
    """``(point / q, [direction / q, ...])`` of a :func:`linalg.solve_rref`
    result, after checking that ``q > 0`` and that every entry is an ``int``;
    ``None`` stays ``None``."""
    if solved is None:
        return None
    point, q, directions = solved
    assert type(q) is int and q > 0
    assert all(type(x) is int for v in [point, *directions] for x in v)
    return [Fraction(x, q) for x in point], [[Fraction(x, q) for x in v] for v in directions]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(systems())
def test_integer_kernel_matches_the_fraction_oracle(system):
    a, b = system
    width = len(a[0])
    augmented = [row + [c] for row, c in zip(a, b)]
    rows, pivots = linalg.integer_rref(augmented)
    red, oracle_pivots = fraction_row_echelon(augmented)
    assert pivots == oracle_pivots
    for row, c, ref in zip(rows, pivots, red):  # integer multiples of the RREF rows
        assert all(type(x) is int for x in row)
        assert [Fraction(x, row[c]) for x in row] == ref
    # the reader's integer solution, divided by its q, is the oracle's
    assert _over_q(linalg.solve_rref(rows, pivots, width)) == fraction_solve_affine(a, b)
    q, directions = rref_nullspace(a)
    assert _over_q(([0] * width, q, directions)) == fraction_solve_affine(a, [0] * len(a))
    rank_a = minor_rank(a)
    assert rank(a) == rank_a
    if minor_rank(augmented) > rank_a:
        with pytest.raises(InvalidInput):
            Flat(width, a, b)
    else:
        assert Flat(width, a, b).dim == width - rank_a



@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), min_size=1, max_size=6),
       st.integers(-6, 6).filter(bool))
def test_int_rows_skip_the_denominator_pass_with_the_same_result(row, factor):
    # zero rows, negative leads and non-primitive rows (scaled by factor)
    # come out as they do when the same row is given as Fractions
    scaled = [factor * x for x in row]
    for ints in (row, scaled, tuple(scaled)):
        got = linalg._integer_row(ints)
        assert got == linalg._integer_row([Fraction(x) for x in ints])
        assert type(got) is list and all(type(x) is int for x in got)


@st.composite
def minor_stacks(draw):
    """An (N, k, d) integer stack, d 1 to 6 and k 1 to d + 1, of one entry
    scale: small, up to 10^6, or up to 2^31, where the products of the
    rows' 1-norms fall on either side of 2^62; a matrix may have a zero
    column or a row that is a multiple of another."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, d + 1))
    scale = draw(st.sampled_from((3, 10**6, 2**31)))
    entry = st.integers(-scale, scale)
    stack = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=k, max_size=k))
        kind = draw(st.sampled_from(("plain", "zero column", "dependent")))
        if kind == "zero column":
            column = draw(st.integers(0, d - 1))
            for row in m:
                row[column] = 0
        elif kind == "dependent" and k > 1:
            m[-1] = [draw(st.integers(-2, 2)) * x for x in m[0]]
        stack.append(m)
    return stack


def _assert_kernel_matches_the_oracles(stack):
    """Every minor is the cofactor determinant of its column set, the rank
    test is the elimination kernel's, and every matrix of full row rank has
    the nullspace of the elimination kernel."""
    k, d = len(stack[0]), len(stack[0][0])
    minors = linalg.maximal_minors(np.array(stack))
    full = linalg.full_row_rank(np.array(stack))
    q, directions, deficient = linalg.nullspaces(np.array(stack))
    for j, m in enumerate(stack):
        assert minors[j].tolist() == [
            determinant([[row[c] for c in cols] for row in m])
            for cols in combinations(range(d), k)]
        assert bool(full[j]) == (not deficient[j]) == (rank(m) == k)
        if not deficient[j]:
            assert (int(q[j]), directions[j].tolist()) == rref_nullspace(m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(minor_stacks())
def test_minors_kernel_matches_the_oracles(stack):
    _assert_kernel_matches_the_oracles(stack)


@pytest.mark.parametrize("stack, dtype", [
    ([[[2**31 - 1, 1], [2**31 - 1, -1]]], np.int64),  # 1-norms multiply to 2^62
    ([[[2**31, 1], [2**31, -1]]], object),  # just past it
    ([[[2**32, 2**32], [2**32, 2**32 - 1]]], object),  # its products overflow int64
    ([[[2**31 - 1, 1, 0], [0, 2**31 - 1, 1]], [[1, 2, 3], [2, 4, 6]]], np.int64),
    ([[[2**31, 1, 0], [0, 2**31 - 1, 1]], [[0, 0, 3], [0, 0, 6]]], object),
    # a zero row makes the 1-norms' product 0, which bounds no entry
    ([[[0, 0, 0], [0, 0, 2**63]]], object),
    ([[[0, 0], [2**62, 1]], [[1, 1], [1, 1]]], object),
])
def test_minors_kernel_across_the_int64_bound(stack, dtype):
    # within 2^62 the levels run in int64, past it on Python ints, and the
    # minors and nullspaces are exact either way
    assert linalg.maximal_minors(np.array(stack, dtype=object)).dtype == dtype
    _assert_kernel_matches_the_oracles(stack)
