"""Exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of ``fractions.Fraction``.  No
floating point appears anywhere in this module; every rank, solution, and
nullspace is exact.  Inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]

ZERO = Fraction(0)
ONE = Fraction(1)


def row_echelon(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of a copy of ``matrix``.

    Returns the RREF and the list of pivot column indices (one per nonzero
    row, in order).
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    _, pivots = row_echelon(matrix)
    return len(pivots)


def solve_affine(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Row, Matrix] | None:
    """Solve ``a @ x = b`` exactly, with one elimination of ``[a | b]``.

    Returns ``(particular, nullspace_basis)`` where ``particular`` is one
    solution and ``nullspace_basis`` spans the solution set's directions,
    or ``None`` when the system is inconsistent.  The basis has
    ``len(a[0]) - rank(a)`` vectors.
    """
    if not a:
        raise ValueError("empty system has no well-defined column count")
    n_cols = len(a[0])
    red, pivots = row_echelon([list(row) + [bi] for row, bi in zip(a, b)])
    if n_cols in pivots:
        return None  # pivot in the constants column: inconsistent
    particular: Row = [ZERO] * n_cols
    for i, c in enumerate(pivots):
        particular[c] = red[i][n_cols]
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis: Matrix = []
    for fc in free_cols:
        vec: Row = [ZERO] * n_cols
        vec[fc] = ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return particular, basis


def nullspace(a: Sequence[Sequence[Fraction]]) -> Matrix:
    """Basis of ``{x : a @ x = 0}``, as a list of vectors."""
    return solve_affine(a, [ZERO] * len(a))[1]


def solve_square(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Row | None:
    """Unique solution of a square system, or ``None`` when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    result = solve_affine(a, b)
    if result is None:
        return None
    particular, basis = result
    if basis:
        return None  # underdetermined counts as singular here
    return particular


def integer_row_and_offset(
    coefficients: Sequence[Fraction], constant: Fraction
) -> tuple[tuple[int, ...], Fraction]:
    """Rescale one equation ``coefficients @ x = constant`` so the left side
    is a primitive, sign-canonical integer vector.  The constant is scaled
    by the same factor and may remain rational.  The zero row stays zero.

    With ``constant`` 0 this is the primitive integer representative of a
    rational direction, which spans the same hyperplane or line.
    """
    lcm = 1
    for x in coefficients:
        lcm = lcm // gcd(lcm, x.denominator) * x.denominator
    ints = [x.numerator * (lcm // x.denominator) for x in coefficients]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints), Fraction(constant) * lcm
    if next(v for v in ints if v != 0) < 0:
        g = -g
    c = Fraction(constant)
    return tuple(v // g for v in ints), Fraction(c.numerator * lcm, c.denominator * g)
