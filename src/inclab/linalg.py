"""Exact linear algebra over the rationals.

Matrices are lists of rows of exact numbers (``int`` or ``Fraction``).  No
floating point appears anywhere in this module; every rank, solution, and
nullspace is exact.  Elimination is fraction-free: :func:`integer_rref`
scales each row to integers once (a row of ``int``s only to its primitive
form) and eliminates on Python integers, and ``Fraction``s are built only
from its final rows.  Inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = list[int | Fraction]
Matrix = list[Row]


def integer_rref(matrix: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of ``matrix``.

    Each row is scaled once to a primitive integer row with the same
    solution set; elimination then runs on Python integers only, and every
    updated row is divided by the gcd of its entries, so entries stay small.
    Returns ``(rows, pivots)``: one nonzero integer row per pivot column, in
    order, where ``rows[i]`` is an integer multiple of the ``i``-th row of
    the RREF (nonzero at ``pivots[i]``, zero at every other pivot column).
    Zero rows of the RREF are left out.
    """
    rows = [row for row in map(_integer_row, matrix) if any(row)]
    n_cols = len(matrix[0]) if matrix else 0
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            a = row[c]
            if i == r or not a:
                continue
            g = gcd(a, p)
            fp, fa = p // g, a // g
            new = [fp * x - fa * y for x, y in zip(row, prow)]
            h = gcd(*new)
            rows[i] = [x // h for x in new] if h > 1 else new
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _integer_row(row: Sequence) -> list[int]:
    """``row`` of exact numbers scaled by a positive rational to a primitive
    integer row; a row of ``int``s skips the denominator pass."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        scale = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(integer_rref(matrix)[1])


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
    rows, pivots = integer_rref([list(row) + [bi] for row, bi in zip(a, b)])
    return solve_rref(rows, pivots, n_cols)


def solve_rref(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], n_cols: int
) -> tuple[Row, Matrix] | None:
    """:func:`solve_affine` read off ``(rows, pivots)``, the
    :func:`integer_rref` of an augmented system ``[a | b]`` with ``n_cols``
    unknowns; no further elimination."""
    if n_cols in pivots:
        return None  # pivot in the constants column: inconsistent
    particular: Row = [0] * n_cols
    for row, c in zip(rows, pivots):
        particular[c] = Fraction(row[n_cols], row[c])
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis: Matrix = []
    for fc in free_cols:
        vec: Row = [0] * n_cols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return particular, basis


def nullspace(a: Sequence[Sequence[Fraction]]) -> Matrix:
    """Basis of ``{x : a @ x = 0}``, as a list of vectors."""
    return solve_affine(a, [0] * len(a))[1]


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
    coefficients: Sequence[Fraction | int], constant: Fraction | int
) -> tuple[tuple[int, ...], int | Fraction]:
    """Rescale one equation ``coefficients @ x = constant`` so the left side
    is a primitive, sign-canonical integer vector.  The constant is scaled
    by the same factor; it is returned as an ``int`` when integral and as a
    ``Fraction`` otherwise.  The zero row stays zero.

    With ``constant`` 0 this is the primitive integer representative of a
    rational direction, which spans the same hyperplane or line.
    """
    if all(type(x) is int for x in coefficients):
        scale, ints = 1, coefficients  # no denominators to clear
    else:
        scale = lcm(*(x.denominator for x in coefficients))
        ints = [x.numerator * (scale // x.denominator) for x in coefficients]
    g = gcd(*ints)
    if g == 0:
        g = 1  # the zero row: only the constant is scaled
    elif next(v for v in ints if v != 0) < 0:
        g = -g
    if g == 1 and scale == 1 and type(constant) is int:
        return tuple(ints), constant  # already primitive and sign-canonical
    num, den = constant.numerator * scale, constant.denominator * g
    offset = num // den if num % den == 0 else Fraction(num, den)
    return tuple(v // g for v in ints), offset
