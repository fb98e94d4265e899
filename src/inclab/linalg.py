"""Exact linear algebra over the rationals.

Matrices are lists of rows of exact numbers (``int`` or ``Fraction``).  No
floating point appears anywhere in this module; every rank, solution, and
nullspace is exact.  Elimination is fraction-free: :func:`integer_rref`
scales each row to integers once (a row of ``int``s only to its primitive
form) and eliminates on Python integers, and :func:`solve_rref` reads every
solution off its rows in integers, as integer vectors over one common
denominator.  Only :func:`integer_row_and_offset` builds a ``Fraction``, for
a rational offset; a caller builds one only where a public value needs it.
Inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


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
    ints, _ = clear_denominators(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else list(ints)


def clear_denominators(row: Sequence) -> tuple[Sequence[int], int]:
    """``(ints, q)`` with ``row == ints / q`` for the exact numbers in ``row``:
    ``q > 0`` is the lcm of their denominators, so ``ints`` and ``q`` have no
    common factor.  A row of ``int``s comes back as it is, with ``q`` 1."""
    if all(type(x) is int for x in row):
        return row, 1
    q = lcm(*(x.denominator for x in row))
    return [x.numerator * (q // x.denominator) for x in row], q


def rank(matrix: Sequence[Sequence]) -> int:
    return len(integer_rref(matrix)[1])


def solve_rref(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], n_cols: int
) -> tuple[list[int], int, list[list[int]]] | None:
    """The solutions of a system read in integers off ``(rows, pivots)``,
    the :func:`integer_rref` of its augmented matrix ``[a | b]`` with
    ``n_cols`` unknowns; no further elimination.

    Returns ``(point, q, directions)``, or ``None`` when the system is
    inconsistent.  ``q > 0`` is the lcm of the pivot entries (1 when there
    are none) and ``point / q`` is one solution.  There is one direction
    per free column, ``q`` there and 0 at the other free columns, so the
    ``direction / q`` are the basis of the solution set's directions that
    is the identity on the free columns.
    """
    if n_cols in pivots:
        return None  # pivot in the constants column: inconsistent
    q = lcm(*(row[c] for row, c in zip(rows, pivots)))
    scales = [(row, c, q // row[c]) for row, c in zip(rows, pivots)]
    point = [0] * n_cols
    for row, c, scale in scales:
        point[c] = row[n_cols] * scale
    pivot_set = set(pivots)
    directions = []
    for fc in (c for c in range(n_cols) if c not in pivot_set):
        vec = [0] * n_cols
        vec[fc] = q
        for row, c, scale in scales:
            vec[c] = -row[fc] * scale
        directions.append(vec)
    return point, q, directions


def nullspace(a: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """``(q, directions)``: the ``direction / q`` are a basis of
    ``{x : a @ x = 0}``, as :func:`solve_rref` reads it."""
    if not a:
        raise ValueError("empty system has no well-defined column count")
    rows, pivots = integer_rref(a)
    # the homogeneous system's constants column, appended after elimination
    _, q, directions = solve_rref([row + [0] for row in rows], pivots, len(a[0]))
    return q, directions


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
    ints, scale = clear_denominators(coefficients)
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
