"""Exact linear algebra over the rationals.

Matrices are lists of rows of exact numbers (``int`` or ``Fraction``), and
every rank, solution, and nullspace is exact.  A float64 array only ever
holds integers below 2^53, never a rounded value: :func:`_exact_dtype`,
the one rule of integer dtypes, picks it only for such a proved bound.
Elimination is fraction-free: :func:`integer_rref` scales each row to
integers once (a row of ``int``s only to its primitive form) and
eliminates on Python integers, and :func:`solve_rref` reads every solution
and :func:`affine_hull` a point set's affine hull off its rows in
integers, as integer vectors over one common denominator.  Only
:func:`integer_row_and_offset` builds a ``Fraction``, for a rational
offset; a caller builds one only where a public value needs it.
Inputs are never mutated.

Stacks of N integer matrices of one shape (N, k, d) take a batched kernel
with no elimination and no division: :func:`maximal_minors` builds their
k x k minors by Laplace expansion, in int64 under a proved bound and on
Python ints past it, at a cost that grows with C(d, k) per matrix.
:func:`full_row_rank` and :func:`nullspaces` read the rank test and
every nullspace of the library off those minors, most matrices off only
the minors on their first k columns and its neighbours.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

_FLOAT_EXACT = 2**53  # float64 holds every integer within it exactly
_INT64_SAFE = 2**62  # int64 sums of products within it cannot overflow
_MINOR_ENTRIES = 2**16  # cap on the products one chunk of maximal_minors forms at a level


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
        for pivot_row in range(r, len(rows)):
            if rows[pivot_row][c]:
                break
        else:
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


def affine_hull(matrix: np.ndarray, q: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """The affine hull A of the m >= 1 points ``matrix[i] / q[i]`` of R^d
    (integer rows, ``q > 0``) as a graph over its free coordinates:
    ``(free, T)``, the ascending columns ``free`` of A's e = dim A free
    coordinates and an integer (d + 1) x (e + 1) matrix ``T`` with
    ``q_B [x; 1] = T [x[free]; 1]`` for every x in A, where q_B > 0 is
    T's last entry.  e = 0 for one point value, and e = d when the points
    span R^d.

    A basis of the homogeneous differences ``P_i q_0 - P_0 q_i`` grows one
    independent difference at a time.  The normals ``[n | -c]`` of the
    homogeneous rows ``[P | q]`` taken so far (one :func:`nullspaces` of
    a stack of one) vanish on difference i exactly when ``n . x_i = c``
    for x_i = P_i / q_i, so each step is one :func:`_exact_product` of
    every row with those normals; the first row with a nonzero product
    joins the basis, and a step with none leaves the normals of A, at most
    e + 1 steps.  A's
    equations ``n . x = c`` are then read with :func:`integer_rref` and
    :func:`solve_rref`: a point ``P_B / q_B`` of A (zero at the free
    columns) and its directions, each q_B at its own free column, are the
    columns of T.
    """
    points = np.column_stack((matrix, q))
    d = points.shape[1] - 1
    basis = points[:1]
    while True:
        _, (normals,), _ = nullspaces(basis[None])  # independent rows: never deficient
        if not len(normals):
            break  # the basis spans R^(d+1): A is R^d
        bound = max(_largest(points), 1) * (d + 1) * max(_largest(normals), 1)
        hit = np.flatnonzero(_any_last(_exact_product(points, normals.T, bound) != 0))
        if not len(hit):
            break
        basis = np.concatenate((basis, points[hit[:1]]))
    rows, pivots = integer_rref([row[:-1] + [-row[-1]] for row in normals.tolist()])
    point, q_b, directions = solve_rref(rows, pivots, d)
    free = [c for c in range(d) if c not in set(pivots)]
    columns = [v + [0] for v in directions] + [point + [q_b]]
    return free, [list(row) for row in zip(*columns)]


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


# ---------------------------------------------------------------------------
# batched maximal minors
# ---------------------------------------------------------------------------


def maximal_minors(stack) -> np.ndarray:
    """All C(d, k) k x k minors of every matrix of the (N, k, d) integer
    ``stack``: an (N, C(d, k)) array whose column s is the minor on the
    s-th column set of ``itertools.combinations(range(d), k)``.

    Level i holds the minors of the first i rows on i-column sets, each one
    Laplace expansion along row i of level i - 1.  Nothing is divided, so
    every partial sum of a matrix is bounded by the product of its rows'
    1-norms: the levels run in int64 when that product is within 2^62 for
    every matrix, and on Python ints otherwise.  The work grows with
    C(d, k); the stack is taken ``_MINOR_ENTRIES`` products at a time.
    """
    stack = np.asarray(stack)
    _, k, d = stack.shape
    return _minors(stack, tuple(combinations(range(d), k)))


def full_row_rank(stack) -> np.ndarray:
    """Whether each matrix of the (N, k, d) integer ``stack`` has rank k:
    a nonzero minor on its first k columns, or, for the matrices where that
    one is zero, a nonzero :func:`maximal_minors` entry."""
    stack = np.asarray(stack)
    n, k, d = stack.shape
    if k > d:
        return np.zeros(n, dtype=bool)
    full = _minors(stack, (tuple(range(k)),))[:, 0] != 0
    rest = np.flatnonzero(~full)
    if len(rest):
        full[rest] = (maximal_minors(stack[rest]) != 0).any(axis=1)
    return full


def nullspaces(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(q, directions, deficient)`` of the (N, k, d) integer ``stack``:
    for every matrix j of full row rank k, the ``q[j]`` and ``directions[j]``
    (d - k rows of d entries) that :func:`solve_rref` reads off its
    :func:`integer_rref`, read off its maximal minors with no elimination;
    ``deficient[j]`` marks the matrices of lower rank, whose ``q`` and
    ``directions`` mean nothing.

    The pivots P are the first column set, in lexicographic order, with a
    nonzero minor D.  By Cramer's rule row i of the reduced echelon form is
    N_i / D, where N_i[c] is ± the minor on P with p_i replaced by c.  So
    q is the lcm over i of |D| / gcd(N_i), which divides D, and the entry
    of the direction of free column f at p_i is -N_i[f] / (D / q): an exact
    integer no larger than a minor, so nothing leaves the minors' bound.
    Most matrices have P = {0, ..., k - 1}, and for them only the 1 + k (d
    - k) minors on P and its neighbours are formed; all C(d, k) only for
    the others.
    """
    stack = np.asarray(stack)
    n, k, d = stack.shape
    if k > d or not n:
        return (np.ones(n, dtype=np.int64), np.zeros((n, max(d - k, 0), d), dtype=np.int64),
                np.full(n, k > d))
    near, pivots, free, swapped, sign = _pivot_tables(d, k)
    first = _minors(stack, near)
    det, cramer = first[:, 0].copy(), first[:, 1:].reshape(n, k, d - k) * sign[0]  # N_i[f]
    s = np.zeros(n, dtype=np.intp)  # each matrix's pivot set
    deficient = np.zeros(n, dtype=bool)
    rest = np.flatnonzero(det == 0)
    if len(rest):
        minors = maximal_minors(stack[rest])
        nonzero = minors != 0
        deficient[rest] = ~nonzero.any(axis=1)
        s[rest] = nonzero.argmax(axis=1)  # the first nonzero minor's column set
        at = np.arange(len(rest))
        det[rest] = np.where(deficient[rest], 1, minors[at, s[rest]])  # 1 keeps / defined
        cramer[rest] = minors[at[:, None, None], swapped[s[rest]]] * sign[s[rest]]
    content = np.gcd(np.gcd.reduce(cramer, axis=2, initial=0), det[:, None])
    q = np.lcm.reduce(abs(det)[:, None] // content, axis=1, initial=1)
    entries = -cramer // (det // q)[:, None, None]
    directions = np.zeros((n, d - k, d), dtype=first.dtype)
    at, rows = np.arange(n), np.arange(d - k)[None, :]
    directions[at[:, None], rows, free[s]] = q[:, None]
    directions[at[:, None, None], rows[:, :, None], pivots[s][:, None, :]] = (
        entries.transpose(0, 2, 1))
    return q, directions, deficient


def _minors(stack: np.ndarray, sets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The minors of every matrix of the (N, k, d) integer ``stack`` on the
    k-column sets ``sets``, as :func:`maximal_minors` forms them: an (N,
    len(sets)) array, int64 or Python ints."""
    n = len(stack)
    # every partial sum is within the product of its matrix's row 1-norms,
    # each at least 1 so that a zero row bounds the entries too
    bound = max(map(prod, np.maximum(_norms(stack), 1).tolist()), default=0)
    dtype = object if _exact_dtype(bound) is object else np.int64
    stack = stack.astype(dtype, copy=False)
    levels = _laplace_levels(sets)
    per_chunk = max(1, _MINOR_ENTRIES // max((cols.size for cols, _, _ in levels), default=1))
    out = np.empty((n, len(sets)), dtype=dtype)
    for lo in range(0, n, per_chunk):
        chunk = stack[lo : lo + per_chunk]
        minors = np.ones((len(chunk), 1), dtype=dtype)  # the empty minor
        for i, (cols, lower, sign) in enumerate(levels):
            minors = (chunk[:, i, cols] * minors[:, lower] * sign).sum(axis=2)
        out[lo : lo + per_chunk] = minors
    return out


def _norms(a: np.ndarray) -> np.ndarray:
    """The 1-norms of the integer rows along the last axis of ``a``: int64
    when they provably fit, and Python ints otherwise."""
    if a.dtype != object and _exact_dtype(_largest(a) * a.shape[-1]) is not object:
        return np.abs(a).sum(axis=-1)
    return abs(a.astype(object)).sum(axis=-1)


def _largest(a: np.ndarray) -> int:
    """The largest absolute entry of ``a``, 0 when it has none; two bounds,
    not ``np.abs``, since abs(-2^63) wraps to itself in int64."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exact_product(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``a @ b`` of integer rows ``a`` (..., w) and an integer (w, c) ``b``
    as one 2-D product, in the dtype :func:`_exact_dtype` picks for the
    caller's ``bound`` on every entry and partial sum, as int64 or Python ints."""
    dtype = _exact_dtype(bound)
    rows = a.reshape(prod(a.shape[:-1]), a.shape[-1]).astype(dtype, copy=False)
    product = (rows @ b.astype(dtype, copy=False)).reshape(*a.shape[:-1], b.shape[1])
    return product.astype(np.int64) if dtype is np.float64 else product


def _any_last(a: np.ndarray) -> np.ndarray:
    """``a.any(axis=-1)`` of a boolean array as an OR of its last axis's
    columns, several times faster than numpy's reduction over a short axis."""
    out = np.zeros(a.shape[:-1], dtype=bool)
    for k in range(a.shape[-1]):
        out |= a[..., k]
    return out


def _exact_dtype(bound: int) -> type:
    """The dtype of an integer product whose every entry and partial sum is
    within ``bound``: float64 within 2^53, where each is an integer float64
    holds exactly, so the product is exact in any order, with or without
    FMA; int64 within 2^62, and Python ints (``object``) past it."""
    if bound <= _FLOAT_EXACT:
        return np.float64
    return np.int64 if bound <= _INT64_SAFE else object


@lru_cache(maxsize=None)
def _laplace_levels(
    sets: tuple[tuple[int, ...], ...],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each level i = 1..k of the minors on the k-column ``sets``: per
    i-column set S that lies in one of them (the last level: ``sets``, in
    order), its columns s_j, the index of S - s_j in level i - 1, and the
    cofactor sign (-1)^(i - 1 + j)."""
    k = len(sets[0]) if sets else 0
    below = [list(sets)]
    for i in range(k, 1, -1):
        below.insert(0, list(dict.fromkeys(S[:j] + S[j + 1 :] for S in below[0] for j in range(i))))
    index = {(): 0}
    levels = []
    for i, level in enumerate(below if k else [], 1):
        cols = np.array(level, dtype=np.intp).reshape(len(level), i)
        lower = np.array([[index[S[:j] + S[j + 1 :]] for j in range(i)] for S in level],
                         dtype=np.intp).reshape(len(level), i)
        sign = np.array([(-1) ** (i - 1 + j) for j in range(i)], dtype=np.int64)
        levels.append(_frozen(cols, lower, sign))
        index = {S: n for n, S in enumerate(level)}
    return levels


@lru_cache(maxsize=None)
def _pivot_tables(d: int, k: int) -> tuple:
    """The first k-column set P of R^d and the sets P - p_i + f, whose
    minors :func:`nullspaces` forms first; and per k-column set, in
    combinations order: its columns, its d - k free columns, and for pivot
    i and free column f the index of P - p_i + f with the sign that moving
    f into place gives (Cramer's numerator N_i[f] is that sign times that
    minor)."""
    sets = tuple(combinations(range(d), k))
    index = {S: n for n, S in enumerate(sets)}
    free = [[c for c in range(d) if c not in S] for S in sets]
    swapped = np.zeros((len(sets), k, d - k), dtype=np.intp)
    sign = np.zeros((len(sets), k, d - k), dtype=np.int64)
    for n, S in enumerate(sets):
        for i in range(k):
            rest = S[:i] + S[i + 1 :]
            for j, f in enumerate(free[n]):
                place = sum(c < f for c in rest)
                swapped[n, i, j] = index[tuple(sorted(rest + (f,)))]
                sign[n, i, j] = (-1) ** (i - place)
    near = (sets[0],) + tuple(sets[c] for c in swapped[0].ravel().tolist())
    return (near, *_frozen(np.array(sets, dtype=np.intp).reshape(len(sets), k),
                           np.array(free, dtype=np.intp).reshape(len(sets), d - k),
                           swapped, sign))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, read-only: the cached tables are shared by every call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays
