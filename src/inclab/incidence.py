"""Exact incidence counting and forbidden-K_{s,t} detection.

Two interchangeable counting strategies are provided and must always agree:

* ``naive``  -- every equation of every flat evaluated at every point,
  O(m n).  This is the reference path; it never groups flats by normal or
  buckets points by offset.  Integer points are checked densely: the
  flats' equation rows are stacked and multiplied by a block of points at
  a time in int64, where that provably cannot overflow; other flats and
  points keep exact Python arithmetic.
* ``hashed`` -- hyperplanes are grouped by their primitive integer normal
  and points are bucketed by exact dot product, so each group costs one
  pass over the points.  Integer work is vectorized with numpy when the
  magnitudes provably fit in int64; anything else falls back to exact
  Fraction arithmetic.

All counts are exact; there is no tolerance anywhere in this module.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InvalidInput, InvariantViolation, ResourceLimit
from .geometry import Flat, RatPoint, contains

DEFAULT_COMPARISON_LIMIT = 10**9
_INT64_SAFE = 2**62
_DENSE_ENTRIES = 2**16  # cap on one (points x equation rows) block of the naive count
# _int_point_matrix's result: (matrix, matrix_point_indices, leftover_indices, max_abs)
_PointSplit = tuple[np.ndarray, list[int], list[int], int]
# primitive normal -> offset -> indices of the hyperplanes with that key
_FlatGroups = dict[tuple[int, ...], dict[Fraction, list[int]]]


@dataclass(frozen=True)
class IncidenceInstance:
    """A point set, a flat family, and the forbidden-subgraph parameters."""

    points: tuple[RatPoint, ...]
    flats: tuple[Flat, ...]
    s: int
    t: int

    def __init__(self, points: Sequence[RatPoint], flats: Sequence[Flat], s: int, t: int):
        pts = tuple(points)
        fls = tuple(flats)
        dims = {p.dim for p in pts} | {f.ambient_dim for f in fls}
        if len(dims) > 1:
            raise InvalidInput(f"mixed ambient dimensions in instance: {sorted(dims)}")
        if s < 2:
            raise InvalidInput("s must be at least 2")
        if t < 1:
            raise InvalidInput("t must be at least 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "flats", fls)
        object.__setattr__(self, "s", int(s))
        object.__setattr__(self, "t", int(t))

    @property
    def ambient_dim(self) -> int:
        if self.points:
            return self.points[0].dim
        if self.flats:
            return self.flats[0].ambient_dim
        raise InvalidInput("empty instance has no ambient dimension")


@dataclass(frozen=True)
class KstWitness:
    """s point indices and t flat indices, pairwise incident."""

    point_indices: tuple[int, ...]
    flat_indices: tuple[int, ...]


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def count_incidences(inst: IncidenceInstance, strategy: str = "auto") -> int:
    """Exact number of (point, flat) incidences in the instance."""
    if strategy in ("auto", "hashed"):
        return _count_hashed(inst.points, inst.flats)
    if strategy == "naive":
        return _count_naive(inst.points, inst.flats)
    raise InvalidInput(f"unknown counting strategy {strategy!r}")


def _count_naive(points: Sequence[RatPoint], flats: Sequence[Flat]) -> int:
    """Reference count: evaluate every equation of every flat at every point."""
    matrix, _, leftover, max_abs = _int_point_matrix(points)
    scale = max(max_abs, 1)  # the rows themselves must fit int64 too
    int_rows: list[list[int]] | None = None
    dense: list[list[tuple[tuple[int, ...], int]]] = []
    total = 0
    for flat in flats:
        if not flat.equations:
            total += len(points)  # the whole space
            continue
        total += sum(1 for i in leftover if contains(flat, points[i]))
        eqs = flat.integer_equations()
        if any(c.denominator != 1 for _, c in eqs):
            continue  # no integer point reaches a rational offset
        int_eqs = [(row, c.numerator) for row, c in eqs]
        if all(sum(abs(a) for a in row) * scale <= _INT64_SAFE for row, _ in int_eqs):
            # every |<row, x>| is at most _INT64_SAFE, so a larger offset is
            # unreachable (and must not be cast to int64)
            if all(abs(c) <= _INT64_SAFE for _, c in int_eqs):
                dense.append(int_eqs)
            continue
        if int_rows is None:
            int_rows = matrix.tolist()
        total += sum(
            1
            for x in int_rows
            if all(sum(a * v for a, v in zip(row, x)) == c for row, c in int_eqs)
        )
    return total + _count_dense(matrix, dense)


def _count_dense(
    matrix: np.ndarray, flats: Sequence[Sequence[tuple[tuple[int, ...], int]]]
) -> int:
    """Pairs (row of ``matrix``, flat) where the point meets every equation.

    Each flat is a list of int64-safe ``(row, offset)`` equations.  Flats
    are stacked into an equation matrix a chunk at a time, and points are
    taken a block at a time, so a block holds at most ``_DENSE_ENTRIES``
    products (or one point's worth, for a flat with more rows than that).
    """
    total = 0
    lo = 0
    while lo < len(flats) and matrix.shape[0]:
        hi, width = lo, 0
        while hi < len(flats) and (hi == lo or width + len(flats[hi]) <= _DENSE_ENTRIES):
            width += len(flats[hi])
            hi += 1
        chunk = flats[lo:hi]
        rows = np.array([row for eqs in chunk for row, _ in eqs], dtype=np.int64)
        offsets = np.array([c for eqs in chunk for _, c in eqs], dtype=np.int64)
        starts = np.cumsum([0] + [len(eqs) for eqs in chunk[:-1]])
        step = max(1, _DENSE_ENTRIES // width)
        for p in range(0, matrix.shape[0], step):
            hits = matrix[p : p + step] @ rows.T == offsets
            total += int(np.count_nonzero(np.logical_and.reduceat(hits, starts, axis=1)))
        lo = hi
    return total


def _hyperplane_key(flat: Flat) -> tuple[tuple[int, ...], Fraction] | None:
    """Primitive integer normal and scaled offset for a hyperplane flat."""
    if flat.dim != flat.ambient_dim - 1:
        return None
    if len(flat.equations) == 1:
        row, c = flat.equations[0], flat.rhs[0]
    else:
        reduced, pivots = linalg.row_echelon(
            [list(r) + [b] for r, b in zip(flat.equations, flat.rhs)]
        )
        row, c = reduced[0][:-1], reduced[0][-1]
    return linalg.integer_row_and_offset(row, c)


def _int_point_matrix(points: Sequence[RatPoint]) -> _PointSplit:
    """Split points into an int64-safe matrix plus leftover indices.

    Returns (matrix, matrix_point_indices, leftover_indices, max_abs)."""
    mat_rows: list[tuple[int, ...]] = []
    mat_idx: list[int] = []
    leftover: list[int] = []
    max_abs = 0
    for i, p in enumerate(points):
        ic = p.int_coords()
        if ic is None:
            leftover.append(i)
            continue
        m = max((abs(c) for c in ic), default=0)
        if m > _INT64_SAFE:
            leftover.append(i)
            continue
        max_abs = max(max_abs, m)
        mat_rows.append(ic)
        mat_idx.append(i)
    dim = points[0].dim if points else 0
    if mat_rows:
        matrix = np.array(mat_rows, dtype=np.int64)
    else:
        matrix = np.zeros((0, dim), dtype=np.int64)
    return matrix, mat_idx, leftover, max_abs


def _exact_dots(matrix: np.ndarray, max_abs: int, row: Sequence[int]) -> np.ndarray:
    """Exact dot products of every row of ``matrix`` with the integer ``row``.

    ``max_abs`` bounds the entries of ``matrix``.  The products are int64
    when ``sum|row| * max_abs`` provably fits, and Python integers (an
    object array) otherwise; either way they compare and hash exactly.
    """
    if not matrix.shape[0]:
        return np.zeros(0, dtype=np.int64)  # no points: no columns to multiply
    # max(., 1): the row itself must fit int64 even when every point is 0
    if sum(abs(a) for a in row) * max(max_abs, 1) <= _INT64_SAFE:
        return matrix @ np.array(row, dtype=np.int64)
    return np.array(
        [sum(a * x for a, x in zip(row, r)) for r in matrix.tolist()], dtype=object
    )


def _normal_dots(
    normal: Sequence[int], points: Sequence[RatPoint], split: _PointSplit
) -> tuple[np.ndarray, list]:
    """Exact dot products of ``normal`` with every point, one per point: an
    array over the int-matrix points and a list over the leftover ones."""
    matrix, _, leftover, max_abs = split
    dots = _exact_dots(matrix, max_abs, normal)
    return dots, [sum(a * x for a, x in zip(normal, points[i].coords)) for i in leftover]


def _group_flats(flats: Sequence[Flat]) -> tuple[_FlatGroups, list[int]]:
    """Hyperplane indices by primitive normal, then by offset; and the
    indices of every other flat."""
    groups: _FlatGroups = defaultdict(lambda: defaultdict(list))
    others: list[int] = []
    for j, flat in enumerate(flats):
        key = _hyperplane_key(flat)
        if key is None:
            others.append(j)
        else:
            normal, offset = key
            groups[normal][offset].append(j)
    return groups, others


def _count_hashed(points: Sequence[RatPoint], flats: Sequence[Flat]) -> int:
    groups, others = _group_flats(flats)
    split = _int_point_matrix(points)
    total = 0
    for normal, by_offset in groups.items():
        dots, leftover_dots = _normal_dots(normal, points, split)
        values, counts = np.unique(dots, return_counts=True)
        counter = dict(zip(values.tolist(), counts.tolist()))
        for offset, flat_ids in by_offset.items():
            if offset.denominator == 1:
                total += counter.get(offset.numerator, 0) * len(flat_ids)
        total += sum(len(by_offset.get(dot, ())) for dot in leftover_dots)
    for j in others:
        total += len(_flat_members(flats[j], points, split))
    return total


def _flat_member_mask(flat: Flat, matrix: np.ndarray, max_abs: int) -> np.ndarray:
    """Boolean membership of the int-matrix points in ``flat``."""
    mask = np.ones(matrix.shape[0], dtype=bool)
    for row, offset in flat.integer_equations():
        if offset.denominator != 1:
            return np.zeros(matrix.shape[0], dtype=bool)
        mask &= _exact_dots(matrix, max_abs, row) == offset.numerator
    return mask


def _flat_members(
    flat: Flat, points: Sequence[RatPoint], split: _PointSplit
) -> list[int]:
    """Indices of the points on ``flat``."""
    matrix, mat_idx, leftover, max_abs = split
    member = _flat_member_mask(flat, matrix, max_abs)
    return [mat_idx[k] for k in np.flatnonzero(member).tolist()] + [
        i for i in leftover if contains(flat, points[i])
    ]


# ---------------------------------------------------------------------------
# incidence masks and K_{s,t} search
# ---------------------------------------------------------------------------


def incidence_masks(points: Sequence[RatPoint], flats: Sequence[Flat]) -> list[int]:
    """Per-point bitmasks of incident flats (bit j <=> on flats[j])."""
    masks = [0] * len(points)
    groups, others = _group_flats(flats)
    split = _int_point_matrix(points)
    _, mat_idx, leftover, _ = split
    order = mat_idx + leftover
    for normal, by_offset in groups.items():
        dots, leftover_dots = _normal_dots(normal, points, split)
        buckets: dict = defaultdict(list)  # exact dot value -> point indices
        for i, dot in zip(order, dots.tolist() + leftover_dots):
            buckets[dot].append(i)
        for offset, flat_ids in by_offset.items():
            bits = sum(1 << j for j in flat_ids)
            for i in buckets.get(offset, ()):
                masks[i] |= bits
    for j in others:
        for i in _flat_members(flats[j], points, split):
            masks[i] |= 1 << j
    return masks


def _lowest_bits(mask: int, count: int) -> tuple[int, ...]:
    out = []
    while mask and len(out) < count:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def find_kst(
    inst: IncidenceInstance,
    limit: int = DEFAULT_COMPARISON_LIMIT,
) -> KstWitness | None:
    """A K_{s,t} witness (s points on t common flats) or ``None``.

    The search side (point subsets vs flat subsets) is chosen by comparing
    estimated costs.  The first witness in index order is returned, so the
    result is deterministic.  Raises :class:`ResourceLimit` when both sides
    exceed ``limit`` elementary comparisons.
    """
    m, n = len(inst.points), len(inst.flats)
    s, t = inst.s, inst.t
    if m < s or n < t:
        return None
    flat_words = max(1, -(-n // 64))
    point_words = max(1, -(-m // 64))
    cost_points = comb(m, s) * flat_words
    cost_flats = comb(n, t) * point_words
    if min(cost_points, cost_flats) > limit:
        raise ResourceLimit(
            f"K_{{{s},{t}}} search needs ~{min(cost_points, cost_flats):.3g} comparisons,"
            f" over the budget of {limit}",
            limit=limit,
            estimate=min(cost_points, cost_flats),
        )
    witness = _search_kst(inst, "points" if cost_points <= cost_flats else "flats")
    if witness is not None:
        _check_witness(inst, witness)
    return witness


def _search_kst(inst: IncidenceInstance, side: str) -> KstWitness | None:
    """The first witness in index order of ``side``'s subsets: s points
    (``"points"``) or t flats (``"flats"``) sharing enough incidences."""
    masks = incidence_masks(inst.points, inst.flats)
    size, need = inst.s, inst.t
    if side == "flats":  # per-flat masks of incident points
        by_flat = [0] * len(inst.flats)
        for i, mask in enumerate(masks):
            for j in _lowest_bits(mask, len(inst.flats)):
                by_flat[j] |= 1 << i
        masks, size, need = by_flat, need, size
    found = _first_common_subset(masks, size, need)
    if found is None:
        return None
    subset, common = found
    other = _lowest_bits(common, need)
    return KstWitness(other, subset) if side == "flats" else KstWitness(subset, other)


def _first_common_subset(
    masks: Sequence[int], size: int, need: int
) -> tuple[tuple[int, ...], int] | None:
    """The lexicographically first ``size`` indices whose masks share at
    least ``need`` bits, with their common mask; ``None`` when none do.

    Depth-first over increasing indices, so subsets are met in
    ``itertools.combinations`` order.  A branch is cut as soon as its
    common mask has fewer than ``need`` bits: extending it only clears bits.
    """
    n = len(masks)
    chosen: list[int] = []
    commons = [-1]  # commons[k] is the common mask of chosen[:k]; -1 has every bit
    start = 0
    while True:
        depth, common = len(chosen), commons[-1]
        for i in range(start, n - size + depth + 1):
            here = common & masks[i]
            if here.bit_count() >= need:
                break
        else:  # no index left at this depth: backtrack
            if not chosen:
                return None
            start = chosen.pop() + 1
            commons.pop()
            continue
        chosen.append(i)
        if depth + 1 == size:
            return tuple(chosen), here
        commons.append(here)
        start = i + 1


def _check_witness(inst: IncidenceInstance, witness: KstWitness) -> None:
    for i in witness.point_indices:
        for j in witness.flat_indices:
            if not contains(inst.flats[j], inst.points[i]):
                raise InvariantViolation(
                    f"unsound witness: point {i} not on flat {j}"
                )


# ---------------------------------------------------------------------------
# the K_{s,t}-free counting bound, for reporting only
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundValue:
    """Value of m * n^(1-1/s) + n.  ``exact`` tells whether the root was an
    integer; otherwise the value is a correctly rounded high-precision
    approximation converted to a Fraction."""

    value: Fraction
    exact: bool
    digits: int


def kst_bound_value(m: int, n: int, s: int, digits: int = 30) -> BoundValue:
    """Evaluate the K_{s,t}-free bound shape ``m n^{1-1/s} + n``.

    This is a reporting aid, never a certified bound: the constant in front
    is problem dependent and left to the caller.
    """
    if m < 0 or n < 0:
        raise InvalidInput("m and n must be nonnegative")
    if s < 2:
        raise InvalidInput("s must be at least 2")
    if n == 0 or m == 0:
        return BoundValue(Fraction(n), True, digits)
    power = n ** (s - 1)
    root = _int_root_floor(power, s)
    if root**s == power:
        return BoundValue(Fraction(m * root + n), True, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 15
        approx = (
            Decimal(m) * (Decimal(power) ** (Decimal(1) / Decimal(s))) + Decimal(n)
        )
    return BoundValue(Fraction(approx), False, digits)


def _int_root_floor(x: int, r: int) -> int:
    """Largest integer whose ``r``-th power is at most ``x``."""
    if x < 0 or r < 1:
        raise InvalidInput("root domain error")
    if x in (0, 1) or r == 1:
        return x
    high = 1
    while high**r <= x:
        high <<= 1
    low = high >> 1
    while high - low > 1:
        mid = (low + high) // 2
        if mid**r <= x:
            low = mid
        else:
            high = mid
    return low
