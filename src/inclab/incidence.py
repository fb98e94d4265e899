"""Exact incidence counting and forbidden-K_{s,t} detection.

Two interchangeable counting strategies are provided and must always agree:

* ``naive``  -- every equation of every flat evaluated at every point,
  O(m n).  This is the reference path; it never groups flats by normal or
  buckets points by offset.  A flat's first row is multiplied by a block
  of points at a time, and its other rows only at the points the first
  holds: in the dtype :func:`linalg._exact_dtype` picks from a bound on
  every partial sum, float64 through BLAS, int64, or Python ints.
* ``hashed`` -- hyperplanes are sorted into runs of one primitive integer
  normal and one offset, keyed off their rows, and each normal costs one
  exact dot pass over the points, which gives every run of it its point
  count, by the same rule, with an ``int`` or ``Fraction`` value built
  only for a point with a denominator.

Every point is stored once in homogeneous integer form: its primitive
integer row P over its denominator q > 0, so x = P / q
(:class:`~inclab.geometry.PointRows`), and every flat as integer rows [a |
c] of one :class:`~inclab.geometry.FlatFamily`, each zero on a point's (P,
-q) exactly when the point meets it; an instance converts any other
points or flats once, and classifies its flats once, for every count, the
K_{s,t} certificate and the masks, with no flat built.  When every flat
has two rows or more, the hashed path runs in the points' affine hull A
when it is smaller than R^d: the points are read in A's free coordinates,
and each flat whose trace on A is a hyperplane of A joins the runs
(:func:`_hull_frame`); the naive count still reads the original rows.
All counts are exact; there is no tolerance anywhere in this module.

K_{s,t} freeness is settled by one of two exact paths.  The certificate
reads the hyperplane runs, keyed in R^e (e = d, or the dimension of A):
s points that are not all one point have their common hyperplanes'
normals in one (e-1)-dimensional linear subspace, so a bound on the
hyperplanes they can share comes from the normals and the per-offset
point counts, without enumerating any point subset.  The other flats
they share are tallied exactly from the s-subsets of each such flat's
member list.  When the sum of the two is
below t the instance is free; otherwise a pruned search over point or
flat subsets of the incidence masks runs, within a work budget.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import InvalidInput, InvariantViolation, ResourceLimit
from .geometry import (
    Flat,
    FlatFamily,
    PointRows,
    RatPoint,
    _exact,
    _flat_family,
    _int,
    _int_point_matrix,
    _primitive_rows,
    _split_coords,
    contains,
)

DEFAULT_COMPARISON_LIMIT = 10**9
_DENSE_ENTRIES = 2**16  # cap on one (points x equation rows) block of the naive count


class _Runs(NamedTuple):
    """The flats classified once: hyperplanes (of R^d, or of the points'
    affine hull in its free coordinates) in runs of one primitive normal
    (their key) and one offset, and the indices of every other flat.

    ``order`` holds the hyperplane indices sorted by (key, offset), and
    ascending within each run; run r is ``order[starts[r]:starts[r + 1]]``
    (the last run ends at ``len(order)``), with key row
    ``keys[run_key[r]]`` and offset ``offsets[r]``.  Keys ascend, so the
    runs of one key are consecutive.  ``keys`` holds the primitive,
    sign-canonical normals; ``offsets`` is int64, or object when one is a
    ``Fraction`` or past int64; ``others`` ascends.
    """

    order: np.ndarray
    starts: np.ndarray
    run_key: np.ndarray
    offsets: np.ndarray
    keys: np.ndarray
    others: np.ndarray

    def key_bounds(self) -> list[int]:
        """Key k's runs are ``range(bounds[k], bounds[k + 1])``."""
        return np.searchsorted(self.run_key, np.arange(len(self.keys) + 1)).tolist()


@dataclass(frozen=True)
class IncidenceInstance:
    """A point set, a flat family, and the forbidden-subgraph parameters.

    ``points`` are always held as :class:`PointRows`, the homogeneous
    integer rows every count reads, and ``flats`` as a :class:`FlatFamily`,
    whose rows every count and the grouping read: rows and families are
    kept as they are, and any other sequence is converted once.
    """

    points: Sequence[RatPoint]
    flats: Sequence[Flat]
    s: int
    t: int

    def __init__(self, points: Sequence[RatPoint], flats: Sequence[Flat], s: int, t: int):
        pts = _int_point_matrix(points)
        fls = _flat_family(flats, pts.ambient_dim)
        dims = {x.ambient_dim for x in (pts, fls) if len(x)}
        if len(dims) > 1:
            raise InvalidInput(f"mixed ambient dimensions in instance: {sorted(dims)}")
        if _int(s, "s") < 2:
            raise InvalidInput("s must be at least 2")
        if _int(t, "t") < 1:
            raise InvalidInput("t must be at least 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "flats", fls)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @property
    def ambient_dim(self) -> int:
        if len(self.points):
            return self.points.ambient_dim
        if len(self.flats):
            return self.flats.ambient_dim
        raise InvalidInput("empty instance has no ambient dimension")

    @cached_property
    def _frame(self) -> tuple[PointRows, _Runs]:
        """The points and the flat classification that the hashed counts,
        the K_{s,t} certificate and the incidence masks read, built once
        and kept while the instance lives.  When every flat has two rows or
        more and the points' affine hull A has dimension 1 <= e < d, the
        points in A's free coordinates and the runs of the flats whose trace
        on A is a hyperplane of A (:func:`_hull_frame`); otherwise the
        points as they are and :func:`_group_flats`."""
        flats, points = self.flats, self.points
        if len(points) > 1 and len(flats) and np.diff(flats.starts).min() >= 2:
            frame = _hull_frame(points, flats)
            if frame is not None:
                return frame
        return points, _group_flats(flats)

    @property
    def _hashed_points(self) -> PointRows:
        """The points the runs are keyed in: :attr:`_frame`'s."""
        return self._frame[0]

    @property
    def _grouping(self) -> _Runs:
        """The flats classified once per instance: :attr:`_frame`'s runs."""
        return self._frame[1]

    @cached_property
    def _offset_counts(self) -> np.ndarray:
        """The number of points on each hyperplane run, int64: one exact dot
        pass over the hashed points per key, for the hashed counts and the
        K_{s,t} certificate.  int64 dots are sorted once and each run's
        offset is found by two binary searches; any other dots are counted
        by hashing, since sorting them compares Python objects pair by
        pair."""
        runs = self._grouping
        counts = np.zeros(len(runs.starts), dtype=np.int64)
        bounds = runs.key_bounds()
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            dots = _dot_values(self._hashed_points, runs.keys[k].tolist())
            offsets = runs.offsets[lo:hi]
            if dots.dtype == object or offsets.dtype == object:
                tally = Counter(dots.tolist())
                counts[lo:hi] = [tally[c] for c in offsets.tolist()]
            else:
                dots.sort()
                counts[lo:hi] = (np.searchsorted(dots, offsets, "right")
                                 - np.searchsorted(dots, offsets))
        return counts

    @cached_property
    def _other_members(self) -> dict[int, list[int]]:
        """For each flat outside the runs, the indices of its points,
        ascending, read off its original rows (:func:`_family_members`);
        for the hashed counts, the K_{s,t} certificate and the incidence
        masks."""
        return _family_members(self.points, self.flats._stacks(self._grouping.others))


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
        return _count_hashed(inst, len(inst.flats))
    if strategy == "naive":
        return _count_naive(inst)
    raise InvalidInput(f"unknown counting strategy {strategy!r}")


def _count_naive(inst: IncidenceInstance) -> int:
    """Reference count: every row [a | c] of every flat evaluated at every
    point's (P, -q), zero exactly when the point meets it; one row count at
    a time, in the dtype :func:`linalg._exact_dtype` picks for the bound
    max(sum|row|, 1) * max(max_abs, 1) on every partial sum."""
    points = np.column_stack((inst.points.matrix, -inst.points.q))
    total = 0
    for _, rows, _ in inst.flats._stacks():
        norm = int(linalg._norms(rows).max(initial=0))
        dtype = linalg._exact_dtype(max(norm, 1) * max(inst.points.max_abs, 1))
        total += _count_dense(points.astype(dtype), rows.astype(dtype))
    return total


def _count_dense(points: np.ndarray, flats: np.ndarray) -> int:
    """Pairs (homogeneous point row of ``points``, flat) where the point
    zeroes every row of the flat, for an (n, r, w) stack ``flats`` of the
    dtype of ``points`` (float64 products go through BLAS).  The first rows
    of ``_DENSE_ENTRIES`` flats at a time meet a block of points at a time,
    at most ``_DENSE_ENTRIES`` products a block (or one point's worth), and
    the other rows only the points the first holds; a flat of no rows holds
    every point."""
    n, r, _ = flats.shape
    if not r:
        return n * len(points)
    total = 0
    for lo in range(0, n, _DENSE_ENTRIES):
        block = flats[lo : lo + _DENSE_ENTRIES]
        first = block[:, 0].T
        step = max(1, _DENSE_ENTRIES // len(block))
        for p in range(0, len(points), step):
            chunk = points[p : p + step]
            hits = chunk @ first == 0
            total += int(np.count_nonzero(hits))
            if r > 1:  # less the hits that another row of the flat misses
                point_ids, flat_ids = np.divmod(np.flatnonzero(hits), hits.shape[1])
                rest = (chunk[point_ids, None] * block[flat_ids, 1:]).sum(axis=-1)
                total -= int(np.count_nonzero((rest != 0).any(axis=1)))
    return total


def _exact_dots(split: PointRows, row: Sequence[int]) -> np.ndarray:
    """``row @ P`` over the split points, in point order, int64 or Python
    ints: one exact product (:func:`linalg._exact_product`) for the bound
    max(sum|row|, 1) * max(max_abs, 1) of the naive count."""
    if not len(split.q):
        return np.zeros(0, dtype=np.int64)  # no points: no columns to multiply
    bound = max(sum(map(abs, row)), 1) * max(split.max_abs, 1)
    return linalg._exact_product(split.matrix, np.array(row, dtype=object)[:, None], bound)[:, 0]


def _dot_values(split: PointRows, row: Sequence[int]) -> np.ndarray:
    """The exact values ``row . x`` over the split points, in point order,
    for bucketing: the :func:`_exact_dots` when every q is 1, and otherwise
    with an ``int`` or ``Fraction`` built for each point whose q is not 1."""
    dots = _exact_dots(split, row)
    if split.integral:
        return dots
    values = dots.astype(object)
    for i in np.flatnonzero(split.q != 1).tolist():
        values[i] = _exact(Fraction(values[i], int(split.q[i])))
    return values


def _group_flats(family: FlatFamily) -> _Runs:
    """The hyperplanes of ``family`` as runs (:class:`_Runs`), keyed off
    their rows [a | c] with no flat built (:func:`_row_keys`), and the
    indices of every other flat.  A hyperplane is a flat of exactly one
    row, with a nonzero ``a``: the rule ``Flat(...)`` reads one by."""
    ids = np.flatnonzero(np.diff(family.starts) == 1)
    rows = family.rows if len(ids) == len(family.rows) else family.rows[family.starts[ids]]
    lead = linalg._any_last(rows[:, :-1] != 0)
    if not lead.all():
        ids, rows = ids[lead], rows[lead]
    others = _complement(ids, len(family))
    if not len(ids):  # nothing to key, in as few as no coordinates
        none = np.zeros(0, dtype=np.int64)
        return _Runs(none, none, none, none, np.zeros((0, 0), dtype=np.int64), others)
    return _sorted_runs(ids, *_row_keys(rows[:, :-1], rows[:, -1]), others)


def _complement(ids: np.ndarray, n: int) -> np.ndarray:
    """The indices below ``n`` that are not in ``ids``, ascending."""
    outside = np.ones(n, dtype=bool)
    outside[ids] = False
    return np.flatnonzero(outside)


def _row_keys(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys and offsets of the hyperplanes ``a[j] . x = c[j]``, each
    ``a[j]`` a nonzero integer row: a / g and c / g, for g the gcd of a
    signed as a's first nonzero entry, which are the primitive,
    sign-canonical normal and the offset :meth:`Flat.integer_equations`
    reads (a positive scale of the row cancels), with a ``Fraction`` only
    where g does not divide c."""
    # from 0: a reduce over one object column would keep that entry's sign
    g = np.gcd.reduce(a, axis=1, initial=0)
    g = np.where(a[np.arange(len(a)), (a != 0).argmax(axis=1)] < 0, -g, g)
    keys, offsets = a // g[:, None], c // g
    inexact = np.flatnonzero(c % g).tolist()
    if inexact:
        offsets = offsets.astype(object)
        for j in inexact:
            offsets[j] = Fraction(int(c[j]), int(g[j]))
    return keys, offsets


def _sorted_runs(
    ids: np.ndarray, keys: np.ndarray, offsets: np.ndarray, others: np.ndarray
) -> _Runs:
    """:class:`_Runs` of the hyperplanes ``ids``, ascending, with key rows
    ``keys`` and ``offsets``: one stable sort over (key, offset) makes each
    run consecutive, its indices ascending."""
    perm = np.lexsort((offsets, *keys.T[::-1]))
    keys, offsets = keys[perm], offsets[perm]
    new_key = np.ones(len(perm), dtype=bool)
    new_key[1:] = linalg._any_last(keys[1:] != keys[:-1])
    new_run = new_key.copy()
    new_run[1:] |= offsets[1:] != offsets[:-1]
    starts = np.flatnonzero(new_run)
    run_key = np.cumsum(new_key[starts]) - 1
    return _Runs(ids[perm], starts, run_key, offsets[starts], keys[new_key], others)


def _count_hashed(inst: IncidenceInstance, stop: int) -> int:
    """Incidences between the points and ``inst.flats[:stop]``, from the
    instance's one classification of all its flats: each run's point count
    times the number of its hyperplanes below ``stop``, plus the member
    lists of the other flats below ``stop``."""
    runs = inst._grouping
    below = np.add.reduceat(runs.order < stop, runs.starts, dtype=np.int64)
    total = int(inst._offset_counts @ below)
    for j, members in inst._other_members.items():
        if j < stop:
            total += len(members)
    return total


def _members(split: PointRows, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Indices of the split points x with ``row . x = 0`` for every integer
    row of ``rows``, ascending."""
    on = np.ones(len(split.q), dtype=bool)
    for row in rows:
        on &= _exact_dots(split, row) == 0
    return np.flatnonzero(on)


def _family_members(
    split: PointRows, stacks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> dict[int, list[int]]:
    """For each flat of the row ``stacks`` (:meth:`FlatFamily._stacks`),
    under its index, the indices of the split points on it, ascending:
    where every row [a | c] of the flat is zero on the point's (P, -q), and
    every point for a flat of no rows.  The first rows of a block of flats
    meet a block of points at a time, at most ``_DENSE_ENTRIES`` products a
    block, and the other rows only the points the first holds; in the dtype
    :func:`linalg._exact_dtype` picks for the naive count's bound."""
    m = len(split)
    flats_per_block = max(1, _DENSE_ENTRIES // max(1, m))
    points_per_block = max(1, _DENSE_ENTRIES // flats_per_block)
    homogeneous = np.column_stack((split.matrix, -split.q))
    members: dict[int, list[int]] = {}
    for ids, rows, _ in stacks:
        if not rows.shape[1]:
            members.update((j, list(range(m))) for j in ids.tolist())
            continue
        norm = int(linalg._norms(rows).max(initial=0))
        dtype = linalg._exact_dtype(max(norm, 1) * max(split.max_abs, 1))
        rows, points = rows.astype(dtype), homogeneous.astype(dtype)
        for lo in range(0, len(rows), flats_per_block):
            block = rows[lo : lo + flats_per_block]
            on = np.zeros((len(block), m), dtype=bool)
            for p in range(0, m, points_per_block):
                chunk = points[p : p + points_per_block]
                flat_ids, point_ids = np.nonzero(block[:, 0] @ chunk.T == 0)
                rest = (block[flat_ids, 1:] * chunk[point_ids, None]).sum(axis=-1)
                held = ~(rest != 0).any(axis=1)
                on[flat_ids[held], p + point_ids[held]] = True
            found = np.nonzero(on)[1].tolist()
            start = 0
            for j, end in zip(ids[lo : lo + flats_per_block].tolist(),
                              np.cumsum(on.sum(axis=1)).tolist()):
                members[j] = found[start:end]
                start = end
    return members


def _hull_frame(points: PointRows, family: FlatFamily) -> tuple[PointRows, _Runs] | None:
    """:attr:`IncidenceInstance._frame` of a family whose every flat has
    two rows or more, or ``None`` when the points' affine hull A
    (:func:`linalg.affine_hull`) is a point or all of R^d.

    The projection onto A's e free coordinates is a bijection from A onto
    R^e, so a point meets a flat F exactly when its projection meets F's
    trace on A, and every witness, as index sets, is unchanged.  The flats
    whose trace is a hyperplane of A (:func:`_hull_traces`, one row count at
    a time) are keyed off it by :func:`_row_keys` into runs that keep their
    original indices; every other flat stays outside the runs, with its
    member list read off its original rows.
    """
    free, t = linalg.affine_hull(points.matrix, points.q)
    if not 0 < len(free) < points.ambient_dim:
        return None
    traced = [(at[found], h) for at, rows, _ in family._stacks()
              for found, h in [_hull_traces(rows, t)]]
    ids = np.concatenate([at for at, _ in traced])
    order = np.argsort(ids, kind="stable")
    ids, h = ids[order], np.concatenate([h for _, h in traced])[order]
    return (_hull_points(points, free),
            _sorted_runs(ids, *_row_keys(h[:, :-1], h[:, -1]), _complement(ids, len(family))))


def _hull_points(points: PointRows, free: list[int]) -> PointRows:
    """The points in the free coordinates of their affine hull: each row
    ``(P[free], q)`` in the one primitive form."""
    return _primitive_rows(len(free), points.matrix[:, free], points.q)


def _hull_traces(rows: np.ndarray, t: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The flats, of the (n, r, d + 1) row blocks ``rows`` (each [a | c],
    read a . x = c), whose trace on the affine hull A of :func:`linalg.
    affine_hull`'s ``t`` is a hyperplane of A: their ascending indices,
    and each one's trace row h = [a' | c'] in A's free coordinates.

    Substituting ``q_B x = t [x_free; 1]`` turns [a | c] into ``[a | -c] @
    t`` with the sign of its last entry flipped: every row of every flat
    in one :func:`linalg._exact_product`.  A trace is a hyperplane of A
    when some row has a nonzero coefficient part and every row is a
    multiple of the first such row h, constants included: every 2 x 2
    minor of each stack [h; row] is zero (:func:`linalg.maximal_minors`).
    """
    _, r, width = rows.shape
    t = np.array(t, dtype=object)
    t[-1, :] *= -1  # [a | c] @ t = [a | -c] @ T, its last entry negated
    t[:, -1] *= -1
    bound = max(linalg._largest(rows), 1) * width * max(linalg._largest(t), 1)
    traces = linalg._exact_product(rows, t, bound)
    lead = linalg._any_last(traces[:, :, :-1] != 0)
    ids = np.flatnonzero(linalg._any_last(lead))
    h = traces[ids, lead[ids].argmax(axis=1)]
    pairs = np.stack((np.broadcast_to(h[:, None], traces[ids].shape), traces[ids]), axis=2)
    minors = linalg.maximal_minors(pairs.reshape(len(ids) * r, 2, t.shape[1]))
    flat = ~linalg._any_last((minors != 0).reshape(len(ids), r * minors.shape[1]))
    return ids[flat], h[flat]


# ---------------------------------------------------------------------------
# subspace coverage and the K_{s,t} certificate from the normal groups
# ---------------------------------------------------------------------------


def _heaviest_span(
    fixed: Sequence[tuple[int, ...]], vectors: Sequence[tuple[int, ...]],
    split: PointRows, weights: np.ndarray, flat_dim: int, cap: int,
) -> int:
    """Largest total weight of the integer ``vectors`` (split as ``split``) in
    the span of ``fixed`` and ``flat_dim - len(fixed)`` of them, over every
    choice, or the first total above ``cap``.  The library's one walk over
    spanning subsets: a nullspace, a membership pass and a sum per subset."""
    best = 0
    size = min(flat_dim - len(fixed), len(vectors))
    for subset in combinations(range(len(vectors)), size):
        rows = [list(v) for v in fixed] + [list(vectors[i]) for i in subset]
        # no rows only for flat_dim 0, whose one span is the origin
        _, basis = linalg.nullspace(rows or [[0] * len(vectors[0])])
        best = max(best, int(weights[_members(split, basis)].sum()))
        if best > cap:
            break
    return best


def _max_subspace_weight(
    vectors: Sequence[tuple[int, ...]], weights: Sequence[int], flat_dim: int, limit: int
) -> int | None:
    """Largest total weight of the integer ``vectors`` inside one linear
    subspace of dimension ``flat_dim``, by exhaustive search over spanning
    subsets; ``None`` when that search would exceed ``limit`` work.

    Exact for nonnegative weights: every subset spans at most ``flat_dim``
    dimensions, and the vectors inside a ``flat_dim``-subspace, completed to
    ``flat_dim`` vectors, span a subspace holding all of them (dependent
    subsets included).
    """
    n = len(vectors)
    if n <= flat_dim:
        return sum(weights)
    d = len(vectors[0])
    if comb(n, flat_dim) * (n * d + d**3) > limit:
        return None
    split, w = _split_coords(vectors, d), np.array(weights, dtype=np.int64)
    # no span outweighs all the vectors, so the search never stops early
    return _heaviest_span((), vectors, split, w, flat_dim, sum(weights))


def _words(n: int) -> int:
    """64-bit words in an ``n``-bit mask, at least one: the unit of search work."""
    return max(1, -(-n // 64))


def _certificate_gap(inst: IncidenceInstance, limit: int) -> str | None:
    """Why the certificate cannot show ``inst`` K_{s,t}-free, or ``None``
    when it does.

    The runs are keyed in the e coordinates of the hashed points: R^d, or
    the free coordinates of the points' affine hull A (e < d) for a
    family it reduces, where A is R^e and the runs are the hyperplanes of
    A.  s points that are not all one point span a flat of dimension at
    least 1 in A, so every hyperplane of A through them has its normal in
    one linear subspace of dimension e - 1 (the key width less one) of
    R^e, and all of them with one normal g share one offset, so one run.
    They meet at most w_g of the hyperplanes with normal g, the longest
    run of g whose offset holds s points or more (:func:`_key_weights`).
    The other flats they share are counted exactly: a tally of the
    s-subsets of each other flat's member list gives the most such flats
    sharing one s-subset.  When the largest total w_g inside an (e -
    1)-subspace, plus that tally's maximum, is below t, no K_{s,t} exists.
    Reads the instance's one point split, its cached run point counts and
    member lists; builds no incidence masks.
    """
    runs = inst._grouping
    s, t = inst.s, inst.t
    # one dot pass per key, one membership pass per non-hyperplane flat
    # and the point tally, each counted in the 64-point words the search
    # estimate counts
    cost = (len(runs.keys) + len(runs.others) + 1) * _words(len(inst.points))
    if cost > limit:
        return "certificate over budget"
    repeat = _max_point_multiplicity(inst.points)
    if repeat >= s:
        return f"certificate void: one point occurs {repeat} times, s={s}"
    members = list(inst._other_members.values())
    # one s-subset tallied costs about as much as 64 mask words of the
    # search: about 270-570 ns a subset against 8 ns a word, measured in
    # process on CPython 3.11
    cost += 64 * sum(comb(len(points), s) for points in members)
    if cost > limit:
        return "certificate over budget"
    shared = _most_sharing(members, s)
    normals, weights = _key_weights(inst)
    best = _max_subspace_weight(normals, weights, inst._hashed_points.ambient_dim - 1,
                                limit - cost)
    if best is None:
        return "certificate over budget"
    bound = best + shared
    return None if bound < t else f"certificate bound {bound} reaches t={t}"


def _key_weights(inst: IncidenceInstance) -> tuple[list[tuple[int, ...]], list[int]]:
    """The certificate's w_g: for each key g with a run whose offset holds
    at least s points, g and the length of its longest such run."""
    runs = inst._grouping
    lengths = np.diff(np.r_[runs.starts, len(runs.order)])
    heavy = np.where(inst._offset_counts >= inst.s, lengths, 0)
    w = np.maximum.reduceat(heavy, runs.key_bounds()[:-1])
    kept = np.flatnonzero(w).tolist()
    return [tuple(runs.keys[k].tolist()) for k in kept], w[kept].tolist()


def _most_sharing(member_lists: Sequence[list[int]], s: int) -> int:
    """The most of the ascending ``member_lists`` that contain one s-subset.

    A tally of the s-subsets of every list, taken one smallest element at
    a time: only the subsets that start at one point are held at once, not
    one entry per subset of the whole instance.
    """
    starts: dict[int, list[tuple[list[int], int]]] = defaultdict(list)
    for members in member_lists:
        for k in range(len(members) - s + 1):
            starts[members[k]].append((members, k))
    top = 0
    for spots in starts.values():
        if len(spots) > top:  # a subset starting here is in len(spots) lists at most
            tally = Counter(
                tail for members, k in spots
                for tail in combinations(members[k + 1:], s - 1)
            )
            top = max(top, max(tally.values()))
    return top


def _max_point_multiplicity(split: PointRows) -> int:
    """The most times one point value occurs among the split points: the
    most equal (P, q) rows, since the primitive form with q > 0 is one
    form per point."""
    rows = np.column_stack((split.matrix, split.q))
    rows = rows[np.lexsort(rows.T)]  # equal rows become runs
    starts = np.flatnonzero(np.r_[True, linalg._any_last(rows[1:] != rows[:-1])])
    return int(np.diff(np.r_[starts, len(rows)]).max())


# ---------------------------------------------------------------------------
# incidence masks and K_{s,t} search
# ---------------------------------------------------------------------------


def incidence_masks(points: Sequence[RatPoint], flats: Sequence[Flat]) -> list[int]:
    """Per-point bitmasks of incident flats (bit j <=> on flats[j])."""
    return _grouped_masks(IncidenceInstance(points, flats, 2, 1))  # s, t unused


def _grouped_masks(inst: IncidenceInstance) -> list[int]:
    """:func:`incidence_masks` from the instance's one classification, its
    hashed points and one member list per flat outside the runs: the
    points of each key are bucketed by exact dot value, and each run's
    bits go to the points in its offset's bucket."""
    masks = [0] * len(inst.points)
    runs = inst._grouping
    order, offsets = runs.order.tolist(), runs.offsets.tolist()
    run_bounds = np.r_[runs.starts, len(order)].tolist()
    key_bounds = runs.key_bounds()
    for k, (lo, hi) in enumerate(zip(key_bounds, key_bounds[1:])):
        buckets: dict = defaultdict(list)  # exact dot value -> point indices
        for i, dot in enumerate(_dot_values(inst._hashed_points, runs.keys[k].tolist()).tolist()):
            buckets[dot].append(i)
        for r in range(lo, hi):
            bits = sum(1 << j for j in order[run_bounds[r] : run_bounds[r + 1]])
            for i in buckets.get(offsets[r], ()):
                masks[i] |= bits
    for j, members in inst._other_members.items():
        for i in members:
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

    First the certificate (:func:`_certificate_gap`) may show the instance
    free from the hyperplane normals and the member lists of the other
    flats, without the masks, when it costs no more than ``limit`` and the
    search.  Otherwise the search side (point subsets vs flat subsets) is
    chosen by comparing estimated costs, and the first witness in index
    order is returned, so the result is deterministic.  Raises :class:`ResourceLimit` only when neither the
    certificate nor the search settles the instance: the certificate does
    not apply or is over budget, and both sides exceed ``limit``
    elementary comparisons.  Its message says why the certificate did not.
    """
    m, n = len(inst.points), len(inst.flats)
    s, t = inst.s, inst.t
    if m < s or n < t:
        return None
    cost_points = comb(m, s) * _words(n)
    cost_flats = comb(n, t) * _words(m)
    search = min(cost_points, cost_flats)
    # the certificate may cost no more than the search it would spare
    gap = _certificate_gap(inst, min(limit, search))
    if gap is None:
        return None
    if search > limit:
        raise ResourceLimit(
            f"K_{{{s},{t}}} search needs ~{search:.3g} comparisons,"
            f" over the budget of {limit} ({gap})",
            limit=limit,
            estimate=search,
        )
    witness = _search_kst(inst, "points" if cost_points <= cost_flats else "flats")
    if witness is not None:
        _check_witness(inst, witness)
    return witness


def kst_verdict(
    inst: IncidenceInstance, limit: int = DEFAULT_COMPARISON_LIMIT
) -> tuple[str, KstWitness | None, ResourceLimit | None]:
    """:func:`find_kst` read as ``(status, witness, gave_up)``: status
    "witness" with the witness, "free", or "unverified" with the
    :class:`ResourceLimit` that stopped the search."""
    try:
        witness = find_kst(inst, limit=limit)
    except ResourceLimit as exc:
        # a kept traceback would keep the search's frames, and through them
        # the instance and its cached classification, alive with the caller
        return "unverified", None, exc.with_traceback(None)
    return ("free" if witness is None else "witness"), witness, None


def _search_kst(inst: IncidenceInstance, side: str) -> KstWitness | None:
    """The first witness in index order of ``side``'s subsets: s points
    (``"points"``) or t flats (``"flats"``) sharing enough incidences."""
    masks = _grouped_masks(inst)
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
    # each point and flat read once: on rows or a family, a read builds one
    flats = [(j, inst.flats[j]) for j in witness.flat_indices]
    for i in witness.point_indices:
        point = inst.points[i]
        for j, flat in flats:
            if not contains(flat, point):
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
