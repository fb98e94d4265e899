"""Exact geometry of points, integer vectors, and affine flats in R^d.

Every coordinate, coefficient and right-hand side is exact: an ``int`` when
integral and a ``fractions.Fraction`` only when not (:func:`_exact`), which
compare and hash alike.  A float64 array is only ever a product of
integers proved exact (:func:`linalg._exact_dtype`), never a rounded
value.  A flat is
stored by a consistent linear system ``A x = b`` and nothing else, never by a
parametrization and never in a canonical form: incidence is an exact dot
product, an intersection is one elimination of the stacked systems, and set
equality is one containment check between flats of equal dimension.  Many
flats are held as integer rows instead, in one :class:`FlatFamily` of any
row counts, which builds a flat only when one is read; any other flat
sequence becomes one family once (:func:`_flat_family`).  Many points are
held the same way, as :class:`PointRows`: each point's primitive integer
row P over its denominator q > 0, so x = P / q, with a :class:`RatPoint`
built only when one is read.  :func:`_over_lcm` is the one clearer of
exact rows and points, as (numerator, denominator) arrays, and
:func:`_primitive_rows` the one primitive form of point rows.  Generic
extensions draw through one
routine, :func:`_extension_rows`, which checks the draws of a whole stack
of flats at once with the batched minors of :mod:`inclab.linalg`: one
call per embedding, and a stack of one for :func:`generic_extension`.

Everything in this module is an immutable value after construction and all
operations are pure functions, so objects can be shared freely across
threads.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from numbers import Rational
from random import Random
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import _exact_dtype, _largest
from .errors import DegenerateRandomness, InvalidInput, InvariantViolation

RETRY_BUDGET = 32
EXTENSION_BOX = 10**6  # generic directions are drawn from [-B, B]^d


def _exact(x) -> int | Fraction:
    """``x`` as an ``int`` when integral, else as a ``Fraction``: an ``int``
    passes through, and anything else ``Fraction`` accepts (a ``Fraction``,
    ``bool``, numpy integer, string or float) is converted, so no numpy
    scalar is ever stored.  A non-finite float is :class:`InvalidInput`."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        try:
            x = Fraction(x)
        except (ValueError, OverflowError) as exc:  # nan and inf have no ratio
            raise InvalidInput(f"not an exact number: {x!r}") from exc
    return int(x.numerator) if x.denominator == 1 else x


def _int(value, what: str) -> int:
    """``value`` when it is an ``int`` (a ``bool`` is not), else
    :class:`InvalidInput`: an integer parameter is never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what: str) -> int | float:
    """``value`` when it is a finite ``int`` or ``float`` (a ``bool`` is
    not), else :class:`InvalidInput`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInput(f"{what} must be a number, got {value!r}")
    if not -inf < value < inf:
        raise InvalidInput(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class IntVector:
    """An integer coordinate vector (lattice point / hyperplane normal)."""

    coords: tuple[int, ...]

    def __init__(self, coords: Iterable[int]):
        cs = tuple(map(_exact, coords))
        if len(cs) < 1:
            raise InvalidInput("vector needs at least one coordinate")
        if not all(type(c) is int for c in cs):
            raise InvalidInput(f"vector coordinates must be integers, got {cs}")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def content(self) -> int:
        """gcd of all coordinates (0 for the zero vector)."""
        return gcd(*self.coords)

    def sign_canonical(self) -> "IntVector":
        """The representative of {v, -v} whose first nonzero entry is > 0."""
        for c in self.coords:
            if c != 0:
                if c < 0:
                    return IntVector(tuple(-x for x in self.coords))
                return self
        return self

    def dot(self, other: "RatPoint | IntVector") -> Fraction | int:
        other_coords = other.coords
        if len(other_coords) != len(self.coords):
            raise InvalidInput("dimension mismatch in dot product")
        return sum(a * b for a, b in zip(self.coords, other_coords))


@dataclass(frozen=True)
class RatPoint:
    """A point of R^d with exact rational coordinates."""

    coords: tuple[int | Fraction, ...]

    def __init__(self, coords: Iterable):
        cs = tuple(map(_exact, coords))
        if len(cs) < 1:
            raise InvalidInput("point needs at least one coordinate")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def int_coords(self) -> tuple[int, ...] | None:
        """Integer view of the coordinates, or None if any is non-integral."""
        return self.coords if all(type(c) is int for c in self.coords) else None


def is_primitive(v: IntVector) -> bool:
    """True iff the coordinates of ``v`` have gcd 1.

    Equivalently: v is not a proper integer multiple of a shorter lattice
    vector.
    """
    if v.is_zero():
        raise InvalidInput("the zero vector is neither primitive nor imprimitive")
    return v.content() == 1


@dataclass(frozen=True)
class Flat:
    """An affine subspace of R^d given by a consistent system ``A x = b``.

    ``dim`` is cached at construction and always equals
    ``ambient_dim - rank(A)``.  An inconsistent system is rejected here;
    empty intersections are reported by :func:`intersect` as ``None``,
    never as a Flat.
    """

    ambient_dim: int
    equations: tuple[tuple[int | Fraction, ...], ...]
    rhs: tuple[int | Fraction, ...]
    dim: int

    def __init__(self, ambient_dim: int, equations: Sequence[Sequence], rhs: Sequence):
        if _int(ambient_dim, "ambient dimension") < 1:
            raise InvalidInput("ambient dimension must be positive")
        eqs = tuple(tuple(map(_exact, row)) for row in equations)
        b = tuple(map(_exact, rhs))
        if len(eqs) != len(b):
            raise InvalidInput("equation count does not match right-hand side")
        for row in eqs:
            if len(row) != ambient_dim:
                raise InvalidInput("equation width does not match ambient dimension")
        if len(eqs) == 1 and any(eqs[0]):
            d = ambient_dim - 1  # a hyperplane: no elimination needed
        else:
            # consistency and rank from the pivots alone; a lone zero row
            # has no pivot, or one in the constants column when b != 0
            _, pivots = linalg.integer_rref([row + (c,) for row, c in zip(eqs, b)])
            if ambient_dim in pivots:
                raise InvalidInput("inconsistent system does not define a flat")
            d = ambient_dim - len(pivots)
        self._set(ambient_dim, eqs, b, d)

    def _set(self, ambient_dim, equations, rhs, dim) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def _spanned(cls, ambient_dim: int, equations, rhs, dim: int) -> "Flat":
        """The flat of a system known to be consistent, of exact values and
        of rank ``ambient_dim - dim``: the same value ``Flat(...)`` gives,
        built with no elimination."""
        flat = object.__new__(cls)
        flat._set(ambient_dim, equations, rhs, dim)
        return flat

    def contains(self, p: RatPoint) -> bool:
        return contains(self, p)

    def _solved(self) -> tuple[list[int], int, list[list[int]]]:
        """``(P, q, directions)``: the flat in integers, read by
        :func:`linalg.solve_rref` off one integer elimination of ``[A | b]``."""
        augmented = [row + (c,) for row, c in zip(self.equations, self.rhs)]
        solved = linalg.solve_rref(*linalg.integer_rref(augmented), self.ambient_dim)
        if solved is None:
            raise InvariantViolation("a constructed flat became inconsistent")
        return solved

    def solution(self) -> tuple[RatPoint, list[list[int | Fraction]]]:
        """One point on the flat plus a basis of its direction space: the
        integer :meth:`_solved` divided by its ``q``, so each basis vector
        has a unit entry at its own free column."""
        point, q, directions = self._solved()
        return RatPoint([Fraction(x, q) for x in point]), [
            [_exact(Fraction(x, q)) for x in v] for v in directions
        ]

    def integer_equations(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Each equation rescaled to a primitive integer coefficient row; an
        integral offset is an ``int``."""
        return [
            linalg.integer_row_and_offset(row, c)
            for row, c in zip(self.equations, self.rhs)
        ]


def make_hyperplane(normal: IntVector, offset: int | Fraction) -> Flat:
    """The hyperplane ``{x : <normal, x> = offset}``."""
    if normal.is_zero():
        raise InvalidInput("hyperplane normal must be nonzero")
    return Flat(normal.dim, [normal.coords], [offset])


class _ReadOnRequest(SequenceABC):
    """An immutable sequence whose items are built only when read: equal,
    item by item, to any sequence of equal items, with the equal tuple's
    hash."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class FlatFamily(_ReadOnRequest):
    """Flats of R^d held as integer rows: an immutable sequence of
    :class:`Flat` that builds a flat only when one is read.  Any other flat
    sequence becomes one family, once (:func:`_flat_family`).

    Row i is ``[a | c] = rows[i] / den[i]``, read ``a . x = c``, with
    ``den[i] > 0`` and no other reduction; ``rows`` is (N, d + 1) and
    ``den`` (N,), int64 when every entry is within 2^62 and Python ints
    otherwise (:func:`_int_arrays`).  Flat j's rows are
    ``rows[starts[j]:starts[j + 1]]`` as they were given, redundant and
    zero rows included (no rows: the whole space), a consistent system of
    dimension ``dims[j]``, so it reads back as the value ``Flat(...)``
    gives.  :meth:`_stacks` hands out the flats of each row count at once.
    Equality is element by element with any sequence of flats, and the hash
    is the equal tuple's; ``+`` joins it with a family or a tuple of flats
    of its ambient dimension into one family.
    """

    __slots__ = ("ambient_dim", "rows", "den", "starts", "dims")

    @classmethod
    def _of(cls, ambient_dim: int, codim: int, rows, den) -> "FlatFamily":
        """The family of blocks of ``codim`` >= 1 rows ``rows`` over ``den``,
        of any integer dtype, known to be independent and consistent."""
        (rows, den), _ = _int_arrays(rows, den)
        n = den.size // codim
        return cls._from(ambient_dim, rows.reshape(-1, ambient_dim + 1), den.reshape(-1),
                         np.arange(n + 1) * codim, np.full(n, ambient_dim - codim))

    @classmethod
    def _from(cls, ambient_dim: int, rows, den, starts, dims) -> "FlatFamily":
        """The family of the fields ``rows``, ``den``, ``starts`` and
        ``dims``, known to be consistent; every family is built here."""
        (rows, den), _ = _int_arrays(rows, den)
        family = object.__new__(cls)
        family._set(ambient_dim, rows, den, np.asarray(starts, dtype=np.int64),
                    np.asarray(dims, dtype=np.int64))
        return family

    def _set(self, ambient_dim, rows, den, starts, dims) -> None:
        for a in (rows, den, starts, dims):
            a.flags.writeable = False
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "dims", dims)

    def _stacks(self, ids=None) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The flats ``ids`` (all by default) by row count r, ascending: per
        r their indices, ascending, and their rows and denominators as an
        (n_r, r, d + 1) and an (n_r, r) stack, views of ``rows`` and ``den``
        when every flat has r rows."""
        counts, n, width = np.diff(self.starts), len(self), self.ambient_dim + 1
        if ids is None:
            if n and counts.min() == counts.max():
                r = int(counts[0])
                return [(np.arange(n), self.rows.reshape(n, r, width), self.den.reshape(n, r))]
            ids = np.arange(n)
        stacks = []
        for r in np.unique(counts[ids]).tolist():
            at = ids[counts[ids] == r]
            index = self.starts[at][:, None] + np.arange(r)
            stacks.append((at, self.rows[index], self.den[index]))
        return stacks

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, index):
        if isinstance(index, slice):
            ids = np.arange(len(self))[index]
            counts = np.diff(self.starts)[ids]
            starts = np.r_[0, np.cumsum(counts)]
            at = np.arange(starts[-1]) + np.repeat(self.starts[ids] - starts[:-1], counts)
            return FlatFamily._from(self.ambient_dim, self.rows[at], self.den[at], starts,
                                    self.dims[ids])
        j = range(len(self))[index]
        lo, hi = self.starts[j], self.starts[j + 1]
        return _rows_flat(self.ambient_dim, self.rows[lo:hi].tolist(), self.den[lo:hi].tolist(),
                          int(self.dims[j]))

    def __iter__(self):
        rows, den, starts = self.rows.tolist(), self.den.tolist(), self.starts.tolist()
        for lo, hi, dim in zip(starts, starts[1:], self.dims.tolist()):
            yield _rows_flat(self.ambient_dim, rows[lo:hi], den[lo:hi], dim)

    def __add__(self, other):
        if isinstance(other, tuple):
            other = _flat_family(other, self.ambient_dim)
        elif not isinstance(other, FlatFamily):
            return NotImplemented
        if other.ambient_dim != self.ambient_dim:
            raise InvalidInput("flats live in different ambient dimensions")
        return FlatFamily._from(self.ambient_dim, np.concatenate((self.rows, other.rows)),
                                np.concatenate((self.den, other.den)),
                                np.r_[self.starts, other.starts[1:] + self.starts[-1]],
                                np.r_[self.dims, other.dims])

    def __radd__(self, other):
        return _flat_family(other, self.ambient_dim) + self if isinstance(other, tuple) else (
            NotImplemented)

    def __repr__(self) -> str:
        return f"FlatFamily({len(self)} flats of R^{self.ambient_dim}, {len(self.rows)} rows)"


def _rows_flat(ambient_dim: int, rows: list[list[int]], den: list[int], dim: int) -> Flat:
    """The ``dim``-flat of the consistent equations ``rows[i] / den[i]``
    (each ``[a | c]``, over ``den[i] > 0``), with no elimination."""
    values = [[Fraction(x, q) if x % q else x // q for x in row] for row, q in zip(rows, den)]
    return Flat._spanned(ambient_dim, tuple(tuple(v[:-1]) for v in values),
                         tuple(v[-1] for v in values), dim)


def _flat_family(flats: Sequence[Flat], ambient_dim: int = 0) -> FlatFamily:
    """``flats`` as one :class:`FlatFamily`: a family as it is, and any
    other flats by their exact systems (:func:`_exact_family`), or as no
    flats of R^``ambient_dim``.  Several ambient dimensions are
    :class:`InvalidInput`."""
    if isinstance(flats, FlatFamily):
        return flats
    flats = tuple(flats)
    dims = {f.ambient_dim for f in flats}
    if len(dims) > 1:
        raise InvalidInput(f"mixed ambient dimensions in flats: {sorted(dims)}")
    return _exact_family(next(iter(dims), ambient_dim), [(f.equations, f.rhs) for f in flats])


def _exact_family(ambient_dim: int, systems: Sequence[tuple[Sequence, Sequence]]) -> FlatFamily:
    """The flats of the systems ``(equations, rhs)`` of exact values, each
    equation ``[a | c]`` in order, over the lcm of its own denominators
    (:func:`_over_lcm`, :func:`_row_family`)."""
    rows = [(*a, c) for eqs, b in systems for a, c in zip(eqs, b)]
    return _row_family(ambient_dim, *_over_lcm(_pairs(rows, ambient_dim + 1)),
                       [len(rhs) for _, rhs in systems])


def _row_family(ambient_dim: int, rows, den, counts: Sequence[int]) -> FlatFamily:
    """The flats of the integer rows ``rows`` [a | c] over ``den`` > 0, flat
    j the next ``counts[j]`` of them.  A flat of r rows whose coefficients
    have full row rank (one :func:`linalg.full_row_rank` call per r) is
    consistent, of dimension d - r; any other flat's dimension is read off
    one :func:`linalg.integer_rref` of [A | b], and an inconsistent one is
    the :class:`InvalidInput` ``Flat(...)`` raises."""
    starts = np.r_[0, np.cumsum(counts, dtype=np.int64)]
    family = FlatFamily._from(ambient_dim, rows, den, starts, np.zeros(len(counts)))
    dims = np.zeros(len(family), dtype=np.int64)
    for ids, stack, _ in family._stacks():
        full = linalg.full_row_rank(stack[:, :, :-1])
        dims[ids] = ambient_dim - stack.shape[1]
        for j, block in zip(ids[~full].tolist(), stack[~full].tolist()):
            _, pivots = linalg.integer_rref(block)
            if ambient_dim in pivots:
                raise InvalidInput("inconsistent system does not define a flat")
            dims[j] = ambient_dim - len(pivots)
    return FlatFamily._from(ambient_dim, family.rows, family.den, starts, dims)


def _hyperplanes(ambient_dim: int, normals: Sequence[Sequence[int]],
                 normal_ids: Sequence[int], offsets: Sequence) -> FlatFamily:
    """The hyperplanes ``{x : normals[normal_ids[j]] . x = offsets[j]}``,
    over nonzero integer normals and exact offsets, as one family of
    one-row blocks: ``[a | c]`` over 1, and for a rational offset c = p / q
    the row ``[a q | p]`` over q (:func:`_exact_family`), so the values
    ``make_hyperplane`` gives read back."""
    if all(type(c) is int for c in offsets):
        (table, column), _ = _int_arrays(normals, offsets)
        rows = np.column_stack((table.reshape(-1, ambient_dim)[normal_ids], column))
        return FlatFamily._of(ambient_dim, 1, rows, np.ones(len(column), table.dtype))
    return _exact_family(ambient_dim, [([normals[i]], [c]) for i, c in zip(normal_ids, offsets)])


def _int_arrays(*values) -> tuple[list[np.ndarray], int]:
    """The integer arrays or nested lists ``values`` as arrays of one
    dtype, with their largest absolute entry: int64 when every entry is
    within 2^62 (:func:`linalg._exact_dtype`), and Python ints otherwise,
    for points and flats alike.  A non-integer entry is
    :class:`InvariantViolation`: ``np.array(..., dtype=np.int64)`` would
    truncate a ``Fraction`` or float without a word."""
    arrays = []
    for value in values:
        a = np.asarray(value)
        if a.dtype.kind not in "iu":  # ints past int64, a Fraction or a float
            a = np.asarray(value, dtype=object)
            if not all(type(x) is int for x in a.flat):
                raise InvariantViolation("integer rows hold a non-integer entry")
        arrays.append(a)
    largest = max(map(_largest, arrays))
    dtype = object if _exact_dtype(largest) is object else np.int64
    return [a.astype(dtype, copy=False) for a in arrays], largest


class PointRows(_ReadOnRequest):
    """Points of R^d held as homogeneous integer rows: an immutable
    sequence of :class:`RatPoint` that builds a point only when one is read.

    Point i is ``matrix[i] / q[i]`` with ``q[i] > 0`` and no factor common
    to the row and ``q[i]``, so each point value has exactly one row.  Both
    arrays are int64 when every entry is within 2^62 and hold Python ints
    otherwise (:func:`_int_arrays`); ``max_abs`` is the largest absolute
    entry (0 for no points) and ``integral`` tells whether every q is 1.
    Equality is element by element with any sequence of points, and the
    hash is the equal tuple's; ``+`` joins rows with rows or with a tuple
    of points into rows.  Build one with :func:`_split_coords` or :func:`_int_point_matrix`.
    """

    __slots__ = ("ambient_dim", "matrix", "q", "max_abs", "integral")

    @classmethod
    def _of(cls, ambient_dim: int, matrix: np.ndarray, q: np.ndarray) -> "PointRows":
        """The points ``matrix[i] / q[i]`` of rows already in that form, as
        int64 or Python ints, with no further check; the dtype is set by
        :func:`_int_arrays`."""
        (matrix, q), max_abs = _int_arrays(matrix, q)
        rows = object.__new__(cls)
        rows._set(ambient_dim, matrix.reshape(len(q), ambient_dim), q, max_abs,
                  bool((q == 1).all()))
        return rows

    def _set(self, ambient_dim, matrix, q, max_abs, integral) -> None:
        matrix.flags.writeable = q.flags.writeable = False
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "max_abs", max_abs)
        object.__setattr__(self, "integral", integral)

    def __len__(self) -> int:
        return len(self.q)

    @staticmethod
    def _point(row: list[int], q: int) -> RatPoint:
        return RatPoint(row if q == 1 else [Fraction(x, q) for x in row])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PointRows._of(self.ambient_dim, self.matrix[index], self.q[index])
        return self._point(self.matrix[index].tolist(), int(self.q[index]))

    def __iter__(self):
        for row, q in zip(self.matrix.tolist(), self.q.tolist()):
            yield self._point(row, q)

    def __add__(self, other):
        if isinstance(other, tuple):
            other = _int_point_matrix(other)
        elif not isinstance(other, PointRows):
            return NotImplemented
        if not len(other):
            return self
        if not len(self):
            return other
        if other.ambient_dim != self.ambient_dim:
            raise InvalidInput("points live in different ambient dimensions")
        return PointRows._of(self.ambient_dim, np.concatenate((self.matrix, other.matrix)),
                             np.concatenate((self.q, other.q)))

    def __radd__(self, other):
        return _int_point_matrix(other) + self if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"PointRows({len(self)} points of R^{self.ambient_dim})"


def _int_point_matrix(points: Iterable[RatPoint | IntVector]) -> PointRows:
    """``points`` as rows: :class:`PointRows` as they are, and any other
    points, or integer vectors, split once by :func:`_split_coords`."""
    if isinstance(points, PointRows):
        return points
    coords = [p.coords for p in points]
    dims = set(map(len, coords))
    if len(dims) > 1:
        raise InvalidInput(f"mixed ambient dimensions in points: {sorted(dims)}")
    return _split_coords(coords, dims.pop() if dims else 0)


def _split_coords(coords: Sequence[Sequence[Rational]], dim: int) -> PointRows:
    """The rows of the points whose exact coordinate tuples, each of ``dim``
    entries, are ``coords``.

    One ``np.array`` of every coordinate when numpy reads them all as
    int64; otherwise each over the lcm of its denominators
    (:func:`_over_lcm`), in the one primitive form (:func:`_primitive_rows`).
    """
    if coords:
        # Fractions and ints past int64 make an object or float array
        matrix = np.array(coords)
        if matrix.dtype == np.int64:
            return PointRows._of(dim, matrix, np.ones(len(coords), np.int64))
    return _primitive_rows(dim, *_over_lcm(_pairs(coords, dim)))


def _primitive_rows(dim: int, matrix: np.ndarray, q: np.ndarray) -> PointRows:
    """The points ``matrix[i] / q[i]`` of R^``dim`` (``q > 0``) in the one
    primitive form: each integer row and its q divided by their gcd."""
    g = np.gcd(np.gcd.reduce(matrix, axis=1, initial=0), q)  # positive, since q is
    return PointRows._of(dim, matrix // g[:, None], q // g)


def _pairs(rows: Sequence[Sequence[Rational]], width: int) -> np.ndarray:
    """The exact values ``rows``, each of ``width`` entries, as one integer
    (len(rows), width, 2) array of (numerator, denominator) pairs."""
    pairs = np.array([[(x.numerator, x.denominator) for x in row] for row in rows], dtype=object)
    (pairs,), _ = _int_arrays(pairs.reshape(len(rows), width, 2))
    return pairs


def _over_lcm(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, q)``: each row of the integer (..., k, 2) (numerator,
    denominator) ``pairs`` as the integer row ``rows`` over ``q`` > 0, the
    lcm of its denominators; a zero denominator is :class:`InvalidInput`.
    Each lcm step, and then the rows, run in int64 while they provably fit
    and in Python ints from the first that might not."""
    num, den = pairs[..., 0], pairs[..., 1]
    if not den.all():
        raise InvalidInput("zero denominator in a rational")
    num, den = np.where(den < 0, -num, num), abs(den)
    q = np.ones(den.shape[:-1], dtype=den.dtype)
    for k in range(den.shape[-1]):
        step = q // np.gcd(q, den[..., k])
        if _exact_dtype(max(_largest(step), 1) * max(_largest(den[..., k]), 1)) is object:
            step, den, num = step.astype(object), den.astype(object), num.astype(object)
        q = step * den[..., k]
    scale = q[..., None] // den
    if _exact_dtype(max(_largest(scale), 1) * max(_largest(num), 1)) is object:
        scale, num = scale.astype(object), num.astype(object)
    return num * scale, q


def contains(f: Flat, p: RatPoint) -> bool:
    """Exact incidence test: does ``p`` satisfy every equation of ``f``?"""
    if f.ambient_dim != p.dim:
        raise InvalidInput(
            f"ambient dimension mismatch: flat in R^{f.ambient_dim}, point in R^{p.dim}"
        )
    for row, c in zip(f.equations, f.rhs):
        if sum(a * x for a, x in zip(row, p.coords)) != c:
            return False
    return True


def intersect(f1: Flat, f2: Flat) -> Flat | None:
    """Intersection of two flats; ``None`` when it is empty.

    The stacked system is reduced by exact elimination, so the dimension of
    the result is exactly ``d - rank`` of the combined constraints.
    """
    if f1.ambient_dim != f2.ambient_dim:
        raise InvalidInput("flats live in different ambient dimensions")
    try:
        return Flat(f1.ambient_dim, f1.equations + f2.equations, f1.rhs + f2.rhs)
    except InvalidInput:
        # both systems are well formed, so the only rejection is an
        # inconsistent stack: the flats are disjoint
        return None


def flats_equal(f1: Flat, f2: Flat) -> bool:
    """Set equality: equal dimensions, and ``f2`` contains ``f1`` (it holds
    f1's base point, and its equations vanish on f1's directions), since a
    flat inside another of its dimension is that flat.  This avoids
    comparing any canonical forms.
    """
    if f1.ambient_dim != f2.ambient_dim:
        raise InvalidInput("flats live in different ambient dimensions")
    return f1.dim == f2.dim and _holds(f2, *f1._solved())


# ---------------------------------------------------------------------------
# Complex hyperplanes and the coordinatewise real embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    re: int | Fraction
    im: int | Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _exact(re))
        object.__setattr__(self, "im", _exact(im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


@dataclass(frozen=True)
class ComplexHyperplane:
    """The hyperplane ``{z in C^d : a_1 z_1 + ... + a_d z_d = b}``."""

    a: tuple[ComplexRational, ...]
    b: ComplexRational

    def __init__(self, a: Sequence[ComplexRational], b: ComplexRational):
        coeffs = tuple(a)
        if not coeffs:
            raise InvalidInput("complex hyperplane needs at least one coefficient")
        if all(c.is_zero() for c in coeffs):
            raise InvalidInput("complex hyperplane needs a nonzero coefficient")
        object.__setattr__(self, "a", coeffs)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.a)

    def contains(self, point: Sequence[ComplexRational]) -> bool:
        if len(point) != len(self.a):
            raise InvalidInput("dimension mismatch in complex incidence test")
        total = ComplexRational(0, 0)
        for coeff, z in zip(self.a, point):
            total = total + coeff * z
        return total.re == self.b.re and total.im == self.b.im


def embed_complex_point(point: Sequence[ComplexRational]) -> RatPoint:
    """The real image of a complex point: interleaved (re, im) coordinates."""
    return RatPoint([x for z in point for x in (z.re, z.im)])


def embed_complex_hyperplane(h: ComplexHyperplane) -> Flat:
    """Real image of a complex hyperplane: a (2d-2)-flat in R^{2d}.

    Splitting ``sum a_j z_j = b`` into real and imaginary parts gives the
    two defining equations.  Membership is preserved in both directions:
    a complex point lies on ``h`` exactly when its real image lies on the
    returned flat.
    """
    d = h.dim
    row_re = [x for c in h.a for x in (c.re, -c.im)]
    row_im = [x for c in h.a for x in (c.im, c.re)]
    return Flat(2 * d, [row_re, row_im], [h.b.re, h.b.im])


# ---------------------------------------------------------------------------
# Generic extensions
# ---------------------------------------------------------------------------


def generic_extension(
    h: Flat,
    target_dim: int,
    ambient_dim: int,
    seed: int | Random,
    within: Flat | None = None,
    retry_budget: int = RETRY_BUDGET,
) -> Flat:
    """A random ``target_dim``-flat containing ``h``.

    Extension directions are drawn from a large integer box with seeded
    randomness.  When ``within`` is given (a flat containing ``h``), the
    draw is accepted only if the extension meets ``within`` exactly in
    ``h``; degenerate draws are retried, never emitted.

    ``h`` is read in integers off one elimination of its system
    (``Flat._solved``: a base point ``P / q`` and directions), and the
    draws are :func:`_extension_rows` on a stack of one (a ``Random`` seed
    ends where they leave it).  The accepted nullspace rows ``row / qn``
    are the extension's equations (``Flat._spanned``), each right-hand
    side one ``Fraction(row @ P, qn * q)``.
    """
    if _int(ambient_dim, "ambient dimension") != h.ambient_dim:
        raise InvalidInput("flat does not live in the stated ambient dimension")
    if not (h.dim < _int(target_dim, "target dimension") < ambient_dim):
        raise InvalidInput(
            f"target dimension must satisfy {h.dim} < k < {ambient_dim}, got {target_dim}"
        )
    point, q, directions = h._solved()
    guard = None
    if within is not None:
        if within.ambient_dim != ambient_dim:
            raise InvalidInput("guard flat lives in a different ambient dimension")
        if not _holds(within, point, q, directions):
            raise InvalidInput("guard flat must contain the flat being extended")
        guard, _ = _over_lcm(_pairs(within.equations, ambient_dim))
    rng = seed if isinstance(seed, Random) else Random(_int(seed, "seed"))
    (directions,), _ = _int_arrays(np.array(directions, dtype=object).reshape(
        len(directions), ambient_dim))
    qn, normal_rows = _extension_rows(directions[None], target_dim, rng, guard, retry_budget)
    qn, normal_rows = int(qn[0]), normal_rows[0].tolist()
    return Flat._spanned(
        ambient_dim,
        tuple(tuple(_exact(Fraction(x, qn)) for x in row) for row in normal_rows),
        tuple(_exact(Fraction(_dot(row, point), qn * q)) for row in normal_rows),
        target_dim,
    )


def _extension_rows(
    directions: np.ndarray, target_dim: int, rng: Random,
    guard: np.ndarray | None, retry_budget: int = RETRY_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of the generic extensions of N flats of R^d at once, for
    the (N, h, d) integer stack ``directions`` of their direction rows:
    ``(qn, rows)``, where the ``rows[j] / qn[j]`` (d - ``target_dim`` rows)
    are the equations through the origin of the span of flat j's
    directions and its accepted draws.

    Every draw is ``target_dim - h`` directions of d values
    ``rng.randint(-EXTENSION_BOX, EXTENSION_BOX)`` (:func:`_randints`); one
    group per flat, in flat order, then one per rejected draw.  A draw is
    rejected when its stack with the flat's directions has rank below
    ``target_dim`` (:func:`linalg.nullspaces`), or, for the (w, d) integer
    rows ``guard`` of a flat W containing every flat, when
    :func:`_meets_only_in_base` fails.  A rejected flat takes the next
    group and every later flat shifts by one, so the values go to the flats
    as a loop drawing flat by flat hands them out.  A flat whose
    ``retry_budget`` draws are all rejected raises
    :class:`DegenerateRandomness`, with ``rng`` set back before the first
    draw and made to draw that loop's values again.
    """
    n, h, d = directions.shape
    extra = target_dim - h
    budget = _int(retry_budget, "retry budget")
    if n and budget < 1:
        raise DegenerateRandomness(f"no verified generic extension after {budget} draws")
    state = rng.getstate() if n > 1 else None  # a stack of one never draws ahead
    values = _randints(rng, n * extra * d, -EXTENSION_BOX, EXTENSION_BOX)
    rejected = np.zeros(n, dtype=np.int64)
    accepted: list[tuple[np.ndarray, np.ndarray]] = []
    start = shift = 0
    while True:
        drawn = values[(start + shift) * extra * d :].reshape(n - start, extra, d)
        qn, rows, bad = linalg.nullspaces(np.concatenate((directions[start:], drawn), axis=1))
        if guard is not None:
            bad |= ~_meets_only_in_base(guard, drawn)
        if not bad.any():
            accepted.append((qn, rows))
            break
        first = int(bad.argmax())
        accepted.append((qn[:first], rows[:first]))
        start += first
        rejected[start] += 1
        if rejected[start] == budget:
            if start < n - 1:
                rng.setstate(state)
                _randints(rng, (start + shift + 1) * extra * d, -EXTENSION_BOX, EXTENSION_BOX)
            raise DegenerateRandomness(
                f"no verified generic extension after {budget} draws"
            )
        values = np.concatenate((values, _randints(rng, extra * d, -EXTENSION_BOX, EXTENSION_BOX)))
        shift += 1
    return (np.concatenate([qn for qn, _ in accepted]),
            np.concatenate([rows for _, rows in accepted]))


def _randints(rng: Random, n: int, low: int, high: int) -> np.ndarray:
    """``[rng.randint(low, high) for _ in range(n)]`` as an int64 array, and
    ``rng`` where those calls leave it, for a width w = high - low + 1 of k
    = 1 to 32 bits (else :class:`InvalidInput`).  Each call takes 32-bit
    words until one's top k bits are below w; each round draws, with one
    ``getrandbits``, a word per value still wanted and keeps those that pass."""
    width = high - low + 1
    if not 0 < width < 2**32:
        raise InvalidInput(f"draws of width {width} do not fit one 32-bit word")
    k = width.bit_length()
    kept, wanted = [], n
    while wanted:
        bits = rng.getrandbits(32 * wanted).to_bytes(4 * wanted, "little")
        values = np.frombuffer(bits, "<u4") >> (32 - k)
        kept.append(values[values < width])
        wanted -= len(kept[-1])
    return np.concatenate(kept, dtype=np.int64) + low if kept else np.zeros(0, np.int64)


def _holds(outer: Flat, point: Sequence[int], q: int, directions: Sequence[Sequence]) -> bool:
    """Whether ``outer`` contains the flat through ``point / q`` whose
    direction space ``directions`` span: each equation ``a @ x = c`` has
    ``a @ point == c * q``, and vanishes on every direction."""
    return all(
        _dot(row, point) == c * q for row, c in zip(outer.equations, outer.rhs)
    ) and not any(_dot(row, v) for row in outer.equations for v in directions)


def _meets_only_in_base(guard: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """For flats h inside the flat W whose equations are the (w, d) integer
    rows ``guard``: whether h extended by the directions ``drawn[j]`` (an
    (N, e, d) stack) gains their full dimension and meets W in h alone, for
    each j.

    A point p + u + v of the extension (p on h, u along h, v in the span of
    E = ``drawn[j]``) lies in W exactly when W v = 0, since W vanishes on
    h's directions.  So both hold exactly when W E c is nonzero for every
    nonzero coefficient vector c (a c with E c = 0, or with E c along h,
    has W E c = 0): when E W^T has rank e (:func:`linalg.full_row_rank`).
    The products are exact (:func:`linalg._exact_product`).
    """
    bound = max(_largest(drawn), 1) * guard.shape[1] * max(_largest(guard), 1)
    return linalg.full_row_rank(linalg._exact_product(drawn, guard.T, bound))


def _dot(a: Sequence, b: Sequence) -> int | Fraction:
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Collinearity
# ---------------------------------------------------------------------------


def find_collinear_triple(
    points: Sequence[RatPoint],
) -> tuple[int, int, int] | None:
    """Indices of three collinear points, or ``None`` if no triple exists.

    Exhaustive over all triples: for each anchor, directions to later points
    are reduced to a primitive representative; a repeated direction at one
    anchor is exactly a collinear triple through it, and every collinear
    triple repeats a direction at its lowest-index point or holds a copy
    of that point, which is on one line with it and any other point.
    """
    coords = [p.coords for p in points]  # each point read once
    n = len(coords)
    for i in range(n):
        seen: dict[tuple[int, ...], int] = {}
        pi = coords[i]
        for j in range(i + 1, n):
            delta = [a - b for a, b in zip(coords[j], pi)]
            key, _ = linalg.integer_row_and_offset(delta, 0)
            if key in seen:
                return (i, seen[key], j)
            # a copy (the zero key) is the first key seen, or it returned
            if seen and not (any(key) and any(next(iter(seen)))):
                return (i, next(iter(seen.values())), j)
            seen[key] = j
    return None
