"""Exact geometry: hyperplanes, intersections, embeddings, extensions."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from inclab import geometry, linalg
from inclab import (
    ComplexHyperplane,
    ComplexRational,
    DegenerateRandomness,
    Flat,
    IncidenceInstance,
    IntVector,
    InvalidInput,
    InvariantViolation,
    RatPoint,
    contains,
    embed_complex_hyperplane,
    embed_complex_point,
    find_collinear_triple,
    flats_equal,
    generic_extension,
    intersect,
    is_primitive,
    make_hyperplane,
)
from inclab.incidence import _group_flats, _int_point_matrix

from oracles import (
    collinear_triples_bruteforce,
    flats_equal_fraction,
    fraction_row_echelon,
    fraction_solve_affine,
    gcd_all,
    generic_extension_fraction,
    hyperplane_groups_nested,
    minor_rank,
    point_split_loop,
    rref_nullspace,
    runs_as_nested,
)


def P(*coords):
    return RatPoint(coords)


class TestHyperplanes:
    def test_line_through_point(self):
        line = make_hyperplane(IntVector((1, 1)), 3)
        assert line.dim == 1
        assert contains(line, P(1, 2))
        assert not contains(line, P(1, 1))

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidInput):
            make_hyperplane(IntVector((0, 0)), 1)

    def test_scaled_normals_define_the_same_flat(self):
        f1 = make_hyperplane(IntVector((2, 4, 6)), 0)
        f2 = make_hyperplane(IntVector((1, 2, 3)), 0)
        assert flats_equal(f1, f2)
        assert not flats_equal(f1, make_hyperplane(IntVector((1, 2, 3)), 1))

    def test_axis_flat_contains_axis_point(self):
        axis = Flat(3, [[1, 0, 0], [0, 1, 0]], [0, 0])
        assert axis.dim == 1
        assert contains(axis, P(0, 0, 5))

    def test_dimension_mismatch_raises(self):
        line = make_hyperplane(IntVector((1, 1)), 3)
        with pytest.raises(InvalidInput):
            contains(line, P(1, 2, 3))

    def test_inconsistent_system_is_not_a_flat(self):
        with pytest.raises(InvalidInput):
            Flat(2, [[1, 0], [1, 0]], [0, 1])

    def test_single_zero_row_with_nonzero_rhs_is_not_a_flat(self):
        with pytest.raises(InvalidInput):
            Flat(3, [[0, 0, 0]], [Fraction(1, 2)])

    def test_single_zero_row_with_zero_rhs_is_the_whole_space(self):
        whole = Flat(3, [[0, 0, 0]], [0])
        assert whole.dim == 3
        assert contains(whole, P(7, Fraction(-1, 3), 2))

    def test_single_rational_row_is_a_hyperplane(self):
        plane = Flat(3, [[Fraction(1, 2), 0, Fraction(-2, 3)]], [Fraction(5, 6)])
        assert plane.dim == 2
        assert plane.equations == ((Fraction(1, 2), Fraction(0), Fraction(-2, 3)),)
        assert contains(plane, P(Fraction(5, 3), 4, 0))
        assert not contains(plane, P(0, 0, 0))

    @pytest.mark.parametrize("ambient_dim, equations, rhs", [
        (2.5, [], []), (True, [[1]], [0]), (2.0, [[1, 0]], [0]), ("3", [], []),
    ])
    def test_non_integer_ambient_dimension_rejected(self, ambient_dim, equations, rhs):
        with pytest.raises(InvalidInput, match="ambient dimension must be an integer"):
            Flat(ambient_dim, equations, rhs)


# offsets: small, at the int64 guard, past int64 either way, and rational
FAMILY_OFFSETS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from((2**62 + 1, -(2**62) - 1, 2**63 - 1, -(2**63))),
    st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63) - 1),
    st.fractions(max_denominator=12),
)


@st.composite
def hyperplane_families(draw, d=None):
    """``(family, flats)``: hyperplanes of R^d over random nonzero normals
    (scaled, negative and repeated ones included), with int64 offsets or
    any exact ones, as the builders make them, and the flats
    ``make_hyperplane`` makes."""
    d = draw(st.integers(1, 5)) if d is None else d
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    normals = draw(st.lists(normal, max_size=4))
    offsets = st.integers(-9, 9) if draw(st.booleans()) else FAMILY_OFFSETS
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), offsets),
                          max_size=12 if normals else 0))
    ids = [i % len(normals) for i, _ in pairs]
    flats = [make_hyperplane(IntVector(normals[i]), c) for i, (_, c) in zip(ids, pairs)]
    return geometry._hyperplanes(d, normals, ids, [c for _, c in pairs]), flats


# a flat's scale factors and denominators: small, negative, and past int64
BLOCK_SCALES = st.one_of(st.integers(-4, 4).filter(bool),
                         st.sampled_from((2**62, -(2**62) - 1, 2**63, -(2**70) + 1)))


@st.composite
def flat_families(draw):
    """``(family, flats)``: random consistent systems of r >= 1 independent
    equations through random points, each equation an integer multiple of
    an integer row over an unreduced positive denominator, and the flats
    ``Flat(...)`` makes of the same exact values."""
    d = draw(st.integers(2, 5))
    r = draw(st.integers(1, d))
    rows, dens, flats = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        through = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
        a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                          min_size=r, max_size=r).filter(
            lambda a: len(linalg.integer_rref(a)[1]) == r))
        block = [[k * x for x in row + [sum(map(int.__mul__, row, through))]]
                 for row, k in zip(a, draw(st.lists(BLOCK_SCALES, min_size=r, max_size=r)))]
        den = draw(st.lists(BLOCK_SCALES.map(abs), min_size=r, max_size=r))
        rows.append(block)
        dens.append(den)
        values = [[Fraction(x, q) for x in row] for row, q in zip(block, den)]
        flats.append(Flat(d, [v[:-1] for v in values], [v[-1] for v in values]))
    return geometry.FlatFamily._of(d, r, rows, dens), flats


def assert_same_runs(family, flats):
    """``_group_flats`` of a family: the nested groups the per-flat oracle
    makes of the equal ``flats``."""
    runs = _group_flats(family)
    assert runs_as_nested(runs) == hyperplane_groups_nested(flats)
    return runs


def assert_int64_rule(family):
    """Positive denominators, and int64 exactly when every entry is within
    2^62."""
    assert (family.den > 0).all()
    big = max([abs(x) for x in family.rows.flat] + list(family.den.flat), default=0)
    assert family.rows.dtype == family.den.dtype == (np.int64 if big <= 2**62 else object)


class TestFlatFamily:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(flat_families(), st.integers(-7, 7), st.integers(-7, 7))
    def test_family_is_its_flats(self, case, lo, hi):
        family, flats = case
        as_tuple = tuple(flats)
        n, width = len(family), family.ambient_dim + 1
        assert n == len(flats) and family.rows.shape[1] == width
        r = len(family.rows) // n if n else 1
        assert np.diff(family.starts).tolist() == [r] * n
        assert list(family) == flats
        assert [family[j] for j in range(-n, n)] == flats + flats
        assert [f.dim for f in family] == [f.dim for f in flats] == [width - 1 - r] * n
        assert family.dims.tolist() == [width - 1 - r] * n
        assert family == as_tuple and as_tuple == family and family == flats
        assert hash(family) == hash(as_tuple)
        assert isinstance(family[lo:hi], geometry.FlatFamily)
        assert family[lo:hi] == as_tuple[lo:hi] and as_tuple[lo:hi] == family[lo:hi]
        assert family + as_tuple == as_tuple + family == as_tuple * 2
        assert type(family + as_tuple) is type(as_tuple + family) is geometry.FlatFamily
        for part in (family, family[lo:hi], family + as_tuple):
            assert_int64_rule(part)
        # grouped as the per-flat path groups the flats: hyperplanes off
        # their rows, over any denominators, and no other flat a hyperplane
        runs = assert_same_runs(family, as_tuple)
        assert runs.others.tolist() == ([] if r == 1 else list(range(n)))
        assert IncidenceInstance([], family, 2, 1).flats is family

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        hyperplane_families(d), hyperplane_families(d), hyperplane_families(d % 5 + 1))),
        st.integers(-14, 14), st.integers(-14, 14))
    def test_family_of_hyperplanes_is_its_hyperplanes(self, cases, lo, hi):
        (family, flats), (other, other_flats), (elsewhere, _) = cases
        as_tuple = tuple(flats)
        assert family.rows.shape == (len(flats), family.ambient_dim + 1)
        assert np.diff(family.starts).tolist() == [1] * len(flats)
        assert list(family) == flats
        assert [family[j] for j in range(-len(flats), len(flats))] == flats + flats
        # grouped off the rows as the per-flat path groups the flats
        assert_same_runs(family, as_tuple)
        assert IncidenceInstance([], family, 2, 1).flats is family
        # the tuple operations
        assert len(family) == len(flats)
        assert family[lo:hi] == as_tuple[lo:hi] and as_tuple[lo:hi] == family[lo:hi]
        assert family == as_tuple and as_tuple == family and family == flats
        assert hash(family) == hash(as_tuple)
        assert family + as_tuple == as_tuple + family == as_tuple * 2
        assert type(family + as_tuple) is type(as_tuple + family) is geometry.FlatFamily
        # two families of one d join into one, of one r or of several
        joined = family + other
        assert isinstance(joined, geometry.FlatFamily)
        assert joined == as_tuple + tuple(other_flats)
        assert_same_runs(joined, tuple(joined))
        assert_int64_rule(joined)
        whole = (Flat(family.ambient_dim, [], []),)
        assert family + whole == as_tuple + whole and whole + family == whole + as_tuple
        with pytest.raises(InvalidInput):
            family + elsewhere

    def test_hyperplane_offsets(self):
        # a rational offset p / q is the row [a q | p] over q, and every
        # offset reads back exact, past int64 included
        rational = geometry._hyperplanes(
            2, [(1, 2)], [0, 0, 0], [Fraction(4, 2), Fraction(1, 3), 2**62 + 1])
        assert rational.rows.tolist() == [[1, 2, 2], [3, 6, 1], [1, 2, 2**62 + 1]]
        assert rational.den.tolist() == [1, 3, 1]
        assert rational.rows.dtype == object
        assert [type(f.rhs[0]) for f in rational] == [int, Fraction, int]
        assert rational[1] == make_hyperplane(IntVector((1, 2)), Fraction(1, 3))
        assert rational[1].equations == ((1, 2),)
        assert list(rational) == [make_hyperplane(IntVector((1, 2)), c)
                                  for c in (2, Fraction(1, 3), 2**62 + 1)]
        wide = geometry._hyperplanes(1, [(1,)], [0, 0], [2**63, -(2**63) - 1])
        assert wide.rows.dtype == object
        assert list(wide) == [make_hyperplane(IntVector((1,)), c) for c in (2**63, -(2**63) - 1)]
        fits = geometry._hyperplanes(1, [(1,)], [0, 0], [2**62, -(2**62)])
        assert fits.rows.dtype == fits.den.dtype == np.int64
        assert list(fits) == [make_hyperplane(IntVector((1,)), c) for c in (2**62, -(2**62))]

    def test_immutable(self):
        family = geometry.FlatFamily._of(2, 2, [[[1, 0, 0], [0, 1, 0]]], [[1, 1]])
        with pytest.raises(AttributeError):
            family.rows = None
        with pytest.raises(ValueError):
            family.den[0] = 5
        with pytest.raises(ValueError):
            family.rows[0, 0] = 5

    def test_hyperplane_family_immutable(self):
        family = geometry._hyperplanes(2, [(1, 0)], [0], [1])
        with pytest.raises(AttributeError):
            family.rows = None
        with pytest.raises(ValueError):
            family.den[0] = 5
        with pytest.raises(ValueError):
            family.rows[0, 0] = 5

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0])
    def test_a_non_integer_entry_is_rejected(self, entry):
        # np.array(..., dtype=np.int64) would truncate it without a word
        with pytest.raises(InvariantViolation):
            geometry.FlatFamily._of(2, 1, [[[1, 0, entry]]], [[1]])
        with pytest.raises(InvariantViolation):
            geometry.FlatFamily._of(2, 1, np.array([[[1, 0, entry]]]), [[1]])


@pytest.mark.parametrize("entry", [2**62, -(2**62), 2**62 + 1, -(2**62) - 1, 2**63, -(2**63)])
def test_points_and_flats_share_one_int64_rule(entry):
    # int64 exactly when every entry is within 2^62, from lists, object
    # arrays and int64 arrays alike
    expected = np.int64 if abs(entry) <= 2**62 else object
    points = geometry.PointRows._of(
        2, np.array([[entry, 1]], dtype=object), np.array([1], dtype=object))
    flats = geometry.FlatFamily._of(2, 1, [[[1, 0, entry]]], [[1]])
    built = [(points.matrix, points.q), (flats.rows, flats.den)]
    if entry < 2**63:
        int64 = geometry.PointRows._of(2, np.array([[entry, 1]], dtype=np.int64), np.ones(1, int))
        built.append((int64.matrix, int64.q))
        assert int64 == points
    for matrix, q in built:
        assert matrix.dtype == q.dtype == expected
    assert points.matrix.tolist() == [[entry, 1]] and flats.rows.tolist() == [[1, 0, entry]]
    assert points.max_abs == abs(entry)


ROW_VALUES = (0, 1, -7, 2**62, -(2**62), 2**62 + 1, -(2**62) - 1, 2**63, -(2**63),
              -(2**64) - 5, Fraction(1, 2), Fraction(-5, 3), Fraction(2**64 + 1, 6))


def point_lists(d):
    """Lists of points of R^d, the empty list and repeated points included,
    of small integers and of integers and rationals across the int64 cuts."""
    point = st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(ROW_VALUES)),
                     min_size=d, max_size=d).map(RatPoint)
    return st.lists(point, max_size=5).flatmap(lambda pts: st.lists(
        st.sampled_from(pts), max_size=3).map(lambda copies: pts + copies)
        if pts else st.just(pts))


def _rows(points, d):
    return geometry._split_coords([p.coords for p in points], d)


def assert_same_rows(rows, expected):
    """``rows`` hold exactly ``expected``'s split, dtype, bound and flag."""
    assert isinstance(rows, geometry.PointRows)
    assert len(rows) == len(expected)
    if len(rows):
        assert rows.ambient_dim == expected.ambient_dim
    assert rows.matrix.dtype == rows.q.dtype == expected.matrix.dtype
    assert rows.matrix.tolist() == expected.matrix.tolist()
    assert rows.q.tolist() == expected.q.tolist()
    assert (rows.max_abs, rows.integral) == (expected.max_abs, expected.integral)


class TestPointRows:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.just(d), point_lists(d), point_lists(d))), st.data())
    def test_rows_are_their_points(self, case, data):
        d, points, other = case
        as_tuple = tuple(points)
        rows = _rows(points, d)
        # each point read is the RatPoint it was split from, number forms too
        assert list(rows) == points
        assert [[type(c) for c in p.coords] for p in rows] == [
            [type(c) for c in p.coords] for p in points]
        # the split is the point-by-point loop's, in int64 exactly when it fits
        split_rows, qs, max_abs = point_split_loop(points)
        assert rows.matrix.tolist() == split_rows and rows.q.tolist() == qs
        assert rows.max_abs == max_abs and rows.integral == all(q == 1 for q in qs)
        assert rows.matrix.dtype == (np.int64 if max_abs <= 2**62 else object)
        assert rows.matrix.shape == (len(points), d)
        # rows reached another way are the split of the equal tuple
        k = data.draw(st.integers(0, len(points)))
        padded = _rows(other + points + other, d)
        assert_same_rows(_int_point_matrix(as_tuple), rows)
        assert _int_point_matrix(rows) is rows
        assert IncidenceInstance(rows, [], 2, 1).points is rows
        assert_same_rows(padded[len(other) : len(other) + len(points)], rows)
        assert_same_rows(_rows(points[:k], d) + _rows(points[k:], d), rows)
        assert_same_rows(_rows(points[:k], d) + as_tuple[k:], rows)
        assert_same_rows(as_tuple[:k] + _rows(points[k:], d), rows)
        # the tuple operations
        lo, hi = data.draw(st.integers(-7, 7)), data.draw(st.integers(-7, 7))
        n = len(points)
        assert [rows[j] for j in range(-n, n)] == points + points
        assert rows[lo:hi] == as_tuple[lo:hi] and as_tuple[lo:hi] == rows[lo:hi]
        assert rows == as_tuple and as_tuple == rows and rows == points
        assert (rows == tuple(other)) == (as_tuple == tuple(other))
        assert hash(rows) == hash(as_tuple)
        joined = rows + tuple(other)
        assert joined == as_tuple + tuple(other) and tuple(other) + rows == tuple(other) + as_tuple
        assert isinstance(joined, geometry.PointRows)

    def test_points_of_another_dimension_are_rejected(self):
        rows = _rows([P(1, 2)], 2)
        with pytest.raises(InvalidInput):
            rows + (P(1, 2, 3),)
        with pytest.raises(InvalidInput):
            rows + _rows([P(1, 2, 3)], 3)
        with pytest.raises(InvalidInput):
            _int_point_matrix([P(1, 2), P(1, 2, 3)])
        assert rows + () is rows and () + rows is rows

    def test_immutable(self):
        rows = _rows([P(1, Fraction(1, 2))], 2)
        with pytest.raises(AttributeError):
            rows.q = None
        with pytest.raises(ValueError):
            rows.matrix[0, 0] = 5
        with pytest.raises(TypeError):
            geometry.PointRows(2, rows.matrix, rows.q)


def _dot(row, point):
    return sum(a * x for a, x in zip(row, point))


@st.composite
def flat_pairs(draw):
    """Two flats of one R^d, and True when they are known to be equal: the
    second is the first's system rewritten (rows scaled, redundant
    combinations and a zero row added, order shuffled), or another flat:
    the same rows through another point (parallel, mostly disjoint), other
    rows through the same point (often of equal dimension), a flat drawn on
    its own, or the whole space.  Either flat may come first."""
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rational_point = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=d, max_size=d)
    point = draw(rational_point)
    rows = draw(st.lists(vec, max_size=d + 1))
    first = Flat(d, rows, [_dot(row, point) for row in rows])
    kind = draw(st.sampled_from(("rewritten", "parallel", "through", "own", "whole")))
    equal = kind == "rewritten"
    if equal:
        scales = draw(st.lists(st.fractions(-3, 3, max_denominator=3).filter(bool),
                               min_size=len(rows), max_size=len(rows)))
        new = [[c * a for a in row] for c, row in zip(scales, rows)]
        for _ in range(draw(st.integers(0, 2))):
            coef = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            new.append([sum(c * row[i] for c, row in zip(coef, rows)) for i in range(d)])
        new += [[0] * d] * draw(st.integers(0, 1))
        new = draw(st.permutations(new))
        second = Flat(d, new, [_dot(row, point) for row in new])
    elif kind == "whole":
        zero_rows = [[0] * d] * draw(st.integers(0, 1))
        second = Flat(d, zero_rows, [0] * len(zero_rows))
    else:
        other_rows = rows if kind == "parallel" else draw(st.lists(vec, max_size=d + 1))
        other_point = point if kind == "through" else draw(rational_point)
        second = Flat(d, other_rows, [_dot(row, other_point) for row in other_rows])
    return (second, first, equal) if draw(st.booleans()) else (first, second, equal)


class TestSetEquality:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(flat_pairs())
    def test_set_equality_matches_the_fraction_oracle(self, case):
        # one containment check between flats of equal dimension, against
        # the slow path: ranks of the stacked rows plus a shared point
        f1, f2, equal = case
        expected = flats_equal_fraction(f1, f2)
        assert flats_equal(f1, f2) == flats_equal(f2, f1) == expected
        assert expected or not equal


class TestIntersect:
    def test_parallel_lines_empty(self):
        f1 = make_hyperplane(IntVector((1, 1)), 0)
        f2 = make_hyperplane(IntVector((1, 1)), 5)
        assert intersect(f1, f2) is None

    def test_two_lines_meet_in_a_point(self):
        meet = intersect(
            make_hyperplane(IntVector((1, 1)), 3),
            make_hyperplane(IntVector((1, -1)), 1),
        )
        assert meet is not None and meet.dim == 0
        point, _ = meet.solution()
        assert point.coords == (Fraction(2), Fraction(1))

    def test_generic_hyperplanes_in_r5_meet_in_3_flat(self):
        # expected dimension frozen from the minor-rank oracle on the
        # stacked 2x5 system (rank 2 -> dim 3)
        rows = [[1, 2, 0, -1, 3], [0, 1, 1, 1, -2]]
        assert minor_rank(rows) == 2
        meet = intersect(
            Flat(5, [rows[0]], [4]),
            Flat(5, [rows[1]], [1]),
        )
        assert meet is not None and meet.dim == 3

    def test_mismatched_ambient_raises(self):
        with pytest.raises(InvalidInput):
            intersect(make_hyperplane(IntVector((1, 1)), 0),
                      make_hyperplane(IntVector((1, 1, 1)), 0))

    def test_commutative_and_idempotent_up_to_set_equality(self):
        rng = Random(11)
        for _ in range(60):
            d = rng.randint(2, 4)
            f1 = _random_flat(rng, d)
            f2 = _random_flat(rng, d)
            m12, m21 = intersect(f1, f2), intersect(f2, f1)
            if m12 is None:
                assert m21 is None
            else:
                assert m21 is not None and flats_equal(m12, m21)
                assert flats_equal(intersect(m12, m12), m12)
            assert flats_equal(intersect(f1, f1), f1)

    def test_dimension_lower_bound_on_nonempty_meets(self):
        rng = Random(23)
        seen_nonempty = 0
        for _ in range(200):
            d = rng.randint(2, 5)
            f1 = _random_flat(rng, d)
            f2 = _random_flat(rng, d)
            meet = intersect(f1, f2)
            if meet is not None:
                seen_nonempty += 1
                assert meet.dim >= f1.dim + f2.dim - d
        assert seen_nonempty > 30  # the sweep actually exercised the bound


def _random_flat(rng: Random, d: int) -> Flat:
    n_eq = rng.randint(1, d - 1)
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(n_eq)]
        rhs = [Fraction(rng.randint(-2, 2)) for _ in range(n_eq)]
        if all(any(x != 0 for x in row) for row in rows):
            try:
                return Flat(d, rows, rhs)
            except InvalidInput:
                continue


class TestSolution:
    def test_solution_equals_one_elimination_of_the_system(self):
        # solution() eliminates the flat's system once, whether the
        # constructor eliminated it (to find its rank) or not (a
        # hyperplane); the whole space, with no equations, is read by the
        # same reader
        rng = Random(31)
        flats = [_random_flat(rng, rng.randint(2, 5)) for _ in range(80)]
        flats += [make_hyperplane(IntVector((0, -2, 3)), Fraction(5, 2)),
                  Flat(3, [[0, 0, 0]], [0]), Flat(2, [[1, 2], [2, 4]], [3, 6]),
                  Flat(3, [], [])]
        for f in flats:
            augmented = [list(row) + [c] for row, c in zip(f.equations, f.rhs)]
            p, q, basis = linalg.solve_rref(*linalg.integer_rref(augmented), f.ambient_dim)
            point, directions = f.solution()
            assert point == RatPoint([Fraction(x, q) for x in p])
            assert directions == [[Fraction(x, q) for x in v] for v in basis]
        assert Flat(3, [], []).solution() == (
            RatPoint([0, 0, 0]), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_kept_echelon_form_is_not_part_of_the_value(self):
        # a flat keeps no echelon form at all: its state is its four fields,
        # before and after solution() reads it
        a = Flat(2, [[1, 2], [2, 4]], [3, 6])
        b = Flat(2, [[1, 2], [2, 4]], [3, 6])
        a.solution()
        assert a == b and hash(a) == hash(b) and "echelon" not in repr(a)
        assert vars(a).keys() == {"ambient_dim", "equations", "rhs", "dim"}


    def test_extension_built_without_elimination_is_the_constructor_value(self):
        # a generic extension's rows come reduced on the nullspace's free
        # columns, which are in general not the pivots integer_rref picks
        # (free columns [2, 3] against pivots [0, 2] for an extension in
        # R^4); so solution() eliminates once, exactly as for Flat(...)
        rng = Random(5)
        for _ in range(80):
            d = rng.randint(2, 5)
            spanned = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(1, d))]
            q, rows = rref_nullspace(spanned)
            if not rows:
                continue
            normals = [[Fraction(x, q) for x in row] for row in rows]
            # right-hand sides whose denominators are not their rows'
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in normals]
            flat = Flat._spanned(d, tuple(tuple(map(geometry._exact, row)) for row in normals),
                                 tuple(map(geometry._exact, rhs)), d - len(normals))
            built = Flat(d, normals, rhs)
            assert flat == built and hash(flat) == hash(built) and flat.dim == built.dim
            assert flat._solved() == built._solved()
            assert flat.solution() == built.solution()

    def test_integer_view_is_the_solution_in_integers(self):
        rng = Random(8)
        flats = [_random_flat(rng, rng.randint(2, 5)) for _ in range(80)]
        flats += [make_hyperplane(IntVector((2, 3)), 1), Flat(2, [[1, 2], [2, 4]], [3, 6]),
                  Flat(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]], [1, 1, Fraction(1, 2)])]
        for f in flats:
            point, directions = f.solution()
            homogeneous, q, integer_dirs = f._solved()
            assert type(q) is int and q > 0 and all(type(x) is int for x in homogeneous)
            assert RatPoint([Fraction(x, q) for x in homogeneous]) == point
            assert len(integer_dirs) == len(directions)
            for v, u in zip(integer_dirs, directions):
                assert all(type(x) is int for x in v) and v == [q * x for x in u]


class TestIntVector:
    def test_integral_values_become_int(self):
        v = IntVector([Fraction(4, 2), np.int64(-3), 2.0, 5])
        assert v.coords == (2, -3, 2, 5)
        assert all(type(c) is int for c in v.coords)

    @pytest.mark.parametrize(
        "coords", [[Fraction(1, 2), 1.9, 3], [1.9, 3], [0, Fraction(-7, 3)]]
    )
    def test_non_integral_coordinate_rejected(self, coords):
        # int() would truncate these to a different vector
        with pytest.raises(InvalidInput):
            IntVector(coords)

    def test_no_hyperplane_from_a_non_integral_normal(self):
        with pytest.raises(InvalidInput):
            make_hyperplane(IntVector([0.5, 1]), 3)


class TestNonFiniteValues:
    # nan and inf have no exact ratio; Fraction raises ValueError or
    # OverflowError for them, which must surface as InvalidInput
    def test_point_with_nan_rejected(self):
        with pytest.raises(InvalidInput):
            RatPoint([float("nan"), 1])

    def test_vector_with_inf_rejected(self):
        with pytest.raises(InvalidInput):
            IntVector([float("inf"), 1])

    def test_flat_with_nan_coefficient_rejected(self):
        with pytest.raises(InvalidInput):
            Flat(2, [[float("nan"), 1]], [0])

    def test_flat_with_infinite_offset_rejected(self):
        with pytest.raises(InvalidInput):
            Flat(2, [[1, 1]], [float("-inf")])


class TestPrimitive:
    def test_spec_examples(self):
        assert not is_primitive(IntVector((2, 4)))
        assert is_primitive(IntVector((3, 5)))
        # gcd of all coordinates per the Euclid oracle
        assert gcd_all((0, 7, 14)) == 7
        assert not is_primitive(IntVector((0, 7, 14)))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInput):
            is_primitive(IntVector((0, 0, 0)))

    def test_multiples_are_never_primitive(self):
        rng = Random(3)
        for _ in range(100):
            d = rng.randint(1, 5)
            v = [rng.randint(-6, 6) for _ in range(d)]
            if all(x == 0 for x in v):
                continue
            j = rng.randint(2, 5)
            assert not is_primitive(IntVector([j * x for x in v]))


class TestHyperplaneContainsIff:
    def test_incidence_iff_dot_product(self):
        rng = Random(5)
        for _ in range(200):
            d = rng.randint(1, 5)
            v = IntVector([rng.randint(-5, 5) for _ in range(d)])
            if v.is_zero():
                continue
            c = rng.randint(-10, 10)
            p = P(*[rng.randint(-6, 6) for _ in range(d)])
            h = make_hyperplane(v, c)
            assert contains(h, p) == (v.dot(p) == c)


class TestComplexEmbedding:
    def test_d1_zero_hyperplane_is_the_origin(self):
        h = ComplexHyperplane((ComplexRational(1, 0),), ComplexRational(0, 0))
        flat = embed_complex_hyperplane(h)
        assert flat.ambient_dim == 2 and flat.dim == 0
        assert contains(flat, P(0, 0))

    def test_diagonal_plane_in_c2(self):
        # z1 = z2 with a = (1, -1), b = 0 -> {x1 = x2, y1 = y2} in R^4
        h = ComplexHyperplane(
            (ComplexRational(1, 0), ComplexRational(-1, 0)), ComplexRational(0, 0)
        )
        flat = embed_complex_hyperplane(h)
        assert flat.ambient_dim == 4 and flat.dim == 2
        expected = Flat(4, [[1, 0, -1, 0], [0, 1, 0, -1]], [0, 0])
        assert flats_equal(flat, expected)

    def test_c3_random_solutions_satisfy_both_real_equations(self):
        # i z1 + z3 = 1 + i: solve for z3 at random rational z1, z2
        i = ComplexRational(0, 1)
        b = ComplexRational(1, 1)
        h = ComplexHyperplane((i, ComplexRational(0, 0), ComplexRational(1, 0)), b)
        flat = embed_complex_hyperplane(h)
        assert flat.ambient_dim == 6 and flat.dim == 4
        rng = Random(9)
        for _ in range(3):
            z1 = _rand_complex(rng)
            z2 = _rand_complex(rng)
            z3 = b - i * z1
            point = (z1, z2, z3)
            assert h.contains(point)
            image = embed_complex_point(point)
            for row, c in zip(flat.equations, flat.rhs):
                assert sum(a * x for a, x in zip(row, image.coords)) == c

    def test_membership_preserved_both_directions(self):
        rng = Random(31)
        checked = 0
        for _ in range(100):
            d = rng.randint(1, 4)
            coeffs = tuple(_rand_complex(rng) for _ in range(d))
            if all(c.is_zero() for c in coeffs):
                continue
            b = _rand_complex(rng)
            h = ComplexHyperplane(coeffs, b)
            flat = embed_complex_hyperplane(h)
            if rng.random() < 0.5:
                point = _solve_onto(h, rng)
            else:
                point = tuple(_rand_complex(rng) for _ in range(d))
            assert h.contains(point) == contains(flat, embed_complex_point(point))
            checked += 1
        assert checked >= 90

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(InvalidInput):
            ComplexHyperplane((ComplexRational(0, 0),), ComplexRational(1, 0))


def _rand_complex(rng: Random) -> ComplexRational:
    return ComplexRational(
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
    )


def _solve_onto(h: ComplexHyperplane, rng: Random):
    """A random point exactly on h: fix all but one pivot coordinate."""
    pivot = next(i for i, c in enumerate(h.a) if not c.is_zero())
    zs = [_rand_complex(rng) for _ in range(len(h.a))]
    rest = ComplexRational(0, 0)
    for i, (c, z) in enumerate(zip(h.a, zs)):
        if i != pivot:
            rest = rest + c * z
    target = h.b - rest
    a = h.a[pivot]
    denom = a.re * a.re + a.im * a.im
    zs[pivot] = ComplexRational(
        (a.re * target.re + a.im * target.im) / denom,
        (a.re * target.im - a.im * target.re) / denom,
    )
    return tuple(zs)


class TestGenericExtension:
    def test_line_through_point_meets_plane_only_there(self):
        point_flat = Flat(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 0])
        assert point_flat.dim == 0
        plane = make_hyperplane(IntVector((0, 0, 1)), 0)  # z = 0 contains the point
        line = generic_extension(point_flat, 1, 3, seed=4, within=plane)
        assert line.dim == 1
        meet = intersect(line, plane)
        assert meet is not None and flats_equal(meet, point_flat)

    def test_extension_contains_original_and_has_requested_rank(self):
        x_axis_in_r4 = Flat(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 0])
        assert x_axis_in_r4.dim == 1
        plane = generic_extension(x_axis_in_r4, 2, 4, seed=12)
        assert plane.dim == 2
        assert len(plane.equations) == 2  # 2x4 system of rank 2
        point, basis = x_axis_in_r4.solution()
        assert contains(plane, point)
        for vec in basis:
            shifted = RatPoint([a + b for a, b in zip(point.coords, vec)])
            assert contains(plane, shifted)

    def test_guard_flat_must_contain_original(self):
        z_axis = Flat(3, [[1, 0, 0], [0, 1, 0]], [0, 0])
        disjoint = make_hyperplane(IntVector((1, 0, 0)), 1)  # x = 1 misses it
        crossing = make_hyperplane(IntVector((0, 0, 1)), 0)  # z = 0 meets it once
        for within in (disjoint, crossing):
            with pytest.raises(InvalidInput):
                generic_extension(z_axis, 2, 3, seed=1, within=within)

    def test_draw_inside_guard_flat_is_rejected_then_retried(self, monkeypatch):
        monkeypatch.setattr(geometry, "EXTENSION_BOX", 5)
        z_axis = Flat(3, [[1, 0, 0], [0, 1, 0]], [0, 0])
        within = make_hyperplane(IntVector((1, 0, 0)), 0)  # x = 0 contains the z-axis
        # with draws from [-5, 5], the first draw of seed 7, (0, -3, 1), lies
        # in x = 0: the extension is ``within`` itself and meets it in a
        # plane; the second, (5, -5, -4), is generic
        reference = Random(7)
        assert [reference.randint(-5, 5) for _ in range(6)] == [0, -3, 1, 5, -5, -4]
        rng = Random(7)
        plane = generic_extension(z_axis, 2, 3, seed=rng, within=within)
        assert rng.getstate() == reference.getstate()  # exactly two draws were made
        assert flats_equal(plane, make_hyperplane(IntVector((1, 1, 0)), 0))
        meet = intersect(plane, within)
        assert meet is not None and flats_equal(meet, z_axis)

    @pytest.mark.parametrize("target_dim, ambient_dim, seed, retry_budget", [
        (1.5, 2, 1, 8), (True, 2, 1, 8), (1, 2.0, 1, 8), (1, 2, 1.5, 8), (1, 2, "1", 8),
        (1, 2, 1, 8.0),
    ])
    def test_non_integer_parameters_rejected(self, target_dim, ambient_dim, seed, retry_budget):
        # a seed may be an int or a Random; every other parameter an int
        point = Flat(2, [[1, 0], [0, 1]], [0, 0])
        with pytest.raises(InvalidInput, match="must be an integer"):
            generic_extension(point, target_dim, ambient_dim, seed, retry_budget=retry_budget)

    def test_k_equal_dim_rejected(self):
        point_flat = Flat(2, [[1, 0], [0, 1]], [0, 0])
        with pytest.raises(InvalidInput):
            generic_extension(point_flat, 0, 2, seed=1)
        line = make_hyperplane(IntVector((1, 0)), 0)
        with pytest.raises(InvalidInput):
            generic_extension(line, 1, 2, seed=1)
        with pytest.raises(InvalidInput):
            generic_extension(line, 2, 2, seed=1)


def _flat_through(point, directions, d):
    """The flat through ``point`` spanned by ``directions``, its equations
    taken from the Fraction oracle's nullspace."""
    if directions:
        normals = fraction_solve_affine(directions, [0] * len(directions))[1]
    else:
        normals = [[int(i == j) for j in range(d)] for i in range(d)]
    return Flat(d, normals, [sum(a * x for a, x in zip(row, point)) for row in normals])


def _meet_dim(f1, f2):
    """Dimension of the meet of two flats from the Fraction oracle's echelon
    form of their stacked systems; ``None`` when they are disjoint."""
    d = f1.ambient_dim
    rows = [list(r) + [c] for r, c in zip(f1.equations + f2.equations, f1.rhs + f2.rhs)]
    if not rows:
        return d
    _, pivots = fraction_row_echelon(rows)
    return None if d in pivots else d - len(pivots)


@st.composite
def guarded_draws(draw):
    """A flat h, a guard containing it or not, and drawn directions that are
    generic, dependent (on each other or on h) or inside the guard."""
    d = draw(st.integers(2, 5))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    point = draw(vec)
    h_dirs = draw(st.lists(vec, max_size=d - 2))
    w_dirs = draw(st.lists(vec, max_size=d - 1 - len(h_dirs)))
    kind = draw(st.sampled_from(("contains", "own", "contains", "pivot")))
    if kind == "contains":
        guard = _flat_through(point, h_dirs + w_dirs, d)
    elif kind == "pivot":  # through h's point, but maybe not along h
        guard = _flat_through(point, draw(st.lists(vec, max_size=d - 1)), d)
    else:  # a guard drawn on its own, which may miss h
        guard = _flat_through(draw(vec), draw(st.lists(vec, max_size=d - 1)), d)
    drawn = []
    for kind in draw(st.lists(st.sampled_from(("generic", "dependent", "inside")),
                              min_size=1, max_size=d - 1)):
        if kind == "generic":
            drawn.append(draw(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d)))
        else:
            pool = drawn + h_dirs if kind == "dependent" else h_dirs + w_dirs
            coef = draw(st.lists(st.integers(-2, 2), min_size=len(pool), max_size=len(pool)))
            drawn.append([sum(c * v[i] for c, v in zip(coef, pool)) for i in range(d)])
    return _flat_through(point, h_dirs, d), guard, point, h_dirs, drawn


@st.composite
def extension_cases(draw):
    """A flat h of R^d, a target dimension, a guard flat or None, a draw
    source given twice (the seed for the library and an equal stream for
    the oracle), and the draws' box: the library's, {-1, 0, 1}, where
    retries are common, or {0}, where every draw is rejected."""
    d = draw(st.integers(2, 5))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rational = st.fractions(-3, 3, max_denominator=4)
    kind = draw(st.sampled_from(("lifted", "point", "through")))
    if kind == "lifted":  # a hyperplane of R^d0 such as 2x + 3y = 1, in x_j = 0 for j >= d0
        d0 = draw(st.integers(1, d - 1))
        normal = draw(st.lists(st.integers(-3, 3), min_size=d0, max_size=d0).filter(any))
        carrier = [[int(i == j) for i in range(d)] for j in range(d0, d)]
        h = Flat(d, [normal + [0] * (d - d0)] + carrier, [draw(rational)] + [0] * (d - d0))
    elif kind == "point":  # a rational point cut out by non-coordinate rows
        point = draw(st.lists(rational, min_size=d, max_size=d))
        rows = draw(st.lists(vec, min_size=d, max_size=d))
        h = Flat(d, rows, [sum(a * x for a, x in zip(row, point)) for row in rows])
    else:
        point = draw(st.lists(rational, min_size=d, max_size=d))
        h = _flat_through(point, draw(st.lists(vec, max_size=d - 2)), d)
    assume(h.dim < d - 1)
    target = draw(st.integers(h.dim + 1, d - 1))
    base, h_dirs = fraction_solve_affine(h.equations, h.rhs)
    guard = draw(st.sampled_from(("none", "through", "own") + ("carrier",) * (kind == "lifted")))
    if guard == "none":
        within = None
    elif guard == "through":  # contains h, on rows that are not coordinate rows
        within = _flat_through(base, h_dirs + draw(st.lists(vec, max_size=d - 1)), d)
    elif guard == "own":  # drawn on its own, so it may miss h
        within = _flat_through(draw(vec), draw(st.lists(vec, max_size=d - 1)), d)
    else:
        within = Flat(d, carrier, [0] * len(carrier))
    seed = draw(st.integers(0, 2**32))
    box = draw(st.sampled_from((None, None, 1, 1, 0)))
    if draw(st.booleans()):
        return h, target, within, seed, Random(seed), box
    return h, target, within, Random(seed), Random(seed), box


class TestExtensionOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(extension_cases())
    def test_integer_path_matches_the_fraction_oracle(self, case):
        # the same draws through h.solution(), Fraction dots and Flat(...)
        # give the same flat, value for value and type for type
        h, target, within, seed, oracle_rng, box = case
        d = h.ambient_dim
        with pytest.MonkeyPatch.context() as patch:
            if box is not None:
                patch.setattr(geometry, "EXTENSION_BOX", box)
            try:
                expected = generic_extension_fraction(
                    h, target, d, oracle_rng, within,
                    geometry.RETRY_BUDGET, geometry.EXTENSION_BOX)
            except ValueError:
                with pytest.raises(InvalidInput):
                    generic_extension(h, target, d, seed, within=within)
                return
            if expected is None:
                with pytest.raises(DegenerateRandomness):
                    generic_extension(h, target, d, seed, within=within)
            else:
                got = generic_extension(h, target, d, seed, within=within)
        if isinstance(seed, Random):  # it ends where the oracle's randint calls end
            assert seed.getstate() == oracle_rng.getstate()
        if expected is None:
            return
        assert (got.equations, got.rhs, got.dim) == (expected.equations, expected.rhs, expected.dim)
        assert [list(map(type, row)) for row in got.equations + (got.rhs,)] == [
            list(map(type, row)) for row in expected.equations + (expected.rhs,)]
        assert got.solution() == expected.solution()


class TestGuardChecks:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(guarded_draws())
    def test_guard_checks_match_the_oracle_meet(self, case):
        h, guard, point, h_dirs, drawn = case
        d = h.ambient_dim
        holds = _meet_dim(h, guard) == h.dim
        assert geometry._holds(guard, *h._solved()) == holds
        if not holds:
            return
        extension = _flat_through(point, h_dirs + drawn, d)
        wanted = extension.dim == h.dim + len(drawn) and _meet_dim(extension, guard) == h.dim
        rows = [linalg.clear_denominators(row)[0] for row in guard.equations]
        got = geometry._meets_only_in_base(np.array(rows, dtype=object).reshape(-1, d),
                                           np.array([drawn]))
        assert got.tolist() == [wanted]


class TestCollinearity:
    def test_matches_bruteforce_on_random_sets(self):
        rng = Random(77)
        for _ in range(40):
            d = rng.randint(2, 4)
            # repeated points included: two equal points are on a line with any third
            pts = [RatPoint(tuple(rng.randint(0, 4) for _ in range(d)))
                   for _ in range(rng.randint(3, 12))]
            triples = collinear_triples_bruteforce(pts)
            found = find_collinear_triple(pts)
            if triples:
                assert found is not None
                i, j, k = found
                a = [x - y for x, y in zip(pts[j].coords, pts[i].coords)]
                b = [x - y for x, y in zip(pts[k].coords, pts[i].coords)]
                assert minor_rank([a, b]) <= 1
            else:
                assert found is None

    def test_explicit_collinear_triple_found(self):
        pts = [P(0, 0), P(5, 7), P(1, 1), P(3, 3)]
        assert find_collinear_triple(pts) == (0, 2, 3)

    @pytest.mark.parametrize("points", [
        [P(i, i * i) for i in range(9)],  # on a parabola: no triple
        [P(i, i * i) for i in range(9)] + [P(4, 16)],  # a repeated point
        [P(Fraction(i, 3), i * i) for i in range(9)] + [P(5, 5), P(7, 9)],
    ])
    def test_rows_give_the_verdict_of_the_tuple_reading_each_point_once(
            self, monkeypatch, points):
        rows = _rows(points, 2)
        expected = find_collinear_triple(tuple(points))
        built = []
        point = geometry.PointRows._point
        monkeypatch.setattr(geometry.PointRows, "_point", staticmethod(
            lambda row, q: built.append(row) or point(row, q)))
        assert find_collinear_triple(rows) == expected
        assert len(built) == len(points)

    def test_a_copy_of_the_anchor_makes_a_triple(self):
        assert find_collinear_triple([P(0, 0), P(0, 0), P(1, 2)]) == (0, 1, 2)
        assert find_collinear_triple([P(0, 0), P(1, 2), P(0, 0)]) == (0, 1, 2)
        assert find_collinear_triple([P(3, 1), P(0, 0), P(1, 2), P(0, 0)]) == (0, 1, 3)
        assert find_collinear_triple([P(0, 0), P(0, 0)]) is None
