"""The one exactness rule of integer products, at its limits.

``linalg._exact_dtype`` picks float64 for a proved bound within 2^53,
int64 within 2^62 and Python ints past it.  Every product site is run on
both sides of both limits, with entries of -2^63 and 2^63 - 1, zero rows
and empty sides, and compared with the same site computed in Python ints
throughout (the chooser forced to ``object``), with Python-int products
and with direct substitution.
"""

from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import lcm
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inclab import (
    ConstructionConfig,
    IncidenceInstance,
    InvalidInput,
    RatPoint,
    build_grid_construction,
    count_incidences,
    embed_configuration,
    geometry,
    incidence,
    linalg,
)
from inclab.geometry import FlatFamily, _hyperplanes, _int_point_matrix

from oracles import count_incidences_direct, point_split_loop

LIMITS = (2**53, 2**62)
EDGES = (-(2**63), 2**63 - 1)  # the int64 extremes; abs(-2^63) wraps in int64


def straddling(width: int) -> list[int]:
    """The entries x whose bound x * width (the other side's entries at
    most 1) is the largest within each limit and the least past it."""
    return [x for limit in LIMITS for x in (limit // width, limit // width + 1)]


@contextmanager
def chooser(answers: list | None = None, force=None):
    """The dtype chooser, recording its answers in ``answers``, or
    answering ``force`` whatever the bound: ``object`` puts every product
    and every stored row in Python ints."""
    real = linalg._exact_dtype

    def choose(bound):
        dtype = real(bound) if force is None else force
        if answers is not None:
            answers.append(dtype)
        return dtype

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_exact_dtype", choose)
        patch.setattr(geometry, "_exact_dtype", choose)
        yield


def in_python_ints(site, *args):
    with chooser(force=object):
        return site(*args)


def as_lists(value):
    """Arrays, tuples and lists of them as nested lists of Python values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [as_lists(v) for v in value]
    return value


@pytest.mark.parametrize("bound, dtype", [
    (0, np.float64), (1, np.float64), (2**53, np.float64), (2**53 + 1, np.int64),
    (2**62, np.int64), (2**62 + 1, object), (2**63, object), (2**200, object),
])
def test_chooser_at_both_limits(bound, dtype):
    assert linalg._exact_dtype(bound) is dtype


def test_norms_and_largest_at_the_int64_extremes():
    # abs(-2^63) wraps to itself in int64: both read it as 2^63
    a = np.array([[-(2**63), 0], [2**63 - 1, 1], [0, 0]], dtype=np.int64)
    assert linalg._largest(a) == 2**63
    assert linalg._norms(a).tolist() == [2**63, 2**63, 0]
    assert linalg._norms(np.array([[2**31, -(2**31)]], dtype=np.int64)).dtype == np.int64
    assert linalg._norms(np.zeros((0, 3), dtype=np.int64)).tolist() == []
    assert linalg._largest(np.zeros((0, 3), dtype=np.int64)) == 0


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("x", sorted({*straddling(1), *straddling(3), *EDGES}))
def test_products_are_the_python_int_products(width, x):
    # a stack of rows times a matrix, with the largest entry x on either
    # side and 1 on the other, is exact in whichever dtype the bound picks
    a = np.array([[[x] + [1] * (width - 1), [0] * width], [[1] * width, [-1] * width]],
                 dtype=np.int64)
    b = np.array([[1, -1, 0]] * width, dtype=np.int64)
    for left, right in ((a, b), (b.T[None], a[0].T)):
        bound = max(linalg._largest(left), 1) * width * max(linalg._largest(right), 1)
        got = linalg._exact_product(left, right, bound)
        want = [[[sum(p * q for p, q in zip(row, col)) for col in right.T.tolist()]
                 for row in block] for block in left.tolist()]
        assert got.tolist() == want
        assert got.dtype == (object if bound > 2**62 else np.int64)


@pytest.mark.parametrize("left, right", [((0, 3), (3, 2)), ((2, 0), (0, 2)), ((2, 3), (3, 0))])
def test_products_of_empty_sides(left, right):
    a, b = np.ones(left, dtype=np.int64), np.ones(right, dtype=np.int64)
    got = linalg._exact_product(a, b, 1)
    assert got.shape == (left[0], right[1]) and got.dtype == np.int64
    assert got.tolist() == (a @ b).tolist()


def test_chooser_answers_cover_every_dtype():
    # the straddling entries reach all three answers at one product site
    answers = []
    with chooser(answers):
        for x in straddling(2):
            a = np.array([[x, 1]], dtype=np.int64)
            linalg._exact_product(a, np.ones((2, 1), dtype=np.int64),
                                  linalg._largest(a) * 2)
    assert answers == [np.float64, np.int64, np.int64, object]


class TestProductSites:
    """Every site against itself in Python ints, across both limits."""

    @pytest.mark.parametrize("x", sorted({*straddling(4), *EDGES, 0}))
    def test_hull_traces(self, x):
        # rows [a | c] of R^3 (width 4) against a hull frame t
        rows = np.array([[[x, 1, 0, 2], [0, 0, 0, 0]], [[1, 1, 0, 2], [2, 2, 0, 4]],
                         [[0, 0, 0, 0], [0, 0, 0, 1]], [[1, 0, 1, 0], [x, 0, 1, 0]]],
                        dtype=np.int64)
        t = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        assert as_lists(incidence._hull_traces(rows, t)) == as_lists(
            in_python_ints(incidence._hull_traces, rows, t))
        assert as_lists(incidence._hull_traces(rows[:0], t)) == [[], []]

    @pytest.mark.parametrize("x", sorted({*straddling(3), *straddling(4), 0}))
    def test_affine_hull(self, x):
        # points of R^3 on a line, a plane and all of space
        for coords in ([[x, 0, 1], [0, 0, 1]], [[x, 1, 0], [0, 0, 0], [1, 1, 0]],
                       [[x, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]):
            matrix = np.array(coords, dtype=np.int64 if abs(x) <= 2**62 else object)
            q = np.ones(len(coords), dtype=matrix.dtype)
            assert as_lists(linalg.affine_hull(matrix, q)) == as_lists(
                in_python_ints(linalg.affine_hull, matrix, q))

    @pytest.mark.parametrize("x", sorted({*straddling(3), *EDGES, 0}))
    def test_meets_only_in_base(self, x):
        guard = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
        drawn = np.array([[[x, 1, 0], [0, 0, 1]], [[1, x, 0], [1, x, 0]],
                          [[0, 0, 0], [0, 0, 0]]], dtype=np.int64)
        got = geometry._meets_only_in_base(guard, drawn)
        assert got.tolist() == in_python_ints(geometry._meets_only_in_base, guard, drawn).tolist()
        products = np.array([[[sum(p * q for p, q in zip(e, w)) for w in guard.tolist()]
                              for e in block] for block in drawn.tolist()], dtype=object)
        assert got.tolist() == linalg.full_row_rank(products).tolist()
        assert geometry._meets_only_in_base(guard, drawn[:0]).tolist() == []
        assert geometry._meets_only_in_base(guard[:0], drawn).tolist() == [False] * 3

    @pytest.mark.parametrize("x", sorted({*straddling(1), *straddling(2), *EDGES, 0}))
    def test_dots_counts_and_member_lists(self, x):
        # the largest point entry x, and rows whose 1-norms reach it: every
        # count and member list equals direct substitution
        points = [RatPoint(c) for c in ((x, 1), (1, 0), (0, 0), (x, x), (Fraction(1, 2), 1))]
        split = _int_point_matrix(points)
        for row in ([1, 0], [1, -1], [0, 0], [2**31, 1], [x, 1]):
            dots = incidence._exact_dots(split, row)
            assert dots.tolist() == [sum(a * p for a, p in zip(row, r))
                                     for r in split.matrix.tolist()]
        lines = FlatFamily._of(2, 2, [[[1, 0, x], [0, 1, 1]], [[0, 0, 0], [1, 1, 2 * x]]],
                               np.ones((2, 2), np.int64))
        planes = _hyperplanes(2, [(1, 0), (1, 1)], [0, 1, 1, 0], [x, 0, x, Fraction(1, 2)])
        empty = FlatFamily._of(2, 2, np.zeros((0, 3), np.int64), np.zeros(0, np.int64))
        for flats in (lines, planes, tuple(lines) + tuple(planes), empty):
            for pts in (points, []):
                inst = IncidenceInstance(pts, flats, 2, 1)
                direct = count_incidences_direct(pts, tuple(flats))
                assert count_incidences(inst, "naive") == direct
                assert count_incidences(inst, "hashed") == direct
                with chooser(force=object):
                    slow = IncidenceInstance(pts, flats, 2, 1)
                    assert count_incidences(slow, "naive") == direct
                    members = slow._other_members
                assert inst._other_members == members

    @pytest.mark.parametrize("offset", [0, 7, 10**4, 10**6, 10**9, 2**40, 2**62])
    def test_embed_blocks(self, offset):
        # the draws (about 10^6) times base points of growing offsets carry
        # the blocks' bound across both limits
        inner = build_grid_construction(ConstructionConfig(d=2, m=9, n=6, seed=3))
        flats = _hyperplanes(2, [(1, 2), (3, -1)], [0, 1, 0], [offset, -offset, 1])
        inner = replace(inner, flats=flats, padding_start=len(flats), predicted_incidences=0)
        for k in (2, 3):
            got = embed_configuration(inner, 5, k, seed=4)
            want = in_python_ints(embed_configuration, inner, 5, k, 4)
            assert got.flats.rows.tolist() == want.flats.rows.tolist()
            assert got.flats.den.tolist() == want.flats.den.tolist()


PAIR_VALUES = (0, 1, -7, 2**31, 2**62, -(2**62) - 1, 2**63 - 1, -(2**63), 2**64 + 3)
DENOMINATORS = (1, -1, 2, -6, 4, 9, 2**31 - 1, -(2**31), 2**62, 2**63 + 1, -(2**64))


class TestSplitter:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(st.lists(st.tuples(
        st.one_of(st.integers(-6, 6), st.sampled_from(PAIR_VALUES)),
        st.one_of(st.integers(-6, 6).filter(bool), st.sampled_from(DENOMINATORS))),
        min_size=d, max_size=d), max_size=5).map(lambda pts: (d, pts))))
    def test_pairs_split_as_the_point_by_point_loop(self, case):
        # negative and unreduced denominators, entries past int64 and ints
        # beside rationals: the clearer and the one primitive form give the
        # loop's split of the Fractions the pairs stand for
        d, pairs = case
        array = np.array(pairs, dtype=object).reshape(len(pairs), d, 2)
        (array,), _ = geometry._int_arrays(array)
        rows = geometry._primitive_rows(d, *geometry._over_lcm(array))
        points = [RatPoint([Fraction(n, q) for n, q in point]) for point in pairs]
        split, qs, max_abs = point_split_loop(points)
        assert rows.matrix.tolist() == split and rows.q.tolist() == qs
        assert rows.max_abs == max_abs
        assert rows.matrix.dtype == (np.int64 if max_abs <= 2**62 else object)
        assert list(rows) == points
        assert geometry._split_coords([p.coords for p in points], d) == rows

    @pytest.mark.parametrize("pairs", [[[[1, 0]]], [[[1, 2], [3, 0]], [[1, 1], [1, 1]]],
                                       [[[2**63, 0]]]])
    def test_zero_denominators_are_invalid(self, pairs):
        (array,), _ = geometry._int_arrays(np.array(pairs, dtype=object))
        with pytest.raises(InvalidInput):
            geometry._over_lcm(array)

    def test_lcm_steps_across_the_int64_limit(self):
        # each lcm step and the scaled rows move to Python ints once they
        # might pass 2^62, and stay exact
        for dens in ([2**31, 2**31 - 1], [3, 2**61], [2**62, 3], [-(2**31), 2**31 + 1, 7]):
            pairs = np.array([[[1, q] for q in dens]], dtype=np.int64)
            rows, q = geometry._over_lcm(pairs)
            assert q.tolist() == [lcm(*dens)]
            assert rows.tolist() == [[lcm(*dens) // den for den in dens]]


def test_replayed_draws_match_randint_for_many_seeds():
    # the embedding's draws, one getrandbits, are the randint loop's, and
    # so is the value drawn next
    for seed in range(30):
        rng, reference = Random(seed), Random(seed)
        got = geometry._randints(rng, 500, -geometry.EXTENSION_BOX, geometry.EXTENSION_BOX)
        want = [reference.randint(-geometry.EXTENSION_BOX, geometry.EXTENSION_BOX)
                for _ in range(500)]
        assert got.tolist() == want and rng.random() == reference.random()
