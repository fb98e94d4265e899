"""Counting strategies, K_{s,t} search, and the reporting bound."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from inclab import incidence
from inclab import (
    Flat,
    IncidenceInstance,
    IntVector,
    InvalidInput,
    InvariantViolation,
    KstWitness,
    RatPoint,
    ResourceLimit,
    contains,
    count_incidences,
    find_kst,
    incidence_masks,
    kst_bound_value,
    make_hyperplane,
)

from oracles import count_incidences_direct, first_kst_bruteforce, int_root_floor


def P(*coords):
    return RatPoint(coords)


def grid_and_axis_lines():
    points = [P(x, y) for x in range(3) for y in range(3)]
    flats = [make_hyperplane(IntVector((1, 0)), c) for c in range(3)]
    flats += [make_hyperplane(IntVector((0, 1)), c) for c in range(3)]
    return points, flats


class TestCounting:
    def test_single_point_on_single_line(self):
        inst = IncidenceInstance([P(1, 2)], [make_hyperplane(IntVector((1, 1)), 3)], 2, 1)
        assert count_incidences(inst) == 1

    def test_grid_with_axis_lines_counts_18(self):
        points, flats = grid_and_axis_lines()
        inst = IncidenceInstance(points, flats, 2, 1)
        assert count_incidences(inst, "naive") == 18
        assert count_incidences(inst, "hashed") == 18

    def test_empty_family_counts_zero(self):
        inst = IncidenceInstance([P(0, 0)], [], 2, 1)
        assert count_incidences(inst) == 0

    def test_unknown_strategy_rejected(self):
        points, flats = grid_and_axis_lines()
        with pytest.raises(InvalidInput):
            count_incidences(IncidenceInstance(points, flats, 2, 1), "fast")

    def test_rational_points_and_offsets_count_exactly(self):
        points = [P(Fraction(1, 2), Fraction(1, 3)), P(1, 1), P(Fraction(1, 2), 2)]
        flats = [
            Flat(2, [[2, 0]], [1]),             # x = 1/2
            Flat(2, [[Fraction(1, 3), 1]], [Fraction(4, 3)]),  # x/3 + y = 4/3
        ]
        inst = IncidenceInstance(points, flats, 2, 1)
        assert count_incidences(inst, "naive") == count_incidences(inst, "hashed") == 3

    def test_non_hyperplane_flats_are_counted(self):
        axis = Flat(3, [[1, 0, 0], [0, 1, 0]], [0, 0])
        points = [P(0, 0, z) for z in range(4)] + [P(1, 0, 0)]
        inst = IncidenceInstance(points, [axis], 2, 1)
        assert count_incidences(inst, "naive") == 4
        assert count_incidences(inst, "hashed") == 4

    def test_strategy_agreement_on_random_instances(self):
        rng = Random(20240501)
        for trial in range(200):
            d = rng.randint(2, 6)
            points = [
                P(*[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))
                    for _ in range(d)])
                for _ in range(rng.randint(1, 25))
            ]
            flats = []
            for _ in range(rng.randint(1, 15)):
                if rng.random() < 0.75:
                    v = IntVector([rng.randint(-3, 3) for _ in range(d)])
                    if v.is_zero():
                        continue
                    # bias offsets toward achieved dot products
                    if points and rng.random() < 0.7:
                        c = v.dot(rng.choice(points))
                    else:
                        c = rng.randint(-6, 6)
                    flats.append(make_hyperplane(v, c))
                else:
                    n_eq = rng.randint(2, max(2, d - 1))
                    rows, rhs = [], []
                    anchor = rng.choice(points) if points else P(*([0] * d))
                    for _ in range(n_eq):
                        row = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
                        if all(x == 0 for x in row):
                            row[rng.randrange(d)] = Fraction(1)
                        rows.append(row)
                        rhs.append(sum(a * x for a, x in zip(row, anchor.coords)))
                    flats.append(Flat(d, rows, rhs))
            if not flats:
                continue
            inst = IncidenceInstance(points, flats, 2, 1)
            naive = count_incidences(inst, "naive")
            hashed = count_incidences(inst, "hashed")
            assert naive == hashed, f"strategy split on trial {trial}"
            assert naive == count_incidences_direct(points, flats)

    def test_naive_hashed_masks_agree_across_int64_bounds(self):
        # coordinates on both sides of the int64-safe cut (2^62) and of the
        # old 2^31 cut, rational points, and non-hyperplane flats
        rng = Random(31062)
        magnitudes = (0, 1, 5, 2**31 - 1, 2**31, 2**31 + 1, 2**62 - 1, 2**62, 2**62 + 1)
        for trial in range(120):
            d = rng.randint(2, 3)
            big = rng.sample(magnitudes, 3)

            def coord():
                roll = rng.random()
                if roll < 0.15:
                    return Fraction(rng.randint(-7, 7), rng.choice((2, 3)))
                if roll < 0.6:
                    return rng.choice((-1, 1)) * rng.choice(big)
                return rng.randint(-3, 3)

            points = [P(*[coord() for _ in range(d)])
                      for _ in range(rng.randint(1, 12))]
            flats = []
            for _ in range(rng.randint(1, 10)):
                anchor = rng.choice(points)
                if rng.random() < 0.7:
                    v = IntVector([rng.randint(-2, 2) for _ in range(d)])
                    if v.is_zero():
                        continue
                    flats.append(make_hyperplane(v, v.dot(anchor)))
                else:
                    rows = [[rng.randint(-2, 2) for _ in range(d)]
                            for _ in range(d - 1)]
                    rows.append([rng.randint(-2, 2) for _ in range(d)])
                    rhs = [sum(a * x for a, x in zip(r, anchor.coords)) for r in rows]
                    flats.append(Flat(d, rows, rhs))
                if rng.random() < 0.2:
                    flats.append(flats[-1])  # duplicate flat
            if not flats:
                continue
            inst = IncidenceInstance(points, flats, 2, 1)
            naive = count_incidences(inst, "naive")
            hashed = count_incidences(inst, "hashed")
            popcount = sum(mask.bit_count() for mask in incidence_masks(points, flats))
            assert naive == hashed == popcount, f"split on trial {trial}"
            assert naive == count_incidences_direct(points, flats)

    def test_monotone_in_flats(self):
        rng = Random(99)
        points = [P(x, y) for x in range(4) for y in range(4)]
        flats = []
        last = 0
        for _ in range(30):
            v = IntVector([rng.randint(-2, 2), rng.randint(-2, 2)])
            if v.is_zero():
                continue
            flats.append(make_hyperplane(v, rng.randint(-3, 6)))
            now = count_incidences(IncidenceInstance(points, flats, 2, 1))
            assert now >= last
            last = now

    def test_mixed_dimension_instance_rejected(self):
        with pytest.raises(InvalidInput):
            IncidenceInstance([P(0, 0)], [make_hyperplane(IntVector((1, 0, 0)), 0)], 2, 1)


MAGNITUDES = (0, 1, 5, 2**31 - 1, 2**31, 2**31 + 1, 2**62 - 1, 2**62, 2**62 + 1,
              2**63 - 1, 2**63, 2**63 + 1)


def coordinates():
    return st.one_of(
        st.integers(-3, 3),
        st.builds(lambda sign, m: sign * m, st.sampled_from((-1, 1)),
                  st.sampled_from(MAGNITUDES)),
        st.builds(Fraction, st.integers(-7, 7), st.sampled_from((2, 3))),
    )


@st.composite
def mixed_instances(draw):
    """Points and flats across the int64 cuts: rational points, offsets past
    2^62 on rows inside and outside the product bound, rational offsets,
    duplicates, whole-space and 0-dimensional flats, empty point lists."""
    d = draw(st.integers(2, 3))
    point = st.tuples(*[coordinates()] * d).map(RatPoint)
    points = draw(st.lists(point, max_size=8))
    coefficient = st.one_of(st.integers(-2, 2), st.sampled_from((2**31, -(2**62), 2**63)))
    flats = []
    for _ in range(draw(st.integers(0, 8))):
        anchor = draw(st.sampled_from(points) if points else point)
        kind = draw(st.sampled_from(("hyperplane", "shifted", "system", "point",
                                     "whole", "duplicate")))
        if kind in ("hyperplane", "shifted"):
            normal = draw(st.tuples(*[coefficient] * d))
            if not any(normal):
                normal = (1,) + normal[1:]
            offset = sum(a * x for a, x in zip(normal, anchor.coords))
            if kind == "shifted":
                offset += draw(st.sampled_from((1, 2**62, -(2**62), 2**63, Fraction(1, 2))))
            flats.append(Flat(d, [normal], [offset]))
        elif kind == "system":
            rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                                 min_size=1, max_size=d))
            rhs = [sum(a * x for a, x in zip(r, anchor.coords)) for r in rows]
            flats.append(Flat(d, rows, rhs))
        elif kind == "point":
            identity = [[int(i == j) for j in range(d)] for i in range(d)]
            flats.append(Flat(d, identity, anchor.coords))
        elif kind == "whole":
            flats.append(Flat(d, [], []))
        elif flats:
            flats.append(draw(st.sampled_from(flats)))
    return points, flats


def assert_all_counts_agree(points, flats):
    inst = IncidenceInstance(points, flats, 2, 1)
    naive = count_incidences(inst, "naive")
    hashed = count_incidences(inst, "hashed")
    popcount = sum(mask.bit_count() for mask in incidence_masks(points, flats))
    direct = count_incidences_direct(points, flats)
    assert naive == hashed == popcount == direct


class TestDenseNaive:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mixed_instances())
    def test_naive_hashed_masks_direct_agree(self, case):
        assert_all_counts_agree(*case)

    def test_offset_past_int64_cut_on_a_row_inside_the_bound(self):
        # the row passes the product bound, so its offset past 2^62 is
        # unreachable for the small points and must never reach int64
        points = [P(0, 0), P(1, 2), P(2**62 + 1, 0)]
        flats = [make_hyperplane(IntVector((1, 0)), 2**62 + 1)]
        assert count_incidences(IncidenceInstance(points, flats, 2, 1), "naive") == 1
        assert_all_counts_agree(points, flats)

    def test_offset_past_int64_cut_on_a_row_outside_the_bound(self):
        # sum|row| * max_abs exceeds the cut: exact substitution must still
        # find the in-matrix point on the far offset
        points = [P(2**62, 3), P(0, 0)]
        flats = [make_hyperplane(IntVector((1, 1)), 2**62 + 3)]
        assert count_incidences(IncidenceInstance(points, flats, 2, 1), "naive") == 1
        assert_all_counts_agree(points, flats)

    def test_points_span_several_dense_blocks(self):
        points = [P(x, y) for x in range(-15, 15) for y in range(-15, 15)]
        flats = [make_hyperplane(IntVector(v), c)
                 for v in ((1, 0), (0, 1), (1, 1), (1, -2), (3, 1))
                 for c in range(-6, 6)]
        flats += [Flat(2, [[1, 0], [0, 1]], [x, 2 * x]) for x in range(-25, 25)]
        flats += [Flat(2, [], []), make_hyperplane(IntVector((2, 4)), 3)]
        rows = sum(len(f.equations) for f in flats)
        assert len(points) * rows > 2 * incidence._DENSE_ENTRIES
        assert_all_counts_agree(points, flats)

    def test_flat_chunks_and_a_flat_wider_than_a_block(self, monkeypatch):
        monkeypatch.setattr(incidence, "_DENSE_ENTRIES", 5)
        points = [P(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        flats = [make_hyperplane(IntVector((1, k)), k) for k in range(-3, 4)]
        flats.append(Flat(2, [[1, 1]] * 4 + [[1, -1]] * 4, [2] * 4 + [0] * 4))
        flats += [Flat(2, [[1, 0], [0, 1]], [1, 1]), Flat(2, [[2, 0]], [1])]
        assert_all_counts_agree(points, flats)


class TestMasks:
    def test_masks_match_contains(self):
        rng = Random(41)
        points = [P(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(12)]
        flats = [
            make_hyperplane(IntVector((rng.randint(-2, 2), rng.randint(1, 2))),
                            rng.randint(0, 4))
            for _ in range(9)
        ]
        masks = incidence_masks(points, flats)
        for i, p in enumerate(points):
            for j, f in enumerate(flats):
                assert bool(masks[i] >> j & 1) == contains(f, p)


class TestFindKst:
    def test_two_points_one_line_witness(self):
        points = [P(0, 0), P(1, 1), P(5, 0)]
        line = make_hyperplane(IntVector((1, -1)), 0)
        inst = IncidenceInstance(points, [line], 2, 1)
        witness = find_kst(inst)
        assert witness is not None
        assert witness.point_indices == (0, 1)
        assert witness.flat_indices == (0,)

    def test_distinct_lines_have_no_k22(self):
        # two points determine at most one line
        rng = Random(13)
        points = [P(x, y) for x in range(5) for y in range(5)]
        seen = set()
        flats = []
        for _ in range(40):
            v = IntVector((rng.randint(-3, 3), rng.randint(-3, 3)))
            if v.is_zero():
                continue
            key = (v.sign_canonical().coords, rng.randint(-4, 8))
            if key in seen:
                continue
            seen.add(key)
            flats.append(make_hyperplane(IntVector(key[0]), key[1]))
        inst = IncidenceInstance(points, flats, 2, 2)
        assert find_kst(inst) is None

    def test_duplicate_flats_force_a_witness(self):
        line = make_hyperplane(IntVector((1, -1)), 0)
        points = [P(0, 0), P(1, 1), P(2, 0)]
        inst = IncidenceInstance(points, [line, line], 2, 2)
        witness = find_kst(inst)
        assert witness is not None
        assert witness.point_indices == (0, 1)
        assert set(witness.flat_indices) == {0, 1}

    def test_s3_path_finds_triple(self):
        points = [P(0, 0), P(1, 1), P(2, 2), P(3, 0)]
        l1 = make_hyperplane(IntVector((1, -1)), 0)
        inst = IncidenceInstance(points, [l1, l1], 3, 2)
        witness = find_kst(inst)
        assert witness is not None
        assert witness.point_indices == (0, 1, 2)

    def test_general_s_exhaustive_path(self):
        points = [P(x, 0) for x in range(6)]
        axis = make_hyperplane(IntVector((0, 1)), 0)
        inst = IncidenceInstance(points, [axis, axis, axis], 4, 3)
        witness = find_kst(inst)
        assert witness is not None
        assert witness.point_indices == (0, 1, 2, 3)
        assert witness.flat_indices == (0, 1, 2)

    def test_flats_side_search(self):
        # many flats, few points: the flat-side subsets are cheaper
        points = [P(0, 0), P(1, 1)]
        flats = [make_hyperplane(IntVector((1, -1)), 0) for _ in range(3)]
        flats += [make_hyperplane(IntVector((1, 0)), 7) for _ in range(2)]
        inst = IncidenceInstance(points, flats, 2, 2)
        witness = find_kst(inst)
        assert witness is not None
        assert witness.point_indices == (0, 1)

    def test_flats_side_search_deeper_than_the_recursion_limit(self):
        import sys

        t = sys.getrecursionlimit() + 100
        line = make_hyperplane(IntVector((1, -1)), 0)
        inst = IncidenceInstance([P(0, 0), P(1, 1)], [line] * t, 2, t)
        witness = find_kst(inst)
        assert witness is not None
        assert witness.point_indices == (0, 1)
        assert witness.flat_indices == tuple(range(t))

    def test_resource_limit_reports_budget(self):
        points = [P(x, y) for x in range(30) for y in range(30)]
        flats = [make_hyperplane(IntVector((1, 0)), c) for c in range(30)]
        inst = IncidenceInstance(points, flats, 5, 2)
        with pytest.raises(ResourceLimit) as err:
            find_kst(inst, limit=1000)
        assert err.value.limit == 1000
        assert err.value.estimate is not None and err.value.estimate > 1000

    def test_witness_soundness_on_random_instances(self):
        rng = Random(707)
        for _ in range(60):
            points = [P(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(8)]
            flats = []
            for _ in range(6):
                v = IntVector((rng.randint(-2, 2), rng.randint(-2, 2)))
                if v.is_zero():
                    continue
                flats.append(make_hyperplane(v, v.dot(rng.choice(points))))
            if not flats:
                continue
            s, t = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
            inst = IncidenceInstance(points, flats, s, t)
            witness = find_kst(inst)
            if witness is not None:
                assert len(witness.point_indices) == s
                assert len(witness.flat_indices) == t
                for i in witness.point_indices:
                    for j in witness.flat_indices:
                        assert contains(flats[j], points[i])

    def test_both_sides_return_the_bruteforce_first_witness(self):
        from inclab.incidence import _search_kst

        rng = Random(4242)
        for trial in range(150):
            d = rng.randint(2, 3)
            points = [P(*[rng.randint(0, 3) for _ in range(d)])
                      for _ in range(rng.randint(2, 9))]
            flats = []
            for _ in range(rng.randint(1, 9)):
                anchor = rng.choice(points)
                if d == 3 and rng.random() < 0.25:
                    # a line: not a hyperplane, so it takes the mask path
                    rows = [[1, 0, 0], [0, rng.randint(-1, 1), 1]]
                    rhs = [sum(a * x for a, x in zip(r, anchor.coords)) for r in rows]
                    flats.append(Flat(d, rows, rhs))
                else:
                    v = IntVector([rng.randint(-1, 1) for _ in range(d)])
                    if v.is_zero():
                        continue
                    flats.append(make_hyperplane(v, v.dot(anchor)))
                if rng.random() < 0.3:
                    flats.append(flats[-1])  # duplicate flat
            if not flats:
                continue
            s = rng.choice((2, 3, 4))
            t = rng.randint(1, 3)
            if len(points) < s or len(flats) < t:
                continue
            inst = IncidenceInstance(points, flats, s, t)
            for side in ("points", "flats"):
                expected = first_kst_bruteforce(points, flats, s, t, side)
                witness = _search_kst(inst, side)
                got = None if witness is None else (witness.point_indices,
                                                   witness.flat_indices)
                assert got == expected, f"{side} side, trial {trial}"
            chosen = find_kst(inst)
            found = (
                first_kst_bruteforce(points, flats, s, t, "points"),
                first_kst_bruteforce(points, flats, s, t, "flats"),
            )
            if chosen is None:
                assert found == (None, None)
            else:
                assert (chosen.point_indices, chosen.flat_indices) in found

    def test_forged_unsound_witness_is_an_invariant_violation(self):
        from inclab.incidence import _check_witness

        points = [P(0, 0), P(1, 1), P(5, 0)]
        line = make_hyperplane(IntVector((1, -1)), 0)
        inst = IncidenceInstance(points, [line], 2, 1)
        _check_witness(inst, KstWitness((0, 1), (0,)))
        with pytest.raises(InvariantViolation):
            _check_witness(inst, KstWitness((0, 2), (0,)))


class TestBoundValue:
    def test_perfect_square(self):
        bound = kst_bound_value(100, 100, 2)
        assert bound.exact and bound.value == 1100

    def test_zero_points(self):
        bound = kst_bound_value(0, 37, 2)
        assert bound.exact and bound.value == 37

    def test_cube_root_case(self):
        bound = kst_bound_value(1000, 64, 3)
        assert bound.exact and bound.value == 1000 * 16 + 64

    def test_inexact_case_has_declared_precision(self):
        bound = kst_bound_value(10, 2, 2)
        assert not bound.exact
        # 10*sqrt(2)+2 to 30 significant digits
        expected = 16.142135623730950488
        assert abs(float(bound.value) - expected) < 1e-12
        assert bound.digits == 30

    def test_preconditions(self):
        with pytest.raises(InvalidInput):
            kst_bound_value(-1, 2, 2)
        with pytest.raises(InvalidInput):
            kst_bound_value(1, 2, 1)

    def test_exactness_detection_matches_root_oracle(self):
        rng = Random(2)
        for _ in range(120):
            n = rng.randint(1, 500)
            s = rng.randint(2, 5)
            m = rng.randint(1, 50)
            bound = kst_bound_value(m, n, s)
            root = int_root_floor(n ** (s - 1), s)
            is_exact_power = root**s == n ** (s - 1)
            assert bound.exact == is_exact_power
            if is_exact_power:
                assert bound.value == m * root + n
