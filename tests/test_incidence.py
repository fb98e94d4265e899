"""Counting strategies, K_{s,t} search, and the reporting bound."""

import io
import weakref
from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inclab import incidence, linalg, serialization
from inclab.geometry import (
    FlatFamily, _exact_family, _flat_family, _hyperplanes, _int_point_matrix)
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

from oracles import (
    count_incidences_direct,
    first_kst_bruteforce,
    fraction_solve_affine,
    gcd_all,
    hyperplane_groups_nested,
    int_root_floor,
    max_subspace_weight_bruteforce,
    most_sharing_bruteforce,
    minor_rank,
    point_on_flat,
    point_split_loop,
)


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

    @pytest.mark.parametrize("s, t", [(2.5, 3.9), (2, 3.0), (2.0, 3), (True, 3), ("2", 3)])
    def test_non_integer_s_or_t_rejected(self, s, t):
        # int() would run 2.5 and 3.9 as s=2, t=3
        points, flats = grid_and_axis_lines()
        with pytest.raises(InvalidInput, match="must be an integer"):
            IncidenceInstance(points, flats, s, t)

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
    """Exact values in every input form: ints across the int64 cuts,
    rationals, integral ``Fraction``s and numpy integers."""
    return st.one_of(
        st.integers(-3, 3),
        st.builds(lambda sign, m: sign * m, st.sampled_from((-1, 1)),
                  st.sampled_from(MAGNITUDES)),
        st.builds(Fraction, st.integers(-7, 7), st.sampled_from((2, 3))),
        st.builds(Fraction, st.integers(-7, 7)),
        st.builds(lambda sign, m: np.int64(sign * m), st.sampled_from((-1, 1)),
                  st.sampled_from([m for m in MAGNITUDES if m < 2**63])),
    )


def integral_values_are_int(values):
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in values)


@st.composite
def mixed_instances(draw):
    """Points and flats across the int64 cuts: rational points, offsets past
    2^62 on rows inside and outside the product bound, rational offsets,
    duplicates, redundant hyperplane systems, whole-space and 0-dimensional
    flats, empty point lists."""
    d = draw(st.integers(2, 3))
    point = st.tuples(*[coordinates()] * d).map(RatPoint)
    points = draw(st.lists(point, max_size=8))
    coefficient = st.one_of(st.integers(-2, 2), st.sampled_from((2**31, -(2**62), 2**63)),
                            st.builds(Fraction, st.integers(-2, 2)))
    flats = []
    for _ in range(draw(st.integers(0, 8))):
        anchor = draw(st.sampled_from(points) if points else point)
        kind = draw(st.sampled_from(("hyperplane", "shifted", "system", "redundant",
                                     "point", "whole", "duplicate")))
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
        elif kind == "redundant":
            # one hyperplane written as two proportional equations, or with
            # an extra zero row (factor 0): counted as a non-hyperplane flat
            normal = draw(st.tuples(*[coefficient] * d))
            if not any(normal):
                normal = (1,) + normal[1:]
            offset = sum(a * x for a, x in zip(normal, anchor.coords))
            factor = draw(st.sampled_from((0, -1, 3, Fraction(1, 2))))
            flats.append(Flat(d, [normal, [factor * a for a in normal]],
                              [offset, factor * offset]))
        elif kind == "point":
            identity = [[int(i == j) for j in range(d)] for i in range(d)]
            flats.append(Flat(d, identity, anchor.coords))
        elif kind == "whole":
            flats.append(Flat(d, [], []))
        elif flats:
            flats.append(draw(st.sampled_from(flats)))
    return points, flats


def direct_masks(points, flats):
    """Per-point bitmasks of incident flats, by pair-by-pair substitution."""
    return [sum(1 << j for j, f in enumerate(flats) if point_on_flat(p.coords, f.equations, f.rhs))
            for p in points]


def assert_verdict_is_the_bruteforce(inst, points, flats):
    """The instance's K_{s,t} verdict: "free" exactly when the brute force
    finds no witness, and a witness the brute force's first on one side."""
    status, witness, _ = incidence.kst_verdict(inst)
    found = tuple(first_kst_bruteforce(points, flats, inst.s, inst.t, side)
                  for side in ("points", "flats"))
    if status == "free":
        assert found == (None, None)
    else:
        assert status == "witness"
        assert (witness.point_indices, witness.flat_indices) in found


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
        points, flats = case
        inst = IncidenceInstance(points, flats, 2, 1)
        for stop in range(len(flats)):  # prefixes, from the one classification
            assert incidence._count_hashed(inst, stop) == count_incidences_direct(
                points, flats[:stop]
            )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mixed_instances())
    def test_integral_values_are_stored_and_dotted_as_int(self, case):
        points, flats = case
        for p in points:
            assert integral_values_are_int(p.coords)
        for f in flats:
            assert integral_values_are_int(f.rhs)
            assert all(integral_values_are_int(row) for row in f.equations)
        split = incidence._int_point_matrix(points)
        for f in flats:
            for row, _ in f.integer_equations():
                assert integral_values_are_int(incidence._dot_values(split, row).tolist())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(coordinates(), min_size=1, max_size=4))
    def test_the_number_form_never_changes_equality_or_hash(self, values):
        as_fractions = [Fraction(x) for x in values]
        point, twin = RatPoint(values), RatPoint(as_fractions)
        assert point == twin and hash(point) == hash(twin)
        # the offset is the row's first entry: an all-zero row gets offset 0
        flat = Flat(len(values), [values], [values[0]])
        flat_twin = Flat(len(values), [as_fractions], [as_fractions[0]])
        assert flat == flat_twin and hash(flat) == hash(flat_twin)
        assert integral_values_are_int(point.coords + flat.equations[0] + flat.rhs)

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


@st.composite
def block_instances(draw):
    """Points across the int64 cuts, and a :class:`FlatFamily` of flats of
    one codimension r >= 1 through some of them (or through a point of
    their own), each equation scaled to integers by a small, negative or
    past-int64 factor."""
    d = draw(st.integers(2, 4))
    coordinate = coordinates() if draw(st.booleans()) else st.integers(-3, 3)
    point = st.tuples(*[coordinate] * d).map(RatPoint)
    points = draw(st.lists(point, max_size=8))
    r = draw(st.integers(1, d))
    factors = (1, -1, 3, 2**63, -(2**62)) if draw(st.booleans()) else (1, -1, 3)
    rows, dens = [], []
    for _ in range(draw(st.integers(0, 6))):
        anchor = draw(st.sampled_from(points) if points else point)
        a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                          min_size=r, max_size=r).filter(lambda a: minor_rank(a) == r))
        block, den = [], []
        for row in a:
            values = row + [sum(x * y for x, y in zip(row, anchor.coords))]
            scale = draw(st.sampled_from(factors)) * lcm(
                *(Fraction(v).denominator for v in values))
            block.append([int(v * scale) for v in values])
            den.append(abs(scale))  # a negative scale negates the equation
        rows.append(block)
        dens.append(den)
    return points, FlatFamily._of(d, r, rows, dens)


# exact values of a flat's equations: small, rational and past int64
EXACT_ENTRIES = st.one_of(
    st.integers(-2, 2), st.builds(Fraction, st.integers(-5, 5), st.sampled_from((2, 3, 6))),
    st.sampled_from((2**62 + 1, -(2**63), 2**70)))


@st.composite
def flat_systems(draw, d, anchors, consistent=True):
    """``(rows, rhs)``: exact systems of R^d through one of ``anchors`` (or
    a point of their own): a hyperplane, a random system of up to d + 1
    rows (redundant ones included), a hyperplane written as several
    proportional rows and zero rows, zero rows alone, or no rows (the
    whole space); when not ``consistent``, a right-hand side may be shifted
    off the anchor, which makes some systems inconsistent."""
    anchor = draw(st.sampled_from(anchors)) if anchors else [0] * d
    row = st.lists(EXACT_ENTRIES, min_size=d, max_size=d)
    kind = draw(st.sampled_from(("hyperplane", "system", "redundant", "zero", "whole")))
    if kind == "whole":
        return [], []
    if kind == "zero":
        rows = [[0] * d] * draw(st.integers(1, 2))
    elif kind == "redundant":
        a = draw(row.filter(any))
        rows = [[k * x for x in a] for k in draw(st.lists(
            st.sampled_from((1, 0, -1, 3, Fraction(1, 2))), min_size=2, max_size=3))]
    else:
        rows = draw(st.lists(row, min_size=1, max_size=1 if kind == "hyperplane" else d + 1))
    rhs = [sum(a * x for a, x in zip(r, anchor)) for r in rows]
    if not consistent and draw(st.booleans()):
        rhs[-1] += draw(st.sampled_from((1, Fraction(1, 2), 2**63)))
    return rows, rhs


@st.composite
def converted_instances(draw):
    """Points (rational ones and ones past int64; sometimes all in the
    hyperplane x_d = 0, so that flats of two rows or more are keyed in
    their affine hull) and flats built one by one with ``Flat(...)``: any
    mix of row counts, r = 0 included; with s and t."""
    d = draw(st.integers(1, 4))
    flat_points = d > 1 and draw(st.booleans())
    coordinate = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.just(2)),
                           st.sampled_from((2**63, -(2**62) - 1)))
    points = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), max_size=6))
    if flat_points:
        points = [p[:-1] + [0] for p in points]
    systems = draw(st.lists(flat_systems(d, points), max_size=7))
    flats = [Flat(d, rows, rhs) for rows, rhs in systems]
    if draw(st.booleans()):  # every flat of two rows or more
        flats = [f for f in flats if len(f.rhs) > 1]
    return [RatPoint(p) for p in points], flats, draw(st.integers(2, 3)), draw(st.integers(1, 3))


class TestFlatConversion:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(converted_instances())
    def test_flats_one_by_one_become_one_family(self, case):
        # the family reads back the flats given, equal both ways, writes the
        # reference text, and counts, masks and verdicts agree with pair-by-
        # pair substitution and the brute force
        points, flats, s, t = case
        inst = IncidenceInstance(points, flats, s, t)
        family = inst.flats
        assert isinstance(family, FlatFamily) and _flat_family(family) is family
        assert list(family) == flats and [family[j] for j in range(len(flats))] == flats
        assert family == tuple(flats) and tuple(flats) == family
        assert hash(family) == hash(tuple(flats))
        assert family.dims.tolist() == [f.dim for f in flats]
        assert np.diff(family.starts).tolist() == [len(f.rhs) for f in flats]
        assert (family.den > 0).all()
        if points or flats:  # an empty instance has no ambient dimension to write
            text = io.StringIO()
            serialization._write_instance(text, inst, None)
            assert text.getvalue() == serialization.canonical_json(
                serialization.instance_to_dict(inst))
        direct = count_incidences_direct(points, flats)
        assert count_incidences(inst, "naive") == count_incidences(inst, "hashed") == direct
        assert incidence._grouped_masks(inst) == direct_masks(points, flats)
        assert_verdict_is_the_bruteforce(inst, points, flats)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(flat_systems(d, [], consistent=False), min_size=1, max_size=4))))
    def test_an_inconsistent_system_raises_the_flat_error(self, case):
        # the rows of any exact systems, inconsistent ones included: the
        # error Flat(...) raises for the first inconsistent one, or the
        # flats Flat(...) builds
        d, systems = case
        try:
            flats = [Flat(d, rows, rhs) for rows, rhs in systems]
        except InvalidInput as exc:
            with pytest.raises(InvalidInput, match=str(exc)):
                _exact_family(d, systems)
            doc = {"schema": 1, "kind": "incidence-instance", "ambient_dim": d, "points": [],
                   "flats": [{"A": [[[Fraction(a).numerator, Fraction(a).denominator]
                                     for a in row] for row in rows],
                              "b": [[Fraction(c).numerator, Fraction(c).denominator]
                                    for c in rhs]} for rows, rhs in systems]}
            with pytest.raises(InvalidInput, match=str(exc)):
                serialization.dict_to_instance(doc)
            return
        assert _exact_family(d, systems) == flats


class TestFlatFamilyCounts:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(block_instances(), st.sampled_from((incidence._DENSE_ENTRIES, 5, 1)))
    def test_naive_hashed_masks_direct_agree(self, case, dense_entries):
        # the block products, in int64 or Python ints and cut into blocks of
        # any size, give the masks substitution gives, and each member list
        # of a flat left outside the hull's runs as substitution does
        points, family = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incidence, "_DENSE_ENTRIES", dense_entries)
            assert_all_counts_agree(points, family)
            inst = IncidenceInstance(points, family, 2, 1)
            assert inst.flats is family
            masks = direct_masks(points, family)
            assert incidence._grouped_masks(inst) == masks
            assert inst._other_members == {
                j: [i for i, mask in enumerate(masks) if mask >> j & 1]
                for j in inst._grouping.others.tolist()}
            for stop in range(len(family)):
                assert incidence._count_hashed(inst, stop) == count_incidences_direct(
                    points, family[:stop])


def _bound_instance(norm, max_abs):
    """Points of R^3 whose largest entry is ``max_abs``, with lines {x = u,
    y = v} (a family of two-row blocks) and planes (a family of one-row
    blocks) whose largest row 1-norm is ``norm``: the rows [1, 0, 0 | u]
    with u = norm - 1 and rows of smaller norm, through some points."""
    u = norm - 1
    points = [RatPoint(c) for c in ((u, 1, max_abs), (u, 1, 0), (u - 1, 1, 1),
                                    (u, 2, -max_abs), (0, 0, 1), (1, 1, 7))]
    lines = FlatFamily._of(3, 2, [[[1, 0, 0, u], [0, 1, 0, 1]],
                                  [[1, 0, 0, u - 1], [0, 1, 0, 1]],
                                  [[1, 0, 0, 0], [0, 1, 0, 0]]], np.ones((3, 2), np.int64))
    planes = _hyperplanes(3, [(1, 0, 0), (0, 1, 0)], [0, 0, 1, 1], [u, u - 1, 1, 2])
    return points, lines, planes


class TestProductGuard:
    @pytest.mark.parametrize("norm, max_abs, dtype", [
        (2**26, 2**27, np.float64),  # sum|row| * max_abs = 2^53
        (3, (2**53 + 1) // 3, np.int64),  # 2^53 + 1
        (2**31 - 1, 2**31 + 1, np.int64),  # 2^62 - 1
        (2**31, 2**31, np.int64),  # 2^62
        (2**31 - 2**16 + 1, 2**31 + 2**16 + 1, object),  # 2^62 + 1
    ])
    def test_counts_and_members_on_either_side_of_each_bound(
            self, monkeypatch, norm, max_abs, dtype):
        # float64 up to 2^53, int64 up to 2^62 and Python ints past it, and
        # each count and member list exact on its side of every bound
        points, lines, planes = _bound_instance(norm, max_abs)
        assert _int_point_matrix(points).max_abs == max_abs
        assert int(linalg._norms(lines.rows).max()) == norm
        assert linalg._exact_dtype(norm * max_abs) is dtype
        products = []
        count_dense = incidence._count_dense
        monkeypatch.setattr(incidence, "_count_dense",
                            lambda pts, flats: products.append(pts.dtype) or count_dense(pts, flats))
        for flats in (lines, planes):
            count_incidences(IncidenceInstance(points, flats, 2, 1), "naive")
        assert products == [np.dtype(dtype)] * 2
        for flats in (lines, planes, tuple(lines) + tuple(planes)):
            assert_all_counts_agree(points, flats)
        inst = IncidenceInstance(points, lines, 2, 1)
        masks = direct_masks(points, lines)
        assert inst._other_members == {
            j: [i for i, mask in enumerate(masks) if mask >> j & 1] for j in range(len(lines))}

    def test_no_points_convert_no_row(self):
        # with no points max_abs is 0, which bounds no row: coefficients
        # past float64's range are counted and listed without a conversion
        huge = 2**1100
        planes = _hyperplanes(3, [(huge, 1, 0)], [0], [3])
        lines = FlatFamily._of(3, 2, [[[huge, 0, 0, 1], [0, 1, 0, 1]]],
                               np.ones((1, 2), np.int64))
        for rows in (planes.rows, lines.rows):
            assert linalg._exact_dtype(int(linalg._norms(rows).max())) is object
        for flats in (planes, lines, tuple(planes) + tuple(lines)):
            assert_all_counts_agree([], flats)
            assert count_incidences(IncidenceInstance([], flats, 2, 1), "naive") == 0
        assert IncidenceInstance([], lines, 2, 1)._other_members == {0: []}


@st.composite
def hyperplane_runs(draw):
    """Points and hyperplanes for the runs: rational points and points past
    int64 (object dots), hyperplanes through points with normals past int64
    and non-primitive normals, shifted off them by 1, a half, or past int64,
    and duplicates; with an s for the certificate's w_g.  The points may
    hold a grid of side 3, so that one normal has several runs of s points."""
    d = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(*[coordinates()] * d).map(RatPoint), min_size=1,
                           max_size=6))
    if draw(st.booleans()):
        points += [RatPoint(x) for x in product(range(3), repeat=d)]
    entry = st.one_of(st.integers(-2, 2), st.sampled_from((2, 2**31, -(2**62), 2**63)))
    normals, offsets = [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("through", "through", "shifted", "duplicate")))
        if kind == "duplicate" and normals:
            k = draw(st.integers(0, len(normals) - 1))
            normals.append(normals[k])
            offsets.append(offsets[k])
            continue
        a = draw(st.tuples(*[entry] * d).filter(any)
                 | st.sampled_from(((1,) * d, (2,) + (0,) * (d - 1))))
        c = sum(x * y for x, y in zip(a, draw(st.sampled_from(points)).coords))
        if kind == "shifted":
            c += draw(st.sampled_from((1, Fraction(1, 2), 2**63)))
        normals.append(a)
        offsets.append(c)
    family = _hyperplanes(d, normals, range(len(normals)), offsets)
    return points, family, draw(st.integers(2, 3))


class TestRuns:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hyperplane_runs())
    def test_prefix_counts_and_certificate_weights(self, case):
        points, family, s = case
        for flats in (family, tuple(family)):
            inst = IncidenceInstance(points, flats, s, 1)
            for stop in range(len(flats) + 1):
                assert incidence._count_hashed(inst, stop) == count_incidences_direct(
                    points, flats[:stop]
                )
            # w_g: the longest run of each normal whose offset holds s
            # points, from the oracle's nested grouping and direct counts
            expected = {}
            for normal, by_offset in hyperplane_groups_nested(flats)[0].items():
                w = max((len(ids) for c, ids in by_offset.items()
                         if sum(point_on_flat(p.coords, [normal], [c]) for p in points) >= s),
                        default=0)
                if w:
                    expected[normal] = w
            normals, weights = incidence._key_weights(inst)
            assert dict(zip(normals, weights)) == expected


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
        # C(900, 5) point subsets are far over 1000, but one normal group
        # with one flat per offset certifies K_{5,2}-freeness
        assert find_kst(IncidenceInstance(points, flats, 5, 2), limit=1000) is None
        # two point flats hold one point each, so no 5 points share them
        points_flats = [Flat(2, [[1, 0], [0, 1]], [0, 0]), Flat(2, [[1, 0], [0, 1]], [1, 1])]
        assert find_kst(IncidenceInstance(points, flats + points_flats, 5, 2),
                        limit=1000) is None
        # the line y = 6x holds 5 points; given twice as a redundant system
        # it is no hyperplane, and the tally finds those 5 points on both
        line = Flat(2, [[6, -1], [12, -2]], [0, 0])
        inst = IncidenceInstance(points, flats + [line, line], 5, 2)
        with pytest.raises(ResourceLimit) as err:
            find_kst(inst, limit=1000)
        assert err.value.limit == 1000
        assert err.value.estimate is not None and err.value.estimate > 1000
        assert str(err.value).endswith(
            "over the budget of 1000 (certificate bound 3 reaches t=2)")

    def test_verdict_reads_each_outcome(self):
        points = [P(x, y) for x in range(30) for y in range(30)]
        flats = [make_hyperplane(IntVector((1, 0)), c) for c in range(30)]
        witness = find_kst(IncidenceInstance(points, flats, 2, 1))
        assert incidence.kst_verdict(IncidenceInstance(points, flats, 2, 1)) == (
            "witness", witness, None)
        assert incidence.kst_verdict(IncidenceInstance(points, flats, 2, 2)) == (
            "free", None, None)
        assert incidence.kst_verdict(IncidenceInstance(points, flats, 5, 2), limit=1000) == (
            "free", None, None)
        # one point five times: s copies of it would be one point, on which
        # the normal argument says nothing
        status, none, gave_up = incidence.kst_verdict(
            IncidenceInstance(points + [P(0, 0)] * 4, flats, 5, 2), limit=1000)
        assert (status, none) == ("unverified", None)
        assert isinstance(gave_up, ResourceLimit) and gave_up.limit == 1000
        assert str(gave_up).endswith("(certificate void: one point occurs 5 times, s=5)")

    def test_unverified_verdict_keeps_no_instance_alive(self):
        # the sweep drops each rung's instance, and its cached flat
        # classification, before saving the rung; the returned
        # ResourceLimit must not hold it through the search's frames
        points = [P(x, y) for x in range(30) for y in range(30)]
        flats = [make_hyperplane(IntVector((1, 0)), c) for c in range(30)]
        inst = IncidenceInstance(points, flats, 5, 2)
        alive = weakref.ref(inst)
        status, _, gave_up = incidence.kst_verdict(inst, limit=1000)
        del inst
        assert status == "free" and gave_up is None
        assert alive() is None
        # a doubled line through 30 points: w_g = 2 reaches t
        inst = IncidenceInstance(points, flats + flats[:1], 5, 2)
        alive = weakref.ref(inst)
        status, _, gave_up = incidence.kst_verdict(inst, limit=1000)
        del inst
        assert status == "unverified" and gave_up is not None
        assert str(gave_up).endswith("(certificate bound 2 reaches t=2)")
        assert alive() is None

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


def _through(points, d, codim, mix):
    """Equations of a flat of codimension at most ``codim`` through
    ``points``: ``mix`` combines the Fraction oracle's basis of the normals
    to their span (one of them repeated in R^2, so that a line is no
    hyperplane)."""
    base = points[0].coords
    diffs = [[a - b for a, b in zip(p.coords, base)] for p in points[1:]]
    normals = (fraction_solve_affine(diffs, [0] * len(diffs))[1] if diffs
               else [[int(i == j) for j in range(d)] for i in range(d)])
    if not normals:  # the points span R^d: a flat through the first alone
        return _through(points[:1], d, codim, mix)
    rows = [[sum(c * n[i] for c, n in zip(coef, normals)) for i in range(d)]
            for coef in mix[:codim]]
    rows = [r for r in rows if any(r)] or [normals[0]]
    if len(rows) == 1:
        rows.append([2 * a for a in rows[0]])  # a redundant system, not a hyperplane
    return rows, [sum(a * x for a, x in zip(r, base)) for r in rows]


@st.composite
def certificate_instances(draw):
    """Small instances for the K_{s,t} certificate in R^2..R^4: rational and
    repeated points, hyperplanes through the points with non-primitive
    normals and duplicates, point-free padding hyperplanes, and flats that
    are not hyperplanes: lines and codimension-2 flats through two or more
    drawn points (some given twice), lines through one point, and point
    flats."""
    d = draw(st.integers(2, 4))
    value = st.one_of(st.integers(0, 2),
                      st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3))))
    points = draw(st.lists(st.tuples(*[value] * d).map(RatPoint), min_size=2, max_size=7))
    if draw(st.integers(0, 3)) == 0:
        points += draw(st.lists(st.sampled_from(points), max_size=3))  # repeated points
    normal = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    flats = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("through", "through", "through", "padding",
                                     "duplicate", "duplicate", "line", "point",
                                     "spanned", "spanned", "spanned twice")))
        anchor = draw(st.sampled_from(points))
        if kind.startswith("spanned"):
            on = draw(st.lists(st.sampled_from(points), min_size=2, max_size=3))
            codim = draw(st.sampled_from((d - 1, 2))) if d > 2 else 1
            mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                min_size=codim, max_size=codim))
            flats.append(Flat(d, *_through(on, d, codim, mix)))
            if kind == "spanned twice":
                flats.append(flats[-1])
        elif kind == "padding":
            a = draw(normal)
            reach = max(abs(sum(x * c for x, c in zip(a, p.coords))) for p in points)
            flats.append(Flat(d, [a], [reach + 1]))
        elif kind == "duplicate" and flats:
            flats.append(draw(st.sampled_from(flats)))
        elif kind == "line":
            rows = [draw(normal) for _ in range(d - 1)]
            flats.append(Flat(d, rows, [sum(x * c for x, c in zip(r, anchor.coords))
                                        for r in rows]))
        elif kind == "point":
            identity = [[int(i == j) for j in range(d)] for i in range(d)]
            flats.append(Flat(d, identity, anchor.coords))
        else:
            a = draw(normal)
            flats.append(Flat(d, [a], [sum(x * c for x, c in zip(a, anchor.coords))]))
    return points, flats, draw(st.integers(2, 4)), draw(st.integers(1, 4))


def _scaled_rows(rows, rhs, factor):
    """Each equation ``row . x = c`` as an integer row [a | c] times a
    positive or negative ``factor`` and its lcm of denominators, over the
    absolute value of that scale."""
    block, den = [], []
    for row, c in zip(rows, rhs):
        values = list(row) + [c]
        scale = factor * lcm(*(Fraction(v).denominator for v in values))
        block.append([int(v * scale) for v in values])
        den.append(abs(scale))
    return block, den


@st.composite
def hull_instances(draw):
    """Points in an affine subspace A of R^d (d 2-5, dimension e from 1 to
    d - 1, a rational base point, entries near 2^62 or small), some
    repeated and some rational, and a :class:`FlatFamily` of r = 1-3 rows a
    flat whose traces on A are a hyperplane of A (its other rows normals
    of A), rank 1 only through redundant rows, empty, all of A, or of
    lower dimension; with s and t."""
    d = draw(st.integers(2, 5))
    e = draw(st.integers(1, d - 1))
    small = st.integers(-2, 2)
    # rows in echelon form: independent, with small entries after each pivot
    pivots = sorted(draw(st.permutations(range(d)))[:e])
    directions = [[0] * c + [draw(st.sampled_from((1, -1, 2)))]
                  + draw(st.lists(small, min_size=d - c - 1, max_size=d - c - 1))
                  for c in pivots]
    near = (0, 1, 2**62 - 1, -(2**62) + 3) if draw(st.booleans()) else (0, 1, -3)
    base = [draw(st.sampled_from(near)) + Fraction(draw(st.integers(0, 2)), 3)
            for _ in range(d)]
    weight = st.one_of(small, st.builds(Fraction, st.integers(-3, 3), st.just(2)))
    points = []
    for _ in range(draw(st.integers(1, e + 4))):
        if points and draw(st.integers(0, 4)) == 0:
            points.append(draw(st.sampled_from(points)))  # a repeated point
            continue
        lam = draw(st.lists(weight, min_size=e, max_size=e))
        points.append(RatPoint([b + sum(w * v[k] for w, v in zip(lam, directions))
                                for k, b in enumerate(base)]))
    _, basis = fraction_solve_affine(directions, [0] * e)
    normals = [[int(x * lcm(*(y.denominator for y in n))) for x in n] for n in basis]
    r = draw(st.integers(1, min(3, d)))
    factors = st.sampled_from((1, -1, 3))
    rows, dens = [], []
    for _ in range(draw(st.integers(0, 6))):
        anchor = draw(st.sampled_from(points)).coords
        kind = draw(st.sampled_from(("hyperplane", "redundant", "empty", "whole", "lower")))
        g = draw(st.lists(small, min_size=d, max_size=d))
        mix = st.lists(st.integers(-2, 2), min_size=len(normals), max_size=len(normals))

        def normal_row():
            coeffs = draw(mix)
            return [sum(c * n[k] for c, n in zip(coeffs, normals)) for k in range(d)]

        if kind in ("hyperplane", "empty"):
            a = [g] + [normal_row() for _ in range(r - 1)]
        elif kind == "redundant":
            a = [[draw(st.sampled_from((1, -1, 2))) * x + y for x, y in zip(g, normal_row())]
                 for _ in range(r)]
        elif kind == "whole":
            a = [normal_row() for _ in range(r)]
        else:
            a = draw(st.lists(st.lists(small, min_size=d, max_size=d), min_size=r,
                              max_size=r))
        if minor_rank(a) != r:
            continue
        rhs = [sum(x * y for x, y in zip(row, anchor)) for row in a]
        if kind == "empty":
            rhs[-1] += draw(st.sampled_from((1, Fraction(1, 2))))
        block, den = _scaled_rows(a, rhs, draw(factors))
        rows.append(block)
        dens.append(den)
    family = FlatFamily._of(d, r, rows, dens)
    return points, family, draw(st.integers(2, 3)), draw(st.integers(1, 3))


def _hull_dimension(points):
    """The dimension of the points' affine hull, by minor rank of their
    differences from the first; -1 for no points."""
    if not points:
        return -1
    first = points[0].coords
    return minor_rank([[Fraction(x) - y for x, y in zip(p.coords, first)] for p in points[1:]])


def _trace_dimension(flat, points):
    """The dimension of the flat's trace on the points' affine hull, from
    the stacked equations of both by Fraction elimination; None when the
    trace is empty."""
    first = points[0].coords
    differences = [[Fraction(x) - y for x, y in zip(p.coords, first)] for p in points[1:]]
    rows, rhs = list(flat.equations), list(flat.rhs)
    if differences:
        _, normals = fraction_solve_affine(differences, [0] * len(differences))
        rows += normals
        rhs += [sum(n * x for n, x in zip(normal, first)) for normal in normals]
    else:  # one point: the hull is that point
        rows += [[int(i == j) for j in range(len(first))] for i in range(len(first))]
        rhs += list(first)
    solved = fraction_solve_affine(rows, rhs)
    return None if solved is None else len(solved[1])


class TestHullReduction:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hull_instances())
    def test_the_reduced_family_agrees_with_the_flats_one_by_one(self, case):
        points, family, s, t = case
        inst = IncidenceInstance(points, family, s, t)
        e = _hull_dimension(points)
        reduced = (len(family) and np.diff(family.starts).min() > 1
                   and 0 < e < family.ambient_dim)
        if reduced:
            assert inst._hashed_points.ambient_dim == e
            # a flat joins the runs exactly when its trace is a hyperplane
            # of the hull, and keeps its index there
            in_runs = set(inst._grouping.order.tolist())
            for j, flat in enumerate(family):
                assert (j in in_runs) == (_trace_dimension(flat, points) == e - 1)
        else:
            assert inst._hashed_points is inst.points
        direct = count_incidences_direct(points, family)
        assert count_incidences(inst, "naive") == count_incidences(inst, "hashed") == direct
        for stop in range(len(family) + 1):
            assert incidence._count_hashed(inst, stop) == count_incidences_direct(
                points, family[:stop])
        assert incidence._grouped_masks(inst) == direct_masks(points, family)
        assert_verdict_is_the_bruteforce(inst, points, list(family))
        if incidence._certificate_gap(inst, incidence.DEFAULT_COMPARISON_LIMIT) is None:
            assert first_kst_bruteforce(points, list(family), s, t, "points") is None

    def test_a_line_of_points_keys_its_traces_by_one_coordinate(self):
        # e = 1: the hull is the line x = y = z of R^3, read in z; the lines
        # x = c, y = z meet it in one point each, so they are runs of the
        # key (1,), and the line x = y = z itself stays outside the runs
        points = [P(c, c, c) for c in range(4)]
        family = FlatFamily._of(3, 2, [[[1, 0, 0, c], [0, 1, -1, 0]] for c in (0, 1, 1, 3)]
                                + [[[1, -1, 0, 0], [0, 1, -1, 0]]], np.ones((5, 2), np.int64))
        inst = IncidenceInstance(points, family, 2, 2)
        assert inst._hashed_points == [P(c) for c in range(4)]
        assert inst._grouping.keys.tolist() == [[1]] and inst._grouping.others.tolist() == [4]
        assert count_incidences(inst) == count_incidences_direct(points, family) == 8
        assert incidence._certificate_gap(inst, 10**9) is None
        # the whole line holds every pair once, and no run holds two points
        assert incidence._certificate_gap(IncidenceInstance(points, family, 2, 1), 10**9) == (
            "certificate bound 1 reaches t=1")


class TestKstCertificate:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(certificate_instances())
    def test_a_certified_free_instance_has_no_witness(self, case):
        points, flats, s, t = case
        inst = IncidenceInstance(points, flats, s, t)
        if incidence._certificate_gap(inst, incidence.DEFAULT_COMPARISON_LIMIT) is None:
            assert first_kst_bruteforce(points, flats, s, t, "points") is None
            assert find_kst(inst) is None

    def test_duplicate_hyperplanes_count_with_multiplicity(self):
        # a doubled line through two points is a K_{2,2}; a weight of 1 per
        # (normal, offset) in place of its multiplicity would call it free
        points = [P(0, 0), P(1, 1), P(5, 0)]
        line = make_hyperplane(IntVector((1, -1)), 0)
        inst = IncidenceInstance(points, [line, line], 2, 2)
        assert first_kst_bruteforce(points, [line, line], 2, 2, "points") == ((0, 1), (0, 1))
        gap = incidence._certificate_gap(inst, incidence.DEFAULT_COMPARISON_LIMIT)
        assert gap == "certificate bound 2 reaches t=2"
        assert find_kst(inst) == KstWitness((0, 1), (0, 1))

    def test_normals_in_one_subspace_add_up(self):
        # three planes through the x-axis of R^3 share its points: their
        # normals lie in the plane x = 0, so the bound is 3
        points = [P(x, 0, 0) for x in range(4)] + [P(0, 1, 1)]
        flats = [make_hyperplane(IntVector(v), 0) for v in ((0, 1, 0), (0, 0, 1), (0, 1, 1))]
        assert incidence._certificate_gap(IncidenceInstance(points, flats, 2, 3), 10**9) == (
            "certificate bound 3 reaches t=3")
        assert incidence._certificate_gap(IncidenceInstance(points, flats, 2, 4), 10**9) is None
        assert find_kst(IncidenceInstance(points, flats, 4, 3)) == KstWitness(
            (0, 1, 2, 3), (0, 1, 2))

    def test_non_hyperplane_flats_count_what_they_share(self):
        # three lines of R^3 through the x-axis points: two share points 0..3,
        # the third only point 0; pairs are shared twice at most
        points = [P(x, 0, 0) for x in range(4)] + [P(0, 1, 1)]
        axis = Flat(3, [[0, 1, 0], [0, 0, 1]], [0, 0])
        redundant_axis = Flat(3, [[0, 1, 1], [0, 2, -2], [0, 1, 0]], [0, 0, 0])
        skew = Flat(3, [[1, 0, 0], [0, 1, -1]], [0, 0])  # holds points 0 and 4
        flats = [axis, redundant_axis, skew]
        gap = incidence._certificate_gap(IncidenceInstance(points, flats, 2, 2), 10**9)
        assert gap == "certificate bound 2 reaches t=2"
        assert incidence._certificate_gap(IncidenceInstance(points, flats, 2, 3), 10**9) is None
        assert find_kst(IncidenceInstance(points, flats, 2, 3)) is None
        assert find_kst(IncidenceInstance(points, flats, 2, 2)) == KstWitness((0, 1), (0, 1))

    def test_the_tally_is_charged_per_subset(self):
        # one pass per line and one for the points, one word each, then
        # 64 words for each pair on a line: C(4, 2) = 6 on the axis, and 1
        # on the line x = 0, y = z through points 0 and 4; the point (0, 0,
        # 1) is on neither line, and makes the points span R^3, so that no
        # line is keyed in their affine hull
        points = [P(x, 0, 0) for x in range(4)] + [P(0, 1, 1), P(0, 0, 1)]
        flats = [Flat(3, [[0, 1, 0], [0, 0, 1]], [0, 0]),
                 Flat(3, [[1, 0, 0], [0, 1, -1]], [0, 0])]
        inst = IncidenceInstance(points, flats, 2, 2)
        cost = 3 + 64 * (6 + 1)
        assert incidence._certificate_gap(inst, cost - 1) == "certificate over budget"
        assert incidence._certificate_gap(inst, cost) is None

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 7), unique=True).map(sorted), max_size=7),
           st.integers(2, 4))
    def test_most_sharing_matches_the_bruteforce_tally(self, member_lists, s):
        assert incidence._most_sharing(member_lists, s) == most_sharing_bruteforce(
            member_lists, s)

    def test_certificate_over_budget_falls_back_to_the_search(self):
        points = [P(x, y) for x in range(3) for y in range(3)]
        flats = [make_hyperplane(IntVector((1, 0)), c) for c in range(3)]
        inst = IncidenceInstance(points, flats, 2, 2)
        assert incidence._certificate_gap(inst, 1) == "certificate over budget"
        assert incidence._certificate_gap(inst, 2) is None
        with pytest.raises(ResourceLimit) as err:
            find_kst(inst, limit=1)
        assert str(err.value).endswith("over the budget of 1 (certificate over budget)")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d).filter(any), max_size=6),
        st.integers(1, d - 1))), st.data())
    def test_subspace_weight_matches_the_rank_oracle(self, case, data):
        vectors, flat_dim = case
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(vectors),
                                     max_size=len(vectors)))
        got = incidence._max_subspace_weight(vectors, weights, flat_dim, 10**9)
        assert got == max_subspace_weight_bruteforce(vectors, weights, flat_dim)


SPLIT_VALUES = (0, 1, -7, 2**62, -(2**62), 2**62 + 1, -(2**62) - 1, -(2**63), 2**63,
                Fraction(1, 2), Fraction(-5, 3))


class TestPointSplit:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[st.one_of(st.integers(-3, 3), st.sampled_from(SPLIT_VALUES))] * d)
        .map(RatPoint), min_size=1, max_size=6)))
    def test_split_equals_the_point_by_point_loop(self, points):
        split = incidence._int_point_matrix(points)
        rows, qs, max_abs = point_split_loop(points)
        dtype = np.int64 if max_abs <= 2**62 else object
        assert split.matrix.dtype == split.q.dtype == dtype
        assert split.matrix.shape == (len(points), points[0].dim)
        assert split.matrix.tolist() == rows
        assert split.q.tolist() == qs
        assert split.max_abs == max_abs
        assert split.integral == all(q == 1 for q in qs)
        for row, q in zip(rows, qs):
            assert q > 0 and gcd_all(row + [q]) == 1

    def test_rational_points_beside_one_past_int64_run_in_python_ints(self):
        # one coordinate past 2^62 moves the whole split, rational points
        # included, to Python ints
        half, big = Fraction(1, 2), 2**62 + 1
        points = [P(half, Fraction(1, 3)), P(1, 1), P(half, 2), P(big, 0),
                  P(0, 0), P(half, Fraction(1, 3)), P(Fraction(3, 2), -1), P(half, 0)]
        flats = [make_hyperplane(IntVector((1, 0)), half),
                 make_hyperplane(IntVector((1, 1)), 2),
                 make_hyperplane(IntVector((0, 1)), 0),
                 make_hyperplane(IntVector((1, 0)), big),
                 make_hyperplane(IntVector((2, 3)), 2),
                 make_hyperplane(IntVector((1, 1)), half),
                 Flat(2, [[1, 0], [0, 1]], [half, Fraction(1, 3)]),
                 Flat(2, [[1, 0], [0, 2]], [big, 0]),
                 Flat(2, [], [])]
        split = incidence._int_point_matrix(points)
        assert split.matrix.dtype == split.q.dtype == object
        assert not split.integral
        assert incidence._max_point_multiplicity(split) == 2
        assert_all_counts_agree(points, flats)
        for s, t in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            inst = IncidenceInstance(points, flats, s, t)
            witness = find_kst(inst)
            found = tuple(first_kst_bruteforce(points, flats, s, t, side)
                          for side in ("points", "flats"))
            if witness is None:
                assert found == (None, None), (s, t)
            else:
                assert (witness.point_indices, witness.flat_indices) in found


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
