"""Generators: grids, admissible normals, spheres, embeddings."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inclab import (
    ConstructionConfig,
    DegenerateRandomness,
    Flat,
    IncidenceInstance,
    IntVector,
    InvalidInput,
    RatPoint,
    build_grid_construction,
    build_sphere_construction,
    contains,
    count_incidences,
    embed_configuration,
    embedding_carrier,
    find_collinear_triple,
    find_kst,
    flats_equal,
    generic_extension,
    intersect,
    lattice_points,
    measure_max_coverage,
    predicted_lower_bound_exponents,
    primitive_vectors,
    select_admissible_normals,
    verify_construction,
)
from inclab import constructions, geometry, incidence, linalg
from inclab.geometry import _hyperplanes, _int_point_matrix
from inclab.serialization import instance_to_dict

from oracles import (
    collinear_triples_bruteforce,
    count_incidences_direct,
    embed_extensions_loop,
    lattice_points_product,
    max_subspace_weight_bruteforce,
    minor_rank,
    pad_hyperplanes_loop,
    primitive_vectors_product,
)


class TestLatticePoints:
    def test_perfect_squares_and_cubes(self):
        pts = lattice_points(2, 9)
        assert {p.coords for p in pts} == {
            (Fraction(x), Fraction(y)) for x in range(3) for y in range(3)
        }
        assert len(lattice_points(3, 27)) == 27
        assert {p.coords for p in lattice_points(3, 27)} == {
            (Fraction(x), Fraction(y), Fraction(z))
            for x in range(3) for y in range(3) for z in range(3)
        }

    def test_truncation_is_lexicographic_and_distinct(self):
        pts = lattice_points(2, 10)
        assert len(pts) == 10
        assert len({p.coords for p in pts}) == 10
        coords = [tuple(int(c) for c in p.coords) for p in pts]
        assert coords == sorted(coords)
        assert all(0 <= c <= 3 for point in coords for c in point)
        assert coords[-1] == (2, 1)

    def test_single_point(self):
        assert lattice_points(4, 1)[0].coords == (Fraction(0),) * 4


class TestPrimitiveVectors:
    def test_box_of_side_two(self):
        vecs = {v.coords for v in primitive_vectors(2, 2)}
        assert vecs == {(1, 0), (0, 1), (1, 1), (1, -1)}

    def test_zero_never_listed(self):
        for side in (1, 2, 3, 5):
            assert all(not v.is_zero() for v in primitive_vectors(side, 3))

    def test_gcd_filter_in_side_four_box(self):
        vecs = {v.coords for v in primitive_vectors(4, 2)}
        assert (2, 2) not in vecs
        assert (2, 1) in vecs

    def test_all_primitive_and_sign_canonical(self):
        for v in primitive_vectors(5, 3):
            assert v.content() == 1
            first = next(c for c in v.coords if c != 0)
            assert first > 0


class TestEnumeratorsMatchTheProductOracle:
    # the grids and the normal candidates come from one numpy box; the
    # one-by-one itertools.product enumeration pins every entry and its order
    def test_lattice_points(self):
        for d in range(1, 5):
            for m in (1, 2, 3, 7, 8, 9, 16, 17, 26, 64, 100, 257):
                coords = [p.coords for p in lattice_points(d, m)]
                assert coords == lattice_points_product(d, m), (d, m)
                assert all(type(c) is int for point in coords for c in point)

    def test_primitive_vectors(self):
        for d in range(1, 5):
            for side in range(1, 8):
                coords = [v.coords for v in primitive_vectors(side, d)]
                assert coords == primitive_vectors_product(side, d), (d, side)
                assert all(type(c) is int for vec in coords for c in vec)


def max_coverage_oracle(vectors, flat_dim):
    """Independent: spans via minor-rank membership, all spanning subsets."""
    if len(vectors) <= flat_dim:
        return len(vectors)
    best = 0
    for subset in combinations(vectors, flat_dim):
        rows = [list(v.coords) for v in subset]
        base_rank = minor_rank(rows)
        count = sum(
            1 for v in vectors if minor_rank(rows + [list(v.coords)]) == base_rank
        )
        best = max(best, count)
    return best


class TestNormalSelection:
    def test_planar_directions_all_accepted(self):
        # distinct sign-canonical directions span distinct lines through the
        # origin, so the per-line count never exceeds 1
        candidates = primitive_vectors(4, 2)
        sel = select_admissible_normals(candidates, 1, 2, len(candidates), seed=3)
        assert len(sel.vectors) == len(candidates)
        assert sel.t_measured <= 2
        assert sel.t_measured == 1
        assert sel.verified

    def test_d3_planes_capped_at_three(self):
        candidates = primitive_vectors(4, 3)
        sel = select_admissible_normals(candidates, 2, 3, len(candidates), seed=5)
        assert sel.verified
        assert sel.t_measured <= 3
        assert sel.t_measured == max_coverage_oracle(sel.vectors, 2)

    def test_saturation_reports_shortfall(self):
        candidates = primitive_vectors(2, 2)
        sel = select_admissible_normals(candidates, 1, 2, 50, seed=1)
        assert len(sel.vectors) == 4
        assert sel.requested == 50

    def test_measure_matches_oracle_on_random_subsets(self):
        rng = Random(2024)
        pool = primitive_vectors(4, 3)
        for _ in range(12):
            chosen = rng.sample(pool, rng.randint(2, 8))
            got, verified = measure_max_coverage(chosen, 2)
            assert verified
            assert got == max_coverage_oracle(chosen, 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5).flatmap(lambda d: st.tuples(
        st.just(d), st.sampled_from([k for k in (d - 1, d - 2) if k >= 1]))),
        st.integers(0, 3), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_selection_measures_its_exact_coverage(self, case, extra, target, seed):
        # targets at or below t_max accept every candidate they visit;
        # larger ones also reject some
        d, flat_dim = case
        t_max = flat_dim + extra
        candidates = primitive_vectors(4 if d <= 3 else 2, d)
        sel = select_admissible_normals(candidates, flat_dim, t_max, target, seed)
        coords = [v.coords for v in sel.vectors]
        assert sel.verified
        assert measure_max_coverage(sel.vectors, flat_dim) == (sel.t_measured, True)
        assert sel.t_measured == max_subspace_weight_bruteforce(
            coords, [1] * len(coords), flat_dim)

    def test_coverage_of_accepts_below_the_cap_is_measured(self):
        # three normals in one plane, all accepted before any can break t_max
        candidates = [IntVector((1, 0, 0)), IntVector((0, 1, 0)), IntVector((1, 1, 0))]
        sel = select_admissible_normals(candidates, 2, 3, 3, seed=0)
        assert len(sel.vectors) == 3
        assert sel.t_measured == 3
        assert sel.verified

    def test_exact_where_a_budgeted_measure_gives_up(self):
        candidates = primitive_vectors(4, 3)
        sel = select_admissible_normals(candidates, 2, 3, 10, seed=0)
        assert measure_max_coverage(sel.vectors, 2, limit=10) == (len(sel.vectors), False)
        assert sel.verified
        assert sel.t_measured == max_coverage_oracle(sel.vectors, 2)
        assert sel.t_measured < len(sel.vectors)

    def test_subspace_count_is_exact_across_int64_bound(self):
        from inclab.incidence import _int_point_matrix, _members

        rng = Random(62)
        for _ in range(60):
            scale = rng.choice((1, 2**31 - 1, 2**31 + 1, 2**61 + 3, 2**62))
            rows = [
                [rng.randint(-1, 1) * (scale if rng.random() < 0.5 else 1)
                 for _ in range(3)]
                for _ in range(rng.randint(1, 8))
            ]
            split = _int_point_matrix([IntVector(row) for row in rows])
            eqs = [tuple(rng.randint(-3, 3) for _ in range(3))
                   for _ in range(rng.randint(1, 2))]
            expected = sum(
                1 for row in rows
                if all(sum(a * x for a, x in zip(e, row)) == 0 for e in eqs)
            )
            assert len(_members(split, eqs)) == expected

    def test_non_primitive_candidates_rejected(self):
        with pytest.raises(InvalidInput):
            select_admissible_normals([IntVector((2, 4))], 1, 2, 1, seed=0)

    def test_guarded_dimension_validated(self):
        with pytest.raises(InvalidInput):
            select_admissible_normals(primitive_vectors(2, 4), 1, 2, 4, seed=0)


class TestGridConstruction:
    def test_exact_count_law_small(self):
        cfg = ConstructionConfig(d=2, m=9, n=30, seed=1, box_side=2)
        out = build_grid_construction(cfg)
        core = IncidenceInstance(out.points, out.flats[: out.padding_start], 2, 1)
        assert count_incidences(core, "naive") == 9 * len(out.normals_used)
        assert count_incidences_direct(
            out.points, out.flats[: out.padding_start]
        ) == out.predicted_incidences

    def test_count_law_across_dims_and_seeds(self):
        for d in (2, 3, 4):
            for seed in (1, 2, 3):
                cfg = ConstructionConfig(d=d, m=3**d, n=40, seed=seed, box_side=2)
                out = build_grid_construction(cfg)
                core = IncidenceInstance(
                    out.points, out.flats[: out.padding_start], 2, 1
                )
                assert (
                    count_incidences(core, "hashed")
                    == count_incidences(core, "naive")
                    == len(out.points) * len(out.normals_used)
                )

    def test_padding_is_incidence_free(self):
        cfg = ConstructionConfig(d=2, m=16, n=60, seed=7, box_side=2)
        out = build_grid_construction(cfg)
        assert len(out.flats) == 60
        pads = out.flats[out.padding_start:]
        assert pads  # the config forces padding
        for flat in pads:
            assert all(not contains(flat, p) for p in out.points)
        padded_only = IncidenceInstance(out.points, pads, 2, 1)
        assert count_incidences(padded_only) == 0

    def test_k2_freeness_at_measured_t(self):
        cfg = ConstructionConfig(d=2, m=100, n=80, seed=2, box_side=4)
        out = build_grid_construction(cfg)
        inst = IncidenceInstance(out.points, out.flats, 2, out.t_measured + 1)
        assert find_kst(inst) is None

    def test_k2_freeness_d3(self):
        cfg = ConstructionConfig(d=3, m=64, n=120, seed=4, box_side=3)
        out = build_grid_construction(cfg)
        inst = IncidenceInstance(out.points, out.flats, 2, out.t_measured + 1)
        assert find_kst(inst) is None

    def test_core_offsets_are_exact_dot_products_across_int64_bounds(self):
        from inclab import RatPoint
        from inclab.constructions import _core_hyperplanes
        from inclab.incidence import _int_point_matrix

        rng = Random(3162)
        magnitudes = (0, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**62 - 1, 2**62, 2**62 + 1)
        for _ in range(40):
            d = rng.randint(2, 3)
            points = []
            for _ in range(rng.randint(1, 10)):
                coords = [rng.choice((-1, 1)) * rng.choice(magnitudes)
                          for _ in range(d)]
                if rng.random() < 0.2:
                    coords[0] = Fraction(rng.randint(-9, 9), 2)
                points.append(RatPoint(coords))
            normals = [IntVector(v) for v in
                       {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4)}
                       if any(v)]
            split = _int_point_matrix(points)
            flats, achieved = _core_hyperplanes(normals, split)
            for v in normals:
                assert achieved[v] == {
                    sum(a * x for a, x in zip(v.coords, p.coords)) for p in points
                }
            assert len(flats) == sum(len(achieved[v]) for v in normals)
            assert count_incidences_direct(points, flats) == len(points) * len(normals)

    def test_determinism(self):
        cfg = ConstructionConfig(d=2, m=25, n=50, seed=11, box_side=3)
        a = build_grid_construction(cfg)
        b = build_grid_construction(cfg)
        inst_a = IncidenceInstance(a.points, a.flats, 2, 1)
        inst_b = IncidenceInstance(b.points, b.flats, 2, 1)
        assert instance_to_dict(inst_a, a) == instance_to_dict(inst_b, b)

    def test_distinct_flats(self):
        cfg = ConstructionConfig(d=2, m=36, n=70, seed=9, box_side=3)
        out = build_grid_construction(cfg)
        keys = {
            (f.equations, f.rhs) for f in out.flats
        }
        assert len(keys) == len(out.flats)

    def test_auto_box_side_error_when_m_dominates(self):
        cfg = ConstructionConfig(d=2, m=10**6, n=2, seed=0)
        with pytest.warns(UserWarning):
            with pytest.raises(InvalidInput):
                build_grid_construction(cfg)

    @pytest.mark.parametrize("name, value", [
        ("m", 100.5), ("d", 2.0), ("n", "300"), ("s", 2.5), ("seed", 1.5),
        ("t_cap", 3.0), ("box_side", 2.5), ("d", True),
    ])
    def test_non_integer_parameters_rejected(self, name, value):
        fields = {"d": 2, "m": 100, "n": 300, name: value}
        with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
            ConstructionConfig(**fields)

    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_epsilon_prime_must_be_a_number(self, value):
        with pytest.raises(InvalidInput, match="epsilon_prime must be a number"):
            ConstructionConfig(d=2, m=100, n=300, epsilon_prime=value)

    def test_regime_warning_is_note_not_error(self):
        cfg = ConstructionConfig(d=2, m=10, n=3, seed=0, box_side=2)
        with pytest.warns(UserWarning, match="regime"):
            out = build_grid_construction(cfg)
        assert any("regime" in note for note in out.notes)


class TestPaddingDraws:
    WIDTHS = list(range(1, 301)) + [2**j + e for j in range(1, 71) for e in (-1, 0, 1)]

    def test_word_replay_is_randint_and_getrandbits(self):
        # widths past 2^32 take several words a draw; no construction draws
        # that wide, so they are pinned here
        for w in self.WIDTHS:
            rng, reference = Random(w), Random(w)
            words = constructions._words(rng)
            got = [constructions._randbelow(words.__next__, w) for _ in range(20)]
            words.close()
            assert got == [reference.randint(-5, w - 6) + 5 for _ in range(20)], w
            assert rng.getstate() == reference.getstate(), w
        # the words are getrandbits(32) in order, across chunks, and a
        # stream closed before its first word leaves the Random as it was
        rng, reference = Random(3), Random(3)
        words = constructions._words(rng)
        taken = 2 * constructions._WORD_CHUNK + 5
        got = [next(words) for _ in range(taken)]
        words.close()
        assert got == [reference.getrandbits(32) for _ in range(taken)]
        assert rng.getstate() == reference.getstate()
        constructions._words(rng).close()
        assert rng.getstate() == reference.getstate()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 4), st.integers(1, 300), st.integers(0, 2**32),
           st.lists(st.tuples(st.integers(-9, 9), st.sampled_from((2, 3))), max_size=4),
           st.integers(0, 6), st.sampled_from((1, 3, 64, 4096)))
    def test_padding_is_the_randint_loop(self, d, count, seed, rational, known, chunk):
        # grid points padded with rational points, as the sphere's, so the
        # offset sets hold Fractions; the pool's first normals come with
        # their offset sets, as core normals do
        points = lattice_points(d, 2**d) + tuple(
            RatPoint([Fraction(num, den)] + [1] * (d - 1)) for num, den in rational
        )
        achieved = {v: constructions._achieved_offsets(v, points)
                    for v in primitive_vectors(2 * constructions._PAD_NORMAL_BOX, d)[:known]}
        kept = {v: set(c) for v, c in achieved.items()}
        rng, reference = Random(seed), Random(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_WORD_CHUNK", chunk)
            family = constructions._pad_hyperplanes(points, count, d, rng, achieved)
        expected = pad_hyperplanes_loop(points, count, d, reference, achieved)
        assert family.rows.tolist() == expected.rows.tolist()
        assert family.den.tolist() == expected.den.tolist()
        assert rng.getstate() == reference.getstate()
        assert achieved == kept  # the drawn offsets go to copies


class TestSphereConstruction:
    def test_requires_d_at_least_4(self):
        with pytest.raises(InvalidInput):
            build_sphere_construction(ConstructionConfig(d=3, m=10, n=10))

    def test_sphere_law_exact(self):
        cfg = ConstructionConfig(d=4, m=80, n=300, seed=1, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        norms = {sum(c * c for c in p.coords) for p in out.points}
        assert len(norms) == 1

    def test_no_three_collinear_small(self):
        cfg = ConstructionConfig(d=4, m=40, n=150, seed=2, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        assert find_collinear_triple(out.points) is None
        assert collinear_triples_bruteforce(out.points[:25]) == []

    def test_k3_freeness_at_measured_t(self):
        cfg = ConstructionConfig(d=4, m=60, n=200, seed=3, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        inst = IncidenceInstance(out.points, out.flats, 3, out.t_measured + 1)
        assert find_kst(inst) is None

    def test_padding_points_are_on_sphere_and_off_all_hyperplanes(self):
        from random import Random

        from inclab.constructions import _achieved_offsets, _sphere_pad_points
        from inclab.incidence import _int_point_matrix

        cfg = ConstructionConfig(d=4, m=60, n=200, seed=5, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        delta_sq = int(sum(c * c for c in out.points[0].coords))
        split = _int_point_matrix(out.points)
        achieved = {
            v: _achieved_offsets(v, split) for v in out.normals_used
        }
        pads = _sphere_pad_points(
            out.points[0], delta_sq, 12, {p.coords for p in out.points},
            out.normals_used, achieved, Random(99),
        )
        assert len(pads) == 12
        for p in pads:
            assert sum(c * c for c in p.coords) == delta_sq
            assert any(c.denominator > 1 for c in p.coords)
            assert all(not contains(f, p) for f in out.flats[: out.padding_start])
        # zero incidences added on the core family
        widened = IncidenceInstance(
            tuple(out.points) + tuple(pads), out.flats[: out.padding_start], 3, 1
        )
        core = IncidenceInstance(out.points, out.flats[: out.padding_start], 3, 1)
        assert count_incidences(widened, "naive") == count_incidences(core, "naive")
        assert (
            count_incidences(core, "hashed")
            == out.core_point_count * len(out.normals_used)
            == out.predicted_incidences
        )

    def test_determinism(self):
        cfg = ConstructionConfig(d=4, m=50, n=120, seed=21, box_side=2, s=3)
        a = build_sphere_construction(cfg)
        b = build_sphere_construction(cfg)
        assert instance_to_dict(
            IncidenceInstance(a.points, a.flats, 3, 1), a
        ) == instance_to_dict(IncidenceInstance(b.points, b.flats, 3, 1), b)

    def test_organic_point_padding_end_to_end(self):
        # d=5 with m=500 overfills the densest grid sphere, so rational
        # padding points really appear; padding hyperplanes must then avoid
        # the padded points too, not just the grid bucket
        cfg = ConstructionConfig(d=5, m=500, n=3000, seed=13, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        assert len(out.points) == 500
        assert out.core_point_count < 500
        padded = out.points[out.core_point_count:]
        assert padded and all(p.int_coords() is None for p in padded)
        norms = {sum(c * c for c in p.coords) for p in out.points}
        assert len(norms) == 1
        for p in padded:
            assert all(not contains(f, p) for f in out.flats)
        core = IncidenceInstance(out.points, out.flats[: out.padding_start], 3, 1)
        full = IncidenceInstance(out.points, out.flats, 3, 1)
        assert (
            count_incidences(full, "hashed")
            == count_incidences(core, "hashed")
            == out.predicted_incidences
        )
        assert count_incidences(full, "naive") == out.predicted_incidences

    def test_padding_hyperplanes_avoid_padded_points(self, monkeypatch):
        # generated pad points are rationals whose dot products with the
        # padding normals are almost never integers, so stand-in integer
        # points show whether the padding hyperplanes see the padded points
        from inclab import RatPoint, constructions

        def integer_pads(base, delta_sq, needed, *rest):
            return [RatPoint((100 + k, 0, 0, 0, 0)) for k in range(needed)]

        monkeypatch.setattr(constructions, "_sphere_pad_points", integer_pads)
        for seed in range(4):
            cfg = ConstructionConfig(d=5, m=216, n=400, seed=seed, box_side=2, s=3)
            out = build_sphere_construction(cfg)
            padded = out.points[out.core_point_count:]
            assert len(padded) == 6
            for f in out.flats[out.padding_start:]:
                assert not any(contains(f, p) for p in padded)

    def test_padding_on_a_core_normal_sees_the_padded_points(self, monkeypatch):
        # a padding normal that is also a core normal has its offset set
        # from the core points; it must be widened to the padded points
        # before the padding hyperplanes are drawn.  The stand-in pad normal
        # is a core normal, and the stand-in pad points fill every integer
        # offset just above the core ones, so a stale set lets about half
        # of the drawn hyperplanes through a padded point.
        from dataclasses import replace

        from inclab import RatPoint, constructions

        cfg = ConstructionConfig(d=5, m=512, n=200, seed=0, box_side=2, s=3, pad=False)
        first = build_sphere_construction(cfg)
        v = first.normals_used[0]
        axis = next(j for j, c in enumerate(v.coords) if c)  # that coordinate is 1
        high = max(int(v.dot(p)) for p in first.points[: first.core_point_count])

        def integer_pads(base, delta_sq, needed, *rest):
            return [RatPoint([high + k if j == axis else 0 for j in range(5)])
                    for k in range(1, needed + 1)]

        real_pool = constructions.primitive_vectors

        def pad_pool(box_side, d):
            if box_side == 2 * constructions._PAD_NORMAL_BOX:
                return [v]
            return real_pool(box_side, d)

        monkeypatch.setattr(constructions, "_sphere_pad_points", integer_pads)
        monkeypatch.setattr(constructions, "primitive_vectors", pad_pool)
        out = build_sphere_construction(replace(cfg, n=first.padding_start + 20, pad=True))
        assert out.normals_used == first.normals_used
        assert len(out.points) - out.core_point_count == 32
        pads = IncidenceInstance(out.points, out.flats[out.padding_start:], 3, 1)
        assert len(pads.flats) == 20
        assert count_incidences(pads, "naive") == 0


class TestEmbedding:
    def _inner(self, seed):
        cfg = ConstructionConfig(d=2, m=25, n=30, seed=seed, box_side=2)
        return build_grid_construction(cfg)

    def test_counts_preserved_exactly(self):
        for seed in (1, 2, 3):
            inner = self._inner(seed)
            before = count_incidences(IncidenceInstance(inner.points, inner.flats, 2, 1))
            emb = embed_configuration(inner, 4, 2, seed=seed + 100)
            after_inst = IncidenceInstance(emb.points, emb.flats, 2, 1)
            assert count_incidences(after_inst, "hashed") == before
            assert count_incidences(after_inst, "naive") == before

    def test_extensions_meet_carrier_exactly_in_original(self):
        inner = self._inner(4)
        emb = embed_configuration(inner, 5, 3, seed=9)
        carrier = embedding_carrier(2, 5)
        for f_inner, f_out in zip(inner.flats, emb.flats):
            assert f_out.dim == 3
            meet = intersect(f_out, carrier)
            assert meet is not None
            rows = [list(r) + [Fraction(0)] * 3 for r in f_inner.equations]
            embedded = meet.__class__(
                5, rows + list(carrier.equations), list(f_inner.rhs) + [0, 0, 0]
            )
            assert flats_equal(meet, embedded)

    @pytest.mark.parametrize("size", [256, 1024])
    def test_embedded_grid_is_certified_free(self, size, monkeypatch):
        # every embedded flat is a 2-flat of R^4, none a hyperplane; in the
        # points' affine hull, the carrier plane, each is a line, so every
        # flat joins a run and the certificate reads the planar grid's runs
        inner = build_grid_construction(ConstructionConfig(d=2, m=size, n=size, seed=1))
        emb = embed_configuration(inner, 4, 2, seed=1)
        inst = IncidenceInstance(emb.points, emb.flats, 2, emb.t_measured + 1)
        runs = inst._grouping
        assert sorted(runs.order.tolist()) == list(range(len(emb.flats)))
        assert not len(runs.others) and inst._other_members == {}
        assert inst._hashed_points == inner.points
        assert incidence._certificate_gap(inst, incidence.DEFAULT_COMPARISON_LIMIT) is None

        def no_search(*args):
            raise AssertionError("the mask search ran")

        monkeypatch.setattr(incidence, "_first_common_subset", no_search)
        assert find_kst(inst) is None
        report = verify_construction(emb, 2, emb.t_measured + 1)
        assert report.kst_status == "free" and report.counts_agree

    def test_pure_embedding_when_k_is_inner_hyperplane_dim(self):
        inner = self._inner(6)
        emb = embed_configuration(inner, 4, 1, seed=3)
        assert all(f.dim == 1 for f in emb.flats)
        before = count_incidences(IncidenceInstance(inner.points, inner.flats, 2, 1))
        after = count_incidences(IncidenceInstance(emb.points, emb.flats, 2, 1))
        assert before == after
        # built with no elimination, each is the value the constructor gives
        assert emb.flats == tuple(Flat(4, f.equations, f.rhs) for f in emb.flats)

    @staticmethod
    def _signed_inner(d):
        """Hyperplanes of R^d with negative leading coefficients, rational
        offsets and coefficients, and rank-1 systems of several rows (a zero
        row and a multiple first), through rational and integer points."""
        points = [RatPoint([Fraction(i, 3) - j for j in range(d)]) for i in range(6)]
        base = [
            ((-2,) + (3,) * (d - 1), Fraction(5, 3)),
            ((0, -1) + (1,) * (d - 2), -4),
            ((-1,) + (0,) * (d - 1), Fraction(-7, 2)),
            ((Fraction(-1, 2),) + (2,) * (d - 1), Fraction(1, 6)),
        ]
        flats = [Flat(d, [a], [c]) for a, c in base]
        a, c = base[0]
        flats.append(Flat(d, [[0] * d, [2 * x for x in a], a], [0, 2 * c, c]))
        flats.append(_hyperplanes(d, [(-3,) + (1,) * (d - 1)], [0, 0], [2, -5]))
        flats = tuple(flats[:-1]) + tuple(flats[-1])
        return replace(build_grid_construction(ConstructionConfig(d=d, m=4, n=4, box_side=2)),
                       points=_int_point_matrix(points), flats=flats,
                       padding_start=len(flats), predicted_incidences=0)

    @staticmethod
    def _flat_by_flat(inner, d_outer, k, rng):
        """The embedding one ``generic_extension`` at a time on ``rng``."""
        d = inner.ambient_dim
        carrier = embedding_carrier(d, d_outer)
        zeros = (0,) * (d_outer - d)
        embedded = [Flat._spanned(d_outer, tuple(r + zeros for r in f.equations)
                                  + carrier.equations, f.rhs + carrier.rhs, d - 1)
                    for f in inner.flats]
        if k == d - 1:
            return tuple(embedded)
        return tuple(generic_extension(f, k, d_outer, rng, within=carrier) for f in embedded)

    @pytest.mark.parametrize("box", [None, 1, 0])
    @pytest.mark.parametrize("d_inner, d_outer, k", [
        (2, 4, 2), (2, 5, 3), (3, 5, 3), (2, 4, 1), (2, 3, 2),
    ])
    def test_shortcut_is_the_flat_by_flat_extension(
            self, monkeypatch, d_inner, d_outer, k, box):
        # the embedded hyperplane is read off its rows, not eliminated, and
        # the draws are generic_extension's on the same Random: equal flats
        # and an equal rng state, retries and give-ups included; and both
        # end where the oracle's loop of randint calls ends
        if box is not None:
            monkeypatch.setattr(geometry, "EXTENSION_BOX", box)
        draws = fewest = 0
        for inner in (self._signed_inner(d_inner),
                      build_grid_construction(ConstructionConfig(d=d_inner, m=27, n=30, seed=2))):
            used = []

            class Seen(Random):
                def __init__(self, seed):
                    super().__init__(seed)
                    used.append(self)

            monkeypatch.setattr(constructions, "Random", Seen)
            reference = Random(7)
            try:
                expected = self._flat_by_flat(inner, d_outer, k, reference)
            except DegenerateRandomness:
                expected = None
            if expected is None:
                # every draw is rejected, so the first flat gives up; the
                # embedding drew one group per flat before any check, and on
                # giving up it sets its Random back and draws again the
                # loop's values
                assert box == 0
                with pytest.raises(DegenerateRandomness):
                    embed_configuration(inner, d_outer, k, seed=7)
            else:
                emb = embed_configuration(inner, d_outer, k, seed=7)
                assert emb.flats == expected and expected == emb.flats
                assert isinstance(emb.flats, geometry.FlatFamily)
            assert used[-1].getstate() == reference.getstate()
            if k > d_inner - 1:
                counted = Counted(7)
                embed_extensions_loop(inner.flats, d_inner, d_outer, k, counted,
                                      geometry.EXTENSION_BOX, geometry.RETRY_BUDGET)
                assert counted.getstate() == reference.getstate()
                draws += counted.draws
                fewest += len(inner.flats) * (k - d_inner + 1) * d_outer
        if box == 1 and k > d_inner - 1:
            # with directions in {-1, 0, 1}^d some draws are retried
            assert draws > fewest

    def test_dimension_preconditions(self):
        inner = self._inner(8)
        with pytest.raises(InvalidInput):
            embed_configuration(inner, 2, 1, seed=0)
        with pytest.raises(InvalidInput):
            embed_configuration(inner, 4, 0, seed=0)
        with pytest.raises(InvalidInput):
            embed_configuration(inner, 4, 4, seed=0)


class Counted(Random):
    """A ``Random`` that counts its ``randint`` calls."""

    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


@lru_cache(maxsize=None)
def _small_grid(d):
    return build_grid_construction(ConstructionConfig(d=d, m=4, n=4, box_side=2))


@st.composite
def embed_inputs(draw):
    """Hyperplanes of R^d (d 2 to 4, possibly none) as a family or as a
    tuple of flats with scaled, rational or redundant rows, in an inner
    configuration; an outer dimension up to d + 3 and every k >= d; a seed
    and whether the draws come from {-1, 0, 1}, where retries are common."""
    d = draw(st.integers(2, 4))
    d_outer = draw(st.integers(d + 1, d + 3))
    k = draw(st.integers(d, d_outer - 1))
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    rational = st.fractions(-3, 3, max_denominator=4)
    count = draw(st.integers(0, 6))
    if draw(st.booleans()):
        normals = draw(st.lists(normal, min_size=1, max_size=3))
        ids = draw(st.lists(st.integers(0, len(normals) - 1), min_size=count, max_size=count))
        offsets = draw(st.lists(st.one_of(st.integers(-5, 5), rational),
                                min_size=count, max_size=count))
        flats = _hyperplanes(d, normals, ids, offsets)
    else:
        flats = []
        for _ in range(count):
            a, c = draw(normal), draw(rational)
            kind = draw(st.sampled_from(("plain", "scaled", "redundant")))
            if kind == "scaled":
                factor = draw(rational.filter(bool))
                flats.append(Flat(d, [[factor * x for x in a]], [factor * c]))
            elif kind == "redundant":  # a zero row and a multiple first
                flats.append(Flat(d, [[0] * d, [2 * x for x in a], a], [0, 2 * c, c]))
            else:
                flats.append(Flat(d, [a], [c]))
        flats = tuple(flats)
    inner = replace(_small_grid(d), flats=flats, padding_start=len(flats),
                    predicted_incidences=0)
    return inner, d_outer, k, draw(st.integers(0, 2**32)), draw(st.booleans())


class TestEmbeddingOracle:
    @staticmethod
    def _check(inner, d_outer, k, seed, box=None, budget=geometry.RETRY_BUDGET):
        """The embedding against the oracle's loop of ``randint`` calls on
        ``Random(seed)``, with draws from [-box, box] and ``budget`` draws a
        flat: equal rows, or a give-up for both, and equal ``Random``
        states after either."""
        used = []

        class Seen(Random):
            def __init__(self, seed):
                super().__init__(seed)
                used.append(self)

        with pytest.MonkeyPatch.context() as patch:
            if box is not None:
                patch.setattr(geometry, "EXTENSION_BOX", box)
            oracle = Random(seed)
            expected = embed_extensions_loop(inner.flats, inner.ambient_dim, d_outer, k,
                                             oracle, geometry.EXTENSION_BOX, budget)
            patch.setattr(constructions, "Random", Seen)
            patch.setattr(constructions, "_extension_rows", lambda *args: (
                geometry._extension_rows(*args, retry_budget=budget)))
            if expected is None:
                with pytest.raises(DegenerateRandomness):
                    embed_configuration(inner, d_outer, k, seed)
                assert used[-1].getstate() == oracle.getstate()
                return None
            emb = embed_configuration(inner, d_outer, k, seed)
        blocks, dens = expected
        assert emb.flats.rows.tolist() == list(chain(*blocks))
        assert emb.flats.den.tolist() == list(chain(*dens))
        assert np.diff(emb.flats.starts).tolist() == [len(b) for b in blocks]
        assert used[-1].getstate() == oracle.getstate()
        return emb

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(embed_inputs())
    def test_batched_embedding_is_the_flat_by_flat_loop(self, case):
        # the minors kernel reads every flat and every draw as the
        # eliminations of the flat-by-flat loop do, value for value
        inner, d_outer, k, seed, small = case
        self._check(inner, d_outer, k, seed, 1 if small else None)

    def test_retries_mid_stack_shift_the_later_flats(self):
        # with draws from {-1, 0, 1} some flats past the first are retried,
        # and every later flat takes the group after the one it would have had
        inner = TestEmbedding._signed_inner(3)
        inner = replace(inner, flats=inner.flats * 3)
        group = (4 - 2) * 6  # the values of one draw: 2 directions in R^6
        # with a budget of one draw: the first flat takes its first draw
        assert embed_extensions_loop(inner.flats[:1], 3, 6, 4, Random(1), 1, 1) is not None
        counted = Counted(1)
        assert embed_extensions_loop(inner.flats, 3, 6, 4, counted, 1,
                                     geometry.RETRY_BUDGET) is not None
        assert counted.draws > len(inner.flats) * group
        assert self._check(inner, 6, 4, 1, box=1) is not None

    def test_a_give_up_mid_stack_is_the_loops(self):
        # with draws from {-1, 0, 1} and one draw a flat, a flat past the
        # first gives up after the stack drew groups for the flats after
        # it: the embedding raises where the loop does, and its Random ends
        # where the loop's does
        inner = TestEmbedding._signed_inner(3)
        inner = replace(inner, flats=inner.flats * 3)
        mid_stack = 0
        for seed in range(20):
            counted = Counted(seed)
            if embed_extensions_loop(inner.flats, 3, 6, 4, counted, 1, 1) is None:
                mid_stack += counted.draws > 6 * 2
            self._check(inner, 6, 4, seed, box=1, budget=1)
        assert mid_stack

    def test_a_give_up_mid_stack_leaves_the_loops_state(self, monkeypatch):
        # a flat past the first gives up after the stack drew groups for the
        # flats after it: the Random ends where drawing flat by flat, a stack
        # of one at a time, leaves it
        monkeypatch.setattr(geometry, "EXTENSION_BOX", 1)
        units = np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)
        mid_stack = 0
        for seed in range(40):
            directions = np.array([[[1, j % 3 - 1, 0, 0]] for j in range(6)], dtype=np.int64)
            stacked, alone = Random(seed), Random(seed)
            try:
                stacked_rows = geometry._extension_rows(directions, 3, stacked, units, 2)
            except DegenerateRandomness:
                stacked_rows = None
            alone_rows, gave_up = [], None
            for j in range(len(directions)):
                try:
                    alone_rows.append(
                        geometry._extension_rows(directions[j : j + 1], 3, alone, units, 2))
                except DegenerateRandomness:
                    gave_up = j
                    break
            assert stacked.getstate() == alone.getstate()
            if gave_up is None:
                assert [x.tolist() for x in stacked_rows] == [
                    np.concatenate(parts).tolist() for parts in zip(*alone_rows)]
            else:
                assert stacked_rows is None
                mid_stack += 0 < gave_up < len(directions) - 1
        assert mid_stack

    @pytest.mark.parametrize("low, high", [(-10**6, 10**6), (0, 0), (-1, 1), (5, 2**31 + 4),
                                           (0, 2**32 - 2), (-7, 2**20)])
    def test_replayed_draws_are_the_randint_loop(self, low, high):
        # one getrandbits replays randint call for call, and leaves the
        # Random where the calls leave it, for every width of one word
        for seed in range(12):
            for n in (0, 1, 7, 4096):
                rng, reference = Random(seed), Random(seed)
                got = geometry._randints(rng, n, low, high)
                assert got.dtype == np.int64
                assert got.tolist() == [reference.randint(low, high) for _ in range(n)]
                assert rng.random() == reference.random()

    @pytest.mark.parametrize("low, high", [(0, 2**32 - 1), (-(2**40), 2**40), (3, 2)])
    def test_draws_past_one_word_or_empty_are_refused(self, low, high):
        with pytest.raises(InvalidInput):
            geometry._randints(Random(1), 3, low, high)


class TestNonIntegerParameters:
    """Every integer parameter is an ``int``: a float, a string or a bool is
    :class:`InvalidInput`, never truncated, run as is, or a bare TypeError."""

    @pytest.mark.parametrize("d, m", [(2.0, 5), (True, 5), (2, 5.0), (2, True)])
    def test_lattice_points(self, d, m):
        with pytest.raises(InvalidInput, match="must be an integer"):
            lattice_points(d, m)

    @pytest.mark.parametrize("box_side, d", [(3.0, 2), (True, 2), (3, 2.0), (3, "2")])
    def test_primitive_vectors(self, box_side, d):
        with pytest.raises(InvalidInput, match="must be an integer"):
            primitive_vectors(box_side, d)

    @pytest.mark.parametrize("flat_dim, t_max, target_size, seed", [
        (1.0, 2, 4, 0), (True, 2, 4, 0), (1, 3.0, 4, 0), (1, 2, 4.0, 0), (1, 2, 4, 1.5),
    ])
    def test_select_admissible_normals(self, flat_dim, t_max, target_size, seed):
        with pytest.raises(InvalidInput, match="must be an integer"):
            select_admissible_normals(primitive_vectors(3, 2), flat_dim, t_max, target_size, seed)

    @pytest.mark.parametrize("flat_dim, limit", [(1.0, 100), (True, 100), (1, 100.5)])
    def test_measure_max_coverage(self, flat_dim, limit):
        with pytest.raises(InvalidInput, match="must be an integer"):
            measure_max_coverage(primitive_vectors(3, 2), flat_dim, limit)

    @pytest.mark.parametrize("d_inner, d_outer", [(2.0, 4), (2, 4.0), (True, 3)])
    def test_embedding_carrier(self, d_inner, d_outer):
        with pytest.raises(InvalidInput, match="must be an integer"):
            embedding_carrier(d_inner, d_outer)

    @pytest.mark.parametrize("d_outer, k, seed", [
        (4.0, 2, 1), (4, 2.0, 1), (4, True, 1), (4, 2, 1.5), (4, 1, "1"),
    ])
    def test_embed_configuration(self, d_outer, k, seed):
        # a float seed would be written to the instance file, which the
        # loader then refuses
        inner = build_grid_construction(ConstructionConfig(d=2, m=9, n=9, seed=1, box_side=2))
        with pytest.raises(InvalidInput, match="must be an integer"):
            embed_configuration(inner, d_outer, k, seed)


class TestVerifyConstruction:
    def test_clean_instance_report(self):
        cfg = ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3)
        out = build_grid_construction(cfg)
        report = verify_construction(out, 2, out.t_measured + 1)
        assert report.counts_agree
        assert report.matches_predicted
        assert report.kst_status == "free"
        assert report.witness is None
        assert report.predicted_exponents == (Fraction(2, 3), Fraction(2, 3))

    def test_empty_family_is_trivially_free(self):
        out = build_grid_construction(
            ConstructionConfig(d=2, m=4, n=5, seed=0, box_side=2, pad=False)
        )
        stripped = type(out)(
            variant=out.variant,
            ambient_dim=out.ambient_dim,
            points=out.points,
            flats=(),
            normals_used=(),
            t_measured=0,
            t_verified=True,
            predicted_incidences=0,
            padding_start=0,
            core_point_count=len(out.points),
            seed=out.seed,
            notes=out.notes,
        )
        report = verify_construction(stripped, 2, 1)
        assert report.hashed_count == 0
        assert report.kst_status == "free"

    def test_duplicated_hyperplanes_yield_witness(self):
        cfg = ConstructionConfig(d=2, m=25, n=30, seed=5, box_side=2)
        out = build_grid_construction(cfg)
        # duplicate one populated hyperplane t_measured + 1 times: any two of
        # its points now share t_measured + 1 flats
        dup = out.flats[0]
        corrupted = type(out)(
            variant=out.variant,
            ambient_dim=out.ambient_dim,
            points=out.points,
            flats=out.flats + (dup,) * (out.t_measured + 1),
            normals_used=out.normals_used,
            t_measured=out.t_measured,
            t_verified=out.t_verified,
            predicted_incidences=out.predicted_incidences,
            padding_start=out.padding_start,
            core_point_count=out.core_point_count,
            seed=out.seed,
            notes=out.notes,
        )
        report = verify_construction(corrupted, 2, out.t_measured + 1)
        assert report.kst_status == "witness"
        assert report.witness is not None

    def test_flats_are_classified_once(self, monkeypatch):
        # the hashed count, the core count and the K_{s,t} masks share one
        # classification of the flats
        calls = []
        group_flats = incidence._group_flats
        monkeypatch.setattr(
            incidence, "_group_flats", lambda flats: calls.append(len(flats)) or group_flats(flats)
        )
        out = build_grid_construction(ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3))
        report = verify_construction(out, 2, out.t_measured + 1)
        assert calls == [len(out.flats)]
        assert report.kst_status == "free"
        assert report.core_count == count_incidences_direct(
            out.points, out.flats[: out.padding_start]
        )

    def test_points_are_split_once(self, monkeypatch):
        # the naive count, both hashed counts and the K_{s,t} masks read the
        # instance's one point split
        out = build_grid_construction(ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3))
        calls = []
        split = incidence._int_point_matrix
        monkeypatch.setattr(
            incidence, "_int_point_matrix", lambda points: calls.append(len(points)) or split(points)
        )
        report = verify_construction(out, 2, out.t_measured + 1)
        assert calls == [len(out.points)]
        assert report.counts_agree and report.matches_predicted
        assert report.kst_status == "free"

    def test_embedded_flats_are_classified_once(self, monkeypatch):
        # on an embedded family the hashed count, the core count and the
        # K_{s,t} certificate share one affine hull and one classification
        # of the flats' traces on it, and no flat goes by _group_flats
        inner = build_grid_construction(ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3))
        emb = embed_configuration(inner, 4, 2, seed=3)
        hulls, groupings = [], []
        affine_hull, group_flats = linalg.affine_hull, incidence._group_flats
        monkeypatch.setattr(
            linalg, "affine_hull", lambda matrix, q: hulls.append(len(q)) or affine_hull(matrix, q))
        monkeypatch.setattr(
            incidence, "_group_flats", lambda flats: groupings.append(len(flats)) or group_flats(flats))
        report = verify_construction(emb, 2, emb.t_measured + 1)
        assert hulls == [len(emb.points)] and groupings == []
        assert report.kst_status == "free"
        assert report.core_count == count_incidences_direct(
            emb.points, emb.flats[: emb.padding_start]
        )

    def test_embedded_points_are_split_once(self, monkeypatch):
        # the naive count reads the instance's one point split, and both
        # hashed counts and the certificate one projection of it onto the
        # free coordinates of the points' affine hull
        inner = build_grid_construction(ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3))
        emb = embed_configuration(inner, 4, 2, seed=3)
        splits, projections = [], []
        split, hull_points = incidence._int_point_matrix, incidence._hull_points
        monkeypatch.setattr(
            incidence, "_int_point_matrix", lambda points: splits.append(len(points)) or split(points))
        monkeypatch.setattr(incidence, "_hull_points", lambda points, free: projections.append(
            len(points)) or hull_points(points, free))
        report = verify_construction(emb, 2, emb.t_measured + 1)
        assert splits == projections == [len(emb.points)]
        assert report.counts_agree and report.matches_predicted
        assert report.kst_status == "free"

    def test_a_skipped_naive_recount_is_noted(self, monkeypatch):
        out = build_grid_construction(ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3))
        monkeypatch.setattr(constructions, "_NAIVE_LIMIT", len(out.points) * len(out.flats) - 1)
        report = verify_construction(out, 2, out.t_measured + 1)
        assert report.naive_count is None and report.counts_agree is None
        assert report.notes == ("naive recount skipped above the size cap",)
        assert report.hashed_count == count_incidences_direct(out.points, out.flats)
        assert report.matches_predicted and report.kst_status == "free"

    def test_unverified_search_is_noted(self):
        out = build_grid_construction(ConstructionConfig(d=2, m=49, n=60, seed=3, box_side=3))
        assert out.t_measured + 1 == 2
        # C(49, 2) point pairs of one mask word each are over 100, but one
        # flat per (normal, offset) certifies K_{2,2}-freeness within it
        report = verify_construction(out, 2, 2, kst_limit=100)
        assert (report.kst_status, report.witness, report.notes) == ("free", None, ())
        # a second copy of a core line through two points reaches t = 2, so
        # the certificate gives way to the search, which is over budget
        line = next(f for f in out.flats[: out.padding_start]
                    if sum(contains(f, p) for p in out.points) >= 2)
        doubled = replace(out, flats=out.flats + (line,))
        report = verify_construction(doubled, 2, 2, kst_limit=100)
        assert (report.kst_status, report.witness) == ("unverified", None)
        assert report.notes == (
            "K_{2,2} search unverified: K_{2,2} search needs ~1.18e+03 comparisons,"
            " over the budget of 100 (certificate bound 2 reaches t=2)",
        )
        assert report.counts_agree and report.matches_predicted

    def test_variant_b_report_includes_collinearity(self):
        cfg = ConstructionConfig(d=4, m=30, n=100, seed=2, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        report = verify_construction(out, 3, out.t_measured + 1)
        assert report.collinear_triple is None
        assert report.predicted_exponents == (Fraction(7, 11), Fraction(8, 11))

    def test_a_skipped_collinearity_scan_is_noted(self, monkeypatch):
        from inclab import constructions

        cfg = ConstructionConfig(d=4, m=30, n=100, seed=2, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        monkeypatch.setattr(constructions, "_COLLINEAR_LIMIT", len(out.points) - 1)
        report = verify_construction(out, 3, out.t_measured + 1)
        assert report.collinear_triple is None
        assert report.notes == ("collinearity scan skipped above the size cap",)


class TestPredictedExponents:
    def test_grid_variant_matches_chain_term(self):
        for d in range(2, 8):
            alpha, beta = predicted_lower_bound_exponents("a", d)
            assert alpha == Fraction(2 * d - 2, 2 * d - 1)
            assert beta == Fraction(d, 2 * d - 1)

    def test_sphere_variant_formula(self):
        assert predicted_lower_bound_exponents("b", 4) == (
            Fraction(7, 11),
            Fraction(8, 11),
        )
        alpha, beta = predicted_lower_bound_exponents("b", 6)
        assert alpha == Fraction(3 * 36 - 54 + 2, 4 * 17)
        assert beta == Fraction(12, 17)

    def test_unknown_variant(self):
        with pytest.raises(InvalidInput):
            predicted_lower_bound_exponents("c", 4)
