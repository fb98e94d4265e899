"""Generators: grids, admissible normals, spheres, embeddings."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from inclab import (
    ConstructionConfig,
    IncidenceInstance,
    IntVector,
    InvalidInput,
    build_grid_construction,
    build_sphere_construction,
    contains,
    count_incidences,
    embed_configuration,
    embedding_carrier,
    find_collinear_triple,
    find_kst,
    flats_equal,
    intersect,
    lattice_points,
    measure_max_coverage,
    predicted_lower_bound_exponents,
    primitive_vectors,
    select_admissible_normals,
    verify_construction,
)
from inclab.serialization import instance_to_dict

from oracles import collinear_triples_bruteforce, count_incidences_direct, minor_rank


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

    def test_unverified_above_cap(self):
        candidates = primitive_vectors(4, 3)
        sel = select_admissible_normals(candidates, 2, 3, 10, seed=0, limit=10)
        assert not sel.verified
        assert sel.t_measured == len(sel.vectors)  # trivial bound

    def test_subspace_count_is_exact_across_int64_bound(self):
        import numpy as np

        from inclab.constructions import _count_on_subspace

        rng = Random(62)
        for _ in range(60):
            scale = rng.choice((1, 2**31 - 1, 2**31 + 1, 2**61 + 3, 2**62))
            rows = [
                [rng.randint(-1, 1) * (scale if rng.random() < 0.5 else 1)
                 for _ in range(3)]
                for _ in range(rng.randint(1, 8))
            ]
            matrix = np.array(rows, dtype=np.int64)
            max_abs = max(abs(x) for row in rows for x in row)
            eqs = [tuple(rng.randint(-3, 3) for _ in range(3))
                   for _ in range(rng.randint(1, 2))]
            expected = sum(
                1 for row in rows
                if all(sum(a * x for a, x in zip(e, row)) == 0 for e in eqs)
            )
            assert _count_on_subspace(eqs, matrix, max_abs) == expected

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
            flats, achieved = _core_hyperplanes(points, normals, split)
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

    def test_regime_warning_is_note_not_error(self):
        cfg = ConstructionConfig(d=2, m=10, n=3, seed=0, box_side=2)
        with pytest.warns(UserWarning, match="regime"):
            out = build_grid_construction(cfg)
        assert any("regime" in note for note in out.notes)


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
            v: _achieved_offsets(v, out.points, split) for v in out.normals_used
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

    def test_pure_embedding_when_k_is_inner_hyperplane_dim(self):
        inner = self._inner(6)
        emb = embed_configuration(inner, 4, 1, seed=3)
        assert all(f.dim == 1 for f in emb.flats)
        before = count_incidences(IncidenceInstance(inner.points, inner.flats, 2, 1))
        after = count_incidences(IncidenceInstance(emb.points, emb.flats, 2, 1))
        assert before == after

    def test_dimension_preconditions(self):
        inner = self._inner(8)
        with pytest.raises(InvalidInput):
            embed_configuration(inner, 2, 1, seed=0)
        with pytest.raises(InvalidInput):
            embed_configuration(inner, 4, 0, seed=0)
        with pytest.raises(InvalidInput):
            embed_configuration(inner, 4, 4, seed=0)


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

    def test_variant_b_report_includes_collinearity(self):
        cfg = ConstructionConfig(d=4, m=30, n=100, seed=2, box_side=2, s=3)
        out = build_sphere_construction(cfg)
        report = verify_construction(out, 3, out.t_measured + 1)
        assert report.collinear_triple is None
        assert report.predicted_exponents == (Fraction(7, 11), Fraction(8, 11))


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
