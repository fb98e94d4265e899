"""Acceptance suite.

One test per criterion; each prints a single PASS line (visible under
``pytest -s``) after its assertions held at the stated tolerances.  All
tolerances are pinned here, not deferred.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from inclab import (
    ComplexHyperplane,
    ComplexRational,
    ConstructionConfig,
    IncidenceInstance,
    SweepSpec,
    build_grid_construction,
    build_sphere_construction,
    contains,
    count_incidences,
    embed_complex_hyperplane,
    embed_complex_point,
    embed_configuration,
    embedding_carrier,
    enumerate_chains,
    find_collinear_triple,
    find_kst,
    flats_equal,
    intersect,
    leading_exponents,
    problematic_pairs,
    ratio_dominates,
    run_sweep,
    term_from_chain,
    term_from_system,
)


def report(line: str) -> None:
    print(f"\n{line}", flush=True)


def test_criterion_1_exponent_cross_check():
    """Closed form equals the linear-system solution, exactly, everywhere."""
    started = time.time()
    checked = 0
    for d in range(2, 11):
        for k in range(1, d):
            chains = enumerate_chains(k, d)
            for s in range(2, 6):
                for chain in chains:
                    assert term_from_chain(chain, s) == term_from_system(chain, s)
                    checked += 1
    elapsed = time.time() - started
    assert elapsed < 10.0, f"cross-check took {elapsed:.1f}s, budget 10s"
    report(
        f"PASS criterion 1: closed form == system solution on {checked}"
        f" (chain, s) pairs, exact, in {elapsed:.1f}s"
    )


def test_criterion_2_known_values():
    """Frozen values: pair sets, chain counts, and named exponent pairs."""
    assert {(p.k, p.d) for p in problematic_pairs(3, 5)} == {(2, 3), (3, 4)}
    chains_35 = enumerate_chains(3, 5)
    assert len(chains_35) == 3
    for d in range(2, 11):
        chains = enumerate_chains(d - 1, d)
        assert len(chains) == 1 and len(chains[0]) == 1
        for s in range(2, 6):
            term = term_from_chain(chains[0], s)
            assert term.alpha == Fraction((d - 1) * s, d * s - 1)
            assert term.beta == Fraction(d * (s - 1), d * s - 1)
    assert leading_exponents(1, 2, 2) == (Fraction(2, 3), Fraction(2, 3))
    report(
        "PASS criterion 2: known values (pairs of (3,5); singleton chains;"
        " hyperplane-term exponents; (2/3, 2/3) base case) all exact"
    )


def test_criterion_3_dominance_symbolic():
    """Exponent-form dominance certified on the whole constraint cone."""
    certified = 0
    for d in range(2, 9):
        for k in range(1, d):
            base = Fraction(k, d)
            for d2 in range(2, 9):
                for k2 in range(1, d2):
                    if Fraction(k2, d2) > base:
                        continue
                    for s in (2, 3, 4):
                        rep = ratio_dominates(k, d, k2, d2, s, samples=8, seed=1)
                        assert rep.certified, (k, d, k2, d2, s)
                        assert rep.violations == ()
                        certified += 1
    report(
        f"PASS criterion 3: dominance certified symbolically for {certified}"
        " (pair, pair, s) combinations, zero violations"
    )


def test_criterion_4_count_law():
    """Exact count law m * |V| and strategy agreement, up to m = 10^4."""
    ladder = [(1, 1000), (2, 2000), (3, 4000), (4, 8000), (5, 10000)]
    worst = 0.0
    lines = []
    for d in (2, 3):
        for seed, m in ladder:
            started = time.time()
            cfg = ConstructionConfig(d=d, m=m, n=700, seed=seed, box_side=2)
            out = build_grid_construction(cfg)
            inst = IncidenceInstance(out.points, out.flats, 2, 1)
            naive = count_incidences(inst, "naive")
            hashed = count_incidences(inst, "hashed")
            assert naive == hashed
            core = IncidenceInstance(out.points, out.flats[: out.padding_start], 2, 1)
            core_count = count_incidences(core, "hashed")
            assert core_count == m * len(out.normals_used)
            assert core_count == count_incidences(core, "naive")
            elapsed = time.time() - started
            worst = max(worst, elapsed)
            assert elapsed < 60.0, f"instance d={d} m={m} took {elapsed:.1f}s"
            lines.append(f"d={d} m={m} seed={seed} I={core_count}")
    report(
        f"PASS criterion 4: count law and naive==hashed on {len(lines)}"
        f" instances (d in {{2,3}}, seeds 1..5, m up to 10^4);"
        f" worst instance {worst:.1f}s"
    )


def test_criterion_5_kst_freeness():
    """Exhaustive freeness at desk scale, at the measured parameters."""
    # grid variant: m = 2000, n = 500 with the auto-derived box
    cfg_a = ConstructionConfig(d=2, m=2000, n=500, seed=1)
    out_a = build_grid_construction(cfg_a)
    assert len(out_a.points) == 2000 and len(out_a.flats) == 500
    assert out_a.t_verified
    inst_a = IncidenceInstance(out_a.points, out_a.flats, 2, out_a.t_measured + 1)
    assert find_kst(inst_a) is None
    cfg_a3 = ConstructionConfig(d=3, m=1000, n=400, seed=2, box_side=2)
    out_a3 = build_grid_construction(cfg_a3)
    assert out_a3.t_verified
    inst_a3 = IncidenceInstance(out_a3.points, out_a3.flats, 2, out_a3.t_measured + 1)
    assert find_kst(inst_a3) is None
    # sphere variant: m <= 500, triple search plus exhaustive collinearity
    results = []
    for m, n, seed in ((200, 300, 1), (500, 400, 2)):
        cfg_b = ConstructionConfig(d=4, m=m, n=n, seed=seed, box_side=2, s=3)
        out_b = build_sphere_construction(cfg_b)
        assert out_b.t_verified
        inst_b = IncidenceInstance(out_b.points, out_b.flats, 3, out_b.t_measured + 1)
        assert find_kst(inst_b) is None
        assert find_collinear_triple(out_b.points) is None
        results.append((m, out_b.t_measured))
    report(
        "PASS criterion 5: no K_{2,t+1} in grid instances"
        f" (t={out_a.t_measured} at d=2, t={out_a3.t_measured} at d=3),"
        f" no K_{{3,t+1}} and no collinear triple in sphere instances {results}"
    )


def test_criterion_6_slope_recovery(tmp_path):
    """Fitted composite slope within 0.1 of the predicted value at d=2."""
    started = time.time()
    ladder = tuple((m, m) for m in (256, 1024, 4096, 16384, 65536))
    spec = SweepSpec(construction="a", d=2, ladder=ladder, s=2, seed=1)
    result = run_sweep(spec, output=tmp_path / "slope.json")
    fitted = result["prediction"]["fitted_composite_slope"]
    predicted = result["prediction"]["composite_slope"]
    assert math.isclose(predicted, 4 / 3, abs_tol=1e-12)
    delta = abs(fitted - predicted)
    assert delta <= 0.1, f"slope delta {delta:.4f} exceeds 0.1"
    elapsed = time.time() - started
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s, budget 5 min"
    report(
        f"PASS criterion 6: fitted composite slope {fitted:.4f} vs predicted"
        f" {predicted:.4f} (|delta| = {delta:.4f} <= 0.1) in {elapsed:.1f}s"
    )


@pytest.mark.parametrize("d, top", [(3, 4096), (4, 1024)], ids=["d3", "d4"])
def test_criterion_6_slope_recovery_beyond_the_plane(d, top):
    """The grid ladder in R^3 and R^4, doubling from 256: every rung has
    I = m_actual |V| and a "free" K_{2,t} verdict, and the fitted
    composite slope is within 0.1 of the predicted value."""
    started = time.time()
    ladder = tuple((m, m) for m in (256, 512, 1024, 2048, 4096) if m <= top)
    result = run_sweep(SweepSpec(construction="a", d=d, ladder=ladder, s=2, seed=1))
    for rung in result["rungs"]:
        assert not rung["failed"], rung
        assert rung["incidences"] == rung["m_actual"] * rung["normals"], rung
        assert rung["kst_status"] == "free", rung
    fitted = result["prediction"]["fitted_composite_slope"]
    predicted = result["prediction"]["composite_slope"]
    delta = abs(fitted - predicted)
    assert delta <= 0.1, f"slope delta {delta:.4f} exceeds 0.1"
    elapsed = time.time() - started
    report(
        f"PASS criterion 6 (d={d}): {len(ladder)} rungs free with I = m|V|, fitted"
        f" composite slope {fitted:.4f} vs predicted {predicted:.4f}"
        f" (|delta| = {delta:.4f} <= 0.1) in {elapsed:.1f}s"
    )


def test_criterion_7_embedding_conservation():
    """Counts identical after embedding; extensions meet the carrier in
    exactly the embedded hyperplane."""
    runs = [
        (4, 2, 1), (4, 3, 2), (5, 2, 3), (5, 3, 4), (4, 2, 5),
        (4, 3, 6), (5, 2, 7), (5, 3, 8), (4, 2, 9), (5, 3, 10),
    ]
    for d_outer, k, seed in runs:
        inner = build_grid_construction(
            ConstructionConfig(d=2, m=36, n=30, seed=seed, box_side=2)
        )
        before = count_incidences(IncidenceInstance(inner.points, inner.flats, 2, 1))
        emb = embed_configuration(inner, d_outer, k, seed=seed * 31)
        inst = IncidenceInstance(emb.points, emb.flats, 2, 1)
        assert count_incidences(inst, "hashed") == before
        assert count_incidences(inst, "naive") == before
        carrier = embedding_carrier(2, d_outer)
        pad_width = d_outer - 2
        for f_in, f_out in zip(inner.flats, emb.flats):
            meet = intersect(f_out, carrier)
            assert meet is not None
            embedded = type(f_out)(
                d_outer,
                [list(r) + [Fraction(0)] * pad_width for r in f_in.equations]
                + list(carrier.equations),
                list(f_in.rhs) + [Fraction(0)] * pad_width,
            )
            assert flats_equal(meet, embedded)
    report(
        f"PASS criterion 7: incidence counts preserved exactly and every"
        f" extension meets the carrier in the embedded flat, {len(runs)} runs"
    )


def test_criterion_8_complex_round_trip():
    """Membership preserved in both directions by the real embedding."""
    rng = Random(20240202)

    def rand_complex():
        return ComplexRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )

    member_cases = 0
    non_member_cases = 0
    pairs = 0
    while pairs < 100:
        d = rng.randint(1, 4)
        coeffs = tuple(rand_complex() for _ in range(d))
        if all(c.is_zero() for c in coeffs):
            continue
        b = rand_complex()
        h = ComplexHyperplane(coeffs, b)
        flat = embed_complex_hyperplane(h)
        assert flat.ambient_dim == 2 * d and flat.dim == 2 * d - 2
        if rng.random() < 0.5:
            pivot = next(i for i, c in enumerate(coeffs) if not c.is_zero())
            zs = [rand_complex() for _ in range(d)]
            rest = ComplexRational(0, 0)
            for i, (c, z) in enumerate(zip(coeffs, zs)):
                if i != pivot:
                    rest = rest + c * z
            target = b - rest
            a = coeffs[pivot]
            denom = a.re * a.re + a.im * a.im
            zs[pivot] = ComplexRational(
                (a.re * target.re + a.im * target.im) / denom,
                (a.re * target.im - a.im * target.re) / denom,
            )
            point = tuple(zs)
        else:
            point = tuple(rand_complex() for _ in range(d))
        inside = h.contains(point)
        image_inside = contains(flat, embed_complex_point(point))
        assert inside == image_inside
        member_cases += inside
        non_member_cases += not inside
        pairs += 1
    assert member_cases >= 20 and non_member_cases >= 20
    report(
        f"PASS criterion 8: membership preserved both ways on 100 pairs"
        f" ({member_cases} incident, {non_member_cases} not)"
    )


def test_criterion_9_collapse_identity():
    """alpha + s(beta + sum beta_j) = s, and the total n-exponent collapses
    to the leading-term n-exponent of the chain's last pair."""
    checked = 0
    for d in range(2, 11):
        for k in range(1, d):
            for chain in enumerate_chains(k, d):
                for s in range(2, 6):
                    term = term_from_chain(chain, s)
                    total = term.n_exponent_total
                    assert term.alpha + s * total == s
                    last = chain.last
                    assert total == leading_exponents(last.k, last.d, s)[1]
                    checked += 1
    report(
        f"PASS criterion 9: collapse identity exact on {checked}"
        " (chain, s) pairs"
    )
