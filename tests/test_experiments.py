"""Sweeps: deterministic rungs, exact-input slope fits, reports."""

import json
import math
from random import Random

import pytest

from inclab import InvalidInput, SweepFailed, SweepSpec, fit_power_law, run_sweep
from inclab.serialization import load_instance
from inclab import count_incidences
from inclab.experiments import SWEEP_KST_LIMIT, _measure_rung


VALID_SPEC = {"construction": "a", "d": 2, "ladder": [[16, 30], [64, 60], [256, 120]]}


class TestSpecValidation:
    def test_short_ladder_rejected(self):
        with pytest.raises(InvalidInput):
            SweepSpec(construction="a", d=2, ladder=((8, 8), (16, 16)))

    def test_unknown_construction_rejected(self):
        with pytest.raises(InvalidInput):
            SweepSpec(construction="x", d=2, ladder=((8, 8), (16, 16), (32, 32)))

    def test_embed_requires_target_dims(self):
        with pytest.raises(InvalidInput):
            SweepSpec(construction="embed", d=2, ladder=((8, 8), (16, 16), (32, 32)))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidInput):
            SweepSpec.from_dict(
                {"construction": "a", "d": 2, "ladder": [[8, 8]] * 3, "bogus": 1}
            )

    @pytest.mark.parametrize(
        "doc",
        [
            [["a", 2]],
            {"construction": "a", "d": 2},  # no ladder
            {"construction": "a", "d": 2, "ladder": [[8, 8], [4], [32, 32]]},
            {"construction": "a", "d": 2, "ladder": 5},
            {**VALID_SPEC, "d": "2"},
            {**VALID_SPEC, "d": 2.0},
            {**VALID_SPEC, "s": "2"},
            {**VALID_SPEC, "s": True},
            {**VALID_SPEC, "seed": "x"},
            {**VALID_SPEC, "t_cap": "3"},
            {**VALID_SPEC, "construction": "embed", "d_outer": "4", "k": 2},
            {**VALID_SPEC, "construction": "embed", "d_outer": 4, "k": 2.5},
            {**VALID_SPEC, "epsilon_prime": "0.1"},
            {**VALID_SPEC, "epsilon": None},
            {**VALID_SPEC, "epsilon": True},
            {**VALID_SPEC, "ladder": [[16, 30], [64.5, 60], [256, 120]]},
            {**VALID_SPEC, "ladder": [[16, 30], [True, 60], [256, 120]]},
            {**VALID_SPEC, "ladder": [[16, 30], [64, "60"], [256, 120]]},
        ],
        ids=["not-an-object", "no-ladder", "short-rung", "ladder-not-a-list",
             "d-string", "d-float", "s-string", "s-bool", "seed-string",
             "t_cap-string", "d_outer-string", "k-float", "epsilon_prime-string",
             "epsilon-null", "epsilon-bool", "rung-float", "rung-bool",
             "rung-string"],
    )
    def test_from_dict_rejects_malformed_specs(self, doc):
        with pytest.raises(InvalidInput):
            SweepSpec.from_dict(doc)

    def test_valid_spec_base_is_accepted(self):
        spec = SweepSpec.from_dict({**VALID_SPEC, "epsilon": 0, "t_cap": 3})
        assert spec.ladder == ((16, 30), (64, 60), (256, 120))


class TestFit:
    def test_recovers_exact_power_law_two_variable(self):
        rng = Random(5)
        a, b = 0.75, 0.6
        ms, ns, counts = [], [], []
        for _ in range(8):
            m = rng.randint(10, 10**5)
            n = rng.randint(10, 10**4)
            ms.append(m)
            ns.append(n)
            counts.append(m**a * n**b * 3.7)
        fit = fit_power_law(ms, ns, counts)
        assert fit["kind"] == "two_variable"
        assert abs(fit["slope_m"] - a) < 1e-9
        assert abs(fit["slope_n"] - b) < 1e-9

    def test_fixed_ratio_ladder_falls_back_to_composite(self):
        ms = [2**j for j in range(4, 9)]
        counts = [m ** (4 / 3) for m in ms]
        fit = fit_power_law(ms, ms, counts)
        assert fit["kind"] == "composite"
        assert abs(fit["slope"] - 4 / 3) < 1e-9
        assert max(abs(r) for r in fit["residuals"]) < 1e-9

    def test_degenerate_ladder_fails(self):
        with pytest.raises(SweepFailed):
            fit_power_law([16, 16, 16], [16, 16, 16], [10, 10, 10])

    def test_too_few_usable_rungs_fails(self):
        with pytest.raises(SweepFailed):
            fit_power_law([4, 8], [4, 8], [3, 9])


class TestRunSweep:
    def small_spec(self, **overrides):
        base = dict(
            construction="a",
            d=2,
            ladder=((16, 30), (64, 60), (256, 120)),
            s=2,
            seed=3,
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_report_shape_and_exact_counts(self, tmp_path):
        report = run_sweep(self.small_spec(), output=tmp_path / "report.json")
        assert report["schema"] == 1
        assert len(report["rungs"]) == 3
        for rung in report["rungs"]:
            assert not rung["failed"]
            assert rung["incidences"] == rung["m_actual"] * rung["normals"]
            assert rung["kst_status"] in ("free", "unverified")
            # reported ratio against m n^(1-1/s) + n, never an assertion
            assert rung["kst_bound_ratio"] > 0
        assert report["fit"]["kind"] in ("composite", "two_variable")
        assert (tmp_path / "report.json").exists()

    def test_grid_rung_at_4096_is_certified_free(self):
        # the subset search would need C(4096, 2) pairs of 64 mask words,
        # over the sweep budget; the normal-group certificate settles it
        spec = self.small_spec(seed=1, ladder=((256, 256), (1024, 1024), (4096, 4096)))
        rung = _measure_rung(spec, 2, 4096, 4096, None)
        assert math.comb(rung["m_actual"], 2) * -(-rung["n_actual"] // 64) > SWEEP_KST_LIMIT
        assert rung["kst_status"] == "free"

    def test_rung_instances_rederivable(self, tmp_path):
        report = run_sweep(self.small_spec(), output=tmp_path / "report.json")
        for rung in report["rungs"]:
            path = tmp_path / "report.json.instances" / rung["instance_path"]
            inst = load_instance(path)
            assert count_incidences(inst, "naive") == rung["incidences"]

    def test_reports_reproducible_modulo_timestamp(self, tmp_path):
        r1 = run_sweep(self.small_spec(), output=tmp_path / "a.json")
        r2 = run_sweep(self.small_spec(), output=tmp_path / "b.json")
        d1 = json.loads(json.dumps(r1))
        d2 = json.loads(json.dumps(r2))
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert d1 == d2

    def test_identical_sizes_sweep_fails(self):
        spec = self.small_spec(ladder=((64, 64), (64, 64), (64, 64)))
        with pytest.raises(SweepFailed):
            run_sweep(spec)

    @pytest.mark.filterwarnings("ignore:regime warning")
    def test_failed_rungs_are_marked_and_survivable(self):
        # an impossible middle rung (m far above n^d) fails alone
        spec = self.small_spec(
            ladder=((16, 30), (10**6, 2), (64, 60), (256, 120))
        )
        report = run_sweep(spec)
        failed = [r for r in report["rungs"] if r["failed"]]
        assert len(failed) == 1
        assert "InvalidInput" in failed[0]["error"]

    @pytest.mark.filterwarnings("ignore:regime warning")
    def test_all_rungs_failing_raises(self):
        spec = self.small_spec(
            ladder=((10**6, 2), (10**6 + 1, 2), (10**6 + 2, 2))
        )
        with pytest.raises(SweepFailed):
            run_sweep(spec)

    def test_predicted_composite_slope_d2(self, tmp_path):
        spec = self.small_spec(
            ladder=((64, 64), (256, 256), (1024, 1024)), seed=1
        )
        report = run_sweep(spec)
        assert abs(report["prediction"]["composite_slope"] - 4 / 3) < 1e-12

    def test_predicted_exponents_d3(self):
        spec = SweepSpec(
            construction="a",
            d=3,
            ladder=((27, 40), (64, 80), (125, 160)),
            s=2,
            seed=2,
        )
        report = run_sweep(spec)
        assert report["prediction"]["m_exponent"] == "4/5"
        assert report["prediction"]["n_exponent"] == "3/5"

    def test_epsilon_is_render_only(self):
        spec_plain = self.small_spec()
        spec_eps = self.small_spec(epsilon=0.05)
        r1 = run_sweep(spec_plain)
        r2 = run_sweep(spec_eps)
        # counts identical; only the predicted slope rendering moves
        assert [r["incidences"] for r in r1["rungs"]] == [
            r["incidences"] for r in r2["rungs"]
        ]
        ratio = r1["fit"]["log_n_over_log_m"]
        assert math.isclose(
            r1["prediction"]["composite_slope"] - r2["prediction"]["composite_slope"],
            0.05 * ratio,
        )

    def test_embed_sweep_preserves_counts(self):
        spec = SweepSpec(
            construction="embed",
            d=2,
            d_outer=4,
            k=2,
            ladder=((16, 20), (36, 30), (64, 40)),
            seed=2,
        )
        report = run_sweep(spec)
        base = SweepSpec(
            construction="a", d=2, ladder=((16, 20), (36, 30), (64, 40)), seed=2
        )
        base_report = run_sweep(base)
        assert [r["incidences"] for r in report["rungs"]] == [
            r["incidences"] for r in base_report["rungs"]
        ]

    def test_invariant_violation_in_a_rung_propagates(self, monkeypatch):
        from inclab import InvariantViolation, experiments

        def broken(cfg):
            raise InvariantViolation("forged bug")

        monkeypatch.setattr(experiments, "build_grid_construction", broken)
        with pytest.raises(InvariantViolation):
            run_sweep(self.small_spec())
