"""CLI surface: subcommands, exit codes, machine-readable output."""

import json

import pytest

from inclab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExponentsCommand:
    def test_known_values_as_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--k", "3", "--d", "5", "--s", "2", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["terms"]) == 3
        singleton = next(t for t in doc["terms"] if t["chain"] == [[3, 5]])
        assert singleton["alpha"] == "3/4"
        assert singleton["beta"] == "5/8"
        assert all(t["cross_check"] == "ok" for t in doc["terms"])

    def test_text_mode_mentions_chains(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--k", "1", "--d", "2", "--s", "2")
        assert code == 0
        assert "m^(2/3+eps)" in out

    def test_restricted_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--k", "2", "--d", "5", "--s", "2",
            "--restricted", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        pair_pool = {tuple(p) for t in doc["terms"] for p in t["chain"][1:]}
        assert pair_pool <= {(1, 2), (2, 4)}


class TestConstructVerifyRoundTrip:
    def test_construct_then_verify_clean(self, capsys, tmp_path):
        target = str(tmp_path / "inst.inc.json")
        code, out, _ = run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "25",
            "--n", "40", "--seed", "1", "--box-side", "2", "-o", target,
        )
        assert code == 0
        assert "wrote" in out
        doc = json.loads(open(target).read())
        t_claim = doc["t"]
        code, out, _ = run_cli(
            capsys, "verify", target, "--s", "2", "--t", str(t_claim)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kst_status"] == "free"
        assert payload["counts_agree"]
        assert payload["matches_predicted"]

    def test_verify_corrupted_exits_one_with_witness(self, capsys, tmp_path):
        target = str(tmp_path / "inst.inc.json")
        run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "16",
            "--n", "30", "--seed", "2", "--box-side", "2", "-o", target,
        )
        doc = json.loads(open(target).read())
        # duplicate a populated hyperplane enough times to force two points
        # onto t shared flats
        dup = doc["flats"][0]
        doc["flats"].extend([dup] * (doc["t"] + 1))
        corrupt = tmp_path / "corrupt.inc.json"
        corrupt.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "verify", str(corrupt), "--s", "2", "--t", str(doc["t"])
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["kst_status"] == "witness"
        assert len(payload["witness"]["point_indices"]) == 2

    def test_verify_plain_instance_two_points_one_line(self, capsys, tmp_path):
        doc = {
            "schema": 1,
            "kind": "incidence-instance",
            "ambient_dim": 2,
            "s": 2,
            "t": 1,
            "points": [[[0, 1], [0, 1]], [[1, 1], [1, 1]]],
            "flats": [{"A": [[[1, 1], [-1, 1]]], "b": [[0, 1]]}],
        }
        path = tmp_path / "pair.inc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path), "--s", "2", "--t", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"]["point_indices"] == [0, 1]


class TestEmbedCommand:
    def test_embed_preserves_count(self, capsys, tmp_path):
        src = str(tmp_path / "inner.inc.json")
        dst = str(tmp_path / "outer.inc.json")
        run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "16",
            "--n", "25", "--seed", "3", "--box-side", "2", "-o", src,
        )
        code, out, _ = run_cli(
            capsys, "embed", src, "--d-outer", "4", "--k", "2", "-o", dst
        )
        assert code == 0
        code, inner_count, _ = run_cli(capsys, "oracle", "count", src)
        assert code == 0
        code, outer_count, _ = run_cli(capsys, "oracle", "count", dst)
        assert code == 0
        assert inner_count.strip() == outer_count.strip()


class TestOracleCount:
    def test_empty_instance_counts_zero(self, capsys, tmp_path):
        doc = {
            "schema": 1,
            "kind": "incidence-instance",
            "ambient_dim": 2,
            "s": 2,
            "t": 1,
            "points": [],
            "flats": [],
        }
        path = tmp_path / "empty.inc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "oracle", "count", str(path))
        assert code == 0
        assert out.strip() == "0"


class TestSweepCommand:
    def test_sweep_from_spec_file(self, capsys, tmp_path):
        spec = {
            "construction": "a",
            "d": 2,
            "ladder": [[16, 30], [64, 60], [256, 120]],
            "s": 2,
            "seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "sweep", str(spec_path), "-o", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "sweep-report"
        assert len(report["rungs"]) == 3

    def test_oracle_count_matches_report(self, capsys, tmp_path):
        spec = {
            "construction": "a",
            "d": 2,
            "ladder": [[16, 30], [64, 60], [256, 120]],
            "s": 2,
            "seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        report_path = tmp_path / "report.json"
        run_cli(capsys, "sweep", str(spec_path), "-o", str(report_path))
        report = json.loads(report_path.read_text())
        for rung in report["rungs"]:
            inst = report_path.parent / "report.json.instances" / rung["instance_path"]
            code, out, _ = run_cli(capsys, "oracle", "count", str(inst))
            assert code == 0
            assert int(out.strip()) == rung["incidences"]


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["exponents", "--k", "1", "--d", "2", "--s", "2", "--bogus"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_invalid_input_reports_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "construct", "--variant", "b", "--d", "3", "--m", "10",
            "--n", "10", "-o", str(tmp_path / "x.inc.json"),
        )
        assert code == 2
        assert "error" in err


class TestMalformedInput:
    """Malformed files exit 2 with ``error: ...`` from every reading command."""

    @pytest.fixture
    def construction_doc(self, capsys, tmp_path):
        target = tmp_path / "valid.inc.json"
        run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "9",
            "--n", "12", "--seed", "1", "--box-side", "2", "-o", str(target),
        )
        return json.loads(target.read_text())

    def assert_rejected(self, capsys, tmp_path, text, commands):
        path = tmp_path / "bad.json"
        path.write_text(text)
        bad, out_path = str(path), str(tmp_path / "out.json")
        argvs = {
            "verify": ["verify", bad, "--s", "2", "--t", "2"],
            "embed": ["embed", bad, "--d-outer", "4", "--k", "2", "-o", out_path],
            "oracle": ["oracle", "count", bad],
            "sweep": ["sweep", bad, "-o", out_path],
        }
        for command in commands:
            code, out, err = run_cli(capsys, *argvs[command])
            assert code == 2, f"{command}: exit {code}"
            assert err.startswith("error: "), f"{command}: {err!r}"
            assert out == ""

    def assert_instance_rejected(self, capsys, tmp_path, text):
        self.assert_rejected(capsys, tmp_path, text, ("verify", "embed", "oracle"))

    def test_non_json(self, capsys, tmp_path):
        self.assert_rejected(
            capsys, tmp_path, "{not json",
            ("verify", "embed", "oracle", "sweep"),
        )

    def test_top_level_list(self, capsys, tmp_path):
        self.assert_rejected(
            capsys, tmp_path, "[1, 2]",
            ("verify", "embed", "oracle", "sweep"),
        )

    def test_missing_ambient_dim(self, capsys, tmp_path, construction_doc):
        del construction_doc["ambient_dim"]
        self.assert_instance_rejected(capsys, tmp_path, json.dumps(construction_doc))

    def test_zero_denominator(self, capsys, tmp_path, construction_doc):
        construction_doc["points"][0][0] = [1, 0]
        self.assert_instance_rejected(capsys, tmp_path, json.dumps(construction_doc))

    def test_point_of_wrong_dimension(self, capsys, tmp_path, construction_doc):
        # with no flat to disagree with, only ambient_dim exposes the 1-D point
        construction_doc["points"] = [[[1, 1]]]
        construction_doc["flats"] = []
        self.assert_instance_rejected(capsys, tmp_path, json.dumps(construction_doc))

    def test_sweep_spec_without_ladder(self, capsys, tmp_path):
        spec = {"construction": "a", "d": 2, "s": 2}
        self.assert_rejected(capsys, tmp_path, json.dumps(spec), ("sweep",))

    def test_sweep_ladder_rung_of_one_number(self, capsys, tmp_path):
        spec = {"construction": "a", "d": 2, "ladder": [[16, 30], [4], [256, 120]]}
        self.assert_rejected(capsys, tmp_path, json.dumps(spec), ("sweep",))

    def test_sweep_spec_integer_field_of_wrong_type(self, capsys, tmp_path):
        ladder = [[16, 30], [64, 60], [256, 120]]
        for field, value in (("d", "2"), ("s", "2"), ("seed", "x"), ("t_cap", "3")):
            spec = {"construction": "a", "d": 2, "ladder": ladder, field: value}
            self.assert_rejected(capsys, tmp_path, json.dumps(spec), ("sweep",))
        spec = {"construction": "embed", "d": 2, "d_outer": "4", "k": 2, "ladder": ladder}
        self.assert_rejected(capsys, tmp_path, json.dumps(spec), ("sweep",))

    def test_sweep_spec_epsilon_not_a_number(self, capsys, tmp_path):
        spec = {"construction": "a", "d": 2, "epsilon_prime": "0.1",
                "ladder": [[16, 30], [64, 60], [256, 120]]}
        self.assert_rejected(capsys, tmp_path, json.dumps(spec), ("sweep",))

    def test_sweep_ladder_rung_not_an_integer(self, capsys, tmp_path):
        for rung in ([16.5, 16], [True, 16]):
            spec = {"construction": "a", "d": 2, "ladder": [rung, [64, 60], [256, 120]]}
            self.assert_rejected(capsys, tmp_path, json.dumps(spec), ("sweep",))

    def test_unknown_construction_variant(self, capsys, tmp_path, construction_doc):
        construction_doc["construction"]["variant"] = "zzz"
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed")
        )

    def test_construction_counts_out_of_range(self, capsys, tmp_path, construction_doc):
        for key, value in (("padding_start", -5), ("padding_start", 10**6),
                           ("core_point_count", 10**6)):
            doc = json.loads(json.dumps(construction_doc))
            doc["construction"][key] = value
            self.assert_rejected(capsys, tmp_path, json.dumps(doc), ("verify", "embed"))

    def test_construction_note_not_a_string(self, capsys, tmp_path, construction_doc):
        construction_doc["construction"]["notes"] = [["nested"]]
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed")
        )


class TestUnusableArguments:
    """``construct`` and ``sweep`` exit 2 with ``error: ...`` on an output
    path they cannot write or a box side below 1."""

    def construct(self, capsys, output, *extra):
        return run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "9",
            "--n", "12", "-o", str(output), *extra,
        )

    def test_output_in_a_missing_directory(self, capsys, tmp_path):
        code, out, err = self.construct(capsys, tmp_path / "missing_dir" / "x.inc.json")
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""

    def test_sweep_output_under_a_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        ladder = [[16, 30], [64, 60], [256, 120]]
        spec.write_text(json.dumps({"construction": "a", "d": 2, "ladder": ladder}))
        (tmp_path / "afile").write_text("x")
        # a path below a plain file, and a directory in place of the report
        for output in ("afile/report.json", "."):
            target = str(tmp_path / output)
            code, out, err = run_cli(capsys, "sweep", str(spec), "-o", target)
            assert code == 2, output
            assert err.startswith("error: ")
            assert out == ""

    @pytest.mark.parametrize("side", ["-3", "0"])
    def test_box_side_below_one(self, capsys, tmp_path, side):
        target = tmp_path / "x.inc.json"
        code, out, err = self.construct(capsys, target, "--box-side", side)
        assert code == 2
        assert err.startswith("error: ")
        assert not target.exists()
