"""CLI surface: subcommands, exit codes, machine-readable output."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import inclab
from inclab import heap, serialization
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

    def test_runs_as_a_module_from_a_source_checkout(self):
        # python -m inclab with only the source tree on the path, as the
        # tests themselves run
        env = dict(os.environ, PYTHONPATH=str(Path(inclab.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "inclab", "exponents", "--k", "1", "--d", "2",
             "--s", "2", "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["terms"][0]["cross_check"] == "ok"

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

    def test_verify_prints_null_for_a_skipped_naive_recount(self, capsys, tmp_path, monkeypatch):
        from inclab import constructions

        target = str(tmp_path / "inst.inc.json")
        code, _, _ = run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "25",
            "--n", "40", "--seed", "1", "--box-side", "2", "-o", target,
        )
        assert code == 0
        doc = json.loads(open(target).read())
        monkeypatch.setattr(constructions, "_NAIVE_LIMIT",
                            len(doc["points"]) * len(doc["flats"]) - 1)
        code, out, _ = run_cli(capsys, "verify", target, "--s", "2", "--t", str(doc["t"]))
        assert code == 0
        payload = json.loads(out)
        assert payload["naive_count"] is None and payload["counts_agree"] is None
        assert '"naive_count": null' in out and '"counts_agree": null' in out
        assert payload["notes"] == ["naive recount skipped above the size cap"]
        assert payload["kst_status"] == "free" and payload["matches_predicted"]

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


    def test_verify_plain_instance_over_the_search_budget(self, capsys, tmp_path):
        # 5200 points on as many parallel lines, one line each: C(5200, 2)
        # pairs times 82 mask words just exceeds the default budget, and
        # one flat per (normal, offset) certifies K_{2,2}-freeness instead
        size = 5200
        doc = {
            "schema": 1,
            "kind": "incidence-instance",
            "ambient_dim": 2,
            "s": 2,
            "t": 2,
            "points": [[[i, 1], [0, 1]] for i in range(size)],
            "flats": [{"A": [[[1, 1], [0, 1]]], "b": [[j, 1]]} for j in range(size)],
        }
        path = tmp_path / "wide.inc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path), "--s", "2", "--t", "2")
        assert code == 0
        assert json.loads(out) == {
            "naive_count": size,
            "hashed_count": size,
            "counts_agree": True,
            "kst_status": "free",
        }
        # the first point twice: two copies of one point void the certificate
        doc["points"].append(doc["points"][0])
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path), "--s", "2", "--t", "2")
        assert code == 0
        assert json.loads(out) == {
            "naive_count": size + 1,
            "hashed_count": size + 1,
            "counts_agree": True,
            "kst_status": "unverified (K_{2,2} search needs ~1.11e+09 comparisons,"
                          " over the budget of 1000000000"
                          " (certificate void: one point occurs 2 times, s=2))",
        }


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


    def test_written_and_compact_files_give_the_same_outputs(self, capsys, tmp_path):
        # the written layout is read straight from its bytes and the same
        # document dumped compactly through json: every output is the same
        written = tmp_path / "written.inc.json"
        run_cli(capsys, "construct", "--variant", "a", "--d", "2", "--m", "16",
                "--n", "25", "--seed", "3", "--box-side", "2", "-o", str(written))
        compact = tmp_path / "compact.inc.json"
        compact.write_text(json.dumps(json.loads(written.read_text())))
        assert serialization._read_written(written.read_bytes()) is not None
        assert serialization._read_written(compact.read_bytes()) is None
        outputs = []
        for name, src in (("w", written), ("c", compact)):
            dst = tmp_path / f"{name}.outer.inc.json"
            verify = run_cli(capsys, "verify", str(src), "--s", "2", "--t", "2")
            embed = run_cli(capsys, "embed", str(src), "--d-outer", "4", "--k", "2",
                            "-o", str(dst))
            outer = run_cli(capsys, "verify", str(dst), "--s", "2", "--t", "2")
            outputs.append((verify, embed[0], embed[1].replace(str(dst), "OUT"),
                            outer, dst.read_bytes()))
        # embed writes the reader's layout too, so every file a construct,
        # verify, embed, verify run loads is read from its bytes
        assert serialization._read_written((tmp_path / "w.outer.inc.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0][0][0] == 0 and outputs[0][3][0] == 0


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

    @pytest.fixture
    def embedded_doc(self, capsys, tmp_path):
        planar, target = tmp_path / "planar.inc.json", tmp_path / "embedded.inc.json"
        run_cli(
            capsys, "construct", "--variant", "a", "--d", "2", "--m", "9",
            "--n", "12", "--seed", "1", "--box-side", "2", "-o", str(planar),
        )
        run_cli(
            capsys, "embed", str(planar), "--d-outer", "4", "--k", "2",
            "--seed", "1", "-o", str(target),
        )
        return json.loads(target.read_text())

    def assert_rejected(self, capsys, tmp_path, text, commands, mentions=""):
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
            assert mentions in err, f"{command}: {err!r}"
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

    @pytest.mark.parametrize("layout", ["written", "compact"])
    @pytest.mark.parametrize("where", ["point", "seed"])
    def test_an_integer_past_the_digit_limit(self, capsys, tmp_path, construction_doc, layout,
                                             where):
        # json refuses to read an integer of more than 4300 digits; in the
        # writer's layout too, the text reader leaves it to json
        marker = 7_777_777_777_777_777
        if where == "point":
            construction_doc["points"][0][0][0] = marker
        else:
            construction_doc["construction"]["seed"] = marker
        dump = serialization.canonical_json if layout == "written" else json.dumps
        text = dump(construction_doc).replace(str(marker), "1" + "0" * 4999, 1)
        self.assert_rejected(capsys, tmp_path, text, ("verify", "embed", "oracle", "sweep"),
                             mentions="cannot read")

    def test_zero_denominator(self, capsys, tmp_path, construction_doc):
        construction_doc["points"][0][0] = [1, 0]
        self.assert_instance_rejected(capsys, tmp_path, json.dumps(construction_doc))

    def test_point_of_wrong_dimension(self, capsys, tmp_path, construction_doc):
        # with no flat to disagree with, only ambient_dim exposes the 1-D point
        construction_doc["points"] = [[[1, 1]]]
        construction_doc["flats"] = []
        self.assert_instance_rejected(capsys, tmp_path, json.dumps(construction_doc))

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_non_integer_schema(self, capsys, tmp_path, construction_doc, schema):
        construction_doc["schema"] = schema
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed", "oracle"),
            mentions="schema",
        )

    def test_wrong_kind(self, capsys, tmp_path, construction_doc):
        construction_doc["kind"] = "sweep-report"
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed", "oracle"),
            mentions="kind",
        )

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

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("field", ["epsilon_prime", "epsilon"])
    def test_sweep_spec_epsilon_not_finite(self, capsys, tmp_path, field, value):
        # json reads NaN and Infinity: a NaN epsilon_prime crashed the build,
        # and an infinite epsilon wrote Infinity, which is not JSON, to the report
        ladder = "[[16, 30], [64, 60], [256, 120]]"
        text = f'{{"construction": "a", "d": 2, "ladder": {ladder}, "{field}": {value}}}'
        self.assert_rejected(capsys, tmp_path, text, ("sweep",), mentions=field)

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

    @pytest.mark.parametrize("key, value", [
        ("normals_used", [[0, 0]]), ("t_measured", -1), ("predicted_incidences", -5),
    ])
    def test_impossible_construction_values(self, capsys, tmp_path, construction_doc,
                                            key, value):
        # a zero normal was carried into the embedded file, and t_measured -1
        # reached embed as "t must be at least 1"
        construction_doc["construction"][key] = value
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed"),
            mentions=key,
        )

    def test_construction_note_not_a_string(self, capsys, tmp_path, construction_doc):
        construction_doc["construction"]["notes"] = [["nested"]]
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed")
        )

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_t_verified_not_a_boolean(self, capsys, tmp_path, construction_doc, value):
        # bool() would read the string "false" as a verified t
        construction_doc["construction"]["t_verified"] = value
        self.assert_rejected(
            capsys, tmp_path, json.dumps(construction_doc), ("verify", "embed"),
            mentions="t_verified",
        )

    def test_embedded_doc_base_is_accepted(self, capsys, tmp_path, embedded_doc):
        path = tmp_path / "embedded.inc.json"
        assert embedded_doc["construction"]["inner_ambient_dim"] == 2
        code, out, _ = run_cli(capsys, "verify", str(path), "--s", "2", "--t", "2")
        assert code == 0
        assert json.loads(out)["predicted_exponents"] == ["2/3", "2/3"]

    def test_inconsistent_flat_among_two_row_flats(self, capsys, tmp_path, embedded_doc):
        # the file would load as one family of 2-flats but for this flat:
        # x_1 = 0 and x_1 = 1
        zero, one = [0, 1], [1, 1]
        embedded_doc["flats"][4] = {"A": [[one, zero, zero, zero]] * 2, "b": [zero, one]}
        self.assert_rejected(
            capsys, tmp_path, json.dumps(embedded_doc), ("verify", "embed", "oracle"),
            mentions="inconsistent system does not define a flat",
        )

    def test_inner_ambient_dim_past_the_ambient_dim(self, capsys, tmp_path, embedded_doc):
        # without the check, verify exits 0 and reports the exponents for d=9
        embedded_doc["construction"]["inner_ambient_dim"] = 9
        self.assert_rejected(
            capsys, tmp_path, json.dumps(embedded_doc), ("verify", "embed"),
            mentions="inner_ambient_dim",
        )

    def test_inner_ambient_dim_of_one(self, capsys, tmp_path, embedded_doc):
        embedded_doc["construction"]["inner_ambient_dim"] = 1
        self.assert_rejected(
            capsys, tmp_path, json.dumps(embedded_doc), ("verify", "embed"),
            mentions="inner_ambient_dim",
        )

    def test_inner_ambient_dim_negative(self, capsys, tmp_path, embedded_doc):
        embedded_doc["construction"]["inner_ambient_dim"] = -3
        self.assert_rejected(
            capsys, tmp_path, json.dumps(embedded_doc), ("verify", "embed"),
            mentions="inner_ambient_dim",
        )


class TestUnusableArguments:
    """``construct`` and ``sweep`` exit 2 with ``error: ...`` on an output
    path they cannot write, a box side below 1 or a non-finite epsilon."""

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_epsilon_prime_not_finite(self, capsys, tmp_path, value):
        target = tmp_path / "x.inc.json"
        code, out, err = self.construct(capsys, target, "--epsilon-prime", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "epsilon_prime" in err
        assert not target.exists()

    @pytest.mark.parametrize("side", ["-3", "0"])
    def test_box_side_below_one(self, capsys, tmp_path, side):
        target = tmp_path / "x.inc.json"
        code, out, err = self.construct(capsys, target, "--box-side", side)
        assert code == 2
        assert err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("n", ["10", "100"])
    def test_t_cap_below_the_guarded_dimension(self, capsys, tmp_path, n):
        # the sphere's guarded dimension is d - 2 = 2; at n = 10 the normal
        # box is empty, and the cap is refused all the same
        target = tmp_path / "x.inc.json"
        code, out, err = run_cli(
            capsys, "construct", "--variant", "b", "--d", "4", "--m", "10", "--n", n,
            "--t-cap", "1", "-o", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "t_max=1 below 2" in err
        assert not target.exists()


class TestOneParserPerProcess:
    def test_calls_in_one_process_read_as_fresh_processes(self, capsys, tmp_path, monkeypatch):
        # main builds its parser once per process: a run of calls with
        # different subcommands, a rejected argument among them, gives
        # each call the output and exit code of a fresh process
        monkeypatch.chdir(tmp_path)
        calls = [
            ["construct", "--variant", "a", "--d", "2", "--m", "16", "--n", "16",
             "--seed", "1", "-o", "grid.inc.json"],
            ["verify", "grid.inc.json", "--s", "2", "--t", "3"],
            ["exponents", "--k", "1", "--d", "2", "--s", "2"],
            ["verify", "grid.inc.json", "--s", "two", "--t", "3"],
            ["oracle", "count", "grid.inc.json"],
            ["exponents", "--k", "2", "--d", "3", "--s", "2", "--json"],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0, 0]
        env = dict(os.environ, PYTHONPATH=str(Path(inclab.__file__).parent.parent))
        for argv, expected in zip(calls, in_process):
            done = subprocess.run([sys.executable, "-m", "inclab", *argv], cwd=tmp_path,
                                  capture_output=True, text=True, env=env, timeout=120)
            assert (done.returncode, done.stdout, done.stderr) == expected, argv


class TestHeapPolicy:
    class FakeLibc:
        def __init__(self, free):
            self.free, self.calls = free, []

        def mallopt(self, param, value):
            self.calls.append(("mallopt", param, value))
            return 1

        def mallinfo2(self):
            return types.SimpleNamespace(fordblks=self.free)

        def malloc_trim(self, pad):
            self.calls.append(("malloc_trim", pad))
            return 1

    FIXED = [("mallopt", -3, heap.MMAP_THRESHOLD), ("mallopt", -1, 2 * heap.MMAP_THRESHOLD)]

    @pytest.mark.parametrize("argv, expected_code", [
        (["exponents", "--k", "1", "--d", "2", "--s", "2", "--json"], 0),
        (["verify", "missing.inc.json", "--s", "2", "--t", "3"], 2),
    ])
    def test_each_command_fixes_the_thresholds_then_trims(
            self, capsys, tmp_path, monkeypatch, argv, expected_code):
        # the thresholds are fixed before the command runs, and the heap is
        # trimmed once it is done, on the error path too
        monkeypatch.chdir(tmp_path)
        libc = self.FakeLibc(free=heap.TRIM_FREE)
        monkeypatch.setattr(heap, "_glibc", lambda: libc)
        code, _, _ = run_cli(capsys, *argv)
        assert code == expected_code
        assert libc.calls == self.FIXED + [("malloc_trim", 0)]

    def test_a_little_free_heap_is_kept(self, capsys, monkeypatch):
        libc = self.FakeLibc(free=heap.TRIM_FREE - 1)
        monkeypatch.setattr(heap, "_glibc", lambda: libc)
        code, _, _ = run_cli(capsys, "exponents", "--k", "1", "--d", "2", "--s", "2")
        assert code == 0
        assert libc.calls == self.FIXED

    def test_no_glibc_leaves_the_allocator_alone(self, capsys, monkeypatch):
        monkeypatch.setattr(heap, "_glibc", lambda: None)
        code, out, _ = run_cli(capsys, "exponents", "--k", "1", "--d", "2", "--s", "2")
        assert code == 0 and "m^(2/3+eps)" in out

    def test_glibc_is_found_with_its_controls(self):
        libc = heap._glibc()
        assert libc is None or all(hasattr(libc, name) for name in
                                   ("mallopt", "malloc_trim", "mallinfo2"))
        if ("CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
                and os.confstr("CS_GNU_LIBC_VERSION") >= "glibc 2.33"):
            assert libc is not None
            assert libc.mallinfo2().arena > 0
