"""Round-trips through the .inc.json format."""

from fractions import Fraction

import pytest

from inclab import (
    ConstructionConfig,
    Flat,
    IncidenceInstance,
    IntVector,
    InvalidInput,
    RatPoint,
    build_grid_construction,
    count_incidences,
    load_construction,
    load_instance,
    make_hyperplane,
    save_construction,
    save_instance,
)
from inclab.serialization import (
    canonical_json,
    dict_to_construction,
    dict_to_instance,
    instance_to_dict,
)


def small_instance():
    points = [RatPoint((0, 0)), RatPoint((Fraction(1, 2), 2))]
    flats = [
        make_hyperplane(IntVector((1, 1)), 0),
        Flat(2, [[Fraction(1, 3), 1]], [Fraction(13, 6)]),
    ]
    return IncidenceInstance(points, flats, 2, 1)


def test_instance_round_trip(tmp_path):
    inst = small_instance()
    path = tmp_path / "tiny.inc.json"
    save_instance(path, inst)
    loaded = load_instance(path)
    assert loaded.points == inst.points
    assert [f.equations for f in loaded.flats] == [f.equations for f in inst.flats]
    assert [f.rhs for f in loaded.flats] == [f.rhs for f in inst.flats]
    assert (loaded.s, loaded.t) == (2, 1)
    assert count_incidences(loaded) == count_incidences(inst)


def test_rationals_encoded_as_pairs(tmp_path):
    inst = small_instance()
    doc = instance_to_dict(inst)
    assert doc["schema"] == 1
    assert doc["points"][1][0] == [1, 2]
    assert doc["flats"][1]["b"] == [[13, 6]]
    round_tripped = dict_to_instance(doc)
    assert round_tripped.points == inst.points


def test_construction_round_trip(tmp_path):
    out = build_grid_construction(
        ConstructionConfig(d=2, m=9, n=20, seed=3, box_side=2)
    )
    path = tmp_path / "grid.inc.json"
    save_construction(path, out, 2, out.t_measured + 1)
    loaded = load_construction(path)
    assert loaded.variant == "a"
    assert loaded.points == out.points
    assert loaded.normals_used == out.normals_used
    assert loaded.t_measured == out.t_measured
    assert loaded.padding_start == out.padding_start
    assert loaded.predicted_incidences == out.predicted_incidences
    assert [f.equations for f in loaded.flats] == [f.equations for f in out.flats]


def test_plain_instance_has_no_construction_block(tmp_path):
    path = tmp_path / "plain.inc.json"
    save_instance(path, small_instance())
    with pytest.raises(InvalidInput):
        load_construction(path)


def test_unsupported_schema_rejected():
    with pytest.raises(InvalidInput):
        dict_to_instance({"schema": 99})


def _plain_doc():
    return instance_to_dict(small_instance())


def _without(doc, key):
    del doc[key]
    return doc


def _with_point(doc, point):
    doc["points"].append(point)
    return doc


def _construction_doc(**block):
    out = build_grid_construction(ConstructionConfig(d=2, m=9, n=20, seed=1, box_side=2))
    doc = instance_to_dict(IncidenceInstance(out.points, out.flats, 2, 1), out)
    doc["construction"].update(block)
    return doc


def test_construction_doc_base_is_accepted():
    out = dict_to_construction(_construction_doc())
    assert (out.padding_start, len(out.flats), out.core_point_count) == (16, 20, 9)
    assert dict_to_construction(_construction_doc(padding_start=20)).padding_start == 20


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        _without(_plain_doc(), "ambient_dim"),
        _without(_plain_doc(), "points"),
        _with_point(_plain_doc(), [[1, 0], [0, 1]]),  # zero denominator
        _with_point(_plain_doc(), [[1, 1]]),  # 1-D point in a 2-D file
        _with_point(_plain_doc(), [["x", 1], [0, 1]]),
        {**_plain_doc(), "flats": [{"A": [[[1, 1], [0, 1]]]}]},  # no "b"
        {**_plain_doc(), "ambient_dim": 0},
        _construction_doc(variant="zzz"),
        _construction_doc(padding_start=-5),
        _construction_doc(padding_start=10**6),
        _construction_doc(padding_start=21),  # one past the 20 flats
        _construction_doc(core_point_count=-1),
        _construction_doc(core_point_count=10),  # one past the 9 points
        _construction_doc(notes=["fine", 7]),
    ],
    ids=["top-level-list", "no-ambient-dim", "no-points", "zero-denominator",
         "short-point", "non-integer", "flat-without-b", "zero-dim",
         "unknown-variant", "negative-padding-start", "huge-padding-start",
         "padding-start-past-flats", "negative-core-point-count",
         "core-point-count-past-points", "non-string-note"],
)
def test_malformed_documents_rejected(doc):
    has_block = isinstance(doc, dict) and "construction" in doc
    with pytest.raises(InvalidInput):
        (dict_to_construction if has_block else dict_to_instance)(doc)


def test_malformed_files_rejected(tmp_path):
    path = tmp_path / "bad.inc.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInput):
        load_instance(path)
    with pytest.raises(InvalidInput):
        load_instance(tmp_path / "missing.inc.json")


def test_unwritable_path_is_invalid_input(tmp_path):
    with pytest.raises(InvalidInput):
        save_instance(tmp_path / "missing_dir" / "x.inc.json", small_instance())


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [2, 3]}
    assert canonical_json(doc) == canonical_json({"a": [2, 3], "b": 1})
