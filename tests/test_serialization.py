"""Round-trips through the .inc.json format."""

import hashlib
import json
import re
from contextlib import suppress
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inclab import (
    ConstructionConfig,
    ConstructionOutput,
    Flat,
    IncidenceInstance,
    IntVector,
    InvalidInput,
    RatPoint,
    build_grid_construction,
    count_incidences,
    embed_configuration,
    load_construction,
    load_instance,
    make_hyperplane,
    save_construction,
    save_instance,
)
from inclab import serialization
from inclab.geometry import FlatFamily, PointRows, _hyperplanes, _split_coords
from inclab.incidence import _group_flats
from inclab.serialization import (
    _CHUNK,
    canonical_json,
    dict_to_construction,
    dict_to_instance,
    instance_to_dict,
)
from oracles import hyperplane_groups_nested, runs_as_nested
from test_golden import CONSTRUCTIONS, DIGESTS


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


def _failing_chunks(error):
    def chunks(flats, dim):
        yield "{}"  # one chunk out, then the renderer fails
        raise error
    return chunks


@pytest.mark.parametrize("error, raised", [
    (RuntimeError("renderer failed"), RuntimeError),
    (OSError("disk full"), InvalidInput),
])
def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch, error, raised):
    new, old = tmp_path / "new.inc.json", tmp_path / "old.inc.json"
    save_instance(old, small_instance())
    before = old.read_bytes()
    monkeypatch.setattr(serialization, "_flat_chunks", _failing_chunks(error))
    for path in (new, old):
        with pytest.raises(raised):
            save_instance(path, small_instance())
    assert not new.exists()
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.inc.json"]


def _boundary_points(count):
    # integers, rationals and entries past int64 in R^3
    values = (0, -7, Fraction(5, 3), 2**63, -(2**64) - 3, Fraction(-(2**70), 9))
    return [RatPoint([values[(i + k) % len(values)] for k in range(3)])
            for i in range(count)]


def _boundary_flats(count, kind):
    """``count`` flats of R^3: a family of hyperplanes with int64 offsets,
    one with exact offsets past int64 and rational ones, a family of lines,
    or a tuple of hyperplanes, lines, points and the whole space (mixed
    equation counts)."""
    normals = [(1, 0, 0), (1, -2, 3), (0, 0, 1), (2**63, 1, 0)]
    if kind == "family-int64":
        return _hyperplanes(3, normals[:3], [i % 3 for i in range(count)],
                            [i - 9 for i in range(count)])
    if kind == "family-exact":
        offsets = (5, Fraction(-1, 2), 2**62 + 1, -(2**64))
        return _hyperplanes(3, normals, [i % 4 for i in range(count)],
                            [offsets[i % 4] + i for i in range(count)])
    if kind.startswith("blocks"):
        # lines of R^3 over unreduced denominators, with rows and
        # denominators past int64 for "blocks-object"
        big = 2**63 if kind == "blocks-object" else 1
        rows = [[[-2 * big, 0, -4, -6 * i], [0, -3, 0, i - 5]] for i in range(count)]
        den = [[4 * big, 6 + i % 5] for i in range(count)]
        return FlatFamily._of(3, 2, np.array(rows, dtype=object).reshape(count, 2, 4),
                              np.array(den, dtype=object).reshape(count, 2))
    shapes = [
        lambda i: make_hyperplane(IntVector((1, 2, -(2**63) - i)), Fraction(i, 7)),
        lambda i: Flat(3, [[1, 0, 0], [0, 1, 0]], [i, Fraction(1, 2)]),
        lambda i: Flat(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [i, -i, 2**64]),
        lambda i: Flat(3, [], []),
    ]
    return tuple(shapes[i % len(shapes)](i) for i in range(count))


@pytest.mark.parametrize("kind", ["family-int64", "family-exact", "blocks-int64",
                                  "blocks-object", "tuple"])
@pytest.mark.parametrize("point_count, flat_count", [
    (0, 1), (1, 0), (1, 1),
    (_CHUNK - 1, _CHUNK + 1), (_CHUNK, _CHUNK), (_CHUNK + 1, _CHUNK - 1),
])
def test_writer_at_chunk_boundaries(tmp_path, kind, point_count, flat_count):
    inst = IncidenceInstance(_boundary_points(point_count),
                             _boundary_flats(flat_count, kind), 2, 3)
    if kind.startswith("blocks"):
        dtype = object if kind == "blocks-object" and flat_count else np.int64
        assert isinstance(inst.flats, FlatFamily) and inst.flats.rows.dtype == dtype
    path = save_instance(tmp_path / "chunks.inc.json", inst)
    assert path.read_bytes() == canonical_json(instance_to_dict(inst)).encode()


@pytest.mark.parametrize("rational", [None, 0, _CHUNK], ids=["none", "first", "last"])
def test_hyperplane_rows_over_one_or_more(tmp_path, rational):
    # a family written off its rows with no gcd when every den is 1, and
    # over gcds when one offset is rational: then the chunks whose den are
    # all 1 still go through the gcd, and the text is the same either way
    offsets = [i - 7 for i in range(_CHUNK + 1)]
    if rational is not None:
        offsets[rational] = Fraction(2 * rational + 1, 6)
    family = _hyperplanes(2, [(1, 2), (3, -1)], [i % 2 for i in range(_CHUNK + 1)], offsets)
    assert (family.den == 1).all() == (rational is None)
    inst = IncidenceInstance([RatPoint((1, Fraction(1, 2)))], family, 2, 3)
    path = save_instance(tmp_path / "rows.inc.json", inst)
    assert path.read_bytes() == canonical_json(instance_to_dict(inst)).encode()


# per kind: the coordinates, the rows' dtype and whether every q is 1
POINT_ROW_KINDS = {
    "int64": ((0, -7, 5, 2**62), np.int64, True),
    "int64-rational": ((0, Fraction(-7, 3), Fraction(5, 6), -(2**40)), np.int64, False),
    "object": ((0, -7, 2**63, -(2**64) - 3), object, True),
    "object-rational": ((Fraction(4, 6), Fraction(5, 3), 2**63, Fraction(-(2**70), 9)),
                        object, False),
}


@pytest.mark.parametrize("kind", sorted(POINT_ROW_KINDS))
@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_point_rows_at_chunk_boundaries(tmp_path, kind, count):
    # the writer reads each coordinate off the rows as P / q in lowest terms
    values, dtype, integral = POINT_ROW_KINDS[kind]
    points = [RatPoint([values[(i + k) % len(values)] for k in range(3)])
              for i in range(count)]
    inst = IncidenceInstance(points, [make_hyperplane(IntVector((1, 0, 0)), 0)], 2, 3)
    assert isinstance(inst.points, PointRows)
    if count:
        assert inst.points.matrix.dtype == dtype and inst.points.integral == integral
    path = save_instance(tmp_path / "rows.inc.json", inst)
    assert path.read_bytes() == canonical_json(instance_to_dict(inst)).encode()


def _hyperplane_instance(extra=()):
    """Hyperplanes of R^2 over scaled, negative and repeated normals with
    integer, rational and past-int64 offsets, then the flats ``extra``."""
    flats = tuple(make_hyperplane(IntVector(row), c) for row, c in (
        ((1, 2), 3), ((2, 4), 5), ((1, 2), Fraction(1, 3)), ((0, -1), 2**63),
        ((1, 2), 3), ((-3, 1), -(2**64)), ((2, 4), Fraction(-7, 2)),
    )) + tuple(extra)
    points = [RatPoint(p) for p in ((1, 1), (Fraction(1, 2), 1), (3, 0), (0, -(2**63)),
                                    (1, Fraction(1, 3)), (1, 1))]
    return IncidenceInstance(points, flats, 2, 2)


def test_hyperplane_file_loads_as_a_family(tmp_path):
    inst = _hyperplane_instance()
    loaded = dict_to_instance(instance_to_dict(inst))
    assert isinstance(loaded.flats, FlatFamily) and loaded.flats.rows.shape == (7, 3)
    assert isinstance(loaded.points, PointRows) and loaded.points == inst.points
    # the file's flats, read one by one with Flat(...), in both directions
    assert loaded.flats == inst.flats and inst.flats == loaded.flats
    assert runs_as_nested(_group_flats(loaded.flats)) == hyperplane_groups_nested(inst.flats)
    for strategy in ("naive", "hashed"):
        assert count_incidences(loaded, strategy) == count_incidences(inst, strategy)
    path = save_instance(tmp_path / "family.inc.json", loaded)
    assert path.read_text() == canonical_json(instance_to_dict(inst))


@pytest.mark.parametrize("extra", [
    Flat(2, [[0, 0]], [0]),  # a zero row: the whole plane
    Flat(2, [[1, 0], [0, 1]], [1, Fraction(1, 2)]),  # two rows
    Flat(2, [], []),  # no rows
], ids=["zero-row", "two-rows", "no-rows"])
def test_a_mixed_file_loads_flat_by_flat(extra, tmp_path):
    # one family of one-row and other flats, decoded pair by pair, whose
    # rows write the file's text again
    inst = _hyperplane_instance([extra])
    doc = instance_to_dict(inst)
    loaded = dict_to_instance(doc)
    assert isinstance(loaded.flats, FlatFamily)
    assert loaded.flats == inst.flats and inst.flats == loaded.flats
    assert loaded.flats[-1] == extra
    assert count_incidences(loaded, "naive") == count_incidences(inst, "naive")
    path = save_instance(tmp_path / "mixed.inc.json", loaded)
    assert path.read_text() == canonical_json(doc)


def test_a_rational_row_file_loads_as_a_family(tmp_path):
    # a hyperplane with rational coefficients is one more one-row block
    inst = _hyperplane_instance([Flat(2, [[Fraction(1, 2), 1]], [3])])
    loaded = dict_to_instance(instance_to_dict(inst))
    assert isinstance(loaded.flats, FlatFamily) and loaded.flats.rows.shape == (8, 3)
    assert loaded.flats == inst.flats and inst.flats == loaded.flats
    assert runs_as_nested(_group_flats(loaded.flats)) == hyperplane_groups_nested(inst.flats)
    for strategy in ("naive", "hashed"):
        assert count_incidences(loaded, strategy) == count_incidences(inst, strategy)
    path = save_instance(tmp_path / "rational.inc.json", loaded)
    assert path.read_text() == canonical_json(instance_to_dict(inst))


@pytest.mark.parametrize("flat, message", [
    ({"A": [[[0, 1], [0, 1]]], "b": [[1, 1]]}, "inconsistent system"),
    ({"A": [[[1, 1], [2, 1], [3, 1]]], "b": [[1, 1]]}, "equation width"),
    ({"A": [[[1, 1], [2, 1]]], "b": [[1, 1], [2, 1]]}, "equation count"),
])
def test_flats_no_family_holds_keep_their_errors(flat, message):
    doc = instance_to_dict(_hyperplane_instance())
    doc["flats"].append(flat)
    with pytest.raises(InvalidInput, match=message):
        dict_to_instance(doc)


def _embedded_document():
    """An instance file of 2-flats of R^4: each flat two rational rows."""
    inner = build_grid_construction(ConstructionConfig(d=2, m=9, n=12, seed=1, box_side=2))
    out = embed_configuration(inner, 4, 2, seed=2)
    assert isinstance(out.flats, FlatFamily)
    return instance_to_dict(IncidenceInstance(out.points, out.flats, 2, 2))


def test_block_file_loads_as_a_family(tmp_path):
    doc = _embedded_document()
    loaded = dict_to_instance(doc)
    assert isinstance(loaded.flats, FlatFamily)
    # the file's flats, read one by one with Flat(...), in both directions
    flat_by_flat = tuple(Flat(4, [[serialization._dec(a) for a in row] for row in spec["A"]],
                              [serialization._dec(c) for c in spec["b"]])
                         for spec in doc["flats"])
    assert loaded.flats == flat_by_flat and flat_by_flat == loaded.flats
    inst = IncidenceInstance(loaded.points, flat_by_flat, 2, 2)
    for strategy in ("naive", "hashed"):
        assert count_incidences(loaded, strategy) == count_incidences(inst, strategy)
    path = save_instance(tmp_path / "blocks.inc.json", loaded)
    assert path.read_text() == canonical_json(doc)


def test_embedding_into_hyperplanes_saves_and_counts_as_a_family(tmp_path):
    # k = d_outer - 1: the extensions are one-row blocks over qn * q
    inner = build_grid_construction(ConstructionConfig(d=2, m=9, n=12, seed=1, box_side=2))
    out = embed_configuration(inner, 3, 2, seed=2)
    assert isinstance(out.flats, FlatFamily)
    assert np.diff(out.flats.starts).tolist() == [1] * len(out.flats)
    inst = IncidenceInstance(out.points, out.flats, 2, 2)
    path = save_construction(tmp_path / "planes.inc.json", out, 2, 2)
    assert path.read_text() == canonical_json(instance_to_dict(inst, out))
    assert runs_as_nested(_group_flats(out.flats)) == hyperplane_groups_nested(tuple(out.flats))
    naive = count_incidences(inst, "naive")
    assert naive == count_incidences(inst, "hashed") == count_incidences(
        IncidenceInstance(inner.points, inner.flats, 2, 2))
    loaded = load_construction(path)
    assert isinstance(loaded.flats, FlatFamily) and loaded.flats == out.flats


def test_flats_of_lower_dimension_load_flat_by_flat():
    # a repeated row: a system of two equations of rank 1 is a hyperplane,
    # whose dimension one elimination reads; the rows are kept as written
    doc = _embedded_document()
    spec = doc["flats"][3]
    spec["A"][1], spec["b"][1] = spec["A"][0], spec["b"][0]
    loaded = dict_to_instance(doc)
    assert isinstance(loaded.flats, FlatFamily)
    dims = [2] * 3 + [3] + [2] * (len(doc["flats"]) - 4)
    assert [f.dim for f in loaded.flats] == loaded.flats.dims.tolist() == dims
    assert canonical_json(instance_to_dict(loaded)) == canonical_json(doc)


def test_mixed_equation_counts_load_flat_by_flat():
    doc = _embedded_document()
    extra = Flat(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [1, Fraction(1, 2), 0])
    doc["flats"].append(instance_to_dict(IncidenceInstance([], [extra], 2, 2))["flats"][0])
    loaded = dict_to_instance(doc)
    assert isinstance(loaded.flats, FlatFamily) and loaded.flats[-1] == extra
    assert loaded.flats[:-1] == dict_to_instance(_embedded_document()).flats


@pytest.mark.parametrize("change, message", [
    (lambda spec: spec["b"].__setitem__(1, [1, 1]) or spec["A"].__setitem__(1, spec["A"][0]),
     "inconsistent system"),
    (lambda spec: spec["A"][1].append([1, 1]), "equation width"),
    (lambda spec: spec["b"].append([1, 1]), "equation count"),
    (lambda spec: spec["A"][1][2].__setitem__(1, 0), "zero denominator"),
    (lambda spec: spec["b"][0].__setitem__(1, 0), "zero denominator"),
    (lambda spec: spec["A"][0].__setitem__(0, [1, 2, 3]), "numerator, denominator"),
    (lambda spec: spec["A"][0].__setitem__(0, [1.5, 2]), "numerator"),
], ids=["inconsistent", "width", "count", "zero-den-row", "zero-den-rhs", "triple", "float"])
def test_flats_no_block_family_holds_keep_their_errors(change, message):
    doc = _embedded_document()
    change(doc["flats"][5])
    with pytest.raises(InvalidInput, match=message):
        dict_to_instance(doc)


def _scale_pair(pair, k):
    pair[0], pair[1] = pair[0] * k, pair[1] * k


def _flat_pairs(doc):
    return [pair for spec in doc["flats"] for pair in (*chain(*spec["A"]), *spec["b"])]


def _loads_pair_by_pair(doc, directory, message=None) -> bool:
    """Write ``doc`` as file text in the writer's layout
    (:func:`canonical_json`) and compact, and check that ``load_instance``
    reads both as its pairs decoded one by one (``_dec``) give: the points
    :func:`_split_coords` makes, of its dtype, and the flats ``Flat(...)``
    makes flat by flat, their rows int64 within 2^62 and Python ints past
    it, with equal naive and hashed counts.  When that decode, or
    ``message``, names an error, both layouts must raise it in the same
    words.  Returns whether the text reader takes the written text."""
    dim, dec = doc["ambient_dim"], serialization._dec
    written, compact = directory / "written.inc.json", directory / "compact.inc.json"
    written.write_text(canonical_json(doc))
    compact.write_text(json.dumps(doc, separators=(",", ":")))
    if message is None:
        try:
            points = _split_coords([[dec(c) for c in point] for point in doc["points"]], dim)
            flats = tuple(Flat(dim, [[dec(a) for a in row] for row in spec["A"]],
                               [dec(c) for c in spec["b"]]) for spec in doc["flats"])
        except InvalidInput as exc:
            message = str(exc)
    for path in (written, compact):
        if message is not None:
            with pytest.raises(InvalidInput) as raised:
                load_instance(path)
            assert str(raised.value) == message
            continue
        loaded = load_instance(path)
        assert_same_point_rows(loaded.points, points)
        assert isinstance(loaded.flats, FlatFamily)
        assert loaded.flats == flats and flats == loaded.flats
        assert hash(loaded.flats) == hash(flats)
        assert loaded.flats.dims.tolist() == [f.dim for f in flats]
        largest = max(map(abs, [*loaded.flats.rows.ravel().tolist(), *loaded.flats.den.tolist()]))
        dtype = np.int64 if largest <= 2**62 else object
        assert loaded.flats.rows.dtype == loaded.flats.den.dtype == dtype
        naive = count_incidences(loaded, "naive")
        assert naive == count_incidences(loaded, "hashed") == count_incidences(
            IncidenceInstance(points, flats, loaded.s, loaded.t), "naive")
    return serialization._read_written(written.read_bytes()) is not None


@pytest.mark.parametrize("change, read, message", [
    (lambda doc: None, True, None),
    (lambda doc: [_scale_pair(pair, -1) for pair in _flat_pairs(doc)[::3]], True, None),
    (lambda doc: [_scale_pair(pair, 6) for pair in _flat_pairs(doc)[1::2]], True, None),
    (lambda doc: [_scale_pair(pair, -(2**63) - 5) for pair in _flat_pairs(doc)[::4]],
     False, None),
    (lambda doc: _flat_pairs(doc)[2].__setitem__(0, 2**63 * _flat_pairs(doc)[2][1]),
     False, None),
    (lambda doc: _flat_pairs(doc)[2].__setitem__(0, 2**62 * _flat_pairs(doc)[2][1]),
     False, None),
    (lambda doc: [pair.__setitem__(1, den) for pair, den in zip(
        doc["flats"][0]["A"][0], (2**31 - 1, 2**32 + 15, 2**29 + 11, 7))], True, None),
    (lambda doc: doc["flats"][1]["A"][0].append([1, 1]), False,
     "equation width does not match ambient dimension"),
    (lambda doc: doc["flats"][1]["b"].append([1, 1]), False,
     "equation count does not match right-hand side"),
    (lambda doc: doc["flats"][1]["A"].__setitem__(0, {"0": 1}), False,
     "flat 1 row must be a list, got {'0': 1}"),
], ids=["as-written", "negative-den", "unreduced", "den-past-int64", "2^63-beside-small",
        "2^62-beside-small", "lcm-past-2^62", "ragged-row", "ragged-rhs", "object-row"])
def test_array_decode_matches_the_per_pair_loop(change, read, message, tmp_path):
    # the embedded document, changed, as written and as compact text: the
    # text reader's pair arrays (where it takes the written text) and the
    # per-pair path give the values of the pairs decoded one by one, over
    # negative, unreduced and past-int64 denominators, or the same error
    doc = _embedded_document()
    change(doc)
    assert _loads_pair_by_pair(doc, tmp_path, message) == read


@pytest.mark.parametrize("leaf", [True, 1.0, "1", None, [1]], ids=repr)
@pytest.mark.parametrize("where", ["numerator", "denominator", "rhs"])
def test_irregular_leaves_raise_the_per_pair_errors(leaf, where, tmp_path):
    # either layout raises the error of the irregular pair decoded alone
    doc = _embedded_document()
    pair = doc["flats"][2]["b"][1] if where == "rhs" else doc["flats"][2]["A"][1][3]
    pair[where == "denominator"] = leaf
    with pytest.raises(InvalidInput) as per_pair:
        serialization._dec(pair)
    assert not _loads_pair_by_pair(doc, tmp_path, str(per_pair.value))


def test_zero_denominators_raise_the_per_pair_error(tmp_path):
    doc = _embedded_document()
    doc["flats"][4]["A"][0][1][1] = 0
    assert not _loads_pair_by_pair(doc, tmp_path, "zero denominator in rational "
                                   f"{doc['flats'][4]['A'][0][1]!r}")


@pytest.mark.parametrize("coordinates, read", [
    ([[0, 1], [2**62, 1]], False),  # 2^62 has 19 digits
    ([[2**63, 1], [1, 1]], False),  # numpy alone would read this as float64
    ([[-(2**63), 1], [-(2**64), 1]], False),
    ([[1, 2], [3, 1]], True),
    ([[-1, -1], [3, 1]], True),
    ([[6, -4], [-10, 15]], True),  # negative and unreduced
    ([[2**64, 3 * 2**64], [1, 2**63 + 1]], False),  # past int64, unreduced
    ([[3, 2**62], [5, 2**61]], False),  # an lcm of 2^62
    ([[1, 0], [3, 1]], False),  # a zero denominator: the per-pair error
    ([[True, 1], [3, 1]], False),
    ([[1.0, 1], [3, 1]], False),
], ids=["2^62", "2^63", "past-int64", "rational", "negative-den", "unreduced",
        "den-past-int64", "lcm-2^62", "zero-den", "bool", "float"])
def test_points_decode_as_rows(coordinates, read, tmp_path):
    # points as written and as compact text load as the per-pair split
    # makes them, of its dtype, or raise its error
    doc = _plain_doc()
    doc["points"] = [coordinates, [[0, 1], [0, 1]]]
    assert _loads_pair_by_pair(doc, tmp_path) == read


def assert_same_point_rows(rows, other):
    """Equal rows and denominators, of one dtype: the one primitive form."""
    assert rows == other
    assert rows.matrix.tolist() == other.matrix.tolist() and rows.q.tolist() == other.q.tolist()
    assert (rows.matrix.dtype, rows.q.dtype) == (other.matrix.dtype, other.q.dtype)


# a numerator or a nonzero denominator: small, negative, near and past int64
POINT_PAIRS = st.tuples(
    st.integers(-6, 6) | st.sampled_from((2**62, -(2**62) - 1, -(2**63), 2**64 + 1)),
    st.integers(-6, 6).filter(bool) | st.sampled_from((2**61, -(2**62), 2**63, -3 * 2**64)),
).map(list)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.just(dim), st.lists(st.lists(POINT_PAIRS, min_size=dim, max_size=dim), min_size=1,
                           max_size=5))))
def test_point_pairs_decode_as_the_split_does(tmp_path_factory, case):
    # negative, unreduced and past-int64 pairs, as written and as compact
    # text: each point over the lcm of its denominators and then over its
    # gcd, as the per-pair split makes it
    dim, points = case
    plane = make_hyperplane(IntVector([1] + [0] * (dim - 1)), 0)
    doc = {**instance_to_dict(IncidenceInstance([], [plane], 2, 1)), "points": points}
    _loads_pair_by_pair(doc, tmp_path_factory.getbasetemp())


def test_a_ragged_point_raises_the_per_pair_error(tmp_path):
    doc = _plain_doc()
    doc["points"][1] = doc["points"][1][:1]
    assert not _loads_pair_by_pair(doc, tmp_path,
                                   "point 1 has 1 coordinates in an ambient_dim 2 file")


@pytest.mark.parametrize("key, value", [
    ("normals_used", [[1, 1], [0, 0]]), ("t_measured", -1), ("predicted_incidences", -5),
])
def test_impossible_construction_values_are_named(key, value):
    with pytest.raises(InvalidInput, match=key):
        dict_to_construction(_construction_doc(**{key: value}))


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [2, 3]}
    assert canonical_json(doc) == canonical_json({"a": [2, 3], "b": 1})


def _fuzz_documents():
    """A grid document and an embedded one (rational non-hyperplane flats),
    as text, so each example mutates its own copy."""
    out = build_grid_construction(ConstructionConfig(d=2, m=9, n=12, seed=1, box_side=2))
    embedded = embed_configuration(out, 4, 2, seed=2)
    return [
        canonical_json(instance_to_dict(IncidenceInstance(c.points, c.flats, 2, 2), c))
        for c in (out, embedded)
    ]


FUZZ_DOCUMENTS = _fuzz_documents()
JSON_SCALARS = st.one_of(
    st.sampled_from((0, -1, 1, 2, 2**64)), st.integers(), st.none(), st.booleans(),
    st.floats(), st.text(max_size=3),
)
# half scalars, since a recursive strategy alone draws mostly containers
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_documents_fail_only_with_invalid_input(data):
    # one node of a valid document deleted or replaced by any JSON value
    doc = json.loads(data.draw(st.sampled_from(FUZZ_DOCUMENTS)))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path and data.draw(st.booleans()):
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = data.draw(JSON_VALUES)
    else:
        doc = data.draw(JSON_VALUES)
    for load in (dict_to_instance, dict_to_construction):
        with suppress(InvalidInput):
            load(doc)


PAIR_SCALES = st.one_of(st.integers(-3, 3).filter(bool),
                        st.sampled_from((2**63, -(2**64) - 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((0, 1)), st.lists(PAIR_SCALES, min_size=1, max_size=7))
def test_families_load_over_any_denominators(which, scales):
    # each pair [n, d] of the grid (hyperplanes) or the embedded (2-flats)
    # document written as [k n, k d]: the same values over unreduced,
    # negative denominators and entries past int64; the file still loads as
    # one family, equal to its flats read one by one with Flat(...)
    doc = json.loads(FUZZ_DOCUMENTS[which])
    pairs = [pair for spec in doc["flats"] for pair in (*chain(*spec["A"]), *spec["b"])]
    for i, pair in enumerate(pairs):
        pair[0] *= scales[i % len(scales)]
        pair[1] *= scales[i % len(scales)]
    loaded = dict_to_instance(doc)
    assert isinstance(loaded.flats, FlatFamily)
    flat_by_flat = tuple(
        Flat(doc["ambient_dim"], [[serialization._dec(a) for a in row] for row in spec["A"]],
             [serialization._dec(c) for c in spec["b"]])
        for spec in doc["flats"])
    assert loaded.flats == flat_by_flat and flat_by_flat == loaded.flats
    assert hash(loaded.flats) == hash(flat_by_flat)
    assert [f.dim for f in loaded.flats] == [f.dim for f in flat_by_flat]
    assert (loaded.flats.den > 0).all()
    reference = dict_to_instance(json.loads(FUZZ_DOCUMENTS[which]))
    assert canonical_json(instance_to_dict(loaded)) == canonical_json(
        instance_to_dict(reference))
    for strategy in ("naive", "hashed"):
        assert count_incidences(loaded, strategy) == count_incidences(reference, strategy)


# exact values: small, past int64 either way, and rational
EXACT = st.one_of(
    st.integers(-3, 3),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    st.fractions(max_denominator=10**20),
)
NOTES = st.text(st.sampled_from('a "\\\n\té€😀'), max_size=6) | st.text(max_size=4)


@st.composite
def flats(draw, dim):
    # a random system through a random point, a point flat, or the whole space
    through = draw(st.lists(EXACT, min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(("system", "point", "space")))
    if kind == "space":
        return Flat(dim, [], [])
    if kind == "point":
        return Flat(dim, [[int(i == j) for j in range(dim)] for i in range(dim)], through)
    equation = st.lists(EXACT, min_size=dim, max_size=dim)
    rows = draw(st.lists(equation, min_size=1, max_size=3))
    return Flat(dim, rows, [sum(a * x for a, x in zip(row, through)) for row in rows])


@st.composite
def instances_with_constructions(draw):
    dim = draw(st.integers(1, 4))
    point = st.lists(EXACT, min_size=dim, max_size=dim).map(RatPoint)
    points = draw(st.lists(point, max_size=4))
    flat_list = draw(st.lists(flats(dim), min_size=0 if points else 1, max_size=4))
    s, t = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    inst = IncidenceInstance(points, flat_list, s, t)
    if draw(st.booleans()):
        return inst, None
    normal = st.lists(st.integers(), min_size=dim, max_size=dim).map(IntVector)
    return inst, ConstructionOutput(
        variant=draw(st.sampled_from(("a", "b", "embed"))),
        ambient_dim=dim,
        points=inst.points,
        flats=inst.flats,
        normals_used=tuple(draw(st.lists(normal, max_size=3))),
        t_measured=draw(st.integers(0, 9)),
        t_verified=draw(st.booleans()),
        predicted_incidences=draw(st.integers(0, 2**70)),
        padding_start=draw(st.integers(0, len(flat_list))),
        core_point_count=draw(st.integers(0, len(points))),
        seed=draw(st.integers()),
        inner_ambient_dim=draw(st.none() | st.integers(2, 9)),
        notes=tuple(draw(st.lists(NOTES, max_size=3))),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instances_with_constructions())
def test_saved_text_equals_the_reference_path(tmp_path_factory, case):
    inst, construction = case
    path = tmp_path_factory.getbasetemp() / "same.inc.json"
    save_instance(path, inst, construction)
    reference = canonical_json(instance_to_dict(inst, construction))
    assert path.read_bytes() == reference.encode()


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_saved_construction_has_the_golden_bytes(tmp_path, name):
    out = CONSTRUCTIONS[name]()
    path = save_construction(tmp_path / f"{name}.inc.json", out, 2, out.t_measured + 1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


@st.composite
def tabled_instances(draw):
    """Instances whose columns repeat within a chunk, for the writer's
    value tables: up to 30 points and 30 flats, each column's entries from
    a few values or from a wide range (past int64 included), integral or
    over small denominators, flats of zero to two rows mixed, and either
    side possibly empty."""
    dim = draw(st.integers(1, 3))
    few = st.integers(-2, 2)
    wide = st.integers(-(10**6), 10**6) | st.integers(-(2**70), 2**70)
    den = st.sampled_from((1, 2, 3)) if draw(st.booleans()) else st.just(1)

    def entry(kind):
        return st.builds(Fraction, few if kind == "few" else wide, den)

    kinds = st.lists(st.sampled_from(("few", "few", "wide")), min_size=dim, max_size=dim)
    point = st.tuples(*map(entry, draw(kinds))).map(RatPoint)
    points = draw(st.lists(point, max_size=30))
    row = st.tuples(*map(entry, draw(kinds)))
    through = draw(st.tuples(*[few] * dim))
    flat_list = []
    for count in draw(st.lists(st.sampled_from((0, 1, 1, 2)), min_size=0 if points else 1,
                               max_size=30)):
        rows = draw(st.lists(row.filter(any), min_size=count, max_size=count))
        flat_list.append(Flat(dim, rows, [sum(a * x for a, x in zip(r, through))
                                          for r in rows]))
    return IncidenceInstance(points, flat_list, 2, 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tabled_instances(), st.sampled_from((3, 8, _CHUNK)))
def test_tabled_text_equals_the_reference_path(tmp_path_factory, inst, chunk):
    path = tmp_path_factory.getbasetemp() / "tabled.inc.json"
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(serialization, "_CHUNK", chunk)
        save_instance(path, inst)
    assert path.read_bytes() == canonical_json(instance_to_dict(inst)).encode()


@pytest.mark.parametrize("side", [_CHUNK - 1, _CHUNK])
def test_a_column_is_tabled_when_it_spans_fewer_values_than_rows(tmp_path, side):
    # x runs over `side` values in a chunk of _CHUNK points, and y is 0:
    # x is tabled only when it spans fewer values than the chunk holds,
    # and y always, so the chunk is joined from its pieces either way
    xs = [i % side - 5 for i in range(_CHUNK)]
    points = PointRows._of(2, np.array([[x, 0] for x in xs]), np.ones(_CHUNK, np.int64))
    tables = serialization._tables(points.matrix)
    assert sorted(tables) == ([0, 1] if side < _CHUNK else [1])
    assert tables[1][0] == 0 and tables[1][1].tolist() == ["0"]
    inst = IncidenceInstance(points, [], 2, 1)
    path = save_instance(tmp_path / "column.inc.json", inst)
    assert path.read_bytes() == canonical_json(instance_to_dict(inst)).encode()


def test_mostly_wide_columns_fill_one_template():
    # fewer than half the columns tabled: one % pass over the items'
    # template, which the first 64 rows decide without reading a column
    # whole; a column of one value is tabled
    values = np.array([[i, 7 * i, 0] for i in range(100)], dtype=np.int64)
    assert serialization._tables(values) is None
    join = serialization._ITEM_SEP.join
    assert serialization._render("[%d, %d, %d]", values) == join(
        f"[{i}, {7 * i}, 0]" for i in range(100))
    assert sorted(serialization._tables(values[:, [2, 2, 0]])) == [0, 1]
    assert serialization._render("[%d, %d, %d]", values[:, [2, 2, 0]]) == join(
        f"[0, 0, {i}]" for i in range(100))


# the text reader: files as the writer lays them out are read from their
# bytes (serialization._read_written); any other text takes the json path

READ_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(10**15), 10**15),
                         st.fractions(max_denominator=50))
PAST_18_DIGITS = st.sampled_from((10**18, -(10**18), 2**62 + 1, -(2**63)))


@st.composite
def written_instances(draw):
    """Instances and construction blocks as ``save_instance`` and
    ``save_construction`` write them: integer or rational points,
    hyperplanes and k-flats of r = 1-3 rows through a point, all of one
    row count or mixed (zero rows included), entries of up to 18 digits
    or, in some instances, past 2^62, and either side possibly empty."""
    dim = draw(st.integers(1, 4))
    entries = READ_ENTRIES | PAST_18_DIGITS if draw(st.integers(0, 3)) == 0 else READ_ENTRIES
    widest = st.sampled_from((10**18 - 1, -(10**18) + 1))  # 18 digits
    if draw(st.booleans()):
        entry = st.integers(-3, 3) | widest
    else:
        entry = entries | widest
    point = st.lists(entry, min_size=dim, max_size=dim).map(RatPoint)
    empty = draw(st.sampled_from(("", "", "", "points", "flats")))  # the side left empty
    points = draw(st.lists(point, min_size=empty != "points", max_size=6 * (empty != "points")))
    through = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))  # rhs within 18 digits
    mixed = st.integers(1, 3) if draw(st.booleans()) else st.integers(0, 3)
    one = draw(st.integers(1, 3))
    flat_list = []
    for count in draw(st.lists(mixed if draw(st.integers(0, 2)) == 0 else st.just(one),
                               min_size=empty != "flats", max_size=6 * (empty != "flats"))):
        rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim)
                             .filter(lambda row: any(row)), min_size=count, max_size=count))
        flat_list.append(Flat(dim, rows, [sum(a * x for a, x in zip(row, through))
                                          for row in rows]))
    inst = IncidenceInstance(points, flat_list, draw(st.integers(2, 4)), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        return inst, None
    return inst, ConstructionOutput(
        variant=draw(st.sampled_from(("a", "b", "embed"))), ambient_dim=dim,
        points=inst.points, flats=inst.flats,
        normals_used=(IntVector([1] * dim),), t_measured=draw(st.integers(0, 9)),
        t_verified=draw(st.booleans()), predicted_incidences=draw(st.integers(0, 2**70)),
        padding_start=len(flat_list), core_point_count=len(points),
        seed=draw(st.integers()), inner_ambient_dim=None,
        notes=tuple(draw(st.lists(NOTES, max_size=2))))


def _read_by_the_reader(doc) -> bool:
    """Whether the text reader takes the written ``doc``: points and flats
    both present, every flat of one row count r >= 1, every entry of at
    most 18 digits."""
    pairs = [*chain(*doc["points"]), *(pair for spec in doc["flats"]
                                       for pair in (*chain(*spec["A"]), *spec["b"]))]
    return bool(doc["points"] and doc["flats"]
                and len({len(spec["A"]) for spec in doc["flats"]}) == 1
                and doc["flats"][0]["A"]
                and max(len(str(abs(x))) for pair in pairs for x in pair) <= 18)


def _assert_same_instance(got, want):
    arrays = ((got.points.matrix, want.points.matrix), (got.points.q, want.points.q),
              (got.flats.rows, want.flats.rows), (got.flats.den, want.flats.den),
              (got.flats.starts, want.flats.starts), (got.flats.dims, want.flats.dims))
    for a, b in arrays:
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
    assert (got.ambient_dim, got.s, got.t) == (want.ambient_dim, want.s, want.t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(written_instances(), st.sampled_from((32, 100, serialization._WINDOW)))
def test_written_files_read_from_their_bytes_as_json_reads_them(
        tmp_path_factory, case, window):
    inst, construction = case
    base = tmp_path_factory.getbasetemp()
    path = save_instance(base / "read.inc.json", inst, construction)
    data = path.read_bytes()
    doc = json.loads(data)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(serialization, "_WINDOW", window)
        read = serialization._read_written(data)
        loaded = load_instance(path)
        block = load_construction(path) if construction is not None else None
    assert (read is not None) == _read_by_the_reader(doc)
    reference = dict_to_instance(doc)
    _assert_same_instance(loaded, reference)
    if read is not None:
        assert read.keys() == doc.keys()
        assert {k: v for k, v in read.items() if k not in ("points", "flats")} == {
            k: v for k, v in doc.items() if k not in ("points", "flats")}
        _assert_same_instance(dict_to_instance(read), reference)
    if construction is not None:
        assert block == dict_to_construction(doc)
    again = save_instance(base / "again.inc.json", loaded, block)
    assert again.read_bytes() == data


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_every_golden_file_is_read_from_its_bytes(tmp_path, name):
    out = CONSTRUCTIONS[name]()
    path = save_construction(tmp_path / f"{name}.inc.json", out, 2, out.t_measured + 1)
    doc = json.loads(path.read_bytes())
    read = serialization._read_written(path.read_bytes())
    assert read is not None
    _assert_same_instance(dict_to_instance(read), dict_to_instance(doc))
    assert dict_to_construction(read) == dict_to_construction(doc) == load_construction(path)


def _entry(data: bytes, key: bytes, k: int) -> tuple[re.Match, int]:
    """The k-th integer after the member ``key`` of the text ``data``, and
    where the member starts."""
    return list(re.finditer(rb"-?\d+", data[data.index(key):]))[k], data.index(key)


def _replace_entry(data: bytes, key: bytes, k: int, text: bytes) -> bytes:
    match, at = _entry(data, key, k)
    return data[: at + match.start()] + text + data[at + match.end():]


def _reordered(data: bytes) -> bytes:
    doc = json.loads(data)
    return (json.dumps({**{k: v for k, v in doc.items() if k != "ambient_dim"},
                        "ambient_dim": doc["ambient_dim"]}, indent=1) + "\n").encode()


def _moved(data: bytes) -> bytes:
    """The first point entry moved past the comma after it."""
    match, at = _entry(data, b'"points"', 0)
    start, end = at + match.start(), at + match.end()
    return data[:start] + b"," + match.group() + data[end + 1 :]


MUTATIONS = {
    "space after an entry": lambda d: _replace_entry(d, b'"points"', 0, b"%s " % _entry(
        d, b'"points"', 0)[0].group()),
    "space before the points": lambda d: d.replace(b'"points": [', b'"points":  [', 1),
    "crlf": lambda d: d.replace(b"\n", b"\r\n"),
    "float": lambda d: _replace_entry(d, b'"points"', 0, b"1.0"),
    "true": lambda d: _replace_entry(d, b'"flats"', 2, b"true"),
    "leading zero": lambda d: _replace_entry(d, b'"points"', 2, b"01"),
    "lone minus": lambda d: _replace_entry(d, b'"flats"', 0, b"-"),
    "19 digits": lambda d: _replace_entry(d, b'"flats"', 0, b"1234567890123456789"),
    "19 digits negative": lambda d: _replace_entry(d, b'"points"', 0, b"-1000000000000000000"),
    "minus inside an entry": lambda d: _replace_entry(d, b'"flats"', 3, b"2-3"),
    "tab for a space": lambda d: d.replace(b'"points": [\n ', b'"points": [\n\t', 1),
    "entry moved past its comma": _moved,
    "keys reordered": _reordered,
    "key duplicated": lambda d: d.replace(b"{\n", b'{\n "s": 7,\n', 1),
    "points duplicated": lambda d: d.replace(b"{\n", b'{\n "points": [],\n', 1),
    "zero denominator of a point": lambda d: _replace_entry(d, b'"points"', 1, b"0"),
    "zero denominator of a flat": lambda d: _replace_entry(d, b'"flats"', 1, b"0"),
    "truncated": lambda d: d[: len(d) // 2],
    "last bytes cut": lambda d: d[:-2],
}


def _json_path(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    return dict_to_instance(doc)


def _outcome(load, path):
    try:
        inst = load(path)
    except InvalidInput as exc:
        return "error", str(exc)
    return "ok", canonical_json(instance_to_dict(inst))


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("base", ["grid-d2", "sphere-d5-padded-points", "rational"])
def test_any_other_text_takes_the_json_path(tmp_path, base, mutation):
    # each mutation of a written file makes the reader decline, and the
    # load then gives what the json path gives: the instance or the error
    if base == "rational":
        path = save_instance(tmp_path / "base.inc.json", small_instance())
    else:
        out = CONSTRUCTIONS[base]()
        path = save_construction(tmp_path / "base.inc.json", out, 2, out.t_measured + 1)
    assert serialization._read_written(path.read_bytes()) is not None
    mutated = MUTATIONS[mutation](path.read_bytes())
    assert serialization._read_written(mutated) is None
    path.write_bytes(mutated)
    assert _outcome(load_instance, path) == _outcome(_json_path, path)
