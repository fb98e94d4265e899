"""Reading and writing ``.inc.json`` instance files.

Schema (version 1): rationals are ``[numerator, denominator]`` pairs,
points are arrays of rationals, flats are ``{"A": rows, "b": vector}``
with ``A`` row-major.  Generated instances carry a ``construction`` block
with the verified bookkeeping so they can be re-checked and embedded.

The file text is ``json.dumps(doc, sort_keys=True, indent=1)`` plus a
newline.  :func:`save_instance` writes it directly: ``json.dumps`` renders
the small members, and the points and flats are streamed ``_CHUNK`` at a
time, from one item template per point shape or row count and the
values read off the points' and the :class:`FlatFamily`'s rows; where
every denominator is 1 the template holds them as the literal ``1``.
A chunk is the template's literal pieces joined with its fields' texts,
most of them read from value tables, or one ``%`` fill of the repeated
template when most fields have no table (:func:`_render`).  The text
goes to a new file beside the target, which replaces the target only
once it is whole.

A file laid out exactly as the writer lays it out is read straight from
its bytes (:func:`_read_written`): the points and flats arrays are cut
out of the text and checked against the writer's own item templates,
their entries decoded by numpy a window at a time, and the small members
parsed by ``json`` and accepted only as their own canonical text.  Any
other text (hand-written or re-indented, CRLF, an empty array, flats of
mixed row counts, an entry past 18 digits, a zero denominator) falls back
to ``json.loads``, the loader's reference path, which raises the
file's errors.

Either way the points and the flats become integer pair arrays (the
JSON path decodes them level by level, :func:`_int_leaves`), with no
``RatPoint``, ``Fraction`` or ``Flat`` built: each point and each
equation over the lcm of its denominators
(:func:`~inclab.geometry._over_lcm`), each point in the one primitive
form (:func:`~inclab.geometry._primitive_rows`).  The flats of a file of
any other shape, or an irregular pair, are decoded pair by pair, which
raises the file's errors.  The flats load as one :class:`FlatFamily`,
whose dimensions :func:`~inclab.geometry._row_family` reads.

The writer's reference path, ``canonical_json(instance_to_dict(...))``,
builds the document and lets ``json`` render all of it; it shares no
code with the writer, and the tests require the two texts to be equal.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import suppress
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, TextIO

import numpy as np

from .constructions import ConstructionOutput
from .errors import InvalidInput
from .geometry import (
    FlatFamily,
    IntVector,
    PointRows,
    _exact_family,
    _int,
    _int_arrays,
    _over_lcm,
    _primitive_rows,
    _row_family,
    _split_coords,
)
from .incidence import IncidenceInstance

SCHEMA_VERSION = 1
FILE_SUFFIX = ".inc.json"
_CHUNK = 4096  # points or flats rendered and written at a time
_ITEM_SEP = ",\n  "  # between the items of the points and flats arrays


def _enc(x: int | Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _pair(pair: Any) -> tuple[int, int]:
    """The integers of a ``[numerator, denominator]`` pair, the denominator
    nonzero."""
    if type(pair) is list and len(pair) == 2:
        num, den = pair
        if type(num) is type(den) is int and den:
            return num, den  # what the checks below accept, at a glance
    if not (isinstance(pair, list) and len(pair) == 2):
        raise InvalidInput(f"expected [numerator, denominator], got {pair!r}")
    num, den = _int(pair[0], "numerator"), _int(pair[1], "denominator")
    if den == 0:
        raise InvalidInput(f"zero denominator in rational {pair!r}")
    return num, den


def _dec(pair: Any) -> int | Fraction:
    num, den = _pair(pair)
    return num if den == 1 else Fraction(num, den)


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidInput(f"{what} must be a list, got {value!r}")
    return value


def _nonnegative(value: Any, what: str) -> int:
    count = _int(value, what)
    if count < 0:
        raise InvalidInput(f"{what} must be nonnegative, got {count}")
    return count


def _count_up_to(value: Any, what: str, high: int) -> int:
    count = _int(value, what)
    if not 0 <= count <= high:
        raise InvalidInput(f"{what} must lie in [0, {high}], got {count}")
    return count


def _require_object(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise InvalidInput(f"an instance file holds a JSON object, got {type(doc).__name__}")


def _field(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise InvalidInput(f"{where} has no {key!r} field")
    return doc[key]


def instance_to_dict(
    inst: IncidenceInstance, construction: ConstructionOutput | None = None
) -> dict:
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "kind": "incidence-instance",
        "ambient_dim": inst.ambient_dim,
        "s": inst.s,
        "t": inst.t,
        "points": [[_enc(c) for c in p.coords] for p in inst.points],
        "flats": [
            {
                "A": [[_enc(a) for a in row] for row in f.equations],
                "b": [_enc(c) for c in f.rhs],
            }
            for f in inst.flats
        ],
    }
    if construction is not None:
        doc["construction"] = {
            "variant": construction.variant,
            "normals_used": [list(v.coords) for v in construction.normals_used],
            "t_measured": construction.t_measured,
            "t_verified": construction.t_verified,
            "predicted_incidences": construction.predicted_incidences,
            "padding_start": construction.padding_start,
            "core_point_count": construction.core_point_count,
            "seed": construction.seed,
            "inner_ambient_dim": construction.inner_ambient_dim,
            "notes": list(construction.notes),
        }
    return doc


def dict_to_instance(doc: dict) -> IncidenceInstance:
    _require_object(doc)
    schema = _int(_field(doc, "schema", "instance"), "schema")
    if schema != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema {schema}")
    kind = _field(doc, "kind", "instance")
    if kind != "incidence-instance":
        raise InvalidInput(f"kind must be 'incidence-instance', got {kind!r}")
    dim = _int(_field(doc, "ambient_dim", "instance"), "ambient_dim")
    if dim < 1:
        raise InvalidInput(f"ambient_dim must be positive, got {dim}")
    items = _field(doc, "points", "instance")
    points = _point_rows(dim, items)
    if points is None:
        coords = []
        for i, row in enumerate(_list(items, "points")):
            if len(_list(row, f"point {i}")) != dim:
                raise InvalidInput(
                    f"point {i} has {len(row)} coordinates in an ambient_dim {dim} file"
                )
            coords.append([_dec(c) for c in row])
        points = _split_coords(coords, dim)
    specs = _field(doc, "flats", "instance")
    flats = _family(dim, specs)
    if flats is None:
        systems = []
        for j, spec in enumerate(_list(specs, "flats")):
            if not isinstance(spec, dict):
                raise InvalidInput(f"flat {j} must be an object with 'A' and 'b'")
            rows = _list(_field(spec, "A", f"flat {j}"), f"flat {j} 'A'")
            rhs = _list(_field(spec, "b", f"flat {j}"), f"flat {j} 'b'")
            systems.append(([[_dec(a) for a in _list(row, f"flat {j} row")] for row in rows],
                            [_dec(c) for c in rhs]))
        for rows, rhs in systems:  # the shape checks of Flat(...)
            if len(rows) != len(rhs):
                raise InvalidInput("equation count does not match right-hand side")
            if any(len(row) != dim for row in rows):
                raise InvalidInput("equation width does not match ambient dimension")
        flats = _exact_family(dim, systems)
    s = _int(doc.get("s", 2), "s")
    t = _int(doc.get("t", 1), "t")
    return IncidenceInstance(points, flats, s, t)


def _point_rows(dim: int, items: Any) -> PointRows | None:
    """The points ``items`` as rows when every one decodes as an array
    (:func:`_int_leaves`) of ``dim`` integer pairs with nonzero
    denominators: each over the lcm of its denominators (:func:`_over_lcm`)
    in the one primitive form (:func:`_primitive_rows`), as
    :func:`_split_coords` splits them.  Otherwise ``None``, and the per-pair
    path decodes and splits them, with its errors.  ``items`` may be the
    (n, dim, 2) pairs :func:`_read_written` decoded."""
    if type(items) is np.ndarray:
        pairs = items if items.ndim == 3 and items.shape[1:] == (dim, 2) else None
    else:
        pairs = _int_leaves(items, (len(items) if type(items) is list else 0, dim, 2))
    if pairs is None or not pairs[..., 1].all():
        return None
    return _primitive_rows(dim, *_over_lcm(pairs))


def _family(dim: int, specs: list) -> FlatFamily | None:
    """The flats ``specs`` as one family when there are some, each a system
    of the same number r >= 1 of equations of ``dim`` entries, decoded as
    arrays (:func:`_int_leaves`), with no ``Fraction`` built: each equation
    an integer row [a | c] over the lcm of its denominators
    (:func:`_over_lcm`).  Any other file, or an irregular pair, such as a
    zero denominator or a leaf that is not an integer, gives ``None``: the
    pair-by-pair path then decodes the file and raises its errors.
    ``specs`` may be the (n, r, dim + 1, 2) pairs :func:`_read_written`
    decoded.
    """
    if type(specs) is np.ndarray:
        pairs = specs if specs.ndim == 4 and specs.shape[2:] == (dim + 1, 2) else None
    elif type(specs) is list and specs and set(map(type, specs)) == {dict}:
        coefficients, constants = ([spec.get(key) for spec in specs] for key in ("A", "b"))
        r = len(coefficients[0]) if type(coefficients[0]) is list else 0
        a = _int_leaves(coefficients, (len(specs), r, dim, 2))
        b = _int_leaves(constants, (len(specs), r, 2))
        pairs = None if a is None or b is None else np.concatenate((a, b[:, :, None]), axis=2)
    else:
        return None
    if pairs is None or not pairs.size or not pairs[..., 1].all():
        return None
    rows, q = _over_lcm(pairs)
    n, r = pairs.shape[:2]
    return _row_family(dim, rows.reshape(-1, dim + 1), q.reshape(-1), [r] * n)


def _int_leaves(items: Any, shape: tuple[int, ...]) -> np.ndarray | None:
    """The integers of the nested lists ``items`` as one array of
    ``shape``, decoded level by level: each level a list of lists of the
    length ``shape`` gives, and every leaf exactly an ``int`` (so no
    ``bool``, float or string); ``None`` otherwise.  The array is int64
    when every entry is within 2^62, and Python ints otherwise
    (:func:`_int_arrays`): its dtype is never left to numpy's inference,
    which reads 2^63 beside small ints as float64."""
    level = [items]
    for length in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {length}:
            return None
        level = list(chain.from_iterable(level))
    if set(map(type, level)) != {int}:
        return None
    try:
        leaves = np.array(level, dtype=np.int64)
    except OverflowError:  # past int64
        leaves = np.array(level, dtype=object)
    (leaves,), _ = _int_arrays(leaves.reshape(shape))
    return leaves


def dict_to_construction(doc: dict) -> ConstructionOutput:
    _require_object(doc)
    block = doc.get("construction")
    if block is None:
        raise InvalidInput("file has no construction block")
    if not isinstance(block, dict):
        raise InvalidInput("the construction block must be an object")
    inst = dict_to_instance(doc)

    def field(key: str) -> Any:
        return _field(block, key, "construction block")

    variant = field("variant")
    if variant not in ("a", "b", "embed"):
        raise InvalidInput(f"unknown construction variant {variant!r}")
    notes = _list(block.get("notes", []), "notes")
    if not all(isinstance(note, str) for note in notes):
        raise InvalidInput("construction notes must be strings")
    t_verified = field("t_verified")
    if not isinstance(t_verified, bool):
        raise InvalidInput(f"t_verified must be true or false, got {t_verified!r}")
    inner = block.get("inner_ambient_dim")
    if inner is not None and not 2 <= _int(inner, "inner_ambient_dim") < inst.ambient_dim:
        raise InvalidInput(
            f"inner_ambient_dim must be null or lie in [2, {inst.ambient_dim - 1}],"
            f" got {inner}"
        )
    normals = tuple(
        IntVector([_int(c, "normal coordinate") for c in _list(v, "normal")])
        for v in _list(field("normals_used"), "normals_used")
    )
    for v in normals:
        if v.is_zero():
            raise InvalidInput(f"normals_used holds the zero vector {list(v.coords)}")
    return ConstructionOutput(
        variant=variant,
        ambient_dim=inst.ambient_dim,
        points=inst.points,
        flats=inst.flats,
        normals_used=normals,
        t_measured=_nonnegative(field("t_measured"), "t_measured"),
        t_verified=t_verified,
        predicted_incidences=_nonnegative(
            field("predicted_incidences"), "predicted_incidences"),
        padding_start=_count_up_to(
            field("padding_start"), "padding_start", len(inst.flats)
        ),
        core_point_count=_count_up_to(
            field("core_point_count"), "core_point_count", len(inst.points)
        ),
        seed=_int(field("seed"), "seed"),
        inner_ambient_dim=inner,
        notes=tuple(notes),
    )


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _array(items: list[str], indent: int) -> str:
    """The JSON array of the item texts ``items``, each at ``indent``
    spaces and the closing ``]`` one space less."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


def _rational_items(count: int, indent: int, den: str = "%d") -> list[str]:
    """``count`` ``[numerator, denominator]`` items at ``indent`` spaces,
    each a template of a ``%d`` numerator over ``den``: ``%d`` too, or a
    literal such as ``1``."""
    pad, end = "\n" + " " * (indent + 1), "\n" + " " * indent
    return [f"[{pad}%d,{pad}{den}{end}]"] * count


def _flat_template(dim: int, rows: int, den: str = "%d") -> str:
    """The ``%d`` template of a flat of ``rows`` equations in R^dim: each
    row's pairs, then the right-hand side's, over ``den``."""
    a = [_array(_rational_items(dim, 5, den), 5)] * rows
    b = _array(_rational_items(rows, 4, den), 4)
    return '{\n   "A": ' + _array(a, 4) + ',\n   "b": ' + b + "\n  }"


def _render(template: str, values: np.ndarray) -> str:
    """The items of ``template``, one per row of the (n, F) integer array
    ``values``, joined by ``_ITEM_SEP``.  When at least half the columns
    read their texts from a table (:func:`_tables`), the template's
    literal pieces around its F ``%d`` fields are joined with the fields'
    decimal texts, so no literal byte is scanned again, and the other
    columns are rendered in one ``%d`` pass; otherwise, since most fields
    are converted anyway, the items' template is filled in one ``%``
    pass."""
    n, fields = values.shape
    tables = _tables(values)
    if tables is None:
        return _ITEM_SEP.join([template] * n) % tuple(values.ravel().tolist())
    pieces = template.split("%d")
    out = np.empty((n, 2 * fields + 1), dtype=object)
    out[:, ::2] = np.array(pieces, dtype=object)
    out[1:, 0] = _ITEM_SEP + pieces[0]
    for k, (low, table) in tables.items():
        out[:, 2 * k + 1] = table[(values[:, k] - low).astype(np.intp)]
    wide = [k for k in range(fields) if k not in tables]
    if wide:
        numbers = values[:, wide].ravel().tolist()
        texts = ("%d " * len(numbers) % tuple(numbers)).split()
        out[:, [2 * k + 1 for k in wide]] = np.array(texts, dtype=object).reshape(n, len(wide))
    return "".join(out.ravel().tolist())


def _tables(values: np.ndarray) -> dict[int, tuple[int, np.ndarray]] | None:
    """For each column of the (n, F) integer array ``values`` whose values
    span fewer than n values, its least value and the texts of its range,
    ascending, rendered once; ``None`` when fewer than half the columns
    do.  The first 64 rows rule out most columns that do not, before any
    column is read whole."""
    n, fields = values.shape
    head = values[:64]
    # an int64 difference past 2^63 wraps negative: it rules no column out
    if 2 * int(np.count_nonzero(head.max(axis=0) - head.min(axis=0) < n - 1)) < fields:
        return None
    lows, highs = values.min(axis=0).tolist(), values.max(axis=0).tolist()
    tables = {k: (low, np.array([str(x) for x in range(low, high + 1)], dtype=object))
              for k, (low, high) in enumerate(zip(lows, highs)) if high - low + 1 < n}
    return tables if 2 * len(tables) >= fields else None


def _point_chunks(points: PointRows, dim: int):
    """The points' item texts, ``_CHUNK`` points to a text, read off their
    rows (:func:`_render`): coordinate k of a point is ``P[k] / q``,
    written over ``g = gcd(P[k], q)`` in lowest terms.  When every q is 1
    the template holds the denominators as the literal 1, and only the
    rows fill it."""
    item = _array(_rational_items(dim, 3, "1" if points.integral else "%d"), 3)
    for lo in range(0, len(points), _CHUNK):
        rows, q = points.matrix[lo : lo + _CHUNK], points.q[lo : lo + _CHUNK, None]
        if points.integral:
            values = rows
        else:
            g = np.gcd(rows, q)  # positive, since q is
            values = np.empty((len(q), 2 * dim), dtype=rows.dtype)
            values[:, ::2], values[:, 1::2] = rows // g, q // g
        yield _render(item, values)


def _flat_chunks(family: FlatFamily, dim: int):
    """The flats' item texts, ``_CHUNK`` flats to a text, with one template
    per row count, filled off the rows (:func:`_render`), one run of flats
    of one row count at a time: each value ``rows[i, k] / den[i]`` is
    written over ``g = gcd(rows[i, k], den[i])`` in lowest terms, each
    flat's equations' pairs first and then its right-hand sides'.  When
    every ``den`` is 1, as for generated hyperplanes, the templates hold
    the denominators as the literal 1, and only the entries fill them,
    with no gcd taken."""
    integral = bool((family.den == 1).all())
    templates: dict[int, str] = {}  # by row count, each made when first met
    split = dim if integral else 2 * dim  # the fields of a row's coefficients
    for lo in range(0, len(family), _CHUNK):
        starts = family.starts[lo : lo + _CHUNK + 1]
        rows = family.rows[starts[0] : starts[-1]]
        if integral:
            values = rows
        else:
            den = family.den[starts[0] : starts[-1], None]
            g = np.gcd(rows, den)  # positive, since den is
            values = np.stack((rows // g, den // g), axis=-1).reshape(len(rows), 2 * (dim + 1))
        counts = np.diff(starts)
        bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
        at = (starts[bounds] - starts[0]).tolist()  # each run's first row, and the end
        texts = []
        for a, b, first, end in zip(bounds, bounds[1:], at, at[1:]):  # flats a..b - 1: r rows
            r = int(counts[a])
            if r not in templates:
                templates[r] = _flat_template(dim, r, "1" if integral else "%d")
            run = values[first:end].reshape(b - a, r, values.shape[1])
            texts.append(_render(templates[r], np.concatenate(
                (run[:, :, :split].reshape(b - a, r * split), run[:, :, split:].reshape(b - a, -1)),
                axis=1)))
        yield _ITEM_SEP.join(texts)


def _write_array(out: TextIO, chunks: Iterable[str], indent: int) -> None:
    """Write the JSON array whose item texts the ``chunks`` hold, as
    :func:`_array` lays it out."""
    pad = "\n" + " " * indent
    empty = True
    for chunk in chunks:
        out.write(("[" if empty else ",") + pad + chunk)
        empty = False
    out.write("[]" if empty else pad[:-1] + "]")


def _write_instance(
    out: TextIO, inst: IncidenceInstance, construction: ConstructionOutput | None
) -> None:
    """Write the ``.inc.json`` text of ``inst`` and its construction block."""
    small: dict = {
        "schema": SCHEMA_VERSION,
        "kind": "incidence-instance",
        "ambient_dim": inst.ambient_dim,
        "s": inst.s,
        "t": inst.t,
    }
    if construction is not None:
        small["construction"] = {
            "variant": construction.variant,
            "normals_used": [list(v.coords) for v in construction.normals_used],
            "t_measured": construction.t_measured,
            "t_verified": construction.t_verified,
            "predicted_incidences": construction.predicted_incidences,
            "padding_start": construction.padding_start,
            "core_point_count": construction.core_point_count,
            "seed": construction.seed,
            "inner_ambient_dim": construction.inner_ambient_dim,
            "notes": list(construction.notes),
        }
    # a JSON string holds no raw newline, so indenting a member's text one
    # level deeper is one replace
    members: dict = {
        key: json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
        for key, value in small.items()
    }
    members["points"] = _point_chunks(inst.points, inst.ambient_dim)
    members["flats"] = _flat_chunks(inst.flats, inst.ambient_dim)
    for n, key in enumerate(sorted(members)):
        out.write(("{\n " if n == 0 else ",\n ") + f'"{key}": ')
        if isinstance(members[key], str):
            out.write(members[key])
        else:
            _write_array(out, members[key], 2)
    out.write("\n}\n")


def save_instance(
    path: str | Path,
    inst: IncidenceInstance,
    construction: ConstructionOutput | None = None,
) -> Path:
    """Write ``inst`` (and its construction block) as ``.inc.json``; the
    text equals ``canonical_json(instance_to_dict(inst, construction))``.

    The text is streamed into a new file beside ``path``, which replaces
    ``path`` only once it is whole: a failed save leaves no partial file,
    and an existing file as it was.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        try:
            with partial.open("x", encoding="utf-8") as out:
                _write_instance(out, inst, construction)
            os.replace(partial, path)
        except BaseException:
            with suppress(OSError):
                partial.unlink()
            raise
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from None
    return path


def save_construction(
    path: str | Path, out: ConstructionOutput, s: int, t: int
) -> Path:
    inst = IncidenceInstance(out.points, out.flats, s, t)
    return save_instance(path, inst, out)


def _read_written(data: bytes) -> dict | None:
    """The document of the file text ``data`` when it is laid out exactly
    as :func:`save_instance` writes it, its points and flats as the int64
    pair arrays (n, d, 2) and (n, r, d + 1, 2) that :func:`_point_rows` and
    :func:`_family` take as they are; ``None`` for any other text.

    Both arrays are cut out of the text, and the rest, each replaced by
    ``[]``, must be its own canonical JSON (:func:`canonical_json`), which
    pins them to the top-level keys.  Each must be the writer's item
    template repeated (:func:`_template_values`), with every entry a JSON
    integer of at most 18 digits and every denominator nonzero.  An empty
    array, flats of mixed row counts, a longer entry, a zero denominator or
    any other layout is left to ``json``, whose path raises the file's
    errors."""
    flats_key, points_key, close = b'\n "flats": ', b'\n "points": ', b"\n ]"
    # the points come last but for a few small members, so each search
    # from the end reads little more than the points
    f0 = data.find(flats_key) + len(flats_key)
    p0 = data.rfind(points_key) + len(points_key)
    f1, p1 = data.rfind(close, f0, p0) + len(close), data.rfind(close, p0) + len(close)
    if (f0 < len(flats_key) or not f0 < f1 <= p0 < p1
            or data[f0 : f0 + 2] != b"[\n" or data[p0 : p0 + 2] != b"[\n"):
        return None
    try:
        rest = (data[:f0] + b"[]" + data[f1:p0] + b"[]" + data[p1:]).decode("ascii")
        doc = json.loads(rest)
    except ValueError:  # not ASCII, or not JSON
        return None
    if type(doc) is not dict or canonical_json(doc) != rest:
        return None
    dim, brace = doc.get("ambient_dim"), data.find(b"}", f0, f1)  # "}" closes the first flat
    # a point's 2 d integers and the bytes between them take 4 d bytes or more
    if type(dim) is not int or not 1 <= dim <= (p1 - p0) // 4 or brace < 0:
        return None
    # the equations of the first flat: its integers over the 2 (d + 1) of one
    first = np.frombuffer(data, np.uint8, brace - f0, f0)
    r = len(_edges(_number_bytes(first)[1])) // 2 // (2 * dim + 2)
    flats = _template_values(data, f0, f1, _flat_template(dim, r)) if r else None
    points = None if flats is None else _template_values(
        data, p0, p1, _array(_rational_items(dim, 3), 3))
    if points is None:
        return None
    n, split = len(flats), 2 * r * dim  # each flat's coefficient fields, then its constants'
    flats = np.concatenate((flats[:, :split].reshape(n, r, dim, 2),
                            flats[:, split:].reshape(n, r, 1, 2)), axis=2)
    points = points.reshape(len(points), dim, 2)
    if not (flats[..., 1].all() and points[..., 1].all()):
        return None
    doc["flats"], doc["points"] = flats, points
    return doc


_WINDOW = 1 << 16  # bytes of an array's text read at a time


def _number_bytes(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of the bytes ``text`` are ``-``, and which are ``-`` or a digit."""
    minus = text == ord("-")
    return minus, (text >= ord("0")) & (text <= ord("9")) | minus


def _edges(number: np.ndarray) -> np.ndarray:
    """The starts and ends, alternating, of the runs of true in ``number``."""
    return np.flatnonzero(np.diff(number, prepend=False, append=False))


def _template_values(data: bytes, lo: int, hi: int, template: str) -> np.ndarray | None:
    """The integers of ``data[lo:hi]`` as an (n, F) int64 array when that
    text is ``_array([template] * n, 2)`` with each of the template's F
    ``%d`` fields a JSON integer of at most 18 digits, below 10^18 < 2^62;
    ``None`` otherwise.  The bytes around the integers must be the
    template's other bytes, repeated, and each gap between two integers
    its gap in the template.

    The text is read in windows of at most ``_WINDOW`` bytes, each ending
    at a newline, so no integer spans two and no array holds more than a
    byte per byte of a window, or an entry per integer.  A window's values
    are summed one decimal place at a time for all its integers, from the
    highest place; an index before a short integer's first digit is masked
    off, and its least, above -18, wraps to a byte of the window, which
    holds an integer of as many digits."""
    pieces = template.split("%d")
    fields = len(pieces) - 1
    head, tail = _array(["%d"], 2).split("%d")
    unit = "".join(pieces) + _ITEM_SEP  # an item's other bytes, then the separator
    hi -= len(tail)
    if data[hi : hi + len(tail)] != tail.encode("ascii"):
        return None
    found: list[tuple[np.ndarray, ...]] = []  # each window's starts, ends and values
    at, other = lo, 0  # where the window starts, and the other bytes before it
    while at < hi:
        end = hi if hi - at <= _WINDOW else data.rfind(b"\n", at, at + _WINDOW) + 1
        if end <= at:
            return None
        text = np.frombuffer(data, np.uint8, end - at, at)
        minus, number = _number_bytes(text)
        edges = _edges(number)
        starts, ends = edges[::2], edges[1::2]
        negative = minus[starts]
        digits = ends - starts - negative
        if len(starts) and (
                digits.min() < 1 or digits.max() > 18
                or np.count_nonzero(minus) != np.count_nonzero(negative)
                or ((text[starts + negative] == ord("0")) & (digits > 1)).any()):
            return None
        literal = text[~number].tobytes()
        if literal != _periodic(head, unit, other, len(literal)).encode("ascii"):
            return None
        values = np.zeros(len(starts), dtype=np.int64)
        for place in range(int(digits.max(initial=0)), 0, -1):
            values *= 10
            values += (text[ends - place] - ord("0")) * (place <= digits)
        found.append((starts + (at - lo), ends + (at - lo), np.where(negative, -values, values)))
        at, other = end, other + len(literal)
    if not found:
        return None
    starts, ends, values = map(np.concatenate, zip(*found))
    n, extra = divmod(len(starts), fields)
    if extra or not n or other != len(head) + n * len(unit) - len(_ITEM_SEP):
        return None
    # the gaps of two items: the first's lead, F - 1 within, the gap
    # between the items, F - 1 within, the last's tail
    two = [len(piece) for piece in _array([template] * 2, 2).split("%d")]
    gaps = np.tile(two[1 : fields + 1], n)
    gaps[-1] = two[-1]
    after = np.append(starts[1:], hi + len(tail) - lo) - ends
    if starts[0] != two[0] or not np.array_equal(after, gaps):
        return None
    return values.reshape(n, fields)


def _periodic(head: str, unit: str, start: int, length: int) -> str:
    """Characters ``start`` to ``start + length`` of ``head`` followed by
    ``unit`` repeated without end."""
    if start < len(head):
        return (head + unit * (length // len(unit) + 1))[start : start + length]
    start = (start - len(head)) % len(unit)
    return (unit * ((start + length) // len(unit) + 1))[start : start + length]


def load_document(path: str | Path) -> dict:
    """The JSON document in ``path``; :class:`InvalidInput` when it cannot
    be read or parsed.  Its consumers check its shape.  A file as
    :func:`save_instance` writes it is read straight from its bytes
    (:func:`_read_written`), its points and flats as integer pair arrays;
    any other file is decoded as ``Path.read_text`` decodes it and parsed
    by ``json``, the reference path."""
    try:
        data = Path(path).read_bytes()
        doc = _read_written(data)
        if doc is None:
            doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="locale").read())
        return doc
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None


def load_instance(path: str | Path) -> IncidenceInstance:
    return dict_to_instance(load_document(path))


def load_construction(path: str | Path) -> ConstructionOutput:
    return dict_to_construction(load_document(path))
