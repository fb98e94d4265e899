"""Reading and writing ``.inc.json`` instance files.

Schema (version 1): rationals are ``[numerator, denominator]`` pairs,
points are arrays of rationals, flats are ``{"A": rows, "b": vector}``
with ``A`` row-major.  Generated instances carry a ``construction`` block
with the verified bookkeeping so they can be re-checked and embedded.

The file text is ``json.dumps(doc, sort_keys=True, indent=1)`` plus a
newline.  :func:`save_instance` writes it directly: ``json.dumps`` renders
the small members, and the points and flats are streamed ``_CHUNK`` at a
time, each chunk one ``%d`` template, repeated from one item template per
point shape or row count and filled off the points' and the
:class:`FlatFamily`'s rows; where every denominator is 1 the template
holds them as the literal ``1``.  The text goes to a new file beside the
target, which replaces the target only once it is whole.

The loader decodes the points and the flats as integer arrays, level by
level (:func:`_int_leaves`), with no ``RatPoint``, ``Fraction`` or
``Flat`` built: each point and each equation over the lcm of its
denominators (:func:`~inclab.geometry._over_lcm`), each point in the one
primitive form (:func:`~inclab.geometry._primitive_rows`).  The flats of
a file of any other shape, or an irregular pair, are decoded pair by
pair, which raises the file's errors.  Either way the flats load as one
:class:`FlatFamily`, whose dimensions :func:`~inclab.geometry._row_family`
reads.  The reference path, ``canonical_json(instance_to_dict(...))``,
builds the document and lets ``json`` render all of it; it shares no code
with the writer, and the tests require the two texts to be equal.
"""

from __future__ import annotations

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
    specs = _list(_field(doc, "flats", "instance"), "flats")
    flats = _family(dim, specs)
    if flats is None:
        systems = []
        for j, spec in enumerate(specs):
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
    path decodes and splits them, with its errors."""
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
    """
    if not specs or set(map(type, specs)) != {dict}:
        return None
    coefficients, constants = ([spec.get(key) for spec in specs] for key in ("A", "b"))
    r = len(coefficients[0]) if type(coefficients[0]) is list else 0
    a = _int_leaves(coefficients, (len(specs), r, dim, 2))
    b = _int_leaves(constants, (len(specs), r, 2))
    if not r or a is None or b is None:
        return None
    pairs = np.concatenate((a, b[:, :, None]), axis=2)
    if not pairs[..., 1].all():
        return None
    rows, q = _over_lcm(pairs)
    return _row_family(dim, rows.reshape(-1, dim + 1), q.reshape(-1), [r] * len(specs))


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


def _point_chunks(points: PointRows, dim: int):
    """The points' item texts, ``_CHUNK`` points to a text, read off their
    rows: coordinate k of a point is ``P[k] / q``, written over ``g =
    gcd(P[k], q)`` in lowest terms.  When every q is 1 the template holds
    the denominators as the literal 1, and only the rows fill it."""
    item = _array(_rational_items(dim, 3, "1" if points.integral else "%d"), 3)
    for lo in range(0, len(points), _CHUNK):
        rows, q = points.matrix[lo : lo + _CHUNK], points.q[lo : lo + _CHUNK, None]
        if points.integral:
            values = rows
        else:
            g = np.gcd(rows, q)  # positive, since q is
            values = np.empty((len(q), 2 * dim), dtype=rows.dtype)
            values[:, ::2], values[:, 1::2] = rows // g, q // g
        yield _ITEM_SEP.join([item] * len(q)) % tuple(values.ravel().tolist())


def _flat_chunks(family: FlatFamily, dim: int):
    """The flats' item texts, ``_CHUNK`` flats to a text, with one template
    per row count, filled off the rows, one run of flats of one row count
    at a time: each value ``rows[i, k] / den[i]`` is written over ``g =
    gcd(rows[i, k], den[i])`` in lowest terms, each flat's equations' pairs
    first and then its right-hand sides'.  When every ``den`` is 1, as for
    generated hyperplanes, the templates hold the denominators as the
    literal 1, and only the entries fill them, with no gcd taken."""
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
        items, parts = [], []
        for a, b, first, end in zip(bounds, bounds[1:], at, at[1:]):  # flats a..b - 1: r rows
            r = int(counts[a])
            if r not in templates:
                templates[r] = _flat_template(dim, r, "1" if integral else "%d")
            run = values[first:end].reshape(b - a, r, values.shape[1])
            parts.append(np.concatenate((run[:, :, :split].reshape(b - a, r * split),
                                         run[:, :, split:].reshape(b - a, -1)), axis=1).ravel())
            items += [templates[r]] * (b - a)
        yield _ITEM_SEP.join(items) % tuple(np.concatenate(parts).tolist())


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


def load_document(path: str | Path) -> dict:
    """The JSON document in ``path``; :class:`InvalidInput` when it cannot
    be read or parsed.  Its consumers check its shape."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None


def load_instance(path: str | Path) -> IncidenceInstance:
    return dict_to_instance(load_document(path))


def load_construction(path: str | Path) -> ConstructionOutput:
    return dict_to_construction(load_document(path))
