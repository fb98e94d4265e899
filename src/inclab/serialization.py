"""Reading and writing ``.inc.json`` instance files.

Schema (version 1): rationals are ``[numerator, denominator]`` pairs,
points are arrays of rationals, flats are ``{"A": rows, "b": vector}``
with ``A`` row-major.  Generated instances carry a ``construction`` block
with the verified bookkeeping so they can be re-checked and embedded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .constructions import ConstructionOutput
from .errors import InvalidInput
from .geometry import Flat, IntVector, RatPoint
from .incidence import IncidenceInstance

SCHEMA_VERSION = 1
FILE_SUFFIX = ".inc.json"


def _enc(x: Fraction) -> list[int]:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def _dec(pair: Any) -> Fraction:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise InvalidInput(f"expected [numerator, denominator], got {pair!r}")
    num, den = _int(pair[0], "numerator"), _int(pair[1], "denominator")
    if den == 0:
        raise InvalidInput(f"zero denominator in rational {pair!r}")
    return Fraction(num, den)


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    return value


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidInput(f"{what} must be a list, got {value!r}")
    return value


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
    if doc.get("schema") != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema {doc.get('schema')!r}")
    dim = _int(_field(doc, "ambient_dim", "instance"), "ambient_dim")
    if dim < 1:
        raise InvalidInput(f"ambient_dim must be positive, got {dim}")
    points = []
    for i, row in enumerate(_list(_field(doc, "points", "instance"), "points")):
        if len(_list(row, f"point {i}")) != dim:
            raise InvalidInput(
                f"point {i} has {len(row)} coordinates in an ambient_dim {dim} file"
            )
        points.append(RatPoint([_dec(c) for c in row]))
    flats = []
    for j, spec in enumerate(_list(_field(doc, "flats", "instance"), "flats")):
        if not isinstance(spec, dict):
            raise InvalidInput(f"flat {j} must be an object with 'A' and 'b'")
        rows = _list(_field(spec, "A", f"flat {j}"), f"flat {j} 'A'")
        rhs = _list(_field(spec, "b", f"flat {j}"), f"flat {j} 'b'")
        flats.append(
            Flat(
                dim,
                [[_dec(a) for a in _list(row, f"flat {j} row")] for row in rows],
                [_dec(c) for c in rhs],
            )
        )
    s = _int(doc.get("s", 2), "s")
    t = _int(doc.get("t", 1), "t")
    return IncidenceInstance(points, flats, s, t)


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
    inner = block.get("inner_ambient_dim")
    return ConstructionOutput(
        variant=variant,
        ambient_dim=inst.ambient_dim,
        points=inst.points,
        flats=inst.flats,
        normals_used=tuple(
            IntVector([_int(c, "normal coordinate") for c in _list(v, "normal")])
            for v in _list(field("normals_used"), "normals_used")
        ),
        t_measured=_int(field("t_measured"), "t_measured"),
        t_verified=bool(field("t_verified")),
        predicted_incidences=_int(field("predicted_incidences"), "predicted_incidences"),
        padding_start=_count_up_to(
            field("padding_start"), "padding_start", len(inst.flats)
        ),
        core_point_count=_count_up_to(
            field("core_point_count"), "core_point_count", len(inst.points)
        ),
        seed=_int(field("seed"), "seed"),
        inner_ambient_dim=None if inner is None else _int(inner, "inner_ambient_dim"),
        notes=tuple(notes),
    )


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def save_instance(
    path: str | Path,
    inst: IncidenceInstance,
    construction: ConstructionOutput | None = None,
) -> Path:
    path = Path(path)
    try:
        path.write_text(canonical_json(instance_to_dict(inst, construction)))
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
