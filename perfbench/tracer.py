"""Span tracing for the benchmark's traced run.

:class:`Tracer` wraps every public function of the inclab layer modules,
and ``Flat.__init__``, from outside the package: each module's own binding
of a function (its definition or its ``from .x import f`` name) is replaced
by one shared wrapper, so calls are seen under the name the calling module
uses.  ``src/`` is never edited; ``uninstall`` puts every original back.

A span is (name, parent span, start, end, command).  Spans are kept in
compact arrays in memory and written out once, at the end of the run.
Counters that need a call's arguments or result (pairs counted, bytes
saved, unverified searches, ...) are taken by small hooks at the same
boundaries, per iteration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialization", "constructions", "experiments", "incidence",
          "geometry", "linalg", "exponents")

# metric prefix -> the span names it aggregates
GROUPS = {
    "incidence.count_naive": ("incidence.count_naive",),
    "incidence.count_hashed": ("incidence.count_hashed",),
    "incidence.masks": ("incidence.incidence_masks",),
    "incidence.find_kst": ("incidence.find_kst",),
    "geometry.flat_init": ("geometry.Flat.__init__",),
    "geometry.generic_extension": ("geometry.generic_extension",),
    "geometry.collinear": ("geometry.find_collinear_triple",),
    "linalg.row_echelon": ("linalg.row_echelon",),
    "linalg.solve_square": ("linalg.solve_square",),
    "exponents.term_from_chain": ("exponents.term_from_chain",),
    "exponents.term_from_system": ("exponents.term_from_system",),
    "constructions.build": ("constructions.build_grid_construction",
                            "constructions.build_sphere_construction"),
    "constructions.select_normals": ("constructions.select_admissible_normals",),
    "constructions.coverage": ("constructions.measure_max_coverage",),
    "constructions.embed": ("constructions.embed_configuration",),
    "constructions.verify": ("constructions.verify_construction",),
    "serialization.save": ("serialization.save_construction",
                           "serialization.save_instance"),
    "serialization.load": ("serialization.load_document",
                           "serialization.load_instance",
                           "serialization.load_construction",
                           "serialization.dict_to_instance",
                           "serialization.dict_to_construction"),
    "experiments.run_sweep": ("experiments.run_sweep",),
    "experiments.fit": ("experiments.fit_power_law",),
    "cli.main": ("cli.main",),
}


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _count_name(args, kwargs) -> str:
    naive = _arg(args, kwargs, 1, "strategy", "auto") == "naive"
    return "incidence.count_naive" if naive else "incidence.count_hashed"


def _count_hook(c, name, args, kwargs, result, exc):
    inst = _arg(args, kwargs, 0, "inst")
    c[name + ".pairs"] += len(inst.points) * len(inst.flats)
    c["incidence.flats"] += len(inst.flats)
    c["incidence.others_flats"] += sum(
        1 for f in inst.flats if f.dim != f.ambient_dim - 1)
    c["incidence.points"] += len(inst.points)
    c["incidence.rational_points"] += sum(
        1 for p in inst.points if p.int_coords() is None)


def _find_kst_hook(c, name, args, kwargs, result, exc):
    if type(exc).__name__ == "ResourceLimit":
        c["incidence.find_kst.unverified"] += 1


def _collinear_hook(c, name, args, kwargs, result, exc):
    n = len(_arg(args, kwargs, 0, "points"))
    c["geometry.collinear.pairs"] += n * (n - 1) // 2


def _chains_hook(c, name, args, kwargs, result, exc):
    if result is not None:
        c["exponents.chains"] += len(result)


def _build_hook(c, name, args, kwargs, result, exc):
    if result is not None:
        c["constructions.flats"] += len(result.flats)
        c["constructions.padding_flats"] += len(result.flats) - result.padding_start


def _select_hook(c, name, args, kwargs, result, exc):
    if result is not None:
        c["constructions.normals_selected"] += len(result.vectors)
        c["constructions.normals_requested"] += result.requested


def _coverage_hook(c, name, args, kwargs, result, exc):
    if result is not None:
        c["constructions.coverage.runs"] += 1
        c["constructions.coverage.verified"] += int(result[1])


def _save_hook(c, name, args, kwargs, result, exc):
    if result is not None:
        c["serialization.save.bytes"] += Path(result).stat().st_size


def _sweep_hook(c, name, args, kwargs, result, exc):
    if result is not None:
        c["experiments.rungs"] += len(result["rungs"])
        c["experiments.rungs_failed"] += sum(1 for r in result["rungs"] if r["failed"])


HOOKS = {
    "incidence.count_incidences": _count_hook,
    "incidence.find_kst": _find_kst_hook,
    "geometry.find_collinear_triple": _collinear_hook,
    "exponents.enumerate_chains": _chains_hook,
    "constructions.build_grid_construction": _build_hook,
    "constructions.build_sphere_construction": _build_hook,
    "constructions.select_admissible_normals": _select_hook,
    "constructions.measure_max_coverage": _coverage_hook,
    "serialization.save_instance": _save_hook,
    "experiments.run_sweep": _sweep_hook,
}
NAMERS = {"incidence.count_incidences": _count_name}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.commands: list[tuple[int, str]] = []  # command id -> (iteration, label)
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack = [-1]
        self._iteration = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_command(self, iteration: int, label: str) -> None:
        self._iteration = iteration
        self.commands.append((iteration, label))

    def _wrap(self, fn, name: str):
        fixed_id = self._name_id(name)
        namer, hook = NAMERS.get(name), HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            index = len(tracer.start)
            tracer.name.append(tracer._name_id(span_name) if namer else fixed_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.cmd.append(len(tracer.commands) - 1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[index] = t0
                tracer.end[index] = t1
                if hook is not None:
                    hook(tracer.counters[tracer._iteration], span_name, args,
                         kwargs, result, exc)

        return traced

    def install(self) -> None:
        """Replace every public layer function, in every module that binds
        it, and ``Flat.__init__`` with recording wrappers."""
        modules = {layer: importlib.import_module(f"inclab.{layer}")
                   for layer in LAYERS}
        wrappers: dict[object, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"inclab.{home}" or home not in modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._patch(module, attr, wrappers[obj])
        flat = modules["geometry"].Flat
        self._patch(flat, "__init__",
                    self._wrap(flat.__init__, "geometry.Flat.__init__"))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        cmd = np.frombuffer(self.cmd, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name, parent, cmd, dur

    def iteration_metrics(self) -> dict[int, dict[str, float]]:
        """Per traced iteration, every per-layer metric this module defines."""
        name, parent, cmd, dur = self._arrays()
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        # spans with a Flat.__init__ anywhere above them
        is_flat = np.isin(name, self._ids_of(["geometry.Flat.__init__"]))
        under_flat = np.zeros(len(name), dtype=bool)
        ancestor = parent.copy()
        while (ancestor >= 0).any():
            live = ancestor >= 0
            under_flat[live] |= is_flat[ancestor[live]]
            ancestor[live] = parent[ancestor[live]]
        cmd_iteration = np.array([it for it, _ in self.commands], dtype=np.int64)
        span_iteration = cmd_iteration[cmd]
        out = {}
        for it in sorted(set(cmd_iteration.tolist())):
            mask = span_iteration == it
            out[it] = self._metrics(name[mask], parent_name[mask], dur[mask],
                                    self_time[mask], under_flat[mask],
                                    self.counters[it])
        return out

    def _ids_of(self, names) -> np.ndarray:
        return np.array([self._ids[n] for n in names if n in self._ids],
                        dtype=np.int64)

    def _metrics(self, name, parent_name, dur, self_time, under_flat, c) -> dict[str, float]:
        m: dict[str, float] = {}

        def group(prefix: str, names) -> None:
            ids = self._ids_of(names)
            inside = np.isin(name, ids)
            top = inside & ~np.isin(parent_name, ids)
            m[prefix + ".calls"] = int(top.sum())
            m[prefix + ".busy_s"] = float(dur[top].sum())
            m[prefix + ".self_s"] = float(self_time[inside].sum())

        for prefix, names in GROUPS.items():
            group(prefix, names)
        for layer in LAYERS:
            group(layer, [n for n in self.names if n.split(".", 1)[0] == layer])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for kind in ("count_naive", "count_hashed"):
            key = f"incidence.{kind}"
            m[key + ".pairs_per_s"] = ratio(c[key + ".pairs"], m[key + ".busy_s"])
        m["incidence.find_kst.unverified"] = c["incidence.find_kst.unverified"]
        m["incidence.others_flat_share"] = ratio(c["incidence.others_flats"],
                                                 c["incidence.flats"])
        m["incidence.rational_point_share"] = ratio(c["incidence.rational_points"],
                                                    c["incidence.points"])
        m["geometry.collinear.pairs"] = c["geometry.collinear.pairs"]
        rref = np.isin(name, self._ids_of(["linalg.row_echelon"]))
        m["linalg.rref_per_flat"] = ratio(int((rref & under_flat).sum()),
                                          m["geometry.flat_init.calls"])
        m["exponents.chains"] = c["exponents.chains"]
        m["exponents.cross_check_ok_ratio"] = ratio(c["exponents.cross_checks_ok"],
                                                    c["exponents.cross_checks"])
        m["constructions.normals_accept_ratio"] = ratio(
            c["constructions.normals_selected"], c["constructions.normals_requested"])
        m["constructions.coverage.verified_ratio"] = ratio(
            c["constructions.coverage.verified"], c["constructions.coverage.runs"])
        m["constructions.padding_share"] = ratio(c["constructions.padding_flats"],
                                                 c["constructions.flats"])
        m["serialization.save.mb"] = c["serialization.save.bytes"] / 2**20
        m["experiments.rungs"] = c["experiments.rungs"]
        m["experiments.rungs_failed"] = c["experiments.rungs_failed"]
        m["trace.spans"] = len(name)
        return m

    def write(self, path: Path, workload: str) -> None:
        """Write every span, with the name and command tables, to one .npz
        file; spans are rows of the ``name``/``parent``/``start``/``end``/
        ``cmd`` arrays, and ``meta`` holds the tables as JSON."""
        name, parent, cmd, _ = self._arrays()
        meta = {"workload": workload, "names": self.names,
                "commands": self.commands}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=name, parent=parent, cmd=cmd,
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 meta=np.array(json.dumps(meta)))
