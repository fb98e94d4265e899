"""Sweep runner: build construction families across sizes, measure
incidence growth, fit log-log slopes, and compare against the exponent
calculus.

The logarithms taken for fitting are the only floating-point computation
in the toolkit; incidence counts entering the fit are exact integers.
Reports are plain JSON with a ``schema`` field and embed the resolved
configuration; identical spec and seed give byte-identical reports modulo
the timestamp field.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .constructions import (
    ConstructionConfig,
    ConstructionOutput,
    build_grid_construction,
    build_sphere_construction,
    embed_configuration,
    predicted_lower_bound_exponents,
)
from .errors import (
    DegenerateRandomness,
    InvalidInput,
    ResourceLimit,
    SizeShortfall,
    SweepFailed,
)
from .geometry import _finite, _int
from .incidence import (
    IncidenceInstance,
    count_incidences,
    kst_bound_value,
    kst_verdict,
)
from . import serialization

SWEEP_KST_LIMIT = 10**8


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: a construction family and a ladder of (m, n) sizes.

    ``epsilon`` is the rendering slack subtracted from the predicted
    n-exponent when quoting the predicted slope; it never enters the
    exponent algebra.  ``t_cap`` of ``None`` uses the construction default.
    """

    construction: str
    d: int
    ladder: tuple[tuple[int, int], ...]
    s: int = 2
    t_cap: int | None = None
    d_outer: int | None = None
    k: int | None = None
    epsilon_prime: float = 0.1
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.construction not in ("a", "b", "embed"):
            raise InvalidInput(f"unknown construction {self.construction!r}")
        for name in ("d", "s", "seed", "t_cap", "d_outer", "k"):
            value = getattr(self, name)
            if value is not None or name in ("d", "s", "seed"):
                _int(value, name)
        for name in ("epsilon_prime", "epsilon"):
            _finite(getattr(self, name), name)
        try:
            ladder = tuple(
                (_int(m, "m"), _int(n, "n"))
                for m, n in self.ladder
            )
        except (TypeError, ValueError):
            raise InvalidInput(
                f"ladder must be a list of [m, n] integer pairs, got {self.ladder!r}"
            ) from None
        if len(ladder) < 3:
            raise InvalidInput("ladder needs at least 3 rungs")
        if self.construction == "embed" and (self.d_outer is None or self.k is None):
            raise InvalidInput("embed sweeps need d_outer and k")
        object.__setattr__(self, "ladder", ladder)

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise InvalidInput(f"a sweep spec is a JSON object, got {type(doc).__name__}")
        missing = {"construction", "d", "ladder"} - set(doc)
        if missing:
            raise InvalidInput(f"sweep spec lacks required fields: {sorted(missing)}")
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise InvalidInput(f"unknown sweep spec fields: {sorted(extra)}")
        return cls(**doc)


def _build_rung(spec: SweepSpec, index: int, m: int, n: int) -> ConstructionOutput:
    seed = spec.seed * 1_000_003 + index
    cfg = ConstructionConfig(
        d=spec.d, m=m, n=n, s=spec.s, t_cap=spec.t_cap,
        seed=seed, epsilon_prime=spec.epsilon_prime,
    )
    if spec.construction == "b":
        return build_sphere_construction(cfg)
    inner = build_grid_construction(cfg)
    if spec.construction == "a":
        return inner
    return embed_configuration(inner, spec.d_outer, spec.k, seed)


def _measure_rung(
    spec: SweepSpec, index: int, m: int, n: int, out_dir: Path | None
) -> dict:
    record: dict = {"index": index, "m_target": m, "n_target": n, "failed": False}
    try:
        out = _build_rung(spec, index, m, n)
    except (InvalidInput, SizeShortfall, DegenerateRandomness, ResourceLimit) as exc:
        # a rung the inputs cannot build is recorded, not fatal; anything
        # else is a bug and propagates
        record.update(failed=True, error=f"{type(exc).__name__}: {exc}")
        return record
    t_claim = out.t_measured + 1
    inst = IncidenceInstance(out.points, out.flats, spec.s, t_claim)
    incidences = count_incidences(inst, strategy="hashed")
    kst_status, _, _ = kst_verdict(inst, SWEEP_KST_LIMIT)
    del inst  # frees the flat classification it caches before the rung is saved
    # reported ratio against the K_{s,t}-free counting bound shape
    # m n^(1-1/s) + n; the hidden constant is problem dependent, so this is
    # informational, never an asserted inequality
    bound = kst_bound_value(len(out.points), len(out.flats), spec.s)
    ratio = float(Fraction(incidences) / bound.value) if bound.value else None
    record.update(
        m_actual=len(out.points),
        n_actual=len(out.flats),
        normals=len(out.normals_used),
        incidences=incidences,
        t_measured=out.t_measured,
        kst_status=kst_status,
        kst_bound_ratio=ratio,
        instance_path=None,
    )
    if out_dir is not None:
        name = f"rung_{index:02d}{serialization.FILE_SUFFIX}"
        serialization.save_construction(out_dir / name, out, spec.s, t_claim)
        record["instance_path"] = name
    return record


def fit_power_law(
    ms: Sequence[int], ns: Sequence[int], counts: Sequence[int]
) -> dict:
    """Least-squares fit of log I against (log m, log n).

    A ladder where log n is an affine function of log m (the usual
    fixed-ratio ladder) makes the two-variable design singular; the fit
    then falls back to the composite slope of log I against log m.
    """
    usable = [
        (m, n, c) for m, n, c in zip(ms, ns, counts) if c > 0 and m > 1
    ]
    if len(usable) < 3:
        raise SweepFailed(f"only {len(usable)} usable rungs; need at least 3")
    x = np.array([math.log(m) for m, _, _ in usable])
    y = np.array([math.log(n) for _, n, _ in usable])
    z = np.array([math.log(c) for _, _, c in usable])
    if np.ptp(x) == 0:
        raise SweepFailed("degenerate ladder: m does not vary")
    design = np.column_stack([x, y, np.ones_like(x)])
    if np.linalg.matrix_rank(design, tol=1e-9) == 3:
        coeffs, *_ = np.linalg.lstsq(design, z, rcond=None)
        residuals = (z - design @ coeffs).tolist()
        return {
            "kind": "two_variable",
            "slope_m": float(coeffs[0]),
            "slope_n": float(coeffs[1]),
            "intercept": float(coeffs[2]),
            "residuals": residuals,
            "log_n_over_log_m": float(np.mean(y / x)),
        }
    coeffs = np.polyfit(x, z, 1)
    residuals = (z - np.polyval(coeffs, x)).tolist()
    return {
        "kind": "composite",
        "slope": float(coeffs[0]),
        "intercept": float(coeffs[1]),
        "residuals": residuals,
        "log_n_over_log_m": float(np.mean(y / x)),
    }


def run_sweep(spec: SweepSpec, output: str | Path | None = None) -> dict:
    """Build every rung deterministically, verify, fit, and report.

    Raises :class:`SweepFailed` when fewer than 3 rungs succeed or the
    ladder is degenerate.  When ``output`` is given the report is written
    there and each rung's instance next to it (paths in the report are
    relative, so reports are location independent).
    """
    out_path = Path(output) if output is not None else None
    out_dir = None
    if out_path is not None:
        out_dir = out_path.parent / (out_path.name + ".instances")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot write {out_dir}: {exc}") from None
    rungs = [
        _measure_rung(spec, i, m, n, out_dir) for i, (m, n) in enumerate(spec.ladder)
    ]
    good = [r for r in rungs if not r["failed"]]
    if len(good) < 3:
        raise SweepFailed(f"only {len(good)} rungs succeeded; need at least 3")
    fit = fit_power_law(
        [r["m_actual"] for r in good],
        [r["n_actual"] for r in good],
        [r["incidences"] for r in good],
    )
    base_d = spec.d
    alpha, beta = predicted_lower_bound_exponents(
        "b" if spec.construction == "b" else "a", base_d
    )
    ratio = fit["log_n_over_log_m"]
    predicted_composite = float(alpha) + (float(beta) - spec.epsilon) * ratio
    fitted_composite = (
        fit["slope"]
        if fit["kind"] == "composite"
        else fit["slope_m"] + fit["slope_n"] * ratio
    )
    prediction = {
        "m_exponent": str(alpha),
        "n_exponent": str(beta),
        "epsilon": spec.epsilon,
        "composite_slope": predicted_composite,
        "fitted_composite_slope": fitted_composite,
        "delta": fitted_composite - predicted_composite,
    }
    report = {
        "schema": 1,
        "kind": "sweep-report",
        "spec": asdict(spec) | {"ladder": [list(r) for r in spec.ladder]},
        "rungs": rungs,
        "fit": fit,
        "prediction": prediction,
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    if out_path is not None:
        try:
            out_path.write_text(serialization.canonical_json(report))
        except OSError as exc:
            raise InvalidInput(f"cannot write {out_path}: {exc}") from None
    return report
