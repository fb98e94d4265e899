"""The benchmark's workloads: inputs made from a seed, the CLI command
sequence of one iteration, and the correctness gates on every output.

A workload object is built from the seed alone.  ``write_inputs`` puts any
input files in the working directory, ``run`` issues the commands through a
``call(label, argv)`` function (closed loop: each command starts after the
previous one returned), and ``check`` turns the finished steps into an
:class:`Outcome`.  Gates count failures; they never raise.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SLOPE_TOLERANCE = 0.1
SWEEP_LADDER = (256, 1024, 4096, 16384, 65536)
GRID_SIZE = 1024
SPHERE_ARGS = ["--variant", "b", "--d", "5", "--m", "500", "--n", "400",
               "--s", "3", "--box-side", "2"]


@dataclass
class Step:
    """One CLI command as issued and what it returned."""

    label: str
    argv: list[str]
    code: int | None
    stdout: str
    seconds: float
    error: str | None = None


@dataclass
class Outcome:
    """What the gates found in one iteration.

    ``verdicts`` counts the exactness verdicts requested (K_{s,t} status,
    naive == hashed agreement, collinearity scan); ``unverified`` counts
    those that came back unverified or skipped.
    """

    attempted: int = 0
    failed_steps: set = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    verdicts: int = 0
    unverified: int = 0
    cross_checks: int = 0
    cross_checks_ok: int = 0

    def fail(self, step_index: int, message: str) -> None:
        self.failed_steps.add(step_index)
        self.failures.append(message)

    def require(self, step_index: int, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(step_index, message)
        return ok

    def verdict(self, verified: bool) -> None:
        self.verdicts += 1
        self.unverified += 0 if verified else 1


Call = Callable[[str, list], Step]


def _claimed_t(construct: Step) -> int:
    """t_measured + 1 from a construct summary line (2 if it failed)."""
    found = re.search(r"t_measured=(\d+)", construct.stdout)
    return int(found.group(1)) + 1 if found else 2


def _payload(outcome: Outcome, index: int, step: Step) -> dict | None:
    """The JSON a command printed, or None after recording why not."""
    if step.error is not None:
        outcome.fail(index, f"{step.label}: raised {step.error}")
        return None
    try:
        doc = json.loads(step.stdout)
    except json.JSONDecodeError:
        outcome.fail(index, f"{step.label}: stdout is not JSON")
        return None
    if not isinstance(doc, dict):
        outcome.fail(index, f"{step.label}: stdout is not a JSON object")
        return None
    return doc


def _check_exit(outcome: Outcome, index: int, step: Step) -> bool:
    if step.error is not None:
        outcome.fail(index, f"{step.label}: raised {step.error}")
        return False
    return outcome.require(
        index, step.code == 0, f"{step.label}: exit code {step.code}, expected 0"
    )


def _check_verify(outcome: Outcome, index: int, step: Step) -> dict | None:
    """Gates shared by every ``verify`` of a generated instance."""
    payload = _payload(outcome, index, step)
    if payload is None:
        return None
    outcome.require(index, step.code == 0,
                    f"{step.label}: exit code {step.code}, expected 0")
    outcome.require(index, payload.get("counts_agree") is True,
                    f"{step.label}: counts_agree is {payload.get('counts_agree')}")
    outcome.require(index, payload.get("matches_predicted") is True,
                    f"{step.label}: matches_predicted is"
                    f" {payload.get('matches_predicted')}")
    counts = [payload.get(k) for k in ("naive_count", "hashed_count",
                                       "predicted_count")]
    outcome.require(index, counts[0] == counts[1] == counts[2],
                    f"{step.label}: naive/hashed/predicted = {counts}")
    outcome.verdict(payload.get("kst_status") == "free")
    outcome.verdict(payload.get("counts_agree") is not None)
    return payload


class PipelineGrid:
    """construct -> verify -> embed -> verify on the planar grid family."""

    name = "pipeline_grid"

    def __init__(self, seed: int):
        self.seed = seed

    def write_inputs(self, work: Path) -> None:
        pass

    def run(self, call: Call) -> list[Step]:
        size, seed = str(GRID_SIZE), str(self.seed)
        construct = call("construct", [
            "construct", "--variant", "a", "--d", "2", "--m", size, "--n", size,
            "--seed", seed, "-o", "grid.inc.json"])
        t = str(_claimed_t(construct))
        return [
            construct,
            call("verify", ["verify", "grid.inc.json", "--s", "2", "--t", t]),
            call("embed", ["embed", "grid.inc.json", "--d-outer", "4", "--k", "2",
                           "--seed", seed, "-o", "embedded.inc.json"]),
            call("verify", ["verify", "embedded.inc.json", "--s", "2", "--t", t]),
        ]

    def check(self, steps: list[Step], work: Path, outcome: Outcome) -> None:
        _check_exit(outcome, 0, steps[0])
        planar = _check_verify(outcome, 1, steps[1])
        _check_exit(outcome, 2, steps[2])
        embedded = _check_verify(outcome, 3, steps[3])
        if planar is not None and embedded is not None:
            outcome.require(
                3, embedded.get("naive_count") == planar.get("naive_count"),
                f"embedded count {embedded.get('naive_count')} !="
                f" planar count {planar.get('naive_count')}")

    def output_files(self, work: Path) -> list[Path]:
        return [work / "grid.inc.json", work / "embedded.inc.json"]


class SweepSlope:
    """``sweep -o`` on the slope ladder of the acceptance suite."""

    name = "sweep_slope"

    def __init__(self, seed: int):
        self.seed = seed

    def write_inputs(self, work: Path) -> None:
        spec = {"construction": "a", "d": 2, "s": 2, "seed": self.seed,
                "ladder": [[m, m] for m in SWEEP_LADDER]}
        (work / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")

    def run(self, call: Call) -> list[Step]:
        return [call("sweep", ["sweep", "spec.json", "-o", "report.json"])]

    def check(self, steps: list[Step], work: Path, outcome: Outcome) -> None:
        if not _check_exit(outcome, 0, steps[0]):
            return
        try:
            report = json.loads((work / "report.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            outcome.fail(0, f"sweep report unreadable: {exc}")
            return
        rungs = report.get("rungs", [])
        outcome.require(0, len(rungs) == len(SWEEP_LADDER),
                        f"sweep has {len(rungs)} rungs, expected {len(SWEEP_LADDER)}")
        for rung in rungs:
            if not outcome.require(0, not rung.get("failed"),
                                   f"rung {rung.get('index')} failed:"
                                   f" {rung.get('error')}"):
                continue
            expected = rung["m_actual"] * rung["normals"]
            outcome.require(0, rung["incidences"] == expected,
                            f"rung {rung['index']}: I={rung['incidences']}"
                            f" != m*|V|={expected}")
            outcome.require(0, (work / "report.json.instances"
                                / str(rung["instance_path"])).is_file(),
                            f"rung {rung['index']}: instance file missing")
            outcome.verdict(rung["kst_status"] == "free")
        delta = report.get("prediction", {}).get("delta")
        outcome.require(0, delta is not None and abs(delta) <= SLOPE_TOLERANCE,
                        f"fitted slope delta {delta} outside +-{SLOPE_TOLERANCE}")

    def output_files(self, work: Path) -> list[Path]:
        return [work / "report.json",
                *sorted((work / "report.json.instances").glob("*"))]


class ExponentTable:
    """``exponents --json`` for every (k, d, s) with 2 <= d <= 10, 1 <= k < d
    and 2 <= s <= 5; the seed only fixes the order of the calls."""

    name = "exponent_table"

    def __init__(self, seed: int):
        self.calls = [(k, d, s) for d in range(2, 11) for k in range(1, d)
                      for s in range(2, 6)]
        random.Random(seed).shuffle(self.calls)

    def write_inputs(self, work: Path) -> None:
        pass

    def run(self, call: Call) -> list[Step]:
        return [call("exponents", ["exponents", "--k", str(k), "--d", str(d),
                                   "--s", str(s), "--json"])
                for k, d, s in self.calls]

    def check(self, steps: list[Step], work: Path, outcome: Outcome) -> None:
        for index, step in enumerate(steps):
            payload = _payload(outcome, index, step)
            if payload is None:
                continue
            outcome.require(index, step.code == 0,
                            f"{step.argv}: exit code {step.code}, expected 0")
            terms = payload.get("terms") or []
            outcome.require(index, bool(terms), f"{step.argv}: no terms")
            ok = sum(1 for term in terms if term.get("cross_check") == "ok")
            outcome.cross_checks += len(terms)
            outcome.cross_checks_ok += ok
            outcome.require(index, ok == len(terms),
                            f"{step.argv}: {len(terms) - ok} cross-check mismatches")

    def output_files(self, work: Path) -> list[Path]:
        return []


class SphereVerify:
    """construct the d=5 sphere family with s=3, then verify it."""

    name = "sphere_verify"

    def __init__(self, seed: int):
        self.seed = seed

    def write_inputs(self, work: Path) -> None:
        pass

    def run(self, call: Call) -> list[Step]:
        construct = call("construct", ["construct", *SPHERE_ARGS, "--seed",
                                       str(self.seed), "-o", "sphere.inc.json"])
        t = str(_claimed_t(construct))
        return [construct,
                call("verify", ["verify", "sphere.inc.json", "--s", "3", "--t", t])]

    def check(self, steps: list[Step], work: Path, outcome: Outcome) -> None:
        _check_exit(outcome, 0, steps[0])
        payload = _check_verify(outcome, 1, steps[1])
        if payload is None:
            return
        outcome.require(1, payload.get("kst_status") == "free",
                        f"K_{{3,t}} status {payload.get('kst_status')}, expected free")
        outcome.require(1, payload.get("collinear_triple") is None,
                        f"collinear triple {payload.get('collinear_triple')}")
        # verify runs the scan for every sphere instance of this size, so a
        # null triple is a verified "no collinear triple"
        outcome.verdict(payload.get("collinear_triple") is None)

    def output_files(self, work: Path) -> list[Path]:
        return [work / "sphere.inc.json"]


WORKLOADS = {w.name: w for w in (PipelineGrid, SweepSlope, ExponentTable,
                                 SphereVerify)}
