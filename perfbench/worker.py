"""One workload in one fresh process: set up, run iterations, write a record.

``run.py`` starts this script with the working directory set to a scratch
directory inside the checkout, ``PYTHONPATH`` set to the checkout's
``src/`` and ``INCLAB_THREADS`` removed.  It drives the CLI in process
through ``inclab.cli.main(argv)`` with stdout captured, repeating the
workload's command sequence for ``--seconds`` (at least once), and
writes a JSON record to ``--record``.  A new sequence starts only while it
is expected to end less than half a sequence past ``--seconds``, so a run
lasts about ``--seconds`` whatever the length of one sequence.

With ``--trace 1`` iterations alternate untraced and traced (at least one
of each); end-to-end numbers then come from the untraced ones only and the
per-layer numbers from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Outcome, Step


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    steps: list[Step]
    outcome: Outcome
    digest: str


def _digest(steps: list[Step], files: list[Path]) -> str:
    """sha256 of the CLI outputs and output files of one iteration; the
    sweep report's ``generated_at`` timestamp is left out."""
    h = hashlib.sha256()
    for step in steps:
        h.update(json.dumps([step.label, step.argv, step.code, step.stdout]).encode())
    for path in files:
        h.update(path.name.encode())
        if not path.is_file():
            h.update(b"<missing>")
        elif path.name == "report.json":
            doc = json.loads(path.read_text())
            doc.pop("generated_at", None)
            h.update(json.dumps(doc, sort_keys=True, indent=1).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def run_iteration(workload, cli, work: Path, index: int, tracer) -> Iteration:
    def call(label: str, argv: list) -> Step:
        if tracer is not None:
            tracer.begin_command(index, label)
        buf = io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed operation, never hidden
            error = f"{type(exc).__name__}: {exc}"
        return Step(label, argv, code, buf.getvalue(), time.perf_counter() - t0, error)

    t0 = time.perf_counter()
    steps = workload.run(call)
    wall = time.perf_counter() - t0
    outcome = Outcome(attempted=len(steps))
    workload.check(steps, work, outcome)
    return Iteration(tracer is not None, wall, steps, outcome,
                     _digest(steps, workload.output_files(work)))


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def summarize(runs: list[Iteration], peak_rss_mb: float) -> dict:
    """Medians over the untraced iterations, plus totals over all of them."""
    plain = [r for r in runs if not r.traced]
    attempted = sum(r.outcome.attempted for r in runs)
    failed = sum(len(r.outcome.failed_steps) for r in runs)
    verdicts = sum(r.outcome.verdicts for r in runs)
    unverified = sum(r.outcome.unverified for r in runs)
    e2e = {
        "wall_s": statistics.median(r.wall_s for r in plain),
        "peak_rss_mb": peak_rss_mb,
        # no verdict requested counts as nothing left unverified
        "verified_share": 1.0 - _share(unverified, verdicts),
    }
    details = {
        "iterations": len(plain),
        "iteration_wall_s": [r.wall_s for r in plain],
        "error_share": _share(failed, attempted),
        "unverified_share": _share(unverified, verdicts),
        "verdicts": verdicts,
    }
    for label in ("verify", "embed"):
        per_iteration = [sum(s.seconds for s in r.steps if s.label == label)
                         for r in plain]
        if any(per_iteration):
            details[f"{label}_s"] = statistics.median(per_iteration)
    failures = [msg for r in runs for msg in r.outcome.failures]
    digests = {r.digest for r in runs}
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "e2e": e2e,
        "details": details,
        "digest": runs[0].digest,
        "digest_stable": len(digests) == 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", required=True,
                        help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O so the library's asserts stay on",
              file=sys.stderr)
        return 2

    import numpy
    import inclab
    from inclab import cli

    src = Path(args.src).resolve()
    if src not in Path(inclab.__file__).resolve().parents:
        print(f"error: inclab was imported from {inclab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    work = Path.cwd()
    workload = WORKLOADS[args.workload](args.seed)
    workload.write_inputs(work)
    setup_s = time.monotonic() - args.t0
    record: dict = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        runs: list[Iteration] = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(runs) % 2 == 1
            if traced:
                tracer.install()
            try:
                runs.append(run_iteration(workload, cli, work, len(runs),
                                          tracer if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
            if len(runs) == 1:
                # peak over set-up and one iteration, so that it does not
                # depend on how many iterations fit in the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if traced:
                counters = tracer.counters[len(runs) - 1]
                counters["exponents.cross_checks"] += runs[-1].outcome.cross_checks
                counters["exponents.cross_checks_ok"] += runs[-1].outcome.cross_checks_ok
            elapsed = time.perf_counter() - start
            expected_end = elapsed * (1 + 0.5 / len(runs))
            if expected_end >= args.seconds and (tracer is None or len(runs) >= 2):
                break
        record.update(summarize(runs, peak_rss_mb))
        if tracer is not None:
            per_iteration = list(tracer.iteration_metrics().values())
            layers = {key: statistics.median(m[key] for m in per_iteration)
                      for key in per_iteration[0]}
            traced_wall = statistics.median(r.wall_s for r in runs if r.traced)
            layers["trace.overhead_share"] = traced_wall / record["e2e"]["wall_s"] - 1
            record["layers"] = layers
            tracer.write(Path(args.spans), args.workload)
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
