"""Run one inclab benchmark workload and print its result.

    python3 perfbench/run.py --workload pipeline_grid --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``, nothing needs installing.  The workload runs in a fresh worker
process (``worker.py``), one process at a time.  ``INCLAB_THREADS`` and
``PYTHONOPTIMIZE`` are removed from its environment, and numpy's BLAS pool
is held to one thread, so the worker uses one core.  Set-up time is
sampled over ``SETUP_PROBES`` extra processes that only set up, half
before and half after the measuring one, and reported as the median of
all of them.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the ``end_to_end`` ones
of ``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` ones.  The
line before it is the full record: the same numbers plus details, the
output digest and the environment.  ``--out FILE`` also appends that
record to FILE, for ``compare.py``.  Traced runs write their spans to
``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads_value: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "inclab_threads_cleared": True,
        "inclab_threads_was": threads_value,
    }


def _run_worker(args, work: Path, env: dict, deadline: float,
                setup_only: bool) -> dict:
    record = work / ("setup.json" if setup_only else "record.json")
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--src", str(SRC), "--record", str(record),
            "--spans", str(ROOT / ".perfbench_out" / f"spans-{args.workload}.npz")]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.monotonic())]
    # run() kills and reaps the worker if it outlives the deadline
    proc = subprocess.run(argv, cwd=work, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(record.read_text())


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run the workload; return (full record, contract line)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = dict(os.environ)
    machine = environment(env.pop("INCLAB_THREADS", None))
    env.pop("PYTHONOPTIMIZE", None)
    # inclab's numpy work is int64 products and tiny float fits; an idle BLAS
    # pool only starts threads at import that spin on the other core
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(SRC)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # probes before and after the measuring worker, so that set-up is
        # sampled across the run rather than at one moment of it
        probes = 0 if args.trace else SETUP_PROBES // 2
        samples = [_run_worker(args, work, env, deadline, True)["setup_s"]
                   for _ in range(probes)]
        record = _run_worker(args, work, env, deadline, False)
        samples += [_run_worker(args, work, env, deadline, True)["setup_s"]
                    for _ in range(probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples.append(record["setup_s"])
    if args.trace:
        values = record["layers"]
        wanted = spec["per_layer"]
    else:
        values = dict(record["e2e"], setup_s=statistics.median(samples))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}
    details = dict(record["details"], setup_samples_s=samples)
    if args.trace:
        details["layers"] = values
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **line, "failures": record["failures"],
            "details": details, "digest": record["digest"],
            "digest_stable": record["digest_stable"],
            "env": dict(machine, numpy=record["numpy"])}
    return full, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one inclab benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "inclab" / "__init__.py").is_file():
        print(f"error: no inclab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        full, line = measure(args, spec)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(full) + "\n")
    print(json.dumps(full))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
