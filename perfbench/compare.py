"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one line
per run; traced runs are ignored.  For every workload and end-to-end
metric it prints each side's median and quartiles, and the ratio
change/base of the medians.  A metric is ``unresolved`` when either side's
spread (interquartile range over median) exceeds the metric's bound from
``BENCHMARK.json``; otherwise it is ``worse`` or ``better`` when the
medians differ by more than the bound, and ``within bound`` when not.
``verify_s`` and ``embed_s``, which only some workloads have, use the bound
of ``wall_s``.  Output digests are compared seed by seed, and any
difference between the two environments is printed first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "nproc", "cpu_model")


def load(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                records.append(record)
    return records


def metric_specs(spec: dict) -> list[dict]:
    specs = list(spec["end_to_end"])
    wall = next(m for m in specs if m["name"] == "wall_s")
    specs += [dict(wall, name=name) for name in ("verify_s", "embed_s")]
    return specs


def value(record: dict, name: str) -> float | None:
    if name in record["metrics"]:
        return record["metrics"][name]["value"]
    return record["details"].get(name)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    spreads = []
    for values in (base, change):
        q1, median, q3 = quartiles(values)
        spreads.append((q3 - q1) / median if median else 0.0)
    if max(spreads) > bound:
        return "unresolved"
    b, c = statistics.median(base), statistics.median(change)
    if b == 0:
        return "within bound" if c == 0 else "unresolved"
    worse = (c - b) / b if better == "lower" else (b - c) / b
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def environments(records: list[dict]) -> set[tuple]:
    return {tuple(str(r["env"].get(k)) for k in ENV_KEYS) for r in records}


def compare(base: list[dict], change: list[dict], spec: dict) -> list[str]:
    out = []
    base_env, change_env = environments(base), environments(change)
    if base_env != change_env:
        out.append(f"WARNING: environments differ ({', '.join(ENV_KEYS)}):")
        out += [f"  base   {e}" for e in sorted(base_env)]
        out += [f"  change {e}" for e in sorted(change_env)]
    by_workload: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, change)):
        for r in records:
            by_workload[r["workload"]][side].append(r)
    header = (f"{'workload':15} {'metric':15} {'base median [q1, q3] n':32}"
              f" {'change median [q1, q3] n':32} {'ratio':>7}  verdict")
    out.append(header)
    for workload in sorted(by_workload):
        b_runs, c_runs = by_workload[workload]
        for m in metric_specs(spec):
            b = [v for r in b_runs if (v := value(r, m["name"])) is not None]
            c = [v for r in c_runs if (v := value(r, m["name"])) is not None]
            if not b or not c:
                continue
            cells = []
            for values in (b, c):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            bm = statistics.median(b)
            ratio = f"{statistics.median(c) / bm:.3f}" if bm else "-"
            out.append(f"{workload:15} {m['name']:15} {cells[0]:32} {cells[1]:32}"
                       f" {ratio:>7}  {verdict(b, c, m['bound'], m['better'])}")
        failed = [sum(r["failed"] for r in runs) for runs in (b_runs, c_runs)]
        attempted = [sum(r["attempted"] for r in runs) for runs in (b_runs, c_runs)]
        out.append(f"{workload:15} {'failed':15} base {failed[0]}/{attempted[0]},"
                   f" change {failed[1]}/{attempted[1]}")
        digests = [{r["seed"]: r["digest"] for r in runs} for runs in (b_runs, c_runs)]
        seeds = sorted(set(digests[0]) & set(digests[1]))
        differ = [s for s in seeds if digests[0][s] != digests[1][s]]
        status = ("no common seed" if not seeds else
                  f"differ on seeds {differ}" if differ else
                  f"identical on {len(seeds)} seeds")
        out.append(f"{workload:15} {'digest':15} {status}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(args.base), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
