#!/usr/bin/env python3
"""Condense benchmark records into one committed BENCH_<n>.json.

    python3 tools/bench_summary.py --out BENCH_7.json .bench_out/*-trace0.json

Each input is a `--trace 0` record that `benchmark/run.py` writes to
`.bench_out/`, one per (workload, seed).  The output holds, per workload,
each end-to-end metric's n, median, quartiles and unit over the records,
and the summed attempted and failed operation counts; it also holds the git
sha and the environment the records share.  Records that mix git shas or
environments are refused (exit 2), as is anything that is not a `--trace 0`
record; nothing is written then.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

GIT_FIELDS = ("git_sha", "git_dirty")
FIELDS = ("workload", "seed", "trace", "environment", "metrics", "attempted", "failed")


class RecordError(Exception):
    pass


def spread(values: list[float], unit: str) -> dict:
    """n, median, q1, q3 (statistics.quantiles' default method) and unit."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "unit": unit}


def summarize(records: list[tuple[str, dict]]) -> dict:
    for name, record in records:
        if (not isinstance(record, dict) or any(key not in record for key in FIELDS)
                or record["trace"] != 0):
            raise RecordError(f"{name} is not a --trace 0 benchmark record")
    if not records:
        raise RecordError("no records given")
    environment = records[0][1]["environment"]
    odd = [(name, record["environment"]) for name, record in records
           if record["environment"] != environment]
    if odd:
        differ = sorted({key for _, other in odd for key in environment.keys() | other.keys()
                         if environment.get(key) != other.get(key)})
        raise RecordError(f"{', '.join(name for name, _ in odd)} differ from the first "
                          f"record in {', '.join(differ)}; summarize one git sha and "
                          "one environment at a time")
    samples: dict[str, dict] = {}
    for _, record in records:
        workload = samples.setdefault(record["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "metrics": {}})
        workload["seeds"].append(record["seed"])
        workload["attempted"] += record["attempted"]
        workload["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            unit, values = workload["metrics"].setdefault(metric, (value["unit"], []))
            values.append(value["value"])
    for workload in samples.values():
        workload["seeds"].sort()
        workload["metrics"] = {metric: spread(values, unit)
                               for metric, (unit, values) in workload["metrics"].items()}
    return {**{key: environment.get(key) for key in GIT_FIELDS},
            "environment": {k: v for k, v in environment.items() if k not in GIT_FIELDS},
            "workloads": dict(sorted(samples.items()))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="summary JSON file to write")
    parser.add_argument("records", nargs="+", help="--trace 0 record JSON files")
    args = parser.parse_args(argv)
    try:
        records = [(path, json.loads(Path(path).read_text())) for path in args.records]
        summary = summarize(records)
    except (OSError, ValueError, RecordError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
