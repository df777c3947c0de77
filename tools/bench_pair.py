#!/usr/bin/env python3
"""Benchmark a base commit and this working tree in alternating pairs.

    python3 tools/bench_pair.py --out BENCH_14.json --base HEAD~1 \\
        --workload fleet_ladder --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 30

The base revision is checked out with `git worktree` into a temporary
directory, which is removed afterwards.  For each workload and seed, the
base's and this tree's `benchmark/run.py --trace 0` run with the same
arguments, and the side that runs first alternates from one pair to the
next.  The output holds `base` and `change`, each side's summary: per
workload, the seeds, the summed attempted and failed operation counts and
each end-to-end metric's n, median, quartiles and unit, with the git sha and
the environment the side's records share (records that mix them are
refused).  `paired` holds, per workload and metric, the median over pairs of
change / base, the change's wins out of n pairs, the base's quartile spread,
the gap of the base's median over the change's, `claim_holds` (wins >= 0.9 n
and a gap wider than the spread) and, for an end-to-end metric,
`within_bound` (the change's median at most the base's times 1 + its bound
in BENCHMARK.json).  Every end-to-end metric is lower-is-better, and a tie
is a win for neither side.  `pairs` holds each pair's metrics and the
median raw (unrescaled) wall time of a pass, `raw_wall_s`.

Exit 0 when every operation of every run succeeded, 1 when some failed
(the output is still written), 2 when git, a run, its records or the
output file fail (nothing is written then).  An `--out` whose directory is
missing or unwritable is refused before the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
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


def pair_values(record: dict) -> dict[str, float]:
    """One run's end-to-end metrics, and its median raw wall time of a pass."""
    values = {name: metric["value"] for name, metric in record["metrics"].items()}
    return {**values, "raw_wall_s": record["raw_wall_s"]["median"]}


def decide(base: list[float], change: list[float], bound: float | None) -> dict:
    """The README's decision rules for one metric over n pairs of base and
    change values, the fields of `paired` in the module docstring;
    within_bound only for a metric with an end-to-end bound."""
    n, base_median, change_median = len(base), statistics.median(base), statistics.median(change)
    quartiles = spread(base, "")
    out = {"n": n, "median_ratio": statistics.median(c / b for b, c in zip(base, change)),
           "wins": sum(c < b for b, c in zip(base, change)),
           "base_spread": quartiles["q3"] - quartiles["q1"],
           "median_gap": base_median - change_median}
    out["claim_holds"] = out["wins"] >= 0.9 * n and out["median_gap"] > out["base_spread"]
    if bound is not None:
        out["within_bound"] = change_median <= base_median * (1 + bound)
    return out


def paired(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per workload and metric, `decide` over its pairs; bounds maps each
    end-to-end metric to its relative bound."""
    by_workload: dict[str, dict] = {}
    for pair in pairs:
        workload = by_workload.setdefault(pair["workload"], {"seeds": [], "metrics": {}})
        workload["seeds"].append(pair["seed"])
        for metric, base in pair["base"].items():
            sides = workload["metrics"].setdefault(metric, ([], []))
            sides[0].append(base)
            sides[1].append(pair["change"][metric])
    for workload in by_workload.values():
        workload["metrics"] = {metric: decide(base, change, bounds.get(metric))
                               for metric, (base, change) in workload["metrics"].items()}
    return dict(sorted(by_workload.items()))


class RunError(Exception):
    pass


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RunError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run of tree's benchmark; returns the record it wrote."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RunError(f"{tree}: benchmark/run.py exited {done.returncode}:\n{done.stderr}")
    path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="paired summary JSON file to write")
    parser.add_argument("--base", default="HEAD~1", help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload; repeat for several")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out).resolve().parent
    if not (out_dir.is_dir() and os.access(out_dir, os.W_OK)):
        print(f"error: cannot write {args.out}: {out_dir} is not a writable directory",
              file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    base_tree = scratch / "base"
    records: dict[str, list] = {side: [] for side in SIDES}
    pairs = []
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
        sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        git("worktree", "add", "--detach", str(base_tree), sha)
        trees = {"base": base_tree, "change": ROOT}
        jobs = [(workload, seed) for workload in args.workload for seed in args.seeds]
        for k, (workload, seed) in enumerate(jobs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            run = {side: run_bench(trees[side], workload, seed, args.seconds)
                   for side in order}
            for side in SIDES:
                records[side].append((f"{side} {workload} seed {seed}", run[side]))
            pairs.append({"workload": workload, "seed": seed, "first": order[0],
                          **{side: pair_values(run[side]) for side in SIDES}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pairs[-1][side]['norm_wall_s']:.3f} s" for side in SIDES),
                file=sys.stderr)
        summary = {**{side: summarize(records[side]) for side in SIDES},
                   "paired": paired(pairs, bounds), "pairs": pairs}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    except (OSError, ValueError, KeyError, RunError, RecordError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if base_tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    for workload, stats in summary["paired"].items():
        for metric, m in stats["metrics"].items():
            claim = "holds" if m["claim_holds"] else "does not hold"
            bound = {True: ", within its bound", False: ", past its bound"}.get(
                m.get("within_bound"), "")
            print(f"{workload} {metric}: change/base {m['median_ratio']:.3f}, "
                  f"change lower in {m['wins']}/{m['n']}, median gap {m['median_gap']:.4g} "
                  f"against base spread {m['base_spread']:.4g}, claim {claim}{bound}")
    failed = sum(w["failed"] for side in SIDES for w in summary[side]["workloads"].values())
    if failed:
        print(f"error: {failed} failed operations", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    # a terminated run still removes its worktree, in main's finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
