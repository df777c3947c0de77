#!/usr/bin/env python3
"""Regenerate the benchmark's stored references from the current tree.

    python3 benchmark/make_refs.py

Writes ref/tab1_sweep.csv (the sweep CSV of configs/tab1.yaml) and
ref/fleet_ladder.json (the optimal makespan and plan of every fleet_ladder
rung of every fleet).  The references pin the outputs of the exact solver
as it stood when they were made; rerun this only for a change that is meant
to alter those outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from coldpipe import cli, config, cost_tables, dp_scheduler  # noqa: E402
from coldpipe.model_profile import build_profiles  # noqa: E402

import fleet  # noqa: E402


def _solve_fleet(index: int) -> dict:
    rungs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k in fleet.LADDER:
            path = Path(tmp) / f"fleet_k{k:02d}.yaml"
            path.write_text(config.dump_scenario(fleet.fleet_scenario(index, k)))
            scenario = config.load_scenario(path)
            tables = cost_tables.build(build_profiles(scenario.model, fleet.TOKENS),
                                       list(scenario.devices), fleet.TOKENS)
            result = dp_scheduler.solve(tables)
            rungs[f"k{k:02d}"] = {
                "makespan_s": result.makespan_s,
                "plan": fleet.plan_string(
                    (scenario.devices[s.device].id, s.start_layer, s.end_layer)
                    for s in result.plan.stages),
            }
    return rungs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        if cli.main(["sweep", "--config", str(ROOT / "configs" / "tab1.yaml"),
                     "--out", str(out)]) != 0:
            raise SystemExit("tab1 sweep failed")
        (HERE / "ref" / "tab1_sweep.csv").write_bytes(out.read_bytes())

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        fleets = list(pool.map(_solve_fleet, range(fleet.NUM_FLEETS)))
    payload = {"tokens": fleet.TOKENS,
               "fleets": {str(i): rungs for i, rungs in enumerate(fleets)}}
    (HERE / "ref" / "fleet_ladder.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
