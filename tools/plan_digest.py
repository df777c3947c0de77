#!/usr/bin/env python3
"""Print one sha256 per group of exact solves, to check that a change to the
solver keeps every makespan and plan, and the filled tables too.

    python3 tools/plan_digest.py > change.txt
    python3 tools/plan_digest.py --root ../parent > parent.txt
    diff parent.txt change.txt

The groups are `suite`, the instances of `random_instance_suite(300, s)`
for s = 0, 1, 2; `tab1`, each token length of `configs/tab1.yaml`;
`ladder`, `benchmark/fleet.py`'s fleets 0-7 at each size of its `LADDER`;
and `fill`, `compute_table`'s tables of the tab1 and ladder cases.  Each
solve hashes as one line: the makespan in float hex and the plan, or
`infeasible`; each table as its `fill_line`, so a solver change meant to
keep the table byte-identical can show that it does.  `--root DIR` solves
with DIR's `src/coldpipe`, config and fleet generator, so one copy of
this script checks two checkouts.  Nothing under `benchmark/` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

SUITE_SEEDS, SUITE_COUNT, FLEETS = (0, 1, 2), 300, range(8)


def fill_line(table) -> str:
    """sha256 of one DpTable: every byte of `values`, and `split` and
    `prev_device` only where `values` is finite, the cells where the table
    defines them."""
    finite = np.isfinite(table.values)
    digest = hashlib.sha256(table.values.tobytes())
    digest.update(table.split[finite].tobytes())
    digest.update(table.prev_device[finite].tobytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to solve with (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import coldpipe
    from coldpipe import config, dp_scheduler, experiment
    from coldpipe.errors import InfeasibleError

    if not Path(coldpipe.__file__).resolve().is_relative_to(root):
        sys.exit(f"coldpipe imported from {coldpipe.__file__}, not from {root}")
    spec = importlib.util.spec_from_file_location("fleet", root / "benchmark" / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = fleet  # where dataclasses looks a module up
    spec.loader.exec_module(fleet)

    def line(scenario, t: int) -> str:
        try:
            result = dp_scheduler.solve(experiment.build_tables(scenario, t))
        except InfeasibleError:
            return "infeasible"
        stages = "|".join(f"{s.device}:{s.start_layer}-{s.end_layer}"
                          for s in result.plan.stages)
        return f"{result.makespan_s.hex()} {stages}"

    tab1 = config.load_scenario(root / "configs" / "tab1.yaml")
    tab1_cases = [(tab1, t) for t in tab1.token_lengths]
    ladder_cases = [(fleet.fleet_scenario(index, k), fleet.TOKENS)
                    for k in fleet.LADDER for index in FLEETS]
    groups = {
        "suite": [line(instance.scenario, instance.scenario.token_lengths[0])
                  for seed in SUITE_SEEDS
                  for instance in experiment.random_instance_suite(SUITE_COUNT, seed)],
        "tab1": [line(*case) for case in tab1_cases],
        "ladder": [line(*case) for case in ladder_cases],
        "fill": [fill_line(dp_scheduler.compute_table(experiment.build_tables(*case)))
                 for case in tab1_cases + ladder_cases],
    }
    for name, lines in groups.items():
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{name} {len(lines)} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
