"""The names and plans the benchmark pins in coldpipe, checked at tier 1.

benchmark/tracing.py wraps the functions in its LAYERS and COUNTED tables
and benchmark/run.py reads a filled DpTable; a rename or deletion in the
package would otherwise surface only in a `--trace 1` benchmark run.  The
benchmark checks the fleet_ladder makespans against benchmark/ref/, and
the plans are checked here.  The benchmark's files are loaded by path, so
sys.path is left as it is.
"""

import importlib
import json

import pytest

from coldpipe import cost_tables, dp_scheduler
from coldpipe.model_profile import build_profiles
from conftest import BENCHMARK, load_benchmark, make_device, make_tables


@pytest.mark.parametrize("table", ["LAYERS", "COUNTED"])
def test_traced_names_resolve(table, monkeypatch):
    for mod_name, funcs in getattr(load_benchmark("tracing", monkeypatch), table).items():
        module = importlib.import_module(f"coldpipe.{mod_name}")
        for func_name in funcs:
            assert callable(getattr(module, func_name, None)), f"{mod_name}.{func_name}"


def test_dp_counters_table_bytes(monkeypatch):
    num_layers = 7
    layers = [(1e9 * (l + 1), 1e6, 1e8) for l in range(num_layers)]
    tables = make_tables(layers, [make_device(d, peak=1e12 * (d + 1))
                                  for d in range(3)])
    counters = load_benchmark("run", monkeypatch).dp_counters(dp_scheduler.compute_table(tables))
    assert counters["table_bytes"] == (dp_scheduler.table_bytes(3, num_layers), "bytes")


@pytest.mark.parametrize("index", range(8))
def test_plans_equal_the_fleet_ladder_references(index, monkeypatch):
    # the exact solver's plan, not only its makespan, is the reference's on
    # every rung of fleets 0-7, K = 8-12, each fill bounded by its own plans
    fleet = load_benchmark("fleet", monkeypatch)
    ref = json.loads((BENCHMARK / "ref" / "fleet_ladder.json").read_text())["fleets"]
    for k in fleet.LADDER:
        scenario = fleet.fleet_scenario(index, k)
        tables = cost_tables.build(build_profiles(scenario.model, fleet.TOKENS),
                                   list(scenario.devices), fleet.TOKENS)
        stages = dp_scheduler.solve(tables).plan.stages
        plan = fleet.plan_string((scenario.devices[s.device].id, s.start_layer, s.end_layer)
                                 for s in stages)
        assert plan == ref[str(index)][f"k{k:02d}"]["plan"], f"K = {k}"
