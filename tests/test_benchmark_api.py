"""The names the benchmark pins in coldpipe, checked at tier 1.

benchmark/tracing.py wraps the functions in its LAYERS and COUNTED tables
and benchmark/run.py reads a filled DpTable; a rename or deletion in the
package would otherwise surface only in a `--trace 1` benchmark run.  Both
files are loaded by path, so sys.path is left as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from coldpipe import dp_scheduler
from conftest import make_device, make_tables

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name, monkeypatch):
    """The module at benchmark/<name>.py, registered in sys.modules for the
    test's duration (dataclasses looks its module up there)."""
    spec = importlib.util.spec_from_file_location(
        f"coldpipe_bench_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["LAYERS", "COUNTED"])
def test_traced_names_resolve(table, monkeypatch):
    for mod_name, funcs in getattr(_load("tracing", monkeypatch), table).items():
        module = importlib.import_module(f"coldpipe.{mod_name}")
        for func_name in funcs:
            assert callable(getattr(module, func_name, None)), f"{mod_name}.{func_name}"


def test_dp_counters_table_bytes(monkeypatch):
    num_layers = 7
    layers = [(1e9 * (l + 1), 1e6, 1e8) for l in range(num_layers)]
    tables = make_tables(layers, [make_device(d, peak=1e12 * (d + 1))
                                  for d in range(3)])
    counters = _load("run", monkeypatch).dp_counters(dp_scheduler.compute_table(tables))
    assert counters["table_bytes"] == (dp_scheduler.table_bytes(3, num_layers), "bytes")
