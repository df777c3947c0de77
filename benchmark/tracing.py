"""In-memory spans around coldpipe's layers, recorded from outside the package.

`Tracer.install` wraps each public layer function in `LAYERS` and rebinds the
wrapper in every `coldpipe.*` module that holds the function by name, so a
call site that did `from .timeline import evaluate` is traced like one that
calls `timeline.evaluate`.  Spans are (id, parent id, run id, name, start ns,
end ns) tuples kept in memory and written out once, at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = {
    "config": ("load_scenario",),
    "cli": ("rows_to_csv",),
    "model_profile": ("build_profiles",),
    "cost_tables": ("build",),
    "dp_scheduler": ("compute_table", "best_final_state", "reconstruct",
                     "validate_plan", "solve"),
    "baselines": ("brute_force", "plan_for_strategy"),
    "timeline": ("evaluate",),
    "experiment": ("run_sweep", "verify_suite", "random_instance_suite"),
}
ROOT_SPAN = "cli.main"
# Generators are counted, not timed: a span would close at the first yield.
COUNTED = {"baselines": ("enumerate_plans",)}
# Results kept per run, for counters computed after the run.
KEPT = {"dp_scheduler.compute_table"}


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()   # (run, name) -> items yielded
        self.kept: dict = {}               # (run, name) -> last result
        self.run: str | None = None
        self._stack: list[int] = []
        self._rebound: list = []

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "coldpipe" and not mod_name.startswith("coldpipe."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._rebound.append((module, attr, original))

    def _timed(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = name in KEPT

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.run, name, start, end)
            if keep:
                self.kept[(self.run, name)] = result
            return result
        return wrapper

    def _counted(self, name: str, func):
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in func(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.counts[(self.run, name)] += n
        return wrapper

    def install(self) -> None:
        for wrap, table in ((self._timed, LAYERS), (self._counted, COUNTED)):
            for mod_name, funcs in table.items():
                module = importlib.import_module(f"coldpipe.{mod_name}")
                for func_name in funcs:
                    original = getattr(module, func_name)
                    self._rebind(original, wrap(f"{mod_name}.{func_name}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def call(self, run: str, func, *args):
        """Call func under a root span; every span below it carries `run`."""
        self.run = run
        return self._timed(ROOT_SPAN, func)(*args)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Summary:
    """Per (run, span name): total seconds `s`, self seconds `self_s` (the
    span minus its children) and `calls`."""

    def __init__(self, spans) -> None:
        child_ns = defaultdict(int)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.stats = {"s": Counter(), "self_s": Counter(), "calls": Counter()}
        for sid, _, run, name, start, end in spans:
            self.stats["s"][(run, name)] += (end - start) / 1e9
            self.stats["self_s"][(run, name)] += (end - start - child_ns[sid]) / 1e9
            self.stats["calls"][(run, name)] += 1

    def get(self, name: str, stat: str, runs) -> float:
        return sum(self.stats[stat][(run, name)] for run in runs)
