"""Cold-start timeline evaluation for an arbitrary plan.

Segment costs come from the cost tables; this module is the single source
of truth for how they combine into a plan's schedule: the solver's optimum
is cross-checked against it, the brute-force oracle is built on it, and the
Gantt renderers and CSV writer consume its output.

Per stage n (with finish_0 = 0):
    start_n  = max(load_n, finish_{n-1})
    finish_n = start_n + comm_n + comp_n      (comm_1 = 0)
    wait_n   = max(0, finish_{n-1} - load_n)  (idle after loading)
Loading starts at time 0 on every device; communication into a stage is
booked at the start of its active window, on the receiving device.
"""

from __future__ import annotations

from typing import NamedTuple

from .cost_tables import CostTables
from .dp_scheduler import Plan, validate_plan


class StageTiming(NamedTuple):
    """Resolved intervals for one pipeline stage on its device."""

    device: int
    start_layer: int
    end_layer: int
    load_s: float   # disk read
    comm_s: float   # activation transfer in
    comp_s: float   # forward compute
    start_s: float
    finish_s: float
    wait_s: float   # idle between load completion and upstream finish

    @property
    def phases(self) -> tuple[tuple[str, float, float], ...]:
        """(kind, start, end) of the load, wait, comm and comp intervals,
        in that order; the Gantt renderers draw exactly these."""
        comm_end = self.start_s + self.comm_s
        return (("load", 0.0, self.load_s), ("wait", self.load_s, self.start_s),
                ("comm", self.start_s, comm_end), ("comp", comm_end, self.finish_s))


class Timeline(NamedTuple):
    """Per-stage schedule plus the overall makespan.  `solve --out` writes
    its `_asdict()`, stages included, so field order is the JSON key order."""

    makespan_s: float
    stages: tuple[StageTiming, ...]

    @property
    def total_load_s(self) -> float:
        return sum(s.load_s for s in self.stages)

    @property
    def total_comm_s(self) -> float:
        return sum(s.comm_s for s in self.stages)

    @property
    def total_comp_s(self) -> float:
        return sum(s.comp_s for s in self.stages)

    @property
    def total_wait_s(self) -> float:
        return sum(s.wait_s for s in self.stages)


def tie_key(timeline: Timeline) -> tuple:
    """Order of equal-makespan plans, shared by the solver and the oracle:
    (makespan, stage count, device mask, then (device, finish_s,
    start_layer) for each stage from the last)."""
    return (timeline.makespan_s, len(timeline.stages),
            sum(1 << s.device for s in timeline.stages),
            *[(s.device, s.finish_s, s.start_layer)
              for s in reversed(timeline.stages)])


def evaluate(plan: Plan, tables: CostTables, check_memory: bool = True) -> Timeline:
    """Run the timeline recurrence over the plan's stages."""
    # Validation comes first: it is what keeps the table indices in range.
    validate_plan(plan, tables, check_memory=check_memory)
    stages: list[StageTiming] = []
    finish_prev = 0.0
    prev_device = None
    for stage in plan.stages:
        d, i, j = stage.device, stage.start_layer - 1, stage.end_layer
        load = tables.load_s.item(d, i, j)
        comp = tables.comp_s.item(d, i, j)
        comm = 0.0 if prev_device is None else tables.comm_s.item(prev_device, d, i)
        start = max(load, finish_prev)
        finish = (start + comm) + comp
        stages.append(StageTiming(d, stage.start_layer, j, load, comm, comp,
                                  start, finish, max(0.0, finish_prev - load)))
        finish_prev = finish
        prev_device = d
    return Timeline(finish_prev, tuple(stages))
