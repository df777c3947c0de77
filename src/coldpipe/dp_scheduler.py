"""Exact cold-start makespan minimization over layer partitions and device
assignments.

State space: (T, j, d) = minimum completion time after scheduling layers
1..j, the segment ending at layer j running on device d and the earlier
segments on the device subset T, d not in T.  T = 0 holds the one-stage
plans.  Subsets are bitmasks, so predecessor sets are processed in
increasing numeric order (T minus any device precedes T) and the whole
(d, j) block for one T is computed in a single vectorized step.

Ties break by one key, `timeline.tie_key`, which the brute-force oracle
uses too: (makespan, stage count, device mask, then (device, finish time,
start layer) for each stage from the last).  The final pick orders equal
makespans by (number of devices, mask T | {d}, device).  Each (T, d, j)
transition takes one argmin over candidates whose flattened rows run over
(split i, predecessor device p), both ascending.  argmin returns the first
minimum, so the array order is the key's order: finish time, then the
stage's start layer i+1, then the device of the stage before it.  A
predecessor state holds the smallest finish time of its prefix, which is
the next element of the key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost_tables import CostTables
from .errors import InfeasibleError, PlanError

MAX_TABLE_BYTES = 2**32  # larger state tables are refused before allocation


@dataclass(frozen=True)
class PlanStage:
    """One pipeline stage: device runs layers start_layer..end_layer."""

    device: int
    start_layer: int
    end_layer: int

    @property
    def layer_count(self) -> int:
        return self.end_layer - self.start_layer + 1


@dataclass(frozen=True)
class Plan:
    """Ordered pipeline stages covering layers 1..L with distinct devices."""

    stages: tuple[PlanStage, ...]

    @property
    def devices(self) -> tuple[int, ...]:
        return tuple(s.device for s in self.stages)

    @property
    def layer_counts(self) -> tuple[int, ...]:
        return tuple(s.layer_count for s in self.stages)

    def layer_share(self, device: int) -> int:
        """Number of layers assigned to the given device index (0 if unused)."""
        return sum(s.layer_count for s in self.stages if s.device == device)


def validate_plan(plan: Plan, tables: CostTables, check_memory: bool = True) -> None:
    """Raise PlanError unless the plan covers layers 1..L contiguously with
    distinct in-range devices (and, optionally, fits each device's memory)."""
    if not plan.stages:
        raise PlanError("plan has no stages")
    if plan.stages[0].start_layer != 1:
        raise PlanError("first stage must start at layer 1")
    if plan.stages[-1].end_layer != tables.num_layers:
        raise PlanError(f"last stage must end at layer {tables.num_layers}")
    prev_end = 0
    for stage in plan.stages:
        if stage.start_layer != prev_end + 1:
            raise PlanError(
                f"stage starting at layer {stage.start_layer} is not contiguous "
                f"with previous end {prev_end}")
        if stage.start_layer > stage.end_layer:
            raise PlanError(f"empty stage {stage}")
        if not 0 <= stage.device < tables.num_devices:
            raise PlanError(f"unknown device index {stage.device}")
        prev_end = stage.end_layer
    devices = [s.device for s in plan.stages]
    if len(set(devices)) != len(devices):
        raise PlanError(f"devices reused across stages: {devices}")
    if check_memory:
        for stage in plan.stages:
            if not tables.fits[stage.device, stage.start_layer - 1, stage.end_layer]:
                need = tables.mem_footprint(stage.start_layer, stage.end_layer)
                raise PlanError(
                    f"stage {stage} needs {need:.3e} B but device "
                    f"{tables.devices[stage.device].id} has "
                    f"{tables.memory_bytes[stage.device]:.3e} B")


def table_bytes(num_devices: int, num_layers: int) -> int:
    """Bytes of the three (2**K, L+1, K) tables compute_table allocates, one
    float64 and two int32; refuses fleets past MAX_TABLE_BYTES."""
    if num_devices < 1 or num_layers < 1:
        raise ValueError("need at least one device and one layer")
    need = (1 << num_devices) * (num_layers + 1) * num_devices * (8 + 4 + 4)
    if need > MAX_TABLE_BYTES:
        raise ValueError(
            f"{num_devices} devices and {num_layers} layers need {need:,} bytes of "
            f"DP tables, over the limit of {MAX_TABLE_BYTES:,} bytes")
    return need


@dataclass
class DpTable:
    """Solved state table plus back-pointers for plan reconstruction."""

    values: np.ndarray       # (2**K, L+1, K) at (T, j, d); +inf if unreachable or d in T
    split: np.ndarray        # (2**K, L+1, K) final-segment boundary i (0 = base)
    prev_device: np.ndarray  # (2**K, L+1, K) predecessor device (-1 = base)
    num_layers: int
    num_devices: int


@dataclass(frozen=True)
class SolveResult:
    makespan_s: float
    plan: Plan


def compute_table(tables: CostTables) -> DpTable:
    """Fill the full (T, j, d) table bottom-up."""
    L, K = tables.num_layers, tables.num_devices
    table_bytes(K, L)  # refuses an oversized fleet before any allocation

    # Infeasible segments cost +inf.
    comp_or_inf = np.where(tables.fits, tables.comp_s, np.inf)

    n_masks = 1 << K
    values = np.full((n_masks, L + 1, K), np.inf)
    split = np.full((n_masks, L + 1, K), -1, dtype=np.int32)
    prev_device = np.full((n_masks, L + 1, K), -1, dtype=np.int32)

    # T = 0: a single segment 1..j on device d, no communication;
    # prev_device stays -1, the base marker.
    values[0] = (tables.load_s[:, 0, :] + comp_or_inf[:, 0, :]).T
    split[0][values[0] < np.inf] = 0

    # One candidate block per T, (next device d, split i, predecessor p, j).
    block = np.empty(K * K // 4 * (L + 1) ** 2)  # room for the largest |T| * (K - |T|)
    for t_mask in range(1, n_masks - 1):
        preds = np.array([p for p in range(K) if (t_mask >> p) & 1])
        nexts = np.array([d for d in range(K) if not (t_mask >> d) & 1])
        n, m = len(preds), len(nexts)
        prev = values[t_mask ^ (1 << preds), :, preds].T  # (i, p)
        cand = block[:m * (L + 1) * n * (L + 1)].reshape(m, L + 1, n, L + 1)
        np.maximum(tables.load_s[nexts][:, :, None, :], prev[:, :, None], out=cand)
        cand += tables.comm_s[np.ix_(preds, nexts)].transpose(1, 2, 0)[..., None]
        cand += comp_or_inf[nexts][:, :, None, :]
        rows = cand.reshape(m, (L + 1) * n, L + 1)
        best = rows.argmin(axis=1)  # (d, j)
        vals = np.take_along_axis(rows, best[:, None, :], axis=1)[:, 0]
        reached = vals < np.inf
        values[t_mask, :, nexts] = vals
        split[t_mask, :, nexts] = np.where(reached, best // n, -1)
        prev_device[t_mask, :, nexts] = np.where(reached, preds[best % n], -1)

    return DpTable(values=values, split=split, prev_device=prev_device,
                   num_layers=L, num_devices=K)


def best_final_state(table: DpTable) -> tuple[float, int, int]:
    """Minimum over all (T, d) of the full-model completion time, returned
    with the mask of every device used, T | {d}.

    Ties prefer fewer devices, then the smaller mask, then the smaller
    device index.  Raises InfeasibleError if every state is unreachable.
    """
    finals = table.values[:, table.num_layers, :]
    best = finals.min()
    if not np.isfinite(best):
        raise InfeasibleError(
            "no layer partition satisfies the per-device memory constraints")
    rests, devs = np.nonzero(finals == best)
    masks = rests | (1 << devs)
    order = min(range(len(masks)),
                key=lambda k: (int(masks[k]).bit_count(), masks[k], devs[k]))
    return float(best), int(masks[order]), int(devs[order])


def reconstruct(table: DpTable, final_mask: int, final_device: int) -> Plan:
    """Walk back-pointers from the plan on devices final_mask ending on
    final_device to the base marker, emitting stages in pipeline order."""
    rest, j, dev = final_mask ^ (1 << final_device), table.num_layers, final_device
    if not (final_mask >> dev) & 1 or not np.isfinite(table.values[rest, j, dev]):
        raise ValueError("cannot reconstruct from an unreachable state")
    stages: list[PlanStage] = []
    for _ in range(table.num_devices + 1):
        i = int(table.split[rest, j, dev])
        d_prev = int(table.prev_device[rest, j, dev])
        if i < 0 or (rest >> dev) & 1 or i >= j:
            raise RuntimeError(f"corrupt back-pointer at state ({rest}, {j}, {dev})")
        stages.append(PlanStage(device=dev, start_layer=i + 1, end_layer=j))
        if i == 0:
            if d_prev != -1 or rest:
                raise RuntimeError("base state carries predecessors")
            stages.reverse()
            return Plan(stages=tuple(stages))
        rest, j, dev = rest ^ (1 << d_prev), i, d_prev
    raise RuntimeError("back-pointer chain longer than the device count")


def solve(tables: CostTables) -> SolveResult:
    """Exact optimum of the cold-start makespan for this scenario."""
    table = compute_table(tables)
    makespan, mask, dev = best_final_state(table)
    plan = reconstruct(table, mask, dev)
    validate_plan(plan, tables, check_memory=True)
    return SolveResult(makespan_s=makespan, plan=plan)
