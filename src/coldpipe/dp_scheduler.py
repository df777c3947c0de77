"""Exact cold-start makespan minimization over layer partitions and device
assignments.

State space: (S, j, d) = minimum completion time after scheduling layers
1..j with the device subset S, the segment ending at layer j running on
device d in S.  Subsets are bitmasks, so masks are processed in increasing
numeric order (every proper subset precedes its superset) and the whole
j-column for one (S, d) pair is computed in a single vectorized step.

Ties break by one key, `timeline.tie_key`, which the brute-force oracle
uses too: (makespan, stage count, device mask, then (device, finish time,
start layer) for each stage from the last).  The final pick orders equal
makespans by (number of devices, mask, device).  Each (S, d) transition
takes one argmin over a candidate block whose flattened rows run over
(split i, predecessor device), both ascending.  argmin returns the first
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

MAX_DEVICES = 24  # 2**K state tables; beyond this the instance is refused


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


def state_count(num_devices: int, num_layers: int) -> int:
    """Size of the state table, K * L * 2**K; refuses oversized fleets."""
    if num_devices < 1 or num_layers < 1:
        raise ValueError("need at least one device and one layer")
    if num_devices > MAX_DEVICES:
        raise ValueError(
            f"{num_devices} devices would need {num_devices} * L * 2**{num_devices} "
            f"states; the solver is limited to {MAX_DEVICES} devices")
    return num_devices * num_layers * (1 << num_devices)


@dataclass
class DpTable:
    """Solved state table plus back-pointers for plan reconstruction."""

    values: np.ndarray       # (2**K, L+1, K) completion times, +inf if unreachable
    split: np.ndarray        # (2**K, L+1, K) final-segment boundary i (0 = base)
    prev_device: np.ndarray  # (2**K, L+1, K) predecessor device (-1 = base)
    num_layers: int
    num_devices: int


@dataclass(frozen=True)
class SolveResult:
    makespan_s: float
    plan: Plan


def compute_table(tables: CostTables) -> DpTable:
    """Fill the full (S, j, d) table bottom-up."""
    L = tables.num_layers
    K = tables.num_devices
    state_count(K, L)  # enforces the fleet-size guard

    load_s, comp_s, comm_s = tables.load_s, tables.comp_s, tables.comm_s
    # Infeasible segments cost +inf.
    comp_or_inf = np.where(tables.fits, comp_s, np.inf)

    n_masks = 1 << K
    values = np.full((n_masks, L + 1, K), np.inf)
    split = np.full((n_masks, L + 1, K), -1, dtype=np.int32)
    prev_device = np.full((n_masks, L + 1, K), -1, dtype=np.int32)

    # Base cases: a single segment 1..j on device d, no communication.
    for d in range(K):
        mask = 1 << d
        base = load_s[d, 0, :] + comp_s[d, 0, :]
        feasible = tables.fits[d, 0, :]
        values[mask, feasible, d] = base[feasible]
        split[mask, feasible, d] = 0
        # prev_device stays -1: the base marker

    # One candidate block per (S, d), rows (split i, predecessor), columns j.
    block = np.empty((L + 1) * (K - 1) * (L + 1))
    cols = np.arange(L + 1)
    for s_mask in range(1, n_masks):
        members = [d for d in range(K) if (s_mask >> d) & 1]
        if len(members) < 2:
            continue
        for d in members:
            preds = [p for p in members if p != d]
            n = len(preds)
            prev = values[s_mask ^ (1 << d)][:, preds]  # (i, pred)
            cand = block[:(L + 1) * n * (L + 1)].reshape(L + 1, n, L + 1)
            np.maximum(load_s[d][:, None, :], prev[:, :, None], out=cand)
            cand += comm_s[preds, d].T[:, :, None]
            cand += comp_or_inf[d][:, None, :]
            rows = cand.reshape((L + 1) * n, L + 1)
            best = np.argmin(rows, axis=0)
            vals = rows[best, cols]
            reached = vals < np.inf
            values[s_mask, reached, d] = vals[reached]
            split[s_mask, reached, d] = best[reached] // n
            prev_device[s_mask, reached, d] = np.asarray(preds)[best[reached] % n]

    return DpTable(values=values, split=split, prev_device=prev_device,
                   num_layers=L, num_devices=K)


def best_final_state(table: DpTable) -> tuple[float, int, int]:
    """Minimum over all (S, d) of the full-model completion time.

    Ties prefer fewer devices, then the smaller mask, then the smaller
    device index.  Raises InfeasibleError if every state is unreachable.
    """
    finals = table.values[:, table.num_layers, :]
    best = finals.min()
    if not np.isfinite(best):
        raise InfeasibleError(
            "no layer partition satisfies the per-device memory constraints")
    masks, devs = np.nonzero(finals == best)
    order = min(range(len(masks)),
                key=lambda k: (int(masks[k]).bit_count(), masks[k], devs[k]))
    return float(best), int(masks[order]), int(devs[order])


def reconstruct(table: DpTable, final_mask: int, final_device: int) -> Plan:
    """Walk back-pointers from (final_mask, L, final_device) to the base
    marker, emitting stages in pipeline order."""
    if not np.isfinite(table.values[final_mask, table.num_layers, final_device]):
        raise ValueError("cannot reconstruct from an unreachable state")
    stages: list[PlanStage] = []
    mask, j, dev = final_mask, table.num_layers, final_device
    for _ in range(table.num_devices + 1):
        i = int(table.split[mask, j, dev])
        d_prev = int(table.prev_device[mask, j, dev])
        if i < 0 or not (mask >> dev) & 1 or i >= j:
            raise RuntimeError(f"corrupt back-pointer at state ({mask}, {j}, {dev})")
        stages.append(PlanStage(device=dev, start_layer=i + 1, end_layer=j))
        if i == 0:
            if d_prev != -1:
                raise RuntimeError("base state carries a predecessor device")
            stages.reverse()
            return Plan(stages=tuple(stages))
        mask, j, dev = mask ^ (1 << dev), i, d_prev
    raise RuntimeError("back-pointer chain longer than the device count")


def solve(tables: CostTables) -> SolveResult:
    """Exact optimum of the cold-start makespan for this scenario."""
    table = compute_table(tables)
    makespan, mask, dev = best_final_state(table)
    plan = reconstruct(table, mask, dev)
    validate_plan(plan, tables, check_memory=True)
    return SolveResult(makespan_s=makespan, plan=plan)
