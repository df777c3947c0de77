"""Exact cold-start makespan minimization over layer partitions and device
assignments.

State space: (T, j, d) = minimum completion time after scheduling layers
1..j, the segment ending at layer j running on device d and the earlier
segments on the device subset T, d not in T.  T = 0 holds the one-stage
plans.  Subsets are bitmasks, filled level by level, one popcount |T| at a
time, and the whole (d, j) block for one T is computed in a single
vectorized step.  T's block reads only states of the level before,
(T - {p}, i, p), and writes only its own states (T, j, d), which no other
T's block writes.  So the blocks of one level are independent: a level
whose blocks reach MIN_THREADED_BLOCK candidates is dealt in contiguous
slices to the calling thread and one helper thread per further CPU, as
many as MAX_TABLE_BYTES has room for, and joined before the next level
reads it.  numpy releases the GIL in the block arithmetic and the argmin;
smaller levels run on the calling thread alone, and small fills start no
thread.

Since d is never in T, a state is stored at row `squeeze(T, d)`, T with bit
d removed, of tables shaped (2**(K-1), L+1, K): every cell is a state.  The
back-pointers take the narrowest signed integer type that holds both the
largest split, L-1, and the largest device index, K-1 (`pointer_dtype`);
-1 marks the base.

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

import os
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cost_tables import MAX_TABLE_BYTES, CostTables
from .errors import InfeasibleError, LimitError, PlanError


# Candidate elements of one block, |T| * (K - |T|) * (L+1)**2, below which
# a level runs on the calling thread alone.  Measured on 2 vCPUs at L = 60:
# K = 8's largest blocks (59,536) gained nothing on two threads, K = 10's
# (78,141 to 93,025) ran 1.2-1.4x faster.
MIN_THREADED_BLOCK = 65_536


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
    distinct in-range devices, InfeasibleError if checked memory overflows."""
    if not plan.stages:
        raise PlanError("plan has no stages")
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
    if len(set(plan.devices)) != len(plan.stages):
        raise PlanError(f"devices reused across stages: {list(plan.devices)}")
    if check_memory:
        for stage in plan.stages:
            if not tables.fits[stage.device, stage.start_layer - 1, stage.end_layer]:
                need = tables.mem_footprint(stage.start_layer, stage.end_layer)
                raise InfeasibleError(
                    f"stage {stage} needs {need:.3e} B but device "
                    f"{tables.devices[stage.device].id} has "
                    f"{tables.memory_bytes[stage.device]:.3e} B")


def pointer_dtype(num_devices: int, num_layers: int) -> np.dtype:
    """Narrowest signed integer type of the back-pointers: splits run to L-1,
    devices to K-1, and -1 marks the base."""
    largest = max(num_layers - 1, num_devices - 1)
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= largest)


def table_bytes(num_devices: int, num_layers: int) -> int:
    """Bytes of the three (2**(K-1), L+1, K) tables compute_table allocates,
    one float64 and two of `pointer_dtype`."""
    if num_devices < 1 or num_layers < 1:
        raise ValueError("need at least one device and one layer")
    itemsize = pointer_dtype(num_devices, num_layers).itemsize
    return (1 << (num_devices - 1)) * (num_layers + 1) * num_devices * (8 + 2 * itemsize)


def squeeze(mask, device):
    """Table row of the states (mask, j, device): mask with bit device
    removed."""
    low = (1 << device) - 1
    return (mask & low) | ((mask >> 1) & ~low)


@dataclass
class DpTable:
    """Solved state table plus back-pointers for plan reconstruction.  Each
    array is (2**(K-1), L+1, K), state (T, j, d) at [squeeze(T, d), j, d]."""

    values: np.ndarray       # float64 completion time; +inf if unreachable
    split: np.ndarray        # pointer_dtype: final-segment boundary i (0 = base)
    prev_device: np.ndarray  # pointer_dtype: predecessor device (-1 = base)
    num_layers: int
    num_devices: int


@dataclass(frozen=True)
class SolveResult:
    makespan_s: float
    plan: Plan


def worker_count() -> int:
    """CPUs this process may run on: the most workers a large level gets."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compute_table(tables: CostTables) -> DpTable:
    """Fill the full (T, j, d) table bottom-up, one popcount of T at a time;
    raises LimitError, before any allocation, when the tables and one
    worker's scratch pass MAX_TABLE_BYTES, and runs only as many workers as
    fit.  The limit admits K <= 19 devices at 40 or 60 layers."""
    L, K = tables.num_layers, tables.num_devices
    size = (L + 1) ** 2
    # a worker's scratch: its level's block and argmin's copy of the larger
    # half of it (blocks are split over d), at the level where they are largest
    per_worker = 8 * size * max(n * (K - n + (K - n + 1) // 2) for n in range(K))
    need = table_bytes(K, L) + 8 * K * size + per_worker  # comp_or_inf, one worker
    if need > MAX_TABLE_BYTES:
        raise LimitError(
            f"{K} devices and {L} layers need {need:,} bytes of DP tables and "
            f"scratch, over the limit of {MAX_TABLE_BYTES:,} bytes")
    # one device fills no level and has no scratch
    workers = min(worker_count(), 1 + (MAX_TABLE_BYTES - need) // max(per_worker, 1))

    # Infeasible segments cost +inf.
    comp_or_inf = np.where(tables.fits, tables.comp_s, np.inf)

    shape, pointer = (1 << (K - 1), L + 1, K), pointer_dtype(K, L)
    values = np.full(shape, np.inf)
    split = np.full(shape, -1, dtype=pointer)
    prev_device = np.full(shape, -1, dtype=pointer)

    # T = 0, row 0 for every d: a single segment 1..j on device d, no
    # communication; prev_device stays -1, the base marker.
    values[0] = (tables.load_s[:, 0, :] + comp_or_inf[:, 0, :]).T
    split[0][values[0] < np.inf] = 0

    below = (1 << np.arange(K)) - 1  # squeeze's masks for every d, made once
    above = ~below                   # rather than once per step
    failures: list[BaseException] = []

    def fill(level: list[tuple[int, ...]]) -> None:
        """One candidate block per T of one level, (next device d, split i,
        predecessor p, j).  The predecessor states (T - {p}, i, p) sit at
        rows squeeze(T, p), the states filled, (T, j, d), at rows
        squeeze(T, d)."""
        try:
            n = len(level[0])
            m = K - n
            cand = np.empty((m, L + 1, n, L + 1))
            rows = cand.reshape(m, (L + 1) * n, L + 1)
            # argmin copies its input with the reduced axis last; halves over
            # d halve that copy
            halves = (slice(0, (m + 1) // 2), slice((m + 1) // 2, m))
            best = np.empty((m, L + 1), dtype=np.intp)  # (d, j)
            for members in level:
                t_mask = sum(1 << p for p in members)
                preds = np.array(members)
                nexts = np.array([d for d in range(K) if d not in members])
                row_of = (t_mask & below) | ((t_mask >> 1) & above)  # squeeze(T, each d)
                prev = values[row_of[preds], :, preds].T  # (i, p)
                np.maximum(tables.load_s[nexts][:, :, None, :], prev[:, :, None], out=cand)
                cand += tables.comm_s[np.ix_(preds, nexts)].transpose(1, 2, 0)[..., None]
                cand += comp_or_inf[nexts][:, :, None, :]
                for half in halves:
                    rows[half].argmin(axis=1, out=best[half])
                vals = np.take_along_axis(rows, best[:, None, :], axis=1)[:, 0]
                reached = vals < np.inf
                out = row_of[nexts]
                values[out, :, nexts] = vals
                split[out, :, nexts] = np.where(reached, best // n, -1)
                prev_device[out, :, nexts] = np.where(reached, preds[best % n], -1)
        except BaseException as err:  # re-raised by the calling thread
            failures.append(err)

    for n in range(1, K):
        level = list(combinations(range(K), n))
        share = min(workers, len(level)) if n * (K - n) * size >= MIN_THREADED_BLOCK else 1
        # contiguous slices: neighbours in combination order write the same
        # rows of the tables, which would bounce cache lines between workers
        parts = [level[w * len(level) // share:(w + 1) * len(level) // share]
                 for w in range(share)]
        helpers = [threading.Thread(target=fill, args=(part,)) for part in parts[1:]]
        for helper in helpers:
            helper.start()
        fill(parts[0])
        for helper in helpers:
            helper.join()
        if failures:
            raise failures[0]

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
    rows, devs = np.nonzero(finals == best)
    # T | {d}: the inverse of squeeze opens a clear bit d in the row; set it
    low = (1 << devs) - 1
    masks = (rows & low) | ((rows & ~low) << 1) | (1 << devs)
    order = min(range(len(masks)),
                key=lambda k: (int(masks[k]).bit_count(), masks[k], devs[k]))
    return float(best), int(masks[order]), int(devs[order])


def reconstruct(table: DpTable, final_mask: int, final_device: int) -> Plan:
    """Walk back-pointers from the plan on devices final_mask ending on
    final_device to the base marker, emitting stages in pipeline order."""
    rest, j, dev = final_mask ^ (1 << final_device), table.num_layers, final_device
    if (not (final_mask >> dev) & 1
            or not np.isfinite(table.values[squeeze(rest, dev), j, dev])):
        raise ValueError("cannot reconstruct from an unreachable state")
    stages: list[PlanStage] = []
    for _ in range(table.num_devices + 1):
        row = squeeze(rest, dev)
        i = int(table.split[row, j, dev])
        d_prev = int(table.prev_device[row, j, dev])
        # a pointer that wrapped in its narrow dtype fails here too
        if (i < 0 or i >= j or (rest >> dev) & 1
                or not (d_prev == -1 if i == 0 else 0 <= d_prev < table.num_devices)):
            raise RuntimeError(f"corrupt back-pointer at state ({rest}, {j}, {dev})")
        stages.append(PlanStage(device=dev, start_layer=i + 1, end_layer=j))
        if i == 0:
            if rest:
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
