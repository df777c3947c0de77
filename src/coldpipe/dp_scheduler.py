"""Exact cold-start makespan minimization over layer partitions and device
assignments.

State space: (T, j, d) = minimum completion time after scheduling layers
1..j, the segment ending at layer j running on device d and the earlier
segments on the device subset T, d not in T.  T = 0 holds the one-stage
plans.  Subsets are bitmasks, filled level by level, one popcount |T| at a
time, and the whole (d, j) block for one T is computed in a single
vectorized step.  T's block reads only states of the level before,
(T - {p}, i, p), and writes only its own states (T, j, d).

The fill reads only live input.  A block scores only its rows (split i,
predecessor p) whose state (T - {p}, i, p) is finite, in (i, p) order, and
only the ends j past the first such split.  A T with no finite predecessor
is skipped, and the fill stops at the first level with none live.

The fill is its own branch and bound (Land & Doig 1960).  Its incumbent
starts at +inf, and after level 0 and after each block is written it drops
to the least finite value at j = L there: the makespan of a complete plan
already written.  A state (T, j, d) whose value plus LB(d, j) passes the
incumbent stays +inf.  LB is taken over the devices other than d, so it
needs no T and is one array per fill.  It is 0 at j = L; before it, LB is
the cheapest transfer of layer j's output from d to a device e other than
d, plus the least compute of layers j+1..L on one such device, +inf when
there is none.  It never exceeds what any plan through the state still
adds: the next stage runs on some e other than d and receives layer j's
output from d, and each device computes every layer at one rate
(`cost_tables.build`), so the later stages' compute is at least that of
layers j+1..L on the fastest device other than d.  So LB is admissible, as
in A* (Hart, Nilsson & Raphael 1968).  The incumbent never increases, and
each value it takes is a feasible plan's makespan, so it is never below
the optimum.

A state is also cut by dominance (Ibaraki 1977; Morin & Marsten 1976): a
block's state (T, j, d) stays +inf when some x in T has V(T - {x}, j, d)
<= V(T, j, d).  The subset states are one level down and already final.  The
completions of (T, j, d) use only devices outside T | {d}, so they also
complete (T - {x}, j, d).  The timeline's `max(load, upstream) + comm +
comp` does not decrease in the upstream finish, and float `max` and `+`
are monotone under rounding, so each completion through T - {x} ends no
later.  Every stored finite value is a real prefix's finish, even where
earlier cuts raised it, so a cut only drops a state for a real plan with
one device fewer that is no worse.

Neither cut touches the plan that the fill without them picks.  By
induction along its chain from the one-stage state, each state of the
chain keeps its value and first minimum: its predecessor on the chain
keeps its value, and the cuts only raised other candidates of its column.
Then its value plus LB is at most the picked plan's makespan, the optimum,
which is at most the incumbent, and PRUNE_SLACK absorbs the rounding of
the bound's sums, so the bound does not cut it.  Nor does dominance: a plan
with one device fewer would end no later, yet `best_final_state` and
`tie_key` put fewer devices first at an equal makespan.  Off the chain, a
finite value is the first minimum over the stored predecessors, which may
exceed the fill without cuts.  This rests on the tie order; a change to
`tie_key` must revisit the rule.

Since d is never in T, a state is stored at row `squeeze(T, d)`, T with bit
d removed, of tables shaped (2**(K-1), L+1, K): every cell is a state.  The
back-pointers take the narrowest signed integer type that holds both the
largest split, L-1, and the largest device index, K-1 (`pointer_dtype`).
They are defined where `values` is finite; split 0 marks a one-stage state.

Ties break by one key, `timeline.tie_key`, which the brute-force oracle
uses too: (makespan, stage count, device mask, then (device, finish time,
start layer) for each stage from the last).  The final pick orders equal
makespans by (number of devices, mask T | {d}, device).  Each (T, d, j)
transition takes one argmin over candidates whose flattened rows run over
(split i, predecessor device p), both ascending.  argmin returns the first
minimum, so the array order is the key's order: finish time, then the
stage's start layer i+1, then the device of the stage before it.  A
predecessor state on the picked chain holds the smallest finish time of its
prefix, which is the next element of the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cost_tables import MAX_TABLE_BYTES, CostTables
from .errors import InfeasibleError, LimitError, PlanError


# Relative slack of the incumbent: a state is cut only when its value plus
# its lower bound passes incumbent * (1 + PRUNE_SLACK), so rounding in the
# bound's sums never cuts a state of an optimal or tied plan.
PRUNE_SLACK = 1e-9


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
    prev_end = used = 0
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
        used |= 1 << stage.device
    # reuse is reported only after every stage passed the checks above
    if used.bit_count() != len(plan.stages):
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
    devices to K-1."""
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
    array is (2**(K-1), L+1, K), state (T, j, d) at [squeeze(T, d), j, d];
    the pointers are defined where `values` is finite.  A finite value is
    the first minimum over the stored predecessors; on the picked plan's
    chain it is the uncut fill's value."""

    values: np.ndarray       # float64 completion time; +inf if unreachable or cut
    split: np.ndarray        # pointer_dtype: final-segment boundary i (0 = one stage)
    prev_device: np.ndarray  # pointer_dtype: predecessor device, read if split > 0
    num_layers: int
    num_devices: int


@dataclass(frozen=True)
class SolveResult:
    makespan_s: float
    plan: Plan


def check_fill_bytes(num_devices: int, num_layers: int) -> None:
    """Raise LimitError when the tables, comp_or_inf and the fill's scratch
    pass MAX_TABLE_BYTES.  The limit admits K <= 19 devices at 40 or 60
    layers."""
    K, L = num_devices, num_layers
    size = (L + 1) ** 2
    # the scratch: a level's block and argmin's copy of the larger half of
    # it (blocks are split over d), at the level where they are largest; a
    # half's gathers are freed before its copy is made, and are no larger
    scratch = 8 * size * max(n * (K - n + (K - n + 1) // 2) for n in range(K))
    need = table_bytes(K, L) + 8 * K * size + scratch  # comp_or_inf
    if need > MAX_TABLE_BYTES:
        raise LimitError(
            f"{K} devices and {L} layers need {need:,} bytes of DP tables and "
            f"scratch, over the limit of {MAX_TABLE_BYTES:,} bytes")


def compute_table(tables: CostTables) -> DpTable:
    """Fill the (T, j, d) table bottom-up, one popcount of T at a time;
    raises LimitError, before any allocation, when the tables and the
    fill's scratch pass MAX_TABLE_BYTES.

    LB(d, j), over every device other than d, is one (K, L+1) array built
    once, before the tables; the module docstring defines it.  The
    incumbent is the least value at j = L of level 0.  In each block, a
    state whose value plus LB(d, j) passes incumbent * (1 + PRUNE_SLACK)
    stays +inf, and then the incumbent drops to the block's least value at
    j = L.  Then a state (T, j, d) stays +inf when some x in T has
    V(T - {x}, j, d) <= V(T, j, d): dominance, which the module docstring
    shows never cuts the picked plan.  A block scores only its rows (i, p)
    with a finite predecessor, in (i, p) order, and ends j past the first
    of them; every finite candidate is among them, so every first minimum
    is the uncompacted one."""
    L, K = tables.num_layers, tables.num_devices
    check_fill_bytes(K, L)
    # LB(d, j), built before the tables so that its temporaries never add to
    # their peak: each term's least over the devices e other than d
    other = ~np.eye(K, dtype=bool)[:, :, None]  # (d, e, j)
    lb = np.where(other, tables.comp_s[:, :, L], np.inf).min(axis=1)
    lb += np.where(other, tables.comm_s, np.inf).min(axis=1)
    lb[:, L] = 0.0

    # Infeasible segments cost +inf.
    comp_or_inf = np.where(tables.fits, tables.comp_s, np.inf)

    shape, pointer = (1 << (K - 1), L + 1, K), pointer_dtype(K, L)
    values = np.full(shape, np.inf)
    split = np.zeros(shape, dtype=pointer)
    prev_device = np.zeros(shape, dtype=pointer)

    # T = 0, row 0 for every d: a single segment 1..j on device d, no
    # communication; split stays 0.
    values[0] = (tables.load_s[:, 0, :] + comp_or_inf[:, 0, :]).T
    bound = values[0, L].min()  # the incumbent

    def fill(n: int) -> bool:
        """Level |T| = n: one candidate block per live T, (next device d,
        row (i, p), j), over the rows whose predecessor state (T - {p}, i,
        p) is finite and the ends j past the first of them.  The
        predecessors sit at rows squeeze(T, p), the states filled, (T, j,
        d), at rows squeeze(T, d).  False when no T of the level is live."""
        nonlocal bound
        m = K - n
        members = np.array(list(combinations(range(K), n)))  # (T, p)
        # reversed: the lesser of two n-sets has their least differing element, its complement not
        others = np.array(list(combinations(range(K), m)))[::-1]  # (T, d)
        masks = (1 << members).sum(axis=1)
        row_of = squeeze(masks[:, None], np.arange(K))
        # a block holds at most n rows i per split below L and ends j after them
        cand_buf = np.empty(m * n * L * L)
        best_buf = np.empty(m * L, dtype=np.intp)
        # argmin copies its input with the reduced axis last; halves over d
        # halve that copy
        halves = (slice(0, (m + 1) // 2), slice((m + 1) // 2, m))
        each_d, each_j = np.arange(m)[:, None], np.arange(L)
        live = False
        for t, mask in enumerate(masks.tolist()):
            preds, nexts, rows = members[t], others[t], row_of[t]
            prev = values[rows[preds], :L, preds].T  # (i, p)
            si, pp = np.nonzero(prev < np.inf)  # the live rows, in (i, p) order
            if not si.size:
                continue
            live, a = True, int(si[0])  # ends j from a + 1
            wj, up = L - a, prev[si, pp][:, None]
            comm = tables.comm_s[preds[pp], nexts[:, None], si][..., None]
            cand = cand_buf[:m * si.size * wj].reshape(m, si.size, wj)
            best = best_buf[:m * wj].reshape(m, wj)  # (d, j)
            for half in halves:
                # gathered a half at a time, so no gather outlives argmin's copy
                at = nexts[half, None], si, slice(a + 1, None)
                np.maximum(tables.load_s[at], up, out=cand[half])
                cand[half] += comm[half]
                cand[half] += comp_or_inf[at]
                cand[half].argmin(axis=1, out=best[half])
            vals = cand[each_d, best, each_j[:wj]]
            vals[vals + lb[nexts, a + 1:] > bound * (1 + PRUNE_SLACK)] = np.inf
            bound = min(bound, vals[:, -1].min())
            # dominance: a subset state one device fewer, no later
            fewer = values[squeeze(mask ^ (1 << preds)[:, None], nexts), a + 1:, nexts]
            vals[fewer.min(axis=0) <= vals] = np.inf
            out = rows[nexts]
            values[out, a + 1:, nexts] = vals
            split[out, a + 1:, nexts] = si[best]
            prev_device[out, a + 1:, nexts] = preds[pp[best]]
        return live

    for n in range(1, K):
        if not fill(n):
            break

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
    final_device to a one-stage state, emitting stages in pipeline order.
    Every state stepped onto must be finite: a pointer is defined only there."""
    rest, j, dev = final_mask ^ (1 << final_device), table.num_layers, final_device
    if (not (final_mask >> dev) & 1
            or not np.isfinite(table.values[squeeze(rest, dev), j, dev])):
        raise ValueError("cannot reconstruct from an unreachable state")
    stages: list[PlanStage] = []
    for _ in range(table.num_devices + 1):
        row = squeeze(rest, dev)
        i = int(table.split[row, j, dev])
        d_prev = int(table.prev_device[row, j, dev]) if i > 0 else 0
        # a pointer that wrapped in its narrow dtype fails here too
        if (i < 0 or i >= j or (rest >> dev) & 1 or not 0 <= d_prev < table.num_devices
                or not np.isfinite(table.values[row, j, dev])):
            raise RuntimeError(f"corrupt back-pointer at state ({rest}, {j}, {dev})")
        stages.append(PlanStage(device=dev, start_layer=i + 1, end_layer=j))
        if i == 0:
            if rest:
                raise RuntimeError("one-stage state carries predecessors")
            stages.reverse()
            return Plan(stages=tuple(stages))
        rest, j, dev = rest ^ (1 << d_prev), i, d_prev
    raise RuntimeError("back-pointer chain longer than the device count")


def solve(tables: CostTables) -> SolveResult:
    """Exact optimum of the cold-start makespan for this scenario, from one
    fill bounded by the best complete plan it has written."""
    table = compute_table(tables)
    makespan, mask, dev = best_final_state(table)
    plan = reconstruct(table, mask, dev)
    validate_plan(plan, tables, check_memory=True)
    return SolveResult(makespan_s=makespan, plan=plan)
