"""Comparison strategies and a brute-force exact oracle.

Three static baselines:
  single_device  everything on the strongest device, memory deliberately
                 waived (an idealized reference point);
  even           near-equal layer counts, stronger devices first;
  heuristic      layer counts proportional to the harmonic mean of compute
                 and disk speed, stronger devices first.

The heuristic score is the harmonic mean of raw peak FLOPS and raw disk
bytes/s (dominated by the smaller rate).

brute_force enumerates every stage count, layer composition and ordered
device selection, in that order, on small instances, scoring each candidate
with the same timeline evaluator the solver is checked against.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations
from math import comb, perm
from typing import Iterator, Sequence

from .cost_tables import CostTables
from .device_model import DeviceProfile
from .dp_scheduler import Plan, PlanStage
from .errors import InfeasibleError, LimitError
from .timeline import evaluate, tie_key

MAX_ORACLE_PLANS = 27_545  # enumerate_plans' count at 5 devices and 10 layers


def _by_strength(devices: Sequence[DeviceProfile]) -> list[int]:
    """Device indices sorted by descending peak compute (index breaks ties)."""
    return sorted(range(len(devices)), key=lambda d: (-devices[d].peak_flops, d))


def _plan(devices: Sequence[int], bounds: Sequence[int]) -> Plan:
    """Stage n runs layers bounds[n]+1..bounds[n+1] on devices[n]; empty
    stages are dropped."""
    return Plan(stages=tuple([
        PlanStage(device=dev, start_layer=lo + 1, end_layer=hi)
        for dev, lo, hi in zip(devices, bounds, bounds[1:]) if hi > lo]))


def single_device_plan(devices: Sequence[DeviceProfile], num_layers: int) -> Plan:
    """All layers on the strongest device.  The memory constraint is waived
    for this strategy; evaluate it with check_memory=False."""
    return _plan(_by_strength(devices)[:1], (0, num_layers))


def _proportional_plan(devices: Sequence[DeviceProfile], num_layers: int,
                       scores: Sequence[float]) -> Plan:
    """Layer counts proportional to the scores, stronger devices first, by
    largest remainder (ties favor stronger devices); 0-layer devices drop."""
    total = sum(scores)
    order = _by_strength(devices)
    quotas = [num_layers * scores[d] / total for d in order]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(order)),
                          key=lambda rank: (-(quotas[rank] - counts[rank]), rank))
    for rank in by_remainder[:num_layers - sum(counts)]:
        counts[rank] += 1
    return _plan(order, (0, *accumulate(counts)))


def even_plan(devices: Sequence[DeviceProfile], num_layers: int) -> Plan:
    """Layer counts differing by at most one; remainder layers and earlier
    stages go to stronger devices.  Weakest devices are dropped when there
    are fewer layers than devices."""
    return _proportional_plan(devices, num_layers, [1.0] * len(devices))


def heuristic_scores(devices: Sequence[DeviceProfile]) -> list[float]:
    """Harmonic mean of compute and disk speed per device."""
    return [2.0 * dev.peak_flops * dev.disk_bytes_per_s
            / (dev.peak_flops + dev.disk_bytes_per_s) for dev in devices]


def heuristic_plan(devices: Sequence[DeviceProfile], num_layers: int) -> Plan:
    """Layer counts proportional to the harmonic-mean score."""
    return _proportional_plan(devices, num_layers, heuristic_scores(devices))


# name -> plan builder of each baseline; the other two strategies need cost tables
BASELINE_PLANS = {"even": even_plan, "heuristic": heuristic_plan,
                  "single_device": single_device_plan}
STRATEGIES = ("optimal_dp", *BASELINE_PLANS, "brute_force")


def plan_for_strategy(strategy: str, devices: Sequence[DeviceProfile],
                      num_layers: int) -> Plan:
    """Build the named baseline plan."""
    if strategy not in BASELINE_PLANS:
        raise ValueError(f"no static plan for strategy {strategy!r}")
    return BASELINE_PLANS[strategy](devices, num_layers)


def enumerate_plans(num_devices: int, num_layers: int) -> Iterator[Plan]:
    """Every candidate, by stage count n, then cut points (n-1 of the L-1
    inner layer boundaries, in increasing order), then ordered selection of
    n devices.  The stages of one cut are built once and shared by its plans."""
    # tie_key tells any two plans apart, so brute_force's pick ignores this order
    for n_stages in range(1, min(num_devices, num_layers) + 1):
        selections = list(permutations(range(num_devices), n_stages))
        for cuts in combinations(range(1, num_layers), n_stages - 1):
            bounds = (0, *cuts, num_layers)
            row = [[PlanStage(d, lo + 1, hi) for d in range(num_devices)]
                   for lo, hi in zip(bounds, bounds[1:])]
            for selection in selections:
                yield Plan(tuple(map(list.__getitem__, row, selection)))


def brute_force(tables: CostTables) -> tuple[float, Plan]:
    """Exhaustive exact optimum; LimitError past MAX_ORACLE_PLANS candidates.

    Memory-infeasible candidates are skipped; ties break by `tie_key`, the
    solver's order.
    """
    K, L = tables.num_devices, tables.num_layers
    plans = sum(perm(K, n) * comb(L - 1, n - 1) for n in range(1, min(K, L) + 1))
    if plans > MAX_ORACLE_PLANS:
        raise LimitError(
            f"brute force would score {plans:,} plans on {K} devices and {L} layers, "
            f"over the limit of {MAX_ORACLE_PLANS:,}; use the solver instead")

    fits = tables.fits.tolist()  # nested lists index faster than the array
    best_key, best = None, None
    for plan in enumerate_plans(K, L):
        if not all(fits[s.device][s.start_layer - 1][s.end_layer] for s in plan.stages):
            continue
        timeline = evaluate(plan, tables, check_memory=False)
        # the key starts with the makespan, so a longer plan cannot win
        if best is None or timeline.makespan_s <= best_key[0]:
            key = tie_key(timeline)
            if best is None or key < best_key:
                best_key, best = key, plan
    if best is None:
        raise InfeasibleError(
            "no layer partition satisfies the per-device memory constraints")
    return best_key[0], best
