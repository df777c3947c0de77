"""Scenario sweeps, randomized instance suites, and solver-vs-oracle
verification.

A sweep rebuilds the cost tables at every token length (effective compute
depends on the workload), runs each requested strategy under the shared
timeline evaluator, and reports the solver's improvement over the best
baseline at the same token length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from . import baselines, cost_tables, dp_scheduler
from .device_model import DeviceProfile, RadioParams
from .errors import InfeasibleError
from .model_profile import ModelConfig, build_profiles, layer_sizes
from .timeline import Timeline, evaluate

RELATIVE_TOLERANCE = 1e-9


def close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one experiment run."""

    model: ModelConfig
    devices: tuple[DeviceProfile, ...]
    token_lengths: tuple[int, ...]
    strategies: tuple[str, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "token_lengths", tuple(self.token_lengths))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        if not self.token_lengths or any(t < 1 for t in self.token_lengths):
            raise ValueError("token_lengths must be nonempty and positive")
        for t in self.token_lengths:
            layer_sizes(self.model, t)
        if not self.strategies:
            raise ValueError("scenario needs at least one strategy")
        for s in self.strategies:
            if s not in baselines.STRATEGIES:
                raise ValueError(
                    f"unknown strategy {s!r}; valid: {baselines.STRATEGIES}")
        # a repeat writes its rows twice and counts twice in average_improvement_pct
        for key in ("token_lengths", "strategies"):
            entries = getattr(self, key)
            for k, entry in enumerate(entries):
                if entry in entries[:k]:
                    raise ValueError(f"{key} lists {entry!r} twice")


@dataclass(frozen=True)
class ResultRow:
    """One (token length, strategy) cell of a sweep."""

    token_length: int
    strategy: str
    improvement_pct: float | None  # set only on optimal_dp rows
    timeline: Timeline

    @property
    def makespan_s(self) -> float:
        return self.timeline.makespan_s


def build_tables(scenario: Scenario, t: int) -> cost_tables.CostTables:
    """Cost tables of the scenario's model and fleet at token length t."""
    return cost_tables.build(build_profiles(scenario.model, t),
                             list(scenario.devices), t)


def run_cell(strategy: str, tables: cost_tables.CostTables) -> Timeline:
    """Timeline of one strategy on prebuilt tables."""
    if strategy == "optimal_dp":
        plan = dp_scheduler.solve(tables).plan
    elif strategy == "brute_force":
        _, plan = baselines.brute_force(tables)
    else:
        plan = baselines.plan_for_strategy(strategy, tables.devices, tables.num_layers)
    return evaluate(plan, tables, check_memory=(strategy != "single_device"))


def _run_token_length(scenario: Scenario, t: int) -> list[ResultRow]:
    tables = build_tables(scenario, t)
    timelines: dict[str, Timeline] = {}
    for strategy in scenario.strategies:
        try:
            timelines[strategy] = run_cell(strategy, tables)
        except InfeasibleError as err:
            raise InfeasibleError(
                f"strategy {strategy!r} at token length {t}: {err}") from err

    baseline_makespans = [timelines[s].makespan_s for s in scenario.strategies
                          if s in baselines.BASELINE_PLANS]
    rows = []
    for strategy in scenario.strategies:
        tl = timelines[strategy]
        improvement = None
        if strategy == "optimal_dp" and baseline_makespans:
            best = min(baseline_makespans)
            improvement = (best - tl.makespan_s) / best * 100.0
        rows.append(ResultRow(
            token_length=t,
            strategy=strategy,
            improvement_pct=improvement,
            timeline=tl,
        ))
    return rows


def run_sweep(scenario: Scenario) -> list[ResultRow]:
    """One row per (token length, strategy), in scenario order."""
    return [row for t in scenario.token_lengths
            for row in _run_token_length(scenario, t)]


def average_improvement_pct(rows: Sequence[ResultRow]) -> float:
    """Mean improvement of the optimal_dp rows over each token length's best
    baseline."""
    values = [r.improvement_pct for r in rows
              if r.strategy == "optimal_dp" and r.improvement_pct is not None]
    if not values:
        raise ValueError("no optimal_dp rows with baselines to compare against")
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Randomized small instances for solver-vs-oracle verification.

@dataclass(frozen=True)
class SuiteInstance:
    scenario: Scenario


# Value ranges of the device rows in configs/tab1.yaml; random devices draw
# from ranges widened tenfold each way (transmit powers and gain by 10 dB).
_FLEET_RANGES = {
    "peak_flops": (20e12, 165e12),
    "util_ceiling": (0.4, 0.8),
    "util_rate": (5.1e-4, 1.8e-3),
    "disk_bytes_per_s": (2000e6, 5000e6),
    "memory_bytes": (8e9, 20e9),
    "distance_m": (1.0, 7.0),
    "bandwidth_hz": (160e6, 160e6),
    "efficiency": (0.5, 0.5),
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _range10(key: str) -> tuple[float, float]:
    lo, hi = _FLEET_RANGES[key]
    return lo / 10.0, hi * 10.0


def _quantize(value: float, step: float) -> float:
    """Snap to a multiple of step (a binary fraction of the display unit),
    like real spec sheets do; keeps config round-trips exact."""
    return max(step, round(value / step) * step)


def _random_device(rng: random.Random, idx: int) -> DeviceProfile:
    radio = RadioParams(
        bandwidth_hz=_quantize(_log_uniform(rng, *_range10("bandwidth_hz")), 1.25e5),
        tx_power_up_dbm=rng.uniform(5.0, 30.0),
        tx_power_down_dbm=rng.uniform(15.0, 35.0),
        noise_dbm_per_hz=-174.0,
        distance_m=_log_uniform(rng, *_range10("distance_m")),
        ref_distance_m=1.0,
        path_loss_exp=rng.uniform(2.0, 4.0),
        ref_gain_db=rng.uniform(-57.2, -37.2),
        efficiency=min(1.0, _log_uniform(rng, *_range10("efficiency"))),
    )
    return DeviceProfile(
        id=idx + 1,
        peak_flops=_quantize(_log_uniform(rng, *_range10("peak_flops")), 1.25e11),
        util_ceiling=min(1.0, _log_uniform(rng, *_range10("util_ceiling"))),
        util_rate=_log_uniform(rng, *_range10("util_rate")),
        disk_bytes_per_s=_quantize(
            _log_uniform(rng, *_range10("disk_bytes_per_s")), 1e6),
        memory_bytes=_quantize(_log_uniform(rng, *_range10("memory_bytes")), 1.25e8),
        radio=radio,
    )


def _random_model(rng: random.Random, num_layers: int) -> ModelConfig:
    d_model = rng.choice([256, 512, 1024, 2048, 4096, 8192])
    h_q = rng.choice([2, 4, 8, 16, 32, 40])
    return ModelConfig(
        d_model=d_model,
        h_q=h_q,
        h_kv=rng.randint(1, h_q),
        d_head=rng.choice([32, 64, 128]),
        d_ff=d_model * rng.choice([2, 3, 4]),
        num_layers=num_layers,
        bytes_per_element=2,
    )


def random_instances(seed: int = 0) -> Iterator[SuiteInstance]:
    """Endless deterministic-from-seed instances sized for the brute-force
    oracle (at most 4 devices and 8 layers), each made when it is asked for."""
    rng = random.Random(seed)
    while True:
        num_devices = rng.randint(1, 4)
        num_layers = rng.randint(1, 8)
        model = _random_model(rng, num_layers)
        devices = tuple(_random_device(rng, i) for i in range(num_devices))
        t = round(_log_uniform(rng, 64, 8192))
        scenario = Scenario(
            model=model,
            devices=devices,
            token_lengths=(t,),
            strategies=("optimal_dp", "brute_force"),
            seed=seed,
        )
        yield SuiteInstance(scenario=scenario)


def random_instance_suite(count: int, seed: int = 0) -> list[SuiteInstance]:
    """The first count of `random_instances(seed)`."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return list(islice(random_instances(seed), count))


@dataclass(frozen=True)
class VerifyOutcome:
    index: int
    ok: bool
    detail: str


def _plan_text(plan: dp_scheduler.Plan) -> str:
    """Plan as `device:first-last|...`, device indices in pipeline order."""
    return "|".join(f"{s.device}:{s.start_layer}-{s.end_layer}"
                    for s in plan.stages)


def verify_suite(instances: Sequence[SuiteInstance]) -> list[VerifyOutcome]:
    """Check the solver's makespan and plan against the brute-force oracle,
    and replay the solver's plan, on every instance.

    dp_scheduler.solve is looked up at each call, so a test can replace it
    to prove that the harness detects a miscosted solver.
    """
    outcomes = []
    for idx, inst in enumerate(instances):
        sc = inst.scenario
        tables = build_tables(sc, sc.token_lengths[0])
        try:
            result, refusal = dp_scheduler.solve(tables), None
        except InfeasibleError as err:
            result, refusal = None, err
        try:
            oracle_value, oracle_plan = baselines.brute_force(tables)
        except InfeasibleError:
            oracle_value = None

        if result is None and oracle_value is None:
            outcomes.append(VerifyOutcome(idx, True, "both infeasible"))
            continue
        if result is None or oracle_value is None:
            outcomes.append(VerifyOutcome(idx, False, (
                f"only the solver reports infeasibility: {refusal}" if result is None
                else "only the oracle reports infeasibility")))
            continue
        dp_value = result.makespan_s
        replay = evaluate(result.plan, tables).makespan_s
        if not close_enough(dp_value, oracle_value):
            detail = f"solver {dp_value!r} != oracle {oracle_value!r}"
        elif result.plan != oracle_plan:
            detail = (f"solver plan {_plan_text(result.plan)} != "
                      f"oracle plan {_plan_text(oracle_plan)}")
        elif not close_enough(replay, dp_value):
            detail = f"plan replays to {replay!r}, solver claimed {dp_value!r}"
        else:
            detail = "ok"
        outcomes.append(VerifyOutcome(idx, detail == "ok", detail))
    return outcomes
