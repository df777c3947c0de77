import math

import pytest

from coldpipe import baselines
from coldpipe.baselines import (MAX_ORACLE_PLANS, brute_force, enumerate_plans,
                                even_plan, heuristic_plan, heuristic_scores,
                                plan_for_strategy, single_device_plan)
from coldpipe.dp_scheduler import PlanStage, solve, validate_plan
from coldpipe.errors import InfeasibleError, LimitError
from coldpipe.experiment import build_tables, random_instance_suite
from coldpipe.timeline import evaluate, tie_key
from conftest import make_device, make_tables


def test_single_device_plan_picks_strongest(fleet):
    plan = single_device_plan(fleet, 40)
    assert plan.stages == (PlanStage(device=0, start_layer=1, end_layer=40),)


def test_single_device_memory_is_waived(tab1_tables, fleet):
    tables = tab1_tables(2048)
    plan = single_device_plan(fleet, 40)
    # 26.4 GB of weights exceed the 20 GB budget, hence the waiver
    assert tables.mem_footprint(1, 40) > tables.memory_bytes[0]
    tl = evaluate(plan, tables, check_memory=False)
    assert tl.stages[0].comm_s == 0.0
    assert tl.makespan_s == tables.load_s[0, 0, 40] + tables.comp_s[0, 0, 40]


def test_even_plan_forty_over_four(fleet):
    plan = even_plan(fleet, 40)
    assert plan.devices == (0, 1, 2, 3)
    assert tuple(s.layer_count for s in plan.stages) == (10, 10, 10, 10)


def test_even_plan_remainder_to_strongest(fleet):
    plan = even_plan(fleet, 5)
    assert tuple(s.layer_count for s in plan.stages) == (2, 1, 1, 1)
    assert plan.devices == (0, 1, 2, 3)


def test_even_plan_drops_weakest_when_short(fleet):
    plan = even_plan(fleet, 3)
    assert plan.devices == (0, 1, 2)
    assert tuple(s.layer_count for s in plan.stages) == (1, 1, 1)


def test_heuristic_shares_table_fleet(fleet):
    # raw harmonic mean of (peak FLOPS, disk B/s) is disk-dominated:
    # scores ~ (10, 8, 6, 4) GB/s -> counts (14, 11, 9, 6) over 40 layers
    plan = heuristic_plan(fleet, 40)
    assert plan.devices == (0, 1, 2, 3)
    counts = tuple(s.layer_count for s in plan.stages)
    assert counts == (14, 11, 9, 6)
    assert counts[0] == max(counts)


def test_heuristic_equals_even_for_identical_devices():
    devices = [make_device(i) for i in range(4)]
    for layers in (3, 5, 16, 40):
        assert heuristic_plan(devices, layers) == even_plan(devices, layers)


def test_heuristic_punishes_slow_disk():
    devices = [make_device(0, disk=5e9), make_device(1, disk=5e9),
               make_device(2, disk=5.0)]  # nearly no disk bandwidth
    plan = heuristic_plan(devices, 30)
    assert plan.layer_share(2) <= 1


def test_all_baselines_satisfy_plan_invariants(tab1_tables, fleet):
    tables = tab1_tables(1024)
    for strategy in ("even", "heuristic"):
        validate_plan(plan_for_strategy(strategy, fleet, 40), tables,
                      check_memory=True)
    validate_plan(single_device_plan(fleet, 40), tables, check_memory=False)


def test_brute_force_candidate_count():
    # N=1..4 over 4 devices and 8 layers: 4 + 84 + 504 + 840 = 1432
    assert sum(1 for _ in enumerate_plans(4, 8)) == 1432


@pytest.mark.parametrize("num_devices", range(1, 6))
def test_enumerate_plans_yields_every_plan_once(num_devices):
    # an ordered choice of n devices times n-1 cut points among the L-1
    # inner layer boundaries, for every stage count n
    for num_layers in range(1, 11):
        plans = list(enumerate_plans(num_devices, num_layers))
        assert len(set(plans)) == len(plans)
        for plan in plans:
            assert [s.start_layer for s in plan.stages] == \
                [1] + [s.end_layer + 1 for s in plan.stages[:-1]]
            assert plan.stages[-1].end_layer == num_layers
            assert all(s.start_layer <= s.end_layer for s in plan.stages)
            assert len(set(plan.devices)) == len(plan.devices)
            assert all(0 <= d < num_devices for d in plan.devices)
        assert len(plans) == sum(math.perm(num_devices, n) * math.comb(num_layers - 1, n - 1)
                                 for n in range(1, min(num_devices, num_layers) + 1))


def test_brute_force_single_candidate():
    tables = make_tables([(1e12, 1e6, 5e8)] * 3, [make_device()])
    value, plan = brute_force(tables)
    assert tuple(s.layer_count for s in plan.stages) == (3,)
    assert value == tables.load_s[0, 0, 3] + tables.comp_s[0, 0, 3]


def test_brute_force_beats_static_baselines():
    devices = [make_device(0, peak=2e13, disk=4e9),
               make_device(1, peak=5e12, disk=2e9)]
    tables = make_tables([(5e12, 1e7, 2e9)] * 6, devices, t=2000)
    value, plan = brute_force(tables)
    for candidate in (even_plan(devices, 6), heuristic_plan(devices, 6),
                      single_device_plan(devices, 6)):
        assert value <= evaluate(candidate, tables).makespan_s


def test_brute_force_plan_budget():
    # the budget is enumerate_plans' count at 5 devices and 10 layers
    assert sum(1 for _ in enumerate_plans(5, 10)) == MAX_ORACLE_PLANS
    row = (1e12, 1e6, 5e8)
    with pytest.raises(LimitError, match="27,592 plans"):
        brute_force(make_tables([row] * 20, [make_device(i) for i in range(4)]))
    # at the budget the oracle runs, and finds no plan fitting 1 MB devices
    with pytest.raises(InfeasibleError):
        brute_force(make_tables([row] * 10, [make_device(i, memory=1e6) for i in range(5)]))
    # more than 5 devices or 10 layers, but few plans
    for num_devices, num_layers in ((6, 3), (1, 11)):
        tables = make_tables([row] * num_layers,
                             [make_device(i) for i in range(num_devices)])
        result = solve(tables)
        assert brute_force(tables) == (result.makespan_s, result.plan)


def test_oracle_pick_does_not_depend_on_candidate_order():
    # identical devices and equal layers: every device order of a cut ties
    tables = make_tables([(1e12, 1e6, 5e8)] * 5, [make_device(i) for i in range(3)])
    plans = list(enumerate_plans(tables.num_devices, tables.num_layers))
    keys = [tie_key(evaluate(plan, tables)) for plan in plans]
    assert len({key[0] for key in keys}) < len(keys)
    assert len(set(keys)) == len(keys)
    assert brute_force(tables)[1] == min(
        reversed(plans), key=lambda plan: tie_key(evaluate(plan, tables)))


def test_oracle_scores_exactly_the_memory_feasible_candidates(monkeypatch):
    calls = []
    monkeypatch.setattr(baselines, "evaluate",
                        lambda plan, *args, **kwargs: calls.append(plan) or
                        evaluate(plan, *args, **kwargs))
    row = (1e12, 1e6, 5e8)
    # a segment of k of these layers needs k * 0.5 GB and 1 MB more
    fleets = [make_tables([row] * 6, [make_device(0, memory=2.2e9),
                                      make_device(1, memory=1.1e9),
                                      make_device(2, memory=4.5e9)]),
              make_tables([row] * 3, [make_device(0, memory=1e6)])]
    for inst in random_instance_suite(150, seed=1):
        tables = build_tables(inst.scenario, inst.scenario.token_lengths[0])
        K, L = tables.num_devices, tables.num_layers
        if tables.fits.sum() < K * L * (L + 1) // 2:  # some segment does not fit
            fleets.append(tables)
    assert len(fleets) >= 12
    for tables in fleets:
        feasible = []
        for plan in enumerate_plans(tables.num_devices, tables.num_layers):
            try:
                validate_plan(plan, tables, check_memory=True)
            except InfeasibleError:
                continue
            feasible.append(plan)
        calls.clear()
        try:
            brute_force(tables)
        except InfeasibleError:
            assert not feasible
        assert calls == feasible


def test_brute_force_respects_memory():
    rows = [(1e12, 1e6, 5e8)] * 4
    devices = [make_device(0, memory=1.1e9), make_device(1, memory=1.1e9)]
    tables = make_tables(rows, devices)
    _, plan = brute_force(tables)
    for stage in plan.stages:
        assert tables.mem_footprint(stage.start_layer, stage.end_layer) <= 1.1e9


def test_brute_force_infeasible():
    tables = make_tables([(1e12, 1e6, 5e8)] * 4, [make_device(0, memory=1e6)])
    with pytest.raises(InfeasibleError):
        brute_force(tables)


def test_heuristic_scores_units():
    devices = [make_device(0, peak=1e13, disk=1e9)]
    raw = heuristic_scores(devices)[0]
    assert raw == pytest.approx(2 * 1e13 * 1e9 / (1e13 + 1e9), rel=1e-12)
