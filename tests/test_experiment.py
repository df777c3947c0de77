import dataclasses
import re

import pytest

from coldpipe.dp_scheduler import Plan, PlanStage, SolveResult, solve, validate_plan
from coldpipe.errors import InfeasibleError
from coldpipe.experiment import (Scenario, SuiteInstance, average_improvement_pct,
                                 random_instance_suite, run_sweep,
                                 verify_suite)
from coldpipe.timeline import evaluate
from conftest import make_device, tab1_scenario

REL = 1e-9


def test_sweep_row_count():
    rows = run_sweep(tab1_scenario())
    assert len(rows) == 24
    assert [r.token_length for r in rows[:4]] == [256] * 4
    assert {r.strategy for r in rows} == {"optimal_dp", "even", "heuristic",
                                          "single_device"}


def test_single_cell_sweep():
    sc = tab1_scenario()
    small = Scenario(model=sc.model, devices=sc.devices, token_lengths=(2048,),
                     strategies=("even",))
    rows = run_sweep(small)
    assert len(rows) == 1
    assert rows[0].improvement_pct is None


def test_dominance_and_positive_improvement():
    rows = run_sweep(tab1_scenario())
    by_token = {}
    for r in rows:
        by_token.setdefault(r.token_length, {})[r.strategy] = r
    for t, cells in by_token.items():
        dp = cells["optimal_dp"].makespan_s
        for s in ("even", "heuristic", "single_device"):
            assert dp <= cells[s].makespan_s * (1 + REL)
        assert cells["optimal_dp"].improvement_pct is not None
        assert cells["even"].improvement_pct is None
    improvements = [cells["optimal_dp"].improvement_pct
                    for cells in by_token.values()]
    assert any(i > 0 for i in improvements)


def test_sweep_reproducible():
    assert run_sweep(tab1_scenario()) == run_sweep(tab1_scenario())


def test_average_improvement_in_reported_vicinity():
    rows = run_sweep(tab1_scenario())
    avg = average_improvement_pct(rows)
    assert 5.0 < avg < 40.0  # tight bands live in the acceptance suite


def test_improvement_against_best_baseline_definition():
    rows = run_sweep(tab1_scenario())
    by_token = {}
    for r in rows:
        by_token.setdefault(r.token_length, {})[r.strategy] = r
    for cells in by_token.values():
        best = min(cells[s].makespan_s
                   for s in ("even", "heuristic", "single_device"))
        dp = cells["optimal_dp"]
        expected = (best - dp.makespan_s) / best * 100.0
        assert dp.improvement_pct == pytest.approx(expected, rel=1e-12)


def test_scenario_validation():
    sc = tab1_scenario()
    with pytest.raises(ValueError):
        Scenario(model=sc.model, devices=sc.devices, token_lengths=(),
                 strategies=("even",))
    with pytest.raises(ValueError):
        Scenario(model=sc.model, devices=sc.devices, token_lengths=(0,),
                 strategies=("even",))
    with pytest.raises(ValueError):
        Scenario(model=sc.model, devices=sc.devices, token_lengths=(128,),
                 strategies=("nonsense",))
    with pytest.raises(ValueError):
        Scenario(model=sc.model, devices=(), token_lengths=(128,),
                 strategies=("even",))
    with pytest.raises(ValueError, match="token_lengths lists 128 twice"):
        Scenario(model=sc.model, devices=sc.devices, token_lengths=(128, 256, 128),
                 strategies=("even",))
    with pytest.raises(ValueError, match="strategies lists 'even' twice"):
        Scenario(model=sc.model, devices=sc.devices, token_lengths=(128,),
                 strategies=("even", "heuristic", "even"))


def test_suite_deterministic():
    a = random_instance_suite(20, seed=42)
    b = random_instance_suite(20, seed=42)
    assert a == b
    c = random_instance_suite(20, seed=43)
    assert a != c


def test_suite_count_and_bounds():
    suite = random_instance_suite(100, seed=0)
    assert len(suite) == 100
    for inst in suite:
        sc = inst.scenario
        assert 1 <= len(sc.devices) <= 4
        assert 1 <= sc.model.num_layers <= 8
        assert sc.strategies == ("optimal_dp", "brute_force")


def test_verify_suite_passes():
    outcomes = verify_suite(random_instance_suite(25, seed=9))
    assert all(o.ok for o in outcomes)


def test_verify_suite_detects_miscosted_solver():
    def skewed_solver(tables):
        result = solve(tables)
        return SolveResult(makespan_s=result.makespan_s * 1.01,
                           plan=result.plan)

    outcomes = verify_suite(random_instance_suite(10, seed=9),
                            solver=skewed_solver)
    assert any(not o.ok for o in outcomes)


def test_verify_suite_detects_mirrored_plan():
    # on two identical devices the mirrored plan has the same makespan, so
    # only the plan check can catch it
    model = dataclasses.replace(tab1_scenario().model, num_layers=4)
    sc = Scenario(model=model, devices=(make_device(0), make_device(1)),
                  token_lengths=(512,), strategies=("optimal_dp", "brute_force"))

    def mirrored_solver(tables):
        result = solve(tables)
        stages = tuple(dataclasses.replace(s, device=1 - s.device)
                       for s in result.plan.stages)
        return SolveResult(makespan_s=result.makespan_s, plan=Plan(stages))

    [outcome] = verify_suite([SuiteInstance(sc)], solver=mirrored_solver)
    assert not outcome.ok
    assert outcome.detail == "solver plan 0:1-2|1:3-4 != oracle plan 1:1-2|0:3-4"


def test_verify_suite_names_the_solver_refusal():
    # every layer on device 0 overflows its memory on some instances the
    # oracle solves; the detail carries the solver's own message
    def one_device_solver(tables):
        plan = Plan((PlanStage(device=0, start_layer=1, end_layer=tables.num_layers),))
        validate_plan(plan, tables)
        return SolveResult(makespan_s=evaluate(plan, tables).makespan_s, plan=plan)

    outcomes = verify_suite(random_instance_suite(60, seed=0), solver=one_device_solver)
    refused = [o.detail for o in outcomes if o.detail.startswith("only the solver")]
    assert refused
    for detail in refused:
        assert re.fullmatch(r"only the solver reports infeasibility: stage PlanStage\(.*\) "
                            r"needs \S+ B but device \d+ has \S+ B", detail)


def test_infeasibility_reports_token_length():
    model = tab1_scenario().model
    tiny = (make_device(0, memory=1e6),)
    sc = Scenario(model=model, devices=tiny, token_lengths=(512,),
                  strategies=("optimal_dp",))
    with pytest.raises(InfeasibleError, match="512"):
        run_sweep(sc)
