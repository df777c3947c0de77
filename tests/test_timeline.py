import pytest
from hypothesis import given, settings, strategies as st

from coldpipe.baselines import even_plan
from coldpipe.dp_scheduler import Plan, PlanStage, validate_plan
from coldpipe.errors import InfeasibleError, PlanError
from coldpipe.timeline import evaluate
from conftest import make_device, make_tables


def single_device_tables(disk=1e9, peak=1e13, memory=1e15, layers=4):
    rows = [(1e12, 1e6, 5e8)] * layers
    return make_tables(rows, [make_device(0, peak=peak, disk=disk, memory=memory)])


def test_single_stage_plan():
    tables = single_device_tables()
    plan = Plan(stages=(PlanStage(0, 1, 4),))
    tl = evaluate(plan, tables)
    assert tl.stages[0].comm_s == 0.0
    assert tl.stages[0].wait_s == 0.0
    assert tl.makespan_s == tables.load_s[0, 0, 4] + tables.comp_s[0, 0, 4]


def test_loading_hides_upstream_work():
    # two identical devices, stage-2 load far longer than stage-1 finish
    devices = [make_device(0, disk=1e12), make_device(1, disk=1e6)]
    tables = make_tables([(1e9, 1e6, 5e8)] * 4, devices)
    plan = Plan(stages=(PlanStage(0, 1, 2), PlanStage(1, 3, 4)))
    tl = evaluate(plan, tables)
    assert tl.stages[1].wait_s == 0.0
    assert tl.stages[1].start_s == tl.stages[1].load_s


def test_wait_when_upstream_straggles():
    devices = [make_device(0, disk=1e6, peak=1e10), make_device(1, disk=1e12)]
    tables = make_tables([(1e12, 1e6, 5e8)] * 4, devices)
    plan = Plan(stages=(PlanStage(0, 1, 2), PlanStage(1, 3, 4)))
    tl = evaluate(plan, tables)
    s2 = tl.stages[1]
    assert s2.wait_s > 0.0
    assert s2.wait_s == tl.stages[0].finish_s - s2.load_s
    assert s2.start_s == tl.stages[0].finish_s


def test_weak_devices_straggle_under_even_split(tab1_tables, fleet):
    # long-token regime: the weakest devices dominate the pipeline tail
    tables = tab1_tables(8192)
    tl = evaluate(even_plan(fleet, 40), tables)
    waits = [s.wait_s for s in tl.stages]
    assert waits[0] == 0.0
    assert waits[2] > 0.0 and waits[3] > 0.0
    assert waits[3] > waits[1]
    assert tl.stages[3].finish_s == tl.makespan_s


def test_evaluate_is_order_sensitive():
    devices = [make_device(0, disk=5e9, peak=1e14),
               make_device(1, disk=1e8, peak=1e12)]
    tables = make_tables([(1e12, 1e7, 5e8)] * 4, devices)
    forward = Plan(stages=(PlanStage(0, 1, 2), PlanStage(1, 3, 4)))
    backward = Plan(stages=(PlanStage(1, 1, 2), PlanStage(0, 3, 4)))
    assert evaluate(forward, tables).makespan_s != evaluate(backward, tables).makespan_s


def test_evaluate_returns_builtin_floats():
    devices = [make_device(0), make_device(1, peak=2e12, disk=4e9),
               make_device(2, dist=30.0)]
    tables = make_tables([(1e12, 1e6, 5e8)] * 6, devices)
    for stages in (((0, 1, 6),), ((1, 1, 2), (0, 3, 6)),
                   ((2, 1, 1), (0, 2, 4), (1, 5, 6)), ((0, 1, 1), (1, 2, 6))):
        tl = evaluate(Plan(tuple(PlanStage(*s) for s in stages)), tables)
        finish_prev, prev = 0.0, None
        for timing, (d, first, last) in zip(tl.stages, stages):
            load = float(tables.load_s[d, first - 1, last])
            comp = float(tables.comp_s[d, first - 1, last])
            comm = 0.0 if prev is None else float(tables.comm_s[prev, d, first - 1])
            start = max(load, finish_prev)
            expected = (load, comm, comp, start, (start + comm) + comp,
                        max(0.0, finish_prev - load))
            got = (timing.load_s, timing.comm_s, timing.comp_s, timing.start_s,
                   timing.finish_s, timing.wait_s)
            assert [type(x) for x in got] == [float] * 6
            assert got == expected
            finish_prev, prev = timing.finish_s, d
        assert type(tl.makespan_s) is float
        assert tl.makespan_s == finish_prev


def test_invalid_plans_rejected():
    tables = single_device_tables()
    with pytest.raises(PlanError):
        evaluate(Plan(stages=(PlanStage(0, 2, 4),)), tables)  # misses layer 1
    tables2 = make_tables([(1e12, 1e6, 5e8)] * 4,
                          [make_device(0), make_device(1)])
    with pytest.raises(PlanError):  # gap between stages
        evaluate(Plan(stages=(PlanStage(0, 1, 2), PlanStage(1, 4, 4))), tables2)
    with pytest.raises(PlanError):  # device reuse
        evaluate(Plan(stages=(PlanStage(0, 1, 2), PlanStage(0, 3, 4))), tables2)
    with pytest.raises(PlanError):  # does not reach the last layer
        evaluate(Plan(stages=(PlanStage(0, 1, 3),)), tables2)


# (stages as (device, first, last), the faults, the expected message): the
# first fault in validate_plan's order of checks decides the exception
TWO_FAULT_PLANS = [
    (((0, 1, 2), (0, 4, 4)), "gap + reuse",
     "stage starting at layer 4 is not contiguous with previous end 2"),
    (((0, 1, 2), (0, 3, 3), (5, 4, 4)), "reuse + out-of-range device",
     "unknown device index 5"),
    (((0, 1, 1), (-1, 2, 2), (0, 3, 4)), "negative device + reuse",
     "unknown device index -1"),
    (((0, 1, 2), (0, 3, 2), (1, 3, 4)), "empty stage + reuse",
     "empty stage PlanStage(device=0, start_layer=3, end_layer=2)"),
    (((0, 1, 1), (1, 3, 3)), "short last stage + gap",
     "last stage must end at layer 4"),
    (((0, 1, 2), (1, 3, 3), (0, 4, 4)), "reuse alone",
     "devices reused across stages: [0, 1, 0]"),
]


@pytest.mark.parametrize("stages, faults, message", TWO_FAULT_PLANS,
                         ids=[faults for _, faults, _ in TWO_FAULT_PLANS])
def test_plan_error_precedence(stages, faults, message):
    tables = make_tables([(1e12, 1e6, 5e8)] * 4, [make_device(0), make_device(1)])
    plan = Plan(tuple(PlanStage(*s) for s in stages))
    with pytest.raises(PlanError) as info:
        validate_plan(plan, tables, check_memory=False)
    assert type(info.value) is PlanError
    assert str(info.value) == message


def test_reuse_is_reported_before_memory():
    # device 0 fits no layer, so this plan breaks memory too; reuse wins
    tables = make_tables([(1e12, 1e6, 5e8)] * 4,
                         [make_device(0, memory=1e6), make_device(1)])
    plan = Plan((PlanStage(0, 1, 2), PlanStage(0, 3, 4)))
    with pytest.raises(PlanError) as info:
        validate_plan(plan, tables, check_memory=True)
    assert type(info.value) is PlanError
    assert str(info.value) == "devices reused across stages: [0, 0]"
    with pytest.raises(InfeasibleError):
        validate_plan(Plan((PlanStage(0, 1, 2), PlanStage(1, 3, 4))), tables)


def test_memory_check_optional():
    tables = make_tables([(1e12, 1e6, 5e8)] * 4,
                         [make_device(0, memory=1e8)])  # fits no layer
    plan = Plan(stages=(PlanStage(0, 1, 4),))
    with pytest.raises(PlanError):
        evaluate(plan, tables, check_memory=True)
    tl = evaluate(plan, tables, check_memory=False)
    assert tl.makespan_s > 0


def test_records_are_immutable():
    tl = evaluate(Plan((PlanStage(0, 1, 4),)), single_device_tables())
    with pytest.raises(AttributeError):
        tl.stages[0].load_s = 0.0
    with pytest.raises(AttributeError):
        tl.makespan_s = 0.0


def test_phases_are_the_gantt_intervals(tab1_tables, fleet):
    for s in evaluate(even_plan(fleet, 40), tab1_tables(8192)).stages:
        comm_end = s.start_s + s.comm_s
        assert s.phases == (("load", 0.0, s.load_s), ("wait", s.load_s, s.start_s),
                            ("comm", s.start_s, comm_end),
                            ("comp", comm_end, s.finish_s))


def test_bubble_report_matches_recomputation(tab1_tables, fleet):
    tables = tab1_tables(4096)
    tl = evaluate(even_plan(fleet, 40), tables)
    waits = [s.wait_s for s in tl.stages]
    finish_prev = 0.0
    for stage, wait in zip(tl.stages, waits):
        assert wait == max(0.0, finish_prev - stage.load_s)
        finish_prev = stage.finish_s
    assert tl.total_wait_s == sum(waits)


def test_bubble_report_zero_for_single_stage():
    tables = single_device_tables()
    tl = evaluate(Plan(stages=(PlanStage(0, 1, 4),)), tables)
    assert tl.total_wait_s == 0.0


@st.composite
def random_instance(draw):
    num_layers = draw(st.integers(min_value=1, max_value=10))
    num_devices = draw(st.integers(min_value=1, max_value=4))
    finite = st.floats(min_value=1e3, max_value=1e15, allow_nan=False)
    rows = [(draw(finite), draw(st.floats(min_value=0, max_value=1e9)),
             draw(finite)) for _ in range(num_layers)]
    devices = [make_device(i,
                           peak=draw(st.floats(min_value=1e9, max_value=1e15)),
                           disk=draw(st.floats(min_value=1e6, max_value=1e11)),
                           memory=1e18,
                           dist=draw(st.floats(min_value=0.5, max_value=30.0)))
               for i in range(num_devices)]
    tables = make_tables(rows, devices, t=draw(st.integers(1, 8192)))
    n_stages = draw(st.integers(min_value=1, max_value=min(num_devices, num_layers)))
    order = draw(st.permutations(range(num_devices)))
    bounds = sorted(draw(
        st.lists(st.integers(1, num_layers - 1), min_size=n_stages - 1,
                 max_size=n_stages - 1, unique=True))) if n_stages > 1 else []
    starts = [1] + [b + 1 for b in bounds]
    ends = bounds + [num_layers]
    plan = Plan(stages=tuple(
        PlanStage(order[k], starts[k], ends[k]) for k in range(n_stages)))
    return tables, plan


@settings(max_examples=200, deadline=None)
@given(random_instance())
def test_timeline_invariants(instance):
    tables, plan = instance
    tl = evaluate(plan, tables)
    finish_prev = 0.0
    for s in tl.stages:
        assert s.start_s == max(s.load_s, finish_prev)
        assert s.finish_s == (s.start_s + s.comm_s) + s.comp_s
        assert s.wait_s == max(0.0, finish_prev - s.load_s)
        assert s.wait_s >= 0.0
        # intervals on one device never overlap: load ends before comm starts
        assert s.load_s <= s.start_s
        finish_prev = s.finish_s
    assert tl.makespan_s == tl.stages[-1].finish_s
    # critical-path lower bound for the chosen plan
    lower = tl.stages[0].load_s + sum(s.comm_s + s.comp_s for s in tl.stages)
    assert tl.makespan_s >= lower - 1e-9 * max(1.0, lower)
