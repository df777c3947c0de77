import dataclasses
import hashlib
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


from coldpipe import cost_tables, dp_scheduler
from coldpipe.baselines import brute_force
from coldpipe.dp_scheduler import (MAX_TABLE_BYTES, Plan, PlanStage,
                                   best_final_state, compute_table, reconstruct,
                                   solve, table_bytes, validate_plan)
from coldpipe.errors import InfeasibleError, LimitError
from coldpipe.experiment import random_instance_suite
from coldpipe.model_profile import build_profiles
from coldpipe.timeline import evaluate
from conftest import make_device, make_tables

REL = 1e-9


def rel_close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def suite_tables(instance):
    sc = instance.scenario
    t = sc.token_lengths[0]
    return make_tables_from_scenario(sc, t)


def make_tables_from_scenario(sc, t):
    return cost_tables.build(build_profiles(sc.model, t), list(sc.devices), t)


def test_table_bytes_estimate(monkeypatch):
    # float64 values plus two back-pointer tables, (2**(K-1), L+1, K) each;
    # the back-pointers are int8 up to L = 128 and int16 past it
    assert table_bytes(4, 40) == 8 * 41 * 4 * (8 + 1 + 1) == 13_120
    assert table_bytes(10, 60) == 512 * 61 * 10 * (8 + 1 + 1) == 3_123_200
    assert table_bytes(3, 129) == 4 * 130 * 3 * (8 + 2 + 2) == 18_720
    # the byte limit admits K <= 19 at L=60 and at L=40
    assert table_bytes(19, 60) == 3_038_248_960
    assert table_bytes(19, 40) == 2_042_101_760
    # past it, the tables and one worker's scratch are refused on any host
    for num_devices, num_layers, need in ((20, 60, "6,401,493,232"),
                                          (20, 40, "4,301,501,552"),
                                          (25, 10, "46,137,600,520")):
        tables = make_tables([(1e12, 1e6, 5e8)] * num_layers,
                             [make_device(i) for i in range(num_devices)])
        for cpus in (1, 2, 64):
            monkeypatch.setattr(dp_scheduler, "worker_count", lambda: cpus)
            with pytest.raises(LimitError,
                               match=f"need {need} bytes .* {MAX_TABLE_BYTES:,} bytes"):
                compute_table(tables)
    with pytest.raises(ValueError):
        table_bytes(0, 10)


def deep_tab1(model, fleet, num_layers, t=2048):
    """Tables of the tab1 model stretched to num_layers blocks."""
    model = dataclasses.replace(model, num_layers=num_layers)
    return cost_tables.build(build_profiles(model, t), fleet, t)


def test_fill_counts_its_scratch(monkeypatch, qwen_cfg, fleet):
    # the DP tables are 230,784 bytes; comp_or_inf (4 units of 601**2
    # doubles) and one worker's block and argmin's half copy (4 + 2 units at
    # |T| = 2) bring the count to 230,784 + 8 * 361,201 * 10 = 29,126,864
    tables = deep_tab1(qwen_cfg, fleet, 600)
    monkeypatch.setattr(dp_scheduler, "MAX_TABLE_BYTES", 29_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="need 29,126,864 bytes"):
            compute_table(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def worker_bytes(num_devices, num_layers):
    """One worker's scratch: a level's block, |T| * (K - |T|) units of
    (L+1)**2 doubles, and argmin's copy of its larger half, |T| *
    ceil((K - |T|) / 2), at the level where the two are largest."""
    return 8 * (num_layers + 1) ** 2 * max(
        n * (num_devices - n + math.ceil((num_devices - n) / 2))
        for n in range(1, num_devices))


def fill_bytes(num_devices, num_layers, workers=1):
    """The tables, comp_or_inf and the scratch of the given workers."""
    return (table_bytes(num_devices, num_layers) + 8 * (num_layers + 1) ** 2 * num_devices
            + workers * worker_bytes(num_devices, num_layers))


@pytest.mark.parametrize("num_devices, workers", [
    pytest.param(2, 1, id="2"), pytest.param(3, 1, id="3"), pytest.param(4, 1, id="4"),
    pytest.param(4, 2, id="4-two-workers")])
def test_fill_peak_matches_the_count(monkeypatch, qwen_cfg, fleet, num_devices, workers):
    # the refusal is only as good as the count: the fill's traced peak
    # stays within 5% of it, one block and one half-block copy per worker
    num_layers = 400
    tables = deep_tab1(qwen_cfg, fleet[:num_devices], num_layers)
    monkeypatch.setattr(dp_scheduler, "worker_count", lambda: workers)
    monkeypatch.setattr(dp_scheduler, "MIN_THREADED_BLOCK", 0)
    count = fill_bytes(num_devices, num_layers, workers)
    tracemalloc.start()
    try:
        compute_table(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak - count) <= 0.05 * count


@pytest.mark.parametrize("num_layers, pointer", [(128, np.int8), (129, np.int16)])
def test_back_pointers_at_the_int8_boundary(num_layers, pointer):
    # only device 1 holds the heavy last layer and nothing besides it, so the
    # last stage's split is L-1: 127 is int8's largest value, 128 needs int16
    light, heavy = (1e12, 1e6, 5e8), (1e12, 1e6, 1e11)
    devices = [make_device(0, memory=1e11), make_device(1, memory=1e11 + 2e6),
               make_device(2, memory=1e11, disk=2e9)]
    tables = make_tables([light] * (num_layers - 1) + [heavy], devices)
    table = compute_table(tables)
    assert table.split.dtype == table.prev_device.dtype == pointer
    assert table_bytes(3, num_layers) == (
        table.values.nbytes + table.split.nbytes + table.prev_device.nbytes)
    makespan, mask, dev = best_final_state(table)
    plan = reconstruct(table, mask, dev)
    assert plan.stages[-1] == PlanStage(1, num_layers, num_layers)
    assert evaluate(plan, tables).makespan_s == makespan


def test_single_device_base_case():
    tables = make_tables([(1e12, 1e6, 5e8)] * 3, [make_device(memory=1e12)])
    result = solve(tables)
    assert result.plan == Plan(stages=(PlanStage(0, 1, 3),))
    assert result.makespan_s == tables.load_s[0, 0, 3] + tables.comp_s[0, 0, 3]


def test_two_stage_reconstruction():
    # memory forces an even two-way split across two identical devices
    rows = [(1e12, 1e6, 5e8)] * 4
    devices = [make_device(0, memory=1.1e9), make_device(1, memory=1.1e9)]
    tables = make_tables(rows, devices)
    result = solve(tables)
    assert len(result.plan.stages) == 2
    assert result.plan.stages[0].start_layer == 1
    assert result.plan.stages[1].end_layer == 4
    assert result.plan.stages[0].end_layer + 1 == result.plan.stages[1].start_layer
    validate_plan(result.plan, tables)


def test_reconstruct_from_explicit_state():
    rows = [(1e12, 1e6, 5e8)] * 4
    devices = [make_device(0, memory=1.1e9), make_device(1, memory=1.1e9)]
    tables = make_tables(rows, devices)
    table = compute_table(tables)
    value, mask, dev = best_final_state(table)
    plan = reconstruct(table, mask, dev)
    assert evaluate(plan, tables).makespan_s == value
    with pytest.raises(ValueError):
        reconstruct(table, 1, 1)  # device 1 not in mask {0}: unreachable


@pytest.mark.parametrize("field, value", [
    ("split", -128), ("split", 4), ("prev_device", -1), ("prev_device", -128),
    ("prev_device", 2), ("prev_device", 0)])
def test_reconstruct_refuses_corrupt_pointers(field, value):
    # the optimum runs layers 1-2 on device 1, then 3-4 on device 0; each
    # value breaks the pointer pair (split 2, prev_device 1) of its last stage
    rows = [(1e12, 1e6, 5e8)] * 4
    devices = [make_device(0, memory=1.1e9), make_device(1, memory=1.1e9)]
    table = compute_table(make_tables(rows, devices))
    _, mask, dev = best_final_state(table)
    assert (mask, dev) == (0b11, 0)
    assert (table.split[1, 4, 0], table.prev_device[1, 4, 0]) == (2, 1)
    getattr(table, field)[1, 4, 0] = value
    with pytest.raises(RuntimeError):
        reconstruct(table, mask, dev)


def test_matches_oracle_on_random_instances():
    instances = random_instance_suite(40, seed=11)
    for inst in instances:
        tables = suite_tables(inst)
        try:
            result = solve(tables)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_force(tables)
            continue
        oracle_value, oracle_plan = brute_force(tables)
        assert rel_close(result.makespan_s, oracle_value)
        replay = evaluate(result.plan, tables).makespan_s
        assert rel_close(replay, result.makespan_s)
        assert oracle_plan == result.plan


@st.composite
def heterogeneous_instance(draw):
    """Layer profiles drawn per layer (not uniform) with memory budgets near
    the model footprint, so pruning and tie-breaking actually bind."""
    num_layers = draw(st.integers(min_value=1, max_value=7))
    num_devices = draw(st.integers(min_value=1, max_value=4))
    rows = [(draw(st.floats(min_value=1e9, max_value=1e14)),
             draw(st.floats(min_value=0.0, max_value=1e8)),
             draw(st.floats(min_value=1e6, max_value=5e9)))
            for _ in range(num_layers)]
    footprint = sum(p for _, _, p in rows) + max(a for _, a, _ in rows)
    devices = [make_device(i,
                           peak=draw(st.floats(min_value=1e10, max_value=1e15)),
                           disk=draw(st.floats(min_value=1e7, max_value=1e10)),
                           memory=footprint * draw(st.floats(min_value=0.2,
                                                             max_value=3.0)),
                           dist=draw(st.floats(min_value=0.5, max_value=30.0)))
               for i in range(num_devices)]
    return make_tables(rows, devices, t=draw(st.integers(1, 8192)))


@settings(max_examples=60, deadline=None)
@given(heterogeneous_instance())
def test_matches_oracle_on_heterogeneous_layers(tables):
    try:
        result = solve(tables)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            brute_force(tables)
        return
    oracle_value, oracle_plan = brute_force(tables)
    assert rel_close(result.makespan_s, oracle_value)
    validate_plan(result.plan, tables, check_memory=True)
    assert rel_close(evaluate(result.plan, tables).makespan_s, result.makespan_s)
    assert rel_close(evaluate(oracle_plan, tables).makespan_s, oracle_value)
    assert oracle_plan == result.plan


def sixty_layer_instance(seed):
    """Three devices differing in compute, disk and uplink over 60
    non-uniform layers; the longest segment device k holds is hosts[k] layers."""
    rng = random.Random(seed)
    layers = [(rng.uniform(1e11, 8e11), rng.uniform(1e6, 4e7), rng.uniform(2e8, 8e8))
              for _ in range(60)]
    footprint = make_tables(layers, [make_device()]).footprint
    hosts = [rng.randint(15, 45) for _ in range(3)]
    devices = [make_device(k, peak=rng.uniform(5e12, 5e13), disk=rng.uniform(2e8, 3e9),
                           memory=float(np.diagonal(footprint, offset=h).min()),
                           up_dbm=rng.uniform(10.0, 22.0))
               for k, h in enumerate(hosts)]
    return hosts, make_tables(layers, devices)


@pytest.mark.parametrize("seed", range(6))
def test_matches_oracle_at_sixty_layers(seed):
    # the benchmark's layer count, with every device's memory binding
    hosts, tables = sixty_layer_instance(seed)
    assert [tables.max_hostable_layers(d) for d in range(3)] == hosts
    result = solve(tables)
    oracle_value, oracle_plan = brute_force(tables)
    assert oracle_plan == result.plan
    assert oracle_value == result.makespan_s


def test_exact_tie_prefers_fewer_devices():
    # zero weights and activations make load and comm vanish, so the
    # one-stage plan and every two-stage split cost exactly 2*(W/c):
    # the tie must resolve to the single strongest-indexed device
    rows = [(1e9, 0.0, 0.0)] * 2
    devices = [make_device(0), make_device(1)]
    tables = make_tables(rows, devices)
    single = tables.comp_s[0, 0, 2]
    split = tables.comp_s[0, 0, 1] + tables.comp_s[1, 1, 2]
    assert single == split  # genuinely an exact tie
    result = solve(tables)
    assert result.plan == Plan(stages=(PlanStage(0, 1, 2),))


def test_fewer_layers_than_devices():
    devices = [make_device(i, peak=10.0**(12 + i)) for i in range(4)]
    tables = make_tables([(1e12, 1e6, 5e8)] * 2, devices)
    result = solve(tables)
    assert len(result.plan.stages) <= 2
    oracle_value, oracle_plan = brute_force(tables)
    assert rel_close(result.makespan_s, oracle_value)
    assert oracle_plan == result.plan


def test_oracle_breaks_ties_like_the_solver():
    # two identical devices: mirrored plans tie exactly, and the oracle must
    # pick the solver's one, devices (1, 0)
    tables = make_tables([(1e12, 1e6, 5e8)] * 4, [make_device(), make_device()])
    assert brute_force(tables)[1] == solve(tables).plan


def test_deterministic_plans():
    instances = random_instance_suite(10, seed=5)
    for inst in instances:
        tables = suite_tables(inst)
        try:
            first = solve(tables)
        except InfeasibleError:
            continue
        second = solve(tables)
        assert first.plan == second.plan
        assert first.makespan_s == second.makespan_s


def test_uniform_resource_scaling_never_hurts(tab1_tables, fleet, qwen_cfg):
    tables = tab1_tables(1024)
    base = solve(tables).makespan_s
    for alpha in (1.0, 1.25, 2.0, 10.0):
        faster = [dataclasses.replace(dev,
                                      peak_flops=dev.peak_flops * alpha,
                                      disk_bytes_per_s=dev.disk_bytes_per_s * alpha)
                  for dev in fleet]
        from coldpipe import cost_tables
        profiles = build_profiles(qwen_cfg, 1024)
        scaled = cost_tables.build(profiles, faster, 1024)
        assert solve(scaled).makespan_s <= base + REL * base


def test_memory_pruning_forces_split():
    # one huge layer set, single device too small -> must use both devices
    rows = [(1e12, 1e6, 5e8)] * 6
    devices = [make_device(0, memory=2.2e9), make_device(1, memory=2.2e9)]
    tables = make_tables(rows, devices)
    result = solve(tables)
    assert len(result.plan.stages) == 2
    for stage in result.plan.stages:
        assert tables.mem_footprint(stage.start_layer, stage.end_layer) <= 2.2e9


def test_infeasible_raises():
    rows = [(1e12, 1e6, 5e8)] * 6
    devices = [make_device(0, memory=1e8), make_device(1, memory=1e8)]
    tables = make_tables(rows, devices)
    with pytest.raises(InfeasibleError):
        solve(tables)


def test_solver_beats_or_matches_every_baseline(tab1_tables, fleet):
    from coldpipe.baselines import even_plan, heuristic_plan, single_device_plan
    for t in (256, 2048, 8192):
        tables = tab1_tables(t)
        best = solve(tables).makespan_s
        for plan, check in ((even_plan(fleet, 40), True),
                            (heuristic_plan(fleet, 40), True),
                            (single_device_plan(fleet, 40), False)):
            assert best <= evaluate(plan, tables,
                                    check_memory=check).makespan_s * (1 + REL)


def test_table_shape_and_unreachable_states():
    rows = [(1e12, 1e6, 5e8)] * 3
    devices = [make_device(0), make_device(1)]
    tables = make_tables(rows, devices)
    table = compute_table(tables)
    # state (T, j, d), T the devices before the last stage's d, sits at row
    # squeeze(T, d): row 0 holds T = 0, row 1 holds T = {1} for d = 0 and
    # T = {0} for d = 1
    for array in (table.values, table.split, table.prev_device):
        assert array.shape == (2, 4, 2)
    assert table.split.dtype == table.prev_device.dtype == np.int8
    # no state ends at boundary 0, so no transition can split there
    assert np.isinf(table.values[:, 0, :]).all()
    # fewer layers than devices used -> unreachable
    assert np.isinf(table.values[1, 1, :]).all()
    # one-stage plans (T = 0) finite for every j on each device
    assert np.isfinite(table.values[0, 1:, :]).all()
    assert (table.split[0, 1:, :] == 0).all() and (table.prev_device[0] == -1).all()
    # every other cell is a two-stage state, reached from the other device
    assert np.isfinite(table.values[1, 2:, :]).all()
    assert (table.prev_device[1, 2:, 0] == 1).all()
    assert (table.prev_device[1, 2:, 1] == 0).all()


# Metamorphic relations at the benchmark's scale (K=8, L=60), where the
# brute-force oracle cannot reach.  Each must hold exactly, bit for bit.

def _metamorphic_fleet(seed, num_devices=9):
    """Seeded devices (peak, ceiling, util rate, disk, memory, radio all
    drawn) over 60 identical layers; memory binds for most devices."""
    rng = np.random.default_rng(seed)
    workload, activation, params = 4e11, 2e7, 5e8
    devices = [
        make_device(k, peak=rng.uniform(5e12, 5e13), ceiling=rng.uniform(0.3, 0.9),
                    rate=rng.uniform(1e-4, 2e-3), disk=rng.uniform(2e8, 3e9),
                    memory=params * rng.integers(12, 61) + activation,
                    up_dbm=rng.uniform(14.0, 22.0), dist=rng.uniform(1.0, 10.0))
        for k in range(num_devices)]
    return [(workload, activation, params)] * 60, devices


@pytest.fixture(scope="module", params=[0, 1, 2])
def k8_fleet(request):
    """(seed, layers, nine devices, tables and optimum of the first eight)."""
    layers, devices = _metamorphic_fleet(request.param)
    tables = make_tables(layers, devices[:8])
    return request.param, layers, devices, tables, solve(tables)


def test_doubling_costs_doubles_makespan(k8_fleet):
    _, _, _, tables, base = k8_fleet
    doubled = dataclasses.replace(tables, load_s=tables.load_s * 2,
                                  comp_s=tables.comp_s * 2,
                                  comm_s=tables.comm_s * 2)
    result = solve(doubled)
    assert result.makespan_s == 2 * base.makespan_s
    assert result.plan == base.plan


def test_device_permutation_keeps_makespan(k8_fleet):
    seed, layers, devices, _, base = k8_fleet
    order = np.random.default_rng(seed).permutation(8)
    permuted = make_tables(layers, [devices[k] for k in order])
    assert solve(permuted).makespan_s == base.makespan_s


def test_added_device_never_raises_optimum(k8_fleet):
    _, layers, devices, _, base = k8_fleet
    assert solve(make_tables(layers, devices)).makespan_s <= base.makespan_s


def test_optimum_replays_exactly(k8_fleet):
    # the table and the timeline add the same terms in the same order
    _, _, _, tables, base = k8_fleet
    assert evaluate(base.plan, tables).makespan_s == base.makespan_s


def test_unused_device_deletion_keeps_plan(k8_fleet):
    _, layers, devices, _, base = k8_fleet
    unused = min(set(range(8)) - set(base.plan.devices))
    result = solve(make_tables(layers, devices[:unused] + devices[unused + 1:8]))
    assert result.makespan_s == base.makespan_s
    reindexed = tuple(dataclasses.replace(s, device=s.device - (s.device > unused))
                      for s in base.plan.stages)
    assert result.plan == Plan(stages=reindexed)


def test_more_memory_never_raises_optimum(k8_fleet):
    _, layers, devices, _, base = k8_fleet
    for d in base.plan.devices:
        roomier = list(devices[:8])
        roomier[d] = dataclasses.replace(roomier[d], memory_bytes=2 * roomier[d].memory_bytes)
        assert solve(make_tables(layers, roomier)).makespan_s <= base.makespan_s


def table_digests(table):
    return [hashlib.sha256(a.tobytes()).hexdigest()
            for a in (table.values, table.split, table.prev_device)]


@pytest.fixture
def started(monkeypatch):
    """The helper threads the fill starts, with every level large enough
    to deal to them."""
    threads = []

    class CountedThread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(dp_scheduler, "MIN_THREADED_BLOCK", 0)
    return threads


@pytest.mark.parametrize("num_devices", [6, 7, 8])
def test_fill_is_identical_on_any_worker_count(monkeypatch, started, num_devices):
    # each level's blocks write disjoint states and read only the level
    # before, so the tables cannot depend on how the blocks are dealt
    layers, devices = _metamorphic_fleet(num_devices, num_devices)
    tables = make_tables(layers, devices)
    digests = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(dp_scheduler, "worker_count", lambda: workers)
            started.clear()
            table = compute_table(tables)
            # every level deals its blocks to the calling thread and helpers
            assert len(started) == (workers - 1) * (num_devices - 1)
            digests[workers] = table_digests(table)
    finally:
        sys.setswitchinterval(interval)
    assert digests[2] == digests[1] and digests[3] == digests[1]
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("fitting", [1, 2, 3])
def test_fill_runs_only_the_workers_that_fit(monkeypatch, started, fitting):
    # four CPUs, but a byte limit with room for the scratch of `fitting`
    # workers only: the fill runs that many, not a refusal
    num_devices = 7
    layers, devices = _metamorphic_fleet(num_devices, num_devices)
    tables = make_tables(layers, devices)
    monkeypatch.setattr(dp_scheduler, "worker_count", lambda: 1)
    expected = table_digests(compute_table(tables))
    monkeypatch.setattr(dp_scheduler, "worker_count", lambda: 4)
    monkeypatch.setattr(dp_scheduler, "MAX_TABLE_BYTES",
                        fill_bytes(num_devices, len(layers), fitting + 1) - 1)
    table = compute_table(tables)
    assert len(started) == (fitting - 1) * (num_devices - 1)
    assert table_digests(table) == expected


def test_helper_failure_reaches_the_caller(monkeypatch):
    # a helper that dies must not leave its states at +inf unnoticed
    layers, devices = _metamorphic_fleet(0, 6)
    tables = make_tables(layers, devices)
    take_along_axis = np.take_along_axis

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("no memory in the helper")
        return take_along_axis(*args, **kwargs)

    monkeypatch.setattr(np, "take_along_axis", failing)
    monkeypatch.setattr(dp_scheduler, "worker_count", lambda: 2)
    monkeypatch.setattr(dp_scheduler, "MIN_THREADED_BLOCK", 0)
    with pytest.raises(MemoryError, match="no memory in the helper"):
        compute_table(tables)


def test_small_fills_start_no_thread(monkeypatch, tab1_tables):
    # the sweep's and verify's fills are far below the helper threshold,
    # however many CPUs the host has
    def refuse(*args, **kwargs):
        raise AssertionError("a small fill started a thread")

    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(dp_scheduler, "worker_count", lambda: 64)
    compute_table(tab1_tables())
    for instance in random_instance_suite(100, 0):
        compute_table(suite_tables(instance))


@pytest.mark.parametrize("layers_per_device", [8, 12, 20, 61])
def test_identical_devices_run_in_descending_order(layers_per_device):
    # every plan ties with its mirror images; the tie key takes the smallest
    # mask, then the smallest device from the last stage back
    workload, activation, params = 4e11, 2e7, 5e8
    devices = [make_device(k, memory=params * layers_per_device + activation)
               for k in range(8)]
    plan = solve(make_tables([(workload, activation, params)] * 60, devices)).plan
    assert plan.devices == tuple(range(len(plan.stages) - 1, -1, -1))
