import dataclasses
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


from coldpipe import cost_tables, dp_scheduler
from coldpipe.baselines import brute_force
from coldpipe.dp_scheduler import (MAX_TABLE_BYTES, Plan, PlanStage,
                                   best_final_state, compute_table, reconstruct,
                                   solve, squeeze, table_bytes, validate_plan)
from coldpipe.errors import InfeasibleError, LimitError
from coldpipe.experiment import random_instance_suite, verify_suite
from coldpipe.model_profile import build_profiles
from coldpipe.timeline import evaluate, tie_key
from conftest import load_benchmark, make_device, make_tables

REL = 1e-9


def rel_close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def suite_tables(instance):
    sc = instance.scenario
    t = sc.token_lengths[0]
    return make_tables_from_scenario(sc, t)


def make_tables_from_scenario(sc, t):
    return cost_tables.build(build_profiles(sc.model, t), list(sc.devices), t)


def unbounded_table(monkeypatch, tables):
    """The fill with no state cut by its incumbent: PRUNE_SLACK at +inf
    lifts every incumbent to +inf."""
    with monkeypatch.context() as patch:
        patch.setattr(dp_scheduler, "PRUNE_SLACK", math.inf)
        return compute_table(tables)


def test_table_bytes_estimate():
    # float64 values plus two back-pointer tables, (2**(K-1), L+1, K) each;
    # the back-pointers are int8 up to L = 128 and int16 past it
    assert table_bytes(4, 40) == 8 * 41 * 4 * (8 + 1 + 1) == 13_120
    assert table_bytes(10, 60) == 512 * 61 * 10 * (8 + 1 + 1) == 3_123_200
    assert table_bytes(3, 129) == 4 * 130 * 3 * (8 + 2 + 2) == 18_720
    # the byte limit admits K <= 19 at L=60 and at L=40
    assert table_bytes(19, 60) == 3_038_248_960
    assert table_bytes(19, 40) == 2_042_101_760
    dp_scheduler.check_fill_bytes(19, 60)
    dp_scheduler.check_fill_bytes(19, 40)
    # on 4 devices, the DP admits 7,322 layers and the cost tables 6,830,
    # counted without allocating anything
    dp_scheduler.check_fill_bytes(4, 7322)
    with pytest.raises(LimitError, match="need 4,295,855,680 bytes of DP tables"):
        dp_scheduler.check_fill_bytes(4, 7323)
    cost_tables.check_bytes(4, 6830)
    with pytest.raises(LimitError, match="need 4,295,087,136 bytes of cost tables"):
        cost_tables.check_bytes(4, 6831)
    # past it, the tables and the fill's scratch are refused
    for num_devices, num_layers, need in ((20, 60, "6,475,488,984"),
                                          (20, 40, "4,375,514,424"),
                                          (25, 10, "48,758,649,992")):
        tables = make_tables([(1e12, 1e6, 5e8)] * num_layers,
                             [make_device(i) for i in range(num_devices)])
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
    # doubles), the fill's block and argmin's half copy (4 + 2 units at
    # |T| = 2), that level's block vectors (24 units of 601 doubles: 2 * (4 +
    # 2) for its rows, 2 * (4 + 2) for its ends), its index arrays (8 * (2 *
    # 4 + 2) * 6 bytes), a ufunc's buffer (8 * 8,192 bytes) and LB with the
    # j index (5 units of 601 doubles) bring the count to
    # 230,784 + 8 * 361,201 * 10 + 8 * 601 * 29 + 480 + 65,536 = 29,332,312
    tables = deep_tab1(qwen_cfg, fleet, 600)
    monkeypatch.setattr(dp_scheduler, "MAX_TABLE_BYTES", 29_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="need 29,332,312 bytes"):
            compute_table(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def fill_bytes(num_devices, num_layers):
    """The tables, comp_or_inf and the fill's scratch: a level's block,
    |T| * (K - |T|) units of (L+1)**2 doubles, argmin's copy of its larger
    half, |T| * ceil((K - |T|) / 2), a block's vectors, 4 + K - |T| units
    of L+1 doubles per predecessor and 4 + |T| per next device, and its
    index arrays, 2K + |T| integers for each of the C(K, |T|) sets T, at
    the level where these are largest; a ufunc's buffer of getbufsize()
    doubles; and LB with the j index, K + 1 units of L+1 doubles."""
    K, L = num_devices, num_layers
    scratch = max(8 * (L + 1) ** 2 * n * (K - n + math.ceil((K - n) / 2))
                  + 8 * (L + 1) * (n * (4 + K - n) + (K - n) * (4 + n))
                  + 8 * (2 * K + n) * math.comb(K, n) for n in range(1, K))
    return (table_bytes(K, L) + 8 * (L + 1) ** 2 * K + scratch + 8 * np.getbufsize()
            + 8 * (K + 1) * (L + 1))


@pytest.mark.parametrize("num_devices, every_row_live", [
    pytest.param(2, False, id="2"), pytest.param(3, False, id="3"),
    pytest.param(4, False, id="4"), pytest.param(2, True, id="2-every-row-live"),
    pytest.param(4, True, id="4-every-row-live")])
def test_fill_peak_matches_the_count(qwen_cfg, fleet, num_devices, every_row_live):
    # the refusal is only as good as the count: one block and one half-block
    # copy.  With memory to spare, every predecessor row is live and the
    # fill's traced peak stays within 5% of the count.  The tab1 fleet's
    # memory cuts the rows a device can end a stage at, so each block scores
    # only its live rows and the peak is below it
    num_layers = 400
    if every_row_live:
        fleet = [dataclasses.replace(device, memory_bytes=1e15) for device in fleet]
    tables = deep_tab1(qwen_cfg, fleet[:num_devices], num_layers)
    count = fill_bytes(num_devices, num_layers)
    tracemalloc.start()
    try:
        compute_table(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if every_row_live:
        assert abs(peak - count) <= 0.05 * count
    else:
        assert peak <= count


def equal_layer_tables(num_devices, num_layers, layers_per_device):
    """Devices of distinct speeds on num_layers equal layers, each with
    memory for layers_per_device of them."""
    workload, activation, params = 4e11, 2e7, 5e8
    devices = [make_device(k, peak=1e13 * (1 + k / 10),
                           memory=params * layers_per_device + activation)
               for k in range(num_devices)]
    return make_tables([(workload, activation, params)] * num_layers, devices)


@pytest.mark.parametrize("build", [
    # fleet 0 at K = 12 and 60 layers: the tables and blocks are most of it
    pytest.param(lambda patch: ladder_tables(patch, 0, 12), id="fleet-0-k12"),
    # 12 devices with memory for one of 6 layers: the fill builds the
    # |T| = 6 level, the largest, whose index arrays, while its rows are
    # summed, are most of the scratch
    pytest.param(lambda patch: equal_layer_tables(12, 6, 1), id="index-arrays-k12"),
    # 6 devices with memory for all of 40 layers: a ufunc's buffer is 15%
    # of the count
    pytest.param(lambda patch: equal_layer_tables(6, 40, 40), id="ufunc-buffer-k6"),
    # 2 devices with memory for all of 100 layers: every row is live, and the
    # block's vectors and LB pass the slack of the block's (L+1)**2 units
    pytest.param(lambda patch: equal_layer_tables(2, 100, 100), id="every-row-live-k2")])
def test_fill_count_is_a_ceiling(monkeypatch, build):
    # the fill's traced peak is at most the count that check_fill_bytes
    # compares with its limit, so a limit one byte below the peak refuses
    # the fill
    tables = build(monkeypatch)
    tracemalloc.start()
    try:
        compute_table(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(dp_scheduler, "MAX_TABLE_BYTES", peak - 1)
    with pytest.raises(LimitError):
        dp_scheduler.check_fill_bytes(tables.num_devices, tables.num_layers)


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
    ("split", -128), ("split", 4), ("split", 3), ("prev_device", -1),
    ("prev_device", -128), ("prev_device", 2), ("prev_device", 0)])
def test_reconstruct_refuses_corrupt_pointers(field, value):
    # the optimum runs layers 1-2 on device 1, then 3-4 on device 0; each
    # value breaks the pointer pair (split 2, prev_device 1) of its last stage.
    # Split 3 points onto the one-stage state of layers 1-3 on device 1,
    # which its memory cannot hold: the state is +inf, its pointers undefined
    rows = [(1e12, 1e6, 5e8)] * 4
    devices = [make_device(0, memory=1.1e9), make_device(1, memory=1.1e9)]
    table = compute_table(make_tables(rows, devices))
    _, mask, dev = best_final_state(table)
    assert (mask, dev) == (0b11, 0)
    assert (table.split[1, 4, 0], table.prev_device[1, 4, 0]) == (2, 1)
    assert np.isinf(table.values[0, 3, 1])
    getattr(table, field)[1, 4, 0] = value
    with pytest.raises(RuntimeError):
        reconstruct(table, mask, dev)


def test_matches_oracle_on_random_instances():
    # infeasibility agreement, makespan, plan and replay, as `verify` checks them
    outcomes = verify_suite(random_instance_suite(40, seed=11))
    assert len(outcomes) == 40
    assert [(o.index, o.detail) for o in outcomes if not o.ok] == []


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


def test_table_shape_and_unreachable_states(monkeypatch):
    rows = [(1e12, 1e6, 5e8)] * 3
    devices = [make_device(0), make_device(1)]
    tables = make_tables(rows, devices)
    table = unbounded_table(monkeypatch, tables)
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
    # one-stage plans (T = 0) finite for every j on each device; split 0 marks them
    assert np.isfinite(table.values[0, 1:, :]).all()
    assert (table.split[0] == 0).all()
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


def sequence_reference(tables):
    """The exact optimum by a route that shares no code with the bitmask
    fill.  Every ordered device sequence, walked depth first, runs a chain
    DP over its splits: f_e(j) = min_i max(load_s[e, i, j], f_d(i)) +
    comm_s[d, e, i] + comp(e, i, j), comp +inf where the segment does not
    fit.  Returns the optimum and, of each optimal sequence's plan of first
    minima, the least by tie_key."""
    K, L = tables.num_devices, tables.num_layers
    comp = np.where(tables.fits, tables.comp_s, np.inf)
    best, chains = math.inf, []  # chain: (device, f, first argmin i of each j)

    def walk(chain):
        nonlocal best, chains
        d, f, _ = chain[-1]
        if f[L] < best:
            best, chains = f[L], []
        if f[L] == best:
            chains.append(chain)
        for e in set(range(K)) - {c[0] for c in chain}:
            cand = np.maximum(tables.load_s[e], f[:, None]) + tables.comm_s[d, e][:, None]
            cand += comp[e]
            walk(chain + [(e, cand.min(axis=0), cand.argmin(axis=0))])

    for d in range(K):
        walk([(d, tables.load_s[d, 0] + comp[d, 0], None)])
    plans = []
    for chain in chains:
        stages, j = [], L
        for e, _, first in reversed(chain):
            i = 0 if first is None else int(first[j])
            stages.insert(0, PlanStage(device=e, start_layer=i + 1, end_layer=j))
            j = i
        plans.append(Plan(stages=tuple(stages)))
    return best, min(plans, key=lambda plan: tie_key(evaluate(plan, tables)))


def ladder_tables(monkeypatch, index, num_devices):
    """The first num_devices devices of benchmark/fleet.py's fleet index."""
    fleet = load_benchmark("fleet", monkeypatch)
    scenario = fleet.fleet_scenario(index, num_devices)
    return cost_tables.build(build_profiles(scenario.model, fleet.TOKENS),
                             list(scenario.devices), fleet.TOKENS)


def identical_tables(layers_per_device):
    """Six identical devices on 30 layers, each with memory for
    layers_per_device of them: every plan ties with its mirror images."""
    workload, activation, params = 4e11, 2e7, 5e8
    devices = [make_device(k, memory=params * layers_per_device + activation)
               for k in range(6)]
    return make_tables([(workload, activation, params)] * 30, devices)


def integer_tie_tables():
    """Three devices and five layers of small integer costs, so every sum is
    exact: on device d, layer l computes in work[l] * times[d] and loads in
    params[l] * reads[d], a segment fits when it has at most memory[d]
    layers, and layer i's output goes from p to d in sends[i] * links[p][d].
    The optimal last stage, on device 0, ties between starting after layer 3
    behind device 2 and after layer 4 behind device 1.  The tie key takes
    the earlier start, so candidates run in (split, device) order."""
    work, params, sends = [3, 2, 3, 2, 1], [2, 2, 0, 2, 2], [1, 1, 2, 2, 2, 1]
    times, reads, memory = [4, 3, 2], [2, 2, 2], [2, 5, 2]
    links = [[2, 1, 1], [0, 0, 0], [1, 2, 0]]
    base = make_tables([(1e12, 1e6, 5e8)] * 5, [make_device(k) for k in range(3)])
    i, j = np.ogrid[:6, :6]
    work, params = np.cumsum([0, *work]), np.cumsum([0, *params])
    return dataclasses.replace(
        base, comp_s=np.stack([(work[j] - work[i]) * t for t in times]).astype(float),
        load_s=np.stack([(params[j] - params[i]) * r for r in reads]).astype(float),
        comm_s=np.multiply.outer(np.array(links, dtype=float), sends),
        fits=np.stack([(j > i) & (j - i <= m) for m in memory]))


@pytest.mark.parametrize("case", [
    *(pytest.param(("ladder", index, k), id=f"ladder-{index}-k{k}")
      for index in (0, 1) for k in (6, 7)),
    *(pytest.param(("metamorphic", seed, k), id=f"metamorphic-{seed}-k{k}")
      for seed in (0, 1) for k in (6, 7)),
    *(pytest.param(("identical", per, 6), id=f"identical-{per}") for per in (11, 20)),
    pytest.param(("integer", None, 3), id="integer-tie")])
def test_solve_matches_the_sequence_reference(monkeypatch, case):
    # makespan bit for bit and the plan, ties included: at K = 6-7, beyond
    # the brute-force oracle's reach, and on a tie that only the order of
    # the candidates decides
    kind, seed, num_devices = case
    if kind == "ladder":
        tables = ladder_tables(monkeypatch, seed, num_devices)
    elif kind == "metamorphic":
        tables = make_tables(*_metamorphic_fleet(seed, num_devices))
    elif kind == "identical":
        tables = identical_tables(seed)
    else:
        tables = integer_tie_tables()
    makespan, plan = sequence_reference(tables)
    result = solve(tables)
    assert result.makespan_s.hex() == makespan.hex()
    assert result.plan == plan


def lower_bound(tables, d):
    """LB(d, j) at every j, the same for every device set T: 0 at j = L;
    before it, the cheapest transfer of layer j's output from d to a device
    e other than d, plus the least compute of layers j+1..L on one such e;
    +inf when there is no other device."""
    L = tables.num_layers
    compute, send = np.full(L + 1, np.inf), np.full(L + 1, np.inf)
    for e in range(tables.num_devices):
        if e != d:
            compute = np.minimum(compute, tables.comp_s[e, :, L])
            send = np.minimum(send, tables.comm_s[d, e, :])
    lb = compute + send
    lb[L] = 0.0
    return lb


def check_table_contract(tables, table, slack=dp_scheduler.PRUNE_SLACK):
    """Every state of the fill, not only the optimum's chain: a one-stage
    state (split 0) has T = 0 and costs load + compute; any other finite
    state's (split i, predecessor p) is the first minimum of its candidate
    column in (i, p) order over the stored predecessors, recomputed in the
    fill's order of operations, p is in T, the predecessor is finite, the
    value is that candidate bit for bit, and every subset state (T - {x},
    j, d), x in T, is later.  The incumbent as T's block was written is
    replayed from the table: +inf for T = 0, then the least value at j = L
    of level 0 and of each block before T's, sets T in combinations order.
    A finite state's value plus LB(d, j) is within incumbent * (1 +
    slack); a +inf state has no finite candidate, or its first minimum plus
    LB passes that limit (cut by the bound), or the state (S, j, d) of some
    proper subset S of T is no later than its first minimum (cut by
    dominance).  No cell has its sign bit set.  Returns the count of states
    each cut took, dominance split into the cuts that a subset one device
    fewer explains and those that only a smaller subset does."""
    K, L = tables.num_devices, tables.num_layers
    assert not np.signbit(table.values).any()
    finals = table.values[:, L, :]
    incumbent, best = {0: math.inf}, finals[0].min()
    for n in range(1, K):
        for members in combinations(range(K), n):
            t_mask = sum(1 << p for p in members)
            incumbent[t_mask] = best
            best = min(best, *(finals[squeeze(t_mask, d), d]
                               for d in range(K) if not (t_mask >> d) & 1))
    comp_or_inf = np.where(tables.fits, tables.comp_s, np.inf)
    cuts = {"bound": 0, "dominance": 0, "transitive": 0}
    for d in range(K):
        others = [p for p in range(K) if p != d]
        lb = lower_bound(tables, d)
        for n in range(K):
            for members in combinations(others, n):
                t_mask = sum(1 << p for p in members)
                row = squeeze(t_mask, d)
                limit = incumbent[t_mask] * (1 + slack)
                value = table.values[row, :, d]
                finite = np.isfinite(value)
                (j,) = np.nonzero(finite)
                assert (value[j] + lb[j] <= limit).all()
                i = table.split[row, j, d].astype(int)
                if n == 0:
                    base = tables.load_s[d, 0] + comp_or_inf[d, 0]
                    assert (i == 0).all()
                    assert np.array_equal(value[j], base[j])
                    assert np.isinf(base)[~finite].all()
                    continue
                preds = np.array(members)
                prev = np.stack([table.values[squeeze(t_mask ^ (1 << p), p), :, p]
                                 for p in members], axis=1)  # (i, p)
                fewer = np.min([table.values[squeeze(t_mask ^ (1 << x), d), :, d]
                                for x in members], axis=0)  # the earliest subset state
                smaller = np.min([table.values[squeeze(sum(1 << x for x in subset), d), :, d]
                                  for size in range(n - 1)
                                  for subset in combinations(members, size)],
                                 axis=0, initial=math.inf)  # the earliest two or more fewer
                cand = np.maximum(tables.load_s[d][:, None, :], prev[:, :, None])
                cand += tables.comm_s[preds, d].T[:, :, None]
                cand += comp_or_inf[d][:, None, :]
                flat = cand.reshape(-1, cand.shape[2])  # rows (i, p), columns j
                p = table.prev_device[row, j, d]
                assert (i > 0).all() and np.isin(p, preds).all()
                k = np.searchsorted(preds, p)
                assert np.isfinite(prev[i, k]).all()
                assert np.array_equal(value[j], cand[i, k, j])
                assert np.array_equal(i * n + k, flat.argmin(axis=0)[j])
                assert (fewer[j] > value[j]).all()
                first = flat.min(axis=0)
                bound = np.isfinite(first) & (first + lb > limit)
                dominated = np.isfinite(first) & ~bound & (fewer <= first)
                transitive = np.isfinite(first) & ~bound & ~dominated & (smaller <= first)
                assert (np.isinf(first) | bound | dominated | transitive)[~finite].all()
                cuts["bound"] += int(bound[~finite].sum())
                cuts["dominance"] += int(dominated[~finite].sum())
                cuts["transitive"] += int(transitive[~finite].sum())
    return cuts


def test_every_state_keeps_the_table_contract(monkeypatch):
    # unbounded, a state is +inf only when it has no finite candidate or a
    # smaller subset's state is no later; dominance cuts states, and some of
    # them only a subset two or more devices smaller explains.  A first
    # layer that costs nothing makes one-stage states of 0.0, so the states
    # they dominate carry -0.0 while the fill runs
    layers, devices = _metamorphic_fleet(0, 6)
    free_first = make_tables([(0.0, 0.0, 0.0)] + [(1e12, 1e6, 5e8)] * 3,
                             [make_device(k) for k in range(3)])
    cases = [make_tables(layers, devices), integer_tie_tables(), free_first]
    cases += [suite_tables(instance) for instance in random_instance_suite(40, seed=11)]
    dominated = transitive = 0
    for tables in cases:
        cuts = check_table_contract(tables, unbounded_table(monkeypatch, tables),
                                    slack=math.inf)
        assert cuts["bound"] == 0
        dominated += bool(cuts["dominance"])
        transitive += cuts["transitive"]
    assert dominated > 1
    assert transitive > 0


def test_bounded_fill_prunes_only_over_the_bound(monkeypatch):
    # the fill's own running incumbent cuts only states over it, and the
    # states of the plan the fill without the bound picks survive with
    # their values and pointers, so the plan is that fill's
    layers, devices = _metamorphic_fleet(0, 9)
    cases = [make_tables(layers, devices)]
    cases += [suite_tables(instance) for instance in random_instance_suite(40, seed=11)]
    cut_cases = 0
    for tables in cases:
        full = unbounded_table(monkeypatch, tables)
        try:
            optimum, mask, dev = best_final_state(full)
        except InfeasibleError:
            continue
        plan = reconstruct(full, mask, dev)
        bounded = compute_table(tables)
        cuts = check_table_contract(tables, bounded)
        before = 0  # the devices of the stages before each one
        for stage in plan.stages:
            state = squeeze(before, stage.device), stage.end_layer, stage.device
            for name in ("values", "split", "prev_device"):
                assert getattr(bounded, name)[state] == getattr(full, name)[state]
            before |= 1 << stage.device
        assert best_final_state(bounded) == (optimum, mask, dev)
        assert reconstruct(bounded, mask, dev) == plan
        cut_cases += bool(cuts["bound"])
        assert solve(tables) == dp_scheduler.SolveResult(makespan_s=optimum, plan=plan)
    # the bound cut states, and not only on one instance
    assert cut_cases > 1


@pytest.fixture
def fills(monkeypatch):
    """The table of every compute_table call, in order."""
    calls = []
    fill = dp_scheduler.compute_table

    def counted(*args, **kwargs):
        calls.append(fill(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(dp_scheduler, "compute_table", counted)
    return calls


def test_every_solve_fills_once(fills, tab1_tables):
    solve(tab1_tables())
    assert len(fills) == 1
    for instance in random_instance_suite(300, 0):
        fills.clear()
        try:
            solve(suite_tables(instance))
        except InfeasibleError:
            pass
        assert len(fills) == 1
    for num_devices in (8, 10):
        fills.clear()
        solve(make_tables(*_metamorphic_fleet(0, num_devices)))
        assert len(fills) == 1


def assert_solve_is_unbounded_plan(monkeypatch, fills, tables):
    """solve fills once, cuts states, and returns the unbounded table's plan."""
    result = solve(tables)
    (table,) = fills
    full = unbounded_table(monkeypatch, tables)
    assert (np.isinf(table.values) & np.isfinite(full.values)).any()
    makespan, mask, dev = best_final_state(full)
    assert result == dp_scheduler.SolveResult(makespan, reconstruct(full, mask, dev))


def test_large_solve_bounds_its_own_fill(monkeypatch, fills):
    # K = 10 at 60 layers, the benchmark's scale
    layers, devices = _metamorphic_fleet(0, 10)
    assert_solve_is_unbounded_plan(monkeypatch, fills, make_tables(layers, devices))


def test_memory_limited_fleet_cuts_states_and_keeps_the_unbounded_plan(monkeypatch, fills):
    # ten devices, each with memory for 11 of the 60 layers, so a plan needs
    # six of them; the fill cuts states once a complete plan is written and
    # returns the plan of the fill that cuts none
    workload, activation, params = 4e11, 2e7, 5e8
    devices = [make_device(k, peak=1e13 * (1 + k / 10), memory=params * 11 + activation)
               for k in range(10)]
    tables = make_tables([(workload, activation, params)] * 60, devices)
    assert_solve_is_unbounded_plan(monkeypatch, fills, tables)


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


@pytest.mark.parametrize("layers_per_device", [8, 12, 20, 61])
def test_identical_devices_run_in_descending_order(fills, layers_per_device):
    # every plan ties with its mirror images; the tie key takes the smallest
    # mask, then the smallest device from the last stage back.  The mirror
    # images tie at the optimum, so the fill's incumbent cuts none of them
    workload, activation, params = 4e11, 2e7, 5e8
    devices = [make_device(k, memory=params * layers_per_device + activation)
               for k in range(8)]
    plan = solve(make_tables([(workload, activation, params)] * 60, devices)).plan
    assert plan.devices == tuple(range(len(plan.stages) - 1, -1, -1))
    assert len(fills) == 1
