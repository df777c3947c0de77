import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coldpipe import cost_tables
from coldpipe.device_model import effective_compute
from coldpipe.model_profile import build_profiles
from conftest import make_device, make_tables

REL = 1e-12


def triples(n, rng_seed=1):
    rng = np.random.default_rng(rng_seed)
    return [(float(w), float(a), float(p))
            for w, a, p in zip(rng.uniform(1e9, 1e13, n),
                               rng.uniform(1e5, 1e8, n),
                               rng.uniform(1e6, 1e9, n))]


def test_prefix_arrays_single_layer():
    # row i=0 of the segment tables holds the prefix sums over the rates
    dev = make_device()
    tables = make_tables([(2e12, 1e6, 5e8)], [dev])
    assert tables.load_s[0, 0].tolist() == [0.0, 5e8 / 1e9]
    assert tables.comp_s[0, 0].tolist() == [0.0, 2e12 / effective_compute(dev, 100)]


def test_prefix_arrays_uniform_layers(qwen_cfg, fleet):
    tables = cost_tables.build(build_profiles(qwen_cfg, 2048), fleet, 2048)
    one_layer = np.diagonal(tables.load_s[0], offset=1)
    assert np.all(one_layer == one_layer[0])
    assert tables.load_s[0, 0, 0] == 0.0
    assert np.all(np.diff(tables.comp_s[0, 0]) > 0)


def test_seg_load_one_layer_device1(tab1_tables):
    tables = tab1_tables(2048)
    assert tables.load_s[0, 0, 1] == pytest.approx(0.132120576, rel=REL)


def test_seg_load_whole_model_telescopes(tab1_tables):
    tables = tab1_tables(2048)
    total = 40 * 660_602_880.0
    assert tables.load_s[2, 0, 40] == pytest.approx(total / 3000e6, rel=REL)


def test_seg_comp_one_layer_device1(tab1_tables):
    tables = tab1_tables(2048)
    assert tables.comp_s[0, 0, 1] == pytest.approx(0.0336358021519295, rel=REL)


def test_seg_comp_stronger_device_is_faster(tab1_tables):
    tables = tab1_tables(2048)
    assert tables.comp_s[0, 4, 20] < tables.comp_s[3, 4, 20]


def test_each_device_computes_every_layer_at_one_rate(fleet):
    # dp_scheduler's lower bound on the compute still to come is exact only
    # while devices rank alike on every segment: comp_s[d] / comp_s[0] is
    # one constant over all non-empty segments, also with unequal layers
    devices = list(fleet) + [make_device(k, peak=1e12 * (k + 1), ceiling=0.2 + 0.1 * k,
                                         rate=10.0 ** -k) for k in range(4)]
    tables = make_tables(triples(30), devices, t=512)
    i, j = np.triu_indices(31, k=1)
    ratio = tables.comp_s[:, i, j] / tables.comp_s[0, i, j]
    np.testing.assert_allclose(ratio, np.broadcast_to(ratio[:, :1], ratio.shape), rtol=1e-12)


@given(st.data())
def test_segment_additivity(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    tables = make_tables(triples(n, seed), [make_device()])
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=i, max_value=n - 1))
    k = data.draw(st.integers(min_value=j + 1, max_value=n))
    for seg in (tables.load_s[0], tables.comp_s[0]):
        whole = seg[i - 1, k]
        parts = seg[i - 1, j] + seg[j, k]
        assert whole == pytest.approx(parts, rel=1e-12)


def test_seg_comm_example(tab1_tables):
    tables = tab1_tables(2048)
    # 8 * 20971520 bits over min(uplink 1, downlink 2) = downlink 2
    expected = 8 * 20971520 / 1473479074.5394602
    assert tables.comm_s[0, 1, 7] == pytest.approx(expected, rel=1e-10)


def test_min_link_table(tab1_tables):
    tables = tab1_tables(2048)
    up1 = 1720992660.0807686
    down2 = 1473479074.5394602
    bits = 8 * 20971520
    assert tables.comm_s[0, 1, 5] == pytest.approx(bits / min(up1, down2), rel=1e-10)
    # faster bottleneck means strictly less time for the same payload
    assert tables.comm_s[0, 1, 5] < tables.comm_s[3, 2, 5]


def test_seg_comm_zero_activation():
    tables = make_tables([(1e12, 0.0, 1e8), (1e12, 0.0, 1e8)],
                         [make_device(0), make_device(1)])
    assert tables.comm_s[0, 1, 1] == 0.0


def test_mem_footprint_single_layer(tab1_tables):
    tables = tab1_tables(2048)
    assert tables.mem_footprint(1, 1) == pytest.approx(681_574_400.0, rel=REL)


def test_mem_footprint_uniform_layers(tab1_tables):
    tables = tab1_tables(2048)
    per_layer = 660_602_880.0
    act = 20_971_520.0
    assert tables.mem_footprint(3, 12) == pytest.approx(act + 10 * per_layer, rel=REL)


def test_mem_footprint_monotone():
    tables = make_tables(triples(8), [make_device()])
    for i in range(1, 8):
        for j in range(i, 8):
            assert tables.mem_footprint(i, j) <= tables.mem_footprint(i, j + 1)
            if i > 1:
                assert tables.mem_footprint(i, j) <= tables.mem_footprint(i - 1, j)


def test_mem_footprint_uses_segment_max_activation():
    rows = [(1e12, 100.0, 10.0), (1e12, 900.0, 10.0), (1e12, 50.0, 10.0)]
    tables = make_tables(rows, [make_device()])
    assert tables.mem_footprint(1, 1) == 110.0
    assert tables.mem_footprint(1, 3) == 900.0 + 30.0
    assert tables.mem_footprint(3, 3) == 60.0


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        make_tables([], [make_device()])
    with pytest.raises(ValueError):
        make_tables(triples(3), [])


def test_build_rejects_degenerate_compute():
    from coldpipe.errors import ConfigError
    with pytest.raises(ConfigError):
        make_tables(triples(2), [make_device(rate=1e-300)])


@pytest.mark.parametrize("slow, message", [
    (dict(peak=1e-310), "device 2: computing all 3 layers takes inf s"),
    (dict(disk=1e-304), "device 2: reading all 3 layers from disk takes inf s"),
    # a finite link rate near 3.5e-303 bits/s
    (dict(bandwidth=1e-304, noise=2800.0),
     "device 2: 2 transfers of the largest activation take inf s"),
], ids=["compute", "disk", "link"])
def test_build_rejects_rates_whose_plan_times_overflow(slow, message):
    from coldpipe.errors import ConfigError
    with pytest.raises(ConfigError, match=f"^{message}, too slow"):
        make_tables([(1e9, 1e6, 1e6)] * 3, [make_device(0), make_device(1, **slow)])


def test_outputs_positive(tab1_tables):
    tables = tab1_tables(256)
    assert tables.load_s[3, 0, 40] > 0
    assert tables.comp_s[3, 0, 40] > 0
    assert tables.comm_s[1, 0, 10] > 0
    assert tables.mem_footprint(1, 40) > 0


def test_no_segment_fits_where_i_is_not_below_j(tab1_tables):
    # fits needs no mask of its own: footprint is +inf on every empty cell
    tables = tab1_tables(2048)
    empty = np.tri(41, dtype=bool)
    assert np.all(tables.footprint[empty] == np.inf)
    assert not tables.fits[:, empty].any()
    assert tables.fits[:, ~empty].any()


@pytest.mark.parametrize("num_devices", [1, 2, 3, 4])
def test_build_peak_matches_the_count(qwen_cfg, fleet, num_devices):
    # the refusal is only as good as the count: build's traced peak stays
    # within 5% of the bytes its MAX_TABLE_BYTES check counts
    num_layers, t = 400, 2048
    profiles = build_profiles(dataclasses.replace(qwen_cfg, num_layers=num_layers), t)
    cells = (num_layers + 1) ** 2
    count = (8 * (num_devices + 3 * cells + num_devices**2 * (num_layers + 1))
             + 17 * num_devices * cells)
    tracemalloc.start()
    try:
        cost_tables.build(profiles, fleet[:num_devices], t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak - count) <= 0.05 * count


def test_max_hostable_layers(tab1_tables):
    tables = tab1_tables(2048)
    # Device 1: 20 GB, ~0.6606 GB/layer + one 20 MB activation -> 30 layers
    assert tables.max_hostable_layers(0) == 30
    assert tables.max_hostable_layers(1) == 15
    assert tables.max_hostable_layers(2) == 12
    assert tables.max_hostable_layers(3) == 12
