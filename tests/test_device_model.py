import math

import pytest
from hypothesis import given, strategies as st

from coldpipe.device_model import (channel_gain, effective_compute, link_rate,
                                   utilization)
from coldpipe.errors import ConfigError
from coldpipe.model_profile import LayerProfile
from conftest import make_device, make_radio


def test_utilization_device1():
    dev = make_device(peak=165e12, ceiling=0.4, rate=5.1e-4)
    assert utilization(dev, 2048) == pytest.approx(0.2592501013275519, rel=1e-12)


def test_utilization_zero_tokens():
    assert utilization(make_device(), 0) == 0.0


def test_utilization_saturates_at_ceiling():
    dev = make_device(ceiling=0.73)
    assert abs(utilization(dev, 10**9) - 0.73) < 1e-9
    assert utilization(dev, 5000) < 0.73


@given(st.integers(min_value=0, max_value=10**4))
def test_utilization_bounded_and_increasing(t):
    dev = make_device(ceiling=0.8, rate=1e-3)
    u = utilization(dev, t)
    assert 0.0 <= u < 0.8
    assert utilization(dev, t + 1) > u


def test_effective_compute_device1():
    dev = make_device(peak=165e12, ceiling=0.4, rate=5.1e-4)
    assert effective_compute(dev, 2048) == pytest.approx(42776266719046.06, rel=1e-12)


def test_effective_compute_rejects_zero_tokens():
    with pytest.raises(ValueError):
        effective_compute(make_device(), 0)


def test_effective_compute_monotone():
    dev = make_device()
    values = [effective_compute(dev, t) for t in (1, 10, 100, 1000, 10000)]
    assert values == sorted(values)
    assert values[0] > 0.0


def test_effective_compute_degenerate():
    # growth rate so small the exponential underflows to exactly 1.0
    dev = make_device(rate=1e-300)
    with pytest.raises(ConfigError):
        effective_compute(dev, 1)


def test_channel_gain_reference():
    assert channel_gain(make_radio(dist=1.0)) == \
        pytest.approx(1.905460717963246e-05, rel=1e-12)


def test_channel_gain_at_reference_distance():
    for exp in (2.0, 3.0, 4.0):
        assert channel_gain(make_radio(dist=1.0, ref_dist=1.0, exp=exp)) == \
            pytest.approx(10 ** (-47.2 / 10), rel=1e-12)


def test_channel_gain_power_law():
    g1 = channel_gain(make_radio(dist=1.0))
    g3 = channel_gain(make_radio(dist=3.0))
    assert g3 / g1 == pytest.approx(1 / 27, rel=1e-12)


def test_uplink_rate_device1():
    radio = make_radio(up_dbm=20.0, dist=1.0)
    assert link_rate(radio, "up") == pytest.approx(1720992660.0807686, rel=1e-12)


def test_link_rate_linear_in_efficiency():
    half = link_rate(make_radio(eff=0.5), "up")
    full = link_rate(make_radio(eff=1.0), "up")
    assert full == pytest.approx(2 * half, rel=1e-12)


def test_link_rate_decreases_with_distance():
    rates = [link_rate(make_radio(dist=d), "up") for d in (1, 2, 5, 10, 50)]
    assert rates == sorted(rates, reverse=True)
    assert all(r > 0 and math.isfinite(r) for r in rates)


@given(st.floats(min_value=-20.0, max_value=40.0),
       st.floats(min_value=0.0, max_value=30.0))
def test_downlink_beats_uplink_when_power_higher(up_dbm, extra_dbm):
    radio = make_radio(up_dbm=up_dbm, down_dbm=up_dbm + extra_dbm)
    assert link_rate(radio, "down") >= link_rate(radio, "up")


def test_link_rate_rejects_bad_direction():
    with pytest.raises(ValueError):
        link_rate(make_radio(), "sideways")


def test_fleet_rates_positive_and_finite(fleet):
    for dev in fleet:
        for direction in ("up", "down"):
            rate = link_rate(dev.radio, direction)
            assert rate > 0 and math.isfinite(rate)


def test_profile_validation():
    with pytest.raises(ValueError):
        make_device(ceiling=0.0)
    with pytest.raises(ValueError):
        make_device(ceiling=1.5)
    with pytest.raises(ValueError):
        make_device(rate=-1e-3)
    with pytest.raises(ValueError):
        make_radio(eff=0.0)
    with pytest.raises(ValueError):
        make_radio(dist=-1.0)


def _layer(**fields):
    return LayerProfile(**{"workload_flops": 1.0, "activation_bytes": 1.0,
                           "param_bytes": 1.0, **fields})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make, field", [
    *[pytest.param(make_device, f, id=f)
      for f in ("peak", "ceiling", "rate", "disk", "memory", "up_dbm",
                "down_dbm", "noise", "dist", "ref_dist", "exp", "ref_gain",
                "bandwidth", "eff")],
    *[pytest.param(_layer, f, id=f)
      for f in ("workload_flops", "activation_bytes", "param_bytes")],
])
def test_non_finite_fields_rejected(make, field, value):
    with pytest.raises(ValueError, match="finite"):
        make(**{field: value})
