import importlib.util
import sys
from pathlib import Path

import pytest

from coldpipe import cost_tables
from coldpipe.config import load_scenario
from coldpipe.device_model import DeviceProfile, RadioParams
from coldpipe.model_profile import LayerProfile, build_profiles

TAB1_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tab1.yaml"
BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_benchmark(name, monkeypatch):
    """The module at benchmark/<name>.py, loaded by path so sys.path is left
    as it is, and registered in sys.modules for the test's duration
    (dataclasses looks its module up there)."""
    spec = importlib.util.spec_from_file_location(
        f"coldpipe_bench_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def tab1_scenario():
    """The shipped four-device fleet, loaded from configs/tab1.yaml."""
    return load_scenario(TAB1_CONFIG)


@pytest.fixture
def qwen_cfg():
    return tab1_scenario().model


@pytest.fixture
def fleet():
    return list(tab1_scenario().devices)


@pytest.fixture
def tab1_tables(qwen_cfg, fleet):
    def make(t=2048):
        return cost_tables.build(build_profiles(qwen_cfg, t), fleet, t)
    return make


def make_radio(up_dbm=20.0, down_dbm=25.0, dist=1.0, bandwidth=160e6,
               eff=0.5, noise=-174.0, exp=3.0, ref_gain=-47.2, ref_dist=1.0):
    return RadioParams(
        bandwidth_hz=bandwidth,
        tx_power_up_dbm=up_dbm,
        tx_power_down_dbm=down_dbm,
        noise_dbm_per_hz=noise,
        distance_m=dist,
        ref_distance_m=ref_dist,
        path_loss_exp=exp,
        ref_gain_db=ref_gain,
        efficiency=eff,
    )


def make_device(idx=0, peak=1e13, ceiling=0.8, rate=1e-3, disk=1e9,
                memory=1e12, **radio_kwargs):
    return DeviceProfile(
        id=idx + 1,
        peak_flops=peak,
        util_ceiling=ceiling,
        util_rate=rate,
        disk_bytes_per_s=disk,
        memory_bytes=memory,
        radio=make_radio(**radio_kwargs),
    )


def make_tables(layer_triples, devices, t=100):
    """Tables over explicit (workload, activation, params) layer triples."""
    profiles = [LayerProfile(workload_flops=w, activation_bytes=a, param_bytes=p)
                for (w, a, p) in layer_triples]
    return cost_tables.build(profiles, devices, t)
