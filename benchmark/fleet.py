"""Seeded synthetic fleets for the fleet_ladder workload.

The generator belongs to the benchmark, not to the library, so a change to
coldpipe's own random instances cannot change these inputs.  Every value is
drawn in the config file's display units and scaled exactly as
`config.load_scenario` scales it, so the dumped YAML reloads to the
identical scenario.  Memory is effectively unlimited, so no DP state is cut
by memory and the fill time depends on K and L alone.
"""

from __future__ import annotations

import random

from coldpipe.device_model import DeviceProfile, RadioParams
from coldpipe.experiment import Scenario
from coldpipe.model_profile import ModelConfig

LADDER = (8, 10, 12)
TOKENS = 2048
NUM_FLEETS = 64  # seed selects fleet seed % NUM_FLEETS; ref/ stores each one's optimum
MODEL = ModelConfig(d_model=2048, h_q=16, h_kv=4, d_head=128, d_ff=8192,
                    num_layers=60, bytes_per_element=2)
UNLIMITED_MEMORY_GB = 1e9


def fleet_index(seed: int) -> int:
    return seed % NUM_FLEETS


def _device(rng: random.Random, device_id: int) -> DeviceProfile:
    radio = RadioParams(
        bandwidth_hz=160.0 * 1e6,
        tx_power_up_dbm=rng.randrange(150, 231) / 10,
        tx_power_down_dbm=25.0,
        noise_dbm_per_hz=-174.0,
        distance_m=rng.randrange(10, 101) / 10,
        ref_distance_m=1.0,
        path_loss_exp=3.0,
        ref_gain_db=-47.2,
        efficiency=0.5,
    )
    return DeviceProfile(
        id=device_id,
        peak_flops=rng.randrange(40, 401) * 0.5 * 1e12,
        util_ceiling=rng.randrange(30, 91) / 100,
        util_rate=rng.randrange(50, 201) / 100000,
        disk_bytes_per_s=rng.randrange(10, 61) * 100.0 * 1e6,
        memory_bytes=UNLIMITED_MEMORY_GB * 1e9,
        radio=radio,
    )


def fleet_scenario(seed: int, num_devices: int) -> Scenario:
    """The first num_devices devices of fleet `fleet_index(seed)`; the rungs
    of one ladder share their devices."""
    rng = random.Random(f"coldpipe-fleet-{fleet_index(seed)}")
    devices = [_device(rng, i + 1) for i in range(max(LADDER))]
    return Scenario(model=MODEL, devices=tuple(devices[:num_devices]),
                    token_lengths=(TOKENS,), strategies=("optimal_dp",),
                    seed=fleet_index(seed))


def plan_string(stages) -> str:
    """Plan as `device_id:first-last|...`, from (device_id, first, last)
    triples in pipeline order."""
    return "|".join(f"{d}:{a}-{b}" for d, a, b in stages)
