"""Device-side resource model: workload-dependent effective compute, disk
read speed as the I/O proxy, and wireless link rates from a Shannon-capacity
budget with log-distance path loss.

Unit conventions (kept explicit everywhere):
  compute in FLOPS, disk in bytes/s, memory in bytes, link rates in bits/s,
  transmit powers in dBm, noise density in dBm/Hz, reference gain in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError


def _require_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RadioParams:
    """Link-budget inputs for one device's connection to the access point.

    The channel gain is symmetric, so up- and downlink differ only in
    transmit power.  efficiency discounts the Shannon rate for protocol
    overhead.
    """

    bandwidth_hz: float
    tx_power_up_dbm: float
    tx_power_down_dbm: float
    noise_dbm_per_hz: float
    distance_m: float
    ref_distance_m: float
    path_loss_exp: float
    ref_gain_db: float
    efficiency: float

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self)])
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.distance_m <= 0 or self.ref_distance_m <= 0:
            raise ValueError("distances must be positive")
        if self.path_loss_exp <= 0:
            raise ValueError("path_loss_exp must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one computing device (one Table-style row)."""

    id: int
    peak_flops: float        # theoretical peak compute
    util_ceiling: float      # max achievable utilization fraction, in (0, 1]
    util_rate: float         # utilization growth rate per token, > 0
    disk_bytes_per_s: float  # sustained read speed
    memory_bytes: float      # accelerator memory capacity
    radio: RadioParams

    def __post_init__(self):
        _require_finite(self, ("peak_flops", "util_ceiling", "util_rate",
                               "disk_bytes_per_s", "memory_bytes"))
        if not 0 < self.util_ceiling <= 1:
            raise ValueError("util_ceiling must lie in (0, 1]")
        if self.util_rate <= 0:
            raise ValueError("util_rate must be positive")
        if self.peak_flops <= 0 or self.disk_bytes_per_s <= 0 or self.memory_bytes <= 0:
            raise ValueError("peak_flops, disk_bytes_per_s, memory_bytes must be positive")


def utilization(dev: DeviceProfile, t: int) -> float:
    """Fraction of peak compute achieved at workload t (token count).

    Saturating exponential: 0 at t=0, approaching util_ceiling from below.
    """
    if t < 0:
        raise ValueError("token count must be nonnegative")
    return dev.util_ceiling * (1.0 - math.exp(-dev.util_rate * t))


def effective_compute(dev: DeviceProfile, t: int) -> float:
    """Usable FLOPS at workload t; strictly positive for t >= 1."""
    if t < 1:
        raise ValueError("token count must be at least 1")
    rate = dev.peak_flops * utilization(dev, t)
    if rate <= 0.0:
        raise ConfigError(
            f"device {dev.id} has zero effective compute at t={t}")
    return rate


def channel_gain(radio: RadioParams) -> float:
    """Linear channel gain from the log-distance path loss model."""
    ref_gain = 10.0 ** (radio.ref_gain_db / 10.0)
    return ref_gain * (radio.distance_m / radio.ref_distance_m) ** (-radio.path_loss_exp)


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def link_rate(radio: RadioParams, direction: str) -> float:
    """Achievable rate in bits/s for 'up' (device to AP) or 'down' (AP to
    device), from the Shannon capacity scaled by the efficiency factor."""
    powers = {"up": radio.tx_power_up_dbm, "down": radio.tx_power_down_dbm}
    if direction not in powers:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    try:
        power_w = _dbm_to_watts(powers[direction])
        noise_w = _dbm_to_watts(radio.noise_dbm_per_hz) * radio.bandwidth_hz
        snr = power_w * channel_gain(radio) / noise_w
    except (OverflowError, ZeroDivisionError):  # dB values past float range
        return math.inf
    return radio.efficiency * radio.bandwidth_hz * math.log2(1.0 + snr)
