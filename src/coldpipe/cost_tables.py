"""Precomputed cost tables for one scenario (model profiles x devices x
token length).

`build` is the one definition of what a pipeline segment costs: the solver,
the timeline and the brute-force oracle all index the arrays it returns.
Segment arrays are indexed by layer boundaries, so `[d, i, j]` covers
layers i+1..j and the 1-based inclusive segment a..b is `[d, a - 1, b]`.
Cells with i >= j hold no segment (+inf `footprint`, False `fits`) and no
caller reads them.  Device indices are 0-based positions in the device list.

Bytes vs bits: sizes are in bytes and link rates in bits/s; the factor of 8
is applied once, in `comm_s`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device_model import DeviceProfile, effective_compute, link_rate
from .errors import ConfigError, LimitError
from .model_profile import LayerProfile

MAX_TABLE_BYTES = 2**32  # cost tables, or DP tables with fill scratch, past it are refused


@dataclass
class CostTables:
    """Immutable-after-build lookup tables."""

    num_layers: int
    num_devices: int
    devices: tuple[DeviceProfile, ...]
    memory_bytes: np.ndarray  # (K,)
    footprint: np.ndarray     # (L+1, L+1) bytes to host layers i+1..j
    fits: np.ndarray          # (K, L+1, L+1) layers i+1..j fit device d
    load_s: np.ndarray        # (K, L+1, L+1) disk read of layers i+1..j on d
    comp_s: np.ndarray        # (K, L+1, L+1) compute of layers i+1..j on d
    comm_s: np.ndarray        # (K, K, L+1) layer j's output from src to dst

    def mem_footprint(self, i: int, j: int) -> float:
        """Bytes needed to host layers i..j: weights plus the largest
        activation in the segment."""
        if not 1 <= i <= j <= self.num_layers:
            raise IndexError(
                f"invalid layer segment [{i}, {j}] for L={self.num_layers}")
        return self.footprint[i - 1, j]

    def max_hostable_layers(self, d: int) -> int:
        """Longest contiguous segment device d can hold anywhere in the
        model (0 if not even a single layer fits).  Diagnostic helper."""
        if not 0 <= d < self.num_devices:
            raise IndexError(f"invalid device index {d} for K={self.num_devices}")
        # footprints grow with j, so the fitting j of row i run from i+1
        return int(self.fits[d].sum(axis=1).max())


def build(profiles: list[LayerProfile], devices: list[DeviceProfile],
          t: int) -> CostTables:
    """Evaluate per-device rates at token length t and precompute all
    segment tables."""
    num_layers = len(profiles)
    num_devices = len(devices)
    if num_layers < 1 or num_devices < 1:
        raise ValueError("need at least one layer profile and one device")
    # all that build allocates: the arrays CostTables holds, fits one byte a
    # cell, and the two (L+1, L+1) segment sums
    cells = (num_layers + 1) ** 2
    need = (8 * (num_devices + 3 * cells + num_devices**2 * (num_layers + 1))
            + 17 * num_devices * cells)
    if need > MAX_TABLE_BYTES:
        raise LimitError(
            f"{num_devices} devices and {num_layers} layers need {need:,} bytes of "
            f"cost tables, over the limit of {MAX_TABLE_BYTES:,} bytes")

    # prefix_*[l] sums layers 1..l; seg_*[i, j] sums layers i+1..j if i < j
    prefix_param = np.cumsum([0.0] + [p.param_bytes for p in profiles])
    prefix_work = np.cumsum([0.0] + [p.workload_flops for p in profiles])
    act = np.array([0.0] + [p.activation_bytes for p in profiles])

    disk = np.array([dev.disk_bytes_per_s for dev in devices])
    compute = np.array([effective_compute(dev, t) for dev in devices])
    memory = np.array([dev.memory_bytes for dev in devices])

    up = np.array([link_rate(dev.radio, "up") for dev in devices])
    down = np.array([link_rate(dev.radio, "down") for dev in devices])
    for dev, u, dn in zip(devices, up, down):
        if not (np.isfinite(u) and np.isfinite(dn)) or u <= 0.0 or dn <= 0.0:
            raise ConfigError(
                f"device {dev.id} has a zero or non-finite link rate")
    # A transfer goes through the access point: sender uplink, then
    # receiver downlink, at the slower of the two.
    min_link = np.minimum(up[:, None], down[None, :])

    # No plan takes longer than the slowest whole-model load, plus every
    # device computing the whole model, plus K of the largest transfers; a
    # rate so small that this bound overflows would give inf plan times.
    with np.errstate(over="ignore"):
        terms = np.stack([prefix_param[-1] / disk, prefix_work[-1] / compute,
                          num_devices * 8.0 * act.max() / np.minimum(up, down)])
        bound = terms[0].max() + terms[1].sum() + terms[2].max()
    if not np.isfinite(bound):
        kind, d = np.unravel_index(np.argmax(terms), terms.shape)
        what = (f"reading all {num_layers} layers from disk takes",
                f"computing all {num_layers} layers takes",
                f"{num_devices} transfers of the largest activation take")[kind]
        raise ConfigError(f"device {devices[d].id}: {what} {terms[kind, d]:.3g} s, "
                          f"too slow for plan times to stay finite")

    seg_param = prefix_param[None, :] - prefix_param[:, None]
    seg_work = prefix_work[None, :] - prefix_work[:, None]

    # footprint[i, j] = weights of layers i+1..j plus their largest
    # activation, built in place; +inf on empty segments (i >= j) fits nothing
    empty = np.tri(num_layers + 1, dtype=bool)
    footprint = np.where(empty, 0.0, act)
    np.maximum.accumulate(footprint, axis=1, out=footprint)
    footprint += seg_param
    footprint[empty] = np.inf

    return CostTables(
        num_layers=num_layers,
        num_devices=num_devices,
        devices=tuple(devices),
        memory_bytes=memory,
        footprint=footprint,
        fits=footprint[None, :, :] <= memory[:, None, None],
        load_s=seg_param[None, :, :] / disk[:, None, None],
        # one rate per device over every layer: dp_scheduler's lower bound
        # on the compute still to come relies on it
        comp_s=seg_work[None, :, :] / compute[:, None, None],
        comm_s=(8.0 * act)[None, None, :] / min_link[:, :, None],
    )
