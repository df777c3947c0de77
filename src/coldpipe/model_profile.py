"""Per-layer workload, activation, and parameter sizing for GQA + SwiGLU
transformer blocks.

Only the repeated transformer blocks are modeled (no embedding or output
head, no KV cache).  All layers share one configuration, so a profile list
is uniform, but downstream code treats layers individually.

The sizing functions do exact integer arithmetic (Python ints, unbounded).
Downstream cost tables store them as float64, which is exact up to 2**53;
`layer_sizes` rejects any token count past that bound.  At Qwen3-14B
dimensions the largest accepted token count is 647,245.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LimitError


@dataclass(frozen=True)
class ModelConfig:
    """Transformer-block hyperparameters.

    bytes_per_element is 2 for bf16; set 4 for fp32 or 1 for int8 variants.
    """

    d_model: int
    h_q: int
    h_kv: int
    d_head: int
    d_ff: int
    num_layers: int
    bytes_per_element: int = 2

    def __post_init__(self):
        for name in ("d_model", "h_q", "h_kv", "d_head", "d_ff", "num_layers",
                     "bytes_per_element"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.h_kv > self.h_q:
            raise ValueError(
                f"h_kv ({self.h_kv}) must not exceed h_q ({self.h_q})")


@dataclass(frozen=True)
class LayerProfile:
    """Cost triple for one transformer block at a fixed token length."""

    workload_flops: float
    activation_bytes: float
    param_bytes: float

    def __post_init__(self):
        values = (self.workload_flops, self.activation_bytes, self.param_bytes)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError("layer profile fields must be finite and nonnegative")


def _check_tokens(t: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"token count must be a positive integer, got {t!r}")


def attn_flops(cfg: ModelConfig, t: int) -> int:
    """FLOPs of one attention block over a t-token prefill.

    Covers Q/K/V projections, context computation, and the output
    projection, counting both multiplies and adds.  Quadratic in t through
    the score/context term.
    """
    _check_tokens(t)
    return 4 * t * cfg.d_head * (cfg.d_model * cfg.h_q + cfg.d_model * cfg.h_kv
                                 + t * cfg.h_q)


def ffn_flops(cfg: ModelConfig, t: int) -> int:
    """FLOPs of one SwiGLU FFN block (up, gate, and down projections)."""
    _check_tokens(t)
    return 6 * t * cfg.d_model * cfg.d_ff


def layer_workload(cfg: ModelConfig, t: int) -> int:
    """Total FLOPs of one transformer block: attention plus FFN."""
    return attn_flops(cfg, t) + ffn_flops(cfg, t)


def activation_bytes(cfg: ModelConfig, t: int) -> int:
    """Size of the hidden-state tensor handed to the next layer, in bytes."""
    _check_tokens(t)
    return cfg.bytes_per_element * t * cfg.d_model


def layer_param_bytes(cfg: ModelConfig) -> int:
    """Weight bytes of one block: Q/K/V + output projections plus the three
    FFN projections."""
    attn_elems = 2 * cfg.d_model * cfg.d_head * (cfg.h_q + cfg.h_kv)
    ffn_elems = 3 * cfg.d_model * cfg.d_ff
    return cfg.bytes_per_element * (attn_elems + ffn_elems)


def layer_sizes(cfg: ModelConfig, t: int) -> tuple[int, int, int]:
    """(FLOPs, activation bytes, weight bytes) of one block at t tokens.

    Raises LimitError naming t when any of them exceeds 2**53, past which
    float64 no longer holds every integer.
    """
    sizes = (layer_workload(cfg, t), activation_bytes(cfg, t),
             layer_param_bytes(cfg))
    if max(sizes) > 2**53:
        raise LimitError(f"token count {t} is too large: one layer's FLOPs or "
                         "bytes exceed 2**53, the float64-exact limit")
    return sizes


def build_profiles(cfg: ModelConfig, t: int) -> list[LayerProfile]:
    """One LayerProfile per block; uniform because blocks share a config.

    Raises LimitError, before the list is made, when the model's cost tables
    would pass their byte limit even on one device."""
    from .cost_tables import check_bytes  # here, so importing this module loads no numpy
    check_bytes(1, cfg.num_layers)
    flops, act_bytes, param_bytes = layer_sizes(cfg, t)
    profile = LayerProfile(
        workload_flops=float(flops),
        activation_bytes=float(act_bytes),
        param_bytes=float(param_bytes),
    )
    return [profile] * cfg.num_layers
