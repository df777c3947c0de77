"""Shipped model presets: the Qwen3-14B model card values.

Qwen3-14B hyperparameters are taken from the public model card
(hidden size 5120, 40 query heads, 8 KV heads, head dim 128, FFN 17408,
40 transformer blocks, bf16 weights and activations).  The evaluation
fleet lives in configs/tab1.yaml.
"""

from __future__ import annotations

from .model_profile import ModelConfig

MODEL_PRESETS: dict[str, ModelConfig] = {
    "qwen3_14b": ModelConfig(
        d_model=5120,
        h_q=40,
        h_kv=8,
        d_head=128,
        d_ff=17408,
        num_layers=40,
        bytes_per_element=2,
    ),
}
