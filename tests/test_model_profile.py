import dataclasses
import random
import tracemalloc

import pytest

from coldpipe.errors import LimitError
from coldpipe.model_profile import (ModelConfig, attn_flops, build_profiles,
                                    activation_bytes, ffn_flops,
                                    layer_param_bytes, layer_sizes,
                                    layer_workload)

UNIT_CFG = ModelConfig(d_model=1, h_q=1, h_kv=1, d_head=1, d_ff=1,
                       num_layers=1, bytes_per_element=2)


def test_attn_flops_qwen(qwen_cfg):
    # 4 * 2048 * 128 * (5120*40 + 5120*8 + 2048*40), evaluated exactly
    assert attn_flops(qwen_cfg, 2048) == 343_597_383_680


def test_attn_flops_unit_dims():
    assert attn_flops(UNIT_CFG, 1) == 12


def test_attn_flops_superlinear_in_tokens(qwen_cfg):
    # the t**2 score term makes doubling t more than double the cost
    assert attn_flops(qwen_cfg, 4096) > 2 * attn_flops(qwen_cfg, 2048)


def test_ffn_flops_qwen(qwen_cfg):
    assert ffn_flops(qwen_cfg, 2048) == 1_095_216_660_480


def test_ffn_flops_unit_dims():
    assert ffn_flops(UNIT_CFG, 1) == 6


def test_ffn_flops_linear_in_tokens(qwen_cfg):
    assert ffn_flops(qwen_cfg, 4096) == 2 * ffn_flops(qwen_cfg, 2048)
    assert ffn_flops(qwen_cfg, 3 * 977) == 3 * ffn_flops(qwen_cfg, 977)


def test_layer_workload_is_attn_plus_ffn(qwen_cfg):
    assert layer_workload(qwen_cfg, 2048) == 1_438_814_044_160
    assert layer_workload(UNIT_CFG, 1) == 18


def test_layer_workload_decomposition_random_configs():
    rng = random.Random(20240817)
    for _ in range(50):
        h_q = rng.randint(1, 64)
        cfg = ModelConfig(
            d_model=rng.randint(1, 4096),
            h_q=h_q,
            h_kv=rng.randint(1, h_q),
            d_head=rng.randint(1, 256),
            d_ff=rng.randint(1, 32768),
            num_layers=rng.randint(1, 80),
        )
        t = rng.randint(1, 10000)
        assert layer_workload(cfg, t) == attn_flops(cfg, t) + ffn_flops(cfg, t)


def test_activation_bytes(qwen_cfg):
    assert activation_bytes(qwen_cfg, 2048) == 20_971_520
    assert activation_bytes(ModelConfig(1, 1, 1, 1, 1, 1), 1) == 2


def test_activation_independent_of_heads_and_ffn(qwen_cfg):
    other = ModelConfig(d_model=qwen_cfg.d_model, h_q=2, h_kv=1, d_head=4,
                        d_ff=99, num_layers=3,
                        bytes_per_element=qwen_cfg.bytes_per_element)
    assert activation_bytes(other, 2048) == activation_bytes(qwen_cfg, 2048)


def test_layer_param_bytes(qwen_cfg):
    assert layer_param_bytes(qwen_cfg) == 125_829_120 + 534_773_760
    assert layer_param_bytes(UNIT_CFG) == 14


def test_param_bytes_independent_of_tokens(qwen_cfg):
    # P has no token dependence at all; A is exactly linear in t
    assert activation_bytes(qwen_cfg, 512) * 4 == activation_bytes(qwen_cfg, 2048)
    base = layer_param_bytes(qwen_cfg)
    assert base == layer_param_bytes(qwen_cfg)


def test_full_model_size_matches_14b_class(qwen_cfg):
    total = qwen_cfg.num_layers * layer_param_bytes(qwen_cfg)
    assert total == 26_424_115_200  # ~26.4 GB of bf16 block weights


def test_build_profiles_uniform(qwen_cfg):
    profiles = build_profiles(qwen_cfg, 2048)
    assert len(profiles) == 40
    assert all(p == profiles[0] for p in profiles)
    assert sum(p.param_bytes for p in profiles) == \
        qwen_cfg.num_layers * layer_param_bytes(qwen_cfg)
    assert profiles[0].workload_flops == float(layer_workload(qwen_cfg, 2048))


def test_build_profiles_refuses_past_one_devices_cost_tables(qwen_cfg):
    # one device's cost tables admit 10,233 layers; the refusal of a trillion
    # comes before the list of profiles is made
    assert len(build_profiles(dataclasses.replace(qwen_cfg, num_layers=10_233), 256)) == 10_233
    for num_layers in (10_234, 10**12):
        cfg = dataclasses.replace(qwen_cfg, num_layers=num_layers)
        tracemalloc.start()
        try:
            with pytest.raises(LimitError, match=f"1 devices and {num_layers} layers"):
                build_profiles(cfg, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_rejects_zero_tokens(qwen_cfg):
    for fn in (attn_flops, ffn_flops, layer_workload, activation_bytes):
        with pytest.raises(ValueError):
            fn(qwen_cfg, 0)
    with pytest.raises(ValueError):
        build_profiles(qwen_cfg, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=0, h_q=1, h_kv=1, d_head=1, d_ff=1, num_layers=1)
    with pytest.raises(ValueError):
        ModelConfig(d_model=1, h_q=2, h_kv=4, d_head=1, d_ff=1, num_layers=1)
    with pytest.raises(ValueError):
        ModelConfig(d_model=1, h_q=1, h_kv=1, d_head=1, d_ff=1, num_layers=-3)


def test_no_overflow_at_large_inputs(qwen_cfg):
    cfg = ModelConfig(d_model=10**5, h_q=64, h_kv=64, d_head=256,
                      d_ff=10**5, num_layers=1)
    w = layer_workload(cfg, 10**6)
    assert w > 0 and isinstance(w, int)
    # float64 holds every integer up to 2**53; the bound is the first token
    # count whose layer FLOPs pass it
    assert max(layer_sizes(qwen_cfg, 647_245)) <= 2**53
    with pytest.raises(ValueError, match="647246"):
        build_profiles(qwen_cfg, 647_246)
