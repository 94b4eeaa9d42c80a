"""LoRA and bottleneck adapters: identity at init, the low-rank algebra,
the merge, and trainable accounting."""

import numpy as np
import pytest

from tinypeft.corpus import TrainingExample
from tinypeft.errors import ConfigError, StateError
from tinypeft.model import init_model
from tinypeft.peft import (
    FIG12_TARGET_MODULES,
    BottleneckAdapterConfig,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    bottleneck_shapes,
    lora_shapes,
    merge_lora,
    quantize_base,
    trainable_summary,
)
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.store import load_adapter, load_model, save_adapter, save_model
from tinypeft.tensor import backward
from tinypeft.trainer import TrainConfig, Trainer

from conftest import lora_pairs, micro_config, parameter_count, rand_ids


def fresh(seed=0):
    return init_model(micro_config(), RngState(seed))


def test_default_config_matches_published_run():
    cfg = LoraConfig()
    assert (cfg.r, cfg.alpha, cfg.dropout) == (32, 32.0, 0.05)
    assert cfg.target_modules == FIG12_TARGET_MODULES
    assert cfg.scaling == 1.0


def test_attach_creates_one_pair_per_target():
    model = fresh()
    assert attach_lora(model, LoraConfig(r=4), RngState(1)) is model
    # 4 suffixes x 2 blocks
    assert len(lora_pairs(model)) == 8
    for a in lora_pairs(model):
        assert a.A.shape[0] == 4 and a.B.shape[1] == 4
        assert np.all(a.B.data == 0.0)


def test_identity_at_init_bitwise():
    base = fresh(5)
    ids = rand_ids(np.random.default_rng(0), 4, 9, 32)
    want = base.forward_logits(ids).data.copy()
    attach_lora(base, LoraConfig(r=4), RngState(2))
    got = base.forward_logits(ids).data  # eval mode, no dropout
    np.testing.assert_array_equal(got, want)


def test_a_init_statistics():
    model = fresh()
    attach_lora(model, LoraConfig(r=16), RngState(3))
    flat = np.concatenate([a.A.data.ravel() for a in lora_pairs(model)])
    assert abs(flat.std() - 1.0 / 4.0) < 0.02  # std 1/sqrt(r)


def test_lora_forward_matches_matrix_oracle():
    model = fresh()
    attach_lora(model, LoraConfig(r=3, alpha=6.0, dropout=0.0,
                                  target_modules=["attn.dense"]), RngState(4))
    lin = model.blocks[0].attn_dense
    a = lin.adapter
    a.B.data = np.random.default_rng(1).standard_normal(a.B.shape).astype(np.float32)
    x = np.random.default_rng(2).standard_normal((5, 8)).astype(np.float32)
    from tinypeft.tensor import Tensor
    lin.weight.data = np.zeros_like(lin.weight.data)  # base bias is 0: lin(x) is the delta
    got = lin(Tensor(x)).data
    want = 2.0 * (x @ a.A.data.T @ a.B.data.T)  # scaling alpha/r = 2
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_delta_weight_rank_bound():
    model = fresh()
    attach_lora(model, LoraConfig(r=2, target_modules=["dense_h_to_4h"]), RngState(5))
    lin = model.blocks[0].mlp_up
    lin.adapter.B.data = np.random.default_rng(3).standard_normal(
        lin.adapter.B.shape).astype(np.float32)
    dw = lin.adapter.delta_weight()
    s = np.linalg.svd(dw.astype(np.float64), compute_uv=False)
    assert (s > 1e-5 * s[0]).sum() <= 2


def test_scaling_linear_in_alpha():
    from tinypeft.tensor import Tensor
    deltas = []
    for alpha in (8.0, 16.0):
        model = fresh(9)
        attach_lora(model, LoraConfig(r=4, alpha=alpha, dropout=0.0,
                                      target_modules=["attn.dense"]), RngState(6))
        lin = model.blocks[0].attn_dense
        lin.adapter.B.data = np.ones(lin.adapter.B.shape, np.float32)
        x = np.ones((2, 8), np.float32)
        lin.weight.data = np.zeros_like(lin.weight.data)  # base bias is 0: lin(x) is the delta
        deltas.append(lin(Tensor(x)).data)
    np.testing.assert_allclose(deltas[1], 2.0 * deltas[0], rtol=1e-6)


def test_double_attach_raises():
    model = fresh()
    attach_lora(model, LoraConfig(r=2), RngState(0))
    with pytest.raises(StateError):
        attach_lora(model, LoraConfig(r=2), RngState(0))


def test_unmatched_target_raises():
    with pytest.raises(ConfigError, match="bogus"):
        attach_lora(fresh(), LoraConfig(target_modules=["bogus"]), RngState(0))


def test_config_validation():
    with pytest.raises(ConfigError):
        LoraConfig(r=0)
    with pytest.raises(ConfigError):
        LoraConfig(dropout=1.0)


# -- merge --------------------------------------------------------------------


def _trained_lora_model(seed=7):
    model = fresh(seed)
    attach_lora(model, LoraConfig(r=4, dropout=0.0), RngState(seed + 1))
    # nudge B away from zero so merge actually changes weights
    rng = np.random.default_rng(seed)
    for a in lora_pairs(model):
        a.B.data = 0.1 * rng.standard_normal(a.B.shape).astype(np.float32)
    return model


def test_merge_matches_adapted_forward():
    model = _trained_lora_model()
    ids = rand_ids(np.random.default_rng(1), 4, 10, 32)
    want = model.forward_logits(ids).data.copy()
    merge_lora(model)
    assert model.adapter_config is None
    got = model.forward_logits(ids).data
    err = np.abs(got - want).max() / max(np.abs(want).max(), 1e-9)
    assert err < 1e-5


def test_merge_guards():
    with pytest.raises(StateError):
        merge_lora(fresh())
    model = _trained_lora_model()
    merge_lora(model)
    with pytest.raises(StateError):
        merge_lora(model)


def test_merged_qlora_model_is_a_plain_f32_base(tmp_path):
    model = fresh()
    quantize_base(model, QuantConfig(block_size=16))
    attach_lora(model, LoraConfig(r=2, dropout=0.0), RngState(1))
    for a in lora_pairs(model):
        a.B.data = 0.1 * np.random.default_rng(2).standard_normal(a.B.shape).astype(np.float32)
    merge_lora(model)
    assert model.quant_config is None
    assert all(lin.qweight is None for lin in model.linears())
    # an adapter trained on the merged model reloads onto the saved merged model
    save_model(model, str(tmp_path / "merged.pfwa"))
    attach_lora(model, LoraConfig(r=2), RngState(3))
    save_adapter(model, str(tmp_path / "adapter.pfwa"))
    reloaded = load_adapter(load_model(str(tmp_path / "merged.pfwa")),
                            str(tmp_path / "adapter.pfwa"))
    assert reloaded.quant_config is None
    for name, p in model.params.items():
        np.testing.assert_array_equal(reloaded.params[name].data, p.data)


@pytest.mark.parametrize("quantized", [False, True], ids=["lora", "qlora"])
def test_merged_model_trains_like_its_reload(tmp_path, quantized):
    """A merge hands back what ``load_model`` of the saved merge gives: every
    parameter trainable, and one Trainer step lands on the same weights."""
    model = fresh()
    if quantized:
        quantize_base(model, QuantConfig(block_size=16))
    attach_lora(model, LoraConfig(r=2), RngState(1))
    merge_lora(model)
    save_model(model, str(tmp_path / "merged.pfwa"))
    reloaded = load_model(str(tmp_path / "merged.pfwa"))

    def trainable(m):
        return [p.name for p in m.trainable_parameters()]

    assert trainable(model) == trainable(reloaded) == list(reloaded.params)
    examples = [TrainingExample(ids, ids) for ids in
                np.random.default_rng(0).integers(0, 32, (4, 10)).tolist()]
    for i, m in enumerate((model, reloaded)):
        cfg = TrainConfig(output_dir=str(tmp_path / f"run{i}"), max_steps=1,
                          gradient_accumulation_steps=1, seed=5)
        assert np.isfinite(Trainer(m, examples, cfg, pad_id=0).train_step())
    for name, p in reloaded.params.items():
        np.testing.assert_array_equal(model.params[name].data, p.data)


# -- accounting ---------------------------------------------------------------


def test_trainable_ratio_closed_form():
    model = fresh()
    cfg = LoraConfig(r=2)
    attach_lora(model, cfg, RngState(0))
    s = trainable_summary(model)
    # closed form: sum over matched linears of r * (d_in + d_out)
    d = 8
    lora = 2 * ((d + 3 * d) + (d + d) + (d + 4 * d) + (4 * d + d)) * cfg.r
    assert s["trainable_count"] == lora
    assert s["total_count"] == parameter_count(micro_config()) + lora
    assert s["ratio"] == lora / s["total_count"]


def test_small_rank_keeps_ratio_under_ten_percent():
    # the PEFT promise of "a few percent trainable" needs a base that is not
    # minuscule; the desk-size config with a small rank lands around 3%
    from tinypeft.model import CausalLMConfig
    model = init_model(CausalLMConfig(vocab_size=512), RngState(0))
    attach_lora(model, LoraConfig(r=2), RngState(0))
    assert trainable_summary(model)["ratio"] < 0.10


def test_frozen_base_after_attach():
    model = fresh()
    attach_lora(model, LoraConfig(r=2), RngState(0))
    for p in model.params.values():
        assert p.requires_grad == (".lora_" in p.name)


# -- bottleneck adapters ------------------------------------------------------


def test_bottleneck_identity_at_init():
    base = fresh(13)
    ids = rand_ids(np.random.default_rng(4), 3, 7, 32)
    want = base.forward_logits(ids).data.copy()
    attach_bottleneck(base, BottleneckAdapterConfig(bottleneck_dim=2), RngState(1))
    np.testing.assert_array_equal(base.forward_logits(ids).data, want)


def test_bottleneck_param_layout_and_training():
    model = fresh()
    attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=2), RngState(1))
    names = [n for n in model.params if "_adapter." in n]
    assert len(names) == 2 * 2 * 4  # 2 blocks x 2 slots x 4 tensors
    ids = rand_ids(np.random.default_rng(5), 2, 6, 32)
    loss = model.lm_loss(ids, ids)
    backward(loss)
    down = model.params["blocks.0.attn_adapter.down.weight"]
    up = model.params["blocks.0.attn_adapter.up.weight"]
    assert up.grad is not None and np.any(up.grad != 0.0)
    assert down.grad is not None


def test_bottleneck_dim_bound():
    with pytest.raises(ConfigError):
        attach_bottleneck(fresh(), BottleneckAdapterConfig(bottleneck_dim=8), RngState(0))


def test_bottleneck_double_attach_raises():
    model = fresh()
    attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=2), RngState(0))
    with pytest.raises(StateError):
        attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=2), RngState(0))


# -- qlora base ---------------------------------------------------------------


def test_quantize_base_freezes_and_keeps_packed():
    model = fresh()
    quantize_base(model, QuantConfig(block_size=16))
    for lin in model.linears():
        assert lin.qweight is not None
        assert not lin.weight.requires_grad
    attach_lora(model, LoraConfig(r=2), RngState(0))
    ids = rand_ids(np.random.default_rng(6), 2, 6, 32)
    backward(model.lm_loss(ids, ids))
    # adapter grads flow, base stays grad-free
    for n, p in model.params.items():
        if ".lora_" in n:
            assert p.grad is not None
        else:
            assert p.grad is None


def test_shape_layouts_match_what_attach_adds():
    cases = [(LoraConfig(r=3, target_modules=["dense"]), lora_shapes, attach_lora),
             (BottleneckAdapterConfig(bottleneck_dim=2), bottleneck_shapes, attach_bottleneck)]
    for config, layout, attach in cases:
        model = init_model(micro_config(), RngState(0))
        before = set(model.params)
        want = layout(model, config)
        assert set(model.params) == before  # the layout adds nothing
        attach(model, config, RngState(1))
        assert {n: p.shape for n, p in model.params.items() if n not in before} == want
