"""Parameter-efficient fine-tuning: LoRA pairs, bottleneck adapters, the
LoRA merge, QLoRA base quantization, and trainable accounting.

Both adapter families are exact identities at initialization (LoRA because
B = 0, bottleneck because the up-projection starts at 0), so a freshly
adapted model reproduces the base bitwise in eval mode. A LoRA pair holds
only its weights: the adapted ``model.Linear`` computes the delta inside the
fused ``tensor.linear`` kernel, as do the bottleneck's projections. A LoRA
layer is attached or merged away: the merge leaves a plain f32 base. Inference
applies the same fold once per call and keeps no state (``CausalLM.folded``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, StateError
from .model import CausalLM
from .quant import QuantConfig, dequantize_blockwise, quantize_blockwise
from .rng import RngState
from .tensor import Parameter, Tensor

FIG12_TARGET_MODULES = ["query_key_value", "dense", "dense_h_to_4h", "dense_4h_to_h"]


@dataclass
class LoraConfig:
    r: int = 32
    alpha: float = 32.0
    dropout: float = 0.05
    target_modules: list[str] = field(default_factory=lambda: list(FIG12_TARGET_MODULES))

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError(f"rank must be >= 1, got {self.r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if not self.target_modules:
            raise ConfigError("target_modules must be non-empty")

    @property
    def scaling(self) -> float:
        return self.alpha / self.r


class LoraAdapter:
    """Low-rank pair for one target linear: delta(x) = s * B(A(drop(x))),
    computed by ``tensor.linear`` when the layer is called."""

    def __init__(self, A: Parameter, B: Parameter, scaling: float, dropout: float):
        self.A = A  # (r, d_in)
        self.B = B  # (d_out, r)
        self.scaling = np.float32(scaling)
        self.dropout = dropout

    def delta_weight(self) -> np.ndarray:
        """Merged contribution in (d_in, d_out) layout: s * (B A)^T."""
        return (self.scaling * (self.B.data @ self.A.data)).T.astype(np.float32)


def attach_lora(model: CausalLM, config: LoraConfig, rng: RngState) -> CausalLM:
    """Freeze the base and add a trainable A/B pair to every matched linear.

    A ~ N(0, 1/r), B = 0 so the adapted model is the base at init. A model
    carries one adapter: a taken slot raises before anything changes.
    """
    p = _attach(model, config, lora_shapes(model, config), ".lora_A",
                1.0 / np.sqrt(config.r), rng)
    for lin in model.linears():
        if f"{lin.name}.lora_A" in p:
            lin.adapter = LoraAdapter(p[f"{lin.name}.lora_A"], p[f"{lin.name}.lora_B"],
                                      config.scaling, config.dropout)
    return model


def _attach(model: CausalLM, config, shapes: dict[str, tuple[int, ...]], drawn: str,
            std: float, rng: RngState) -> dict[str, Parameter]:
    """Freeze the base, then add a trainable parameter per name in ``shapes``,
    in its order: N(0, std^2) where the name ends in ``drawn``, else zeros.
    Returns the new parameters by name; the caller wires them in."""
    if model.adapter_config is not None:
        raise StateError(f"model already carries an adapter: {model.adapter_config}")
    model.freeze_all()
    added = {name: Parameter(rng.gaussian(0.0, std, shape) if name.endswith(drawn)
                             else np.zeros(shape, dtype=np.float32), name)
             for name, shape in shapes.items()}
    model.params |= added
    model.adapter_config = config
    return added


def lora_shapes(model: CausalLM, config: LoraConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter attach_lora would add, without adding it."""
    linears = model.linears()
    for suffix in config.target_modules:
        if not any(l.name.endswith(suffix) for l in linears):
            raise ConfigError(f"target module suffix {suffix!r} matches nothing")
    out: dict[str, tuple[int, ...]] = {}
    for lin in linears:
        if any(lin.name.endswith(s) for s in config.target_modules):
            out[f"{lin.name}.lora_A"] = (config.r, lin.d_in)
            out[f"{lin.name}.lora_B"] = (lin.d_out, config.r)
    return out


def merge_lora(model: CausalLM) -> CausalLM:
    """Fold every adapter into its base weight, W += s * (B A)^T, and drop it.

    The merged weights are off the 4-bit grid, so a quantized base also drops
    its ``qweight``s and ``quant_config``: the result is a plain f32 model,
    every parameter trainable, as ``store.load_model`` gives it back.
    """
    if not isinstance(model.adapter_config, LoraConfig):
        raise StateError("model has no LoRA adapters to merge")
    for lin in model.linears():
        if lin.adapter is not None:
            del model.params[lin.adapter.A.name], model.params[lin.adapter.B.name]
            lin.fold()
        lin.qweight = None
    for p in model.params.values():
        p.requires_grad = True
    model.adapter_config = model.quant_config = None
    return model


# -- bottleneck adapters -----------------------------------------------------


@dataclass
class BottleneckAdapterConfig:
    bottleneck_dim: int = 8

    def __post_init__(self):
        if self.bottleneck_dim < 1:
            raise ConfigError(f"bottleneck_dim must be >= 1, got {self.bottleneck_dim}")


class BottleneckAdapter:
    """h -> h + Up(gelu(Down(h))); Up starts at zero so init is identity."""

    def __init__(self, down_w: Parameter, down_b: Parameter,
                 up_w: Parameter, up_b: Parameter):
        self.down_w = down_w  # (d, b)
        self.down_b = down_b
        self.up_w = up_w  # (b, d)
        self.up_b = up_b

    def __call__(self, h: Tensor) -> Tensor:
        z = T.linear(T.gelu(T.linear(h, self.down_w, self.down_b)), self.up_w, self.up_b)
        return T.add(h, z)


def bottleneck_shapes(model: CausalLM,
                      config: BottleneckAdapterConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter attach_bottleneck would add."""
    d, b = model.config.d_model, config.bottleneck_dim
    if b >= d:
        raise ConfigError(f"bottleneck_dim {b} must be < d_model {d}")
    out: dict[str, tuple[int, ...]] = {}
    for i in range(len(model.blocks)):
        for slot in ("attn_adapter", "mlp_adapter"):
            pre = f"blocks.{i}.{slot}"
            out.update({f"{pre}.down.weight": (d, b), f"{pre}.down.bias": (b,),
                        f"{pre}.up.weight": (b, d), f"{pre}.up.bias": (d,)})
    return out


def attach_bottleneck(model: CausalLM, config: BottleneckAdapterConfig,
                      rng: RngState) -> CausalLM:
    """Insert serial adapters after the attention and MLP sublayers. A model
    carries one adapter: a taken slot raises before anything changes."""
    p = _attach(model, config, bottleneck_shapes(model, config), ".down.weight", 0.02, rng)
    for i, blk in enumerate(model.blocks):
        for slot in ("attn_adapter", "mlp_adapter"):
            pre = f"blocks.{i}.{slot}"
            setattr(blk, slot, BottleneckAdapter(
                *(p[f"{pre}.{n}"] for n in ("down.weight", "down.bias", "up.weight", "up.bias"))))
    return model


# -- QLoRA base quantization -------------------------------------------------


def quantize_base(model: CausalLM, qconfig: QuantConfig) -> CausalLM:
    """Quantize every linear weight to 4 bits and freeze it.

    Each weight is replaced by its dequantized values, so training, eval and
    decoding run the one ``tensor.linear`` path on f32. The packed form stays
    on the layer as ``qweight``, but nothing reads it back: archives hold the
    f32 weights. The config is recorded on the model, so
    ``store.save_adapter`` writes it and ``store.load_adapter`` can quantize
    a fresh base the same way.
    """
    for lin in model.linears():
        q = quantize_blockwise(lin.weight.data, qconfig)
        lin.qweight = q
        lin.weight.data = dequantize_blockwise(q)
        lin.weight.freeze()
        if lin.bias is not None:
            lin.bias.freeze()
    model.quant_config = qconfig
    return model


# -- accounting --------------------------------------------------------------


def trainable_summary(model: CausalLM) -> dict:
    trainable = sum(p.numel for p in model.trainable_parameters())
    total = sum(p.numel for p in model.params.values())
    return {
        "trainable_count": trainable,
        "total_count": total,
        "ratio": trainable / total if total else 0.0,
    }
