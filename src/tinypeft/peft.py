"""Parameter-efficient fine-tuning: LoRA pairs, bottleneck adapters, the
LoRA merge, QLoRA base quantization, and trainable accounting.

An adapter is laid out by name (``lora_shapes``, ``bottleneck_shapes``) and
built by ``build_adapter`` from one array per name: ``attach_*`` draw them,
``store.load_adapter`` reads an archive's. Both families are exact identities
at initialization (LoRA because B = 0, bottleneck because the up-projection
starts at 0), so a freshly adapted model reproduces the base bitwise in eval
mode. A LoRA pair holds only its weights: the adapted ``model.Linear``
computes the delta inside the fused ``tensor.linear`` kernel, as do the
bottleneck's projections. A LoRA layer is attached or merged away: the merge
leaves a plain f32 base. Inference applies the same fold once per call and
keeps no state (``CausalLM.folded``).
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
    """Freeze the base and add a trainable A/B pair to every matched linear:
    A ~ N(0, 1/r), B = 0, so the adapted model is the base at init."""
    return _attach(model, config, lora_shapes(model, config), ".lora_A",
                   1.0 / np.sqrt(config.r), rng)


def _attach(model: CausalLM, config, shapes: dict[str, tuple[int, ...]], drawn: str,
            std: float, rng: RngState) -> CausalLM:
    """``build_adapter`` on N(0, std^2) draws where a name ends in ``drawn``, else zeros."""
    return build_adapter(model, config, {n: rng.gaussian(0.0, std, s) if n.endswith(drawn)
                                         else np.zeros(s, np.float32) for n, s in shapes.items()})


def build_adapter(model: CausalLM, config, arrays: dict[str, np.ndarray]) -> CausalLM:
    """Freeze the base and adopt ``arrays``, laid out exactly as ``config``'s
    ``lora_shapes`` or ``bottleneck_shapes``, as the adapter's parameters in
    that order, wired in by name. A taken adapter slot raises first."""
    if model.adapter_config is not None:
        raise StateError(f"model already carries an adapter: {model.adapter_config}")
    lora = isinstance(config, LoraConfig)
    shapes = (lora_shapes if lora else bottleneck_shapes)(model, config)
    model.freeze_all()
    p = {name: Parameter(arrays[name], name) for name in shapes}
    model.params |= p
    model.adapter_config = config
    if lora:
        for lin in model.linears():
            if f"{lin.name}.lora_A" in p:
                lin.adapter = LoraAdapter(p[f"{lin.name}.lora_A"], p[f"{lin.name}.lora_B"],
                                          config.scaling, config.dropout)
    else:  # the layout lists each bottleneck's parameters in BottleneckAdapter's order
        for i, blk in enumerate(model.blocks):
            for slot in ("attn_adapter", "mlp_adapter"):
                own = [v for n, v in p.items() if n.startswith(f"blocks.{i}.{slot}.")]
                setattr(blk, slot, BottleneckAdapter(*own))
    return model


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
    """Freeze the base and insert serial adapters after the attention and MLP
    sublayers: Down ~ N(0, 0.02^2), Up and both biases 0."""
    return _attach(model, config, bottleneck_shapes(model, config), ".down.weight", 0.02, rng)


# -- QLoRA base quantization -------------------------------------------------


def quantize_base(model: CausalLM, qconfig: QuantConfig) -> CausalLM:
    """Quantize every linear weight to 4 bits and freeze it: ``quantize_linears``,
    then ``adopt_quantized``. A QLoRA load checks the fingerprint in between."""
    return adopt_quantized(model, qconfig, quantize_linears(model, qconfig))


def quantize_linears(model: CausalLM, qconfig: QuantConfig) -> dict[str, tuple]:
    """Each linear weight's name -> its ``QuantizedTensor`` and the f32 values
    that dequantizes to; the model is left as it is."""
    packed = {l.weight.name: quantize_blockwise(l.weight.data, qconfig) for l in model.linears()}
    return {name: (q, dequantize_blockwise(q)) for name, q in packed.items()}


def adopt_quantized(model: CausalLM, qconfig: QuantConfig, quantized: dict) -> CausalLM:
    """Freeze each linear weight at its f32 values from ``quantize_linears``; the
    packed form stays on the layer as ``qweight``, which nothing reads. The
    config is recorded, so ``store.save_adapter`` writes it."""
    for lin in model.linears():
        lin.qweight, lin.weight.data = quantized[lin.weight.name]
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
