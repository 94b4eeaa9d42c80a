"""Micro decoder-only causal language model.

Pre-norm transformer blocks with a fused query_key_value projection, an
attention output "dense", and a 4x MLP ("dense_h_to_4h" / "dense_4h_to_h"),
so per-block linear names line up with the usual PEFT target-module lists.
Between the two projections the causal attention core runs as one fused
autodiff kernel, ``tensor.attention``; every linear layer, LoRA pair
included, is one ``tensor.linear`` node. Positions are learned absolute
embeddings; the output head is tied to the token embedding, a
``tensor.linear`` node on its transpose, and ``lm_loss`` hands its logits
straight to the next-token ``cross_entropy``. Every layer norm takes the one
epsilon ``LN_EPS``; archives that record it as a config field still load.

The same forward serves training, eval and decoding, and it computes only
the rows its caller reads: with ``from_row`` every block still encodes all
positions' keys and values, but the last block's attention output, MLP and
residuals, ``ln_f`` and the tied head run on rows from_row..S-1 alone.
``lm_loss`` starts them at the first position with a label, so on
prompt-masked fine-tuning data the prompt rows skip the tail of the network
and the loss, in training and in perplexity alike. ``generate`` is KV-cached
and reads only the last row: it encodes the prompt once, then one position
per new token. When the running sequence slides past the seq_len - 1 window,
every absolute position shifts, so the cache is dropped and each step
re-encodes the window. ``generate`` and the evals fold the LoRA pairs into
their weights once per call and keep no state (``CausalLM.folded``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import IGNORE_LABEL
from .errors import ConfigError, DataError, ShapeError
from .rng import RngState
from .tensor import Parameter, Tensor

INIT_STD = 0.02
LN_EPS = 1e-5  # every layer norm's epsilon


@dataclass
class CausalLMConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    seq_len: int = 128

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be >= 2, got {self.seq_len}")


class Linear:
    """y = x @ W (+ b) (+ LoRA delta). Carries an optional LoRA adapter; a
    call draws the adapter's dropout mask and runs the fused ``tensor.linear``
    kernel. ``qweight`` is a packed 4-bit copy of the weight that nothing
    reads: the layer computes on the f32 ``weight``."""

    def __init__(self, name: str, weight: Parameter, bias: Parameter | None):
        self.name = name
        self.weight = weight
        self.bias = bias
        self.adapter = None  # set by peft.attach_lora
        self.qweight = None  # the packed 4-bit weight, set by peft.quantize_base

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor, training: bool = False, rng: RngState | None = None) -> Tensor:
        a = self.adapter
        if a is None:
            return T.linear(x, self.weight, self.bias)
        mask = T.dropout_mask(x.shape, a.dropout, rng) if training else None
        return T.linear(x, self.weight, self.bias, (a.A, a.B, a.scaling, mask))

    def fold(self):
        """Fold the LoRA pair into a new weight array, W + s (B A)^T, and detach it."""
        self.weight.data = self.weight.data + self.adapter.delta_weight()
        self.adapter = None


class LayerNorm:
    def __init__(self, name: str, gain: Parameter, bias: Parameter):
        self.name = name
        self.gain = gain
        self.bias = bias

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, LN_EPS)


class Block:
    def __init__(self, ln1, attn_qkv, attn_dense, ln2, mlp_up, mlp_down):
        self.ln1: LayerNorm = ln1
        self.attn_qkv: Linear = attn_qkv
        self.attn_dense: Linear = attn_dense
        self.ln2: LayerNorm = ln2
        self.mlp_up: Linear = mlp_up
        self.mlp_down: Linear = mlp_down
        self.attn_adapter = None  # bottleneck adapters, set by peft
        self.mlp_adapter = None


class CausalLM:
    """The micro PLM: token/position embeddings, blocks, tied output head."""

    def __init__(self, config: CausalLMConfig, params: dict[str, Parameter],
                 blocks: list[Block], ln_f: LayerNorm):
        self.config = config
        self.params = params  # name -> Parameter, insertion-ordered
        self.blocks = blocks
        self.ln_f = ln_f
        self.base_names = frozenset(params)  # the names model_shapes lays out
        self.adapter_config = None  # the one adapter slot, set by peft.attach_*
        self.quant_config = None  # set by peft.quantize_base, cleared by merge_lora

    # -- parameter access ----------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.params.values() if p.requires_grad]

    def linears(self) -> list[Linear]:
        """Every linear, block by block: qkv, attention dense, MLP up, MLP down."""
        return [lin for b in self.blocks
                for lin in (b.attn_qkv, b.attn_dense, b.mlp_up, b.mlp_down)]

    def freeze_all(self):
        for p in self.params.values():
            p.freeze()

    @contextlib.contextmanager
    def folded(self):
        """Run the body under no_grad with every LoRA pair folded into its
        weight (``Linear.fold``, as in ``peft.merge_lora``): a forward is the
        merge's bit for bit and skips the LoRA branch. Any exit puts back the
        original weight arrays and adapters, so no folded state outlives it."""
        saved = [(lin, lin.weight.data, lin.adapter) for lin in self.linears()
                 if lin.adapter is not None]
        try:
            with T.no_grad():
                for lin, _, _ in saved:
                    lin.fold()
                yield self
        finally:
            for lin, weight, adapter in saved:
                lin.weight.data, lin.adapter = weight, adapter

    # -- forward -------------------------------------------------------------

    def forward_logits(self, input_ids: np.ndarray, training: bool = False,
                       rng: RngState | None = None, cache: list | None = None,
                       from_row: int = 0) -> Tensor:
        """input_ids (B, S) -> logits (B, S - from_row, vocab); causal by construction.

        ``from_row`` returns the logits of positions from_row..S-1 only. Every
        block before the last, and the last block's ``ln1``, QKV projection
        and keys and values, still run on all S positions; the last block's
        queries, residual stream, attention output, adapters and MLP, then
        ``ln_f`` and the head, run on the returned rows. It has a VJP, so
        training takes it too: the rows above from_row would get a zero
        gradient anyway.

        ``cache`` (no_grad only) holds one key/value list per block, see
        ``tensor.attention``; the ids then continue the cached positions.
        """
        ids = np.asarray(input_ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        _, S = ids.shape
        cfg = self.config
        if not 0 <= from_row < S:
            raise ShapeError(f"from_row {from_row} out of range for {S} positions")
        if cache is not None and len(cache) != len(self.blocks):
            raise ShapeError(f"cache has {len(cache)} entries for {len(self.blocks)} blocks")
        past = cache[0][0].shape[2] if cache and cache[0] else 0
        if past + S > cfg.seq_len:
            raise DataError(f"sequence length {S} after {past} cached positions "
                            f"exceeds model seq_len {cfg.seq_len}")
        if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
            bad = int(np.argmax((ids < 0) | (ids >= cfg.vocab_size)))
            raise DataError(f"token id out of range at flat position {bad}")

        tok = self.params["tok_embeddings.weight"]
        pos = self.params["pos_embeddings.weight"]
        x = T.add(T.embedding(tok, ids), T.embedding(pos, np.arange(past, past + S)))

        for i, b in enumerate(self.blocks):
            cut = from_row if i == len(self.blocks) - 1 else 0
            h = b.ln1(x)
            ctx = T.attention(b.attn_qkv(h, training, rng), cfg.n_heads,
                              None if cache is None else cache[i], from_row=cut)
            if cut:
                x = T.narrow(x, 1, cut, S - cut)
            a_out = b.attn_dense(ctx, training, rng)
            if b.attn_adapter is not None:
                a_out = b.attn_adapter(a_out)
            x = T.add(x, a_out)

            h = b.ln2(x)
            m_out = b.mlp_down(T.gelu(b.mlp_up(h, training, rng)), training, rng)
            if b.mlp_adapter is not None:
                m_out = b.mlp_adapter(m_out)
            x = T.add(x, m_out)

        x = self.ln_f(x)
        return T.linear(x, T.transpose(tok, 0, 1))  # tied head

    def lm_loss(self, input_ids: np.ndarray, labels: np.ndarray,
                training: bool = False, rng: RngState | None = None) -> Tensor:
        """Mean next-token cross-entropy over unmasked label positions.

        Position t is scored against labels[:, t + 1]. The forward starts its
        last block's rows at the first position scored in any row of the
        batch (``from_row``), so prompt-masked data skips the rows whose
        output no loss reads; unmasked data gives from_row 0, the full
        forward.
        """
        ids = np.atleast_2d(np.asarray(input_ids))
        lab = np.atleast_2d(np.asarray(labels))
        if ids.shape != lab.shape:
            raise ShapeError(f"lm_loss: ids {ids.shape} vs labels {lab.shape}")
        targets = lab[:, 1:]
        # argmax finds the first scored position; an all-masked batch gives
        # 0, and cross_entropy raises for it
        from_row = int((targets != IGNORE_LABEL).any(axis=0).argmax()) if targets.size else 0
        logits = self.forward_logits(ids, training=training, rng=rng, from_row=from_row)
        return T.cross_entropy(logits, targets[:, from_row:], ignore_index=IGNORE_LABEL)

    # -- generation ----------------------------------------------------------

    def generate(
        self,
        prompt_ids: list[int],
        max_new_tokens: int,
        mode: str = "greedy",
        temperature: float = 1.0,
        top_k: int = 0,
        rng: RngState | None = None,
        eos_id: int | None = None,
    ) -> list[int]:
        """Autoregressive decoding; greedy ties resolve to the lowest id.

        The context is the most recent seq_len - 1 tokens. While the running
        sequence fits that window, the prompt is encoded once into a per-block
        key/value cache and each step encodes only the newest token. Positions
        are absolute, so once the window slides every cached key is stale:
        from then on each step re-encodes the whole window without a cache.
        Only the last position's logits are read, so every forward here asks
        for that row alone (``from_row`` = S - 1): the final block's tail,
        ``ln_f`` and the head run on one row. The call runs ``folded``.
        """
        if not prompt_ids:
            raise DataError("empty prompt")
        if mode not in ("greedy", "temperature"):
            raise ConfigError(f"unknown decode mode {mode!r}")
        if mode == "temperature" and temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {temperature}")
        if mode == "temperature" and rng is None:
            raise ConfigError("temperature decoding needs an rng")
        if top_k < 0:
            raise ConfigError(f"top_k must be >= 0, got {top_k}")
        if max_new_tokens < 0:
            raise ConfigError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        out = list(prompt_ids)
        window = self.config.seq_len - 1
        cache = [[] for _ in self.blocks]
        cached = 0  # leading tokens of out held in the cache
        with self.folded():
            for _ in range(max_new_tokens):
                if len(out) <= window:
                    ctx, step_cache, cached = out[cached:], cache, len(out)
                else:
                    ctx, step_cache = out[-window:], None
                logits = self.forward_logits(np.asarray([ctx]), cache=step_cache,
                                             from_row=len(ctx) - 1)
                row = logits.data[0, -1].astype(np.float64)
                if mode == "greedy":
                    nxt = int(row.argmax())
                else:
                    z = row / temperature
                    if top_k and top_k < len(z):
                        cutoff = np.sort(z)[-top_k]
                        z = np.where(z >= cutoff, z, -np.inf)
                    z -= z.max()
                    probs = np.exp(z)
                    probs /= probs.sum()
                    nxt = rng.choice_weighted(probs.astype(np.float32))
                out.append(nxt)
                if eos_id is not None and nxt == eos_id:
                    break
        return out


# A block's sublayers in draw order, as Block takes them: a layer norm (None)
# or a linear's (d_in, d_out) in multiples of d_model.
_BLOCK = (("ln1", None), ("attn.query_key_value", (1, 3)), ("attn.dense", (1, 1)),
          ("ln2", None), ("mlp.dense_h_to_4h", (1, 4)), ("mlp.dense_4h_to_h", (4, 1)))


def model_shapes(config: CausalLMConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every base parameter, in the order init_model draws them."""
    d = config.d_model
    shapes = {"tok_embeddings.weight": (config.vocab_size, d),
              "pos_embeddings.weight": (config.seq_len, d)}
    layers = [(f"blocks.{i}.{sub}", dims) for i in range(config.n_layers) for sub, dims in _BLOCK]
    for pre, dims in layers + [("ln_f", None)]:
        if dims is None:
            shapes |= {f"{pre}.gain": (d,), f"{pre}.bias": (d,)}
        else:
            shapes |= {f"{pre}.weight": (dims[0] * d, dims[1] * d), f"{pre}.bias": (dims[1] * d,)}
    return shapes


def build_model(config: CausalLMConfig, arrays: dict[str, np.ndarray]) -> CausalLM:
    """A model that adopts ``arrays``, laid out exactly as ``model_shapes(config)``,
    as its parameters, in that layout's order."""
    params = {name: Parameter(arrays[name], name) for name in model_shapes(config)}

    def layer(name, dims=None):
        cls, kind = (LayerNorm, "gain") if dims is None else (Linear, "weight")
        return cls(name, params[f"{name}.{kind}"], params[f"{name}.bias"])

    blocks = [Block(*(layer(f"blocks.{i}.{sub}", dims) for sub, dims in _BLOCK))
              for i in range(config.n_layers)]
    return CausalLM(config, params, blocks, layer("ln_f"))


def init_model(config: CausalLMConfig, rng: RngState) -> CausalLM:
    """Fresh model: weights N(0, 0.02^2), biases 0, norm gain 1."""

    def draw(name, shape):
        if name.endswith(".weight"):
            return rng.gaussian(0.0, INIT_STD, shape)
        return (np.ones if name.endswith(".gain") else np.zeros)(shape, dtype=np.float32)

    return build_model(config, {n: draw(n, s) for n, s in model_shapes(config).items()})
