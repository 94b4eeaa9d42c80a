"""Micro decoder-only causal language model.

Pre-norm transformer blocks with a fused query_key_value projection, an
attention output "dense", and a 4x MLP ("dense_h_to_4h" / "dense_4h_to_h"),
so per-block linear names line up with the usual PEFT target-module lists.
Between the two projections the causal attention core runs as one fused
autodiff kernel, ``tensor.attention``; every linear layer, LoRA pair
included, is one ``tensor.linear`` node. Positions are learned absolute
embeddings; the output head is tied to the token embedding, a
``tensor.linear`` node on its transpose, and ``lm_loss`` hands its logits
straight to the next-token ``cross_entropy``.

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
re-encodes the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import IGNORE_LABEL
from .errors import ConfigError, DataError, ShapeError
from .rng import RngState
from .tensor import Parameter, Tensor

INIT_STD = 0.02


@dataclass
class CausalLMConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    seq_len: int = 128
    layer_norm_eps: float = 1e-5

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be >= 2, got {self.seq_len}")


class Linear:
    """y = x @ W (+ b) (+ LoRA delta). Carries optional LoRA adapter and
    quantized storage; a call draws the adapter's dropout mask and runs the
    fused ``tensor.linear`` kernel."""

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
        if a is None or a.merged:
            return T.linear(x, self.weight, self.bias)
        mask = T.dropout_mask(x.shape, a.dropout, rng) if training else None
        return T.linear(x, self.weight, self.bias, (a.A, a.B, a.scaling, mask))


class LayerNorm:
    def __init__(self, name: str, gain: Parameter, bias: Parameter, eps: float):
        self.name = name
        self.gain = gain
        self.bias = bias
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.eps)


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
        self.base_names = frozenset(params)  # the names init_model made
        self.adapter_config = None  # the one adapter slot, set by peft.attach_*
        self.quant_config = None  # set by peft.quantize_base

    # -- parameter access ----------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.params.values() if p.trainable]

    def add_parameter(self, p: Parameter):
        if p.name in self.params:
            raise ConfigError(f"duplicate parameter name {p.name!r}")
        self.params[p.name] = p

    def modules(self) -> dict[str, object]:
        out: dict[str, object] = {
            "tok_embeddings": self.params["tok_embeddings.weight"],
            "pos_embeddings": self.params["pos_embeddings.weight"],
            "ln_f": self.ln_f,
        }
        for i, b in enumerate(self.blocks):
            out[f"blocks.{i}.ln1"] = b.ln1
            out[f"blocks.{i}.attn.query_key_value"] = b.attn_qkv
            out[f"blocks.{i}.attn.dense"] = b.attn_dense
            out[f"blocks.{i}.ln2"] = b.ln2
            out[f"blocks.{i}.mlp.dense_h_to_4h"] = b.mlp_up
            out[f"blocks.{i}.mlp.dense_4h_to_h"] = b.mlp_down
        return out

    def linears(self) -> list[Linear]:
        return [m for m in self.modules().values() if isinstance(m, Linear)]

    def freeze_all(self):
        for p in self.params.values():
            p.freeze()

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
        ``ln_f`` and the head run on one row.
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
        for _ in range(max_new_tokens):
            if len(out) <= window:
                ctx, step_cache, cached = out[cached:], cache, len(out)
            else:
                ctx, step_cache = out[-window:], None
            with T.no_grad():
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


def init_model(config: CausalLMConfig, rng: RngState) -> CausalLM:
    """Fresh model: weights N(0, 0.02^2), biases 0, norm gain 1."""
    cfg = config
    params: dict[str, Parameter] = {}

    def weight(name: str, shape) -> Parameter:
        p = Parameter(rng.gaussian(0.0, INIT_STD, shape), name)
        params[name] = p
        return p

    def zeros(name: str, shape) -> Parameter:
        p = Parameter(np.zeros(shape, dtype=np.float32), name)
        params[name] = p
        return p

    def ones(name: str, shape) -> Parameter:
        p = Parameter(np.ones(shape, dtype=np.float32), name)
        params[name] = p
        return p

    weight("tok_embeddings.weight", (cfg.vocab_size, cfg.d_model))
    weight("pos_embeddings.weight", (cfg.seq_len, cfg.d_model))

    blocks = []
    d, dh = cfg.d_model, 4 * cfg.d_model
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}"
        ln1 = LayerNorm(f"{pre}.ln1", ones(f"{pre}.ln1.gain", (d,)),
                        zeros(f"{pre}.ln1.bias", (d,)), cfg.layer_norm_eps)
        qkv = Linear(f"{pre}.attn.query_key_value",
                     weight(f"{pre}.attn.query_key_value.weight", (d, 3 * d)),
                     zeros(f"{pre}.attn.query_key_value.bias", (3 * d,)))
        dense = Linear(f"{pre}.attn.dense",
                       weight(f"{pre}.attn.dense.weight", (d, d)),
                       zeros(f"{pre}.attn.dense.bias", (d,)))
        ln2 = LayerNorm(f"{pre}.ln2", ones(f"{pre}.ln2.gain", (d,)),
                        zeros(f"{pre}.ln2.bias", (d,)), cfg.layer_norm_eps)
        up = Linear(f"{pre}.mlp.dense_h_to_4h",
                    weight(f"{pre}.mlp.dense_h_to_4h.weight", (d, dh)),
                    zeros(f"{pre}.mlp.dense_h_to_4h.bias", (dh,)))
        down = Linear(f"{pre}.mlp.dense_4h_to_h",
                      weight(f"{pre}.mlp.dense_4h_to_h.weight", (dh, d)),
                      zeros(f"{pre}.mlp.dense_4h_to_h.bias", (d,)))
        blocks.append(Block(ln1, qkv, dense, ln2, up, down))

    ln_f = LayerNorm("ln_f", ones("ln_f.gain", (d,)), zeros("ln_f.bias", (d,)),
                     cfg.layer_norm_eps)
    return CausalLM(cfg, params, blocks, ln_f)


def parameter_count(config: CausalLMConfig) -> int:
    """Closed-form total parameter count (tied head counted once)."""
    d, dh = config.d_model, 4 * config.d_model
    per_block = (
        2 * d  # ln1
        + d * 3 * d + 3 * d  # qkv
        + d * d + d  # attn dense
        + 2 * d  # ln2
        + d * dh + dh  # mlp up
        + dh * d + d  # mlp down
    )
    return (
        config.vocab_size * d
        + config.seq_len * d
        + config.n_layers * per_block
        + 2 * d  # ln_f
    )
