"""KV-cached decoding against the full-window loop it replaces.

``reference_generate`` is the decoding loop from before the cache: one full
``forward_logits`` over the last seq_len - 1 tokens per new token. Cached
and last-row (``from_row`` = S - 1) logits differ from it in the last bits
(1-row products and shorter reductions round differently), so the oracle is
identical tokens, plus a relative logit tolerance.
"""

import numpy as np
import pytest

from tinypeft import tensor as T
from tinypeft.errors import ConfigError, DataError, ShapeError, StateError
from tinypeft.model import CausalLMConfig, init_model
from tinypeft.peft import (
    BottleneckAdapterConfig,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    merge_lora,
    quantize_base,
)
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.tensor import Tensor, backward

from gradcheck import check_op, tsum

VOCAB, SEQ_LEN = 48, 24
WINDOW = SEQ_LEN - 1


def reference_generate(model, prompt_ids, max_new_tokens, mode="greedy",
                       temperature=1.0, top_k=0, rng=None, eos_id=None):
    out = list(prompt_ids)
    for _ in range(max_new_tokens):
        with T.no_grad():
            logits = model.forward_logits(np.asarray([out[-WINDOW:]]))
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


def sharp_model(seed: int = 5):
    """A model whose weight matrices are scaled x8, so its logits are far
    from uniform and greedy choices are not decided by rounding."""
    cfg = CausalLMConfig(vocab_size=VOCAB, d_model=16, n_heads=2, n_layers=2,
                         seq_len=SEQ_LEN)
    model = init_model(cfg, RngState(seed))
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = p.data * np.float32(8.0)
    return model


def _randomize(params, seed: int):
    """Give zero-initialized adapter weights values, so adapters change logits."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.data = rng.normal(0.0, 0.3, p.shape).astype(np.float32)


def build(kind: str):
    model = sharp_model()
    if kind in ("lora", "merged"):
        lset = attach_lora(model, LoraConfig(r=4, alpha=8.0, dropout=0.0), RngState(6))
        _randomize([a.B for a in lset.adapters.values()], 7)
        if kind == "merged":
            merge_lora(model)
    elif kind == "adapter":
        attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=4), RngState(6))
        _randomize([p for n, p in model.params.items() if n.endswith("up.weight")], 7)
    elif kind == "qlora":
        quantize_base(model, QuantConfig())
    return model


def prompt(length: int, seed: int = 0) -> list[int]:
    return [int(x) for x in np.random.default_rng(seed).integers(0, VOCAB, length)]


# prompt lengths: inside the window, sliding past it while decoding, and
# already longer than it
PROMPTS = [3, 20, 30]


@pytest.mark.parametrize("kind", ["base", "lora", "merged", "adapter", "qlora"])
@pytest.mark.parametrize("length", PROMPTS)
def test_greedy_tokens_match_reference(kind, length):
    model = build(kind)
    p = prompt(length, seed=length)
    out = model.generate(p, 16)
    assert out == reference_generate(model, p, 16)
    assert len(out) == length + 16


@pytest.mark.parametrize("length", PROMPTS)
@pytest.mark.parametrize("top_k", [0, 5])
def test_seeded_sampling_matches_reference(length, top_k):
    model = build("lora")
    p = prompt(length, seed=length + 1)
    kw = dict(mode="temperature", temperature=0.9, top_k=top_k)
    got = model.generate(p, 16, rng=RngState(11), **kw)
    assert got == reference_generate(model, p, 16, rng=RngState(11), **kw)


def test_eos_still_stops_decoding():
    model = build("base")
    p = prompt(4)
    free = model.generate(p, 16)
    eos = free[len(p) + 3]
    stop = free.index(eos, len(p)) + 1
    stopped = model.generate(p, 16, eos_id=eos)
    assert stopped == free[:stop]
    assert stopped == reference_generate(model, p, 16, eos_id=eos)


def test_cached_logits_close_to_full_forward():
    model = build("lora")
    seq = prompt(SEQ_LEN, seed=3)
    with T.no_grad():
        full = model.forward_logits(np.asarray([seq])).data[0]
        cache = [[] for _ in model.blocks]
        rows = [model.forward_logits(np.asarray([seq[:9]]), cache=cache).data[0]]
        for t in seq[9:]:
            rows.append(model.forward_logits(np.asarray([[t]]), cache=cache).data[0])
    cached = np.concatenate(rows)
    assert cached.shape == full.shape
    assert np.abs(cached - full).max() <= 1e-4 * np.abs(full).max()
    assert cache[0][0].shape[2] == SEQ_LEN


def _last_only(model, seq, regime):
    """The last row of seq's logits with from_row = S - 1, and the cache it
    leaves next to the cache a full-row forward leaves (None without a cache)."""
    ids = np.asarray([seq])
    if regime == "window":
        return model.forward_logits(ids, from_row=len(seq) - 1).data[0, -1], None, None
    caches = [[[] for _ in model.blocks] for _ in range(2)]
    if regime == "continued":  # the cache already holds the first 9 positions
        for c in caches:
            model.forward_logits(ids[:, :9], cache=c)
        ids = ids[:, 9:]
    model.forward_logits(ids, cache=caches[0])
    out = model.forward_logits(ids, cache=caches[1], from_row=ids.shape[1] - 1)
    assert out.shape == (1, 1, VOCAB)
    return out.data[0, -1], caches[0], caches[1]


@pytest.mark.parametrize("kind", ["base", "lora", "merged", "adapter", "qlora"])
@pytest.mark.parametrize("regime", ["prefill", "continued", "window"])
def test_last_only_is_the_full_forwards_last_row(kind, regime):
    model = build(kind)
    seq = prompt(WINDOW, seed=4)
    with T.no_grad():
        full = model.forward_logits(np.asarray([seq])).data[0]
        row, full_cache, last_cache = _last_only(model, seq, regime)
    assert np.abs(row - full[-1]).max() <= 1e-4 * np.abs(full).max()
    if full_cache is not None:  # every position's keys and values, bitwise
        assert last_cache[0][0].shape[2] == WINDOW
        for a, b in zip(full_cache, last_cache):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("from_row", [1, 3, 4])
def test_from_row_attention_gradcheck(from_row):
    """The VJP of the cut: queries above from_row get zero, keys and values
    get the gradient of every scored query, one scored row included."""
    x = np.random.default_rng(from_row).standard_normal((2, 5, 12)).astype(np.float32)
    check_op(lambda a: T.attention(a, 2, from_row=from_row), [x])
    qkv = Tensor(x, requires_grad=True)
    out = T.attention(qkv, 2, from_row=from_row)
    assert out.shape == (2, 5 - from_row, 4)
    backward(tsum(out))
    assert np.all(qkv.grad[:, :from_row, :4] == 0.0)
    assert np.all(qkv.grad[:, :, 4:].any(axis=-1))  # every key and value


@pytest.mark.parametrize("kind, per_block", [("base", 1), ("adapter", 3)])
def test_only_the_last_block_runs_on_one_row(kind, per_block, monkeypatch):
    """gelu runs in each MLP and each bottleneck adapter: the first block
    sees every position, the last block only the last one."""
    model = build(kind)
    rows = []
    gelu = T.gelu

    def recording(a):
        rows.append(a.shape[1])
        return gelu(a)

    monkeypatch.setattr(T, "gelu", recording)
    with T.no_grad():
        model.forward_logits(np.asarray([prompt(10)]), from_row=9)
    model.generate(prompt(10), 1)  # one step: the prefill
    assert rows == ([10] * per_block + [1] * per_block) * 2


def test_prompt_is_encoded_once(monkeypatch):
    model = build("base")
    positions = []
    forward = model.forward_logits

    def counting(ids, *args, **kwargs):
        positions.append(np.asarray(ids).size)
        return forward(ids, *args, **kwargs)

    monkeypatch.setattr(model, "forward_logits", counting)
    model.generate(prompt(10), 16)
    # prefill, 13 single steps up to the 23-token window, then 2 re-encodes
    assert positions == [10] + [1] * 13 + [WINDOW] * 2


def test_cached_attention_raises_while_tape_records():
    qkv = Tensor(np.zeros((1, 2, 12), dtype=np.float32), requires_grad=True)
    for from_row in (0, 1):
        with pytest.raises(StateError):
            T.attention(qkv, 2, cache=[], from_row=from_row)
    model = build("lora")
    with pytest.raises(StateError):
        model.forward_logits(np.asarray([prompt(5)]), cache=[[] for _ in model.blocks],
                             from_row=4)
    with T.no_grad():
        cache = []
        T.attention(qkv, 2, cache=cache)
    assert [a.shape for a in cache] == [(1, 2, 2, 2)] * 2


def test_forward_logits_rejects_cache_overflow():
    model = build("base")
    with T.no_grad():
        with pytest.raises(ShapeError):
            model.forward_logits(np.asarray([prompt(2)]), cache=[[]])
        cache = [[] for _ in model.blocks]
        model.forward_logits(np.asarray([prompt(SEQ_LEN - 2)]), cache=cache)
        with pytest.raises(DataError):
            model.forward_logits(np.asarray([prompt(3)]), cache=cache)
        model.forward_logits(np.asarray([prompt(2)]), cache=cache)
        with pytest.raises(DataError):
            model.forward_logits(np.asarray([prompt(1)]), cache=cache)


def test_temperature_without_rng_is_config_error():
    with pytest.raises(ConfigError):
        build("base").generate([1], 4, mode="temperature")


def test_negative_top_k_is_config_error():
    with pytest.raises(ConfigError):
        build("base").generate([1], 4, mode="temperature", top_k=-1, rng=RngState(0))


def test_negative_max_new_tokens_is_config_error():
    with pytest.raises(ConfigError):
        build("base").generate([1], -1)
