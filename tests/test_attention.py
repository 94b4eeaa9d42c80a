"""The fused attention kernel against the chain of single ops it replaced.

``reference_attention`` is the attention core exactly as the model built it
before the kernel existed: 16 tape nodes of reshape / transpose / narrow /
matmul / mul / mask / softmax. Given a ``from_row`` it narrows the queries
and the mask's rows before the score product. The kernel must match it bit
for bit, forward and backward, and in whole training runs.
"""

import math

import numpy as np
import pytest

from tinypeft import tensor as T
from tinypeft.errors import ShapeError
from tinypeft.model import CausalLMConfig, init_model
from tinypeft.peft import LoraConfig, attach_lora
from tinypeft.rng import RngState
from tinypeft.tensor import Tensor, backward
from tinypeft.trainer import TrainConfig, Trainer

from gradcheck import check_op, matmul, mul, reshape, softmax, tsum

_MASK_VALUE = np.float32(-1e9)


def causal_mask(scores: Tensor, from_row: int = 0) -> Tensor:
    """Scores above the diagonal -> -1e9; masked positions pass no gradient.

    The scores are rows from_row.. of the (t, t) square."""
    t = scores.shape[-1]
    keep = np.tril(np.ones((t, t), dtype=bool))[from_row:]
    data = np.where(keep, scores.data, _MASK_VALUE)

    def backward_fn(g):
        scores._accumulate(np.where(keep, g, np.float32(0.0)))

    return T._node(data, (scores,), backward_fn)


def reference_attention(qkv: Tensor, n_heads: int, from_row: int = 0) -> Tensor:
    B, S, d3 = qkv.shape
    d = d3 // 3
    H, hd = n_heads, d // n_heads
    x = reshape(qkv, (B, S, 3, H, hd))
    x = T.transpose(x, 1, 3)  # (B, H, 3, S, hd)
    q = reshape(T.narrow(x, 2, 0, 1), (B, H, S, hd))
    k = reshape(T.narrow(x, 2, 1, 1), (B, H, S, hd))
    v = reshape(T.narrow(x, 2, 2, 1), (B, H, S, hd))
    n = S - from_row
    if from_row:
        q = T.narrow(q, 2, from_row, n)
    scale = Tensor(np.float32(1.0 / math.sqrt(hd)))
    scores = mul(matmul(q, T.transpose(k)), scale)
    attn = softmax(causal_mask(scores, from_row))
    ctx = matmul(attn, v)  # (B, H, n, hd)
    return reshape(T.transpose(ctx, 1, 2), (B, n, d))


def forward_backward(fn, qkv: np.ndarray, upstream: np.ndarray, n_heads: int,
                     from_row: int = 0):
    x = Tensor(qkv.copy(), requires_grad=True)
    out = fn(x, n_heads, from_row=from_row)
    backward(tsum(mul(out, Tensor(upstream[:, from_row:]))))
    return out.data, x.grad


@pytest.mark.parametrize("B,S", [(1, 1), (2, 7), (3, 50), (2, 128)])
def test_kernel_bitwise_equals_reference(B, S):
    d, H = 64, 4
    rng = np.random.default_rng(S)
    qkv = rng.standard_normal((B, S, 3 * d)).astype(np.float32)
    upstream = rng.standard_normal((B, S, d)).astype(np.float32)
    if S > 1:
        # right padding in the last row: repeated pad activations, no loss there
        cut = S // 2
        qkv[-1, cut:] = qkv[-1, cut]
        upstream[-1, cut:] = 0.0
    # the loss scores at least two rows (from_row <= S - 2); a single scored
    # row makes the score product a matrix-vector product, which rounds
    # differently on the reference's transposed keys, so decoding's one-row
    # forward is checked against the full forward in test_decode instead
    for from_row in sorted({0, S // 2, max(S - 2, 0)}):
        want_out, want_grad = forward_backward(reference_attention, qkv, upstream, H,
                                               from_row)
        got_out, got_grad = forward_backward(T.attention, qkv, upstream, H, from_row)
        assert got_out.shape == (B, S - from_row, d)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()


def test_minus_zero_scores_above_the_diagonal_need_no_mask():
    """The VJP leaves ds = probs * (dp - rowsum) unmasked: probs is +0 above
    the diagonal, so ds is +-0 there. Here every such entry is -0, because
    values fall with the key's position and the upstream gradient is
    positive, so dp above the diagonal is below the row's probability-
    weighted mean. The reference masks them to +0; the gradients must still
    agree bit for bit."""
    B, S, d, H = 2, 12, 16, 2
    hd = d // H
    rng = np.random.default_rng(4)
    qkv = rng.standard_normal((B, S, 3 * d)).astype(np.float32)
    qkv[:, :, 2 * d:] = -np.float32(0.1) * np.arange(1, S + 1, dtype=np.float32)[:, None]
    upstream = rng.uniform(0.5, 1.5, (B, S, d)).astype(np.float32)
    q, k, v = qkv.astype(np.float64).reshape(B, S, 3, H, hd).transpose(2, 0, 3, 1, 4)
    g = upstream.astype(np.float64).reshape(B, S, H, hd).transpose(0, 2, 1, 3)
    above = ~np.tri(S, dtype=bool)
    z = np.where(above, -np.inf, q @ k.swapaxes(-1, -2) / math.sqrt(hd))
    probs = np.exp(z - z.max(-1, keepdims=True))
    probs /= probs.sum(-1, keepdims=True)
    dp = g @ v.swapaxes(-1, -2)
    assert np.all((dp - (dp * probs).sum(-1, keepdims=True))[..., above] < 0)
    for from_row in (0, S // 2, S - 2):
        want_out, want_grad = forward_backward(reference_attention, qkv, upstream, H,
                                               from_row)
        got_out, got_grad = forward_backward(T.attention, qkv, upstream, H, from_row)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()


def test_attention_gradcheck():
    x = np.random.default_rng(1).standard_normal((2, 5, 12)).astype(np.float32)
    check_op(lambda a: T.attention(a, 2), [x])


def test_future_gets_no_probability_mass():
    # q = k = 0 gives equal scores, so position t averages v over 0..t only
    S = 4
    qkv = np.zeros((1, S, 3 * S), dtype=np.float32)
    qkv[0, :, 2 * S:] = np.eye(S, dtype=np.float32)  # v at position j = e_j
    out = T.attention(Tensor(qkv), 1).data[0]
    assert np.all(np.triu(out, k=1) < 1e-6)
    np.testing.assert_allclose(out[2, :3], 1.0 / 3.0, rtol=1e-5)


def test_masked_scores_pass_no_gradient():
    S, d, t = 5, 8, 2
    x = Tensor(np.random.default_rng(2).standard_normal((1, S, 3 * d)).astype(np.float32),
               requires_grad=True)
    out = T.attention(x, 2)
    upstream = np.zeros((1, S, d), dtype=np.float32)
    upstream[0, t] = 1.0  # only the output at position t is observed
    backward(tsum(mul(out, Tensor(upstream))))
    g = x.grad[0]
    assert np.all(g[t + 1:] == 0.0)  # later keys and values get nothing
    assert np.all(np.delete(g[:, :d], t, axis=0) == 0.0)  # nor do other queries
    assert np.any(g[: t + 1, d:] != 0.0)


def test_mask_cache_is_read_only_and_reused():
    bias = T._causal_bias(8)
    assert bias is T._causal_bias(8)
    assert not bias.flags.writeable
    want = np.where(np.tri(8, dtype=bool), np.float32(0.0), T._MASK_VALUE)
    np.testing.assert_array_equal(bias, want)
    with pytest.raises(ValueError):
        bias[0, 1] = 0.0
    # a length between powers of two reads the top-left block of the next one
    assert T._causal_bias(7).base is bias
    np.testing.assert_array_equal(T._causal_bias(7), want[:7, :7])
    hits = T._causal_bias.cache_info().hits
    x = Tensor(np.ones((1, 7, 6), dtype=np.float32))
    T.attention(x, 1)
    T.attention(x, 1)
    assert T._causal_bias.cache_info().hits >= hits + 2


def test_attention_rejects_unsplittable_input():
    with pytest.raises(ShapeError, match="heads"):
        T.attention(Tensor(np.zeros((1, 3, 10), dtype=np.float32)), 2)
    with pytest.raises(ShapeError):
        T.attention(Tensor(np.zeros((3, 12), dtype=np.float32)), 2)


# -- whole training runs -------------------------------------------------------


@pytest.mark.parametrize("method", ["full", "lora"])
def test_training_bitwise_equals_reference(method, monkeypatch, tmp_path, tok, examples):
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=32, n_heads=4,
                         n_layers=2, seq_len=128)

    def run(name):
        model = init_model(cfg, RngState(4))
        if method == "lora":
            attach_lora(model, LoraConfig(r=4, alpha=8.0, dropout=0.05), RngState(5))
        tc = TrainConfig(output_dir=str(tmp_path / name), max_steps=20, save_steps=100,
                         logging_steps=100, learning_rate=1e-3, seed=6)
        tr = Trainer(model, examples[:16], tc, tok.specials.pad)
        tr.train()
        return tr.step_losses, {n: p.data.tobytes() for n, p in model.params.items()}

    def uncached_reference(qkv, n_heads, cache=None, from_row=0):
        assert cache is None  # training never passes a key/value cache
        return reference_attention(qkv, n_heads, from_row)

    kernel = run("kernel")
    with monkeypatch.context() as m:
        m.setattr(T, "attention", uncached_reference)
        reference = run("reference")
    assert kernel[0] == reference[0]
    assert kernel[1] == reference[1]
