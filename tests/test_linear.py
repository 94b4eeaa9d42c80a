"""The fused linear kernel and the next-token cross-entropy against the graphs
they replaced.

``reference_linear`` is ``Linear.__call__`` exactly as the model built it
before the kernel existed: matmul, bias add, dropout mul, two transposes, two
matmuls, the scale mul and the add. ``reference_lm_loss`` asks the forward
for the rows from the first scored position on, narrows those logits to all
but their last row, flattens them and scores them with the 2-D
cross-entropy that built a one-hot buffer in its backward. The kernels must
match them bit for bit, forward and backward, and in whole training runs.
"""

import numpy as np
import pytest

from tinypeft import model as model_mod
from tinypeft import peft
from tinypeft import tensor as T
from tinypeft.corpus import IGNORE_LABEL
from tinypeft.errors import ConfigError, NumericError, ShapeError
from tinypeft.model import CausalLMConfig, Linear, init_model
from tinypeft.peft import (
    BottleneckAdapterConfig,
    LoraAdapter,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    merge_lora,
    quantize_base,
)
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.tensor import Parameter, Tensor, backward
from tinypeft.trainer import TrainConfig, Trainer, collate

from conftest import lora_pairs
from gradcheck import check_op, matmul, mul, reshape, tsum

# -- the unfused graphs --------------------------------------------------------


def reference_dropout(a: Tensor, p: float, rng) -> Tensor:
    if p == 0.0:
        return a
    mask = (rng.uniform(a.shape) >= np.float32(p)).astype(np.float32) / np.float32(1.0 - p)
    return mul(a, Tensor(mask))


def reference_delta(adapter: LoraAdapter, x: Tensor, training=False, rng=None) -> Tensor:
    if adapter.merged:
        return Tensor(np.zeros(x.shape[:-1] + (adapter.B.shape[0],), dtype=np.float32))
    if training and adapter.dropout > 0.0:
        if rng is None:
            raise ConfigError("training-mode LoRA forward needs an rng for dropout")
        x = reference_dropout(x, adapter.dropout, rng)
    h = matmul(x, T.transpose(adapter.A, 0, 1))
    h = matmul(h, T.transpose(adapter.B, 0, 1))
    return mul(h, Tensor(adapter.scaling))


def reference_linear(self: Linear, x: Tensor, training=False, rng=None) -> Tensor:
    y = matmul(x, self.weight)
    if self.bias is not None:
        y = T.add(y, self.bias)
    if self.adapter is not None:
        y = T.add(y, reference_delta(self.adapter, x, training=training, rng=rng))
    return y


def reference_bottleneck(self, h: Tensor) -> Tensor:
    z = T.add(matmul(h, self.down_w), self.down_b)
    z = T.add(matmul(T.gelu(z), self.up_w), self.up_b)
    return T.add(h, z)


def reference_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index=-1) -> Tensor:
    """logits (N, V), targets (N,)."""
    keep = targets != ignore_index
    n_keep = int(keep.sum())
    m = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True)).astype(np.float32)
    logp = z - lse
    safe_t = np.where(keep, targets, 0)
    picked = logp[np.arange(len(targets)), safe_t]
    data = np.float32(-(picked * keep).sum() / n_keep)

    def backward_fn(g):
        p = np.exp(logp)
        onehot = np.zeros_like(p)
        onehot[np.arange(len(targets)), safe_t] = 1.0
        gl = (p - onehot) * (keep[:, None] / np.float32(n_keep)) * np.float32(g)
        logits._accumulate(gl.astype(np.float32))

    return T._node(data, (logits,), backward_fn)


def reference_next_token_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    B, S, V = logits.shape
    pred = reshape(T.narrow(logits, 1, 0, S - 1), (B * (S - 1), V))
    return reference_cross_entropy(pred, labels[:, 1:].reshape(-1), IGNORE_LABEL)


def reference_lm_loss(self, input_ids, labels, training=False, rng=None) -> Tensor:
    ids = np.atleast_2d(np.asarray(input_ids))
    lab = np.atleast_2d(np.asarray(labels))
    scored = np.flatnonzero((lab[:, 1:] != IGNORE_LABEL).any(axis=0))
    from_row = int(scored[0]) if scored.size else 0
    return reference_next_token_loss(
        self.forward_logits(ids, training=training, rng=rng, from_row=from_row),
        lab[:, from_row:])


# -- the kernel, one layer -----------------------------------------------------

D_IN, D_OUT, R = 16, 24, 4


def make_linear(seed: int, bias: bool, adapter: str, frozen: bool) -> Linear:
    rng = np.random.default_rng(seed)

    def param(name, *shape):
        return Parameter(rng.standard_normal(shape).astype(np.float32), name)

    lin = Linear("lin", param("w", D_IN, D_OUT), param("b", D_OUT) if bias else None)
    if frozen:
        lin.weight.freeze()
        if lin.bias is not None:
            lin.bias.freeze()
    if adapter != "none":
        p = 0.05 if adapter == "lora_dropout" else 0.0
        lin.adapter = LoraAdapter("lin", param("A", R, D_IN), param("B", D_OUT, R), 1.5, p)
    return lin


def run_layer(call, lin: Linear, x: np.ndarray, upstream: np.ndarray, x_grad: bool):
    """One training forward + backward; returns output, grads and RNG state."""
    for p in (lin.weight, lin.bias, *(() if lin.adapter is None
                                       else (lin.adapter.A, lin.adapter.B))):
        if p is not None:
            p.grad = None
    xt = Tensor(x.copy(), requires_grad=x_grad)
    rng = RngState(11)
    out = call(lin, xt, training=True, rng=rng)
    backward(tsum(mul(out, Tensor(upstream))))
    grads = {"x": xt.grad, "w": lin.weight.grad,
             "b": None if lin.bias is None else lin.bias.grad}
    if lin.adapter is not None:
        grads.update(A=lin.adapter.A.grad, B=lin.adapter.B.grad)
    return out.data, grads, rng.get_state()


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("adapter", ["none", "lora", "lora_dropout"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("B,S", [(1, 1), (2, 7), (2, 128)])
def test_kernel_bitwise_equals_reference(B, S, bias, adapter, frozen):
    rng = np.random.default_rng(S)
    x = rng.standard_normal((B, S, D_IN)).astype(np.float32)
    upstream = rng.standard_normal((B, S, D_OUT)).astype(np.float32)
    for x_grad in (True, False):
        if not x_grad and frozen and adapter == "none":
            continue  # nothing would need a gradient
        lin = make_linear(S, bias, adapter, frozen)
        want_out, want, want_rng = run_layer(reference_linear, lin, x, upstream, x_grad)
        got_out, got, got_rng = run_layer(Linear.__call__, lin, x, upstream, x_grad)
        assert got_out.tobytes() == want_out.tobytes()
        assert got_rng == want_rng
        assert got.keys() == want.keys()
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert got[name].tobytes() == want[name].tobytes(), name
        if frozen:
            assert got["w"] is None and got["b"] is None
        assert (got["x"] is not None) == x_grad


def test_dropout_mask_is_drawn_once_per_adapted_call():
    lin = make_linear(0, True, "lora_dropout", False)
    x = Tensor(np.ones((2, 3, D_IN), dtype=np.float32))
    rng, want = RngState(5), RngState(5)
    lin(x, training=True, rng=rng)
    want.uniform(x.shape)
    assert rng.get_state() == want.get_state()
    lin(x, rng=rng)  # eval: no draw
    assert rng.get_state() == want.get_state()
    with pytest.raises(ConfigError, match="rng"):
        lin(x, training=True)


def test_merged_attached_adapter_equals_reference(monkeypatch):
    model = init_model(CausalLMConfig(vocab_size=40, d_model=16, n_heads=2, n_layers=2,
                                      seq_len=16), RngState(1))
    attach_lora(model, LoraConfig(r=4, alpha=8.0, dropout=0.05), RngState(2))
    for a in lora_pairs(model):
        a.B.data = np.random.default_rng(3).standard_normal(a.B.shape).astype(np.float32)
    merge_lora(model, drop_adapters=False)
    ids = np.random.default_rng(4).integers(0, 40, size=(2, 9))
    got = model.forward_logits(ids).data
    monkeypatch.setattr(Linear, "__call__", reference_linear)
    want = model.forward_logits(ids).data
    # the reference adds a zero delta, which turns -0.0 into 0.0: compare values
    np.testing.assert_array_equal(got, want)


def test_linear_gradcheck():
    rng = np.random.default_rng(7)
    mask = (rng.uniform(size=(2, 3, 5)) >= 0.3).astype(np.float32) / np.float32(0.7)
    inputs = [rng.standard_normal(s).astype(np.float32)
              for s in ((2, 3, 5), (5, 4), (4,), (3, 5), (4, 3))]
    check_op(lambda x, w, b, a, bb: T.linear(x, w, b, (a, bb, np.float32(0.5), mask)), inputs)
    check_op(lambda x, w: T.linear(x, w), inputs[:2])


def test_linear_rejects_mismatched_input():
    with pytest.raises(ShapeError, match=r"linear: input \(2, 3\) vs weight \(4, 5\)"):
        T.linear(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((4, 5), np.float32)))


# -- next-token cross-entropy --------------------------------------------------


def ce_pair(logits: np.ndarray, labels: np.ndarray):
    out = []
    for fn in (reference_next_token_loss,
               lambda lt, lab: T.cross_entropy(lt, lab[:, 1:], IGNORE_LABEL)):
        lt = Tensor(logits.copy(), requires_grad=True)
        loss = fn(lt, labels)
        backward(loss, 0.5)
        out.append((loss.data.tobytes(), lt.grad.tobytes()))
    return out


@pytest.mark.parametrize("B,S,V", [(1, 2, 7), (2, 2, 50), (3, 9, 50), (2, 128, 512)])
def test_cross_entropy_3d_bitwise_equals_narrow_reshape(B, S, V):
    rng = np.random.default_rng(S * V)
    logits = (3.0 * rng.standard_normal((B, S, V))).astype(np.float32)
    labels = rng.integers(0, V, size=(B, S))
    if B > 1:
        labels[0, :] = IGNORE_LABEL  # a fully padded row
        labels[-1, S // 2 + 1:] = IGNORE_LABEL
    want, got = ce_pair(logits, labels)
    assert got == want


def test_cross_entropy_shape_and_mask_errors():
    logits = Tensor(np.zeros((2, 5, 7), np.float32))
    for bad in (np.zeros((2, 6), np.int64), np.zeros((3, 4), np.int64),
                np.zeros(4, np.int64)):
        with pytest.raises(ShapeError):
            T.cross_entropy(logits, bad)
    with pytest.raises(ShapeError, match="masked"):
        T.cross_entropy(logits, np.full((2, 4), -1))
    bad = np.full((1, 3, 4), np.nan, dtype=np.float32)
    with pytest.raises(NumericError):
        T.cross_entropy(Tensor(bad), np.zeros((1, 2), np.int64))


# -- the tape, and whole training runs ----------------------------------------


def graph_sizes(loss: Tensor) -> tuple[int, int]:
    """(tensors needing a gradient, leaf parameters among them) under ``loss``."""
    seen, stack, leaves = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        leaves += isinstance(t, Parameter)
        stack.extend(t._parents)
    return len(seen), leaves


def test_lora_micro_batch_tape_size(tok, examples, monkeypatch):
    """The per-step node count of a LoRA micro-batch (d64, 2 blocks, r32 on all
    four targets, dropout 0.05), fused and unfused. Both count the ``narrow``
    that cuts the last block's residual stream to the scored rows."""
    model = init_model(CausalLMConfig(vocab_size=tok.vocab_size), RngState(1))
    attach_lora(model, LoraConfig(), RngState(2))
    ids, labels = collate(examples[:2], tok.specials.pad)

    def loss():
        return model.lm_loss(ids, labels, training=True, rng=RngState(3))

    fused = graph_sizes(loss())
    monkeypatch.setattr(Linear, "__call__", reference_linear)
    monkeypatch.setattr(model_mod.CausalLM, "lm_loss", reference_lm_loss)
    unfused = graph_sizes(loss())
    assert fused == (39, 16)
    assert unfused == (102, 16)


TRAIN_METHODS = ["full", "lora", "lora_dropout", "paged_qlora", "bottleneck"]


@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_training_bitwise_equals_reference(method, monkeypatch, tmp_path, tok, examples):
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=32, n_heads=4,
                         n_layers=2, seq_len=128)
    lora = LoraConfig(r=4, alpha=8.0, dropout=0.0 if method == "lora" else 0.05)

    def run(name):
        model = init_model(cfg, RngState(4))
        extra = {}
        if method == "paged_qlora":
            quantize_base(model, QuantConfig())
            extra = dict(optim="paged_adamw_32bit", paging_budget=3)
        if method == "bottleneck":
            attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=8), RngState(5))
        elif method != "full":
            attach_lora(model, lora, RngState(5))
        tc = TrainConfig(output_dir=str(tmp_path / name), max_steps=20, save_steps=100,
                         logging_steps=100, learning_rate=1e-3, seed=6, **extra)
        tr = Trainer(model, examples[:16], tc, tok.specials.pad)
        tr.train()
        return (tr.step_losses, {n: p.data.tobytes() for n, p in model.params.items()},
                tr.rng.get_state())

    kernel = run("kernel")
    with monkeypatch.context() as m:
        m.setattr(Linear, "__call__", reference_linear)
        m.setattr(peft.BottleneckAdapter, "__call__", reference_bottleneck)
        m.setattr(model_mod.CausalLM, "lm_loss", reference_lm_loss)
        reference = run("reference")
    assert kernel[0] == reference[0]
    assert kernel[1] == reference[1]
    assert kernel[2] == reference[2]
