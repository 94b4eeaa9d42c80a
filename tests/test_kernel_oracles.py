"""The in-place kernels against the bodies they replaced.

Each ``reference_*`` below is a kernel exactly as it was written before its
elementwise passes worked in buffers of its own: ``attention`` (masking by
``np.where`` rather than adding a bias), ``layer_norm``, ``gelu``,
``dropout_mask`` (from f32 uniforms rather than raw words), ``linear``,
``cross_entropy`` (through a full log-softmax array) and ``AdamW.step``,
each allocating a fresh temporary per pass. The kernels must match them bit
for bit: outputs, every gradient, the RNG stream, parameters and moments, one
call at a time and in whole training and decoding runs.

The tape holds kernels alone: the tied head is a ``linear`` node and the
accumulation weight seeds ``backward``, and both match the generic
``matmul`` and ``mul`` nodes they replaced, bit for bit. A kernel hands a
parent the gradient buffer it allocated for it instead of a copy; after a
step, no gradient shares memory with another array of the step.
"""

import dataclasses
import math

import numpy as np
import pytest

from tinypeft import optim
from tinypeft import tensor as T
from tinypeft.model import CausalLMConfig, init_model
from tinypeft.optim import AdamW
from tinypeft.peft import (
    BottleneckAdapterConfig,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    quantize_base,
)
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.tensor import Parameter, Tensor, backward
from tinypeft.trainer import TrainConfig, Trainer, collate

from conftest import lora_pairs
from gradcheck import matmul, mul, tsum

# -- the kernels as they were --------------------------------------------------


def reference_attention(qkv, n_heads, cache=None, from_row=0):
    B, S, d3 = qkv.shape
    hd = d3 // (3 * n_heads)
    q, k, v = np.ascontiguousarray(
        qkv.data.reshape(B, S, 3, n_heads, hd).transpose(2, 0, 3, 1, 4))
    keep = T._causal_keep(S)
    if cache is not None:
        if cache:
            k = np.concatenate((cache[0], k), axis=2)
            v = np.concatenate((cache[1], v), axis=2)
            keep = T._causal_keep(k.shape[2])[-S:]
        cache[:] = [k, v]
    n = S - from_row
    if from_row:
        q, keep = np.ascontiguousarray(q[:, :, from_row:]), keep[from_row:]
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    scale = np.float32(1.0 / np.sqrt(hd))
    scores = np.where(keep, (q @ kt) * scale, T._MASK_VALUE)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)
    data = (probs @ v).transpose(0, 2, 1, 3).reshape(B, n, d3 // 3)

    def backward_fn(g):
        g_ctx = np.ascontiguousarray(g.reshape(B, n, n_heads, hd).transpose(0, 2, 1, 3))
        dv = np.swapaxes(probs, -1, -2) @ g_ctx
        dp = g_ctx @ np.swapaxes(v, -1, -2)
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
        ds = np.where(keep, ds, np.float32(0.0)) * scale
        dq = ds @ k
        dk = np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2)
        if from_row:
            dq = np.concatenate((np.zeros((B, n_heads, from_row, hd), np.float32), dq), axis=2)
        qkv._accumulate(np.stack((dq, dk, dv)).transpose(1, 3, 0, 2, 4).reshape(B, S, d3))

    return T._node(data, (qkv,), backward_fn)


def reference_gelu(a):
    x = a.data
    cdf = T._erf(x / T._SQRT_2)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def backward_fn(g):
        pdf = T._INV_SQRT_2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (cdf + x * pdf))

    return T._node(data, (a,), backward_fn)


def reference_layer_norm(a, gain, bias, eps=1e-5):
    d = a.shape[-1]
    n = np.float32(d)
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
    xc = a.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward_fn(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            s1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
            s2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
            a._accumulate(inv * (gx - s1 - xhat * s2))

    return T._node(data, (a, gain, bias), backward_fn)


def reference_dropout_mask(shape, p, rng):
    if p == 0.0:
        return None
    return (rng.uniform(shape) >= np.float32(p)).astype(np.float32) / np.float32(1.0 - p)


def reference_linear(x, W, b=None, lora=None):
    data = x.data @ W.data
    parents = [x, W]
    if b is not None:
        data += b.data
        parents.append(b)
    if lora is not None:
        A, B, s, mask = lora
        xd = x.data if mask is None else x.data * mask
        At, Bt = np.swapaxes(A.data, 0, 1), np.swapaxes(B.data, 0, 1)
        h = xd @ At
        data += (h @ Bt) * s
        parents += [A, B]

    def backward_fn(g):
        if b is not None and b.requires_grad:
            b._accumulate(T._unbroadcast(g, b.shape))
        if W.requires_grad:
            W._accumulate(T._unbroadcast(np.swapaxes(x.data, -1, -2) @ g, W.shape))
        gx = g @ np.swapaxes(W.data, -1, -2) if x.requires_grad else None
        if lora is not None:
            gd = g * s
            if B.requires_grad:
                gBt = T._unbroadcast(np.swapaxes(h, -1, -2) @ gd, Bt.shape)
                B._accumulate(np.swapaxes(gBt, 0, 1))
            gh = gd @ np.swapaxes(Bt, -1, -2)
            if A.requires_grad:
                gAt = T._unbroadcast(np.swapaxes(xd, -1, -2) @ gh, At.shape)
                A._accumulate(np.swapaxes(gAt, 0, 1))
            if gx is not None:
                gxd = gh @ np.swapaxes(At, -1, -2)
                gx += gxd if mask is None else gxd * mask
        if gx is not None:
            x._accumulate(gx)

    return T._node(data, parents, backward_fn)


def reference_cross_entropy(logits, targets, ignore_index=-1):
    targets = np.asarray(targets)
    n = targets.shape[-1]
    keep = targets != ignore_index
    n_keep = int(keep.sum())
    x = logits.data[..., :n, :]
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True)).astype(np.float32)
    logp = z - lse
    safe_t = np.where(keep, targets, 0)[..., None]
    picked = np.take_along_axis(logp, safe_t, axis=-1)
    data = np.float32(-(picked.reshape(-1) * keep.reshape(-1)).sum() / n_keep)

    def backward_fn(g):
        gl = np.zeros_like(logits.data)
        gp = gl[..., :n, :]
        np.exp(logp, out=gp)
        np.put_along_axis(gp, safe_t, np.take_along_axis(gp, safe_t, axis=-1) - 1.0, axis=-1)
        gp *= keep[..., None] / np.float32(n_keep)
        gp *= np.float32(g)
        logits._accumulate(gl)

    return T._node(data, (logits,), backward_fn)


def reference_adamw_step(self, lr):
    self.step_count += 1
    t = self.step_count
    lr = np.float32(lr)
    bc1 = np.float32(1.0 - float(self.beta1) ** t)
    bc2 = np.float32(1.0 - float(self.beta2) ** t)
    for p in self.params:
        g = p.grad
        m, v = self._get_moments(p.name)
        m = self.beta1 * m + (np.float32(1.0) - self.beta1) * g
        v = self.beta2 * v + (np.float32(1.0) - self.beta2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= lr * (mhat / (np.sqrt(vhat) + self.eps))
        if self.weight_decay > 0:
            p.data -= lr * self.weight_decay * p.data
        self._put_moments(p.name, m, v)


def use_references(monkeypatch):
    for name, fn in (("attention", reference_attention), ("gelu", reference_gelu),
                     ("layer_norm", reference_layer_norm),
                     ("dropout_mask", reference_dropout_mask), ("linear", reference_linear),
                     ("cross_entropy", reference_cross_entropy)):
        monkeypatch.setattr(T, name, fn)
    monkeypatch.setattr(optim.AdamW, "step", reference_adamw_step)


def same_bits(got, want):
    """Equal shapes, dtypes and bytes (so -0.0 != 0.0)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def run_both(kernel, reference, make_inputs, upstream):
    """Forward + backward of each on fresh copies of the same inputs; returns
    (output, [grad of each input tensor, those in a tuple argument too]) per
    side. Neither may write into its inputs or its upstream gradient."""
    out = []
    for fn in (kernel, reference):
        inputs = make_inputs()
        tensors = [t for a in inputs for t in (a if isinstance(a, tuple) else (a,))
                   if isinstance(t, Tensor)]
        before = [t.data.tobytes() for t in tensors]
        y = fn(*inputs)
        backward(tsum(mul(y, Tensor(upstream))))
        assert [t.data.tobytes() for t in tensors] == before
        same_bits(y.grad, upstream)  # the upstream gradient, still unwritten
        out.append((y.data, [t.grad for t in tensors]))
    return out


def assert_same_run(got, want):
    same_bits(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for i, (g, w) in enumerate(zip(got[1], want[1])):
        assert (g is None) == (w is None), i
        if w is not None:
            same_bits(g, w)


def randf(rng, *shape, scale=1.0):
    return (scale * rng.standard_normal(shape)).astype(np.float32)


# -- one call at a time ---------------------------------------------------------

SHAPES = [(1, 1), (2, 7), (3, 50), (2, 128)]


@pytest.mark.parametrize("B,S", SHAPES)
def test_attention_bitwise_equals_reference(B, S):
    d, H = 32, 4
    rng = np.random.default_rng(S)
    qkv = randf(rng, B, S, 3 * d, scale=2.0)
    for from_row in sorted({0, S // 2, S - 1}):
        upstream = randf(rng, B, S - from_row, d)

        def make():
            return (Tensor(qkv.copy(), requires_grad=True), H, None, from_row)

        got, want = run_both(T.attention, reference_attention, make, upstream)
        assert_same_run(got, want)


@pytest.mark.parametrize("S", [1, 5])
def test_cached_attention_bitwise_equals_reference(S):
    """A prefill of S positions, then three one-token steps on the cache."""
    d, H = 32, 4
    rng = np.random.default_rng(7 + S)
    steps = [randf(rng, 2, S, 3 * d)] + [randf(rng, 2, 1, 3 * d) for _ in range(3)]
    caches = {}
    outs = {}
    for name, fn in (("kernel", T.attention), ("reference", reference_attention)):
        cache, outs[name] = [], []
        with T.no_grad():
            for x in steps:
                outs[name].append(fn(Tensor(x), H, cache, x.shape[1] - 1).data)
        caches[name] = cache
    for got, want in zip(outs["kernel"], outs["reference"]):
        same_bits(got, want)
    for got, want in zip(caches["kernel"], caches["reference"]):
        same_bits(got, want)


@pytest.mark.parametrize("B,S", SHAPES)
def test_gelu_bitwise_equals_reference(B, S):
    rng = np.random.default_rng(S)
    x = randf(rng, B, S, 64, scale=3.0)
    upstream = randf(rng, B, S, 64)
    got, want = run_both(T.gelu, reference_gelu,
                         lambda: (Tensor(x.copy(), requires_grad=True),), upstream)
    assert_same_run(got, want)


@pytest.mark.parametrize("trainable", ["all", "input_only", "affine_only"])
@pytest.mark.parametrize("B,S", SHAPES)
def test_layer_norm_bitwise_equals_reference(B, S, trainable):
    rng = np.random.default_rng(S)
    x, gain, bias = randf(rng, B, S, 64, scale=3.0), randf(rng, 64), randf(rng, 64)
    upstream = randf(rng, B, S, 64)

    def make():
        return (Tensor(x.copy(), requires_grad=trainable != "affine_only"),
                Tensor(gain.copy(), requires_grad=trainable != "input_only"),
                Tensor(bias.copy(), requires_grad=trainable != "input_only"))

    got, want = run_both(T.layer_norm, reference_layer_norm, make, upstream)
    assert_same_run(got, want)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.15, 0.5])
def test_dropout_mask_bitwise_equals_reference(p):
    for shape in ((1, 1, 16), (2, 7, 64)):
        rng, ref_rng = RngState(3), RngState(3)
        got = T.dropout_mask(shape, p, rng)
        want = reference_dropout_mask(shape, p, ref_rng)
        assert rng.get_state() == ref_rng.get_state()
        if p == 0.0:
            assert got is None and want is None
        else:
            same_bits(got, want)


KEEP_PS = [0.05, 0.15, 0.5, 1 - 2**-26]  # the last rounds to 1.0f


def rng_pair(seed, half_word, word=None):
    """Two equal RngStates, with the high half of a draw buffered when
    ``half_word``; ``word`` replaces that buffered half."""
    pair = RngState(seed), RngState(seed)
    if half_word:
        for r in pair:
            r.uniform((1,))
            if word is not None:
                r.set_state({**r.get_state(), "uinteger": word})
            assert r.get_state()["has_uint32"] == 1
    return pair


@pytest.mark.parametrize("p", KEEP_PS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_keep_mask_bitwise_equals_uniform(seed, p):
    """The mask from raw words is ``uniform >= float32(p)`` bit for bit and
    leaves the state ``uniform`` leaves, so the streams go on equal: odd,
    even and empty shapes, with and without a half-word buffered."""
    for half_word in (False, True):
        for shape in ((), (0,), (1,), (2, 0, 3), (3, 5), (1, 1, 16), (2, 7, 63)):
            rng, ref_rng = rng_pair(seed, half_word)
            same_bits(rng.keep_mask(shape, p), ref_rng.uniform(shape) >= np.float32(p))
            assert rng.get_state() == ref_rng.get_state()
        same_bits(rng.uniform((9,)), ref_rng.uniform((9,)))


@pytest.mark.parametrize("p", KEEP_PS)
def test_keep_mask_at_the_threshold(p):
    """Words on either side of ceil(float32(p) * 2**24) << 8, fed in as the
    buffered half-word: a uniform draw's f32 rounding is never reached."""
    c = math.ceil(float(np.float32(p)) * 2**24)
    words = {0, 2**32 - 1} | {w for base in (c - 1, c, c + 1) for w in (base << 8, (base << 8) - 1)}
    for word in sorted(w for w in words if 0 <= w < 2**32):
        rng, ref_rng = rng_pair(5, True, word)
        got, want = rng.keep_mask((3,), p), ref_rng.uniform((3,)) >= np.float32(p)
        same_bits(got, want)
        assert got[0] == ((word >> 8) * 2.0**-24 >= np.float32(p))
        assert rng.get_state() == ref_rng.get_state()


@pytest.mark.parametrize("B,S", SHAPES)
def test_cross_entropy_bitwise_equals_reference(B, S):
    V = 40
    rng = np.random.default_rng(S)
    logits = randf(rng, B, S, V, scale=4.0)
    for n in sorted({1, S - 1, S} - {0}):
        targets = rng.integers(0, V, size=(B, n))
        targets[0, 0] = -1  # an ignored position
        if B * n == 1:
            targets[0, 0] = 3
        upstream = np.array(0.75, np.float32)

        def make():
            return (Tensor(logits.copy(), requires_grad=True), targets)

        got, want = run_both(T.cross_entropy, reference_cross_entropy, make, upstream)
        assert_same_run(got, want)


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("scaling", [1.0, 2.0, 1.5])
@pytest.mark.parametrize("B,S", SHAPES)
def test_linear_bitwise_equals_reference(B, S, scaling, p, frozen):
    d_in, d_out, r = 16, 24, 4
    rng = np.random.default_rng(S)
    x, w, b = randf(rng, B, S, d_in), randf(rng, d_in, d_out), randf(rng, d_out)
    a, bb = randf(rng, r, d_in), randf(rng, d_out, r)
    mask = T.dropout_mask((B, S, d_in), p, RngState(S))
    upstream = randf(rng, B, S, d_out)

    def make():
        return (Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=not frozen),
                Tensor(b.copy(), requires_grad=not frozen),
                (Tensor(a.copy(), requires_grad=True), Tensor(bb.copy(), requires_grad=True),
                 np.float32(scaling), mask))

    got, want = run_both(T.linear, reference_linear, make, upstream)
    assert len(want[1]) == 5
    assert_same_run(got, want)


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("paged", [False, True], ids=["unpaged", "paged"])
def test_adamw_bitwise_equals_reference(weight_decay, paged, tmp_path):
    shapes = [(1,), (3, 5), (16,), (4, 4, 2)]

    def run(step, name):
        rng = np.random.default_rng(5)
        params = [Parameter(randf(rng, *s), f"p{i}") for i, s in enumerate(shapes)]
        opt = AdamW(params, weight_decay=weight_decay)
        if paged:
            opt.enable_paging(str(tmp_path / name), budget=2)
        for i in range(12):
            grng = np.random.default_rng(100 + i)
            grads = [randf(grng, *s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            step(opt, 1e-2 if i < 6 else 3e-3)
            for p, g in zip(params, grads):  # grads are read, never written
                same_bits(p.grad, g)
        return [p.data for p in params], opt.state_tensors()

    kernel = run(AdamW.step, "kernel")
    reference = run(reference_adamw_step, "reference")
    for got, want in zip(kernel[0], reference[0]):
        same_bits(got, want)
    assert kernel[1].keys() == reference[1].keys()
    for key, want in reference[1].items():
        same_bits(kernel[1][key], want)


# -- whole runs -------------------------------------------------------------------

METHODS = ["pretrain", "full", "lora_s1", "lora_s2_dropout", "paged_qlora", "bottleneck"]


@pytest.mark.parametrize("method", METHODS)
def test_training_bitwise_equals_reference(method, monkeypatch, tmp_path, tok, examples):
    """40 steps with weight decay: unmasked text (``pretrain``, from_row 0)
    and prompt-masked batches (from_row > 0), LoRA scaling 1.0 (alpha = r)
    and 2.0, dropout 0 and 0.05, paged moments."""
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=32, n_heads=4,
                         n_layers=2, seq_len=128)

    def run(name):
        model = init_model(cfg, RngState(4))
        extra = {}
        if method == "paged_qlora":
            quantize_base(model, QuantConfig())
            extra = dict(optim="paged_adamw_32bit", paging_budget=3)
        if method == "bottleneck":
            attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=8), RngState(5))
        elif method not in ("pretrain", "full"):
            alpha = 8.0 if method == "lora_s2_dropout" else 4.0
            dropout = 0.0 if method == "lora_s1" else 0.05
            attach_lora(model, LoraConfig(r=4, alpha=alpha, dropout=dropout), RngState(5))
        tc = TrainConfig(output_dir=str(tmp_path / name), max_steps=40, save_steps=100,
                         logging_steps=100, learning_rate=1e-3, weight_decay=0.01,
                         seed=6, **extra)
        data = examples[:16]
        if method == "pretrain":
            data = [dataclasses.replace(e, labels=list(e.input_ids)) for e in data]
        tr = Trainer(model, data, tc, tok.specials.pad)
        tr.train()
        return (tr.step_losses, {n: p.data.tobytes() for n, p in model.params.items()},
                {k: v.tobytes() for k, v in tr.optimizer.state_tensors().items()},
                tr.rng.get_state())

    kernel = run("kernel")
    with monkeypatch.context() as m:
        use_references(m)
        reference = run("reference")
    assert kernel[0] == reference[0]
    assert kernel[1] == reference[1]
    assert kernel[2] == reference[2]
    assert kernel[3] == reference[3]


def test_generate_bitwise_equals_reference(monkeypatch, tok):
    """Greedy decoding through the key/value cache and past the window."""
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=32, n_heads=4,
                         n_layers=2, seq_len=24)
    model = init_model(cfg, RngState(8))
    attach_lora(model, LoraConfig(r=4, alpha=8.0), RngState(9))
    for a in lora_pairs(model):
        a.B.data = np.random.default_rng(10).standard_normal(a.B.shape).astype(np.float32)
    prompt = list(range(3, 17))
    got = model.generate(prompt, 20)
    with monkeypatch.context() as m:
        use_references(m)
        want = model.generate(prompt, 20)
    assert got == want


# -- the tape ---------------------------------------------------------------------

KERNELS = {"embedding", "add", "narrow", "layer_norm", "linear", "attention", "gelu",
           "transpose", "cross_entropy"}
FINETUNE = ["full", "lora", "qlora", "adapter"]


def finetune_model(method, tok):
    """A small model set up as ``finetune --method`` sets it up, LoRA with dropout."""
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=32, n_heads=4,
                         n_layers=2, seq_len=128)
    model = init_model(cfg, RngState(4))
    if method == "qlora":
        quantize_base(model, QuantConfig())
    if method in ("lora", "qlora"):
        attach_lora(model, LoraConfig(r=4, alpha=8.0, dropout=0.05), RngState(5))
        for a in lora_pairs(model):  # B = 0 would hide the LoRA branch
            a.B.data = np.random.default_rng(6).standard_normal(a.B.shape).astype(np.float32)
    elif method == "adapter":
        attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=8), RngState(5))
    return model


@pytest.mark.parametrize("method", FINETUNE)
def test_every_tape_node_is_a_kernel(method, tok, examples):
    model = finetune_model(method, tok)
    ids, labels = collate(examples[:2], tok.specials.pad)
    loss = model.lm_loss(ids, labels, training=True, rng=RngState(7))
    kinds, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        kinds.add(node._backward.__qualname__.split(".")[0])
        stack.extend(node._parents)
    assert kinds <= KERNELS, kinds - KERNELS
    assert {"linear", "attention", "cross_entropy"} <= kinds


def generic_head(monkeypatch):
    """Route the tied head, the one ``linear`` call without a bias, through
    ``matmul`` on the transposed table, as it was built before it became a
    ``linear`` node; returns the list its calls are counted in."""
    real, calls = T.linear, []

    def linear(x, W, b=None, lora=None):
        if b is None and lora is None:
            calls.append(x.shape)
            return matmul(x, W)
        return real(x, W, b, lora)

    monkeypatch.setattr(T, "linear", linear)
    return calls


@pytest.mark.parametrize("acc", [1, 2, 3])
@pytest.mark.parametrize("method", FINETUNE)
def test_head_and_loss_scale_bitwise_equal_generic_graph(method, acc, monkeypatch,
                                                         tok, examples):
    """One accumulated training step: the logits, every parameter gradient
    and the step loss against the graph with the head as a ``matmul`` node and
    each micro-batch loss scaled by a ``mul`` node, as the trainer built it."""
    model = finetune_model(method, tok)
    inv = np.float32(1.0 / acc)
    batches = [collate(examples[2 * i:2 * i + 2], tok.specials.pad) for i in range(acc)]

    def step(generic: bool):
        for p in model.params.values():
            p.grad = None
        rng, step_loss = RngState(7), 0.0
        for ids, labels in batches:
            loss = model.lm_loss(ids, labels, training=True, rng=rng)
            if generic:
                scaled = mul(loss, Tensor(float(inv)))
                backward(scaled)
                step_loss += scaled.item()
            else:
                backward(loss, inv)
                step_loss += float(loss.data * inv)
        logits = model.forward_logits(batches[0][0]).data
        grads = {n: p.grad.tobytes() for n, p in model.params.items() if p.grad is not None}
        return step_loss, logits, grads

    got = step(generic=False)
    with monkeypatch.context() as m:
        calls = generic_head(m)
        want = step(generic=True)
    assert len(calls) == acc + 1
    assert got[0] == want[0]
    same_bits(got[1], want[1])
    assert got[2] == want[2]
    assert any(k.startswith("tok_embeddings") for k in got[2]) == (method == "full")


def tape_arrays(loss):
    """The nodes of the tape under ``loss`` and the arrays their VJPs saved."""
    nodes, saved, seen, stack = [], [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for cell in (node._backward.__closure__ or ()) if node._backward else ():
            try:
                value = cell.cell_contents
            except ValueError:  # a local the forward did not bind (linear without LoRA)
                continue
            saved += [v for v in (value if isinstance(value, (tuple, list)) else (value,))
                      if isinstance(v, np.ndarray)]
        stack.extend(node._parents)
    return nodes, saved


@pytest.mark.parametrize("method", ["full", "lora", "paged_qlora", "adapter"])
def test_gradients_own_their_buffers(method, tok, examples, tmp_path):
    """Two accumulated micro-batches (a first gradient is adopted, a second
    added) and an optimizer step: every gradient on the tape is a
    C-contiguous f32 array of its own, sharing memory with no other
    gradient, no node's data, no saved array and no optimizer moment."""
    model = finetune_model("qlora" if method == "paged_qlora" else method, tok)
    opt = AdamW(list(model.params.values()))
    if method == "paged_qlora":
        opt.enable_paging(str(tmp_path), budget=3)
    rng, nodes, saved = RngState(7), {}, []
    for i in range(2):
        ids, labels = collate(examples[2 * i:2 * i + 2], tok.specials.pad)
        loss = model.lm_loss(ids, labels, training=True, rng=rng)
        tape, kept = tape_arrays(loss)
        backward(loss, 0.5)
        nodes.update((id(n), n) for n in tape)
        saved += kept
    opt.step(1e-3)
    grads = [n.grad for n in nodes.values() if n.grad is not None]
    assert all(p.grad is not None for p in opt.params)
    others = [n.data for n in nodes.values()] + saved + list(opt.state_tensors().values())
    for i, g in enumerate(grads):
        assert g.dtype == np.float32 and g.flags.c_contiguous
        for other in grads[i + 1:] + others:
            assert not np.shares_memory(g, other)
