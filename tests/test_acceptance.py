"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight artifact (a 60-step LoRA fine-tune of a randomly
initialized desk-size base on the bundled corpus, published defaults:
batch 2, accumulation 2, lr 2e-4, warmup ratio 0.03, cosine decay, clip
0.3, r=32 alpha=32 dropout=0.05 on all four projection targets) is built
once and shared by the criteria that inspect it.
"""

import math
import os
import time

import numpy as np
import pytest

from tinypeft import tensor as T
from tinypeft.evals import compare_base_vs_adapted, perplexity
from tinypeft.model import LN_EPS, CausalLMConfig, init_model
from tinypeft.optim import AdamW
from tinypeft.peft import (
    FIG12_TARGET_MODULES,
    LoraConfig,
    attach_lora,
    merge_lora,
    quantize_base,
    trainable_summary,
)
from tinypeft.quant import QuantConfig, build_nf4_codebook, dequantize_blockwise, \
    quantize_blockwise
from tinypeft.rng import RngState
from tinypeft.store import load_adapter, load_model, save_adapter, save_model
from tinypeft.trainer import TrainConfig, Trainer, hyperparameter_search, lr_at_step

from conftest import micro_config, parameter_count, payload_bits_per_weight, rand_ids
from gradcheck import numeric_grad, relative_grad_error


def report(n: int, desc: str, ok: bool):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def desk_lora_config() -> LoraConfig:
    return LoraConfig(r=32, alpha=32.0, dropout=0.05,
                      target_modules=list(FIG12_TARGET_MODULES))


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory, desk_config, examples, tok):
    """Base + 60-step LoRA fine-tune with published defaults; last 14
    examples held out of training for the comparison criterion."""
    out = tmp_path_factory.mktemp("desk")
    base = init_model(desk_config, RngState(7))
    base_path = str(out / "base.pfwa")
    save_model(base, base_path)

    model = init_model(desk_config, RngState(7))  # same weights as base
    attach_lora(model, desk_lora_config(), RngState(8))
    cfg = TrainConfig(output_dir=str(out / "run"))  # all defaults: 60 steps
    t0 = time.monotonic()
    trainer = Trainer(model, examples[:-14], cfg, tok.specials.pad)
    trainer.train()
    wall = time.monotonic() - t0
    adapter_path = str(out / "adapter.pfwa")
    save_adapter(model, adapter_path)
    return {
        "base": base, "model": model, "trainer": trainer, "wall": wall,
        "base_path": base_path, "adapter_path": adapter_path,
        "holdout": examples[-14:], "out": out,
    }


def test_criterion_01_lora_identity_at_init(desk_config):
    t0 = time.monotonic()
    base = init_model(desk_config, RngState(21))
    rng = np.random.default_rng(0)
    inputs = [rand_ids(rng, 1, 32, desk_config.vocab_size) for _ in range(16)]
    want = [base.forward_logits(ids).data.copy() for ids in inputs]
    attach_lora(base, desk_lora_config(), RngState(22))
    ok = all(np.array_equal(base.forward_logits(ids).data, w)
             for ids, w in zip(inputs, want))
    elapsed = time.monotonic() - t0
    report(1, f"LoRA identity at init, bitwise on 16 inputs ({elapsed:.1f}s < 5s)",
           ok and elapsed < 5.0)


def test_criterion_02_merge_equivalence(desk_run, desk_config):
    adapted = desk_run["model"]
    merged = load_adapter(load_model(desk_run["base_path"]),
                          desk_run["adapter_path"])
    merge_lora(merged)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(16):
        ids = rand_ids(rng, 1, 32, desk_config.vocab_size)
        a = adapted.forward_logits(ids).data
        b = merged.forward_logits(ids).data
        worst = max(worst, float(np.abs(a - b).max() / max(np.abs(a).max(), 1e-12)))
    report(2, f"merge equivalence after 60 steps, max rel err {worst:.2e} < 1e-5",
           worst < 1e-5)


def _reference_lm_loss_f64(model, ids: np.ndarray) -> float:
    """Independent f64 forward mirroring the model math, for FD oracles.

    The library runs everything in f32, so finite differences of its own
    loss drown in rounding noise (ulp(loss)/2h is about 1e-4). Re-deriving
    the same function in f64 keeps the FD estimate accurate while staying
    within ~1e-7 of the f32 forward at the evaluation point.
    """
    cfg = model.config
    p = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    B, S = ids.shape
    H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads

    def ln(x, g, b):
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(-1, keepdims=True)
        return xc / np.sqrt(var + LN_EPS) * g + b

    x = p["tok_embeddings.weight"][ids] + p["pos_embeddings.weight"][:S]
    keep = np.tril(np.ones((S, S), dtype=bool))
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}."
        h = ln(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        qkv = h @ p[pre + "attn.query_key_value.weight"] + p[pre + "attn.query_key_value.bias"]
        qkv = qkv.reshape(B, S, 3, H, hd).transpose(0, 3, 2, 1, 4)
        q, k, v = qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd)
        scores = np.where(keep, scores, -1e9)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        ctx = (e / e.sum(-1, keepdims=True)) @ v
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B, S, cfg.d_model)
        x = x + ctx @ p[pre + "attn.dense.weight"] + p[pre + "attn.dense.bias"]
        h = ln(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        u = h @ p[pre + "mlp.dense_h_to_4h.weight"] + p[pre + "mlp.dense_h_to_4h.bias"]
        u = u * 0.5 * (1.0 + np.vectorize(math.erf)(u / math.sqrt(2.0)))
        x = x + u @ p[pre + "mlp.dense_4h_to_h.weight"] + p[pre + "mlp.dense_4h_to_h.bias"]
    x = ln(x, p["ln_f.gain"], p["ln_f.bias"])
    logits = x @ p["tok_embeddings.weight"].T

    z = logits[:, :-1].reshape(-1, cfg.vocab_size)
    t = ids[:, 1:].reshape(-1)
    lse = np.log(np.exp(z - z.max(-1, keepdims=True)).sum(-1)) + z.max(-1)
    return float((lse - z[np.arange(len(t)), t]).mean())


def test_criterion_03_gradient_correctness():
    cfg = micro_config()
    model = init_model(cfg, RngState(3))
    n_params = parameter_count(cfg)
    assert n_params <= 5000
    ids = rand_ids(np.random.default_rng(2), 2, 12, cfg.vocab_size)
    loss = model.lm_loss(ids, ids)
    assert abs(float(loss.data) - _reference_lm_loss_f64(model, ids)) < 1e-5
    T.backward(loss)

    worst = 0.0
    for p in model.params.values():
        def f():
            return _reference_lm_loss_f64(model, ids)
        num = numeric_grad(f, p.data, h=1e-3)
        worst = max(worst, relative_grad_error(p.grad, num))
    report(3, f"autodiff vs central differences on {n_params} params, "
              f"max rel err {worst:.2e} < 1e-3", worst < 1e-3)


def test_criterion_04_frozen_base_audit(desk_run, desk_config):
    trainer = desk_run["trainer"]
    trainer.audit_frozen()  # raises on any changed frozen byte
    s = trainable_summary(desk_run["model"])
    d = desk_config.d_model
    per_block = 32 * ((d + 3 * d) + (d + d) + (d + 4 * d) + (4 * d + d))
    want = desk_config.n_layers * per_block
    total = parameter_count(desk_config) + want
    ok = (s["trainable_count"] == want and s["total_count"] == total
          and s["ratio"] == want / total)
    report(4, f"frozen base unchanged; trainable count {s['trainable_count']} "
              f"matches closed form {want}", ok)


def test_criterion_05_scheduler_exactness():
    cfg = TrainConfig(output_dir="unused")
    w = math.ceil(0.03 * 60)
    ok = (lr_at_step(cfg, 0) == 1e-4 and lr_at_step(cfg, 1) == 2e-4
          and abs(lr_at_step(cfg, 60)) < 1e-19)
    for s in range(61):
        if s < w:
            want = 2e-4 * (s + 1) / w
        else:
            want = 2e-4 * 0.5 * (1 + math.cos(math.pi * (s - w) / (60 - w)))
        ulp = float(np.spacing(np.float32(abs(want)))) if want else 1e-19
        ok = ok and abs(lr_at_step(cfg, s) - want) <= ulp
    report(5, "lr(0)=1e-4, lr(1)=2e-4, lr(60)=0; 61-point curve at f32 ulp", ok)


def test_criterion_06_training_trend(desk_run, examples):
    trainer = desk_run["trainer"]
    assert len(examples) >= 135
    steps = [r.step for r in trainer.metrics]
    losses = {r.step: r.training_loss for r in trainer.metrics}
    checkpoints = [s for s in range(10, 61, 10)
                   if os.path.exists(os.path.join(
                       trainer.config.output_dir, f"checkpoint-{s}", "state.pfwa"))]
    ok = (steps == [10, 20, 30, 40, 50, 60]
          and losses[60] < losses[10]
          and len(checkpoints) == 6
          and desk_run["wall"] < 120.0)
    report(6, f"loss {losses[10]:.4f} -> {losses[60]:.4f} over 60 steps, "
              f"6 checkpoints, {desk_run['wall']:.1f}s < 2min", ok)


def test_criterion_07_checkpoint_determinism(tmp_path, desk_config, examples, tok):
    def fresh():
        m = init_model(desk_config, RngState(7))
        attach_lora(m, desk_lora_config(), RngState(8))
        return m

    straight = Trainer(fresh(), examples[:40],
                       TrainConfig(output_dir=str(tmp_path / "a")), tok.specials.pad)
    straight.train()
    p1 = str(tmp_path / "final_a.pfwa")
    save_adapter(straight.model, p1)

    first = Trainer(fresh(), examples[:40],
                    TrainConfig(output_dir=str(tmp_path / "b")), tok.specials.pad)
    first.train(stop_after=30)
    second = Trainer(fresh(), examples[:40],
                     TrainConfig(output_dir=str(tmp_path / "c")), tok.specials.pad)
    second.resume(str(tmp_path / "b" / "checkpoint-30" / "state.pfwa"))
    second.train()
    p2 = str(tmp_path / "final_b.pfwa")
    save_adapter(second.model, p2)

    ok = open(p1, "rb").read() == open(p2, "rb").read()
    report(7, "straight 60-step and 30+resume+30 archives byte-identical", ok)


def test_criterion_08_nf4_quantization(desk_config):
    book = build_nf4_codebook()
    ok = book[0] == -1.0 and book[15] == 1.0 and book[8] == 0.0

    rng = np.random.default_rng(8)
    w = rng.normal(0.0, 0.02, size=100_000).astype(np.float32)
    q = quantize_blockwise(w, QuantConfig(block_size=64, double_quant=False))
    scales = np.repeat(q.scales, 64)[: w.size]
    bound = scales * (np.diff(book).max() / 2.0) + 1e-7
    ok = ok and bool(np.all(np.abs(dequantize_blockwise(q) - w) <= bound))

    dq = quantize_blockwise(w[:64 * 256 * 6], QuantConfig())  # defaults: 64 / dq 256
    ok = ok and payload_bits_per_weight(dq) == 4.0 + 8.0 / 64.0 + 64.0 / 16384.0

    # the path that runs: a quantized base holds the dequantized weights, and
    # its linears are tensor.linear on them
    model = quantize_base(init_model(desk_config, RngState(8)), QuantConfig())
    for lin in model.linears():
        w = dequantize_blockwise(lin.qweight)
        ok = ok and lin.weight.data.tobytes() == w.tobytes()
        x = rng.normal(0, 1, size=(4, lin.d_in)).astype(np.float32)
        ok = ok and bool(np.array_equal(T.linear(T.Tensor(x), lin.weight).data, x @ w))
    report(8, "NF4 endpoints/zero exact, round-trip bound on 1e5 weights, "
              "footprint 4+8/64+64/16384, quantized base forward bitwise", ok)


def test_criterion_09_paging_transparency(tmp_path, desk_config, examples, tok):
    def run(optim, budget):
        m = init_model(desk_config, RngState(7))
        attach_lora(m, desk_lora_config(), RngState(8))
        cfg = TrainConfig(output_dir=str(tmp_path / optim), max_steps=20,
                          optim=optim, paging_budget=budget)
        tr = Trainer(m, examples[:40], cfg, tok.specials.pad)
        tr.train()
        return m, tr

    plain, _ = run("adamw_32bit", 8)
    paged, tr = run("paged_adamw_32bit", 1)
    ok = tr.optimizer.evictions > 0 and all(
        np.array_equal(plain.params[n].data, paged.params[n].data)
        for n in plain.params)
    report(9, f"paged AdamW (budget 1, {tr.optimizer.evictions} evictions) "
              "bitwise equals unpaged", ok)


def test_criterion_10_metrics_correctness():
    from tinypeft.corpus import TrainingExample
    from tinypeft.evals import bleu, classification_metrics, rouge_l

    f1 = classification_metrics(["x", "x", "y"], ["x", "x", "x"])["per_label"]["x"]["f1"]
    refs = ["the quick brown fox jumps over the lazy dog"]
    b = bleu(refs, refs)
    r = rouge_l(["a b c d"], ["a c d"])

    model = init_model(micro_config(vocab_size=32), RngState(0))
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    ppl = perplexity(model, [TrainingExample([1, 2, 3], [-1, 2, 3])], pad_id=0)

    ok = (abs(f1 - 0.8) < 1e-12 and abs(b - 1.0) < 1e-12
          and abs(r - 6 / 7) < 1e-9 and abs(ppl - 32.0) < 32.0 * 1e-5)
    report(10, f"F1=0.8, BLEU=1.0, ROUGE-L=6/7, uniform ppl={ppl:.4f}=vocab", ok)


def test_criterion_11_end_to_end_comparison(desk_run, tok):
    base = desk_run["base"]
    adapted = desk_run["model"]
    text = compare_base_vs_adapted(base, adapted, tok,
                                   ["What is an Index?"],
                                   eval_examples=desk_run["holdout"],
                                   max_new_tokens=8)
    ppl_base = perplexity(base, desk_run["holdout"], tok.specials.pad)
    ppl_adapted = perplexity(adapted, desk_run["holdout"], tok.specials.pad)
    ok = (ppl_adapted < ppl_base
          and "Answer the following question truthfully." in text
          and "Finetuning PEFT Model Response:" in text)
    report(11, f"held-out ppl {ppl_adapted:.1f} < base {ppl_base:.1f}; "
               "prompt template rendered verbatim", ok)


def test_criterion_12_sweep_determinism():
    space = {"learning_rate": [1e-4, 2e-4], "epochs": [10, 20]}

    def stub(overrides):
        return overrides["learning_rate"] * overrides["epochs"]

    grid = hyperparameter_search(space, stub, "grid")
    r1 = hyperparameter_search(space, stub, "random", budget=5, seed=3)
    r2 = hyperparameter_search(space, stub, "random", budget=5, seed=3)
    ok = (len(grid) == 4
          and {tuple(sorted(t.overrides.items())) for t in grid} == {
              (("epochs", e), ("learning_rate", lr))
              for lr in (1e-4, 2e-4) for e in (10, 20)}
          and [t.overrides for t in r1] == [t.overrides for t in r2])
    report(12, "grid 2x2 yields 4 trials; seeded random search reproduces", ok)
