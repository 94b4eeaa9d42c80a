"""Scheduler closed forms, accumulation equivalence, deterministic resume,
paging transparency, and search determinism."""

import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from tinypeft import trainer as trainer_mod
from tinypeft.bpe import train_bpe
from tinypeft.corpus import QAPair, build_examples
from tinypeft.errors import ConfigError, DataError, NumericError, StateError
from tinypeft.model import init_model
from tinypeft.peft import LoraConfig, attach_lora, quantize_base
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.store import load_archive, save_archive
from tinypeft.trainer import (
    TrainConfig,
    Trainer,
    _epoch_permutation,
    collate,
    hyperparameter_search,
    lr_at_step,
)

from conftest import micro_config


@pytest.fixture(scope="module")
def tiny_tok():
    return train_bpe(["what is margin? borrowed funds for trading. "
                      "what is yield? income return on investment."], 300)


@pytest.fixture(scope="module")
def tiny_data(tiny_tok):
    pairs = [QAPair(f"what is item {i}?", f"item {i} is a sample entry.")
             for i in range(12)]
    ex, _ = build_examples(pairs, tiny_tok, template="{question} {answer}",
                           seq_len=64)
    assert len(ex) == 12
    return ex


def train_model_config(vocab_size):
    cfg = micro_config(vocab_size)
    cfg.seq_len = 64
    return cfg


def make_trainer(tmp_path, tiny_data, tiny_tok, seed=0, **over):
    model = init_model(train_model_config(tiny_tok.vocab_size), RngState(seed))
    cfg = TrainConfig(output_dir=str(tmp_path / over.pop("run", "run")),
                      max_steps=over.pop("max_steps", 8), **over)
    return Trainer(model, tiny_data, cfg, tiny_tok.specials.pad)


# -- scheduler ----------------------------------------------------------------


def test_lr_defaults_match_published_run():
    cfg = TrainConfig(output_dir="unused")
    assert (cfg.per_device_train_batch_size, cfg.gradient_accumulation_steps) == (2, 2)
    assert (cfg.save_steps, cfg.logging_steps, cfg.max_steps) == (10, 10, 60)
    assert cfg.learning_rate == 2e-4 and cfg.max_grad_norm == 0.3
    assert cfg.warmup_ratio == 0.03 and cfg.lr_scheduler_type == "cosine"


def test_lr_closed_form_endpoints():
    cfg = TrainConfig(output_dir="unused")  # defaults: 60 steps, warmup 2
    assert lr_at_step(cfg, 0) == pytest.approx(1e-4, abs=0)
    assert lr_at_step(cfg, 1) == pytest.approx(2e-4, abs=0)
    assert lr_at_step(cfg, 60) == pytest.approx(0.0, abs=1e-20)


def test_lr_full_curve_closed_form():
    cfg = TrainConfig(output_dir="unused")
    w = math.ceil(0.03 * 60)  # 2 warmup steps
    for s in range(61):
        if s < w:
            want = 2e-4 * (s + 1) / w
        else:
            want = 2e-4 * 0.5 * (1 + math.cos(math.pi * (s - w) / (60 - w)))
        got = lr_at_step(cfg, s)
        assert abs(got - want) <= float(np.spacing(np.float32(abs(want) or 1e-20)))


def test_lr_constant_schedule():
    cfg = TrainConfig(output_dir="u", lr_scheduler_type="constant",
                      warmup_ratio=0.1, max_steps=20)
    assert lr_at_step(cfg, 0) < 2e-4  # still warming up (w = 2)
    assert all(lr_at_step(cfg, s) == 2e-4 for s in range(2, 21))


def test_lr_monotone_decay_after_warmup():
    cfg = TrainConfig(output_dir="u")
    curve = [lr_at_step(cfg, s) for s in range(2, 61)]
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_lr_out_of_range():
    cfg = TrainConfig(output_dir="u")
    with pytest.raises(ConfigError):
        lr_at_step(cfg, 61)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(output_dir="u", max_steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(output_dir="u", warmup_ratio=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(output_dir="u", optim="sgd")


# -- data order and collation -------------------------------------------------


def test_epoch_permutation_recomputable():
    np.testing.assert_array_equal(_epoch_permutation(5, 3, 50),
                                  _epoch_permutation(5, 3, 50))
    assert not np.array_equal(_epoch_permutation(5, 3, 50),
                              _epoch_permutation(5, 4, 50))


def test_collate_right_pads():
    from tinypeft.corpus import TrainingExample
    ex = [TrainingExample([1, 2, 3], [1, 2, 3]), TrainingExample([4], [-1])]
    ids, labels = collate(ex, pad_id=9)
    np.testing.assert_array_equal(ids, [[1, 2, 3], [4, 9, 9]])
    np.testing.assert_array_equal(labels, [[1, 2, 3], [-1, -1, -1]])


# -- training loop ------------------------------------------------------------


def test_loop_runs_and_logs(tmp_path, tiny_data, tiny_tok):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, max_steps=6,
                      logging_steps=2, save_steps=3)
    summary = tr.train()
    assert summary["global_step"] == 6
    assert [r.step for r in tr.metrics] == [2, 4, 6]
    assert os.path.exists(tmp_path / "run" / "metrics.jsonl")
    assert os.path.exists(tmp_path / "run" / "checkpoint-3" / "state.pfwa")
    assert os.path.exists(tmp_path / "run" / "checkpoint-6" / "state.pfwa")


def test_accumulation_equivalent_to_larger_batch(tmp_path, tiny_data, tiny_tok):
    """acc=2 with micro-batch 2 must match acc=1 with batch 4 closely.

    The comparison cannot be bitwise: the summed-loss gradients associate
    differently. 1e-6 relative on the weights after a few steps is the
    observed f32 agreement.
    """
    # equal token counts per example, otherwise the per-micro-batch means
    # weight tokens differently from one big mean and the runs split for real
    pairs = [QAPair(f"what is item {c}?", f"item {c} is a sample entry.")
             for c in "abcdefghijklmnopqrst"]
    built, _ = build_examples(pairs, tiny_tok, template="{question} {answer}",
                              seq_len=64)
    from collections import Counter
    mode = Counter(e.length for e in built).most_common(1)[0][0]
    data = [e for e in built if e.length == mode]
    assert len(data) >= 8

    def run(name, bs, acc):
        tr = make_trainer(tmp_path, data, tiny_tok, run=name, max_steps=3,
                          per_device_train_batch_size=bs,
                          gradient_accumulation_steps=acc, save_steps=100)
        tr.train()
        return np.concatenate([p.data.ravel() for p in tr.model.params.values()])

    a = run("acc", 2, 2)
    b = run("big", 4, 1)
    err = np.abs(a - b).max() / max(np.abs(b).max(), 1e-9)
    assert err < 1e-6


def test_same_seed_bitwise_reproducible(tmp_path, tiny_data, tiny_tok):
    def run(name):
        tr = make_trainer(tmp_path, tiny_data, tiny_tok, run=name, max_steps=5)
        tr.train()
        return {n: p.data.copy() for n, p in tr.model.params.items()}

    a, b = run("r1"), run("r2")
    for n in a:
        np.testing.assert_array_equal(a[n], b[n])


def test_split_run_resume_bitwise(tmp_path, tiny_data, tiny_tok):
    straight = make_trainer(tmp_path, tiny_data, tiny_tok, run="straight",
                            max_steps=8, save_steps=4)
    straight.train()

    first = make_trainer(tmp_path, tiny_data, tiny_tok, run="first",
                         max_steps=8, save_steps=4)
    first.train(stop_after=4)
    second = make_trainer(tmp_path, tiny_data, tiny_tok, run="second",
                          max_steps=8, save_steps=4)
    second.resume(str(tmp_path / "first" / "checkpoint-4" / "state.pfwa"))
    second.train()

    for n, p in straight.model.params.items():
        np.testing.assert_array_equal(p.data, second.model.params[n].data)


def test_resume_past_budget_warns_and_noops(tmp_path, tiny_data, tiny_tok, caplog):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, run="done", max_steps=4,
                      save_steps=4)
    tr.train()
    again = make_trainer(tmp_path, tiny_data, tiny_tok, run="again", max_steps=4,
                         save_steps=4)
    again.resume(str(tmp_path / "done" / "checkpoint-4" / "state.pfwa"))
    with caplog.at_level("WARNING"):
        again.train()
    assert again.global_step == 4
    assert any("nothing to" in r.message for r in caplog.records)


def test_resume_rejects_corrupt_checkpoint(tmp_path, tiny_data, tiny_tok):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, run="c", max_steps=2,
                      save_steps=2)
    tr.train()
    ck = tmp_path / "c" / "checkpoint-2" / "state.pfwa"
    body = bytearray(ck.read_bytes())
    body[100] ^= 0xFF
    ck.write_bytes(bytes(body))
    fresh = make_trainer(tmp_path, tiny_data, tiny_tok, run="c2", max_steps=2)
    with pytest.raises(DataError, match="checksum"):
        fresh.resume(str(ck))


def test_paged_run_bitwise_equals_unpaged(tmp_path, tiny_data, tiny_tok):
    plain = make_trainer(tmp_path, tiny_data, tiny_tok, run="plain", max_steps=6,
                         save_steps=100)
    plain.train()
    paged = make_trainer(tmp_path, tiny_data, tiny_tok, run="paged", max_steps=6,
                         save_steps=100, optim="paged_adamw_32bit", paging_budget=1)
    paged.train()
    assert paged.optimizer.evictions > 0
    for n, p in plain.model.params.items():
        np.testing.assert_array_equal(p.data, paged.model.params[n].data)


def test_paged_checkpoint_bitwise_equals_unpaged(tmp_path, tiny_data, tiny_tok):
    """A paged run's checkpoint, whose evicted moments come straight from
    the slab, holds the unpaged run's tensors bit for bit."""
    def checkpoint(run, **over):
        tr = make_trainer(tmp_path, tiny_data, tiny_tok, run=run, max_steps=4,
                          save_steps=2, **over)
        tr.train()
        return tr, load_archive(str(tmp_path / run / "checkpoint-4" / "state.pfwa"))[0]

    _, plain = checkpoint("plain")
    paged_tr, paged = checkpoint("paged", optim="paged_adamw_32bit", paging_budget=1)
    assert paged_tr.optimizer.evictions > 0
    assert {n: a.tobytes() for n, a in paged.items()} == {
        n: a.tobytes() for n, a in plain.items()}


def test_paged_checkpoint_copies_no_evicted_page(tmp_path, tiny_data, tiny_tok):
    """With all pages but one evicted, saving a checkpoint allocates less than
    one evicted page, the token embedding's moments: the save streams every
    tensor, moments included, from its own buffer. (Most of what it does
    allocate is the JSON encoding of the manifest.)"""
    cfg = train_model_config(tiny_tok.vocab_size)
    cfg.d_model, cfg.n_heads, cfg.n_layers = 128, 4, 1
    model = init_model(cfg, RngState(0))
    tr = Trainer(model, tiny_data, TrainConfig(output_dir=str(tmp_path / "run"), max_steps=2,
                                               save_steps=100, optim="paged_adamw_32bit",
                                               paging_budget=1), tiny_tok.specials.pad)
    tr.train()
    pages = tr.optimizer.pages
    emb = "tok_embeddings.weight"
    assert emb in model.params and emb not in pages.resident
    page_bytes = 2 * model.params[emb].data.nbytes
    assert page_bytes > 250_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr.save_checkpoint()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < page_bytes
    tensors, _ = load_archive(str(tmp_path / "run" / "checkpoint-2" / "state.pfwa"))
    m, v = pages.flush()[emb]
    assert tensors[f"optim.m.{emb}"].tobytes() == m.tobytes()
    assert tensors[f"optim.v.{emb}"].tobytes() == v.tobytes()


def test_paged_split_resume_bitwise_equals_straight_paged(tmp_path, tiny_data, tiny_tok):
    paged = dict(max_steps=8, save_steps=4, optim="paged_adamw_32bit", paging_budget=2)
    straight = make_trainer(tmp_path, tiny_data, tiny_tok, run="straight", **paged)
    straight.train()

    first = make_trainer(tmp_path, tiny_data, tiny_tok, run="split", **paged)
    first.train(stop_after=4)
    # same output_dir: the second run makes its own slab while the first is alive
    second = make_trainer(tmp_path, tiny_data, tiny_tok, run="split", **paged)
    second.resume(str(tmp_path / "split" / "checkpoint-4" / "state.pfwa"))
    second.train()

    for n, p in straight.model.params.items():
        np.testing.assert_array_equal(p.data, second.model.params[n].data)
    a, b = straight.optimizer.state_tensors(), second.optimizer.state_tensors()
    assert set(a) == set(b)
    for n in a:
        assert a[n].tobytes() == b[n].tobytes()


def test_paged_run_ignores_an_earlier_runs_pages(tmp_path, tiny_data, tiny_tok):
    """An earlier paged run in the same output_dir leaves its pages behind;
    the next run's checkpoint must carry exactly its own moments."""
    lora = init_model(train_model_config(tiny_tok.vocab_size), RngState(0))
    attach_lora(lora, LoraConfig(r=2, dropout=0.0), RngState(1))
    out = str(tmp_path / "run")
    cfg = dict(output_dir=out, max_steps=2, save_steps=100,
               optim="paged_adamw_32bit", paging_budget=1)
    Trainer(lora, tiny_data, TrainConfig(**cfg), tiny_tok.specials.pad).train()

    full = make_trainer(tmp_path, tiny_data, tiny_tok, max_steps=2, save_steps=2,
                        optim="paged_adamw_32bit", paging_budget=1)
    full.train()
    tensors, _ = load_archive(str(tmp_path / "run" / "checkpoint-2" / "state.pfwa"))
    own = {p.name for p in full.model.trainable_parameters()}
    assert {k for k in tensors if k.startswith("optim.")} == (
        {f"optim.m.{n}" for n in own} | {f"optim.v.{n}" for n in own})


def test_metrics_record_paging_evictions(tmp_path, tiny_data, tiny_tok):
    def records(run, **over):
        tr = make_trainer(tmp_path, tiny_data, tiny_tok, run=run, max_steps=4,
                          logging_steps=2, save_steps=100, **over)
        tr.train()
        with open(tmp_path / run / "metrics.jsonl") as f:
            return tr, [json.loads(line) for line in f]

    _, plain = records("plain")
    assert [r["paging_evictions"] for r in plain] == [0, 0]
    tr, paged = records("paged", optim="paged_adamw_32bit", paging_budget=1)
    # budget 1: every parameter's get misses and evicts once per step
    per_window = 2 * len(tr.optimizer.params)
    assert [r["paging_evictions"] for r in paged] == [per_window, per_window]
    assert [r.paging_evictions for r in tr.metrics] == [per_window, per_window]


def test_nonfinite_gradient_stops_the_step(tmp_path, tiny_data, tiny_tok, monkeypatch):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, max_steps=6, logging_steps=1,
                      save_steps=2)
    tr.train(stop_after=2)
    run_dir = tmp_path / "run"
    files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    weights = {n: p.data.tobytes() for n, p in tr.model.params.items()}
    moments = {n: a.tobytes() for n, a in tr.optimizer.state_tensors().items()}

    real_backward = trainer_mod.backward

    def poisoned(loss, scale):
        real_backward(loss, scale)
        tr.model.params["blocks.1.attn.dense.weight"].grad[0, 0] = np.nan

    monkeypatch.setattr(trainer_mod, "backward", poisoned)
    with pytest.raises(NumericError, match=r"step 3: .*'blocks\.1\.attn\.dense\.weight'"):
        tr.train()
    assert tr.global_step == 2 and tr.optimizer.step_count == 2
    assert {n: p.data.tobytes() for n, p in tr.model.params.items()} == weights
    assert {n: a.tobytes() for n, a in tr.optimizer.state_tensors().items()} == moments
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == files


def lora_trainer(tmp_path, tiny_data, tiny_tok, run, quantized=False, **over):
    model = init_model(train_model_config(tiny_tok.vocab_size), RngState(0))
    if quantized:
        quantize_base(model, QuantConfig(block_size=16))
    attach_lora(model, LoraConfig(r=2, dropout=0.0), RngState(1))
    cfg = TrainConfig(output_dir=str(tmp_path / run), **over)
    return Trainer(model, tiny_data, cfg, tiny_tok.specials.pad)


def test_frozen_audit_passes_on_lora_run(tmp_path, tiny_data, tiny_tok):
    tr = lora_trainer(tmp_path, tiny_data, tiny_tok, "lora", max_steps=4, save_steps=100)
    tr.train()  # audit_frozen runs inside and must not raise
    tr.audit_frozen()


@pytest.mark.parametrize("name", ["blocks.1.mlp.dense_4h_to_h.weight",
                                  "blocks.0.attn.query_key_value.bias"])
def test_frozen_audit_names_a_flipped_byte(tmp_path, tiny_data, tiny_tok, name):
    tr = lora_trainer(tmp_path, tiny_data, tiny_tok, "lora", max_steps=2, save_steps=100)
    tr.train()
    p = tr.model.params[name]
    assert not p.requires_grad
    raw = p.data.view(np.uint8).reshape(-1)
    raw[5] ^= 0x01
    with pytest.raises(StateError, match=rf"frozen parameter '{re.escape(name)}' changed"):
        tr.audit_frozen()
    raw[5] ^= 0x01
    tr.audit_frozen()


def test_frozen_audit_passes_on_qlora_and_resumed_runs(tmp_path, tiny_data, tiny_tok):
    opts = dict(max_steps=4, save_steps=2)
    lora_trainer(tmp_path, tiny_data, tiny_tok, "qlora", quantized=True, **opts).train()
    lora_trainer(tmp_path, tiny_data, tiny_tok, "first", **opts).train(stop_after=2)
    resumed = lora_trainer(tmp_path, tiny_data, tiny_tok, "second", **opts)
    resumed.resume(str(tmp_path / "first" / "checkpoint-2" / "state.pfwa"))
    resumed.train()  # each train() ends with audit_frozen
    assert resumed.global_step == 4


def test_unwritable_output_dir_fails_early(tiny_data, tiny_tok):
    model = init_model(train_model_config(tiny_tok.vocab_size), RngState(0))
    cfg = TrainConfig(output_dir="/proc/nope", max_steps=2)
    with pytest.raises(DataError, match="writable|output_dir"):
        Trainer(model, tiny_data, cfg, tiny_tok.specials.pad)


def test_loss_decreases_on_tiny_run(tmp_path, tiny_data, tiny_tok):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, run="down", max_steps=30,
                      logging_steps=10, save_steps=100)
    tr.train()
    losses = [r.training_loss for r in tr.metrics]
    assert losses[-1] < losses[0]


# -- hyperparameter search ----------------------------------------------------


def test_grid_search_enumerates_product():
    space = {"learning_rate": [1e-4, 2e-4], "max_steps": [10, 20]}
    seen = []
    trials = hyperparameter_search(space, lambda o: seen.append(dict(o)) or
                                   o["learning_rate"] * o["max_steps"], "grid")
    assert len(trials) == 4
    assert {tuple(sorted(t.overrides.items())) for t in trials} == {
        (("learning_rate", lr), ("max_steps", ms))
        for lr in (1e-4, 2e-4) for ms in (10, 20)
    }
    # ascending objective, ties by index
    objs = [t.objective for t in trials]
    assert objs == sorted(objs)


def test_random_search_reproducible():
    space = {"learning_rate": [1e-4, 2e-4, 3e-4], "max_steps": [10, 20]}

    def run(seed):
        return [t.overrides for t in hyperparameter_search(
            space, lambda o: 0.0, "random", budget=6, seed=seed)]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_search_validation():
    with pytest.raises(ConfigError):
        hyperparameter_search({}, lambda o: 0.0)
    with pytest.raises(ConfigError):
        hyperparameter_search({"a": [1]}, lambda o: 0.0, "random", budget=0)
    with pytest.raises(ConfigError):
        hyperparameter_search({"a": [1]}, lambda o: 0.0, "annealing")


def test_search_runs_real_trials(tmp_path, tiny_data, tiny_tok):
    # one tiny end-to-end sweep: the objective is the final mean loss
    def run_trial(overrides):
        tr = make_trainer(tmp_path, tiny_data, tiny_tok,
                          run=f"t{overrides['learning_rate']}",
                          max_steps=2, save_steps=100, **overrides)
        return tr.train()["training_loss"]

    trials = hyperparameter_search({"learning_rate": [1e-4, 1e-3]}, run_trial, "grid")
    assert len(trials) == 2 and all(np.isfinite(t.objective) for t in trials)


def test_resume_rejects_misshaped_model_tensor_untouched(tmp_path, tiny_data, tiny_tok):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, run="src", max_steps=2, save_steps=2)
    tr.train()
    tensors, meta = load_archive(str(tmp_path / "src" / "checkpoint-2" / "state.pfwa"))
    key = "model.blocks.0.attn.dense.weight"
    tensors[key] = tensors[key][:, :1].copy()  # (8, 8) -> (8, 1)
    bad = str(tmp_path / "bad.pfwa")
    save_archive(bad, tensors, meta)
    fresh = make_trainer(tmp_path, tiny_data, tiny_tok, run="dst", max_steps=4)
    before = {n: p.data.tobytes() for n, p in fresh.model.params.items()}
    with pytest.raises(DataError, match=r"bad\.pfwa.*'model\.blocks\.0\.attn\.dense\.weight'"):
        fresh.resume(bad)
    assert {n: p.data.tobytes() for n, p in fresh.model.params.items()} == before
    assert fresh.global_step == 0



def trainer_state(tr):
    """Everything resume may assign, as bytes and plain values."""
    return ({n: p.data.tobytes() for n, p in tr.model.params.items()},
            {n: a.tobytes() for n, a in tr.optimizer.state_tensors().items()},
            tr.optimizer.step_count, tr.global_step, tr.epoch, tr.offset,
            tr.rng.get_state(), list(tr.step_losses), tr.window)


@pytest.mark.parametrize("field,value", [
    ("seed", 9), ("per_device_train_batch_size", 4), ("gradient_accumulation_steps", 1),
    ("max_steps", 40), ("epochs", 2), ("learning_rate", 1.0), ("warmup_ratio", 0.5),
    ("lr_scheduler_type", "constant"), ("max_grad_norm", 1.0), ("weight_decay", 0.1)])
def test_resume_refuses_another_trajectory_untouched(tmp_path, tiny_data, tiny_tok,
                                                     field, value):
    assert field in trainer_mod.TRAJECTORY_FIELDS
    opts = dict(max_steps=4, save_steps=2)
    make_trainer(tmp_path, tiny_data, tiny_tok, run="src", **opts).train(stop_after=2)
    ck = str(tmp_path / "src" / "checkpoint-2" / "state.pfwa")
    # make_trainer's own seed argument seeds the model, not the config
    model = init_model(train_model_config(tiny_tok.vocab_size), RngState(0))
    cfg = TrainConfig(output_dir=str(tmp_path / "dst"), **{**opts, field: value})
    other = Trainer(model, tiny_data, cfg, tiny_tok.specials.pad)
    before = trainer_state(other)
    with pytest.raises(DataError, match=rf"checkpoint-2/state\.pfwa: .*train_config {field} "):
        other.resume(ck)
    assert trainer_state(other) == before


@pytest.mark.parametrize("saved", [None, [], "x"])
def test_resume_needs_a_train_config_object(tmp_path, tiny_data, tiny_tok, saved):
    make_trainer(tmp_path, tiny_data, tiny_tok, run="src", max_steps=2, save_steps=2).train()
    ck = str(tmp_path / "src" / "checkpoint-2" / "state.pfwa")
    tensors, meta = load_archive(ck)
    meta.pop("train_config")
    if saved is not None:
        meta["train_config"] = saved
    save_archive(ck, tensors, meta)
    other = make_trainer(tmp_path, tiny_data, tiny_tok, run="dst", max_steps=2)
    before = trainer_state(other)
    with pytest.raises(DataError, match=r"state\.pfwa: checkpoint field 'train_config'"):
        other.resume(ck)
    assert trainer_state(other) == before


def test_resume_refuses_an_optimizer_step_count_off_the_global_step(tmp_path, tiny_data,
                                                                    tiny_tok):
    """Each step makes one optimizer update, so a checkpoint records no step
    count and resume takes global_step. An older checkpoint records the count:
    one that differs would resume with another step's bias correction, a
    DataError (exit 2) that names the file and both values, with nothing
    assigned; an equal one resumes."""
    make_trainer(tmp_path, tiny_data, tiny_tok, run="src", max_steps=2, save_steps=2).train()
    ck = str(tmp_path / "src" / "checkpoint-2" / "state.pfwa")
    tensors, meta = load_archive(ck)
    assert "optimizer_step_count" not in meta and meta["global_step"] == 2
    meta["optimizer_step_count"] = 7  # as an older checkpoint records it
    save_archive(ck, tensors, meta)
    other = make_trainer(tmp_path, tiny_data, tiny_tok, run="dst", max_steps=4)
    before = trainer_state(other)
    with pytest.raises(DataError, match=r"checkpoint-2/state\.pfwa: checkpoint field "
                                        r"'optimizer_step_count' is 7, but 'global_step' is 2"):
        other.resume(ck)
    assert trainer_state(other) == before
    meta["optimizer_step_count"] = 2
    save_archive(ck, tensors, meta)
    same = make_trainer(tmp_path, tiny_data, tiny_tok, run="same", max_steps=2)
    assert same.resume(ck).optimizer.step_count == 2


def test_resume_may_change_the_fields_off_the_trajectory(tmp_path, tiny_data, tiny_tok):
    opts = dict(max_steps=6, save_steps=2)
    straight = make_trainer(tmp_path, tiny_data, tiny_tok, run="straight", **opts)
    straight.train()
    make_trainer(tmp_path, tiny_data, tiny_tok, run="first", **opts).train(stop_after=2)
    second = make_trainer(tmp_path, tiny_data, tiny_tok, run="second", max_steps=6,
                          save_steps=5, logging_steps=1, optim="paged_adamw_32bit",
                          paging_budget=1)
    second.resume(str(tmp_path / "first" / "checkpoint-2" / "state.pfwa"))
    second.train()
    assert second.step_losses == straight.step_losses
    for n, p in straight.model.params.items():
        assert p.data.tobytes() == second.model.params[n].data.tobytes()


METRIC_FIELDS = {"step": int, "training_loss": float, "learning_rate": float,
                 "wall_ms": int, "paging_evictions": int, "grad_norm": float,
                 "clip_factor": float, "step_ms": float, "tokens_per_s": float,
                 "minor_faults": int}
# wall-clock fields and the fault count, which differ between any two runs
TIMING_FIELDS = {"wall_ms", "step_ms", "tokens_per_s", "minor_faults"}


def read_metrics(run_dir):
    with open(run_dir / "metrics.jsonl") as f:
        return [json.loads(line) for line in f]


def test_metrics_jsonl_schema_and_clip_fields(tmp_path, tiny_data, tiny_tok):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, max_steps=6, logging_steps=1,
                      save_steps=100, max_grad_norm=0.3)
    tr.train()
    rows = read_metrics(tmp_path / "run")
    assert [r["step"] for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        assert set(r) == set(METRIC_FIELDS)
        for name, kind in METRIC_FIELDS.items():
            assert type(r[name]) is kind, name
        norm, factor = r["grad_norm"], r["clip_factor"]
        assert math.isfinite(norm) and norm > 0.0
        if norm > 0.3 * (1.0 + 1e-6):
            assert factor == float(np.float32(0.3 / norm))
        else:
            assert factor == 1.0
    assert any(r["clip_factor"] < 1.0 for r in rows)
    assert [(m.grad_norm, m.clip_factor) for m in tr.metrics] == [
        (r["grad_norm"], r["clip_factor"]) for r in rows]


def test_metrics_fields_leave_training_bitwise_unchanged(tmp_path, tiny_data, tiny_tok,
                                                         monkeypatch):
    """The norm the log reads is the one clipping used: the weights equal a
    run that clips exactly as before the fields existed."""
    logged = make_trainer(tmp_path, tiny_data, tiny_tok, run="logged", max_steps=5)
    logged.train()

    def clip_only(params, max_norm, norm=None):
        return real_clip(params, max_norm)

    real_clip = trainer_mod.clip_global_norm
    monkeypatch.setattr(trainer_mod, "clip_global_norm", clip_only)
    plain = make_trainer(tmp_path, tiny_data, tiny_tok, run="plain", max_steps=5)
    plain.train()
    for n, p in plain.model.params.items():
        assert p.data.tobytes() == logged.model.params[n].data.tobytes()


def test_metrics_jsonl_fresh_run_truncates_and_resume_appends(tmp_path, tiny_data, tiny_tok):
    def without_wall(rows):
        return [{k: v for k, v in r.items() if k not in TIMING_FIELDS} for r in rows]

    opts = dict(max_steps=8, logging_steps=2, save_steps=4)
    for _ in range(2):  # two fresh runs into one output_dir
        make_trainer(tmp_path, tiny_data, tiny_tok, run="again", **opts).train()
    straight = without_wall(read_metrics(tmp_path / "again"))
    assert [r["step"] for r in straight] == [2, 4, 6, 8]

    first = make_trainer(tmp_path, tiny_data, tiny_tok, run="split", **opts)
    first.train(stop_after=4)
    second = make_trainer(tmp_path, tiny_data, tiny_tok, run="split", **opts)
    second.resume(str(tmp_path / "split" / "checkpoint-4" / "state.pfwa"))
    second.train()
    assert without_wall(read_metrics(tmp_path / "split")) == straight


def test_metrics_step_ms_and_tokens_per_s(tmp_path, tiny_data, tiny_tok):
    """Both are taken over the window's train_step calls: tokens_per_s times
    the window's step time gives back its non-pad input tokens."""
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, max_steps=6, logging_steps=2,
                      save_steps=100)
    counted = []
    lm_loss = tr.model.lm_loss

    def counting(ids, labels, **kw):
        counted.append(int((ids != tiny_tok.specials.pad).sum()))
        return lm_loss(ids, labels, **kw)

    tr.model.lm_loss = counting
    tr.train()
    rows = read_metrics(tmp_path / "run")
    per_window = 2 * tr.config.gradient_accumulation_steps
    for i, r in enumerate(rows):
        assert r["step_ms"] > 0.0 and r["tokens_per_s"] > 0.0
        tokens = sum(counted[i * per_window:(i + 1) * per_window])
        assert r["tokens_per_s"] * r["step_ms"] * 2 / 1000 == pytest.approx(tokens, rel=1e-9)
    assert [(m.step_ms, m.tokens_per_s) for m in tr.metrics] == [
        (r["step_ms"], r["tokens_per_s"]) for r in rows]


def test_logged_losses_survive_a_stop_and_a_resume_inside_a_window(tmp_path, tiny_data,
                                                                  tiny_tok):
    """A run stopped at step 6 (inside the window 5..8) and continued, or
    resumed from checkpoint-6, logs and sums up the straight run's losses."""
    opts = dict(max_steps=8, logging_steps=4, save_steps=3)

    def logged(run, tr):
        rows = read_metrics(tmp_path / run)
        return [(r["step"], r["training_loss"]) for r in rows], tr.summary()

    straight = make_trainer(tmp_path, tiny_data, tiny_tok, run="straight", **opts)
    straight.train()
    want = logged("straight", straight)
    assert [step for step, _ in want[0]] == [4, 8]

    split = make_trainer(tmp_path, tiny_data, tiny_tok, run="split", **opts)
    split.train(stop_after=6)
    split.train()
    assert logged("split", split) == want

    resumed = make_trainer(tmp_path, tiny_data, tiny_tok, run="resumed", **opts)
    resumed.resume(str(tmp_path / "split" / "checkpoint-6" / "state.pfwa"))
    resumed.train()
    rows, summary = logged("resumed", resumed)
    assert (rows, summary) == (want[0][1:], want[1])  # it appends from step 7 on
    for n, p in straight.model.params.items():
        assert p.data.tobytes() == resumed.model.params[n].data.tobytes()


def test_same_seed_runs_write_byte_identical_checkpoints(tmp_path, tiny_data, tiny_tok):
    """A checkpoint is a function of (seed, config, dataset): two LoRA runs
    with dropout into one output_dir write the same bytes at steps 2 and 4,
    while the window is open (it logs at step 4) and after it closed."""
    def run():
        model = init_model(train_model_config(tiny_tok.vocab_size), RngState(0))
        attach_lora(model, LoraConfig(r=2, dropout=0.1), RngState(1))
        cfg = TrainConfig(output_dir=str(tmp_path / "run"), max_steps=4, save_steps=2,
                          logging_steps=4)
        Trainer(model, tiny_data, cfg, tiny_tok.specials.pad).train()
        return [(tmp_path / "run" / f"checkpoint-{s}" / "state.pfwa").read_bytes()
                for s in (2, 4)]

    first = run()
    assert run() == first
    _, meta = load_archive(str(tmp_path / "run" / "checkpoint-2" / "state.pfwa"))
    assert meta["log_window"] == {"losses": meta["step_losses"], "evictions": 0}


def test_a_window_across_a_resume_is_timed_in_this_process(tmp_path, tiny_data, tiny_tok):
    """The window 5..8 resumed from checkpoint-6 keeps the losses of steps 5
    and 6, and its step_ms and tokens_per_s cover steps 7 and 8, the ones
    this process ran."""
    opts = dict(max_steps=8, logging_steps=4, save_steps=3)
    make_trainer(tmp_path, tiny_data, tiny_tok, run="first", **opts).train(stop_after=6)
    resumed = make_trainer(tmp_path, tiny_data, tiny_tok, run="resumed", **opts)
    resumed.resume(str(tmp_path / "first" / "checkpoint-6" / "state.pfwa"))
    w = resumed.window
    assert (len(w.losses), w.timed, w.seconds, w.tokens, w.faults) == (2, 0, 0.0, 0, 0)
    counted = []
    lm_loss = resumed.model.lm_loss

    def counting(ids, labels, **kw):
        counted.append(int((ids != tiny_tok.specials.pad).sum()))
        return lm_loss(ids, labels, **kw)

    resumed.model.lm_loss = counting
    resumed.train()
    rec = resumed.metrics[-1]
    assert rec.step == 8 and len(counted) == 2 * resumed.config.gradient_accumulation_steps
    assert rec.tokens_per_s * rec.step_ms * 2 / 1000 == pytest.approx(sum(counted), rel=1e-9)


def test_resume_from_a_checkpoint_with_the_window_timing(tmp_path, tiny_data, tiny_tok):
    """A checkpoint written when the window's wall time and tokens were saved
    still resumes, drops them, and logs what a straight run logs."""
    opts = dict(max_steps=8, logging_steps=4, save_steps=3)
    straight = make_trainer(tmp_path, tiny_data, tiny_tok, run="straight", **opts)
    straight.train()
    make_trainer(tmp_path, tiny_data, tiny_tok, run="old", **opts).train(stop_after=6)
    ck = str(tmp_path / "old" / "checkpoint-6" / "state.pfwa")
    tensors, meta = load_archive(ck)
    meta["log_window"].update(seconds=0.25, tokens=123)
    save_archive(ck, tensors, meta)
    resumed = make_trainer(tmp_path, tiny_data, tiny_tok, run="resumed", **opts)
    resumed.resume(ck)
    assert (resumed.window.seconds, resumed.window.tokens) == (0.0, 0)
    resumed.train()
    assert [(m.step, m.training_loss) for m in resumed.metrics] == [
        (m.step, m.training_loss) for m in straight.metrics[1:]]


def test_resume_from_a_checkpoint_without_the_loss_log(tmp_path, tiny_data, tiny_tok):
    tr = make_trainer(tmp_path, tiny_data, tiny_tok, run="old", max_steps=4,
                      logging_steps=4, save_steps=2)
    tr.train(stop_after=2)
    ck = str(tmp_path / "old" / "checkpoint-2" / "state.pfwa")
    tensors, meta = load_archive(ck)
    assert meta["step_losses"] == tr.step_losses and len(meta["log_window"]["losses"]) == 2
    for key in ("step_losses", "log_window"):
        del meta[key]
    save_archive(ck, tensors, meta)
    older = make_trainer(tmp_path, tiny_data, tiny_tok, run="old", max_steps=4,
                         logging_steps=4, save_steps=2)
    older.resume(ck)
    assert older.step_losses == [] and older.window.losses == []
    older.train()
    assert older.metrics[-1].training_loss == float(np.mean(older.step_losses))
    assert len(older.step_losses) == 2
    meta["log_window"] = {"losses": [], "unknown": 1}
    save_archive(ck, tensors, meta)
    with pytest.raises(DataError, match="loss log"):
        make_trainer(tmp_path, tiny_data, tiny_tok, run="old2", max_steps=4).resume(ck)
