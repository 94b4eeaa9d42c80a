"""The loss reads only the scored rows: ``lm_loss`` against the full-row loss,
and ``perplexity`` against the per-example loop.

``lm_loss`` asks the forward for the rows from the first scored position of
the batch on. ``full_row_loss`` is the loss as it was before that cut: the
logits of every position, then cross-entropy over all next-token targets.
The rows the cut drops carry no label, so loss and gradients agree up to
rounding, and an unmasked batch (from_row 0) takes the same path bitwise.

``perplexity`` encodes the prefix its scored examples share once, then
scores them ``SCORE_ROWS`` to a forward from that prefix's key/value cache.
``reference_perplexity`` is the loop it replaced, one ``lm_loss`` per
example; the two agree within rounding on every kind of set, and a set that
shares no more than BOS runs the loop's own forwards, so bit for bit.
"""

import math
import os

import numpy as np
import pytest

from tinypeft import tensor as T
from tinypeft.corpus import IGNORE_LABEL, TrainingExample, build_examples
from tinypeft.errors import ShapeError
from tinypeft.evals import SCORE_ROWS, perplexity
from tinypeft.model import CausalLM, CausalLMConfig, init_model
from tinypeft.peft import (
    BottleneckAdapterConfig,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    quantize_base,
)
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.tensor import backward
from tinypeft.trainer import collate

from conftest import lora_pairs

METHODS = ["full", "lora", "qlora", "bottleneck"]


def full_row_loss(model, input_ids, labels, training=False, rng=None):
    logits = model.forward_logits(input_ids, training=training, rng=rng, from_row=0)
    return T.cross_entropy(logits, np.asarray(labels)[:, 1:], ignore_index=IGNORE_LABEL)


def build(method: str, vocab_size: int) -> CausalLM:
    cfg = CausalLMConfig(vocab_size=vocab_size, d_model=32, n_heads=4, n_layers=2,
                         seq_len=128)
    model = init_model(cfg, RngState(4))
    if method == "qlora":
        quantize_base(model, QuantConfig())
    if method == "bottleneck":
        attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=8), RngState(5))
        zero_init = [p for n, p in model.params.items() if n.endswith("up.weight")]
    elif method != "full":
        attach_lora(model, LoraConfig(r=4, alpha=8.0, dropout=0.0), RngState(5))
        zero_init = [a.B for a in lora_pairs(model)]
    else:
        zero_init = []
    rng = np.random.default_rng(6)
    for p in zero_init:  # so the adapters change the loss and get a gradient
        p.data = rng.normal(0.0, 0.1, p.shape).astype(np.float32)
    return model


def loss_and_grads(model, loss_fn, ids, labels):
    params = model.trainable_parameters()
    loss = loss_fn(model, ids, labels, training=True, rng=RngState(7))
    backward(loss)
    grads = {p.name: p.grad.copy() for p in params}
    for p in params:
        p.grad = None
    return loss.item(), grads


def uneven_batch(examples, pad_id):
    """Two prompt-masked examples whose prompts differ in length."""
    firsts = [int(np.argmax(np.asarray(e.labels) != IGNORE_LABEL)) for e in examples]
    i = int(np.argmin(firsts))
    j = next(k for k in range(len(examples)) if firsts[k] > firsts[i] + 4)
    ids, labels = collate([examples[j], examples[i]], pad_id)
    return ids, labels, min(firsts[i], firsts[j]) - 1


@pytest.mark.parametrize("method", METHODS)
def test_masked_batch_loss_and_gradients_match_full_rows(method, tok, examples):
    model = build(method, tok.vocab_size)
    ids, labels, from_row = uneven_batch(examples, tok.specials.pad)
    assert from_row > 0
    got_loss, got = loss_and_grads(model, CausalLM.lm_loss, ids, labels)
    want_loss, want = loss_and_grads(model, full_row_loss, ids, labels)
    assert got_loss == pytest.approx(want_loss, rel=1e-6, abs=0)
    assert got.keys() == want.keys() and got
    for name, g in want.items():
        scale = max(float(np.abs(g).max()), 1e-12)
        assert np.abs(got[name] - g).max() <= 1e-5 * scale, name


@pytest.mark.parametrize("method", METHODS)
def test_unmasked_batch_is_bitwise_the_full_rows(method, tok, examples):
    model = build(method, tok.vocab_size)
    ids, _ = collate(examples[:2], tok.specials.pad)
    labels = ids.copy()
    labels[0, -3:] = IGNORE_LABEL  # the end of a row may be padding; its start is scored
    got_loss, got = loss_and_grads(model, CausalLM.lm_loss, ids, labels)
    want_loss, want = loss_and_grads(model, full_row_loss, ids, labels)
    assert np.float32(got_loss).tobytes() == np.float32(want_loss).tobytes()
    assert {n: g.tobytes() for n, g in got.items()} == {n: g.tobytes() for n, g in want.items()}


def test_forward_returns_the_rows_from_from_row(tok, examples):
    model = build("lora", tok.vocab_size)
    ids, _ = collate(examples[:2], tok.specials.pad)
    S = ids.shape[1]
    with T.no_grad():
        full = model.forward_logits(ids).data
        cut = model.forward_logits(ids, from_row=S // 2).data
    assert cut.shape == (2, S - S // 2, tok.vocab_size)
    assert np.abs(cut - full[:, S // 2:]).max() <= 1e-5 * np.abs(full).max()
    for bad in (-1, S):
        with pytest.raises(ShapeError, match="from_row"):
            model.forward_logits(ids, from_row=bad)


def test_all_masked_batch_still_raises(tok, examples):
    model = build("full", tok.vocab_size)
    ids, _ = collate(examples[:2], tok.specials.pad)
    with pytest.raises(ShapeError, match="masked"):
        model.lm_loss(ids, np.full(ids.shape, IGNORE_LABEL))


def reference_perplexity(model, examples, pad_id, loss=CausalLM.lm_loss) -> float:
    """``evals.perplexity`` as one forward per example: exp of the mean of
    each scored example's ``loss``, weighted by its scored token count."""
    nll, count = 0.0, 0
    with model.folded():
        for ex in examples:
            ids, labels = collate([ex], pad_id)
            n = int((labels[:, 1:] != IGNORE_LABEL).sum())
            if n:
                nll += loss(model, ids, labels).item() * n
                count += n
    return math.exp(nll / count)


def shared_prefix(examples) -> int:
    """The leading ids common to every scored example, cut at the first
    scored position of any."""
    scored = [e for e in examples if any(t != IGNORE_LABEL for t in e.labels[1:])]
    firsts = [next(i for i, t in enumerate(e.labels[1:]) if t != IGNORE_LABEL) for e in scored]
    return min([len(os.path.commonprefix([e.input_ids for e in scored]))] + firsts)


@pytest.fixture(scope="module")
def oracle_sets(qa_pairs, tok, examples):
    """Eval sets with a template prefix, with BOS alone shared, with nothing
    shared, with one example, with a count SCORE_ROWS does not divide, and
    with an example that scores nothing and shares no prefix mixed in."""
    unscored = TrainingExample(examples[0].input_ids[::-1], [IGNORE_LABEL] * examples[0].length)
    return {
        "template": examples,
        "question_first": build_examples(qa_pairs, tok, template="{question}\n: {answer}")[0],
        "unmasked": build_examples(qa_pairs, tok, mask_prompt=False)[0],
        "single": examples[5:6],
        "odd_count": examples[:2 * SCORE_ROWS + 1],
        "unscored_mixed_in": examples[:3] + [unscored] + examples[3:6],
    }


def test_oracle_sets_cover_each_kind_of_prefix(oracle_sets):
    P = {name: shared_prefix(exs) for name, exs in oracle_sets.items()}
    assert (P["template"], P["question_first"], P["unmasked"]) == (25, 1, 0)
    assert P["single"] == shared_prefix(oracle_sets["single"] * 2) > P["template"]
    assert len(oracle_sets["odd_count"]) % SCORE_ROWS
    assert P["unscored_mixed_in"] == P["template"]


@pytest.mark.parametrize("method", METHODS)
def test_perplexity_matches_the_per_example_loop(method, tok, oracle_sets):
    model = build(method, tok.vocab_size)
    for name, exs in oracle_sets.items():
        got = perplexity(model, exs, tok.specials.pad)
        want = reference_perplexity(model, exs, tok.specials.pad)
        assert got == pytest.approx(want, rel=1e-6, abs=0), name
        if shared_prefix(exs) < 2:
            assert got == want, name


def test_shared_prefix_is_encoded_once(tok, examples, monkeypatch):
    """One forward encodes the prefix into an empty cache; every later one
    starts from its P cached positions, SCORE_ROWS examples at a time."""
    model = build("lora", tok.vocab_size)
    calls, forward = [], CausalLM.forward_logits

    def recording(self, input_ids, *args, cache=None, **kwargs):
        calls.append((np.shape(input_ids), cache[0][0].shape[2] if cache and cache[0] else 0))
        return forward(self, input_ids, *args, cache=cache, **kwargs)

    monkeypatch.setattr(CausalLM, "forward_logits", recording)
    P = shared_prefix(examples)
    for _ in range(2):
        calls.clear()
        perplexity(model, examples, tok.specials.pad)
        assert calls[0] == ((1, P), 0)
        assert [past for _, past in calls[1:]] == [P] * math.ceil(len(examples) / SCORE_ROWS)
        assert sum(shape[0] for shape, _ in calls[1:]) == len(examples)


@pytest.mark.parametrize("method", ["full", "lora"])
def test_perplexity_matches_full_rows(method, tok, examples):
    model = build(method, tok.vocab_size)
    got = perplexity(model, examples[:12], tok.specials.pad)
    want = reference_perplexity(model, examples[:12], tok.specials.pad, loss=full_row_loss)
    assert got == pytest.approx(want, rel=1e-6, abs=0)
