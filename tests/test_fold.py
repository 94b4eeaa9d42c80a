"""Inference on folded LoRA weights, against the merged model and against
the unfolded path.

``generate``, ``perplexity`` and ``classify_by_likelihood`` run inside
``CausalLM.folded``, on every LoRA pair folded into its weight with the fold
``merge_lora`` applies. So an attached adapter must give its merge's outputs
bit for bit. The unfolded path, which runs the LoRA branch in every forward,
stays the reference: ``unfolded_perplexity`` here, ``reference_generate``
from test_decode and ``reference_classify`` from test_evals. For a
bottleneck adapter the fold is a no-op. After a call, or an error inside
one, every weight array and adapter must be back.
"""

import copy
import math

import numpy as np
import pytest

from tinypeft import tensor as T
from tinypeft.bpe import train_bpe
from tinypeft.corpus import IGNORE_LABEL, TrainingExample
from tinypeft.errors import DataError
from tinypeft.evals import classify_by_likelihood, perplexity
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
from tinypeft.trainer import TrainConfig, Trainer, collate

from conftest import lora_pairs
from test_decode import PROMPTS, WINDOW, reference_generate
from test_evals import LABEL_SETS, reference_classify

KINDS = ["lora", "qlora", "adapter"]
PAD = 0
DECODES = [dict(mode="greedy"),
           dict(mode="temperature", temperature=0.9),
           dict(mode="temperature", temperature=0.9, top_k=5)]
CLASSIFY_PROMPTS = ["market went ", "the market went up then ", "x"]


@pytest.fixture(scope="module")
def tok():
    return train_bpe(["up upside uptick down downturn flat market rally "
                      "the market went up then down"], 300)


def build(tok, kind: str):
    """A x8-scaled base, as test_decode's sharp model, with an adapter whose
    zero-initialized half is given values so that it changes the logits."""
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=16, n_heads=2, n_layers=2,
                         seq_len=WINDOW + 1)
    model = init_model(cfg, RngState(5))
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = p.data * np.float32(8.0)
    if kind == "qlora":
        quantize_base(model, QuantConfig())
    if kind == "adapter":
        attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=4), RngState(6))
        grown = [p for n, p in model.params.items() if n.endswith("up.weight")]
    else:
        attach_lora(model, LoraConfig(r=4, alpha=8.0), RngState(6))
        grown = [a.B for a in lora_pairs(model)]
    rng = np.random.default_rng(7)
    for p in grown:
        p.data = rng.normal(0.0, 0.3, p.shape).astype(np.float32)
    return model


def merge_of(model, kind: str):
    """A merged copy; a bottleneck adapter has no merge, so its copy as is."""
    twin = copy.deepcopy(model)
    return twin if kind == "adapter" else merge_lora(twin)


def examples(vocab: int) -> list[TrainingExample]:
    rng = np.random.default_rng(8)
    out = []
    for n, masked in ((24, 6), (9, 0), (17, 16), (5, 2), (24, 0), (12, 11)):
        ids = [int(t) for t in rng.integers(0, vocab, n)]
        out.append(TrainingExample(ids, [IGNORE_LABEL] * masked + ids[masked:]))
    return out


def unfolded_perplexity(model, exs) -> float:
    """``evals.perplexity`` without the fold: every forward runs the LoRA branch."""
    nll, count = 0.0, 0
    with T.no_grad():
        for ex in exs:
            ids, labels = collate([ex], PAD)
            n = int((labels[:, 1:] != IGNORE_LABEL).sum())
            nll += model.lm_loss(ids, labels).item() * n
            count += n
    return math.exp(nll / count)


def prompt(vocab: int, length: int) -> list[int]:
    return [int(t) for t in np.random.default_rng(length).integers(0, vocab, length)]


@pytest.mark.parametrize("kind", KINDS)
def test_attached_inference_is_its_merge_bit_for_bit(tok, kind):
    model = build(tok, kind)
    twin = merge_of(model, kind)
    exs = examples(tok.vocab_size)
    ids = np.asarray([prompt(tok.vocab_size, WINDOW + 1)])
    with model.folded():
        got = model.forward_logits(ids).data
    with T.no_grad():
        want = twin.forward_logits(ids).data
    assert got.tobytes() == want.tobytes()
    assert perplexity(model, exs, PAD) == perplexity(twin, exs, PAD)
    for labels in LABEL_SETS.values():
        for text in CLASSIFY_PROMPTS:
            assert (classify_by_likelihood(model, tok, text, labels)
                    == classify_by_likelihood(twin, tok, text, labels))
    for length in PROMPTS:
        p = prompt(tok.vocab_size, length)
        for kw in DECODES:
            assert (model.generate(p, 16, rng=RngState(11), **kw)
                    == twin.generate(p, 16, rng=RngState(11), **kw))


@pytest.mark.parametrize("kind", KINDS)
def test_folded_inference_is_within_rounding_of_the_unfolded_path(tok, kind):
    model = build(tok, kind)
    exs = examples(tok.vocab_size)
    want = unfolded_perplexity(model, exs)
    got = perplexity(model, exs, PAD)
    assert got == pytest.approx(want, rel=1e-6)
    if kind == "adapter":
        assert got == want  # nothing to fold
    for labels in LABEL_SETS.values():
        for text in CLASSIFY_PROMPTS:
            assert (classify_by_likelihood(model, tok, text, labels)
                    == reference_classify(model, tok, text, labels))
    for length in PROMPTS:
        p = prompt(tok.vocab_size, length)
        for kw in DECODES:
            assert (model.generate(p, 16, rng=RngState(11), **kw)
                    == reference_generate(model, p, 16, rng=RngState(11), **kw))


@pytest.mark.parametrize("kind", KINDS)
def test_fold_keeps_no_state(tok, kind):
    model = build(tok, kind)
    before = [(lin.weight.data, lin.weight.data.tobytes(), lin.adapter)
              for lin in model.linears()]
    adapted = [a is not None for _, _, a in before]
    assert any(adapted) == (kind != "adapter")

    def restored() -> bool:
        return all(lin.weight.data is w and w.tobytes() == raw and lin.adapter is a
                   for lin, (w, raw, a) in zip(model.linears(), before))

    perplexity(model, examples(tok.vocab_size), PAD)
    assert restored()
    classify_by_likelihood(model, tok, "market went ", ["up", "down"])
    assert restored()
    model.generate(prompt(tok.vocab_size, 3), 8)
    assert restored()
    with pytest.raises(DataError):  # an out-of-range prompt id, raised inside the fold
        model.generate([1, tok.vocab_size], 4)
    assert restored()
    with pytest.raises(RuntimeError):
        with model.folded():
            assert not T._grad_enabled
            for lin, (w, _, _), lora in zip(model.linears(), before, adapted):
                assert lin.adapter is None
                assert (lin.weight.data is w) != lora
            raise RuntimeError("inside the fold")
    assert restored() and T._grad_enabled


@pytest.mark.parametrize("kind", KINDS)
def test_perplexity_between_steps_changes_no_training_bit(tmp_path, tok, kind):
    exs = examples(tok.vocab_size)

    def run(name: str, evaluate: bool) -> Trainer:
        tr = Trainer(build(tok, kind), exs, TrainConfig(output_dir=str(tmp_path / name)),
                     PAD)
        tr.train_step()
        if evaluate:
            perplexity(tr.model, exs, PAD)
        tr.train_step()
        tr.audit_frozen()
        return tr

    plain, evaluated = run("plain", False), run("evaluated", True)
    assert ({n: p.data.tobytes() for n, p in plain.model.params.items()}
            == {n: p.data.tobytes() for n, p in evaluated.model.params.items()})
    assert ({n: a.tobytes() for n, a in plain.optimizer.state_tensors().items()}
            == {n: a.tobytes() for n, a in evaluated.optimizer.state_tensors().items()})
