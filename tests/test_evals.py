"""Metric oracles: BLEU/ROUGE worked examples, perplexity on a degenerate
model, likelihood classification, the eval report's decoded answers, and
the comparison report."""

import json

import numpy as np
import pytest

from tinypeft.bpe import train_bpe
from tinypeft.corpus import IGNORE_LABEL, QAPair, TrainingExample, build_examples
from tinypeft import tensor as T
from tinypeft.errors import ConfigError, DataError
from tinypeft.evals import (
    EvalReport,
    bleu,
    classify_by_likelihood,
    compare_base_vs_adapted,
    eval_report,
    exact_match,
    perplexity,
    rouge_l,
)
from tinypeft.model import CausalLM, CausalLMConfig, init_model
from tinypeft.rng import RngState

from conftest import micro_config


# -- BLEU / ROUGE -------------------------------------------------------------


def test_bleu_identical_corpus_is_one():
    refs = ["the market closed higher today on strong earnings",
            "interest rates remained unchanged across the quarter"]
    assert bleu(refs, refs) == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_vocab_near_zero():
    cand = ["alpha " * 30]
    ref = ["omega " * 30]
    assert bleu(cand, ref) < 0.05


def test_bleu_brevity_penalty():
    # perfect prefix of half the reference length: precisions 1, BP = e^-1
    cand = ["a b c d"]
    ref = ["a b c d e f g h"]
    got = bleu(cand, ref)
    assert got == pytest.approx(np.exp(1 - 8 / 4), rel=1e-6)


def test_bleu_hand_worked_unigram_case():
    # cand "a a b" vs ref "a b": clipped 1-grams 2/3; 2-grams 1/2; the
    # 3-gram count exists (total 1) but matches 0, so smoothing gives 1/2;
    # 4-grams are absent entirely and smooth to 1/1. No BP since c=3 > r=2.
    want = (2 / 3 * 1 / 2 * 1 / 2 * 1) ** 0.25
    assert bleu(["a a b"], ["a b"]) == pytest.approx(want, rel=1e-9)


def test_bleu_permutation_invariance_of_corpus_order():
    c = ["one two three", "four five six seven"]
    r = ["one two four", "four five six eight"]
    assert bleu(c, r) == bleu(list(reversed(c)), list(reversed(r)))


def test_rouge_l_worked_example():
    # LCS("a b c d", "a c d") = 3; P=3/4, R=1, F1 = 6/7
    assert rouge_l(["a b c d"], ["a c d"]) == pytest.approx(6 / 7, abs=1e-9)


def test_rouge_l_is_mean_over_pairs():
    a = rouge_l(["a b"], ["a b"])
    b = rouge_l(["x"], ["y"])
    both = rouge_l(["a b", "x"], ["a b", "y"])
    assert both == pytest.approx((a + b) / 2, abs=1e-12)


def test_rouge_empty_sides():
    assert rouge_l([""], ["a b"]) == 0.0
    assert rouge_l(["a"], [""]) == 0.0


def test_exact_match_normalizes():
    assert exact_match(["Hello   world"], ["Hello world"]) == 1.0
    assert exact_match(["a", "b"], ["a", "c"]) == 0.5


# -- perplexity ---------------------------------------------------------------


def test_perplexity_uniform_model_equals_vocab():
    model = init_model(micro_config(vocab_size=32), RngState(0))
    for p in model.params.values():
        p.data = np.zeros_like(p.data)  # all-zero net emits uniform logits
    ex = [TrainingExample([1, 2, 3, 4], [-1, 2, 3, 4])]
    got = perplexity(model, ex, pad_id=0)
    assert got == pytest.approx(32.0, rel=1e-5)


def test_perplexity_is_token_weighted():
    model = init_model(micro_config(vocab_size=32), RngState(1))
    a = TrainingExample([1, 2], [-1, 2])
    b = TrainingExample([3, 4, 5, 6, 7, 8], [-1, 4, 5, 6, 7, 8])
    both = perplexity(model, [a, b], pad_id=0)
    # oracle: exp of token-count-weighted mean of the per-example NLLs
    nll_a = np.log(perplexity(model, [a], 0))
    nll_b = np.log(perplexity(model, [b], 0))
    want = np.exp((1 * nll_a + 5 * nll_b) / 6)
    assert both == pytest.approx(want, rel=1e-6)


def test_perplexity_empty_raises():
    model = init_model(micro_config(), RngState(0))
    with pytest.raises(Exception):
        perplexity(model, [], pad_id=0)


# -- likelihood classification ------------------------------------------------


def reference_classify(model, tok, prompt, label_set):
    """One full forward of BOS + prompt + label per label, the scoring the
    prompt cache replaced; the same mean log-likelihood and tie rule."""
    prompt_ids = tok.tokenize(prompt)
    best_label, best_score = None, None
    for label in sorted(label_set):
        seq = [tok.specials.bos] + prompt_ids + tok.tokenize(label)
        with T.no_grad():
            z = model.forward_logits(np.asarray([seq])).data[0].astype(np.float64)
        m = z.max(-1, keepdims=True)
        logp = z - np.log(np.exp(z - m).sum(-1, keepdims=True)) - m
        start = 1 + len(prompt_ids)
        score = float(np.mean([logp[t - 1, seq[t]] for t in range(start, len(seq))]))
        if best_score is None or score > best_score:
            best_label, best_score = label, score
    return best_label


def test_classify_by_likelihood_picks_forced_label():
    tok = train_bpe(["up down sideways market"], 280)
    cfg = micro_config(vocab_size=tok.vocab_size)
    cfg.seq_len = 64
    model = init_model(cfg, RngState(2))
    pred = classify_by_likelihood(model, tok, "market went ", ["up", "down"])
    assert pred in ("up", "down")
    assert pred == reference_classify(model, tok, "market went ", ["up", "down"])


CLS_SEQ_LEN = 24


@pytest.fixture(scope="module")
def cls_tok():
    return train_bpe(["up upside uptick down downturn flat market rally "
                      "the market went up then down"], 300)


def sharp_classifier(tok, seed):
    """Weight matrices scaled x8, so label scores are far apart and a pick
    is not decided by rounding."""
    cfg = CausalLMConfig(vocab_size=tok.vocab_size, d_model=16, n_heads=2,
                         n_layers=2, seq_len=CLS_SEQ_LEN)
    model = init_model(cfg, RngState(seed))
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = p.data * np.float32(8.0)
    return model


LABEL_SETS = {
    "single-token": ["a", "b", "x", "up"],
    "shared-prefix": ["up", "upside", "uptick", "down", "downturn"],
    "mixed": ["flat", "up", "rally", "b"],
}


@pytest.mark.parametrize("labels", list(LABEL_SETS), ids=list(LABEL_SETS))
def test_prompt_cache_picks_like_a_forward_per_label(cls_tok, labels):
    label_set = LABEL_SETS[labels]
    picks = []
    for seed in range(8):
        model = sharp_classifier(cls_tok, seed)
        for prompt in ("market went ", "the market went up then ", "x"):
            want = reference_classify(model, cls_tok, prompt, label_set)
            assert classify_by_likelihood(model, cls_tok, prompt, label_set) == want
            picks.append(want)
    assert len(set(picks)) > 1  # the models disagree, so the picks test something


def test_label_set_at_the_context_edge(cls_tok):
    label_set = ["downturn", "up", "upside"]
    longest = max(len(cls_tok.tokenize(lab)) for lab in label_set)
    prompt = "market went "
    while 1 + len(cls_tok.tokenize(prompt)) + longest < CLS_SEQ_LEN:
        prompt += "x"  # one byte token each: "x" takes part in no merge
    assert 1 + len(cls_tok.tokenize(prompt)) + longest == CLS_SEQ_LEN
    for seed in range(4):
        model = sharp_classifier(cls_tok, seed)
        assert classify_by_likelihood(model, cls_tok, prompt, label_set) \
            == reference_classify(model, cls_tok, prompt, label_set)
    with pytest.raises(DataError):
        classify_by_likelihood(model, cls_tok, prompt + " ", label_set)


def test_prompt_is_encoded_once_per_classification(cls_tok, monkeypatch):
    model = sharp_classifier(cls_tok, 0)
    positions = []
    forward = model.forward_logits

    def counting(ids, *args, **kwargs):
        positions.append(np.asarray(ids).size)
        return forward(ids, *args, **kwargs)

    monkeypatch.setattr(model, "forward_logits", counting)
    prompt = "market went "
    classify_by_likelihood(model, cls_tok, prompt, ["upside", "up", "down"])
    # the prompt once, then each label but its last token; "up" is one token
    head = 1 + len(cls_tok.tokenize(prompt))
    assert positions == [head, len(cls_tok.tokenize("down")) - 1,
                         len(cls_tok.tokenize("upside")) - 1]


def test_classify_ties_go_to_the_smaller_label(cls_tok):
    model = sharp_classifier(cls_tok, 0)
    for p in model.params.values():
        p.data = np.zeros_like(p.data)  # uniform logits: every label scores the same
    assert classify_by_likelihood(model, cls_tok, "market went ", ["up", "down", "b"]) == "b"


def test_classify_empty_labels_raises():
    tok = train_bpe(["x"], 259)
    model = init_model(micro_config(vocab_size=tok.vocab_size), RngState(0))
    with pytest.raises(ConfigError):
        classify_by_likelihood(model, tok, "p", [])


# -- reports ------------------------------------------------------------------


@pytest.fixture(scope="module")
def report_setup():
    tok = train_bpe(["what is a bond? a debt security. what is cash? money."], 300)
    cfg = micro_config(vocab_size=tok.vocab_size)
    cfg.seq_len = 64
    model = init_model(cfg, RngState(3))
    pairs = [QAPair("what is a bond?", "a debt security.")]
    ex, _ = build_examples(pairs, tok, seq_len=64)
    return tok, model, ex


def test_eval_report_fields(report_setup, monkeypatch):
    tok, model, ex = report_setup
    (e,) = ex
    n_prompt = e.labels.count(IGNORE_LABEL)
    calls = []

    def echo(self, prompt_ids, max_new_tokens, **kw):
        """Answer with the example's own ids after the prompt."""
        calls.append((list(prompt_ids), max_new_tokens, kw))
        return list(prompt_ids) + e.input_ids[len(prompt_ids):]

    monkeypatch.setattr(CausalLM, "generate", echo)
    rep = eval_report(model, tok, ex)
    assert isinstance(rep, EvalReport)
    assert calls == [(e.input_ids[:n_prompt], len(e.input_ids) - n_prompt + 1,
                      {"eos_id": tok.specials.eos})]
    assert rep.exact_match == 1.0 and rep.rouge_l == 1.0
    assert rep.bleu == pytest.approx(1.0)
    assert rep.n_examples == 1 and rep.perplexity == perplexity(model, ex, tok.specials.pad)
    assert rep.notes == {"sentence_generation_accuracy":
                         "operationalized as exact match after normalization"}
    doc = json.loads(rep.to_json())
    assert doc == {"perplexity": rep.perplexity, "exact_match": 1.0, "bleu": rep.bleu,
                   "rouge_l": 1.0, "n_examples": 1, "notes": rep.notes}


def test_compare_report_layout(report_setup):
    tok, model, ex = report_setup
    cfg2 = micro_config(vocab_size=tok.vocab_size)
    cfg2.seq_len = 64
    other = init_model(cfg2, RngState(4))
    text = compare_base_vs_adapted(model, other, tok, ["what is a bond?"],
                                   eval_examples=ex, max_new_tokens=4)
    assert "Pre-trained Original Model Response:" in text
    assert "Finetuning PEFT Model Response:" in text
    assert "Answer the following question truthfully." in text
    assert "Base model perplexity:" in text
    assert "Adapted model perplexity:" in text
    assert text.count("-----") == 3  # two generations + the metrics block
