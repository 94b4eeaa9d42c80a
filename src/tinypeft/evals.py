"""Quantitative evaluation: perplexity, exact match, precision/recall/F1,
corpus BLEU, ROUGE-L, likelihood classification, and the side-by-side
base-vs-adapted comparison report.

Generation-quality criteria without a formula are operationalized as exact
match after normalization (generation accuracy) and likelihood
classification (prediction accuracy); both mappings are stated in the
report header. ``perplexity`` and ``classify_by_likelihood`` fold an attached
LoRA adapter once per call, keeping no state (``CausalLM.folded``).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .bpe import TokenizerModel
from .corpus import DEFAULT_INFER_TEMPLATE, IGNORE_LABEL, TrainingExample, normalize_text
from .errors import ConfigError, DataError, ShapeError
from .model import CausalLM
from .trainer import collate

MAX_NEW_TOKENS = 48  # the decode length of ``generate`` and ``compare`` by default
METRIC_NOTES = {
    "sentence_generation_accuracy": "operationalized as exact match after normalization",
    "financial_prediction_accuracy": "operationalized as likelihood classification accuracy",
}


@dataclass
class EvalReport:
    """A metric that was not computed is None (JSON null) with a ``notes``
    entry saying why, never 0.0."""

    perplexity: float
    exact_match: float | None
    per_label: dict
    macro: dict
    bleu: float | None
    rouge_l: float | None
    n_examples: int
    notes: dict = field(default_factory=lambda: dict(METRIC_NOTES))

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, ensure_ascii=False)


# -- perplexity --------------------------------------------------------------


def perplexity(model: CausalLM, examples: list[TrainingExample], pad_id: int) -> float:
    """exp(total NLL over unmasked tokens / unmasked token count)."""
    if not examples:
        raise DataError("perplexity needs a non-empty eval set")
    total_nll = 0.0
    total_tok = 0
    with model.folded():
        for ex in examples:
            ids, labels = collate([ex], pad_id)
            n = int((labels[:, 1:] != IGNORE_LABEL).sum())
            if n == 0:
                continue
            loss = model.lm_loss(ids, labels)
            total_nll += loss.item() * n
            total_tok += n
    if total_tok == 0:
        raise ShapeError("perplexity: zero unmasked tokens in eval set")
    return float(math.exp(total_nll / total_tok))


# -- classification ----------------------------------------------------------


def classification_metrics(gold: list[str], pred: list[str],
                           label_set: list[str] | None = None) -> dict:
    """Per-label and macro precision/recall/F1; 0/0 conventions give 0."""
    if len(gold) != len(pred):
        raise ShapeError(f"gold length {len(gold)} != pred length {len(pred)}")
    labels = sorted(label_set) if label_set else sorted(set(gold) | set(pred))
    known = set(labels)
    for seq, kind in ((gold, "gold"), (pred, "pred")):
        for x in seq:
            if x not in known:
                raise DataError(f"unknown {kind} label {x!r}")
    per_label = {}
    for lab in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == lab and p == lab)
        fp = sum(1 for g, p in zip(gold, pred) if g != lab and p == lab)
        fn = sum(1 for g, p in zip(gold, pred) if g == lab and p != lab)
        tn = len(gold) - tp - fp - fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_label[lab] = {
            "tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": prec, "recall": rec, "f1": f1,
        }
    macro = {
        k: sum(per_label[lab][k] for lab in labels) / len(labels) if labels else 0.0
        for k in ("precision", "recall", "f1")
    }
    return {"per_label": per_label, "macro": macro}


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.float64)
    m = z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z - m).sum(axis=-1, keepdims=True)) - m


def classify_by_likelihood(model: CausalLM, tokenizer: TokenizerModel,
                           prompt: str, label_set: list[str]) -> str:
    """Pick the label whose tokens are the most likely continuation.

    Score is the mean per-token log-likelihood; ties go to the
    lexicographically smaller label. ``BOS + prompt`` is encoded once into
    a key/value cache, whose last row scores every label's first token;
    each label's remaining tokens run from a copy of that cache.
    """
    if not label_set:
        raise ConfigError("label_set must be non-empty")
    head = [tokenizer.specials.bos] + tokenizer.tokenize(prompt)
    labels = []
    for label in sorted(label_set):
        lab_ids = tokenizer.tokenize(label)
        if not lab_ids:
            raise ConfigError(f"label {label!r} tokenizes to nothing")
        if len(head) + len(lab_ids) > model.config.seq_len:
            raise DataError(f"prompt + label exceeds context ({len(head) + len(lab_ids)} tokens)")
        labels.append((label, lab_ids))
    best_label, best_score = None, None
    with model.folded():
        cache = [[] for _ in model.blocks]
        first = _log_softmax(model.forward_logits(np.asarray([head]), cache=cache,
                                                  from_row=len(head) - 1).data[0, -1])
        for label, lab_ids in labels:
            logps = [first[lab_ids[0]]]
            if len(lab_ids) > 1:
                # attention rebinds a cache's entries rather than writing
                # into them, so a shallow copy leaves the prompt's cache intact
                z = model.forward_logits(np.asarray([lab_ids[:-1]]),
                                         cache=[list(c) for c in cache]).data[0]
                logp = _log_softmax(z)
                logps += [logp[t, lab_ids[t + 1]] for t in range(len(lab_ids) - 1)]
            score = float(np.mean(logps))
            if best_score is None or score > best_score:
                best_label, best_score = label, score
    return best_label


# -- BLEU / ROUGE ------------------------------------------------------------


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: list[str], references: list[str]) -> float:
    """Corpus BLEU, n-grams 1..4, clipped precision, add-one smoothing on
    zero counts, brevity penalty exp(1 - r/c) for short candidates."""
    if len(candidates) != len(references):
        raise ShapeError(f"{len(candidates)} candidates vs {len(references)} references")
    cand_toks = [normalize_text(c).split() for c in candidates]
    ref_toks = [normalize_text(r).split() for r in references]
    c_len = sum(len(t) for t in cand_toks)
    r_len = sum(len(t) for t in ref_toks)
    log_sum = 0.0
    for n in range(1, 5):
        match = 0
        total = 0
        for ct, rt in zip(cand_toks, ref_toks):
            cg, rg = _ngrams(ct, n), _ngrams(rt, n)
            match += sum(min(cnt, rg[g]) for g, cnt in cg.items())
            total += max(0, len(ct) - n + 1)
        if total == 0 or match == 0:
            match, total = match + 1, total + 1
        log_sum += math.log(match / total)
    geo = math.exp(log_sum / 4.0)
    if c_len == 0:
        return 0.0
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * geo


def rouge_l(candidates: list[str], references: list[str]) -> float:
    """Mean ROUGE-L F1 (beta=1) over pairs; LCS via dynamic programming."""
    if len(candidates) != len(references):
        raise ShapeError(f"{len(candidates)} candidates vs {len(references)} references")
    scores = []
    for cand, ref in zip(candidates, references):
        ct = normalize_text(cand).split()
        rt = normalize_text(ref).split()
        if not ct and not rt:
            scores.append(0.0)
            continue
        if not ct or not rt:
            scores.append(0.0)
            continue
        lcs = _lcs_len(ct, rt)
        p, r = lcs / len(ct), lcs / len(rt)
        scores.append(2 * p * r / (p + r) if p + r else 0.0)
    return float(np.mean(scores)) if scores else 0.0


def _lcs_len(a: list[str], b: list[str]) -> int:
    dp = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, 1):
            cur = dp[j]
            dp[j] = prev + 1 if x == y else max(dp[j], dp[j - 1])
            prev = cur
    return dp[len(b)]


def exact_match(candidates: list[str], references: list[str]) -> float:
    if len(candidates) != len(references):
        raise ShapeError(f"{len(candidates)} candidates vs {len(references)}")
    if not candidates:
        return 0.0
    hits = sum(
        1 for c, r in zip(candidates, references)
        if normalize_text(c) == normalize_text(r)
    )
    return hits / len(candidates)


# -- reports -----------------------------------------------------------------


def eval_report(model: CausalLM, tokenizer: TokenizerModel,
                examples: list[TrainingExample],
                candidates: list[str] | None = None,
                references: list[str] | None = None,
                gold_labels: list[str] | None = None,
                pred_labels: list[str] | None = None) -> EvalReport:
    ppl = perplexity(model, examples, tokenizer.specials.pad)
    notes = dict(METRIC_NOTES)
    cand, refs = candidates or [], references or []
    if not cand:
        notes["exact_match"] = notes["bleu"] = notes["rouge_l"] = \
            "null: no generated answers were given to score"
    if gold_labels:
        cls = classification_metrics(gold_labels, pred_labels or [])
    else:
        cls = {"per_label": {}, "macro": {"precision": None, "recall": None, "f1": None}}
        notes["macro"] = "null: no gold and predicted labels were given to score"
    return EvalReport(
        perplexity=ppl,
        exact_match=exact_match(cand, refs) if cand else None,
        per_label=cls["per_label"],
        macro=cls["macro"],
        bleu=bleu(cand, refs) if cand else None,
        rouge_l=rouge_l(cand, refs) if cand else None,
        n_examples=len(examples),
        notes=notes,
    )


def compare_base_vs_adapted(
    base: CausalLM,
    adapted: CausalLM,
    tokenizer: TokenizerModel,
    questions: list[str],
    eval_examples: list[TrainingExample] | None = None,
    max_new_tokens: int = MAX_NEW_TOKENS,
) -> str:
    """Side-by-side generations plus per-model perplexity, labeled the way
    the original walkthrough prints them. ``adapted`` is ``base`` with an
    adapter attached, so both read the one tokenizer."""
    sp = tokenizer.specials
    lines: list[str] = []
    for q in questions:
        prompt = DEFAULT_INFER_TEMPLATE.format(question=q)
        prompt_ids = [sp.bos] + tokenizer.tokenize(prompt)
        for label, mdl in (("Pre-trained Original Model Response:", base),
                           ("Finetuning PEFT Model Response:", adapted)):
            out = mdl.generate(prompt_ids, max_new_tokens, mode="greedy", eos_id=sp.eos)
            completion = tokenizer.detokenize(out[len(prompt_ids):])
            lines.append("-----")
            lines.append(label)
            lines.append(prompt + completion)
            lines.append("")
    if eval_examples:
        ppl_base = perplexity(base, eval_examples, sp.pad)
        ppl_adapted = perplexity(adapted, eval_examples, sp.pad)
        lines.append("-----")
        lines.append(f"Base model perplexity: {ppl_base:.4f}")
        lines.append(f"Adapted model perplexity: {ppl_adapted:.4f}")
    return "\n".join(lines)
