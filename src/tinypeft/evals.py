"""Quantitative evaluation: perplexity, exact match, corpus BLEU, ROUGE-L,
likelihood classification, and the side-by-side base-vs-adapted comparison
report.

Generation accuracy, a criterion without a formula, is operationalized as
exact match after normalization; the mapping is stated in the report's
notes. ``perplexity`` and ``classify_by_likelihood`` fold an attached
LoRA adapter once per call, keeping no state (``CausalLM.folded``), and encode
what their sequences share once into a key/value cache: the prompt, or the
eval set's template prefix, after which ``perplexity`` scores the examples
``SCORE_ROWS`` rows per forward, within rounding of one forward each.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .bpe import TokenizerModel
from .corpus import DEFAULT_INFER_TEMPLATE, IGNORE_LABEL, TrainingExample, normalize_text
from .errors import ConfigError, DataError, ShapeError
from .model import CausalLM
from .trainer import collate

MAX_NEW_TOKENS = 48  # the decode length of ``generate`` and ``compare`` by default
SCORE_ROWS = 2  # examples per perplexity forward, chosen by measurement (CHANGES.md)
METRIC_NOTES = {
    "sentence_generation_accuracy": "operationalized as exact match after normalization",
}


@dataclass
class EvalReport:
    perplexity: float
    exact_match: float
    bleu: float
    rouge_l: float
    n_examples: int
    notes: dict = field(default_factory=lambda: dict(METRIC_NOTES))

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, ensure_ascii=False)


# -- perplexity --------------------------------------------------------------


def _scored(examples: list[TrainingExample]) -> list[tuple[int, TrainingExample]]:
    """(first scored position, example) of each example that scores a token:
    its ids up to and including that position are its prompt."""
    keeps = [(np.asarray(ex.labels[1:]) != IGNORE_LABEL, ex) for ex in examples]
    return [(int(keep.argmax()), ex) for keep, ex in keeps if keep.any()]


def perplexity(model: CausalLM, examples: list[TrainingExample], pad_id: int) -> float:
    """exp(total NLL over unmasked tokens / unmasked token count).

    P is the longest run of leading ids that every scored example shares,
    cut at the first scored position of any: on template-rendered data, the
    template's head. It is encoded once into a key/value cache; the examples
    then run in length order, ``SCORE_ROWS`` right-padded rows per forward,
    each from a copy of that cache and from its rows' first scored position.
    The result moves within rounding (~1e-7 relative) of one forward per
    example. A P of BOS alone or nothing saves no work, and batched rows
    alone run slower, so then each example runs alone without a cache and
    scores as ``lm_loss`` scores it, bit for bit.
    """
    if not examples:
        raise DataError("perplexity needs a non-empty eval set")
    scored = _scored(examples)
    if not scored:
        raise ShapeError("perplexity: zero unmasked tokens in eval set")
    head = scored[0][1].input_ids
    P = min(first for first, _ in scored)
    for _, ex in scored:
        P = next((i for i in range(P) if ex.input_ids[i] != head[i]), P)
    rows = SCORE_ROWS
    if P < 2:
        P, rows = 0, 1
    else:
        scored.sort(key=lambda s: s[1].length)  # so that a batch pads little
    total_nll = 0.0
    total_tok = 0
    with model.folded():
        prefix = [[] for _ in model.blocks]
        if P:
            model.forward_logits(np.asarray([head[:P]]), cache=prefix, from_row=P - 1)
        for i in range(0, len(scored), rows):
            batch = scored[i:i + rows]
            ids, labels = collate([ex for _, ex in batch], pad_id)
            start = min(first for first, _ in batch)
            targets = labels[:, start + 1:]
            n = int((targets != IGNORE_LABEL).sum())
            cache = [[np.repeat(a, len(batch), axis=0) for a in c] for c in prefix] if P else None
            logits = model.forward_logits(ids[:, P:], cache=cache, from_row=start - P)
            total_nll += T.cross_entropy(logits, targets, IGNORE_LABEL).item() * n
            total_tok += n
    return float(math.exp(total_nll / total_tok))


# -- classification ----------------------------------------------------------


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


def _answer(model: CausalLM, tokenizer: TokenizerModel, prompt_ids: list[int],
            max_new_tokens: int) -> str:
    """The text of a greedy decode from ``prompt_ids``, which stops at EOS."""
    out = model.generate(prompt_ids, max_new_tokens, eos_id=tokenizer.specials.eos)
    return tokenizer.detokenize(out[len(prompt_ids):])


def eval_report(model: CausalLM, tokenizer: TokenizerModel,
                examples: list[TrainingExample]) -> EvalReport:
    """Perplexity, and exact match, BLEU and ROUGE-L of greedy answers.

    Each example that scores a token is decoded from its prompt, the ids
    before its first scored label, until EOS or one token more than its
    reference, its scored label ids. Perplexity and every decode share one
    ``CausalLM.folded``, whose nested folds do nothing, so each LoRA pair
    folds once per report.
    """
    answers, references = [], []
    with model.folded():
        ppl = perplexity(model, examples, tokenizer.specials.pad)
        for first, ex in _scored(examples):
            reference = [t for t in ex.labels[first + 1:] if t != IGNORE_LABEL]
            answers.append(_answer(model, tokenizer, ex.input_ids[:first + 1],
                                   len(reference) + 1))
            references.append(tokenizer.detokenize(reference))
    return EvalReport(
        perplexity=ppl,
        exact_match=exact_match(answers, references),
        bleu=bleu(answers, references),
        rouge_l=rouge_l(answers, references),
        n_examples=len(examples),
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
            lines.append("-----")
            lines.append(label)
            lines.append(prompt + _answer(mdl, tokenizer, prompt_ids, max_new_tokens))
            lines.append("")
    if eval_examples:
        ppl_base = perplexity(base, eval_examples, sp.pad)
        ppl_adapted = perplexity(adapted, eval_examples, sp.pad)
        lines.append("-----")
        lines.append(f"Base model perplexity: {ppl_base:.4f}")
        lines.append(f"Adapted model perplexity: {ppl_adapted:.4f}")
    return "\n".join(lines)
