"""The benchmark's workloads: one caller, closed loop, walking the tinypeft
pipeline through the public functions the CLI commands call.

A run first prepares its fixtures from the seed (tokenizer, a short-trained
base, a LoRA adapter and its merged model), then plays a number of rounds.
Every round advances each training run by one 10-step slice (pretrain from
scratch, LoRA, QLoRA, bottleneck adapter) and runs slices of generate, eval
and tokenize; the workload adds slices of its own stage. So every
end-to-end metric is measured on every workload, and the samples of each
metric are spread over the whole run, where the host's speed drifts. The
work is fixed by (workload, seconds), never cut by the clock, so every run
of a workload does the same work and metrics compare across commits.

Every input comes from the seed. Training runs of one kind reuse the same
seeded inputs, so each must reproduce the first bitwise (loss digests).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy

from tinypeft import bpe, corpus, evals, peft, quant, store, tensor
from tinypeft import model as model_mod
from tinypeft import trainer as trainer_mod
from tinypeft.errors import TinyPeftError
from tinypeft.rng import RngState

import measure
import tracing

VOCAB = 512
DOMAIN_TERMS = ["KOSPI"]
SEQ_LEN = 128
MAX_STEPS = 100  # per training run: one run gives the samples a p90 needs
SLICE_STEPS = 10  # one logging window and one checkpoint per slice
FIXTURE_STEPS = 30  # training of the fixture base and fixture adapter
# 40 examples are 10 steps of 2 x 2, so every logging window is one epoch
# over the same examples and the first and last windows compare fairly
FINETUNE_EXAMPLES = 40
LORA = dict(r=32, alpha=32.0, dropout=0.05, target_modules=list(peft.FIG12_TARGET_MODULES))
QLORA_QUANT = dict(block_size=64, codebook="nf4", double_quant=True)
PAGING = dict(optim="paged_adamw_32bit", paging_budget=8)
BOTTLENECK_DIM = 8
SHORT_PROMPT_TOKENS = (35, 38)  # the middle of the corpus's question lengths
SHORT_NEW_TOKENS = 32
LONG_PROMPT_TOKENS = 100  # with 48 new tokens the context slides past 127
LONG_NEW_TOKENS = 48
DECODE_LONG_CALLS = 5  # per decode slice, with one short call
EVAL_SHARDS = 5  # an eval slice covers one fifth of the examples
CLASSIFY_QUESTIONS = 2  # per eval slice, each with 3 distractor answers
DISTRACTORS = 3
MERGE_TOLERANCE = 1e-5  # max |difference| relative to max |logit|
CHECK_DECODE_EVERY = 10  # decode slices between reference-decode checks
KEPT_SPANS = 20000  # spans written out per action kind; a prefix keeps parents valid

# 10 rounds give 100 steps per training run and 100 long generate calls
ROUND_BLOCK = 10
NOMINAL_SECONDS_PER_BLOCK = 45.0  # 2-vCPU x86 host, one BLAS thread
COVERAGE = ["train:full", "decode", "train:lora", "eval", "train:qlora", "decode",
            "train:adapter", "tokenize"]
EMPHASIS = {
    "finetune": ["train:lora", "train:qlora", "train:adapter"],
    "generate-eval": ["decode", "eval", "tokenize"],
}

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tokenizer_train_s", "s"),
    ("train_tokens_per_s", "tokens/s"),
    ("full_step_ms.p50", "ms"),
    ("full_step_ms.p90", "ms"),
    ("lora_step_ms.p50", "ms"),
    ("lora_step_ms.p90", "ms"),
    ("qlora_step_ms.p50", "ms"),
    ("adapter_step_ms.p50", "ms"),
    ("decode_short_ms_per_token.p50", "ms/token"),
    ("decode_long_ms_per_token.p50", "ms/token"),
    ("decode_long_ms_per_token.p90", "ms/token"),
    ("eval_tokens_per_s", "tokens/s"),
    ("tokenize_kb_per_s", "KB/s"),
]
# Reported in the details line only: its run-to-run spread on the reference
# host (0.20-0.28, from paging's disk latency) exceeds any allowed bound.
UNBOUNDED = [("qlora_step_ms.p90", "ms")]


def plan(workload: str, seconds: float) -> list[list[str]]:
    """The actions of each round."""
    n = ROUND_BLOCK * max(1, round(seconds / NOMINAL_SECONDS_PER_BLOCK))
    rounds = []
    for r in range(n):
        acts = COVERAGE + EMPHASIS[workload]
        if r % 2 == 0:
            acts = acts + ["setup"]  # 5 set-ups per 10 rounds
        else:
            acts = acts + ["tokenizer"]  # with the fixture's, 6 samples per 10 rounds
        rounds.append(acts)
    return rounds


class Ledger:
    """Operations attempted and failed.

    A check that finds a wrong output is a failed operation and marks the
    run incorrect; a library call that raises is a failed operation too,
    but produced no output to be wrong.
    """

    def __init__(self):
        self.ops: Counter[str] = Counter()
        self.failures: Counter[str] = Counter()
        self.wrong = 0

    def op(self, kind: str, n: int = 1):
        self.ops[kind] += n

    def check(self, name: str, ok: bool, detail: str = ""):
        self.ops["check"] += 1
        if not ok:
            self.wrong += 1
            self._fail(name, detail)

    def error(self, name: str, err: Exception):
        self.ops["check"] += 1
        self._fail(name, str(err))

    def _fail(self, name: str, detail: str):
        self.failures[name] += 1
        print(f"failed: {name}: {detail}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _no_grad_logits(model, ids) -> np.ndarray:
    with tensor.no_grad():
        return model.forward_logits(ids).data.copy()


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return float(np.abs(a - b).max()) <= MERGE_TOLERANCE * max(float(np.abs(a).max()), 1e-12)


def reference_greedy(model, prompt: list[int], new_tokens: int) -> list[int]:
    """Greedy decoding as a plain argmax loop over forward_logits on the
    sliding seq_len - 1 window; ties go to the lowest id."""
    out = list(prompt)
    window = model.config.seq_len - 1
    for _ in range(new_tokens):
        logits = _no_grad_logits(model, np.asarray([out[-window:]]))
        out.append(int(np.argmax(logits[0, -1])))
    return out


class TrainingRun:
    """One Trainer.train() run of MAX_STEPS, advanced slice by slice with
    train(stop_after=...), which continues the straight run bitwise.

    Each Trainer.train_step is one step sample. The run's window holds its
    slices and the artifact saves at the end, not the checks.
    """

    def __init__(self, session: "Session", kind: str, model, examples, pad_id: int,
                 out_dir: str, finish, **config):
        self.session, self.kind, self.model, self.out_dir = session, kind, model, out_dir
        self.finish = finish
        cfg = trainer_mod.TrainConfig(output_dir=out_dir, seed=session.seeds["data"],
                                      max_steps=MAX_STEPS, **config)
        self.trainer = tr = trainer_mod.Trainer(model, examples, cfg, pad_id)
        self.tokens = 0
        self.elapsed = 0.0
        step_ms = session.samples[f"{kind}_step_ms"]

        # the class attributes are looked up per call, so a traced round
        # reaches the tracer's wrappers
        def timed_step():
            t0 = time.perf_counter()
            loss = type(tr).train_step(tr)
            step_ms.append((time.perf_counter() - t0) * 1e3)
            return loss

        def counted_loss(input_ids, labels, training=False, rng=None):
            if training:
                self.tokens += measure.train_tokens(input_ids, pad_id)
            return type(model).lm_loss(model, input_ids, labels, training=training, rng=rng)

        tr.train_step, model.lm_loss = timed_step, counted_loss

    @property
    def done(self) -> bool:
        return self.trainer.global_step >= MAX_STEPS

    def advance(self, steps: int) -> float:
        s, tr = self.session, self.trainer
        watch = measure.Stopwatch()
        watch.start()
        try:
            tr.train(stop_after=tr.global_step + steps)
            if self.done:
                with s.checking(watch):  # before finish() may merge into the base
                    s.check_frozen(self.kind, tr)
                self.finish(watch)
        finally:
            watch.stop()
        self.elapsed += watch.elapsed
        s.ledger.op("train_slice")
        if self.done:
            del self.model.lm_loss
            if self.tokens == 0:
                raise RuntimeError("no training tokens counted: Trainer no longer "
                                   "calls model.lm_loss")
            s.totals["train_tokens"] += self.tokens
            s.totals["train_s"] += self.elapsed
            with s.checking():
                s.check_training(self.kind, tr, self.out_dir)
        return watch.elapsed


class Session:
    """One run: seeded inputs, artifacts, samples and the ledger."""

    def __init__(self, seed: int, work_dir: str, csv_path: str):
        names = ["init", "data", "lora", "adapter", "subset", "prompts", "distractors"]
        draws = np.random.default_rng(seed).integers(0, 2**31, size=len(names))
        self.seeds = {n: int(v) for n, v in zip(names, draws)}
        self.work = work_dir
        self.csv = csv_path
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)
        self.ledger = Ledger()
        self.digests: dict[str, dict] = {}
        self.paths: dict[str, str] = {}
        self.count: Counter[str] = Counter()  # actions done, by kind
        self._dirs: Counter[str] = Counter()
        self.runs: dict[str, TrainingRun] = {}
        # loaded once by prepare(); setup() times what loading them costs
        self.tok: bpe.TokenizerModel | None = None
        self.pairs: list[corpus.QAPair] = []
        self.examples: list[corpus.TrainingExample] = []
        self.pretrain_examples: list[corpus.TrainingExample] = []
        self.finetune_examples: list[corpus.TrainingExample] = []
        self.tracer: tracing.Tracer | None = None
        self.probes: list[float] = []  # host speed, once before each action

    # -- helpers -------------------------------------------------------------

    def _dir(self, kind: str) -> str:
        d = os.path.join(self.work, f"{kind}-{self._dirs[kind]}")
        self._dirs[kind] += 1
        os.makedirs(d)
        return d

    @contextlib.contextmanager
    def checking(self, watch: measure.Stopwatch | None = None):
        """Checks run untraced and outside the timed window."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = False
        try:
            if watch is None:
                yield
            else:
                with watch.paused():
                    yield
        finally:
            if tracer is not None:
                tracer.enabled = True

    def _pairs(self) -> list[corpus.QAPair]:
        cfg = corpus.PreprocessConfig()
        return [corpus.preprocess_pair(p, cfg) for p in corpus.load_qa_csv(self.csv)]

    def act(self, action: str) -> float:
        """Run one action; returns the seconds of its timed operations."""
        kind, _, arg = action.partition(":")
        t = self.train_slice(arg) if kind == "train" else getattr(self, kind)()
        self.count[action] += 1
        return t

    # -- fixtures ------------------------------------------------------------

    def prepare(self):
        """Tokenizer, base, LoRA adapter and merged model, from the seed.

        The train_bpe call is a tokenizer_train_s sample; the rest is not
        timed.
        """
        self.tokenizer()
        self.tok = tok = bpe.TokenizerModel.load(self.paths["tokenizer"])
        pad = tok.specials.pad
        self.pairs = self._pairs()
        self.examples, _ = corpus.build_examples(self.pairs, tok, seq_len=SEQ_LEN)
        self.pretrain_examples, _ = corpus.build_examples(self.pairs, tok, seq_len=SEQ_LEN,
                                                          mask_prompt=False)
        pick = np.random.default_rng(self.seeds["subset"]).permutation(len(self.examples))
        self.finetune_examples = [self.examples[int(i)] for i in pick[:FINETUNE_EXAMPLES]]
        out = self._dir("fixture")
        base = init_model_for(tok, self.seeds["init"])
        cfg = dict(max_steps=FIXTURE_STEPS, save_steps=FIXTURE_STEPS)
        trainer_mod.Trainer(base, self.pretrain_examples, trainer_mod.TrainConfig(
            output_dir=os.path.join(out, "base"), seed=self.seeds["data"], **cfg), pad).train()
        self.paths["base"] = os.path.join(out, "base.pfwa")
        store.save_model(base, self.paths["base"])
        model = store.load_model(self.paths["base"])
        peft.attach_lora(model, peft.LoraConfig(**LORA), RngState(self.seeds["lora"]))
        trainer_mod.Trainer(model, self.finetune_examples, trainer_mod.TrainConfig(
            output_dir=os.path.join(out, "lora"), seed=self.seeds["data"], **cfg), pad).train()
        self.paths["adapter"] = os.path.join(out, "adapter.pfwa")
        self.paths["merged"] = os.path.join(out, "merged.pfwa")
        store.save_adapter(model, self.paths["adapter"])
        store.save_model(peft.merge_lora(model), self.paths["merged"])
        self.ledger.op("fixture")

    # -- training ------------------------------------------------------------

    def train_slice(self, kind: str) -> float:
        run = self.runs.get(kind)
        if run is None or run.done:
            run = self.runs[kind] = self._start_run(kind)
        return run.advance(SLICE_STEPS)

    def _start_run(self, kind: str) -> TrainingRun:
        """Model set-up for a pretrain or finetune run (the tokenizer and
        examples are the session's; loading them is timed by setup())."""
        pad = self.tok.specials.pad
        out = self._dir(f"train-{kind}")
        if kind == "full":
            model = init_model_for(self.tok, self.seeds["init"])
            path = os.path.join(out, "model.pfwa")
            return TrainingRun(self, kind, model, self.pretrain_examples, pad, out,
                               lambda watch: store.save_model(model, path))
        examples = self.finetune_examples
        model = store.load_model(self.paths["base"])
        probe = trainer_mod.collate(examples[:2], pad)[0]
        path = os.path.join(out, "adapter.pfwa")
        if kind == "adapter":
            peft.attach_bottleneck(model, peft.BottleneckAdapterConfig(bottleneck_dim=BOTTLENECK_DIM),
                                   RngState(self.seeds["adapter"]))

            def finish(watch):
                store.save_adapter(model, path)
                with self.checking(watch):
                    self.check_reload(kind, path, probe, _no_grad_logits(model, probe))

            return TrainingRun(self, kind, model, examples, pad, out, finish)
        config = {}
        if kind == "qlora":
            peft.quantize_base(model, quant.QuantConfig(**QLORA_QUANT))
            config = PAGING
        peft.attach_lora(model, peft.LoraConfig(**LORA), RngState(self.seeds["lora"]))

        def finish(watch):
            store.save_adapter(model, path)
            if kind == "qlora":
                with self.checking(watch):
                    self.check_reload(kind, path)
                return
            with self.checking(watch):
                attached = _no_grad_logits(model, probe)
                self.check_reload(kind, path, probe, attached)
            peft.merge_lora(model)
            with self.checking(watch):
                self.ledger.check("lora.merge_equivalence",
                                  _close(_no_grad_logits(model, probe), attached))
            store.save_model(model, os.path.join(out, "merged.pfwa"))
            self.ledger.op("merge")

        return TrainingRun(self, kind, model, examples, pad, out, finish, **config)

    def check_training(self, kind: str, tr, out_dir: str):
        led = self.ledger
        losses = tr.step_losses
        led.check(f"{kind}.loss_finite", all(math.isfinite(x) for x in losses))
        first, last = tr.metrics[0].training_loss, tr.metrics[-1].training_loss
        led.check(f"{kind}.loss_trend", last < first, f"first window {first}, last {last}")
        save = tr.config.save_steps
        for step in range(save, tr.global_step + 1, save):
            path = os.path.join(out_dir, f"checkpoint-{step}", "state.pfwa")
            try:
                tensors, meta = store.load_archive(path)
                ok = (meta.get("kind") == "checkpoint" and meta.get("global_step") == step
                      and all(f"model.{n}" in tensors for n in tr.model.params))
                led.check(f"{kind}.checkpoint_reload", ok, path)
            except (TinyPeftError, OSError) as e:
                led.error(f"{kind}.checkpoint_reload", e)
        digest = {"loss_digest": measure.loss_digest(losses), "final_window_loss": last}
        if kind in self.digests:
            led.check(f"{kind}.same_seed_bitwise", self.digests[kind] == digest,
                      f"{self.digests[kind]} vs {digest}")
        self.digests.setdefault(kind, digest)
        shutil.rmtree(out_dir)

    def check_frozen(self, kind: str, tr):
        try:
            tr.audit_frozen()
            self.ledger.check(f"{kind}.frozen_audit", True)
        except TinyPeftError as e:
            self.ledger.check(f"{kind}.frozen_audit", False, str(e))

    def check_reload(self, kind: str, adapter_path: str, probe=None, want=None):
        """Reload a saved adapter onto a fresh base, as eval and merge do."""
        try:
            model = store.load_adapter(store.load_model(self.paths["base"]), adapter_path)
        except TinyPeftError as e:
            self.ledger.error(f"{kind}.adapter_reload", e)
            return
        ok = want is None or _close(_no_grad_logits(model, probe), want)
        self.ledger.check(f"{kind}.adapter_reload", ok, "reloaded logits differ")

    # -- other actions -------------------------------------------------------

    def tokenizer(self) -> float:
        texts = [f"{p.question} {p.answer}" for p in corpus.load_qa_csv(self.csv)]
        t0 = time.perf_counter()
        tok = bpe.train_bpe(texts, VOCAB, DOMAIN_TERMS)
        dt = time.perf_counter() - t0
        self.ledger.op("train_bpe")
        self.samples["tokenizer_train_s"].append(dt)
        path = os.path.join(self._dir("tokenizer"), "tok.json")
        tok.save(path)
        self.paths.setdefault("tokenizer", path)
        with self.checking():
            self.ledger.check("tokenizer.vocab_size", tok.vocab_size == VOCAB,
                              f"vocab {tok.vocab_size}")
        return dt

    def setup(self) -> float:
        """What a generate or eval command does before its first operation."""
        t0 = time.perf_counter()
        tok = bpe.TokenizerModel.load(self.paths["tokenizer"])
        corpus.build_examples(self._pairs(), tok, seq_len=SEQ_LEN)
        store.load_adapter(store.load_model(self.paths["base"]), self.paths["adapter"])
        store.load_model(self.paths["merged"])
        dt = time.perf_counter() - t0
        self.ledger.op("setup")
        self.samples["setup_s"].append(dt)
        return dt

    def _long_prompt(self, tok, pairs, rng) -> list[int]:
        """Few-shot prompt: training-template examples, then the question."""
        order = rng.permutation(len(pairs))
        q = pairs[order[0]].question
        ids = tok.tokenize(corpus.DEFAULT_INFER_TEMPLATE.format(question=q))
        for j in order[1:]:
            if len(ids) >= LONG_PROMPT_TOKENS:
                break
            shot = corpus.DEFAULT_TRAIN_TEMPLATE.format(question=pairs[j].question,
                                                        answer=pairs[j].answer)
            ids = tok.tokenize(shot + "\n\n") + ids
        return [tok.specials.bos] + ids[-(LONG_PROMPT_TOKENS - 1):]

    def decode(self) -> float:
        """Five long generate calls with one short one among them, on the
        merged model."""
        n = self.count["decode"]
        tok, pairs = self.tok, self.pairs
        model = store.load_model(self.paths["merged"])
        rng = np.random.default_rng([self.seeds["prompts"], n])
        lo, hi = SHORT_PROMPT_TOKENS
        while True:
            q = int(rng.integers(len(pairs)))
            short = [tok.specials.bos] + tok.tokenize(
                corpus.DEFAULT_INFER_TEMPLATE.format(question=pairs[q].question))
            if lo <= len(short) <= hi:
                break
        calls = [("long", self._long_prompt(tok, pairs, rng), LONG_NEW_TOKENS)
                 for _ in range(DECODE_LONG_CALLS)]
        calls.insert(int(rng.integers(len(calls) + 1)), ("short", short, SHORT_NEW_TOKENS))
        total = 0.0
        outputs = {}
        for kind, prompt, new in calls:
            t0 = time.perf_counter()
            out = model.generate(prompt, new, mode="greedy", eos_id=None)
            dt = time.perf_counter() - t0
            total += dt
            self.samples[f"decode_{kind}_ms_per_token"].append(dt * 1e3 / (len(out) - len(prompt)))
            outputs.setdefault(kind, (prompt, out))
        self.ledger.op("generate", len(calls))
        # text metrics of the short answer: the evals layer, no end-to-end metric
        answer = [tok.detokenize(outputs["short"][1][len(short):])]
        evals.bleu(answer, [pairs[q].answer])
        evals.rouge_l(answer, [pairs[q].answer])
        self.ledger.op("text_metrics", 2)
        if n % CHECK_DECODE_EVERY == 0:
            with self.checking():
                for kind, (prompt, out) in outputs.items():
                    self.ledger.check(f"decode_{kind}.matches_reference",
                                      out == reference_greedy(model, prompt, len(out) - len(prompt)))
        return total

    def eval(self) -> float:
        """Perplexity over one shard of the examples and likelihood
        classification of two questions, on the base with the LoRA adapter."""
        n = self.count["eval"]
        tok, pairs = self.tok, self.pairs
        examples = self.examples[n % EVAL_SHARDS::EVAL_SHARDS]
        model = store.load_adapter(store.load_model(self.paths["base"]), self.paths["adapter"])
        rng = np.random.default_rng([self.seeds["distractors"], n])
        answers = sorted({p.answer for p in pairs})
        answer_len = {a: len(tok.tokenize(a)) for a in answers}
        tasks, candidates = [], []
        for i in rng.permutation(len(pairs)):
            if len(tasks) == CLASSIFY_QUESTIONS:
                break
            prompt = corpus.DEFAULT_INFER_TEMPLATE.format(question=pairs[i].question)
            prompt_len = len(tok.tokenize(prompt))
            fits = [a for a in answers if 1 + prompt_len + answer_len[a] <= SEQ_LEN]
            truth = pairs[i].answer
            if truth not in fits or len(fits) <= DISTRACTORS:
                continue  # scored sequences must fit the context
            others = [a for a in fits if a != truth]
            labels = [truth] + [others[int(j)] for j in
                                rng.choice(len(others), DISTRACTORS, replace=False)]
            tasks.append((prompt, labels))
            candidates += [(prompt_len, answer_len[a]) for a in labels]
        t0 = time.perf_counter()
        ppl = evals.perplexity(model, examples, tok.specials.pad)
        picks = [evals.classify_by_likelihood(model, tok, prompt, labels)
                 for prompt, labels in tasks]
        dt = time.perf_counter() - t0
        self.ledger.op("perplexity")
        self.ledger.op("classify", len(tasks))
        self.totals["eval_tokens"] += measure.eval_tokens([e.length for e in examples],
                                                          candidates)
        self.totals["eval_s"] += dt
        with self.checking():
            self.ledger.check("perplexity.in_range",
                              math.isfinite(ppl) and 1.0 < ppl < tok.vocab_size, f"ppl {ppl}")
            self.ledger.check("classify.returns_a_label",
                              all(p in labels for p, (_, labels) in zip(picks, tasks)))
        return dt

    def tokenize(self) -> float:
        """Tokenize every question and answer, then detokenize."""
        tok, pairs = self.tok, self.pairs
        texts = [p.question for p in pairs] + [p.answer for p in pairs]
        t0 = time.perf_counter()
        ids = [tok.tokenize(t) for t in texts]
        dt = time.perf_counter() - t0
        self.ledger.op("tokenize", len(texts))
        self.totals["tokenize_bytes"] += sum(len(t.encode("utf-8")) for t in texts)
        self.totals["tokenize_s"] += dt
        back = [tok.detokenize(i) for i in ids]
        self.ledger.op("detokenize", len(texts))
        with self.checking():
            bad = sum(t != b for t, b in zip(texts, back))
            self.ledger.check("tokenize.round_trip", not bad, f"{bad} texts differ")
        return dt

    # -- results -------------------------------------------------------------

    def end_to_end(self, import_s: float) -> tuple[dict[str, float], dict[str, float]]:
        """(metrics at reference-host speed, metrics as timed on this host).

        Times are multiplied and rates divided by the run's host factor, so
        that a run on a host slowed by its neighbours reads like one on the
        reference host. Memory is not scaled.
        """
        s, tot = self.samples, self.totals
        values = {
            "setup_s": import_s + statistics.median(s["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "tokenizer_train_s": statistics.median(s["tokenizer_train_s"]),
            "train_tokens_per_s": tot["train_tokens"] / tot["train_s"],
            "eval_tokens_per_s": tot["eval_tokens"] / tot["eval_s"],
            "tokenize_kb_per_s": tot["tokenize_bytes"] / 1024 / tot["tokenize_s"],
        }
        for name, _ in END_TO_END + UNBOUNDED:
            base, _, q = name.rpartition(".p")
            if base:
                values[name] = measure.percentile(s[base], int(q))
        k = measure.host_factor(self.probes)

        def scaled(name, unit):
            if unit == "MB":
                return values[name]
            return values[name] / k if unit.endswith("/s") else values[name] * k

        return {name: scaled(name, unit) for name, unit in END_TO_END + UNBOUNDED}, values


def init_model_for(tok, seed: int):
    cfg = model_mod.CausalLMConfig(vocab_size=tok.vocab_size, d_model=64, n_heads=4,
                                   n_layers=2, seq_len=SEQ_LEN)
    return model_mod.init_model(cfg, RngState(seed))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _pass(session: Session, rounds: list[list[str]], layer_acc=None, kept=None):
    """Play the rounds; returns {action: (untraced seconds, traced seconds)},
    the timed seconds of each action. With layer_acc, even rounds and the
    last run traced (round 0 starts every training run, the last ends one)
    and their spans are folded into it."""
    session.prepare()
    times: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for r, actions in enumerate(rounds):
        traced = layer_acc is not None and (r % 2 == 0 or r == len(rounds) - 1)
        for action in actions:
            session.probes.append(measure.speed_probe())
            if not traced:
                times[action][0].append(session.act(action))
                continue
            tracer = session.tracer = tracing.Tracer()
            tracer.install()
            try:
                times[action][1].append(session.act(action))
            finally:
                tracer.uninstall()
                session.tracer = None
            spans, counts = tracer.drain()
            tracing.aggregate(spans, counts, layer_acc)
            kept.setdefault(action, spans[:KEPT_SPANS])
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        import_s: float) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details line).

    A traced run traces its even rounds and its last: the per-layer metrics
    are totals over those, and the tracing overhead compares each action's
    traced and untraced times.
    """
    work = os.path.join(root, ".bench_build", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    rounds = plan(workload, seconds)
    csv_path = os.path.join(root, "src", "tinypeft", "data", "finance_qa.csv")
    t_run = time.perf_counter()
    session = Session(seed, work, csv_path)
    raw, unbounded = {}, {}
    try:
        if trace:
            layer_acc: dict[str, float] = defaultdict(float)
            kept: dict[str, list] = {}
            times = _pass(session, rounds, layer_acc, kept)
            values = tracing.layer_metrics(layer_acc)
            extra_s, share = measure.tracing_overhead(times.values())
            values["trace.overhead.ms"] = extra_s * 1e3
            values["trace.overhead.share"] = share
            units = {k: tracing.unit_of(k) for k in values}
            _write_trace(root, workload, seed, values, kept)
        else:
            _pass(session, rounds)
            values, raw = session.end_to_end(import_s)
            unbounded = {name: values.pop(name) for name, _ in UNBOUNDED}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    led = session.ledger
    result = {
        "correct": led.wrong == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": time.perf_counter() - t_run,
        "rounds": len(rounds),
        "actions": dict(session.count),
        "environment": environment(),
        "samples": {k: len(v) for k, v in session.samples.items()},
        "host_factor": measure.host_factor(session.probes),
        "as_timed": raw,
        "unbounded": unbounded,
        "loss_digests": session.digests,
        "operations": dict(led.ops),
        "failures": dict(led.failures),
    }
    return result, details


def _write_trace(root: str, workload: str, seed: int, values: dict, spans: dict):
    """Per-layer values and the first spans of each traced action kind."""
    out = os.path.join(root, ".bench_build", "traces")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{workload}-seed{seed}.json"), "w") as f:
        json.dump({"per_layer": values,
                   "span_fields": ["name", "start_s", "end_s", "parent", "value"],
                   "spans": spans}, f)
