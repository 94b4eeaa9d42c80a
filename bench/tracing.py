"""Span tracing around tinypeft's public calls, done from the benchmark's side.

``Tracer.install`` swaps each traced function, method and tensor op for a
wrapper that records a span ``[name, start, end, parent, value]``;
``uninstall`` puts the originals back, so untraced runs execute the library
untouched. Spans stay in memory until ``drain``. ``aggregate`` folds drained
spans into per-layer totals and ``layer_metrics`` turns those into the
per-layer metrics of BENCHMARK.json.

The model's forward is one function, so its sublayers are recovered from the
calls it makes: each ``Linear`` and ``LayerNorm`` call is a span, and the
stretch of tensor ops between them is a "phase" span (embedding before the
first norm, attention core between QKV and the output dense, and so on).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

TENSOR_OPS = ["add", "mul", "matmul", "transpose", "narrow", "reshape", "softmax",
              "gelu", "layer_norm", "embedding", "causal_mask", "tsum", "tmean",
              "dropout", "cross_entropy"]
# traced, but no stage of the pipeline calls them, so they get no metric
UNCALLED_OPS = {"tsum", "tmean"}
# the copying ops a fused attention kernel would remove
GLUE_OPS = {"tensor.reshape", "tensor.transpose", "tensor.narrow",
            "tensor.causal_mask", "tensor.softmax"}
SUBLAYERS = ["embed", "ln", "qkv", "attention_core", "attn_dense", "mlp", "head_ce"]
SUBLAYER_SPANS = {f"model.{s}" for s in SUBLAYERS}
# Linear name suffix -> (span of the call, phase that follows it)
LINEAR_SPANS = {
    "attn.query_key_value": ("model.qkv", "model.attention_core"),
    "attn.dense": ("model.attn_dense", "model.attn_dense"),
    "mlp.dense_h_to_4h": ("model.mlp", "model.mlp"),
    "mlp.dense_4h_to_h": ("model.mlp", "model.mlp"),
}

# bits marking which enclosing call a span ran under
TRAIN, GENERATE, PERPLEXITY, CLASSIFY, ATTENTION = 1, 2, 4, 8, 16
CONTEXT_BITS = {
    "trainer.train_step": TRAIN,
    "model.generate": GENERATE,
    "evals.perplexity": PERPLEXITY,
    "evals.classify_by_likelihood": CLASSIFY,
    "model.attention_core": ATTENTION,
}


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _file_bytes(args, kwargs, out, before):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _tape_node(args, kwargs, out, before):
    return 1.0 if getattr(out, "requires_grad", False) else 0.0


def _evictions(tracer, args, kwargs):
    return args[0].evictions


def _lookup(tracer, args, kwargs):
    """Before PageTable.get: count a hit if the page is resident."""
    table = args[0]
    tracer.counts["optim.paging.hits"] += _arg(args, kwargs, 1, "name") in table.resident
    return table.evictions


def _evicted(args, kwargs, out, before):
    return args[0].evictions - before


def resident_bits_per_weight(model) -> float:
    """Bits held in memory per base linear weight, over every array a
    linear keeps for its weight (the f32 matrix and any packed copy)."""
    bits = weights = 0
    for lin in model.linears():
        held = [lin.weight.data]
        held += [v for v in getattr(lin.qweight, "__dict__", {}).values()
                 if isinstance(v, np.ndarray)]
        bits += 8 * sum(a.nbytes for a in held)
        weights += lin.d_in * lin.d_out
    return bits / weights if weights else 0.0


# (module, attribute, span name, value of the span)
FUNCTIONS = [("tinypeft.tensor", op, f"tensor.{op}",
              None if op == "dropout" else _tape_node) for op in TENSOR_OPS] + [
    ("tinypeft.tensor", "backward", "tensor.backward", None),
    ("tinypeft.peft", "merge_lora", "peft.merge_lora", None),
    ("tinypeft.peft", "quantize_base", "peft.quantize_base",
     lambda a, k, out, b: resident_bits_per_weight(out)),
    ("tinypeft.quant", "quantize_blockwise", "quant.quantize_blockwise", None),
    ("tinypeft.quant", "dequantize_blockwise", "quant.dequantize_blockwise", None),
    ("tinypeft.optim", "clip_global_norm", "optim.clip", None),
    ("tinypeft.trainer", "collate", "trainer.collate", None),
    ("tinypeft.store", "save_archive", "store.save_archive", _file_bytes),
    ("tinypeft.store", "load_archive", "store.load_archive", _file_bytes),
    ("tinypeft.bpe", "train_bpe", "bpe.train_bpe", lambda a, k, out, b: len(out.merges)),
    ("tinypeft.corpus", "load_qa_csv", "corpus.load_qa_csv", None),
    ("tinypeft.corpus", "build_examples", "corpus.build_examples", None),
    ("tinypeft.evals", "perplexity", "evals.perplexity", None),
    ("tinypeft.evals", "classify_by_likelihood", "evals.classify_by_likelihood", None),
    ("tinypeft.evals", "bleu", "evals.bleu", None),
    ("tinypeft.evals", "rouge_l", "evals.rouge_l", None),
]

# (module, class, method, span name, value of the span, value taken before the call)
METHODS = [
    ("tinypeft.model", "CausalLM", "lm_loss", "model.lm_loss", None, None),
    ("tinypeft.model", "CausalLM", "generate", "model.generate",
     lambda a, k, out, b: len(out) - len(_arg(a, k, 1, "prompt_ids")), None),
    ("tinypeft.peft", "LoraAdapter", "delta", "peft.lora_delta", None, None),
    ("tinypeft.peft", "BottleneckAdapter", "__call__", "peft.bottleneck", None, None),
    ("tinypeft.optim", "AdamW", "step", "optim.adamw_step", None, None),
    ("tinypeft.optim", "AdamW", "state_tensors", "optim.state_tensors", None, None),
    ("tinypeft.optim", "PageTable", "get", "optim.paging.get", _evicted, _lookup),
    ("tinypeft.optim", "PageTable", "put", "optim.paging.put", _evicted, _evictions),
    ("tinypeft.trainer", "Trainer", "train_step", "trainer.train_step", None, None),
    ("tinypeft.trainer", "Trainer", "save_checkpoint", "trainer.save_checkpoint", None, None),
    ("tinypeft.bpe", "TokenizerModel", "tokenize", "bpe.tokenize",
     lambda a, k, out, b: len(_arg(a, k, 1, "text").encode("utf-8")), None),
    ("tinypeft.bpe", "TokenizerModel", "detokenize", "bpe.detokenize", None, None),
]


class Tracer:
    """Records spans around tinypeft calls while installed and enabled."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[int] = []
        self._phase = -1  # index of the open forward phase span, if any
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(i)
        return i

    def _close(self, i: int):
        """End span i and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            j = self._stack.pop()
            self.spans[j][2] = now
            if j == self._phase:
                self._phase = -1
            if j == i:
                break

    def _begin_phase(self, name: str | None):
        if name is not None:
            self._phase = self._open(name)

    def _end_phase(self):
        if self._phase >= 0:
            self._close(self._phase)

    def drain(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("drain() with spans still open")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, value=None, before=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            pre = before(tracer, args, kwargs) if before is not None else None
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if value is not None:
                tracer.spans[i][4] = value(args, kwargs, out, pre)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_sublayer(self, fn, spans_for):
        """A Linear or LayerNorm call: ends the current phase, opens the next."""
        tracer = self

        def traced(obj, *args, **kwargs):
            if not tracer.enabled:
                return fn(obj, *args, **kwargs)
            name, after = spans_for(obj)
            tracer._end_phase()
            i = tracer._open(name)
            try:
                out = fn(obj, *args, **kwargs)
            finally:
                tracer._close(i)
            tracer._begin_phase(after)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_forward(self, fn):
        tracer = self

        def traced(model, input_ids, *args, **kwargs):
            if not tracer.enabled:
                return fn(model, input_ids, *args, **kwargs)
            tracer._end_phase()
            i = tracer._open("model.forward_logits")
            tracer.spans[i][4] = np.asarray(input_ids).size
            tracer._begin_phase("model.embed")
            try:
                out = fn(model, input_ids, *args, **kwargs)
            finally:
                tracer._close(i)
            parent = tracer.spans[i][3]
            if parent >= 0 and tracer.spans[parent][0] == "model.lm_loss":
                tracer._begin_phase("model.head_ce")
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced call; a name missing from the library is skipped
        and its metrics read 0."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tinypeft" or n.startswith("tinypeft.")]
        for modname, attr, name, value in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, name, value)
            # replace every reference, including `from .x import f` copies
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._set(m, k, wrapper)
        for modname, clsname, attr, name, value, before in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            if cls is not None and attr in vars(cls):
                self._set(cls, attr, self._wrap(vars(cls)[attr], name, value, before))
        model = importlib.import_module("tinypeft.model")
        self._set(model.CausalLM, "forward_logits",
                  self._wrap_forward(model.CausalLM.forward_logits))
        self._set(model.Linear, "__call__", self._wrap_sublayer(
            model.Linear.__call__,
            lambda lin: next((v for k, v in LINEAR_SPANS.items() if lin.name.endswith(k)),
                             ("model.linear", None))))
        self._set(model.LayerNorm, "__call__", self._wrap_sublayer(
            model.LayerNorm.__call__,
            lambda ln: ("model.ln", "model.head_ce" if ln.name == "ln_f" else None)))
        self.enabled = True

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []


# -- arithmetic over spans ---------------------------------------------------


def span_tables(spans):
    """Per span: duration, time its children cover, time its peft children
    cover, and the CONTEXT_BITS of the calls enclosing it.

    Spans nest and a parent is always recorded before its children, so one
    pass in recording order suffices.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    peft = [0.0] * n
    outer = [0] * n
    inner = [0] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            if name.startswith("peft."):
                peft[parent] += dur[i]
            outer[i] = inner[parent]
        inner[i] = outer[i] | CONTEXT_BITS.get(name, 0)
    return dur, child, peft, outer


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    dur, child, _, _ = span_tables(spans)
    return [d - c for d, c in zip(dur, child)]


# span name -> total its values add to
VALUE_TOTALS = {
    "bpe.tokenize": "bpe.tokenize.bytes",
    "bpe.train_bpe": "bpe.train_bpe.merges_total",
    "store.save_archive": "store.save_archive.bytes",
    "store.load_archive": "store.load_archive.bytes",
    "peft.quantize_base": "quant.bits_total",
}


def aggregate(spans, counts, acc: dict[str, float]):
    """Add one batch of drained spans into running per-layer totals.

    Times are in ms. A model sublayer's time is its span minus the peft
    spans inside it (the LoRA delta or bottleneck adapter it runs), so that
    adapter work is counted once, under peft.
    """
    dur, child, peft, outer = span_tables(spans)
    paged_steps = set()
    for i, (name, _, _, parent, value) in enumerate(spans):
        ctx = outer[i]
        acc[name + ".calls"] += 1
        own = dur[i] - peft[i] if name in SUBLAYER_SPANS else dur[i]
        acc[name + ".ms"] += own * 1e3
        if name in VALUE_TOTALS:
            acc[VALUE_TOTALS[name]] += value
        if name == "trainer.train_step":
            acc["trainer.train_step.self_ms"] += (dur[i] - child[i]) * 1e3
            acc["train_steps"] += 1
        elif name.startswith("tensor."):
            if ctx & TRAIN:
                acc["tape_nodes"] += value
            if ctx & ATTENTION and name in GLUE_OPS:
                acc["tensor.attention_glue.ms"] += dur[i] * 1e3
        elif name == "model.forward_logits":
            if ctx & GENERATE:
                acc["decode_positions"] += value
            if ctx & PERPLEXITY:
                acc["evals.perplexity.forward_calls"] += 1
            if ctx & CLASSIFY:
                acc["evals.classify_by_likelihood.forward_calls"] += 1
        elif name == "model.generate":
            acc["decode_tokens"] += value
        elif name == "quant.dequantize_blockwise" and ctx & TRAIN:
            acc["dequantize_step_calls"] += 1
        elif name.startswith("optim.paging.") and ctx & TRAIN:
            acc["paging_step_evictions"] += value
            paged_steps.add(parent)
    acc["paged_steps"] += len(paged_steps)
    for k, v in counts.items():
        acc[k] += v


def layer_metrics(acc: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from aggregated totals (missing totals are 0)."""
    acc = defaultdict(float, acc)

    def ratio(a, b):
        return acc[a] / acc[b] if acc[b] else 0.0

    out = {}
    for op in (o for o in TENSOR_OPS if o not in UNCALLED_OPS):
        out[f"tensor.{op}.ms"] = acc[f"tensor.{op}.ms"]
        out[f"tensor.{op}.calls"] = acc[f"tensor.{op}.calls"]
    out["tensor.backward.ms"] = acc["tensor.backward.ms"]
    out["tensor.ops_per_step"] = ratio("tape_nodes", "train_steps")
    out["tensor.attention_glue.ms"] = acc["tensor.attention_glue.ms"]
    for k in ("model.lm_loss.ms", "model.forward_logits.ms", "model.forward_logits.calls"):
        out[k] = acc[k]
    for s in SUBLAYERS:
        out[f"model.{s}.ms"] = acc[f"model.{s}.ms"]
    out["model.decode.positions_per_token"] = ratio("decode_positions", "decode_tokens")
    for k in ("peft.lora_delta.ms", "peft.lora_delta.calls", "peft.bottleneck.ms",
              "peft.merge_lora.ms", "peft.quantize_base.ms",
              "quant.quantize_blockwise.ms", "quant.quantize_blockwise.calls",
              "quant.dequantize_blockwise.ms"):
        out[k] = acc[k]
    out["quant.dequantize_blockwise.calls_per_step"] = ratio("dequantize_step_calls", "train_steps")
    out["quant.bits_per_weight"] = ratio("quant.bits_total", "peft.quantize_base.calls")
    for k in ("optim.adamw_step.ms", "optim.clip.ms", "optim.paging.get.ms",
              "optim.paging.put.ms"):
        out[k] = acc[k]
    out["optim.paging.evictions_per_step"] = ratio("paging_step_evictions", "paged_steps")
    out["optim.paging.hit_ratio"] = ratio("optim.paging.hits", "optim.paging.get.calls")
    out["optim.paging.gets"] = acc["optim.paging.get.calls"]
    out["optim.state_tensors.ms"] = acc["optim.state_tensors.ms"]
    for k in ("trainer.collate.ms", "trainer.train_step.self_ms",
              "trainer.save_checkpoint.ms", "trainer.save_checkpoint.calls",
              "store.save_archive.ms", "store.save_archive.bytes",
              "store.load_archive.ms", "store.load_archive.bytes",
              "bpe.train_bpe.ms"):
        out[k] = acc[k]
    out["bpe.train_bpe.merges"] = ratio("bpe.train_bpe.merges_total", "bpe.train_bpe.calls")
    for k in ("bpe.tokenize.ms", "bpe.tokenize.bytes", "bpe.tokenize.calls",
              "bpe.detokenize.ms", "corpus.load_qa_csv.ms", "corpus.build_examples.ms",
              "evals.perplexity.ms", "evals.perplexity.forward_calls",
              "evals.classify_by_likelihood.ms", "evals.classify_by_likelihood.forward_calls",
              "evals.bleu.ms", "evals.rouge_l.ms"):
        out[k] = acc[k]
    return out


def unit_of(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_step"):
        return "count/step"
    if name.endswith("positions_per_token"):
        return "count/token"
    if name.endswith("bits_per_weight"):
        return "bits"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"
