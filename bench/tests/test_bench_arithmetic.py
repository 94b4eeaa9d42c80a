"""Tests for the benchmark's own arithmetic and tracing.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import os
import sys
from collections import defaultdict

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import tracing  # noqa: E402


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(100, 0, -1))  # 1..100, unsorted
    assert measure.percentile(xs, 90) == 90
    assert measure.percentile(xs, 50) == 50
    assert measure.percentile(list(range(1, 21)), 50) == 10


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.min_samples(90) == 100
    assert measure.min_samples(50) == 20
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(99, 90) == 9
    with pytest.raises(ValueError, match="at least 100"):
        measure.percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="at least 20"):
        measure.percentile(list(range(19)), 50)


# -- self time -----------------------------------------------------------------


def span(name, start, end, parent, value=0.0):
    return [name, start, end, parent, value]


def test_self_time_subtracts_children_at_every_level():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("b.inner", 6.0, 7.0, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_sublayer_time_leaves_out_only_nested_peft_spans():
    spans = [
        span("model.qkv", 0.0, 0.010, -1),
        span("tensor.matmul", 0.001, 0.004, 0, 1.0),
        span("peft.lora_delta", 0.005, 0.009, 0),
    ]
    acc = defaultdict(float)
    tracing.aggregate(spans, {}, acc)
    assert acc["model.qkv.ms"] == pytest.approx(6.0)
    assert acc["tensor.matmul.ms"] == pytest.approx(3.0)
    assert acc["peft.lora_delta.ms"] == pytest.approx(4.0)


def test_context_counts_follow_enclosing_calls():
    spans = [
        span("trainer.train_step", 0.0, 1.0, -1),
        span("tensor.add", 0.1, 0.2, 0, 1.0),  # a tape node inside a step
        span("model.generate", 2.0, 3.0, -1, 4.0),  # 4 tokens emitted
        span("model.forward_logits", 2.1, 2.2, 2, 10.0),
        span("model.forward_logits", 2.3, 2.4, 2, 10.0),
        span("tensor.add", 2.5, 2.6, 2, 0.0),
    ]
    acc = defaultdict(float)
    tracing.aggregate(spans, {}, acc)
    m = tracing.layer_metrics(acc)
    assert m["tensor.ops_per_step"] == 1.0
    assert m["model.decode.positions_per_token"] == 5.0
    assert m["model.forward_logits.calls"] == 2


# -- input-defined token counts ------------------------------------------------


def test_train_tokens_count_non_pad_inputs():
    pad = 258
    ids = np.array([[256, 5, 6, 257, pad], [256, 7, 257, pad, pad]])
    assert measure.train_tokens(ids, pad) == 7


def test_eval_tokens_are_defined_by_inputs():
    # two perplexity examples, two candidates scored as BOS + prompt + label
    assert measure.eval_tokens([10, 20], [(5, 3), (5, 4)]) == 30 + 9 + 10


def test_tracing_overhead_compares_medians_per_action_kind():
    times = [
        ([1.0, 1.0, 5.0], [1.5, 1.5]),  # median 1.0 untraced, 1.5 traced
        ([2.0], [2.0, 2.2, 2.4]),  # median 2.0 untraced, 2.2 traced
        ([], [9.0]),  # traced only: left out
    ]
    extra, share = measure.tracing_overhead(times)
    assert extra == pytest.approx(2 * 0.5 + 3 * 0.2)
    assert share == pytest.approx(1.6 / (2 * 1.0 + 3 * 2.0))


def test_host_factor_scales_to_the_reference_host():
    ref = measure.PROBE_REFERENCE_S
    assert measure.host_factor([ref, ref, ref]) == 1.0
    # a host twice as slow: probes take twice as long, times are halved
    assert measure.host_factor([2 * ref, 9 * ref, 2 * ref]) == pytest.approx(0.5)


def test_loss_digest_tells_bitwise_equal_from_altered():
    a = [5.5, 5.25, 5.0]
    assert measure.loss_digest(a) == measure.loss_digest(list(a))
    assert measure.loss_digest(a) != measure.loss_digest([5.5, 5.25, np.nextafter(5.0, 6.0)])


# -- tracer on a real forward ------------------------------------------------------


def test_tracer_records_sublayers_and_restores_the_library():
    from tinypeft import model as model_mod
    from tinypeft import tensor
    from tinypeft.rng import RngState

    cfg = model_mod.CausalLMConfig(vocab_size=32, d_model=8, n_heads=2, n_layers=2, seq_len=16)
    model = model_mod.init_model(cfg, RngState(0))
    ids = np.arange(12).reshape(2, 6)
    labels = ids.copy()
    want = model.lm_loss(ids, labels).item()
    originals = (tensor.matmul, model_mod.Linear.__call__, model_mod.CausalLM.forward_logits)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = model.lm_loss(ids, labels).item()
    finally:
        tracer.uninstall()
    spans, _ = tracer.drain()

    assert got == want
    assert (tensor.matmul, model_mod.Linear.__call__,
            model_mod.CausalLM.forward_logits) == originals
    names = [s[0] for s in spans]
    for sub in tracing.SUBLAYERS:
        assert f"model.{sub}" in names, sub
    assert names.count("model.ln") == 5  # two per block plus ln_f
    assert all(end >= start for _, start, end, _, _ in spans)
    acc = defaultdict(float)
    tracing.aggregate(spans, {}, acc)
    assert acc["tensor.attention_glue.ms"] > 0


# -- BENCHMARK.json matches what the code reports -----------------------------------


def test_benchmark_json_names_the_metrics_the_code_reports():
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in workloads.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in workloads.END_TO_END]
    layer = list(tracing.layer_metrics({})) + ["trace.overhead.ms", "trace.overhead.share"]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert [m["unit"] for m in spec["per_layer"]] == [tracing.unit_of(n) for n in layer]
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS == list(workloads.EMPHASIS)
