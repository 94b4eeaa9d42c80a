"""Archive format: canonical bytes, corruption detection, and model/adapter
round trips with fingerprint checking."""

import functools
import hashlib
import json
import os
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tinypeft import peft, quant, store
from tinypeft.cli import main
from tinypeft.corpus import TrainingExample
from tinypeft.errors import DataError, StateError
from tinypeft.model import CausalLMConfig, init_model
from tinypeft.peft import (
    BottleneckAdapterConfig,
    LoraConfig,
    attach_bottleneck,
    attach_lora,
    quantize_base,
    quantize_linears,
)
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.store import (
    MAGIC,
    VERSION,
    _checksum,
    base_fingerprint,
    load_adapter,
    load_archive,
    load_model,
    save_adapter,
    save_archive,
    save_model,
)
from tinypeft.trainer import TrainConfig, Trainer

from conftest import lora_pairs, micro_config, rand_ids


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "b.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "a.ids": np.arange(5, dtype=np.int64),
        "c.packed": np.array([1, 2, 255], dtype=np.uint8),
    }


def test_archive_roundtrip(tmp_path):
    path = str(tmp_path / "x.pfwa")
    tensors = sample_tensors()
    save_archive(path, tensors, {"kind": "test", "note": "hi"})
    back, meta = load_archive(path)
    assert meta == {"kind": "test", "note": "hi"}
    for name, arr in tensors.items():
        np.testing.assert_array_equal(back[name], arr)
        assert back[name].dtype == arr.dtype


def test_save_load_save_is_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.pfwa"), str(tmp_path / "b.pfwa")
    save_archive(p1, sample_tensors(), {"k": 1})
    t, m = load_archive(p1)
    save_archive(p2, t, m)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_magic_and_version_checked(tmp_path):
    path = tmp_path / "bad.pfwa"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataError, match="PFWA"):
        load_archive(str(path))


def test_single_byte_corruption_detected(tmp_path):
    path = str(tmp_path / "x.pfwa")
    save_archive(path, sample_tensors())
    body = bytearray(open(path, "rb").read())
    body[len(body) // 2] ^= 0x01
    open(path, "wb").write(bytes(body))
    with pytest.raises(DataError, match="checksum"):
        load_archive(path)


def test_truncated_archive_detected(tmp_path):
    path = str(tmp_path / "x.pfwa")
    save_archive(path, sample_tensors())
    body = open(path, "rb").read()
    open(path, "wb").write(body[:-3])
    with pytest.raises(DataError):
        load_archive(path)


# -- model / adapter archives -------------------------------------------------


def test_model_roundtrip(tmp_path):
    model = init_model(micro_config(), RngState(1))
    path = str(tmp_path / "m.pfwa")
    save_model(model, path)
    back = load_model(path)
    ids = rand_ids(np.random.default_rng(0), 2, 6, 32)
    np.testing.assert_array_equal(
        back.forward_logits(ids).data, model.forward_logits(ids).data
    )


def test_load_model_draws_nothing_and_keeps_the_init_order(tmp_path, monkeypatch):
    """A model archive is built straight from its tensors: loading draws no
    weight, and the parameters come in init_model's order, not the archive's
    sorted one, so a full finetune of a loaded base clips, steps and pages
    its moments in the order a fresh model does, bit for bit."""
    model = init_model(micro_config(), RngState(1))
    path = str(tmp_path / "m.pfwa")
    save_model(model, path)

    def no_draws(*args):
        raise AssertionError("load_model drew a random number")

    with monkeypatch.context() as m:
        m.setattr(RngState, "gaussian", no_draws)
        back = load_model(path)
    assert list(back.params) == list(model.params) != sorted(model.params)
    runs = []
    for run, start in (("fresh", model), ("loaded", back)):
        cfg = TrainConfig(output_dir=str(tmp_path / run), max_steps=3, save_steps=100,
                          per_device_train_batch_size=2, optim="paged_adamw_32bit",
                          paging_budget=3, seed=2)
        tr = Trainer(start, EXAMPLES, cfg, pad_id=0)
        tr.train()
        runs.append((tr.optimizer.evictions, [p.data.tobytes() for p in start.parameters()]))
    assert runs[0] == runs[1]


def test_model_kind_checked(tmp_path):
    path = str(tmp_path / "x.pfwa")
    save_archive(path, {"w": np.zeros(2, np.float32)}, {"kind": "other"})
    with pytest.raises(DataError, match="kind"):
        load_model(path)


def test_lora_adapter_roundtrip(tmp_path):
    base = init_model(micro_config(), RngState(2))
    base_path = str(tmp_path / "base.pfwa")
    save_model(base, base_path)

    attach_lora(base, LoraConfig(r=3, dropout=0.0), RngState(3))
    rng = np.random.default_rng(1)
    for a in lora_pairs(base):
        a.B.data = 0.2 * rng.standard_normal(a.B.shape).astype(np.float32)
    adapter_path = str(tmp_path / "adapter.pfwa")
    save_adapter(base, adapter_path)
    assert "quant_config" not in load_archive(adapter_path)[1]  # an f32 base

    restored = load_adapter(load_model(base_path), adapter_path)
    ids = rand_ids(np.random.default_rng(2), 2, 8, 32)
    np.testing.assert_array_equal(
        restored.forward_logits(ids).data, base.forward_logits(ids).data
    )
    assert restored.adapter_config.r == 3


def test_adapter_archive_is_small(tmp_path):
    import os
    base = init_model(micro_config(), RngState(4))
    base_path = str(tmp_path / "base.pfwa")
    save_model(base, base_path)
    attach_lora(base, LoraConfig(r=1), RngState(5))
    adapter_path = str(tmp_path / "adapter.pfwa")
    save_adapter(base, adapter_path)
    assert os.path.getsize(adapter_path) < os.path.getsize(base_path) / 2


def test_fingerprint_mismatch_rejected_without_mutation(tmp_path):
    base = init_model(micro_config(), RngState(6))
    attach_lora(base, LoraConfig(r=2), RngState(7))
    adapter_path = str(tmp_path / "adapter.pfwa")
    save_adapter(base, adapter_path)

    other = init_model(micro_config(), RngState(99))
    before = {n: p.data.copy() for n, p in other.params.items()}
    with pytest.raises(DataError, match="different base"):
        load_adapter(other, adapter_path)
    assert other.adapter_config is None
    for n, p in other.params.items():
        np.testing.assert_array_equal(p.data, before[n])


def test_fingerprint_ignores_adapter_weights():
    a = init_model(micro_config(), RngState(8))
    fp_plain = base_fingerprint(a)
    attach_lora(a, LoraConfig(r=2), RngState(9))
    assert base_fingerprint(a) == fp_plain


def test_bottleneck_adapter_roundtrip(tmp_path):
    base = init_model(micro_config(), RngState(10))
    base_path = str(tmp_path / "base.pfwa")
    save_model(base, base_path)
    attach_bottleneck(base, BottleneckAdapterConfig(bottleneck_dim=2), RngState(11))
    rng = np.random.default_rng(3)
    for n, p in base.params.items():
        if "_adapter.up.weight" in n:
            p.data = 0.1 * rng.standard_normal(p.data.shape).astype(np.float32)
    adapter_path = str(tmp_path / "adapter.pfwa")
    save_adapter(base, adapter_path)
    assert "quant_config" not in load_archive(adapter_path)[1]  # an f32 base

    restored = load_adapter(load_model(base_path), adapter_path)
    ids = rand_ids(np.random.default_rng(4), 1, 5, 32)
    np.testing.assert_array_equal(
        restored.forward_logits(ids).data, base.forward_logits(ids).data
    )


def test_save_adapter_without_adapters_raises(tmp_path):
    with pytest.raises(DataError, match="no adapters"):
        save_adapter(init_model(micro_config(), RngState(0)),
                     str(tmp_path / "x.pfwa"))


# -- malformed archives with valid checksums ----------------------------------


def write_raw(path, manifest, payload: bytes = b"") -> str:
    """An archive with any JSON manifest, framed and checksummed like save_archive."""
    text = json.dumps(manifest).encode("utf-8")
    body = MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(text)) + text + payload
    path.write_bytes(body + _checksum(body))
    return str(path)


def entry(**fields):
    ent = {"name": "w", "shape": [2], "dtype": "f32", "offset": 0, "length": 8}
    ent.update(fields)
    return ent


@pytest.mark.parametrize("manifest, field", [
    ({"meta": {}}, "tensors"),
    ([], "manifest"),
    ({"tensors": {}}, "tensors"),
    ({"tensors": [["w"]]}, "entry 0"),
    ({"tensors": [entry(length=12)]}, "length"),
    ({"tensors": [entry(shape=[3])]}, "length"),
    ({"tensors": [entry(shape=2)]}, "shape"),
    ({"tensors": [entry(shape=[-1, -2])]}, "shape"),
    ({"tensors": [entry(offset=True)]}, "offset"),
    ({"tensors": [entry(length="8")]}, "length"),
    ({"tensors": [entry(dtype=["f32"])]}, "dtype"),
    ({"tensors": [entry(name=3)]}, "name"),
    ({"tensors": [entry(), entry()]}, "twice"),
    ({"tensors": [], "meta": [1]}, "meta"),
])
def test_malformed_manifest_is_data_error(tmp_path, manifest, field):
    path = write_raw(tmp_path / "x.pfwa", manifest, bytes(8))
    with pytest.raises(DataError, match=field) as err:
        load_archive(path)
    assert path in str(err.value)


def test_model_archive_without_model_config_is_data_error(tmp_path):
    path = write_raw(tmp_path / "m.pfwa", {"tensors": [], "meta": {"kind": "model"}})
    with pytest.raises(DataError, match="model_config"):
        load_model(path)
    bad = {"kind": "model", "model_config": {"vocab_size": 32, "width": 8}}
    path = write_raw(tmp_path / "m2.pfwa", {"tensors": [], "meta": bad})
    with pytest.raises(DataError, match="model_config"):
        load_model(path)


def test_adapter_archive_without_fingerprint_is_data_error(tmp_path):
    path = write_raw(tmp_path / "a.pfwa", {"tensors": [], "meta": {"kind": "adapter"}})
    with pytest.raises(DataError, match="base_fingerprint"):
        load_adapter(init_model(micro_config(), RngState(0)), path)


def test_adapter_archive_with_foreign_tensor_is_data_error(tmp_path):
    base = init_model(micro_config(), RngState(6))
    meta = {"kind": "adapter", "base_fingerprint": base_fingerprint(base),
            "peft_method": "lora", "lora_config": asdict(LoraConfig(r=2))}
    path = write_raw(tmp_path / "a.pfwa", {"tensors": [entry()], "meta": meta}, bytes(8))
    with pytest.raises(DataError, match="'w'"):
        load_adapter(base, path)


# -- one table of bad archives ---------------------------------------------------

EXAMPLES = [TrainingExample(ids, ids) for ids in
            np.random.default_rng(0).integers(0, 32, (8, 10)).tolist()]


def _trainer(tmp_path, run: str, seed: int, paged: bool) -> Trainer:
    cfg = TrainConfig(output_dir=str(tmp_path / run), max_steps=4, save_steps=2,
                      per_device_train_batch_size=2, gradient_accumulation_steps=1,
                      optim="paged_adamw_32bit" if paged else "adamw_32bit",
                      paging_budget=3, seed=seed)
    return Trainer(init_model(micro_config(), RngState(seed)), EXAMPLES, cfg, pad_id=0)


def _good_archive(tmp_path, kind: str) -> str:
    """An intact archive of ``kind``, written from seed 6 (its base's)."""
    path = str(tmp_path / "good.pfwa")
    if kind in ("checkpoint", "paged"):
        _trainer(tmp_path, "src", 6, kind == "paged").train(stop_after=2)
        return str(tmp_path / "src" / "checkpoint-2" / "state.pfwa")
    (save_model if kind == "model" else save_adapter)(_attached(kind), path)
    return path


def _attached(kind: str):
    """The seed-6 base with a ``kind`` adapter attached ("model": none)."""
    if kind == "qlora":
        return _qlora_trained(6)
    trained = init_model(micro_config(), RngState(6))
    if kind == "lora":
        attach_lora(trained, LoraConfig(r=2), RngState(7))
    elif kind == "adapter":
        attach_bottleneck(trained, BottleneckAdapterConfig(bottleneck_dim=2), RngState(7))
    return trained


def _state(target) -> dict:
    """Everything a failed load must leave as it was."""
    tr = target if isinstance(target, Trainer) else None
    model = tr.model if tr else target
    state = {n: (p.data.tobytes(), p.requires_grad) for n, p in model.params.items()}
    state["slots"] = (model.adapter_config, model.quant_config,
                      [lin.qweight is None for lin in model.linears()])
    if tr:
        opt = tr.optimizer
        state["optimizer"] = ({k: v.tobytes() for k, v in opt.state_tensors().items()},
                              opt.step_count, opt.evictions)
        state["trainer"] = (tr.global_step, tr.epoch, tr.offset, list(tr.step_losses),
                            asdict(tr.window), tr.rng.get_state())
    return state


DEFECTS = ("foreign", "misshaped", "missing")
CHECKPOINT_DEFECTS = DEFECTS + ("misshaped_moment", "missing_moment", "rng_state",
                                "global_step")
ROWS = ([(d, k) for k in ("model", "lora", "adapter", "qlora") for d in DEFECTS]
        + [(d, k) for k in ("checkpoint", "paged") for d in CHECKPOINT_DEFECTS])


@pytest.mark.parametrize("defect, kind", ROWS, ids=[f"{d}-{k}" for d, k in ROWS])
def test_bad_adapter_archive_leaves_the_base_untouched(tmp_path, defect, kind):
    """Every archive kind (model, LoRA, bottleneck and QLoRA adapter, and
    checkpoint, paged or not) must hold exactly its tensors, and a checkpoint
    well-formed counters and PRNG state. A defect is a DataError naming the
    file and the tensor or field, raised before the target changes; the
    intact archive still loads onto the same target afterwards."""
    good = _good_archive(tmp_path, kind)
    tensors, meta = load_archive(good)
    victim = "optim.v.ln_f.bias" if defect.endswith("moment") else sorted(tensors)[0]
    named = {"foreign": "w", "rng_state": "rng_state", "global_step": "global_step"}
    if defect == "foreign":
        tensors["w"] = np.zeros(2, np.float32)
    elif defect.startswith("misshaped"):
        tensors[victim] = np.zeros(tensors[victim].shape + (1,), np.float32)
    elif defect.startswith("missing"):
        del tensors[victim]
    elif defect == "rng_state":
        del meta["rng_state"]["state"]
    else:
        meta["global_step"] = "x"
    bad = str(tmp_path / "bad.pfwa")
    save_archive(bad, tensors, meta)

    target, load = None, load_model
    if kind in ("checkpoint", "paged"):
        target = _trainer(tmp_path, "dst", 6, kind == "paged")
        target.train(stop_after=1)  # its state differs from the checkpoint's
        load = target.resume
    elif kind != "model":
        target = init_model(micro_config(), RngState(6))
        load = functools.partial(load_adapter, target)
    before = _state(target) if target else None
    with pytest.raises(DataError) as err:
        load(bad)
    if target:
        assert _state(target) == before
    assert bad in str(err.value) and repr(named.get(defect, victim)) in str(err.value)

    loaded = load(good)
    if kind == "model":  # the intact archive is the source model, bit for bit
        source = init_model(micro_config(), RngState(6))
        assert _state(loaded) == _state(source)
    elif kind in ("checkpoint", "paged"):
        assert loaded.global_step == 2


def _adapted(method: str):
    model = init_model(micro_config(), RngState(6))
    if method == "lora":
        return attach_lora(model, LoraConfig(r=2), RngState(7))
    return attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=2), RngState(7))


@pytest.mark.parametrize("first, second", [("lora", "adapter"), ("adapter", "lora"),
                                           ("lora", "lora"), ("adapter", "adapter")])
def test_a_model_carries_one_adapter(first, second):
    model = _adapted(first)
    before = _state(model)
    with pytest.raises(StateError, match="already"):
        if second == "lora":
            attach_lora(model, LoraConfig(r=2), RngState(8))
        else:
            attach_bottleneck(model, BottleneckAdapterConfig(bottleneck_dim=2), RngState(8))
    assert _state(model) == before


@pytest.mark.parametrize("archive", ["lora", "adapter", "qlora"])
@pytest.mark.parametrize("first", ["lora", "adapter"])
def test_load_adapter_refuses_an_adapted_base(tmp_path, first, archive):
    """Refused before the archive is read or the base quantized."""
    good = _good_archive(tmp_path, archive)
    base = _adapted(first)
    before = _state(base)
    with pytest.raises(StateError, match="already"):
        load_adapter(base, good)
    assert _state(base) == before


def test_malformed_archive_exits_2_from_the_cli(tmp_path, capsys):
    path = write_raw(tmp_path / "m.pfwa", [])
    assert main(["merge", "--base", path, "--adapter", path,
                 "--out", str(tmp_path / "o.pfwa")]) == 2
    assert "error:data:" in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
field_values = st.one_of(
    json_values, st.sampled_from(["w", "v", "f32", "u8", "i64"]),
    st.lists(st.integers(0, 4), max_size=3),
)
entries = st.dictionaries(
    st.sampled_from(["name", "shape", "dtype", "offset", "length"]), field_values,
).map(lambda d: {**entry(), **d})
manifests = st.one_of(
    json_values,
    st.fixed_dictionaries({"tensors": st.lists(entries | json_values, max_size=3)},
                          optional={"meta": json_values}),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=manifests, payload=st.binary(max_size=48))
def test_fuzzed_manifest_loads_or_is_data_error(tmp_path, manifest, payload):
    path = write_raw(tmp_path / "f.pfwa", manifest, payload)
    try:
        tensors, meta = load_archive(path)
    except DataError:
        return
    assert isinstance(meta, dict)
    assert all(isinstance(a, np.ndarray) for a in tensors.values())


# -- QLoRA adapters -------------------------------------------------------------


def _qlora_trained(seed: int):
    """A QLoRA model on an f32 base, with B nudged so the adapter matters."""
    model = init_model(micro_config(), RngState(seed))
    quantize_base(model, QuantConfig(block_size=16))
    attach_lora(model, LoraConfig(r=2, dropout=0.0), RngState(seed + 1))
    rng = np.random.default_rng(seed)
    for a in lora_pairs(model):
        a.B.data = 0.2 * rng.standard_normal(a.B.shape).astype(np.float32)
    return model


def test_qlora_adapter_reloads_onto_its_f32_base(tmp_path):
    base_path = str(tmp_path / "base.pfwa")
    save_model(init_model(micro_config(), RngState(12)), base_path)
    trained = _qlora_trained(12)
    adapter_path = str(tmp_path / "adapter.pfwa")
    save_adapter(trained, adapter_path)
    assert load_archive(adapter_path)[1]["quant_config"] == asdict(QuantConfig(block_size=16))

    restored = load_adapter(load_model(base_path), adapter_path)
    assert restored.quant_config == QuantConfig(block_size=16)
    for name, p in trained.params.items():
        assert restored.params[name].data.tobytes() == p.data.tobytes(), name
        assert restored.params[name].requires_grad == p.requires_grad, name
    ids = rand_ids(np.random.default_rng(5), 2, 8, 32)
    np.testing.assert_array_equal(restored.forward_logits(ids).data,
                                  trained.forward_logits(ids).data)


@pytest.mark.parametrize("kind", ["lora", "adapter", "qlora"])
def test_a_loaded_adapter_is_the_attached_one_and_draws_nothing(tmp_path, monkeypatch, kind):
    """load_adapter builds the adapter from the archive's tensors: it draws
    nothing, and gives the attached model's parameters in the same order,
    with the same bytes and trainable flags, its packed weights and its
    logits."""
    attached = _attached(kind)
    path = str(tmp_path / "a.pfwa")
    save_adapter(attached, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_adapter drew from an rng")

    base = init_model(micro_config(), RngState(6))
    monkeypatch.setattr(RngState, "gaussian", no_draw)
    loaded = load_adapter(base, path)

    def params(model):
        return [(n, p.data.tobytes(), p.requires_grad) for n, p in model.params.items()]

    assert params(loaded) == params(attached)
    for a, b in zip(loaded.linears(), attached.linears()):
        assert (a.qweight is None) == (b.qweight is None)
        if a.qweight is not None:
            assert a.qweight.packed.tobytes() == b.qweight.packed.tobytes()
    ids = rand_ids(np.random.default_rng(5), 2, 8, 32)
    np.testing.assert_array_equal(loaded.forward_logits(ids).data,
                                  attached.forward_logits(ids).data)


def test_a_qlora_load_quantizes_each_base_weight_once(tmp_path, monkeypatch):
    """One quantize_blockwise call per linear (8 on a 2-block base): the
    fingerprint is checked on the same results the base then adopts."""
    path = _good_archive(tmp_path, "qlora")
    calls = []
    real = quant.quantize_blockwise

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    for module in (peft, quant, store):  # wherever the name is bound
        if hasattr(module, "quantize_blockwise"):
            monkeypatch.setattr(module, "quantize_blockwise", counted)
    base = init_model(micro_config(), RngState(6))
    load_adapter(base, path)
    assert len(calls) == len(base.linears()) == 8
    assert base.quant_config == QuantConfig(block_size=16)


@pytest.mark.parametrize("field, value", [("block_size", 16.0), ("codebook", "fp4"),
                                          ("dq_group", "x")])
def test_malformed_quant_config_is_data_error(tmp_path, capsys, field, value):
    base_path = str(tmp_path / "base.pfwa")
    save_model(init_model(micro_config(), RngState(12)), base_path)
    good = str(tmp_path / "a.pfwa")
    save_adapter(_qlora_trained(12), good)
    tensors, meta = load_archive(good)
    meta["quant_config"][field] = value
    path = str(tmp_path / "bad.pfwa")
    save_archive(path, tensors, meta)
    with pytest.raises(DataError, match="quant_config"):
        load_adapter(load_model(base_path), path)
    assert main(["merge", "--base", base_path, "--adapter", path,
                 "--out", str(tmp_path / "o.pfwa")]) == 2
    assert capsys.readouterr().err.startswith("error:data:")


@pytest.mark.parametrize("key, field, value", [
    ("lora_config", "alpha", "x"), ("lora_config", "r", 2.0), ("lora_config", "r", True),
    ("lora_config", "dropout", None), ("lora_config", "target_modules", "q_proj"),
    ("bottleneck_config", "bottleneck_dim", "2")])
def test_mistyped_adapter_config_is_data_error_and_leaves_the_base_untouched(
        tmp_path, capsys, key, field, value):
    trained = init_model(micro_config(), RngState(16))
    if key == "lora_config":
        attach_lora(trained, LoraConfig(r=2), RngState(17))
    else:
        attach_bottleneck(trained, BottleneckAdapterConfig(bottleneck_dim=2), RngState(17))
    good = str(tmp_path / "good.pfwa")
    save_adapter(trained, good)
    tensors, meta = load_archive(good)
    meta[key][field] = value
    bad = str(tmp_path / "bad.pfwa")
    save_archive(bad, tensors, meta)

    base = init_model(micro_config(), RngState(16))
    before = {n: (p.data.tobytes(), p.requires_grad) for n, p in base.params.items()}
    with pytest.raises(DataError, match=rf"'{key}\.{field}' must be"):
        load_adapter(base, bad)
    assert base.adapter_config is None
    assert {n: (p.data.tobytes(), p.requires_grad) for n, p in base.params.items()} == before
    load_adapter(base, good)  # the intact archive still loads onto it

    base_path = str(tmp_path / "base.pfwa")
    save_model(init_model(micro_config(), RngState(16)), base_path)
    assert main(["merge", "--base", base_path, "--adapter", bad,
                 "--out", str(tmp_path / "o.pfwa")]) == 2
    assert f"'{key}.{field}'" in capsys.readouterr().err


def test_int_values_load_into_float_config_fields(tmp_path):
    trained = init_model(micro_config(), RngState(18))
    attach_lora(trained, LoraConfig(r=2, alpha=4.0, dropout=0.0), RngState(19))
    path = str(tmp_path / "a.pfwa")
    save_adapter(trained, path)
    tensors, meta = load_archive(path)
    meta["lora_config"].update(alpha=4, dropout=0)
    save_archive(path, tensors, meta)
    restored = load_adapter(init_model(micro_config(), RngState(18)), path)
    assert restored.adapter_config == LoraConfig(r=2, alpha=4.0, dropout=0.0)
    assert type(restored.adapter_config.alpha) is float


def test_qlora_fingerprint_mismatch_leaves_the_base_unchanged(tmp_path):
    adapter_path = str(tmp_path / "adapter.pfwa")
    save_adapter(_qlora_trained(15), adapter_path)
    other = init_model(micro_config(), RngState(99))
    before = {n: (p.data.tobytes(), p.requires_grad) for n, p in other.params.items()}
    with pytest.raises(DataError, match="different base"):
        load_adapter(other, adapter_path)
    assert other.adapter_config is None and other.quant_config is None
    assert all(lin.qweight is None for lin in other.linears())
    assert {n: (p.data.tobytes(), p.requires_grad) for n, p in other.params.items()} == before


# -- archives that carry retired config fields ----------------------------------

V1 = os.path.join(os.path.dirname(__file__), "data", "v1_archives")
# the fields that accepted one value, at that value, as the archives in V1
# carry them
RETIRED = {
    "model_config": {"mlp_ratio": 4, "positional": "learned_absolute",
                     "layer_norm_eps": 1e-5},
    "lora_config": {"bias_mode": "none", "task_type": "causal_lm"},
    "bottleneck_config": {"activation": "gelu"},
}


def test_archives_written_with_the_retired_fields_load():
    metas = {k: load_archive(os.path.join(V1, f"{k}.pfwa"))[1]
             for k in ("model", "lora", "bottleneck")}
    for kind, key in (("model", "model_config"), ("lora", "lora_config"),
                      ("bottleneck", "bottleneck_config")):
        assert RETIRED[key].items() <= metas[kind][key].items()
    base_path = os.path.join(V1, "model.pfwa")
    model = load_model(base_path)
    assert model.config == CausalLMConfig(vocab_size=32, d_model=8, n_heads=2,
                                          n_layers=2, seq_len=16)
    ids = rand_ids(np.random.default_rng(6), 2, 9, 32)
    plain = model.forward_logits(ids).data
    # the base fingerprints the adapters carry still match
    lora = load_adapter(load_model(base_path), os.path.join(V1, "lora.pfwa"))
    assert lora.adapter_config == LoraConfig(r=2, alpha=4.0, dropout=0.0,
                                              target_modules=["query_key_value",
                                                              "dense_4h_to_h"])
    bottleneck = load_adapter(load_model(base_path), os.path.join(V1, "bottleneck.pfwa"))
    assert bottleneck.adapter_config == BottleneckAdapterConfig(bottleneck_dim=2)
    for adapted in (lora, bottleneck):
        assert not np.array_equal(adapted.forward_logits(ids).data, plain)


@pytest.mark.parametrize("key, field, value, kind", [
    ("model_config", "mlp_ratio", 2, "model"),
    ("model_config", "positional", "rope", "model"),
    ("model_config", "layer_norm_eps", 1e-6, "model"),
    ("lora_config", "bias_mode", "all", "lora"),
    ("lora_config", "task_type", "seq_cls", "lora"),
    ("bottleneck_config", "activation", "relu", "bottleneck"),
])
def test_retired_field_at_another_value_is_data_error(tmp_path, capsys, key, field,
                                                      value, kind):
    tensors, meta = load_archive(os.path.join(V1, f"{kind}.pfwa"))
    meta[key][field] = value
    path = str(tmp_path / f"{kind}.pfwa")
    save_archive(path, tensors, meta)
    base, adapter = ((path, os.path.join(V1, "lora.pfwa")) if kind == "model"
                     else (os.path.join(V1, "model.pfwa"), path))
    with pytest.raises(DataError, match=f"{key}.*{field}"):
        load_adapter(load_model(base), adapter)
    assert main(["merge", "--base", base, "--adapter", adapter,
                 "--out", str(tmp_path / "o.pfwa")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and field in err
    assert not os.path.exists(tmp_path / "o.pfwa")


def test_base_fingerprint_is_pinned():
    """The fingerprint hashes the retired fields at their values, so it
    survives their removal: these digests were taken before ``layer_norm_eps``
    left ``CausalLMConfig``, and every adapter written since still matches."""
    model = init_model(micro_config(), RngState(6))
    assert base_fingerprint(model) == (
        "e6df65fab21231d100ff78b02b012c3b36009e6baceca427f95bf7dbf0094e11")
    quantized = quantize_linears(model, QuantConfig(block_size=16, dq_group=4))
    assert base_fingerprint(model, {n: w for n, (_, w) in quantized.items()}) == (
        "e07ec49b4c3bd37f2480151be023a4cac5bad533755a8d4ef2ff402da6a00758")


# -- streamed saves --------------------------------------------------------------


def edge_tensors() -> dict[str, np.ndarray]:
    """Inputs ``save_archive`` must flatten or convert: an empty and a 0-d
    tensor, a transposed view, and dtypes it stores as f32."""
    return {
        "empty": np.zeros((0, 3), np.float32),
        "transposed": (np.arange(12, dtype=np.float32).reshape(3, 4) / 7).T,
        "f64": np.linspace(-2, 2, 5),
        "i32": np.arange(-3, 3, dtype=np.int32),
        "bool": np.array([[True, False], [False, True]]),
        "big_endian": np.arange(4, dtype=">f4") * 1.5,
        "i64": np.arange(-2, 4, dtype=np.int64).reshape(2, 3),
        "u8": np.arange(250, 256, dtype=np.uint8),
        "scalar": np.array(0.25, np.float32),
    }


def test_streamed_save_writes_the_pinned_bytes(tmp_path):
    """The digest was taken when the archive was built in one buffer and
    written at once; the streamed save writes the same bytes."""
    path = tmp_path / "edge.pfwa"
    tensors = edge_tensors()
    save_archive(str(path), tensors, {"kind": "edge", "note": "ü"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4d5e31ab8d297d731bd08403b88b01c2d0e8a98bfa2f93973d16e01fe17ee359")
    back, meta = load_archive(str(path))
    assert meta == {"kind": "edge", "note": "ü"}
    for name, arr in tensors.items():
        want = arr if arr.dtype in (np.int64, np.uint8) else arr.astype(np.float32)
        assert back[name].dtype == want.dtype
        np.testing.assert_array_equal(back[name], np.atleast_1d(want))


def test_save_archive_holds_no_copy_of_the_archive(tmp_path):
    """A save of 4 MiB of tensors allocates at most 5% of the archive on top
    of the tensors; it used to hold three copies of it."""
    tensors = {"w": np.arange(2**20, dtype=np.float32), "ids": np.arange(1000),
               "q": np.zeros(5000, np.uint8), "empty": np.zeros((0, 4), np.float32)}
    path = str(tmp_path / "big.pfwa")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_archive(path, tensors, {"kind": "big"})
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 4 * 2**20
    assert peak <= 0.05 * size
    back, _ = load_archive(path)
    for name, arr in tensors.items():
        assert back[name].tobytes() == arr.tobytes()
