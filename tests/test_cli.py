"""End-to-end CLI runs: exit codes, config merging, and the full
tokenize -> pretrain -> finetune -> merge -> generate chain on tiny settings."""

import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import tinypeft
from tinypeft import cli, peft, store
from tinypeft.bpe import TokenizerModel
from tinypeft.cli import main
from tinypeft.model import CausalLMConfig, init_model
from tinypeft.peft import BottleneckAdapterConfig, LoraConfig
from tinypeft.quant import QuantConfig
from tinypeft.rng import RngState
from tinypeft.store import load_adapter, load_archive, load_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, csv_path):
    """Shared artifacts for the pipeline tests, built once."""
    d = tmp_path_factory.mktemp("cli")
    tok = str(d / "tok.json")
    assert main(["tokenizer-train", "--corpus", csv_path,
                 "--target_vocab", "400", "--out", tok,
                 "--domain_terms", "KOSPI"]) == 0

    pre = str(d / "pretrain")
    assert main(["pretrain", "--csv", csv_path, "--tokenizer", tok,
                 "--output_dir", pre, "--d_model", "16", "--n_heads", "2",
                 "--n_layers", "1", "--seq_len", "128", "--max_steps", "3",
                 "--save_steps", "100", "--logging_steps", "100"]) == 0
    base = os.path.join(pre, "model.pfwa")
    assert os.path.exists(base)
    return {"dir": d, "tok": tok, "base": base, "csv": csv_path}


def test_prepare_data_output(workdir):
    out = str(workdir["dir"] / "data.json")
    assert main(["prepare-data", "--csv", workdir["csv"], "--tokenizer",
                 workdir["tok"], "--out", out, "--seq_len", "128"]) == 0
    doc = json.loads(open(out).read())
    assert doc["pad_id"] == 258 and doc["seq_len"] == 128
    assert len(doc["examples"]) >= 135
    e = doc["examples"][0]
    assert len(e["input_ids"]) == len(e["labels"])


def test_prepare_data_shuffles_exactly_when_augment_p_is_positive(workdir, tmp_path, capsys):
    def prepare(*flags) -> list:
        out = str(tmp_path / "data.json")
        assert main(["prepare-data", "--csv", workdir["csv"], "--tokenizer", workdir["tok"],
                     "--out", out, "--seed", "3", *flags]) == 0
        return json.loads(open(out).read())["examples"]

    plain = prepare()
    assert prepare("--augment_p", "0") == plain
    shuffled = prepare("--augment_p", "1")
    assert shuffled != plain and len(shuffled) == len(plain)
    # only answer words move, so every prompt keeps its tokens
    assert all(s["input_ids"][:8] == p["input_ids"][:8] for s, p in zip(shuffled, plain))
    assert main(["prepare-data", "--augment_shuffle"]) == 1
    assert "--augment_shuffle" in capsys.readouterr().err


def test_finetune_lora_and_merge_generate_equivalence(workdir):
    d = workdir["dir"]
    ft = str(d / "lora")
    assert main(["finetune", "--method", "lora", "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", ft, "--max_steps", "3", "--save_steps", "100",
                 "--logging_steps", "100", "--lora_rank", "2",
                 "--lora_dropout", "0.0"]) == 0
    adapter = os.path.join(ft, "adapter.pfwa")
    assert os.path.exists(adapter)

    merged = str(d / "merged.pfwa")
    assert main(["merge", "--base", workdir["base"], "--adapter", adapter,
                 "--out", merged]) == 0

    # adapted-at-runtime and merged models must produce the same greedy text
    import contextlib, io
    def run_capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return buf.getvalue()

    q = ["--question", "What is an Index?", "--max_new_tokens", "8"]
    a = run_capture(["generate", "--model", workdir["base"], "--adapter",
                     adapter, "--tokenizer", workdir["tok"], *q])
    b = run_capture(["generate", "--model", merged, "--tokenizer",
                     workdir["tok"], *q])
    assert a == b


def test_finetune_qlora_runs(workdir):
    ft = str(workdir["dir"] / "qlora")
    assert main(["finetune", "--method", "qlora", "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", ft, "--max_steps", "2", "--save_steps", "100",
                 "--logging_steps", "100", "--lora_rank", "2",
                 "--block_size", "16"]) == 0
    assert os.path.exists(os.path.join(ft, "adapter.pfwa"))


def test_qlora_adapter_reloads_in_every_command(workdir, capsys):
    """A QLoRA adapter records its QuantConfig: eval, merge, generate and
    compare quantize the f32 base the same way and attach it."""
    d, tok = workdir["dir"], workdir["tok"]
    ft = str(d / "qlora_reload")
    assert main(["finetune", "--method", "qlora", "--base", workdir["base"],
                 "--tokenizer", tok, "--csv", workdir["csv"], "--output_dir", ft,
                 "--max_steps", "4", "--save_steps", "100", "--logging_steps", "100",
                 "--lora_rank", "2", "--block_size", "16"]) == 0
    adapter = os.path.join(ft, "adapter.pfwa")
    merged = str(d / "qlora_merged.pfwa")
    q = ["--question", "What is an Index?", "--max_new_tokens", "4"]
    for argv in (["eval", "--model", workdir["base"], "--adapter", adapter,
                  "--tokenizer", tok, "--csv", workdir["csv"]],
                 ["merge", "--base", workdir["base"], "--adapter", adapter, "--out", merged],
                 ["generate", "--model", workdir["base"], "--adapter", adapter,
                  "--tokenizer", tok, *q],
                 ["compare", "--base", workdir["base"], "--adapter", adapter,
                  "--tokenizer", tok, *q]):
        assert main(argv) == 0, (argv[0], capsys.readouterr().err)

    # the merged f32 model computes what the reloaded adapter computes
    attached = load_adapter(load_model(workdir["base"]), adapter)
    assert attached.quant_config == QuantConfig(block_size=16)
    ids = np.random.default_rng(0).integers(0, 400, size=(2, 12))
    want = attached.forward_logits(ids).data
    got = load_model(merged).forward_logits(ids).data
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-5


def test_mistyped_adapter_config_exits_2_from_every_command(workdir, capsys):
    d, tok = workdir["dir"], workdir["tok"]
    model = load_model(workdir["base"])
    peft.attach_lora(model, LoraConfig(r=2), RngState(1))
    good = str(d / "typed_ok.pfwa")
    store.save_adapter(model, good)
    tensors, meta = load_archive(good)
    meta["lora_config"]["alpha"] = "x"
    bad = str(d / "typed_bad.pfwa")
    store.save_archive(bad, tensors, meta)
    q = ["--question", "What is an Index?", "--max_new_tokens", "2"]
    for argv in (["eval", "--model", workdir["base"], "--adapter", bad,
                  "--tokenizer", tok, "--csv", workdir["csv"]],
                 ["merge", "--base", workdir["base"], "--adapter", bad,
                  "--out", str(d / "typed_merged.pfwa")],
                 ["generate", "--model", workdir["base"], "--adapter", bad,
                  "--tokenizer", tok, *q],
                 ["compare", "--base", workdir["base"], "--adapter", bad,
                  "--tokenizer", tok, *q]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and "'lora_config.alpha' must be float" in err


def test_finetune_bottleneck_adapter_runs(workdir):
    ft = str(workdir["dir"] / "adapter")
    assert main(["finetune", "--method", "adapter", "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", ft, "--max_steps", "2", "--save_steps", "100",
                 "--logging_steps", "100", "--bottleneck_dim", "4"]) == 0
    assert os.path.exists(os.path.join(ft, "adapter.pfwa"))


def test_eval_emits_json(workdir, capsys):
    assert main(["eval", "--model", workdir["base"], "--tokenizer",
                 workdir["tok"], "--csv", workdir["csv"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "perplexity" in doc and np.isfinite(doc["perplexity"])


def test_eval_reports_what_it_did_not_compute_as_null(workdir, capsys):
    out = str(workdir["dir"] / "eval.json")
    assert main(["eval", "--model", workdir["base"], "--tokenizer", workdir["tok"],
                 "--csv", workdir["csv"], "--out", out]) == 0
    printed = json.loads(capsys.readouterr().out)
    with open(out, encoding="utf-8") as f:
        doc = json.load(f)
    assert doc == printed
    for key in ("exact_match", "bleu", "rouge_l"):
        assert doc[key] is None and doc["notes"][key].startswith("null:"), key
    assert doc["macro"] == {"precision": None, "recall": None, "f1": None}
    assert doc["notes"]["macro"].startswith("null:")
    assert doc["per_label"] == {}
    assert np.isfinite(doc["perplexity"]) and doc["n_examples"] > 0


def test_compare_report(workdir, capsys):
    adapter = str(workdir["dir"] / "lora" / "adapter.pfwa")
    assert main(["compare", "--base", workdir["base"], "--adapter", adapter,
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--question", "What is inflation?", "--max_new_tokens", "4"]) == 0
    out = capsys.readouterr().out
    assert "Pre-trained Original Model Response:" in out
    assert "Finetuning PEFT Model Response:" in out


def test_compare_config_with_a_string_question(workdir, capsys):
    adapter = str(workdir["dir"] / "lora" / "adapter.pfwa")
    cfg = str(workdir["dir"] / "cmp.json")
    json.dump({"base": workdir["base"], "adapter": adapter, "tokenizer": workdir["tok"],
               "question": "Why?", "max_new_tokens": 2}, open(cfg, "w"))
    assert main(["compare", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("Pre-trained Original Model Response:") == 1
    assert out.count("Finetuning PEFT Model Response:") == 1
    assert "Why?" in out


def test_config_file_merging_and_echo(workdir):
    d = workdir["dir"]
    cfg = str(d / "cfg.json")
    out_dir = str(d / "echo_run")
    json.dump({"csv": workdir["csv"], "tokenizer": workdir["tok"],
               "output_dir": out_dir, "max_steps": 2, "save_steps": 100,
               "logging_steps": 100, "d_model": 16, "n_heads": 2,
               "n_layers": 1, "max_grad_norm": 0.5}, open(cfg, "w"))
    # explicit flag overrides the config file value
    assert main(["pretrain", "--config", cfg, "--max_grad_norm", "0.25"]) == 0
    echo = json.loads(open(os.path.join(out_dir, "config.echo.json")).read())
    assert echo["max_grad_norm"] == 0.25
    assert echo["max_steps"] == 2


@pytest.mark.parametrize("command", ["prepare-data", "pretrain", "finetune", "sweep"])
def test_omitted_field_flags_yield_field_defaults(command):
    args = cli.build_parser().parse_args([command])
    eff = cli._effective(args)
    flags = [f for f in vars(args) if f in cli.FIELDS]
    assert flags
    for flag in flags:
        cls, name, _ = cli.FIELDS[flag]
        given = {"vocab_size": 300} if cls is CausalLMConfig else {}
        assert getattr(cli._config(cls, eff, **given), name) == getattr(cls(**given), name)


def test_flags_and_config_values_reach_the_configs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"double_quant": False, "lora_alpha": 16,
                               "target_modules": ["dense"], "epochs": None}))
    args = cli.build_parser().parse_args(
        ["finetune", "--config", str(cfg), "--codebook", "uniform4", "--lora_dropout", "0"])
    eff = cli._effective(args)
    assert cli._config(QuantConfig, eff) == QuantConfig(codebook="uniform4", double_quant=False)
    assert cli._config(LoraConfig, eff) == LoraConfig(alpha=16.0, dropout=0.0,
                                                      target_modules=["dense"])
    args = cli.build_parser().parse_args(
        ["finetune", "--double_quant", "false", "--target_modules", "dense,query_key_value"])
    eff = cli._effective(args)
    assert cli._config(QuantConfig, eff).double_quant is False
    assert cli._config(LoraConfig, eff).target_modules == ["dense", "query_key_value"]


@pytest.mark.parametrize("method, key, cls", [
    ("lora", "lora_config", LoraConfig),
    ("adapter", "bottleneck_config", BottleneckAdapterConfig),
])
def test_finetune_without_method_flags_uses_dataclass_defaults(workdir, method, key, cls):
    out_dir = str(workdir["dir"] / f"default_{method}")
    assert main(["finetune", "--method", method, "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", out_dir, "--max_steps", "1", "--save_steps", "100",
                 "--logging_steps", "100"]) == 0
    _, meta = load_archive(os.path.join(out_dir, "adapter.pfwa"))
    assert meta[key] == asdict(cls())


@pytest.mark.parametrize("flags, expected", [
    ([], LoraConfig()),
    (["--target_modules", "dense"], LoraConfig(target_modules=["dense"])),
])
def test_sweep_trial_lora_config_comes_from_lora_config(workdir, monkeypatch, flags, expected):
    seen = []
    attach = peft.attach_lora
    monkeypatch.setattr(peft, "attach_lora", lambda m, c, r: seen.append(c) or attach(m, c, r))
    space = workdir["dir"] / "lr_space.json"
    space.write_text(json.dumps({"learning_rate": [1e-4]}))
    assert main(["sweep", "--space", str(space), "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", str(workdir["dir"] / "default_sweep"), "--max_steps", "1",
                 "--save_steps", "100", "--logging_steps", "100", *flags]) == 0
    assert seen == [expected]


def test_echoed_config_reproduces_the_archive(workdir):
    first, second = str(workdir["dir"] / "echo_a"), str(workdir["dir"] / "echo_b")
    assert main(["finetune", "--method", "qlora", "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", first, "--max_steps", "2", "--save_steps", "100",
                 "--logging_steps", "100", "--lora_rank", "2", "--lora_alpha", "4",
                 "--target_modules", "query_key_value,dense", "--block_size", "16",
                 "--double_quant", "false"]) == 0
    echo = os.path.join(first, "config.echo.json")
    assert main(["finetune", "--config", echo, "--output_dir", second]) == 0
    a = open(os.path.join(first, "adapter.pfwa"), "rb").read()
    assert a == open(os.path.join(second, "adapter.pfwa"), "rb").read()


def test_sweep_grid(workdir):
    d = workdir["dir"]
    space = str(d / "space.json")
    json.dump({"learning_rate": [1e-4, 2e-4]}, open(space, "w"))
    out_dir = str(d / "sweep")
    assert main(["sweep", "--space", space, "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", out_dir, "--max_steps", "2",
                 "--save_steps", "100", "--logging_steps", "100",
                 "--lora_rank", "1"]) == 0
    rows = json.loads(open(os.path.join(out_dir, "sweep_results.json")).read())
    assert len(rows) == 2
    assert [r["rank"] for r in rows] == [1, 2]


# -- exit codes ---------------------------------------------------------------


def test_missing_required_is_config_error(capsys):
    assert main(["tokenizer-train"]) == 1
    assert capsys.readouterr().err.startswith("error:config:")


@pytest.mark.parametrize("flag", ["save_steps", "logging_steps",
                                  "gradient_accumulation_steps",
                                  "per_device_train_batch_size"])
def test_zero_counts_are_config_errors(workdir, capsys, flag):
    assert main(["finetune", "--base", workdir["base"], "--tokenizer", workdir["tok"],
                 "--csv", workdir["csv"], "--output_dir", str(workdir["dir"] / "zero"),
                 f"--{flag}", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and flag in err


@pytest.mark.parametrize("flag, value", [("n_heads", "0"), ("d_model", "-8"),
                                         ("n_heads", "-4"), ("n_layers", "-1")])
def test_model_sizes_below_one_are_config_errors(workdir, tmp_path, capsys, flag, value):
    out = tmp_path / "pre"
    assert main(["pretrain", "--csv", workdir["csv"], "--tokenizer", workdir["tok"],
                 "--output_dir", str(out), f"--{flag}", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and f"{flag} must be >= 1" in err, err
    assert "Traceback" not in err and not (out / "model.pfwa").exists()


def test_model_archive_with_zero_heads_is_data_error(workdir, tmp_path, capsys):
    tensors, meta = load_archive(workdir["base"])
    meta["model_config"]["n_heads"] = 0
    bad = str(tmp_path / "zero_heads.pfwa")
    store.save_archive(bad, tensors, meta)
    assert main(["eval", "--model", bad, "--tokenizer", workdir["tok"],
                 "--csv", workdir["csv"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error:data: {bad}: meta field 'model_config'"), err
    assert "n_heads must be >= 1" in err and "Traceback" not in err


def test_bad_csv_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo\nbar\n")
    assert main(["tokenizer-train", "--corpus", str(bad),
                 "--target_vocab", "300", "--out", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err.startswith("error:data:")


@pytest.mark.parametrize("name, text", [("header.csv", "question,answer\n"),
                                        ("empty.txt", "")])
def test_empty_corpus_is_data_error_in_every_command(workdir, tmp_path, capsys, name, text):
    corpus_file = tmp_path / name
    corpus_file.write_text(text)
    out = tmp_path / "t.json"
    assert main(["tokenizer-train", "--corpus", str(corpus_file),
                 "--target_vocab", "300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and str(corpus_file) in err
    assert not out.exists()
    if name.endswith(".csv"):  # the same rule in every command that reads a QA CSV
        for argv in (["prepare-data", "--out", str(tmp_path / "d.json")],
                     ["finetune", "--base", workdir["base"], "--output_dir", str(tmp_path / "ft")],
                     ["eval", "--model", workdir["base"]]):
            assert main([*argv, "--tokenizer", workdir["tok"], "--csv", str(corpus_file)]) == 2
            assert capsys.readouterr().err.startswith("error:data:")


def test_forward_blow_up_names_its_step(workdir, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pretrain", "--csv", workdir["csv"], "--tokenizer", workdir["tok"],
                     "--output_dir", str(tmp_path / "pre"), "--d_model", "16",
                     "--n_heads", "2", "--n_layers", "1", "--seq_len", "64",
                     "--max_steps", "4", "--save_steps", "100", "--learning_rate", "1e9"])
    err = capsys.readouterr().err
    assert code == 3 and re.match(r"error:runtime: step \d+: ", err), err
    assert "Warning" not in err and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


def test_corrupt_archive_is_data_error(workdir, tmp_path, capsys):
    junk = tmp_path / "junk.pfwa"
    junk.write_bytes(b"garbage")
    assert main(["generate", "--model", str(junk), "--tokenizer",
                 workdir["tok"], "--prompt", "x"]) == 2
    assert capsys.readouterr().err.startswith("error:data:")


@pytest.mark.parametrize("flags", [["--top_k", "-1"], ["--max_new_tokens", "-1"]])
def test_bad_generate_options_are_config_errors(workdir, capsys, flags):
    assert main(["generate", "--model", workdir["base"], "--tokenizer",
                 workdir["tok"], "--prompt", "x", "--mode", "temperature", *flags]) == 1
    assert capsys.readouterr().err.startswith("error:config:")


def test_sweep_over_unknown_key_is_config_error(workdir, capsys):
    space = workdir["dir"] / "bad_space.json"
    space.write_text(json.dumps({"learning_rat": [1e-4]}))
    assert main(["sweep", "--space", str(space), "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", str(workdir["dir"] / "bad_sweep")]) == 1
    assert "learning_rat" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ('{"lora_rank": ["2"]}', "lora_rank"),
    ('{"lora_rank": 2}', "lora_rank"),
    ("not json", "bad_space.json"),
])
def test_malformed_sweep_space_is_config_error(workdir, capsys, text, named):
    space = workdir["dir"] / "bad_space.json"
    space.write_text(text)
    assert main(["sweep", "--space", str(space), "--base", workdir["base"],
                 "--tokenizer", workdir["tok"], "--csv", workdir["csv"],
                 "--output_dir", str(workdir["dir"] / "bad_sweep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and str(space) in err and named in err


@pytest.mark.parametrize("text", [
    "{}",
    "not json",
    '{"examples": [{"input_ids": [1, 2], "labels": [1]}]}',
    '{"examples": [{"input_ids": [1, 2]}]}',
    '{"examples": [[1, 2]]}',
])
def test_malformed_data_file_is_data_error(workdir, tmp_path, capsys, text):
    data = tmp_path / "data.json"
    data.write_text(text)
    assert main(["eval", "--model", workdir["base"], "--tokenizer", workdir["tok"],
                 "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and str(data) in err


@pytest.fixture(scope="module")
def short_base(workdir):
    """An untrained base of 300 tokens, fewer than the workdir tokenizer's 400,
    and seq_len 64, which the default template's prompt fits."""
    path = str(workdir["dir"] / "short.pfwa")
    store.save_model(init_model(CausalLMConfig(vocab_size=300, d_model=8, n_heads=2,
                                               n_layers=1, seq_len=64), RngState(0)), path)
    return path


def _data(bad: dict) -> str:
    good = {"input_ids": [5, 6, 7], "labels": [-1, 6, 7]}
    return json.dumps({"examples": [good, bad]})


# one input per row that does not fit the short base: (file name, its text,
# the example and field the error names)
BAD_INPUTS = {
    "label_too_large": ("data.json", _data({"input_ids": [5, 6, 7], "labels": [5, 6, 99999]}),
                        "example 1: labels"),
    "label_negative": ("data.json", _data({"input_ids": [5, 6, 7], "labels": [-1, -5, 7]}),
                       "example 1: labels"),
    "id_too_large": ("data.json", _data({"input_ids": [5, 99999, 7], "labels": [5, 6, 7]}),
                     "example 1: input_ids"),
    "too_long": ("data.json", _data({"input_ids": [5] * 70, "labels": [5] * 70}),
                 "example 1: input_ids"),
    # labels[0] is never a target, so neither example scores a token
    "all_labels_masked": ("data.json", _data({"input_ids": [5, 6, 7], "labels": [-1, -1, -1]}),
                          "example 1: labels"),
    "only_first_label": ("data.json", _data({"input_ids": [5, 6, 7], "labels": [5, -1, -1]}),
                         "example 1: labels"),
    # the tokenizer's merges reach past the model's 300 ids; the empty answer
    # of row 2 is skipped, and the error names row 3, the first example built
    "csv_id_too_large": ("data.csv", "question,answer\nWhy?,\nWhat moved KOSPI?,KOSPI rose.\n",
                         "row 3: input_ids"),
}


@pytest.mark.parametrize("command", ["finetune", "eval"])
@pytest.mark.parametrize("row", sorted(BAD_INPUTS))
def test_data_outside_the_model_is_a_data_error(workdir, short_base, tmp_path, capsys,
                                                 command, row):
    """Every --data or --csv example must fit the model: ids in [0, V), labels
    there or -1, at most seq_len tokens, and a label other than -1 after the
    first. A misfit exits 2 naming the file, the example and the field, before
    a trainer starts its metrics log."""
    name, text, named = BAD_INPUTS[row]
    data = tmp_path / name
    data.write_text(text)
    out = tmp_path / "run"
    argv = (["finetune", "--base", short_base, "--output_dir", str(out), "--max_steps", "1"]
            if command == "finetune" else ["eval", "--model", short_base])
    source = "--csv" if name.endswith(".csv") else "--data"
    assert main(argv + ["--tokenizer", workdir["tok"], source, str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and "Traceback" not in err
    assert f"{data}: {named}" in err, err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("argv, named", [
    (["pretrain", "--max_steps", "x"], "--max_steps"),
    (["tokenizer-train", "--bogus", "1"], "--bogus"),
    (["finetune", "--double_quant", "flase"], "--double_quant"),
    ([], "command"),
])
def test_usage_errors_are_config_errors(capsys, argv, named):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and named in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["finetune", "--help"])
    assert e.value.code == 0
    assert "--lora_rank" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "generate"])
def test_a_closed_stdout_pipe_exits_quietly(workdir, command):
    """A reader that stops early, as in ``tinypeft eval ... | head -1``, is not
    an error: the command exits 141, as if killed by SIGPIPE, and writes
    nothing to stderr, at interpreter shutdown included."""
    flags = (["--csv", workdir["csv"]] if command == "eval"
             else ["--question", "What is an Index?", "--max_new_tokens", "4"])
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tinypeft.__file__))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the command starts: its first write finds no reader
    try:
        proc = subprocess.Popen([sys.executable, "-m", "tinypeft.cli", command, "--model",
                                 workdir["base"], "--tokenizer", workdir["tok"], *flags],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("command, doc, named", [
    ("pretrain", {"max_steps": "2"}, "max_steps"),
    ("pretrain", {"epochs": "x"}, "epochs"),
    ("pretrain", ["max_steps", 2], None),
    ("finetune", {"double_quant": "false"}, "double_quant"),
    ("finetune", {"target_modules": "dense"}, "target_modules"),
    ("pretrain", {"d_modle": 999}, "d_modle"),
])
def test_malformed_config_is_config_error(tmp_path, capsys, command, doc, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and str(cfg) in err
    assert named is None or named in err


@pytest.mark.parametrize("command, doc, named", [
    ("tokenizer-train", {"target_vocab": "x"}, "target_vocab"),
    ("tokenizer-train", {"domain_terms": ["KOSPI"]}, "domain_terms"),
    ("generate", {"max_new_tokens": "x"}, "max_new_tokens"),
    ("prepare-data", {"no_mask_prompt": "false"}, "no_mask_prompt"),
    ("compare", {"question": ["Why?", 3]}, "question"),
    ("sweep", {"budget": 2.0}, "budget"),
])
def test_config_values_of_plain_options_are_checked(tmp_path, capsys, command, doc, named):
    # options that set no dataclass field: the value must have the option's
    # type, bool for a switch and a list of strings for a repeatable option
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:") and str(cfg) in err and named in err


def test_config_values_of_plain_options_reach_the_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_mask_prompt": False, "seed": 3, "template": "t"}))
    eff = cli._effective(cli.build_parser().parse_args(["prepare-data", "--config", str(cfg)]))
    assert eff == {"no_mask_prompt": False, "seed": 3, "template": "t"}
    cfg.write_text(json.dumps({"temperature": 1, "top_k": 3, "prompt": "x"}))
    eff = cli._effective(cli.build_parser().parse_args(["generate", "--config", str(cfg)]))
    assert eff == {"temperature": 1.0, "top_k": 3, "prompt": "x"}
    assert type(eff["temperature"]) is float
    cfg.write_text(json.dumps({"question": "Why?"}))
    eff = cli._effective(cli.build_parser().parse_args(["compare", "--config", str(cfg)]))
    assert eff == {"question": ["Why?"]}


def test_unreadable_config_is_config_error(capsys, tmp_path):
    assert main(["pretrain", "--config", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:config:")


def test_merged_model_loads_plain(workdir):
    merged = str(workdir["dir"] / "merged.pfwa")
    model = load_model(merged)
    assert model.adapter_config is None
