"""End-to-end CLI runs: exit codes, config merging, and the full
tokenize -> pretrain -> finetune -> merge -> generate chain on tiny settings."""

import json
import os

import numpy as np
import pytest

from tinypeft.cli import main
from tinypeft.store import load_model


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


def test_bad_csv_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo\nbar\n")
    assert main(["tokenizer-train", "--corpus", str(bad),
                 "--target_vocab", "300", "--out", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err.startswith("error:data:")


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


def test_unreadable_config_is_config_error(capsys, tmp_path):
    assert main(["pretrain", "--config", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error:config:")


def test_merged_model_loads_plain(workdir):
    merged = str(workdir["dir"] / "merged.pfwa")
    model = load_model(merged)
    assert model.lora_set is None
