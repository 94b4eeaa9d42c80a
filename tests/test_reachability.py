"""Every library function has a caller.

Each of the nine CLI commands runs once in-process on tiny settings while a
profile hook records every code object entered. A function, method or
property of ``src/tinypeft`` that no command enters must be listed in
``UNREACHED`` with the reason it stays; the check fails both when an
unlisted function goes unreached and when a listed one becomes reachable,
so the list stays exact. Dataclass-generated methods have no source in the
package and are not counted; nested functions are not enumerated.
"""

import importlib
import inspect
import json
import os
import pkgutil
import sys

import pytest

import tinypeft
from tinypeft.cli import main

RESUME = "resumes a checkpoint, which no command does yet"
BENCH = "called by bench/workloads.py; eval does not score generations or labels yet"
EVAL = "eval does not score generations or labels yet"

UNREACHED = {
    "trainer.Trainer.resume": RESUME,
    "rng.RngState.set_state": RESUME,
    "optim.AdamW.load_state_tensors": RESUME,
    "optim.AdamW._put_moments": RESUME,
    "evals.bleu": BENCH,
    "evals.rouge_l": BENCH,
    "evals._ngrams": BENCH,
    "evals._lcs_len": BENCH,
    "evals.classify_by_likelihood": BENCH,
    "evals._log_softmax": BENCH,
    "evals.classification_metrics": EVAL,
    "evals.exact_match": EVAL,
    "quant.build_nf4_codebook": "runs once, at import, to build CODEBOOKS",
}


def library_functions() -> dict[str, object]:
    """'module.qualname' -> code object of every function, method and
    property defined in a tinypeft module."""
    found = {}
    for info in pkgutil.iter_modules(tinypeft.__path__):
        mod = importlib.import_module(f"tinypeft.{info.name}")
        owners = [mod] + [c for c in vars(mod).values()
                          if inspect.isclass(c) and c.__module__ == mod.__name__]
        for owner in owners:
            for value in vars(owner).values():
                if isinstance(value, property):
                    fns = [value.fget, value.fset]
                else:
                    fns = [getattr(value, "__func__", value)]  # static and class methods
                for fn in fns:
                    fn = inspect.unwrap(fn) if callable(fn) else None
                    if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                        found[f"{info.name}.{fn.__qualname__}"] = fn.__code__
    return found


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


ROWS = [("What is an index?", "A basket of 200 stocks. It tracks the market."),
        ("What is a bond?", "A loan to an issuer. It pays 5 percent a year."),
        ("What is KOSPI?", "The Korean index. It lists 800 firms."),
        ("What is a yield?", "Income over price. It moves against the price."),
        ("What is a fund?", "A pool of money. Managers invest it."),
        ("What is a share?", "A part of a firm. It may pay a dividend.")]


def run_every_command(d):
    """The nine commands, each down the paths that some function hangs on."""
    tok, data, base = str(d / "tok.json"), str(d / "data.json"), str(d / "base")
    model = os.path.join(base, "model.pfwa")
    csv_path = _write(d / "qa.csv", "question,answer\n" + "".join(
        f'"{q}","{a}"\n' for q, a in ROWS))
    lines = _write(d / "corpus.txt", "The KOSPI index rose.\nBonds fell, then rose.\n")
    small = ["--d_model", "16", "--n_heads", "2", "--n_layers", "1", "--seq_len", "96"]
    steps = ["--max_steps", "2", "--save_steps", "1", "--logging_steps", "1",
             "--per_device_train_batch_size", "1", "--gradient_accumulation_steps", "1"]
    data_flags = ["--csv", csv_path, "--tokenizer", tok]
    out = {}

    def run(*argv, code=0):
        assert main(list(argv)) == code, argv

    run("tokenizer-train", "--corpus", lines, "--target_vocab", "270", "--out", tok)
    run("tokenizer-train", "--corpus", csv_path, "--target_vocab", "300",
        "--domain_terms", "KOSPI", "--out", tok)
    run("prepare-data", *data_flags, "--out", data, "--seq_len", "96",
        "--redact_patterns", r"\d+", "--augment_p", "0.5", "--seed", "1", "--no_mask_prompt")
    run("pretrain", "--data", data, "--tokenizer", tok, *small, *steps,
        "--output_dir", str(d / "pre"))
    run("pretrain", *data_flags, *small, *steps, "--output_dir", base)
    for method, extra in (("full", ["--lr_scheduler_type", "constant", "--epochs", "1"]),
                          ("lora", ["--optim", "paged_adamw_32bit", "--paging_budget", "1"]),
                          ("qlora", ["--double_quant", "true", "--block_size", "16"]),
                          ("adapter", ["--bottleneck_dim", "4"])):
        out[method] = str(d / method)
        run("finetune", "--method", method, "--base", model, *data_flags, *steps, *extra,
            "--output_dir", out[method])
    for method in ("lora", "qlora"):
        run("merge", "--base", model, "--adapter", os.path.join(out[method], "adapter.pfwa"),
            "--out", str(d / f"{method}-merged.pfwa"))
    adapter = os.path.join(out["lora"], "adapter.pfwa")
    run("generate", "--model", model, "--adapter", adapter, "--tokenizer", tok,
        "--question", "What is an Index?", "--max_new_tokens", "4")
    # a prompt longer than the 95-token window: every step slides it
    config = _write(d / "gen.json", json.dumps(
        {"prompt": "Bonds fell. " * 40, "mode": "temperature", "temperature": 0.8,
         "top_k": 5, "max_new_tokens": 4}))
    run("generate", "--config", config, "--model", model, "--tokenizer", tok)
    run("eval", "--model", model, "--adapter", adapter, *data_flags, "--out", str(d / "ev.json"))
    run("compare", "--base", model, "--adapter", os.path.join(out["adapter"], "adapter.pfwa"),
        "--tokenizer", tok, "--data", data, "--question", "Why?", "--max_new_tokens", "2")
    space = _write(d / "space.json", json.dumps({"learning_rate": [1e-3, 2e-3]}))
    for strategy in (["--strategy", "grid"], ["--strategy", "random", "--budget", "1"]):
        run("sweep", "--space", space, "--base", model, *data_flags, *steps, *strategy,
            "--output_dir", str(d / "sweep"))
    run("pretrain", "--max_steps", "x", code=1)


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    d = tmp_path_factory.mktemp("reach")
    sys.setprofile(hook)
    try:
        run_every_command(d)
    finally:
        sys.setprofile(None)
    return codes


def test_unreached_functions_are_exactly_the_listed_ones(entered, capsys):
    unreached = {name for name, code in library_functions().items() if code not in entered}
    capsys.readouterr()
    stray = sorted(unreached - set(UNREACHED))
    assert not stray, f"no command reaches {stray}: wire them into one or delete them"
    reached = sorted(set(UNREACHED) - unreached)
    assert not reached, f"a command reaches {reached}: take them off UNREACHED"


def test_the_enumeration_sees_methods_properties_and_wrapped_functions():
    names = library_functions()
    for name in ("cli.main", "tensor.Tensor.shape", "model.CausalLM.folded",
                 "bpe.TokenizerModel.from_json", "tensor._causal_bias", "trainer.Trainer.resume"):
        assert name in names
    assert not any(n.endswith((".__eq__", "QAPair.__init__")) for n in names)
