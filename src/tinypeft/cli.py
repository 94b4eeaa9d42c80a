"""Command-line surface: the pretrain-from-scratch and fine-tune workflows
plus the supporting data / tokenizer / eval / compare / sweep commands.

Every command accepts --config <json> whose keys are the same names as the
flags; an explicit flag always overrides its config-file counterpart. The
effective configuration of any command with an --output_dir is echoed to
<output_dir>/config.echo.json. Exit codes: 0 ok, 1 usage/config, 2
data/format, 3 runtime.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace


from . import bpe, corpus, evals, peft, quant, store, trainer as trainer_mod
from .errors import ConfigError, DataError, TinyPeftError
from .model import CausalLMConfig, init_model
from .rng import RngState

TRAIN_KEYS = [
    "output_dir", "per_device_train_batch_size", "gradient_accumulation_steps",
    "optim", "save_strategy", "save_steps", "logging_steps", "learning_rate",
    "max_grad_norm", "max_steps", "warmup_ratio", "lr_scheduler_type", "seed",
    "epochs", "weight_decay", "paging_budget",
]
LORA_KEYS = ["lora_rank", "lora_alpha", "lora_dropout"]  # searchable by sweep


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--output_dir")
    p.add_argument("--per_device_train_batch_size", type=int)
    p.add_argument("--gradient_accumulation_steps", type=int)
    p.add_argument("--optim", choices=["adamw_32bit", "paged_adamw_32bit"])
    p.add_argument("--save_strategy")
    p.add_argument("--save_steps", type=int)
    p.add_argument("--logging_steps", type=int)
    p.add_argument("--learning_rate", type=float)
    p.add_argument("--max_grad_norm", type=float)
    p.add_argument("--max_steps", type=int)
    p.add_argument("--warmup_ratio", type=float)
    p.add_argument("--lr_scheduler_type", choices=["cosine", "constant"])
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--weight_decay", type=float)
    p.add_argument("--paging_budget", type=int)


def _add_lora_flags(p: argparse.ArgumentParser):
    p.add_argument("--lora_rank", type=int)
    p.add_argument("--lora_alpha", type=float)
    p.add_argument("--lora_dropout", type=float)
    p.add_argument("--target_modules")
    p.add_argument("--bottleneck_dim", type=int)


def _add_quant_flags(p: argparse.ArgumentParser):
    p.add_argument("--block_size", type=int)
    p.add_argument("--codebook", choices=["nf4", "uniform4"])
    p.add_argument("--double_quant", type=lambda s: s.lower() in ("1", "true", "yes"))
    p.add_argument("--dq_group", type=int)


def _effective(args: argparse.Namespace) -> dict:
    """Merge config file < explicit flags into one dict."""
    merged: dict = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, encoding="utf-8") as f:
                merged.update(json.load(f))
        except OSError as e:
            raise ConfigError(f"cannot read config {cfg_path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {cfg_path} is not valid JSON: {e}")
    for k, v in vars(args).items():
        if k in ("config", "command") or v is None:
            continue
        merged[k] = v
    return merged


def _echo_config(eff: dict):
    out_dir = eff.get("output_dir")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.echo.json"), "w", encoding="utf-8") as f:
        json.dump(eff, f, indent=2, sort_keys=True)


def _train_config(eff: dict) -> trainer_mod.TrainConfig:
    kwargs = {k: eff[k] for k in TRAIN_KEYS if k in eff}
    return trainer_mod.TrainConfig(**kwargs)


def _require(eff: dict, *keys: str) -> list:
    missing = [k for k in keys if not eff.get(k)]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")
    return [eff[k] for k in keys]


def _load_corpus_texts(path: str) -> list[str]:
    if path.endswith(".csv"):
        pairs = corpus.load_qa_csv(path)
        return [f"{p.question} {p.answer}" for p in pairs]
    try:
        with open(path, "rb") as f:
            raw = f.read()
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: invalid UTF-8 at byte offset {e.start}")


def _load_examples(eff: dict, tokenizer: bpe.TokenizerModel, seq_len: int,
                   mask_prompt: bool = True) -> list[corpus.TrainingExample]:
    if eff.get("data"):
        with open(eff["data"], encoding="utf-8") as f:
            doc = json.load(f)
        return [corpus.TrainingExample(e["input_ids"], e["labels"])
                for e in doc["examples"]]
    (csv_path,) = _require(eff, "csv")
    pairs = [corpus.preprocess_pair(p, corpus.PreprocessConfig())
             for p in corpus.load_qa_csv(csv_path)]
    examples, _ = corpus.build_examples(
        pairs, tokenizer, seq_len=seq_len, mask_prompt=mask_prompt
    )
    if not examples:
        raise DataError(f"{csv_path}: no usable examples")
    return examples


# -- commands ----------------------------------------------------------------


def cmd_tokenizer_train(eff: dict) -> int:
    corpus_path, target_vocab, out = _require(eff, "corpus", "target_vocab", "out")
    terms = [t for t in (eff.get("domain_terms") or "").split(",") if t]
    tok = bpe.train_bpe(_load_corpus_texts(corpus_path), int(target_vocab), terms)
    tok.save(out)
    print(f"tokenizer: vocab_size={tok.vocab_size} merges={len(tok.merges)} "
          f"domain_terms={len(terms)} -> {out}")
    return 0


def cmd_prepare_data(eff: dict) -> int:
    csv_path, tok_path, out = _require(eff, "csv", "tokenizer", "out")
    seq_len = int(eff.get("seq_len", 128))
    tok = bpe.TokenizerModel.load(tok_path)
    pcfg = corpus.PreprocessConfig(
        redact_patterns=[p for p in (eff.get("redact_patterns") or "").split("|") if p],
        augment_shuffle=bool(eff.get("augment_shuffle")),
        augment_p=float(eff.get("augment_p", 0.0)),
        profile=eff.get("profile", "lm"),
    )
    pairs = [corpus.preprocess_pair(p, pcfg) for p in corpus.load_qa_csv(csv_path)]
    if pcfg.augment_shuffle and pcfg.augment_p > 0:
        rng = RngState(int(eff.get("seed", 0)))
        pairs = [corpus.QAPair(p.question, corpus.augment_shuffle(p.answer, rng, pcfg.augment_p))
                 for p in pairs]
    examples, n_trunc = corpus.build_examples(
        pairs, tok, template=eff.get("template", corpus.DEFAULT_TRAIN_TEMPLATE),
        seq_len=seq_len, mask_prompt=not eff.get("no_mask_prompt", False),
    )
    doc = {
        "seq_len": seq_len,
        "pad_id": tok.specials.pad,
        "n_truncated": n_trunc,
        "examples": [{"input_ids": e.input_ids, "labels": e.labels} for e in examples],
    }
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    print(f"prepared {len(examples)} examples ({n_trunc} truncated) -> {out}")
    return 0


def _model_config_from(eff: dict, vocab_size: int) -> CausalLMConfig:
    return CausalLMConfig(
        vocab_size=vocab_size,
        d_model=int(eff.get("d_model", 64)),
        n_heads=int(eff.get("n_heads", 4)),
        n_layers=int(eff.get("n_layers", 2)),
        seq_len=int(eff.get("seq_len", 128)),
    )


def cmd_pretrain(eff: dict) -> int:
    tok_path, _ = _require(eff, "tokenizer", "output_dir")
    tok = bpe.TokenizerModel.load(tok_path)
    cfg = _train_config(eff)
    _echo_config(eff)
    mcfg = _model_config_from(eff, tok.vocab_size)
    model = init_model(mcfg, RngState(cfg.seed))
    examples = _load_examples(eff, tok, mcfg.seq_len, mask_prompt=False)
    tr = trainer_mod.Trainer(model, examples, cfg, tok.specials.pad)
    summary = tr.train()
    out = os.path.join(cfg.output_dir, "model.pfwa")
    store.save_model(model, out)
    print(json.dumps({"summary": summary, "model": out}))
    return 0


def cmd_finetune(eff: dict) -> int:
    method = eff.get("method", "lora")
    if method not in ("full", "lora", "qlora", "adapter"):
        raise ConfigError(f"unknown finetune method {method!r}")
    base_path, tok_path, _ = _require(eff, "base", "tokenizer", "output_dir")
    tok = bpe.TokenizerModel.load(tok_path)
    cfg = _train_config(eff)
    _echo_config(eff)
    model = store.load_model(base_path)
    rng = RngState(cfg.seed)

    if method == "qlora":
        qcfg = quant.QuantConfig(
            block_size=int(eff.get("block_size", 64)),
            codebook=eff.get("codebook", "nf4"),
            double_quant=bool(eff.get("double_quant", True)),
            dq_group=int(eff.get("dq_group", 256)),
        )
        peft.quantize_base(model, qcfg)
    if method in ("lora", "qlora"):
        lcfg = peft.LoraConfig(
            r=int(eff.get("lora_rank", 32)),
            alpha=float(eff.get("lora_alpha", 32)),
            dropout=float(eff.get("lora_dropout", 0.05)),
            target_modules=(eff.get("target_modules") or ",".join(peft.FIG12_TARGET_MODULES)).split(","),
        )
        peft.attach_lora(model, lcfg, rng)
    elif method == "adapter":
        bcfg = peft.BottleneckAdapterConfig(bottleneck_dim=int(eff.get("bottleneck_dim", 8)))
        peft.attach_bottleneck(model, bcfg, rng)

    examples = _load_examples(eff, tok, model.config.seq_len)
    tr = trainer_mod.Trainer(model, examples, cfg, tok.specials.pad)
    summary = tr.train()
    summary["trainable"] = peft.trainable_summary(model)
    if method == "full":
        out = os.path.join(cfg.output_dir, "model.pfwa")
        store.save_model(model, out)
    else:
        out = os.path.join(cfg.output_dir, "adapter.pfwa")
        store.save_adapter(model, out)
    print(json.dumps({"summary": summary, "artifact": out}))
    return 0


def cmd_merge(eff: dict) -> int:
    base_path, adapter_path, out = _require(eff, "base", "adapter", "out")
    model = store.load_model(base_path)
    store.load_adapter(model, adapter_path)
    if model.lora_set is None:
        raise DataError("merge requires a LoRA adapter archive")
    peft.merge_lora(model)
    store.save_model(model, out)
    print(f"merged model -> {out}")
    return 0


def _load_any_model(eff: dict):
    (model_path,) = _require(eff, "model")
    model = store.load_model(model_path)
    if eff.get("adapter"):
        store.load_adapter(model, eff["adapter"])
    return model


def cmd_generate(eff: dict) -> int:
    (tok_path,) = _require(eff, "tokenizer")
    tok = bpe.TokenizerModel.load(tok_path)
    model = _load_any_model(eff)
    if eff.get("question"):
        prompt = corpus.DEFAULT_INFER_TEMPLATE.format(question=eff["question"])
    elif eff.get("prompt"):
        prompt = eff["prompt"]
    else:
        raise ConfigError("need --prompt or --question")
    ids = [tok.specials.bos] + tok.tokenize(prompt)
    out_ids = model.generate(
        ids,
        max_new_tokens=int(eff.get("max_new_tokens", 48)),
        mode=eff.get("mode", "greedy"),
        temperature=float(eff.get("temperature", 1.0)),
        top_k=int(eff.get("top_k", 0)),
        rng=RngState(int(eff.get("seed", 0))),
        eos_id=tok.specials.eos,
    )
    print(prompt + tok.detokenize(out_ids[len(ids):]))
    return 0


def cmd_eval(eff: dict) -> int:
    (tok_path,) = _require(eff, "tokenizer")
    tok = bpe.TokenizerModel.load(tok_path)
    model = _load_any_model(eff)
    examples = _load_examples(eff, tok, model.config.seq_len)
    report = evals.eval_report(model, tok, examples)
    text = report.to_json()
    if eff.get("out"):
        with open(eff["out"], "w", encoding="utf-8") as f:
            f.write(text)
    print(text)
    return 0


def cmd_compare(eff: dict) -> int:
    base_path, adapter_path, tok_path = _require(eff, "base", "adapter", "tokenizer")
    tok = bpe.TokenizerModel.load(tok_path)
    base = store.load_model(base_path)
    adapted = store.load_adapter(store.load_model(base_path), adapter_path)
    questions = eff.get("question") or []
    if isinstance(questions, str):
        questions = [questions]
    if not isinstance(questions, list) or not all(isinstance(q, str) for q in questions):
        raise ConfigError("question must be a string or a list of strings")
    if not questions:
        raise ConfigError("need at least one --question")
    examples = None
    if eff.get("csv") or eff.get("data"):
        examples = _load_examples(eff, tok, base.config.seq_len)
    report = evals.compare_base_vs_adapted(
        base, adapted, tok, questions, eval_examples=examples,
        max_new_tokens=int(eff.get("max_new_tokens", 48)),
    )
    if eff.get("out"):
        with open(eff["out"], "w", encoding="utf-8") as f:
            f.write(report)
    print(report)
    return 0


def cmd_sweep(eff: dict) -> int:
    space_path, base_path, tok_path, _ = _require(
        eff, "space", "base", "tokenizer", "output_dir"
    )
    with open(space_path, encoding="utf-8") as f:
        space = json.load(f)
    if not isinstance(space, dict) or not space:
        raise ConfigError(f"{space_path}: search space must be a non-empty object")
    unknown = sorted(set(space) - set(TRAIN_KEYS) - set(LORA_KEYS))
    if unknown:
        raise ConfigError(f"{space_path}: cannot search over {', '.join(unknown)}")
    _echo_config(eff)
    tok = bpe.TokenizerModel.load(tok_path)
    base_cfg = _train_config(eff)
    examples = _load_examples(eff, tok, store.load_model(base_path).config.seq_len)
    holdout = max(1, len(examples) // 10)
    train_set, eval_set = examples[:-holdout], examples[-holdout:]

    def run_trial(overrides: dict) -> float:
        opts = {**eff, **overrides}
        tcfg = replace(base_cfg, **{k: v for k, v in overrides.items() if k in TRAIN_KEYS})
        tcfg = replace(tcfg, output_dir=os.path.join(
            base_cfg.output_dir, "trial-" + "-".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        ))
        model = store.load_model(base_path)
        peft.attach_lora(model, peft.LoraConfig(
            r=int(opts.get("lora_rank", 8)),
            alpha=float(opts.get("lora_alpha", 16)),
            dropout=float(opts.get("lora_dropout", 0.0)),
        ), RngState(tcfg.seed))
        tr = trainer_mod.Trainer(model, train_set, tcfg, tok.specials.pad)
        tr.train()
        return evals.perplexity(model, eval_set, tok.specials.pad)

    trials = trainer_mod.hyperparameter_search(
        space, run_trial,
        strategy=eff.get("strategy", "grid"),
        budget=int(eff["budget"]) if eff.get("budget") else None,
        seed=int(eff.get("seed", 0)),
    )
    rows = [{"rank": i + 1, "trial": t.index, "overrides": t.overrides,
             "objective": t.objective} for i, t in enumerate(trials)]
    out = os.path.join(base_cfg.output_dir, "sweep_results.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2)
    print(json.dumps(rows, indent=2))
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tinypeft",
                                 description="desk-scale PEFT toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenizer-train", help="train a byte-level BPE tokenizer")
    p.add_argument("--config")
    p.add_argument("--corpus")
    p.add_argument("--target_vocab", type=int)
    p.add_argument("--domain_terms")
    p.add_argument("--out")

    p = sub.add_parser("prepare-data", help="CSV -> tokenized instruction dataset")
    p.add_argument("--config")
    p.add_argument("--csv")
    p.add_argument("--tokenizer")
    p.add_argument("--out")
    p.add_argument("--seq_len", type=int)
    p.add_argument("--template")
    p.add_argument("--profile", choices=["lm", "analysis"])
    p.add_argument("--redact_patterns")
    p.add_argument("--augment_shuffle", action="store_true", default=None)
    p.add_argument("--augment_p", type=float)
    p.add_argument("--no_mask_prompt", action="store_true", default=None)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("pretrain", help="train a base model from scratch")
    p.add_argument("--config")
    p.add_argument("--csv")
    p.add_argument("--data")
    p.add_argument("--tokenizer")
    p.add_argument("--d_model", type=int)
    p.add_argument("--n_heads", type=int)
    p.add_argument("--n_layers", type=int)
    p.add_argument("--seq_len", type=int)
    _add_train_flags(p)

    p = sub.add_parser("finetune", help="PEFT or full fine-tuning of a base model")
    p.add_argument("--config")
    p.add_argument("--method", choices=["full", "lora", "qlora", "adapter"])
    p.add_argument("--base")
    p.add_argument("--csv")
    p.add_argument("--data")
    p.add_argument("--tokenizer")
    _add_train_flags(p)
    _add_lora_flags(p)
    _add_quant_flags(p)

    p = sub.add_parser("merge", help="fold an adapter into its base model")
    p.add_argument("--config")
    p.add_argument("--base")
    p.add_argument("--adapter")
    p.add_argument("--out")

    p = sub.add_parser("generate", help="complete a prompt or templated question")
    p.add_argument("--config")
    p.add_argument("--model")
    p.add_argument("--adapter")
    p.add_argument("--tokenizer")
    p.add_argument("--prompt")
    p.add_argument("--question")
    p.add_argument("--max_new_tokens", type=int)
    p.add_argument("--mode", choices=["greedy", "temperature"])
    p.add_argument("--temperature", type=float)
    p.add_argument("--top_k", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="quantitative evaluation report (JSON)")
    p.add_argument("--config")
    p.add_argument("--model")
    p.add_argument("--adapter")
    p.add_argument("--tokenizer")
    p.add_argument("--csv")
    p.add_argument("--data")
    p.add_argument("--out")

    p = sub.add_parser("compare", help="base vs adapted side-by-side report")
    p.add_argument("--config")
    p.add_argument("--base")
    p.add_argument("--adapter")
    p.add_argument("--tokenizer")
    p.add_argument("--question", action="append")
    p.add_argument("--csv")
    p.add_argument("--data")
    p.add_argument("--max_new_tokens", type=int)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="grid/random hyperparameter search")
    p.add_argument("--config")
    p.add_argument("--space")
    p.add_argument("--base")
    p.add_argument("--csv")
    p.add_argument("--data")
    p.add_argument("--tokenizer")
    p.add_argument("--strategy", choices=["grid", "random"])
    p.add_argument("--budget", type=int)
    _add_train_flags(p)
    _add_lora_flags(p)

    return ap


COMMANDS = {
    "tokenizer-train": cmd_tokenizer_train,
    "prepare-data": cmd_prepare_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "merge": cmd_merge,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        eff = _effective(args)
        return COMMANDS[args.command](eff)
    except ConfigError as e:
        print(f"error:config: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error:data: {e}", file=sys.stderr)
        return 2
    except TinyPeftError as e:
        print(f"error:runtime: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error:runtime: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
