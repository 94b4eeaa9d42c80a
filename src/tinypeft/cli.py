"""Command-line surface: the pretrain-from-scratch and fine-tune workflows
plus the supporting data / tokenizer / eval / compare / sweep commands.

A flag that sets a config-dataclass field (``TrainConfig``,
``CausalLMConfig``, ``LoraConfig``, ...) takes its name, type and default
from that field; only the LoRA flags are renamed (``lora_rank``,
``lora_alpha``, ``lora_dropout``). Every command accepts --config <json>
whose keys are its flag names. A config value must have its field's or
option's type (bool for a switch, a list of strings for a repeatable
option), and an unknown key or a wrong type is a config error; an
explicit flag always overrides its config-file counterpart. The effective
configuration of any command with an --output_dir is echoed to
<output_dir>/config.echo.json once its inputs are read. Exit codes: 0 ok,
1 usage/config, 2 data/format, 3 runtime, and 141 (as if killed by
SIGPIPE) when the reader of stdout has gone. An input file that cannot be
read or decoded as UTF-8 is a data error naming it (a config error for
--config and --space), and a command that fails on its inputs writes
nothing. A --tokenizer whose vocab_size differs from its model's is a data
error naming both files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing

from . import bpe, corpus, evals, peft, quant, store, trainer as trainer_mod
from .errors import ConfigError, DataError, TinyPeftError, read_text
from .model import CausalLMConfig, init_model
from .rng import RngState
from .trainer import TrainConfig

_NO_FLAG = {"vocab_size"}  # the one field without a flag: the tokenizer sets it
_RENAMED = {"r": "lora_rank", "alpha": "lora_alpha", "dropout": "lora_dropout"}
# flag -> (config class, field name, field type), for every flag that sets a field
FIELDS = {_RENAMED.get(name, name): (cls, name, hint)
          for cls in (CausalLMConfig, corpus.PreprocessConfig, TrainConfig,
                      peft.LoraConfig, peft.BottleneckAdapterConfig, quant.QuantConfig)
          for name, hint in typing.get_type_hints(cls).items() if name not in _NO_FLAG}
_SEPARATORS = {"target_modules": ",", "redact_patterns": "|"}  # of list fields on the command line


def _flags(*classes) -> list[str]:
    return [flag for flag, (cls, _, _) in FIELDS.items() if cls in classes]


def _parse_bool(text: str) -> bool:
    value = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return value


def _add_fields(p: argparse.ArgumentParser, *flags: str):
    """Declare field-backed flags. None has an argparse default, so an unset
    flag leaves its field's default in force."""
    for flag in flags:
        hint = FIELDS[flag][2]
        if hint is bool:
            p.add_argument("--" + flag, type=_parse_bool, nargs="?", const=True)
        elif hint == list[str]:
            sep = _SEPARATORS[flag]
            p.add_argument("--" + flag, type=lambda s, sep=sep: [t for t in s.split(sep) if t])
        else:
            p.add_argument("--" + flag, type=int if hint == int | None else hint)


def _hint(action: argparse.Action):
    """The type a config value of an option that sets no field must have."""
    if action.nargs == 0:
        return bool  # store_true
    if isinstance(action, argparse._AppendAction):
        return list[str]
    return action.type or str


def _check(path: str, key: str, value, hint):
    """A config-file value checked against its option's type (an int is
    taken for a float)."""
    try:
        return store.check_type(value, hint)
    except TypeError as e:
        raise ConfigError(f"{path}: {key} {e}")


def _read_json(path: str, error: type[TinyPeftError]):
    try:
        return json.loads(read_text(path, error))
    except ValueError as e:
        raise error(f"cannot read {path} as JSON: {e}")


def _effective(args: argparse.Namespace) -> dict:
    """Merge config file < explicit flags into one dict of checked values."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "command")}
    merged: dict = {}
    if args.config:
        doc = _read_json(args.config, ConfigError)
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
        # the command's options give the types of the keys that set no field
        actions = {a.dest: a for a in build_parser().commands[args.command]._actions}
        for k, v in doc.items():
            if k not in flags:
                raise ConfigError(f"config {args.config}: unknown key {k!r}")
            if k in FIELDS:
                hint = FIELDS[k][2]
            else:
                hint = _hint(actions[k])
                if hint == list[str] and type(v) is str:
                    v = [v]  # one value of a repeatable option
            merged[k] = _check(args.config, k, v, hint)
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


def _config(cls, eff: dict, **given):
    """Build cls from the options that set its fields; the others keep
    their defaults."""
    return cls(**{name: eff[flag] for flag, (c, name, _) in FIELDS.items()
                  if c is cls and flag in eff}, **given)


def _echo_config(eff: dict):
    os.makedirs(eff["output_dir"], exist_ok=True)
    with open(os.path.join(eff["output_dir"], "config.echo.json"), "w", encoding="utf-8") as f:
        json.dump(eff, f, indent=2, sort_keys=True)


def _given(eff: dict, *keys: str) -> dict:
    """The options among ``keys`` that are set, as keywords, so an unset one
    leaves the called function's default in force."""
    return {k: eff[k] for k in keys if k in eff}


def _require(eff: dict, *keys: str) -> list:
    missing = [k for k in keys if not eff.get(k)]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")
    return [eff[k] for k in keys]


def _load_pairs(path: str, pcfg: corpus.PreprocessConfig | None = None) -> list[corpus.QAPair]:
    """A QA CSV's pairs, preprocessed by pcfg (by default the lm profile)."""
    pcfg = pcfg or corpus.PreprocessConfig()
    return [corpus.preprocess_pair(p, pcfg) for p in corpus.load_qa_csv(path)]


def _load_examples(eff: dict, tokenizer: bpe.TokenizerModel, config: CausalLMConfig,
                   mask_prompt: bool = True) -> list[corpus.TrainingExample]:
    """The --data or --csv examples. One that does not fit the model (its
    length, ids or labels) or scores no token is a DataError naming the file,
    the field, and the example's index in --data or its row in --csv."""
    if eff.get("data"):
        path = eff["data"]
        doc = _read_json(path, DataError)
        if not isinstance(doc, dict) or not isinstance(doc.get("examples"), list):
            raise DataError(f"{path}: needs an 'examples' list")
        examples = []
        for i, e in enumerate(doc["examples"]):
            e = e if isinstance(e, dict) else {}
            ids, labels = e.get("input_ids"), e.get("labels")
            if not (type(ids) is list and type(labels) is list and len(ids) == len(labels)
                    and all(type(t) is int for t in ids + labels)):
                raise DataError(f"{path}: example {i} needs equal-length input_ids and labels lists of ints")
            examples.append(corpus.TrainingExample(ids, labels))
    else:
        (path,) = _require(eff, "csv")
        examples, _ = corpus.build_examples(_load_pairs(path), tokenizer,
                                            seq_len=config.seq_len, mask_prompt=mask_prompt)
    if not examples:
        raise DataError(f"{path}: no usable examples")
    V, n = config.vocab_size, config.seq_len
    for i, e in enumerate(examples):
        where = f"{path}: example {i}" if e.row is None else f"{path}: row {e.row}"
        if len(e.input_ids) > n:
            raise DataError(f"{where}: input_ids has {len(e.input_ids)} tokens, "
                            f"more than seq_len {n}")
        for field, values, spare in (("input_ids", e.input_ids, None),
                                     ("labels", e.labels, corpus.IGNORE_LABEL)):
            bad = [t for t in values if t != spare and not 0 <= t < V]
            if bad:
                also = "" if spare is None else f" and not {spare}"
                raise DataError(f"{where}: {field} holds {bad[0]}, "
                                f"outside [0, {V}){also}")
        if all(t == corpus.IGNORE_LABEL for t in e.labels[1:]):
            raise DataError(f"{where}: labels score no token: every label "
                            f"after the first is {corpus.IGNORE_LABEL}")
    return examples


# -- commands ----------------------------------------------------------------


def cmd_tokenizer_train(eff: dict) -> int:
    corpus_path, target_vocab, out = _require(eff, "corpus", "target_vocab", "out")
    terms = [t for t in (eff.get("domain_terms") or "").split(",") if t]
    if corpus_path.endswith(".csv"):
        texts = [f"{p.question} {p.answer}" for p in _load_pairs(corpus_path)]
    else:
        texts = read_text(corpus_path).splitlines()
    if not any(t.strip() for t in texts):
        raise DataError(f"{corpus_path}: no text to train a tokenizer on")
    tok = bpe.train_bpe(texts, target_vocab, terms)
    tok.save(out)
    print(f"tokenizer: vocab_size={tok.vocab_size} merges={len(tok.merges)} "
          f"domain_terms={len(terms)} -> {out}")
    return 0


def cmd_prepare_data(eff: dict) -> int:
    csv_path, tok_path, out = _require(eff, "csv", "tokenizer", "out")
    tok = bpe.TokenizerModel.load(tok_path)
    seq_len = _config(CausalLMConfig, eff, vocab_size=tok.vocab_size).seq_len
    pcfg = _config(corpus.PreprocessConfig, eff)
    pairs = _load_pairs(csv_path, pcfg)
    rng = RngState(eff.get("seed", 0))  # draws nothing at augment_p 0
    pairs = [corpus.QAPair(p.question, corpus.augment_shuffle(p.answer, rng, pcfg.augment_p),
                           p.row) for p in pairs]
    examples, n_trunc = corpus.build_examples(
        pairs, tok, seq_len=seq_len, mask_prompt=not eff.get("no_mask_prompt", False),
        **_given(eff, "template"),
    )
    if not examples:
        raise DataError(f"{csv_path}: no usable examples")
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


def cmd_pretrain(eff: dict) -> int:
    tok_path, _ = _require(eff, "tokenizer", "output_dir")
    tok = bpe.TokenizerModel.load(tok_path)
    cfg = _config(TrainConfig, eff)
    mcfg = _config(CausalLMConfig, eff, vocab_size=tok.vocab_size)
    examples = _load_examples(eff, tok, mcfg, mask_prompt=False)
    _echo_config(eff)
    model = init_model(mcfg, RngState(cfg.seed))
    tr = trainer_mod.Trainer(model, examples, cfg, tok.specials.pad)
    summary = tr.train()
    out = os.path.join(cfg.output_dir, "model.pfwa")
    store.save_model(model, out)
    print(json.dumps({"summary": summary, "model": out}))
    return 0


def _load_model(model_path: str, tok_path: str):
    """The model archive and the tokenizer it runs with. A tokenizer whose
    vocab_size is not the model's would map ids to other text: a DataError
    naming both files and both sizes."""
    tok = bpe.TokenizerModel.load(tok_path)
    model = store.load_model(model_path)
    if tok.vocab_size != model.config.vocab_size:
        raise DataError(f"{tok_path}: tokenizer vocab_size {tok.vocab_size} differs from "
                        f"model {model_path} vocab_size {model.config.vocab_size}")
    return model, tok


def _finetune(opts: dict, model, tok: bpe.TokenizerModel,
              examples: list[corpus.TrainingExample]) -> dict:
    """Quantize and attach what opts' method trains, drawing from the seed's
    stream, then train model on examples; returns the trainer's summary."""
    cfg = _config(TrainConfig, opts)
    method = opts.get("method", "lora")
    rng = RngState(cfg.seed)
    if method == "qlora":
        peft.quantize_base(model, _config(quant.QuantConfig, opts))
    if method in ("lora", "qlora"):
        peft.attach_lora(model, _config(peft.LoraConfig, opts), rng)
    elif method == "adapter":
        peft.attach_bottleneck(model, _config(peft.BottleneckAdapterConfig, opts), rng)
    return trainer_mod.Trainer(model, examples, cfg, tok.specials.pad).train()


def cmd_finetune(eff: dict) -> int:
    method = eff.get("method", "lora")
    if method not in ("full", "lora", "qlora", "adapter"):
        raise ConfigError(f"unknown finetune method {method!r}")
    base_path, tok_path, out_dir = _require(eff, "base", "tokenizer", "output_dir")
    _config(TrainConfig, eff)  # a bad training value is a config error before any file
    model, tok = _load_model(base_path, tok_path)
    examples = _load_examples(eff, tok, model.config)
    _echo_config(eff)
    summary = _finetune(eff, model, tok, examples)
    summary["trainable"] = peft.trainable_summary(model)
    out = os.path.join(out_dir, "model.pfwa" if method == "full" else "adapter.pfwa")
    (store.save_model if method == "full" else store.save_adapter)(model, out)
    print(json.dumps({"summary": summary, "artifact": out}))
    return 0


def cmd_merge(eff: dict) -> int:
    base_path, adapter_path, out = _require(eff, "base", "adapter", "out")
    model = store.load_model(base_path)
    store.load_adapter(model, adapter_path)
    if not isinstance(model.adapter_config, peft.LoraConfig):
        raise DataError("merge requires a LoRA adapter archive")
    peft.merge_lora(model)
    store.save_model(model, out)
    print(f"merged model -> {out}")
    return 0


def cmd_generate(eff: dict) -> int:
    model_path, tok_path = _require(eff, "model", "tokenizer")
    if eff.get("question"):
        prompt = corpus.DEFAULT_INFER_TEMPLATE.format(question=eff["question"])
    elif eff.get("prompt"):
        prompt = eff["prompt"]
    else:
        raise ConfigError("need --prompt or --question")
    model, tok = _load_model(model_path, tok_path)
    if eff.get("adapter"):
        store.load_adapter(model, eff["adapter"])
    ids = [tok.specials.bos] + tok.tokenize(prompt)
    out_ids = model.generate(
        ids,
        max_new_tokens=eff.get("max_new_tokens", evals.MAX_NEW_TOKENS),
        rng=RngState(eff.get("seed", 0)),
        eos_id=tok.specials.eos,
        **_given(eff, "mode", "temperature", "top_k"),
    )
    print(prompt + tok.detokenize(out_ids[len(ids):]))
    return 0


def cmd_eval(eff: dict) -> int:
    model, tok = _load_model(*_require(eff, "model", "tokenizer"))
    if eff.get("adapter"):
        store.load_adapter(model, eff["adapter"])
    examples = _load_examples(eff, tok, model.config)
    report = evals.eval_report(model, tok, examples)
    text = report.to_json()
    if eff.get("out"):
        with open(eff["out"], "w", encoding="utf-8") as f:
            f.write(text)
    print(text)
    return 0


def cmd_compare(eff: dict) -> int:
    base_path, adapter_path, tok_path = _require(eff, "base", "adapter", "tokenizer")
    questions = eff.get("question")
    if not questions:
        raise ConfigError("need at least one --question")
    base, tok = _load_model(base_path, tok_path)
    adapted = store.load_adapter(store.load_model(base_path), adapter_path)
    examples = None
    if eff.get("csv") or eff.get("data"):
        examples = _load_examples(eff, tok, base.config)
    report = evals.compare_base_vs_adapted(
        base, adapted, tok, questions, eval_examples=examples,
        **_given(eff, "max_new_tokens"),
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
    space = _read_json(space_path, ConfigError)
    if not isinstance(space, dict) or not space:
        raise ConfigError(f"{space_path}: search space must be a non-empty object")
    searchable = _flags(TrainConfig, peft.LoraConfig)
    for key, values in space.items():
        if key not in searchable:
            raise ConfigError(f"{space_path}: cannot search over {key}")
        if type(values) is not list:
            raise ConfigError(f"{space_path}: {key} must map to a list of values")
        space[key] = [_check(space_path, key, v, FIELDS[key][2]) for v in values]
    base_cfg = _config(TrainConfig, eff)
    base, tok = _load_model(base_path, tok_path)
    examples = _load_examples(eff, tok, base.config)
    _echo_config(eff)
    holdout = max(1, len(examples) // 10)
    train_set, eval_set = examples[:-holdout], examples[-holdout:]

    def run_trial(overrides: dict) -> float:
        """A LoRA finetune of a fresh base on the rows not held out."""
        trial = "trial-" + "-".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        opts = {**eff, **overrides, "output_dir": os.path.join(base_cfg.output_dir, trial)}
        model = store.load_model(base_path)
        _finetune(opts, model, tok, train_set)
        return evals.perplexity(model, eval_set, tok.specials.pad)

    trials = trainer_mod.hyperparameter_search(
        space, run_trial,
        budget=eff.get("budget") or None,
        seed=base_cfg.seed,
        **_given(eff, "strategy"),
    )
    rows = [{"rank": i + 1, "trial": t.index, "overrides": t.overrides,
             "objective": t.objective} for i, t in enumerate(trials)]
    out = os.path.join(base_cfg.output_dir, "sweep_results.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2)
    print(json.dumps(rows, indent=2))
    return 0


# -- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1); argparse's own exit
    code 2 is the data-error code here."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="tinypeft", description="desk-scale PEFT toolkit", allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices  # command name -> its parser

    def command(name: str, help: str, *text_flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in ("config", *text_flags):
            p.add_argument("--" + flag)
        return p

    p = command("tokenizer-train", "train a byte-level BPE tokenizer",
                "corpus", "domain_terms", "out")
    p.add_argument("--target_vocab", type=int)

    p = command("prepare-data", "CSV -> tokenized instruction dataset",
                "csv", "tokenizer", "out", "template")
    p.add_argument("--no_mask_prompt", action="store_true", default=None)
    p.add_argument("--seed", type=int)
    _add_fields(p, "seq_len", *_flags(corpus.PreprocessConfig))

    p = command("pretrain", "train a base model from scratch", "csv", "data", "tokenizer")
    _add_fields(p, *_flags(CausalLMConfig, TrainConfig))

    p = command("finetune", "PEFT or full fine-tuning of a base model",
                "method", "base", "csv", "data", "tokenizer")
    _add_fields(p, *_flags(TrainConfig, peft.LoraConfig, peft.BottleneckAdapterConfig,
                           quant.QuantConfig))

    command("merge", "fold an adapter into its base model", "base", "adapter", "out")

    p = command("generate", "complete a prompt or templated question",
                "model", "adapter", "tokenizer", "prompt", "question", "mode")
    for flag, typ in (("max_new_tokens", int), ("temperature", float), ("top_k", int),
                      ("seed", int)):
        p.add_argument("--" + flag, type=typ)

    command("eval", "quantitative evaluation report (JSON)",
            "model", "adapter", "tokenizer", "csv", "data", "out")

    p = command("compare", "base vs adapted side-by-side report",
                "base", "adapter", "tokenizer", "csv", "data", "out")
    p.add_argument("--question", action="append")
    p.add_argument("--max_new_tokens", type=int)

    p = command("sweep", "grid/random hyperparameter search",
                "space", "base", "csv", "data", "tokenizer", "strategy")
    p.add_argument("--budget", type=int)
    _add_fields(p, *_flags(TrainConfig, peft.LoraConfig))
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
    try:
        args = build_parser().parse_args(argv)
        code = COMMANDS[args.command](_effective(args))
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader has gone: not an error. stdout now writes to devnull,
        # so the flush at shutdown finds no pipe to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as e:
        print(f"error:config: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error:data: {e}", file=sys.stderr)
        return 2
    except (TinyPeftError, OSError) as e:  # an OSError here is a failed write
        print(f"error:runtime: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
