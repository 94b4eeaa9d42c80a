"""Run tinypeft's determinism recipe into a directory, sum every output, and
optionally compare the sums with a parent revision's.

    python scripts/recipe.py OUT
    python scripts/recipe.py OUT --parent REV

RECIPE is one table of ``tinypeft`` command lines: a tokenizer and the
prepared dataset, a 6-step d64/L2 pretrain, 4-step full, LoRA (with
checkpoints at steps 2 and 4), QLoRA and adapter finetunes, paged LoRA and
QLoRA at one resident page, both merges, ``eval`` of each adapter attached
and of both merges, ``generate`` greedy, long enough to slide the window, and
at a seeded temperature, on attached LoRA and QLoRA and on their merges,
``compare`` with perplexity for each adapter, and a 2-point sweep. Every row
runs through ``tinypeft.cli.main`` in this one process, inside OUT (new or
empty), with relative paths and a copy of the bundled CSV, so the outputs
depend on nothing but the source tree; each row's stdout goes to
``stdout/<row>.txt``.

OUT/SHA256SUMS then holds one ``sha256  path`` line for every file except
each ``metrics.jsonl`` (it records wall time) and each ``.paging/``
directory (a paged run's scratch slab); ``sha256sum -c`` reads it. The
script exits 1, naming the pair, when a paged adapter differs from its
unpaged run or an attached adapter's ``eval`` or ``generate`` output differs
from its merge's. Run at two BLAS thread counts, the two SHA256SUMS must be
equal.

With ``--parent REV``, REV is unpacked as ``scripts/bench_pairs.py`` unpacks
a parent, and this same table runs against REV's ``src/`` in a separate
process, into a temporary directory. The script then exits 1 listing every
path whose sum changed, went missing or is new.
"""

import argparse
import contextlib
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMS = "SHA256SUMS"
CSV = "finance_qa.csv"
QUESTION = "What is an Index?"
SPACE = '{"learning_rate": [1e-4, 2e-4]}\n'  # the sweep's search space, space.json

DATA = f"--csv {CSV} --tokenizer tok.json"
FINETUNE = f"finetune --base base/model.pfwa {DATA} --max_steps 4"
MERGED = ("lora", "qlora")  # the adapters that merge; "merged_<m>" names the merge
# how eval and generate are given each model
MODELS = {**{m: f"--model base/model.pfwa --adapter {m}/adapter.pfwa"
             for m in ("lora", "qlora", "adapter")},
          **{f"merged_{m}": f"--model merged_{m}.pfwa" for m in MERGED}}
DECODES = {"greedy": "", "long": "--max_new_tokens 160",
           "temperature": "--mode temperature --temperature 0.8 --seed 3"}

# (row name, tinypeft command line), run in order
RECIPE = [
    ("tokenizer-train", f"tokenizer-train --corpus {CSV} --target_vocab 512 "
                        "--domain_terms KOSPI --out tok.json"),
    ("prepare-data", f"prepare-data {DATA} --seq_len 128 --out data.json"),
    ("pretrain", f"pretrain {DATA} --d_model 64 --n_heads 4 --n_layers 2 --seq_len 128 "
                 "--max_steps 6 --output_dir base"),
    ("finetune-full", f"{FINETUNE} --method full --output_dir full"),
    ("finetune-lora", f"{FINETUNE} --method lora --save_steps 2 --output_dir lora"),
    ("finetune-qlora", f"{FINETUNE} --method qlora --output_dir qlora"),
    ("finetune-adapter", f"{FINETUNE} --method adapter --output_dir adapter"),
    *[(f"finetune-paged_{m}", f"{FINETUNE} --method {m} --optim paged_adamw_32bit "
                              f"--paging_budget 1 --output_dir paged_{m}") for m in MERGED],
    *[(f"merge-{m}", f"merge --base base/model.pfwa --adapter {m}/adapter.pfwa "
                     f"--out merged_{m}.pfwa") for m in MERGED],
    *[(f"eval-{m}", f"eval {flags} {DATA} --out eval_{m}.json") for m, flags in MODELS.items()],
    *[(f"generate-{m}-{d}", f"generate {MODELS[m]} --tokenizer tok.json "
                            f"--question {shlex.quote(QUESTION)} {DECODES[d]}")
      for m in (*MERGED, *(f"merged_{m}" for m in MERGED)) for d in DECODES],
    *[(f"compare-{m}", f"compare --base base/model.pfwa --adapter {m}/adapter.pfwa {DATA} "
                       f"--question {shlex.quote(QUESTION)} --out compare_{m}.txt")
      for m in ("lora", "qlora", "adapter")],
    ("sweep", f"sweep --base base/model.pfwa {DATA} --space space.json --strategy grid "
              "--max_steps 2 --output_dir sweep"),
]

# pairs of outputs that must be byte-identical: paging is transparent to
# training, and an attached adapter is folded for inference
SAME = [
    *[(f"paged_{m}/adapter.pfwa", f"{m}/adapter.pfwa") for m in MERGED],
    *[(f"eval_{m}.json", f"eval_merged_{m}.json") for m in MERGED],
    *[(f"stdout/generate-{m}-{d}.txt", f"stdout/generate-merged_{m}-{d}.txt")
      for m in MERGED for d in DECODES],
]


def sums(out: str) -> dict[str, str]:
    """Path relative to ``out`` (with /) -> sha256 of every file under
    ``out``, except each metrics.jsonl and everything under each .paging/."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(out):
        dirnames[:] = [d for d in dirnames if d != ".paging"]
        for name in filenames:
            if name != "metrics.jsonl":
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                found[os.path.relpath(path, out).replace(os.sep, "/")] = digest
    return found


def write_sums(path: str, found: dict[str, str]):
    with open(path, "w") as f:
        f.writelines(f"{digest}  {name}\n" for name, digest in sorted(found.items()))


def read_sums(path: str) -> dict[str, str]:
    with open(path) as f:
        return {name: digest for digest, name in (ln.rstrip("\n").split("  ", 1) for ln in f)}


def diff(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per path whose sum changed, went missing or is new."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            lines.append(f"missing  {name}")
        elif name not in parent:
            lines.append(f"new      {name}")
        elif parent[name] != change[name]:
            lines.append(f"changed  {name}")
    return lines


def run(out: str, src: str) -> int:
    """Run RECIPE with the tinypeft under ``src`` into ``out`` and write its
    SHA256SUMS; 1 when a row fails or a SAME pair differs."""
    sys.path.insert(0, src)
    from tinypeft import cli  # the tree to import is chosen at run time

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"recipe: imported {cli.__file__}, not the tinypeft under {src}", file=sys.stderr)
        return 1
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"recipe: {out} is not empty", file=sys.stderr)
        return 1
    shutil.copyfile(os.path.join(src, "tinypeft", "data", CSV), os.path.join(out, CSV))
    with open(os.path.join(out, "space.json"), "w") as f:
        f.write(SPACE)
    os.makedirs(os.path.join(out, "stdout"))
    t0 = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, line in RECIPE:
            with open(os.path.join("stdout", name + ".txt"), "w") as f, \
                    contextlib.redirect_stdout(f):
                code = cli.main(shlex.split(line))
            if code != 0:
                print(f"recipe: {name} exited {code}: tinypeft {line}", file=sys.stderr)
                return 1
    finally:
        os.chdir(cwd)
    found = sums(out)
    write_sums(os.path.join(out, SUMS), found)
    print(f"recipe: {len(RECIPE)} rows, {len(found)} files summed in "
          f"{time.perf_counter() - t0:.1f} s -> {os.path.join(out, SUMS)}", file=sys.stderr)
    differing = [(a, b) for a, b in SAME if found[a] != found[b]]
    for a, b in differing:
        print(f"recipe: {a} differs from {b}", file=sys.stderr)
    return 1 if differing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", help="new or empty directory for the outputs")
    ap.add_argument("--parent", metavar="REV", help="revision whose sums to compare with")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source directory whose tinypeft runs the recipe (default: src/)")
    args = ap.parse_args(argv)
    if not args.parent:
        return run(args.out, args.src)

    from bench_pairs import export  # this script's directory is on sys.path

    with tempfile.TemporaryDirectory() as tmp:
        tree, parent_out = os.path.join(tmp, "tree"), os.path.join(tmp, "out")
        export(args.parent, tree)
        subprocess.run([sys.executable, os.path.abspath(__file__), parent_out,
                        "--src", os.path.join(tree, "src")], check=False)
        if not os.path.exists(os.path.join(parent_out, SUMS)):
            print(f"recipe: the run of {args.parent} wrote no {SUMS}", file=sys.stderr)
            return 1
        parent = read_sums(os.path.join(parent_out, SUMS))
    code = run(args.out, args.src)
    if code:
        return code
    lines = diff(parent, read_sums(os.path.join(args.out, SUMS)))
    print("\n".join(lines) if lines else f"recipe: every sum equals {args.parent}'s")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
