"""The README's code blocks run as written.

Each ``tinypeft`` command of the walkthrough block goes through
``cli.main`` in a temporary directory holding a copy of the bundled corpus;
the other lines (``mkdir``, ``echo``) run in a shell there. Every command
must exit 0. The "Library use" block runs as Python in the same kind of
directory.
"""

import os
import re
import shlex
import shutil
import subprocess

import pytest

from tinypeft.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# Training commands get a smaller step count appended (flags win), which
# keeps this test at a few seconds; the commands are otherwise unchanged.
FAST = {"pretrain": ["--max_steps", "4"], "finetune": ["--max_steps", "4"],
        "sweep": ["--max_steps", "2"]}


def readme_block(heading: str, lang: str) -> str:
    text = open(README, encoding="utf-8").read()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def walkthrough_commands() -> list[str]:
    lines = readme_block("## Pipeline walkthrough", "sh").replace("\\\n", " ").splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


@pytest.fixture()
def corpus_dir(tmp_path, monkeypatch, csv_path):
    """The working directory: a temporary one holding the bundled corpus copy."""
    data = tmp_path / "src" / "tinypeft" / "data"
    data.mkdir(parents=True)
    shutil.copy(csv_path, data / "finance_qa.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_walkthrough_runs_as_written(corpus_dir):
    commands = walkthrough_commands()
    assert [c.split()[1] for c in commands if c.startswith("tinypeft ")] == [
        "tokenizer-train", "prepare-data", "pretrain", "finetune", "merge",
        "generate", "eval", "compare", "sweep"]
    for command in commands:
        argv = shlex.split(command)
        if argv[0] == "tinypeft":
            assert main(argv[1:] + FAST.get(argv[1], [])) == 0, command
        else:
            subprocess.run(command, shell=True, cwd=corpus_dir, check=True)
    assert (corpus_dir / "runs" / "sweep" / "sweep_results.json").exists()


def test_library_use_runs_as_written(corpus_dir):
    namespace: dict = {}
    exec(compile(readme_block("## Library use", "python"), "README.md", "exec"), namespace)
    assert namespace["trainer"].global_step == namespace["trainer"].config.max_steps
    model = namespace["model"]
    assert model.adapter_config is None and set(model.params) == model.base_names
