"""The README pipeline walkthrough runs as written.

Each ``tinypeft`` command of the walkthrough block goes through
``cli.main`` in a temporary directory holding a copy of the bundled corpus;
the other lines (``mkdir``, ``echo``) run in a shell there. Every command
must exit 0.
"""

import os
import re
import shlex
import shutil
import subprocess

from tinypeft.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# Training commands get a smaller step count appended (flags win), which
# keeps this test at a few seconds; the commands are otherwise unchanged.
FAST = {"pretrain": ["--max_steps", "4"], "finetune": ["--max_steps", "4"],
        "sweep": ["--max_steps", "2"]}


def walkthrough_commands() -> list[str]:
    text = open(README, encoding="utf-8").read()
    section = text[text.index("## Pipeline walkthrough"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def test_walkthrough_runs_as_written(tmp_path, monkeypatch, csv_path):
    data = tmp_path / "src" / "tinypeft" / "data"
    data.mkdir(parents=True)
    shutil.copy(csv_path, data / "finance_qa.csv")
    monkeypatch.chdir(tmp_path)

    commands = walkthrough_commands()
    assert [c.split()[1] for c in commands if c.startswith("tinypeft ")] == [
        "tokenizer-train", "prepare-data", "pretrain", "finetune", "merge",
        "generate", "eval", "compare", "sweep"]
    for command in commands:
        argv = shlex.split(command)
        if argv[0] == "tinypeft":
            assert main(argv[1:] + FAST.get(argv[1], [])) == 0, command
        else:
            subprocess.run(command, shell=True, cwd=tmp_path, check=True)
    assert (tmp_path / "runs" / "sweep" / "sweep_results.json").exists()
