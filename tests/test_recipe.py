"""scripts/recipe.py without running its recipe: every row parses as a
tinypeft command line, the sum walk skips only wall-time logs and paging
slabs, and the parent comparison names every path that moved."""

import hashlib
import importlib.util
import os
import shlex

import pytest

from tinypeft import cli

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "recipe.py")
_spec = importlib.util.spec_from_file_location("recipe", _PATH)
recipe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recipe)


@pytest.mark.parametrize("name, line", recipe.RECIPE, ids=[name for name, _ in recipe.RECIPE])
def test_every_row_parses_as_a_command_line(name, line):
    parser, argv = cli.build_parser(), shlex.split(line)
    assert name.startswith(parser.parse_args(argv).command)
    # argparse takes a prefix of a flag for the flag, so name each flag in full
    options = parser.commands[argv[0]]._option_string_actions
    assert [a for a in argv if a.startswith("--") and a not in options] == []


def test_rows_have_distinct_names_and_the_checked_pairs_are_outputs():
    names = [name for name, _ in recipe.RECIPE]
    assert len(set(names)) == len(names)  # each row has its own stdout file
    lines = " ".join(line for _, line in recipe.RECIPE)
    for a, b in recipe.SAME:
        for path in (a, b):
            if path.startswith("stdout/"):
                assert path[len("stdout/"):-len(".txt")] in names, path
            else:
                assert path.split("/")[0] in lines, path


def test_sums_skip_only_metrics_logs_and_paging_slabs(tmp_path):
    files = {"tok.json": b"{}", "lora/adapter.pfwa": b"PFWA", "lora/metrics.jsonl": b"1",
             "lora/.paging/moments.f32": b"\0", "paged/.paging/x/y": b"",
             "lora/metrics.jsonl.bak": b"2", "stdout/.paging": b"3", "paging/a": b"4",
             ".hidden": b""}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    kept = {"tok.json", "lora/adapter.pfwa", "lora/metrics.jsonl.bak", "stdout/.paging",
            "paging/a", ".hidden"}
    assert recipe.sums(str(tmp_path)) == {
        name: hashlib.sha256(files[name]).hexdigest() for name in kept}


def test_sums_file_round_trips(tmp_path):
    found = {"a b/c.txt": "0" * 64, "z": "f" * 64}
    recipe.write_sums(str(tmp_path / recipe.SUMS), found)
    assert (tmp_path / recipe.SUMS).read_text() == f"{'0' * 64}  a b/c.txt\n{'f' * 64}  z\n"
    assert recipe.read_sums(str(tmp_path / recipe.SUMS)) == found


def test_diff_names_changed_missing_and_new_paths():
    parent = {"same": "1", "moved": "2", "gone": "3"}
    assert recipe.diff(parent, dict(parent)) == []
    change = {"same": "1", "moved": "9", "added": "4"}
    assert recipe.diff(parent, change) == [
        "new      added", "missing  gone", "changed  moved"]
