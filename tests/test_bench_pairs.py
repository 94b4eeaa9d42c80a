"""The summary arithmetic of scripts/bench_pairs.py on fixed numbers; no
benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(name: str, values: list[float]) -> list[dict]:
    return [{"metrics": {name: v}} for v in values]


def spec(name: str, better: str) -> dict:
    return {"name": name, "unit": "ms", "better": better, "bound": 0.25}


def test_side_statistics():
    assert bench_pairs.stats([10, 11, 12, 13, 14]) == {
        "median": 12.0, "q1": 11.0, "q3": 13.0, "p90": pytest.approx(13.6)}


@pytest.mark.parametrize("better, parent, change, want", [
    # every pair won by 1 ms, but the parent's quartiles are 2 ms apart
    ("lower", [10, 11, 12, 13, 14], [9, 10, 11, 12, 13],
     dict(change_wins=5, worse=-1 / 12, parent_spread=2 / 12, verdict="within_bound",
          gain=False)),
    # higher is better: a 30% drop against a 25% bound
    ("higher", [100] * 5, [70] * 5,
     dict(change_wins=0, worse=0.3, parent_spread=0.0, verdict="regressed", gain=False)),
    # the parent spreads wider than the bound: no verdict either way ...
    ("lower", [1, 2, 3, 4, 5], [1.5, 1.5, 3.5, 3.5, 5.5],
     dict(change_wins=2, worse=1 / 6, parent_spread=2 / 3, verdict="unresolved",
          gain=False)),
    # ... unless every change run beats every parent run
    ("lower", [1, 2, 3, 4, 5], [0.1, 0.2, 0.3, 0.4, 0.5],
     dict(change_wins=5, worse=-0.9, parent_spread=2 / 3, verdict="within_bound",
          gain=True)),
    # a tie counts for neither side
    ("higher", [8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [9, 9, 9, 9, 9, 9, 9, 9, 9, 8],
     dict(change_wins=9, worse=-0.125, parent_spread=0.0, verdict="within_bound",
          gain=True)),
])
def test_pairs_against_the_bound(better, parent, change, want):
    row = bench_pairs.summarize(runs("m", parent), runs("m", change), [spec("m", better)])["m"]
    assert row["pairs"] == len(parent)
    assert row["parent"] == bench_pairs.stats(parent)
    assert row["change"] == bench_pairs.stats(change)
    for key, value in want.items():
        assert row[key] == pytest.approx(value), key


def test_a_baseline_has_one_side():
    row = bench_pairs.summarize(None, runs("m", [1, 2, 3]), [spec("m", "lower")])["m"]
    assert row == {"unit": "ms", "better": "lower", "bound": 0.25,
                   "change": bench_pairs.stats([1, 2, 3])}
