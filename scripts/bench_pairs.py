"""Run the benchmark on a parent revision and on the working tree in
alternating pairs, and write BENCH_<workload>.json at the repository root.

    python3 scripts/bench_pairs.py --workload finetune --parent HEAD~1
    python3 scripts/bench_pairs.py --workload generate-eval --parent main
    python3 scripts/bench_pairs.py --workload finetune    # a single-tree baseline

The parent is unpacked with ``git archive <rev> | tar -x`` into a temporary
directory, so no worktree is made, and the working tree's files (tracked,
and untracked but not ignored) are copied into a sibling directory of the
same path length. The same sources read a different ``peak_rss_mb`` run in
place and from a copy (64.3 and 65.4 MB, finetune, 2-vCPU host), so both
sides run from copies.

Each of the PAIRS pairs runs ``bench/run.py --workload W``, with the
benchmark's own seed and run length, once in each tree, with that tree's own
benchmark and sources; even pairs run the parent first and odd pairs the
working tree first, so slow drift of the host falls on both sides alike.
Without ``--parent`` every run is of the working tree, and the file records
those runs as a baseline.

The file holds both revisions, the host's processor count and the BLAS
thread count; each run's seed, metrics, loss digests, ``correct`` and
``failed``; each side's median, quartiles and p90 per end-to-end metric of
BENCHMARK.json; and per metric the pairs the change won, its median shift
in the metric's worse direction, and a verdict against the metric's bound.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def stats(values: list[float]) -> dict:
    q1, median, q3, p90 = np.percentile(values, [25, 50, 75, 90]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "p90": p90}


def summarize(parent_runs: list[dict] | None, change_runs: list[dict],
              end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's statistics and, with a parent, the
    comparison. Run i of each side form pair i.

    ``worse`` is the change's median shift relative to the parent's, signed
    so that a positive value is a loss in the metric's ``better`` direction.
    ``parent_spread`` is the parent's quartile distance over its median.
    The verdict is ``unresolved`` when that spread exceeds the bound and not
    every change run beats every parent run, else ``regressed`` when
    ``worse`` exceeds the bound, else ``within_bound``. ``gain`` is true
    when the change won at least nine pairs in ten and its median beats
    the parent's by more than the parent's quartile distance.
    """
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        change = [r["metrics"][name] for r in change_runs]
        row = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
               "change": stats(change)}
        if parent_runs:
            parent = [r["metrics"][name] for r in parent_runs]
            p, c = stats(parent), row["change"]
            spread = p["q3"] - p["q1"]
            wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
            worse = sign * (c["median"] - p["median"]) / p["median"]
            all_better = max(sign * x for x in change) < min(sign * x for x in parent)
            if spread / p["median"] > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > spec["bound"] else "within_bound"
            row.update(parent=p, pairs=len(parent), change_wins=wins, worse=worse,
                       parent_spread=spread / p["median"], verdict=verdict,
                       gain=wins >= 0.9 * len(parent) and -worse * p["median"] > spread)
        out[name] = row
    return out


def run_bench(tree: str, workload: str) -> dict:
    """One benchmark run in ``tree``: its result line plus the details the
    pairs are checked on."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    details, result = json.loads(details_line), json.loads(result_line)
    return {"seed": details["seed"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "loss_digests": {k: d["loss_digest"] for k, d in details["loss_digests"].items()},
            "blas_threads": details["environment"]["blas_threads"]}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def export(rev: str | None, dest: str):
    """The files of ``rev``, or of the working tree when ``rev`` is None,
    into the new directory ``dest``."""
    os.makedirs(dest)
    if rev:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        return
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and os.path.isfile(os.path.join(ROOT, name)):  # not deleted
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", help="revision to compare with; omit for a baseline")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    change_rev = {"rev": git("rev-parse", "HEAD"),
                  "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}

    with tempfile.TemporaryDirectory() as tmp:
        runs: dict[str, list] = {"parent": [], "change": []}
        trees = {"change": os.path.join(tmp, "change")}
        export(None, trees["change"])
        if args.parent:
            parent_rev = git("rev-parse", args.parent)
            trees["parent"] = os.path.join(tmp, "parent")
            export(parent_rev, trees["parent"])
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            order = [s for s in order if s in trees]
            for side in order:
                run = run_bench(trees[side], args.workload)
                run["pair"], run["first"] = i, side == order[0]
                runs[side].append(run)
                print(f"pair {i} {side}: correct {run['correct']} failed {run['failed']}",
                      file=sys.stderr)

    every = runs["parent"] + runs["change"]
    doc = {
        "workload": args.workload,
        "parent": {"rev": parent_rev} if args.parent else None, "change": change_rev,
        "nproc": os.cpu_count(), "blas_threads": sorted({r["blas_threads"] for r in every}),
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in every),
        "loss_digests_equal": len({json.dumps(r["loss_digests"], sort_keys=True)
                                   for r in every}) == 1,
        "summary": summarize(runs["parent"] or None, runs["change"], end_to_end),
        "runs": runs,
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
