"""tinypeft benchmark: run one workload, or all of them, and print metrics.

    python3 bench/run.py --workload finetune --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root. The library is imported from ./src, so the
benchmark measures the checkout it sits in. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it holds run details (environment, sample counts, loss digests, failures).
With --trace 1 the metrics are the per-layer numbers of a traced run. See
bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["finetune", "generate-eval"]
# one BLAS thread: the matrices are small, and a single caller on a shared
# host times steadiest without BLAS worker threads
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; prints a metric table per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{w}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {w}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:45s} {m['value']:14.4f} {m['unit']}")
            total["metrics"][f"{w}/{name}"] = m
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tinypeft", "__init__.py")):
        print(f"error: no tinypeft sources under {ROOT}/src", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports numpy, scipy and tinypeft

    import_s = time.perf_counter() - T_START
    result, details = workloads.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), ROOT, import_s)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
