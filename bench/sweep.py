"""Run the benchmark over several seeds and workloads, one run at a time.

    python3 bench/sweep.py --record results.jsonl --seeds 1-10 [--workloads a,b] [--trace 0]

Each run is ``bench/run.py`` in its own process with the run length from
BENCHMARK.json.  Every run's report (each metric with its unit, failed
jobs, the JSON result) is printed, and full results are appended to the
``--record`` file, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace), "--record", os.path.abspath(args.record)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"in {time.perf_counter() - start:.1f} s", flush=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr[-2000:])
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
