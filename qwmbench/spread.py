#!/usr/bin/env python3
"""Spread study: runs each workload on several seeds and reports, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) as a share
of the median, next to the bound in BENCHMARK.json.

Usage (from the repository root):

    python3 qwmbench/spread.py [--runs 10] [--first-seed 1]
                               [--workloads grid_sta,tree_sta,decoder_serve]

Results are also appended as JSON lines to <build>/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(os.path.join(build_dir, "out"), exist_ok=True)
    log = open(os.path.join(build_dir, "out", "spread.jsonl"), "a")
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.time()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res.update(workload=wl, seed=seed, wall_s=time.time() - t0)
            log.write(json.dumps(res) + "\n")
            log.flush()
            shares.add((res["failed"] / res["attempted"], res["correct"]))
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed/attempted={res['failed']}/{res['attempted']} "
                  f"wall={res['wall_s']:.1f}s", flush=True)
        print(f"{wl}: failed share / correct per run: {sorted(shares)}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:16s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  spread/bound {spread / bounds[name]:.2f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
