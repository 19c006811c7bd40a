#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread of each metric.

    python3 bench/stability.py --runs 10 --out bench/BENCH_baseline.json

Every run measures for BENCHMARK.json's ``run_seconds``, over its
workloads. For each end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json. ``--compare`` takes an
earlier summary and prints how far each median moved. Runs go one after
another, never in parallel.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    parser.add_argument("--compare", type=Path, default=None, help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    sys.path.insert(0, str(HERE))
    from run import commit

    summary = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": args.runs,
        "seconds": spec["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in summary["seeds"]]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            rows[name] = {"median": median, "iqr_share": spread(values), "values": values}
            line = f"{workload:<15} {name:<15} median {median:>14.6g}  iqr/median {rows[name]['iqr_share']:.4f}"
            line += f"  bound {bound['bound']}"
            worst = max(worst, rows[name]["iqr_share"] / bound["bound"])
            if workload in earlier:
                before = earlier[workload][name]["median"]
                change = (median - before) / before
                worse = change if bound["better"] == "lower" else -change
                line += f"  vs earlier {change:+.4f} ({'worse' if worse > 0 else 'better'})"
            print(line, flush=True)
        summary["workloads"][workload] = rows
        summary["workloads"][workload]["ops"] = [r["attempted"] for r in results]
        summary["workloads"][workload]["wall_s"] = [r["wall_s"] for r in results]
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
