"""Steadiness check: many seeds per workload, spread of every metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads sweep,serve] \\
        [--seconds 20] [--compare perfbench/out/steadiness-A.json] [--save PATH]

Runs ``run.py --trace 0`` once per seed and workload, one run at a
time, and prints for every end-to-end metric its median, its spread
(the distance between the first and third quartile, from
``statistics.quantiles(values, n=4)``, as a share of the median) and
that spread against the metric's bound in ``BENCHMARK.json``.  With
``--compare`` it also prints how far each median moved from an
earlier saved set — the check that two sets of runs of one program
agree within the bounds.  Exits 1 when a spread exceeds its bound or a
median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import invoke  # noqa: E402


def seeds_of(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    result = invoke(workload, seed, seconds, 0)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return result["values"]


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--compare", default=None)
    parser.add_argument("--save", default=None)
    options = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    workloads = (
        options.workloads.split(",") if options.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )
    seconds = options.seconds or spec["run_seconds"]
    earlier = json.loads(Path(options.compare).read_text()) if options.compare else {}

    collected = {}
    ok = True
    for workload in workloads:
        started = time.perf_counter()
        runs = [run_once(workload, seed, seconds) for seed in seeds_of(options.seeds)]
        collected[workload] = runs
        print(f"{workload}: {len(runs)} runs in {time.perf_counter() - started:.0f}s")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            median = statistics.median(values)
            share = spread(values) if len(values) > 1 else 0.0
            line = (
                f"  {name:<16} median {median:>10.4f}  spread {share:6.1%}"
                f"  bound {bound:.0%}  ({share / bound:4.0%} of bound)"
            )
            if share > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if workload in earlier:
                before = statistics.median(run[name] for run in earlier[workload])
                worse = (before - median if name in higher else median - before) / before
                line += f"  moved {(median - before) / before:+.1%}"
                if worse > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line, flush=True)
    if options.save:
        Path(options.save).write_text(json.dumps(collected, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
