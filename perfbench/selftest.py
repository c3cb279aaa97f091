"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py [--seed 3]

1. the column printer round-trips every generated input:
   ``test_fingerprint(parse_litmus(to_litmus(t))) == test_fingerprint(t)``;
2. the golden file covers every input of every universe, and agrees
   with the registry's hand-written expectations;
3. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints;
4. the deterministic work counters of ``sweep``, ``explore`` and
   ``repair`` repeat exactly across two traced runs on one seed (and
   are not all zero).

Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
from printer import to_litmus  # noqa: E402
from repro.campaign.context import test_fingerprint  # noqa: E402
from repro.litmus.parser import parse_litmus  # noqa: E402
from repro.litmus.registry import entries  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def printer_round_trip() -> int:
    tests = list(inputs.serve_universe())
    tests += [test for shape in inputs.explore_universe() for test in shape]
    tests += [test for test in inputs.sweep_universe() if test.arch != "x86"]
    for test in tests:
        parsed = parse_litmus(to_litmus(test))
        check(
            test_fingerprint(parsed) == test_fingerprint(test),
            f"printer round trip changes {test.name}:\n{to_litmus(test)}",
        )
    return len(tests)


def golden_coverage() -> int:
    checked = 0
    for test in inputs.sweep_universe() + inputs.serve_universe() + inputs.repair_universe():
        for model in inputs.SWEEP_MODELS:
            check(bool(inputs.expected_verdict(test, model)), f"no golden verdict for {test.name}")
            checked += 1
    for shape in inputs.explore_universe():
        for test in shape:
            check(bool(inputs.expected_outcomes(test)), f"no golden outcomes for {test.name}")
            checked += 1
    for entry in entries():
        for model, expected in entry.expectations.items():
            if model in inputs.SWEEP_MODELS:
                got = inputs.expected_verdict(entry.build(), model)
                check(got == expected, f"golden {entry.name}/{model} is {got}, paper says {expected}")
    return checked


def metric_lists() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    check(listed == list(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.py")
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(listed == list(run.PER_LAYER), "BENCHMARK.json per_layer differs from run.py")


def traced_counts(workload: str, seed: int) -> dict:
    result = run.invoke(workload, seed, 2, 1)
    check(result["correct"] and not result["failed"], f"traced {workload} run: {result}")
    return {name: value for name, value in result["values"].items() if name.startswith("count.")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    options = parser.parse_args(argv)
    print(f"printer round trip: {printer_round_trip()} tests ok")
    print(f"golden coverage: {golden_coverage()} answers present, registry agrees")
    metric_lists()
    print("BENCHMARK.json metric lists match run.py")
    for workload in ("sweep", "explore", "repair"):
        first = traced_counts(workload, options.seed)
        second = traced_counts(workload, options.seed)
        check(first["count.herd.runs"] > 0, f"{workload}: no work counted")
        differing = {name for name in first if first[name] != second.get(name)}
        check(not differing, f"{workload}: counts differ across runs: {sorted(differing)}")
        print(f"{workload}: {len(first)} work counters repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
