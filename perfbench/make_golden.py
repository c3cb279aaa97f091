"""Recompute ``golden.json``: the expected answer of every workload input.

    python3 perfbench/make_golden.py

* Verdicts (sweep and serve inputs, under sc/tso/power/arm) come from
  the ``naive`` reference engine — the brute-force oracle, independent
  of the pruning and optimal engines the workloads run on — and every
  registry test is checked against the paper's hand-written
  expectations (``entries().expectations``) before anything is written.
* Explore outcome sets come from the closed form of the coherence burst
  shape (:func:`inputs.explore_expected_outcomes`), confirmed on every
  test by the pruning and the optimal engine and, where the candidate
  grid is small enough for brute force, by the naive engine.

Any disagreement aborts without writing the file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from repro.herd.simulator import Simulator  # noqa: E402
from repro.litmus.registry import entries  # noqa: E402

#: Explore shapes small enough to confirm every variant with the naive
#: engine, and those confirmed on their first few variants only.
NAIVE_EVERY_VARIANT = {(3, 3), (3, 4)}
NAIVE_FIRST_VARIANTS = {(4, 4): 2, (3, 5): 2, (3, 3, 3): 2}


def verdict_rows(tests):
    oracles = {model: Simulator(model, engine="naive") for model in inputs.SWEEP_MODELS}
    rows = {}
    for test in tests:
        key = inputs.digest(test)
        if key in rows:
            continue
        rows[key] = "".join(
            oracles[model].verdict(test)[0] for model in inputs.SWEEP_MODELS
        )
    return rows


def check_registry(rows) -> None:
    mismatches = []
    for entry in entries():
        test = entry.build()
        row = rows[inputs.digest(test)]
        for model, expected in entry.expectations.items():
            if model in inputs.SWEEP_MODELS:
                got = row[inputs.SWEEP_MODELS.index(model)]
                if got != expected[0]:
                    mismatches.append((entry.name, model, expected, got))
    if mismatches:
        raise SystemExit(f"naive verdicts disagree with the registry: {mismatches}")


def explore_rows():
    engines = {
        name: Simulator("power", engine=name) for name in ("pruning", "optimal", "naive")
    }
    rows = {}
    naive_checked = 0
    for shape, tests in zip(inputs.EXPLORE_SHAPES, inputs.explore_universe()):
        for variant, test in enumerate(tests):
            expected = inputs.explore_expected_outcomes(test)
            runs = ["pruning", "optimal"]
            if shape in NAIVE_EVERY_VARIANT or variant < NAIVE_FIRST_VARIANTS.get(shape, 0):
                runs.append("naive")
                naive_checked += 1
            for name in runs:
                got = engines[name].run(test).allowed_outcomes
                if got != expected:
                    raise SystemExit(
                        f"{name} disagrees with the closed form on {test.name}"
                    )
            rows[inputs.digest(test)] = inputs.outcome_digest(expected)
    return rows, naive_checked


def main() -> int:
    t0 = time.perf_counter()
    tests = list(inputs.sweep_universe()) + list(inputs.serve_universe())
    verdicts = verdict_rows(tests)
    check_registry(verdicts)
    t1 = time.perf_counter()
    explore, naive_checked = explore_rows()
    t2 = time.perf_counter()
    document = {
        "about": (
            "Expected answers of every benchmark input, keyed by a digest of "
            "the test's structural fingerprint.  verdicts: one letter (A=Allow, "
            "F=Forbid) per model in 'models' order, from the naive engine.  "
            "explore: digest of the Power allowed-outcome set (closed form, "
            "confirmed by pruning+optimal on every test and by naive on "
            f"{naive_checked} tests).  Regenerate with perfbench/make_golden.py."
        ),
        "models": list(inputs.SWEEP_MODELS),
        "verdicts": dict(sorted(verdicts.items())),
        "explore": dict(sorted(explore.items())),
    }
    with open(inputs.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(
        f"{len(verdicts)} verdict rows in {t1 - t0:.1f}s, "
        f"{len(explore)} explore rows in {t2 - t1:.1f}s -> {inputs.GOLDEN_PATH.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
