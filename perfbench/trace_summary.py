"""The per-layer table of every workload, with the tracing overhead.

    python3 perfbench/trace_summary.py [--seed 7] [--seconds 20] [--workloads sweep,serve]

For each workload, runs ``run.py`` twice on one seed — tracing off and
tracing on — and reduces the traced run's spans (already folded into
self times and counts where each span closed, see ``layers.py``) to one
row per workload: time per operation of each layer, every ratio with
its base, the deterministic work counts, and the tracing overhead, the
traced minus the untraced end-to-end numbers.  The raw results are
saved to ``perfbench/out/trace-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import invoke  # noqa: E402

#: (column, per-layer time metric), printed as ms per workload operation.
TIMES = (
    ("parse", "litmus.parse_s"),
    ("paths", "litmus.thread_paths_s"),
    ("context*", "context.build_s"),
    ("herd", "herd.run_s"),
    ("herd*", "herd.self_s"),
    ("check", "core.check_s"),
    ("ppo", "core.ppo_s"),
    ("fences", "core.fences_s"),
    ("prop", "core.prop_s"),
    ("aeg+cyc", "fences.analysis_s"),
    ("place", "fences.plan_s"),
    ("validate", "fences.validate_s"),
)
RATIOS = (
    ("ctx hit", "context.hit_rate", "context.lookups"),
    ("useful", "herd.useful_ratio", "herd.attempts"),
    ("pool util", "campaign.utilization", "campaign.chunks"),
    ("cycle hit", "fences.cycle_hit_rate", "fences.repairs_needed"),
    ("memo hit", "service.memo_hit_rate", "service.memo_lookups"),
    ("items/batch", "service.items_per_batch", "service.batches"),
)
COUNTS = (
    "count.herd.runs",
    "count.engine.co_orders_tried",
    "count.engine.survivors",
    "count.engine.optimal.extension_steps",
    "count.core.check_calls",
    "count.context.misses",
    "count.fences.validations",
)


def table(title: str, header, rows) -> None:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    print(f"\n{title}")
    for row in [header] + rows:
        print("  " + "  ".join(f"{str(cell):>{width}}" for cell, width in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    options = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = options.seconds or spec["run_seconds"]
    workloads = (
        options.workloads.split(",") if options.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )

    results = {}
    for workload in workloads:
        results[workload] = {
            "untraced": invoke(workload, options.seed, seconds, 0),
            "traced": invoke(workload, options.seed, seconds, 1),
        }
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"trace-{options.seed}.json").write_text(json.dumps(results, indent=1))

    overhead, times, ratios, counts = [], [], [], []
    for workload, pair in results.items():
        plain, traced = pair["untraced"]["values"], pair["traced"]["values"]
        operations = traced["trace.ops"] or 1
        # The untraced serve rate is the saturation rate; its traced run
        # holds a fixed rate, so only its latencies compare.
        rates = (
            ["-", "-", "-"] if workload == "serve" else [
                f"{plain['ops_per_s']:.1f}",
                f"{traced['trace.ops_per_s']:.1f}",
                f"{traced['trace.ops_per_s'] / plain['ops_per_s'] - 1:+.1%}",
            ]
        )
        overhead.append([workload] + rates + [
            f"{plain['latency_p50_ms']:.2f}",
            f"{traced['trace.latency_p50_ms']:.2f}",
            f"{traced['trace.latency_p50_ms'] - plain['latency_p50_ms']:+.2f}",
            int(traced["trace.ops"]),
        ])
        times.append([workload] + [
            f"{traced[metric] * 1e3 / operations:.3f}" for _, metric in TIMES
        ] + [f"{traced['service.exec_ms']:.2f}", f"{traced['service.wait_ms']:.2f}"])
        ratios.append([workload] + [
            f"{traced[metric]:.3f} ({int(traced[base])})" for _, metric, base in RATIOS
        ])
        counts.append([workload] + [int(traced[name]) for name in COUNTS])

    table(
        "tracing overhead (traced minus untraced end-to-end numbers)",
        ["workload", "ops/s", "traced", "change", "p50 ms", "traced", "delta", "ops"],
        overhead,
    )
    table(
        "ms per operation in each layer (* = self time; service: ms per batch / "
        "per request outside the batch)",
        ["workload"] + [column for column, _ in TIMES] + ["svc exec", "svc wait"],
        times,
    )
    table("ratios (base in brackets)", ["workload"] + [column for column, _, _ in RATIOS], ratios)
    table(
        "deterministic work counts (fixed serial pass; serve is timing-dependent, left out)",
        ["workload"] + [name.split(".", 1)[1] for name in COUNTS],
        counts,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
