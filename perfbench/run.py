"""Benchmark of the simulator, the campaign runtime and the verdict service.

    python3 perfbench/run.py --workload {sweep,explore,serve,repair} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every workload draws its inputs from a
fixed universe with ``--seed`` (see ``inputs.py``), measures for
``--seconds`` seconds, checks every answer against ``golden.json`` and
prints, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing
off; ``--trace 1`` installs the layer spans (``layers.py``), enables the
program's telemetry and reports the per-layer table plus deterministic
work counters from a fixed serial pass.  The workloads and what each
metric should and should not move are described in ``README.md``.
Only answers that are correct count as operations in the rates.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import serve  # noqa: E402
from serve import percentile  # noqa: E402
from repro import Session, telemetry  # noqa: E402
from repro.herd.simulator import Simulator  # noqa: E402

#: Campaign pool size: the load is sized for a two-core machine.
WORKERS = layers.WORKERS
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 21
SWEEP_BATCH = 64
REPAIR_BATCH = 32
#: The reported tail percentile; every run collects at least 100
#: latency samples, so at least ten lie beyond it.
TAIL = 0.90
#: Steps of the deterministic serial counting pass (``--trace 1``).
COUNT_STEPS = {"sweep": 4, "explore": 1, "repair": 2}
#: The calibration kernel's reading at the reference speed.  Every
#: CPU-bound interval (a batch-workload step, a set-up probe) is scaled
#: by this over the mean of the kernel readings taken just before and
#: just after it (``kernel.py``, in a process of its own): the hosts
#: this benchmark runs on drift by up to a third in speed within
#: seconds, and one run's work cannot tell that from a program change.
CALIBRATION_REFERENCE_S = 0.003

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

SERVICE_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.requests", "count"),
    ("service.exec_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.batches", "count"),
    ("service.items_per_batch", "count"),
    ("service.memo_lookups", "count"),
    ("service.memo_hit_rate", "ratio"),
    ("service.shed", "count"),
    ("service.degraded_batches", "count"),
    ("service.generator_lag_ms", "ms"),
    ("service.idle_p50_ms", "ms"),
    ("service.idle_p90_ms", "ms"),
)

TRACE_LAYER: Tuple[Tuple[str, str], ...] = (
    ("trace.ops", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    layers.PER_LAYER
    + SERVICE_LAYER
    + TRACE_LAYER
    + tuple((f"count.{name}", "count") for name in layers.COUNTS)
)


# -- measurement helpers ----------------------------------------------------------


class Tally:
    """Attempted and failed operations, failures by reason."""

    def __init__(self):
        self.attempted = 0
        self.reasons: Counter = Counter()

    def record(self, outcome: str) -> bool:
        """Count one answer; true when it is correct."""
        self.attempted += 1
        if outcome != "ok":
            self.reasons[outcome] += 1
        return outcome == "ok"

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def correct(self) -> bool:
        return not (self.reasons["wrong"] or self.reasons["no-golden"])


def _tree_rss_kb(root: int, exclude: int) -> int:
    """Resident set of *root* and all its descendants but *exclude*, in KiB."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    fields = handle.read().rsplit(b")", 1)[1].split()
                parents[int(entry)] = int(fields[1])
            except (OSError, IndexError, ValueError):
                continue
    tree, frontier = {root, exclude}, [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in tree:
                tree.add(pid)
                frontier.append(pid)
    total = 0
    for pid in tree - {exclude}:
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class RssSampler:
    """Samples the benchmark's process tree (workers and server included,
    the calibration helper left out)."""

    def __init__(self, calibrator: "Calibrator", interval: float = 0.25):
        self.exclude = calibrator.process.pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(os.getpid(), self.exclude))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak_kb = max(self.peak_kb, _tree_rss_kb(os.getpid(), self.exclude))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024


class Calibrator:
    """The calibration kernel in a helper process that never imports the
    program (``kernel.py``), started before the program's session."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def reading(self) -> float:
        """Seconds the kernel takes now."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* at the reference speed, from the kernel readings around them."""
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after)


def probe_setup(workload: str) -> float:
    """Seconds from launching a fresh process to its first answer."""
    if workload == "serve":
        return serve.measure_setup()
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    process.stdout.close()
    if process.wait(timeout=120) != 0 or not line.startswith(b"ready"):
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def setup_seconds(workload: str, calibrator: Calibrator) -> float:
    """Median set-up time, each probe scaled to the reference speed."""
    probes = []
    before = calibrator.reading()
    for _ in range(SETUP_REPEATS):
        elapsed = probe_setup(workload)
        after = calibrator.reading()
        probes.append(scaled(elapsed, before, after))
        before = after
    return statistics.median(probes)


# -- the batch workloads ----------------------------------------------------------
#
# A workload's ``steps(session, tally)`` yields one ``(correct answers,
# latency samples in seconds)`` pair per step; the timed loop runs steps
# until ``--seconds`` is spent.  Answers are checked inside the step but
# outside its timed region.


class Sweep:
    """Pooled early-exit verdicts, batches of 64, models in rotation."""

    pooled = True

    def __init__(self, seed: int):
        self.tests = inputs.shuffled(inputs.sweep_universe(), seed, "sweep")

    def steps(self, session, tally: Tally) -> Iterator[Tuple[int, List[float]]]:
        cursor = 0
        for step in itertools.count():
            batch = [self.tests[(cursor + i) % len(self.tests)] for i in range(SWEEP_BATCH)]
            cursor += SWEEP_BATCH
            model = inputs.SWEEP_MODELS[step % len(inputs.SWEEP_MODELS)]
            start = time.perf_counter()
            swept = session.sweep(batch, model=model)
            elapsed = time.perf_counter() - start
            answers = dict(swept.verdicts)
            correct = 0
            for test in batch:
                expected = inputs.expected_verdict(test, model)
                got = answers.get(test.name)
                correct += tally.record(
                    "no-golden" if not expected
                    else "quarantined" if got is None
                    else "ok" if got == expected else "wrong"
                )
            yield correct, [elapsed]


class Explore:
    """In-process full simulations, one test per shape per round."""

    pooled = False

    def __init__(self, seed: int):
        self.seed = seed

    def steps(self, session, tally: Tally) -> Iterator[Tuple[int, List[float]]]:
        for round_tests in inputs.explore_rounds(self.seed):
            samples, correct = [], 0
            for test in round_tests:
                start = time.perf_counter()
                result = session.simulate(test)
                samples.append(time.perf_counter() - start)
                expected = inputs.expected_outcomes(test)
                got = inputs.outcome_digest(result.allowed_outcomes)
                correct += tally.record(
                    "no-golden" if not expected else "ok" if got == expected else "wrong"
                )
            yield correct, samples


class Repair:
    """Pooled greedy fence repair under Power, batches of 32.

    Each answer is checked twice: the verdict before repair against the
    golden Power verdict, and every repaired test re-verified as Forbid
    by an independent simulator with no shared caches."""

    pooled = True

    def __init__(self, seed: int):
        self.tests = inputs.shuffled(inputs.repair_universe(), seed, "repair")
        self.referee = Simulator("power")
        self.verified: Dict[str, str] = {}
        self.memo_hits = 0
        self.needed = 0

    def _referee(self, test) -> str:
        key = inputs.digest(test)
        if key not in self.verified:
            # The check is not the workload: keep it out of the trace.
            registry = telemetry.disable()
            try:
                self.verified[key] = self.referee.verdict(test)
            finally:
                if registry is not None:
                    telemetry.enable(registry)
        return self.verified[key]

    def _judge(self, test, report) -> str:
        expected = inputs.expected_verdict(test, "power")
        if not expected:
            return "no-golden"
        if report is None:
            return "quarantined"
        if report.before_verdict != expected:
            return "wrong"
        if expected == "Forbid":
            return "ok" if report.success and not report.needed_repair else "wrong"
        if not (report.success and report.after_verdict == "Forbid" and report.repaired):
            return "unrepaired"
        return "ok" if self._referee(report.repaired) == "Forbid" else "wrong"

    def steps(self, session, tally: Tally) -> Iterator[Tuple[int, List[float]]]:
        cursor = 0
        while True:
            batch = [self.tests[(cursor + i) % len(self.tests)] for i in range(REPAIR_BATCH)]
            cursor += REPAIR_BATCH
            start = time.perf_counter()
            result = session.repair(batch)
            elapsed = time.perf_counter() - start
            reports = {report.test_name: report for report in result.reports}
            correct = 0
            for test in batch:
                report = reports.get(test.name)
                correct += tally.record(self._judge(test, report))
                if report is not None and report.needed_repair:
                    self.needed += 1
                    self.memo_hits += bool(report.from_cache)
            yield correct, [elapsed]


BATCH_WORKLOADS = {"sweep": Sweep, "explore": Explore, "repair": Repair}


def timed_loop(steps, seconds: float, calibrator: Calibrator):
    """Run *steps* for *seconds*, a kernel reading between steps.

    Returns ``(correct answers, busy seconds, samples, wall busy
    seconds)``: busy time and latency samples are scaled to the
    reference speed by the readings on either side of their step; the
    wall figure is kept for the diagnostics."""
    operations, busy, wall, samples = 0, 0.0, 0.0, []
    deadline = time.perf_counter() + seconds
    before = calibrator.reading()
    while True:
        done, step_samples = next(steps)
        after = calibrator.reading()
        operations += done
        wall += sum(step_samples)
        step_scaled = [scaled(sample, before, after) for sample in step_samples]
        busy += sum(step_scaled)
        samples.extend(step_scaled)
        before = after
        if time.perf_counter() >= deadline:
            return operations, busy, samples, wall


def session_for(workload) -> Session:
    return Session(model="power", processes=WORKERS if workload.pooled else None)


def count_pass(name: str, seed: int) -> Dict[str, int]:
    """Deterministic work counts of a fixed serial prefix of the workload."""
    workload = BATCH_WORKLOADS[name](seed)
    tally = Tally()
    with Session(model="power", processes=None, telemetry=True) as session:
        for _ in itertools.islice(workload.steps(session, tally), COUNT_STEPS[name]):
            pass
        snapshot = session.telemetry.snapshot()
    if tally.failed:
        raise RuntimeError(f"counting pass answered wrongly: {dict(tally.reasons)}")
    return layers.work_counts(snapshot)


def run_batch(name: str, seed: int, seconds: float, trace: bool, calibrator: Calibrator):
    workload = BATCH_WORKLOADS[name](seed)
    tally = Tally()
    metrics: Dict[str, float] = {}
    if trace:
        layers.install()
        metrics.update(count_pass(name, seed))
    else:
        metrics["setup_s"] = setup_seconds(name, calibrator)
    with RssSampler(calibrator) as rss, session_for(workload) as session:
        steps = workload.steps(session, tally)
        next(steps)  # warm-up: pool spawn, first chunk (untimed)
        if isinstance(workload, Repair):
            workload.memo_hits = workload.needed = 0
        if trace:
            session.enable_telemetry()
        operations, busy, samples, wall = timed_loop(steps, seconds, calibrator)
        snapshot = session.telemetry.snapshot() if trace else None
    throughput = operations / busy
    if trace:
        repairs = (workload.memo_hits, workload.needed) if isinstance(workload, Repair) else (0, 0)
        metrics.update(layers.layer_metrics(snapshot, repairs))
        metrics["trace.ops"] = operations
        metrics["trace.ops_per_s"] = throughput
        metrics["trace.latency_p50_ms"] = percentile(samples, 0.5) * 1e3
    else:
        metrics["peak_rss_mb"] = rss.peak_mb
        metrics["ops_per_s"] = throughput
        metrics["latency_p50_ms"] = percentile(samples, 0.5) * 1e3
        metrics["latency_p90_ms"] = percentile(samples, TAIL) * 1e3
    diagnostics = {
        "operations": operations,
        "latency_samples": len(samples),
        "wall_ops_per_s": round(operations / wall, 2),
    }
    return metrics, tally, diagnostics


# -- the serve workload -----------------------------------------------------------


def _counter_delta(after: Dict, before: Dict) -> Dict:
    """Numeric entries of *after* minus *before*."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _telemetry_delta(after: Dict, before: Dict) -> Dict:
    """Counters and histogram totals of *after* minus *before*."""
    histograms = {
        name: {"total": summary.get("total", 0.0)
               - before.get("histograms", {}).get(name, {}).get("total", 0.0)}
        for name, summary in after.get("histograms", {}).items()
    }
    return {
        "counters": _counter_delta(after.get("counters", {}), before.get("counters", {})),
        "histograms": histograms,
    }


def run_serve(seed: int, seconds: float, trace: bool, calibrator: Calibrator):
    traffic = serve.Traffic(seed)
    tally = Tally()
    metrics: Dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = setup_seconds("serve", calibrator)
    diagnostics: Dict = {}
    with RssSampler(calibrator) as rss:
        server = serve.Server(traced=trace)
        try:
            server.wait_healthy()
            serve.warm_up(server, traffic)
            before = server.stats()
            if trace:
                idle, _ = serve.run_phase(server, traffic, serve.IDLE_RATE, 0.4 * seconds)
                busy, busy_wall = serve.run_phase(server, traffic, serve.BUSY_RATE, 0.6 * seconds)
                records = idle + busy
            else:
                busy, _ = serve.run_phase(server, traffic, serve.BUSY_RATE, 0.6 * seconds)
                sustained, saturated = serve.saturate(server, traffic, 0.4 * seconds)
                records = busy + saturated
                diagnostics["saturation_requests"] = len(saturated)
            after = server.stats()
        finally:
            server.stop()
    for record in records:
        tally.record(record.outcome)
    busy_latency = [serve.charged_ms(record) for record in busy]
    diagnostics["busy_samples"] = len(busy_latency)
    if not trace:
        metrics["peak_rss_mb"] = rss.peak_mb
        metrics["ops_per_s"] = sustained
        metrics["latency_p50_ms"] = percentile(busy_latency, 0.5)
        metrics["latency_p90_ms"] = serve.block_tail(busy_latency, TAIL)
        return metrics, tally, diagnostics

    telemetry = _telemetry_delta(
        after["session"]["telemetry"] or {}, before["session"]["telemetry"] or {}
    )
    metrics.update(layers.layer_metrics(telemetry))
    counters = _counter_delta(after["service"]["counters"], before["service"]["counters"])
    memo = _counter_delta(after["service"]["verdict_cache"], before["service"]["verdict_cache"])
    exec_calls = telemetry["counters"].get("bench.service.exec.calls", 0)
    exec_ms = (
        telemetry["counters"].get("bench.service.exec.ns", 0) / exec_calls / 1e6
        if exec_calls else 0.0
    )
    busy_ok = sum(record.outcome == "ok" for record in busy)
    fresh = [record.latency_ms for record in records if record.fresh and record.outcome == "ok"]
    lookups = memo.get("hits", 0) + memo.get("misses", 0)
    metrics.update({
        "service.requests": len(records),
        "service.exec_ms": exec_ms,
        "service.wait_ms": (statistics.mean(fresh) - exec_ms) if fresh else 0.0,
        "service.batches": counters.get("batches", 0),
        "service.items_per_batch": (
            counters.get("batched_items", 0) / counters["batches"]
            if counters.get("batches") else 0.0
        ),
        "service.memo_lookups": lookups,
        "service.memo_hit_rate": memo.get("hits", 0) / lookups if lookups else 0.0,
        "service.shed": counters.get("shed", 0) + counters.get("shed_per_client", 0),
        "service.degraded_batches": counters.get("degraded_batches", 0),
        "service.generator_lag_ms": percentile([r.lag_ms for r in records], TAIL),
        "service.idle_p50_ms": percentile([serve.charged_ms(r) for r in idle], 0.5),
        "service.idle_p90_ms": percentile([serve.charged_ms(r) for r in idle], TAIL),
        "trace.ops": busy_ok,
        "trace.ops_per_s": busy_ok / busy_wall,
        "trace.latency_p50_ms": percentile(busy_latency, 0.5),
    })
    return metrics, tally, diagnostics


# -- entry point ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    with Calibrator() as calibrator:
        if workload == "serve":
            metrics, tally, diagnostics = run_serve(seed, seconds, trace, calibrator)
        else:
            metrics, tally, diagnostics = run_batch(workload, seed, seconds, trace, calibrator)
    wanted = PER_LAYER if trace else END_TO_END
    diagnostics["failures"] = dict(tally.reasons)
    print(f"{workload} seed={seed}: {json.dumps(diagnostics)}", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in wanted
        },
    }


def invoke(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """Run this benchmark in a fresh process and return its result line,
    with ``values`` mapping each metric name to its number.  Raises
    ``RuntimeError`` when the run exits non-zero."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} (trace {trace}) failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["values"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "explore", "serve", "repair"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    result = run(options.workload, options.seed, options.seconds, bool(options.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
