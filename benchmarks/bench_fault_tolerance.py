"""Fault-tolerant campaign runtime: healthy-path overhead and recovery.

Not a paper table: this benchmark gates the supervised execution layer
(:mod:`repro.campaign.supervisor`) added on top of the campaign runner.

* ``test_supervised_healthy_overhead`` — the same CPU-bound batch run
  through the runner's one dispatch path twice: on a two-worker
  supervised ``CampaignPool`` and in-process (a one-worker pool, the
  serial fallback under the same policy).  Every batch is supervised,
  so this is what a healthy batch pays for its worker processes —
  pipes, pickling, the supervise loop — against what they buy; the
  recorded ``overhead`` ratio (pooled / in-process seconds) is the
  number the committed baseline tracks: below 1 wherever the machine
  lends the benchmark two cores.
* ``test_supervised_crash_recovery`` — the same batch with one worker
  crash injected (``os._exit`` mid-chunk): the batch must still
  complete, quarantining exactly the poison item, and the recorded
  ``recovery_seconds`` tracks how much a retry + bisection round costs.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.campaign import CampaignPool, SupervisorPolicy
from repro.campaign.faults import FaultSpec, busy_chunk
from repro.campaign.runner import survivors

JOBS = list(range(64))
SPINS = 20_000
CHUNK_SIZE = 4


def _healthy_overhead_stats():
    policy = SupervisorPolicy()
    with CampaignPool(1, policy=policy) as in_process:
        start = time.perf_counter()
        serial = in_process.run(busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE)
        serial_seconds = time.perf_counter() - start

    with CampaignPool(2, policy=policy) as supervised_pool:
        supervised_pool.run(busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE)
        start = time.perf_counter()
        supervised = supervised_pool.run(
            busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE
        )
        supervised_seconds = time.perf_counter() - start
        counters = supervised_pool.stats()

    return {
        "jobs": len(JOBS),
        "serial_seconds": serial_seconds,
        "supervised_seconds": supervised_seconds,
        "overhead": supervised_seconds / serial_seconds,
        "results_equal": serial == supervised,
        "quiet_counters": not any(
            counters[name]
            for name in ("retries", "timeouts", "worker_deaths", "quarantined")
        ),
    }


def test_supervised_healthy_overhead(benchmark):
    stats = run_once(benchmark, _healthy_overhead_stats)
    benchmark.extra_info.update(
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in stats.items()}
    )

    # Sharding must not change healthy results, and a healthy batch
    # must not trip any supervision machinery.
    assert stats["results_equal"]
    assert stats["quiet_counters"]
    # The committed baseline tracks the precise ratio; this in-run gate
    # only catches pathological regressions (timer noise on shared CI
    # runners makes a tight bound flaky).
    assert stats["overhead"] < 2.0


def _crash_recovery_stats():
    policy = SupervisorPolicy(max_retries=1, backoff=0.01, max_backoff=0.05)
    errors: list = []
    with CampaignPool(2, policy=policy) as pool:
        start = time.perf_counter()
        results = pool.run(
            busy_chunk, JOBS, payload=SPINS, chunk_size=CHUNK_SIZE
        )
        healthy_seconds = time.perf_counter() - start

        start = time.perf_counter()
        slots = pool.run(
            _crashing_chunk,
            JOBS,
            payload=SPINS,
            chunk_size=CHUNK_SIZE,
            errors=errors,
        )
        recovery_seconds = time.perf_counter() - start
        counters = pool.stats()

    return {
        "healthy_seconds": healthy_seconds,
        "recovery_seconds": recovery_seconds,
        "complete": len(results) == len(JOBS),
        "survivors": len(survivors(slots)),
        "quarantined": [failure.item for failure in errors],
        "worker_deaths": counters["worker_deaths"],
        "respawns": counters["respawns"],
    }


def _crashing_chunk(chunk, payload):
    """busy_chunk with a crash wired to item 13 (workers only)."""
    FaultSpec("crash", repr(13), only_in_worker=False).maybe_fire(
        repr(13) if 13 in chunk else ""
    )
    return busy_chunk(chunk, payload)


def test_supervised_crash_recovery(benchmark):
    stats = run_once(benchmark, _crash_recovery_stats)
    benchmark.extra_info.update(
        {
            k: (round(v, 4) if isinstance(v, float) else v)
            for k, v in stats.items()
            if not isinstance(v, list)
        }
    )

    assert stats["complete"]
    # The crash kills a whole chunk attempt; retry + bisection must
    # isolate exactly the poison item and keep every other job.
    assert stats["quarantined"] == [repr(13)]
    assert stats["survivors"] == len(JOBS) - 1
    assert stats["worker_deaths"] >= 1
    assert stats["respawns"] >= 1
