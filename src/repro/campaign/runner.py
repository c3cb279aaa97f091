"""Process-sharded execution of homogeneous campaign jobs.

Every campaign driver (fence repair, hardware testing, mole censuses,
diy family sweeps, BMC batches, model comparison) and the verdict
service boil down to the same shape: a list of independent jobs, each
producing one result, whose order must be preserved.  This module is
the one fan-out layer they all share, and it has **one dispatch path**:
every batch runs under a :class:`~repro.campaign.supervisor.SupervisorPolicy`
(the caller's, else the pool's, else ``on_error="raise"``).

* jobs are grouped into **chunks** so that scheduling and pickling
  overhead amortizes over several jobs and per-worker warm state
  (resolved models, simulators, per-test simulation contexts — see
  :mod:`repro.campaign.jobs`) gets reused within and across chunks;
* the worker callable must be a picklable module-level function taking
  ``(chunk, payload)`` — a list of job specs plus one static payload
  shared by every chunk — and returning one result per job (or
  ``(results, extra)`` when a ``merge`` callback collects per-chunk
  side state, e.g. the fence campaign's cycle-signature memo);
* chunks run on supervised worker processes
  (:mod:`repro.campaign.supervisor`: per-chunk deadlines, bounded retry
  with backoff, worker-death detection with respawn, poison-item
  bisection) or, when there is nothing to parallelize (``processes`` of
  ``None``/``0``/``1``, a single-core machine under ``"auto"``, or a
  single chunk without a warm pool), in-process under the same policy —
  the very same worker over the very same chunks, so serial results are
  byte-identical to sharded ones by construction;
* the result has **one slot per submitted job, in submission order**: a
  job's value, or the :class:`~repro.campaign.supervisor.FailedItem`
  that quarantined it (``FailedItem.index`` is the slot's position).
  Consumers pair slots with their jobs by position — never by name, so
  duplicate test names cannot swap results.

``CampaignPool`` keeps one supervised process group alive across
several batches: workers then retain their warm state (per-process
simulators and context caches) between calls, which is what escalation
loops and the verdict service want.  Pools shut down gracefully —
``close()``/``__exit__`` ask the workers to drain and only
``terminate()`` after a grace period — so worker caches flush and
in-flight telemetry snapshots are not lost.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry as _telemetry
from repro.campaign import supervisor as _supervisor
from repro.campaign.supervisor import (
    FailedItem,
    PoisonItemError,
    SupervisedPool,
    SupervisorPolicy,
    guarded_call,
    item_label,
)
from repro.telemetry.metrics import Metrics

#: Default number of jobs per shard; small enough to balance uneven job
#: costs, large enough to amortize pickling and scheduling.
DEFAULT_CHUNK_SIZE = 8

#: Default shutdown grace period (seconds) before terminate() escalation.
DEFAULT_GRACE = 5.0

Processes = Union[None, int, str]


def _instrumented_chunk(
    worker: Callable[[List[Any], Any], Any],
    chunk: List[Any],
    payload: Any,
    submitted: float,
) -> Tuple[Any, Any]:
    """Run one chunk under a fresh telemetry registry and snapshot it.

    The cross-process aggregation seam: when the parent has telemetry
    enabled, every shard runs through this wrapper — in a worker process
    *or* in-process on the serial fallback, so sharded and serial runs
    produce identical per-chunk snapshots by construction.  The fresh
    registry is installed for the duration of the chunk (shadowing any
    registry a forked worker inherited, which would otherwise accumulate
    invisibly in the child), the chunk's wall time and queue wait are
    recorded into it, and the snapshot rides home next to the results
    for the parent to merge in submission order.
    """
    started = time.time()
    registry = Metrics()
    previous = _telemetry._swap(registry)
    try:
        t0 = time.perf_counter()
        outcome = worker(chunk, payload)
        elapsed = time.perf_counter() - t0
    finally:
        _telemetry._swap(previous)
    registry.count("campaign.chunks")
    registry.count("campaign.jobs", len(chunk))
    registry.observe("campaign.chunk_seconds", elapsed)
    registry.observe("campaign.queue_wait_seconds", max(started - submitted, 0.0))
    return outcome, registry.snapshot()


def worker_count(processes: Processes = None) -> int:
    """Resolve a ``processes`` argument to an effective worker count.

    ``None``, ``0`` and ``1`` mean serial; ``"auto"`` means one worker
    per CPU core (which on a single-core machine is again serial).
    """
    if processes in (None, 0, 1):
        return 1
    if processes == "auto":
        return os.cpu_count() or 1
    count = int(processes)  # type: ignore[arg-type]
    if count < 0:
        raise ValueError(f"negative worker count: {processes!r}")
    return max(count, 1)


def chunked(jobs: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Split *jobs* into order-preserving chunks of at most *chunk_size*."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [list(jobs[i : i + chunk_size]) for i in range(0, len(jobs), chunk_size)]


def _serial_supervised(
    run_worker: Callable,
    make_args: Callable[[List[Any]], Tuple[Any, ...]],
    chunks: Sequence[List[Any]],
    counters: Dict[str, float],
    policy: SupervisorPolicy,
    abort: Optional[threading.Event] = None,
):
    """The supervised semantics without processes: capture and bisect.

    Exceptions are caught at the chunk boundary and bisected down to
    the poison item exactly as the pooled supervisor does, so a policy
    behaves the same in-process as on worker processes.
    Crashes and hangs cannot be contained in-process — those need real
    worker processes.  A running chunk cannot be interrupted in-process
    either, so the batch ``policy.deadline`` and the *abort* event (set
    by :meth:`CampaignPool.abort`) are honoured at slice boundaries:
    once the deadline passes every remaining slice fails fast as a
    ``timeout``, once the event is set as ``aborted``, instead of being
    executed.
    """
    successes: List[Tuple[int, int, Any]] = []
    failures: List[_supervisor._Failure] = []

    def fail_fast(chunk_index: int, offset: int, items: List[Any], kind: str) -> None:
        if kind == "aborted":
            counter, error = "aborted", "batch aborted by pool shutdown"
        else:
            counter, error = "deadline_exhausted", "batch deadline exhausted before dispatch"
        _supervisor._bump(counters, counter, len(items))
        for position, item in enumerate(items):
            failures.append(
                _supervisor._Failure(
                    chunk_index=chunk_index,
                    offset=offset + position,
                    item=item,
                    kind=kind,
                    error=error,
                    traceback="",
                    attempts=1,
                )
            )

    def run_slice(chunk_index: int, offset: int, items: List[Any]) -> None:
        if abort is not None and abort.is_set():
            fail_fast(chunk_index, offset, items, "aborted")
            return
        if policy.expired():
            fail_fast(chunk_index, offset, items, "timeout")
            return
        status, value = guarded_call(run_worker, make_args(items))
        if status == "ok":
            successes.append((chunk_index, offset, value))
        elif len(items) > 1:
            _supervisor._bump(counters, "bisections")
            middle = len(items) // 2
            run_slice(chunk_index, offset, items[:middle])
            run_slice(chunk_index, offset + middle, items[middle:])
        else:
            failures.append(
                _supervisor._Failure(
                    chunk_index=chunk_index,
                    offset=offset,
                    item=items[0],
                    kind=value.kind,
                    error=value.error,
                    traceback=value.traceback,
                    attempts=1,
                )
            )

    for index, chunk in enumerate(chunks):
        run_slice(index, 0, list(chunk))
    return successes, failures


def _run_supervised(
    run_worker: Callable,
    make_args: Callable[[List[Any]], Tuple[Any, ...]],
    chunks: Sequence[List[Any]],
    chunk_size: int,
    policy: SupervisorPolicy,
    *,
    processes: Processes,
    pool: Optional["CampaignPool"],
    phase: str,
) -> Tuple[List[Tuple[int, int, Any]], List[FailedItem]]:
    """Run *chunks* under supervision and apply the error policy.

    Returns ``(successes, failed_items)`` where successes are
    ``(chunk_index, offset, outcome)`` triples covering every surviving
    slice and each failed item carries its job's batch position
    (``chunk_index * chunk_size + offset``).  ``on_error="serial_retry"``
    failures are re-run here, in the parent; whatever still fails is
    quarantined (or raised, under ``on_error="raise"``).
    """
    counters = pool.counters if pool is not None else _supervisor.new_counters()
    effective = pool.workers if pool is not None else worker_count(processes)

    # A single chunk only stays in-process when there is no warm pool:
    # spawning workers for one chunk buys nothing, but with a pool
    # already up, real workers are what make a chunk *killable* — a
    # hang or crash in a single-chunk batch must still be contained
    # (the verdict service counts on this for one-test requests).
    if effective <= 1 or (pool is None and len(chunks) <= 1):
        abort = None
        if pool is not None:
            abort = pool._abort
            abort.clear()
        successes, failures = _serial_supervised(
            run_worker, make_args, chunks, counters, policy, abort
        )
    elif pool is not None:
        successes, failures = pool.supervised().run_tasks(
            run_worker, make_args, chunks, policy
        )
    else:
        ephemeral = SupervisedPool(min(effective, len(chunks)), counters)
        try:
            successes, failures = ephemeral.run_tasks(
                run_worker, make_args, chunks, policy
            )
        finally:
            ephemeral.close(policy.grace)

    failed_items: List[FailedItem] = []
    for failure in failures:
        attempts = failure.attempts
        if (
            policy.on_error == "serial_retry"
            and failure.kind != "aborted"
            and not policy.expired()
        ):
            # Graceful degradation: one in-process attempt in the
            # parent.  Worker-only faults (a chunk that OOMs the worker,
            # an environment-dependent crash) heal here, preserving the
            # sharded==serial guarantee for the retried item too.  A
            # blown batch deadline or an abort skips the retry —
            # re-running poison items serially is exactly how a
            # deadline (or a shutdown) gets pinned.
            _supervisor._bump(counters, "serial_retries")
            attempts += 1
            status, value = guarded_call(run_worker, make_args([failure.item]))
            if status == "ok":
                successes.append((failure.chunk_index, failure.offset, value))
                continue
            failure.kind = value.kind
            failure.error = value.error
            failure.traceback = value.traceback
        failed_items.append(
            FailedItem(
                item=item_label(failure.item),
                phase=phase,
                kind=failure.kind,
                error=failure.error,
                traceback=failure.traceback,
                attempts=attempts,
                index=failure.chunk_index * chunk_size + failure.offset,
            )
        )

    failed_items.sort(key=lambda failed: failed.index)
    if failed_items and policy.on_error == "raise":
        raise PoisonItemError(failed_items)
    if failed_items:
        _supervisor._bump(counters, "quarantined", len(failed_items))
    return successes, failed_items


#: The policy of a batch whose caller and pool set none: supervised like
#: any other, but a failing job surfaces as :class:`PoisonItemError`.
_RAISE = SupervisorPolicy(on_error="raise")


def run_sharded(
    worker: Callable[[List[Any], Any], Any],
    jobs: Sequence[Any],
    *,
    payload: Any = None,
    processes: Processes = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    merge: Optional[Callable[[Any], None]] = None,
    pool: Optional["CampaignPool"] = None,
    policy: Optional[SupervisorPolicy] = None,
    errors: Optional[List[FailedItem]] = None,
) -> List[Any]:
    """Run *worker* over *jobs* in chunks: one slot per job, in order.

    ``worker(chunk, payload)`` must return a list with one result per
    job of the chunk — or, when ``merge`` is given, a ``(results,
    extra)`` pair; ``merge(extra)`` is then invoked in submission order
    (the fence campaign merges worker-local memo caches this way).
    ``pool`` reuses an open :class:`CampaignPool` instead of spinning
    up ephemeral workers.

    Every batch is supervised under ``policy``, else the pool's policy,
    else ``SupervisorPolicy(on_error="raise")``: chunk deadlines,
    bounded retry, worker respawn and poison-item bisection apply on
    every path, in-process ones included.  The result always has
    exactly ``len(jobs)`` slots: slot *i* is job *i*'s value, or — for a
    quarantined job — its :class:`~repro.campaign.supervisor.FailedItem`
    (whose ``index`` is *i*).  The same records are appended to the
    caller's ``errors`` list.  Under ``on_error="raise"`` a failing job
    raises :class:`~repro.campaign.supervisor.PoisonItemError` instead.

    A payload that fails to pickle does not surface as a raw
    ``PicklingError``: those chunks run in-process with a
    :class:`~repro.campaign.supervisor.CampaignPicklingWarning` naming
    the offending object.

    When a telemetry registry is active in the calling process, every
    shard runs through :func:`_instrumented_chunk`: chunk workers
    snapshot a chunk-local registry (counters, spans, cache traffic,
    chunk wall time and queue wait) and the parent folds the snapshots
    back into its registry in submission order — so ``Session.stats()``
    sees one coherent tree across process boundaries, and sharded
    counter totals equal the serial run's.  With telemetry disabled
    this path is byte-identical to the uninstrumented one.
    """
    jobs = list(jobs)
    parent_registry = _telemetry._ACTIVE
    batch_t0 = time.perf_counter()
    if policy is None:
        policy = pool.policy if pool is not None and pool.policy is not None else _RAISE
    chunks = chunked(jobs, chunk_size)

    if parent_registry is not None:
        submitted = time.time()
        run_worker: Callable = _instrumented_chunk

        def make_args(items: List[Any]) -> Tuple[Any, ...]:
            return (worker, items, payload, submitted)

    else:
        run_worker = worker

        def make_args(items: List[Any]) -> Tuple[Any, ...]:
            return (items, payload)

    successes, failed_items = _run_supervised(
        run_worker,
        make_args,
        chunks,
        chunk_size,
        policy,
        processes=processes,
        pool=pool,
        phase=getattr(worker, "__name__", str(worker)),
    )
    if errors is not None:
        errors.extend(failed_items)

    slots: List[Any] = [None] * len(jobs)
    for failed in failed_items:
        slots[failed.index] = failed
    busy_seconds = 0.0
    for chunk_index, offset, outcome in sorted(
        successes, key=lambda success: success[:2]
    ):
        if parent_registry is not None:
            outcome, snapshot = outcome
            busy_seconds += snapshot.histograms.get(
                "campaign.chunk_seconds", {}
            ).get("total", 0.0)
            parent_registry.merge(snapshot)
        if merge is not None:
            chunk_results, extra = outcome
            merge(extra)
        else:
            chunk_results = outcome
        start = chunk_index * chunk_size + offset
        slots[start : start + len(chunk_results)] = chunk_results
    if parent_registry is not None:
        batch_seconds = time.perf_counter() - batch_t0
        parent_registry.count("campaign.batches")
        parent_registry.observe("campaign.batch_seconds", batch_seconds)
        effective_workers = pool.workers if pool is not None else worker_count(processes)
        workers_used = max(1, min(effective_workers, len(chunks)))
        if batch_seconds > 0:
            parent_registry.set_gauge(
                "campaign.worker_utilization",
                min(1.0, busy_seconds / (batch_seconds * workers_used)),
            )
    return slots


def survivors(slots: Sequence[Any]) -> List[Any]:
    """The values among *slots*, in order, quarantined jobs dropped.

    For drivers whose public result covers surviving jobs only (their
    :class:`~repro.campaign.supervisor.FailedItem` records travel on a
    separate ``errors`` field).
    """
    return [slot for slot in slots if not isinstance(slot, FailedItem)]


class CampaignPool:
    """A reusable supervised worker pool for multi-batch campaigns.

    The pool's processes survive between :meth:`run` calls, so the
    per-process warm state built by :mod:`repro.campaign.jobs` (resolved
    models, simulators, per-test simulation contexts) carries over from
    one batch to the next — exactly what escalation loops and repeated
    model comparisons want.  With an effective worker count of one the
    pool runs every batch in-process and spawns nothing.

    ``policy`` (a :class:`~repro.campaign.supervisor.SupervisorPolicy`)
    is the default policy of every batch on this pool — chunk
    deadlines, bounded retry, automatic respawn of dead workers,
    poison-item quarantine; without one, batches run under
    ``on_error="raise"``.  ``counters`` accumulates the supervision
    events across batches (and across worker respawns) — the
    ``supervisor`` subtree of ``Session.stats()`` reads it.

    Use as a context manager::

        with CampaignPool("auto") as pool:
            first = pool.run(worker, jobs_a, payload=...)
            second = pool.run(worker, jobs_b, payload=...)
    """

    def __init__(
        self,
        processes: Processes = "auto",
        policy: Optional[SupervisorPolicy] = None,
    ):
        self.workers = worker_count(processes)
        self.policy = policy
        self.counters: Dict[str, float] = _supervisor.new_counters()
        self._supervised: Optional[SupervisedPool] = None
        self._close_lock = threading.Lock()
        self._abort = threading.Event()

    def __enter__(self) -> "CampaignPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, grace: Optional[float] = None) -> None:
        """Drain and shut down the workers, gracefully then forcefully.

        Workers get *grace* seconds (default: the policy's, else 5) to
        finish their in-flight chunk and exit; stragglers are
        terminated.  The supervision counters survive ``close`` — a
        pool restarted by a later batch keeps accumulating into them.

        Idempotent and thread-safe: repeated or concurrent ``close``
        calls — including after a worker has already died — tear the
        workers down exactly once and simply return afterwards, so every
        shutdown path (``__exit__``, a service drain, an ``atexit``
        hook) may call it without coordinating.
        """
        if grace is None:
            grace = self.policy.grace if self.policy is not None else DEFAULT_GRACE
        with self._close_lock:
            supervised, self._supervised = self._supervised, None
        if supervised is not None:
            supervised.close(grace)

    def abort(self) -> None:
        """Abort the batch running on this pool, if any.

        Thread-safe: meant to be called from a watchdog (the verdict
        service's drain-window expiry) while another thread is blocked
        inside :meth:`run` — that batch fails its unfinished items as
        ``aborted`` and returns promptly, after which :meth:`close` can
        shut the workers down without waiting out a long chunk.  A
        batch running in-process (a one-worker pool) stops at its next
        slice boundary; the slice already running finishes first.
        """
        self._abort.set()
        supervised = self._supervised
        if supervised is not None:
            supervised.abort()

    def supervised(self) -> SupervisedPool:
        """This pool's supervised process group (started lazily)."""
        with self._close_lock:
            if self._supervised is None:
                self._supervised = SupervisedPool(self.workers, self.counters)
            return self._supervised

    def stats(self) -> Dict[str, float]:
        """A copy of the supervision counters (zeros when never used)."""
        return dict(self.counters)

    def run(
        self,
        worker: Callable[[List[Any], Any], Any],
        jobs: Sequence[Any],
        *,
        payload: Any = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        merge: Optional[Callable[[Any], None]] = None,
        policy: Optional[SupervisorPolicy] = None,
        errors: Optional[List[FailedItem]] = None,
    ) -> List[Any]:
        """:func:`run_sharded` on this pool's (persistent) workers."""
        return run_sharded(
            worker,
            jobs,
            payload=payload,
            chunk_size=chunk_size,
            merge=merge,
            pool=self,
            policy=policy,
            errors=errors,
        )
