"""Per-layer tracing from outside the program, and its reduction.

:func:`install` wraps the public entry points of each layer — parse,
thread paths, context, the herd run, the axiom check and its
``ppo``/``fences``/``prop`` parts, fence analysis/placement/validation
and the service's batch execution — with a span recorder.  Each span
keeps a per-thread stack so that, when it closes, its *self time* (its
duration minus the time its child spans cover) is known at once; the
span's total, self time and call count are then added to the active
``repro.telemetry`` registry.  That registry is what the campaign
runtime snapshots per chunk in every worker process and merges back
into the parent, so worker-side spans reach the parent's table through
the program's own aggregation path.  With no registry active the
wrappers only pay one ``is None`` test.

:func:`layer_metrics` reduces the merged counters (plus the program's
own ``engine.*``/``herd.*``/``campaign.*`` telemetry) to the per-layer
table: times, counts, and every ratio together with its base.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import telemetry as _telemetry

_STACKS = threading.local()

#: Campaign workers per pool, as sized for the two-core target.
WORKERS = 2


def _stack() -> List[int]:
    stack = getattr(_STACKS, "stack", None)
    if stack is None:
        stack = _STACKS.stack = []
    return stack


def _record(registry, layer: str, elapsed: int, children: int) -> None:
    registry.count(f"bench.{layer}.ns", elapsed)
    registry.count(f"bench.{layer}.self_ns", elapsed - children)
    registry.count(f"bench.{layer}.calls")


def traced(layer: str, function: Callable) -> Callable:
    """*function* wrapped in a span of *layer* (a no-op without a registry)."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        registry = _telemetry._ACTIVE
        if registry is None:
            return function(*args, **kwargs)
        stack = _stack()
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            _record(registry, layer, elapsed, children)

    wrapper.__wrapped_layer__ = layer
    return wrapper


def _traced_lookup(function: Callable) -> Callable:
    """``ContextCache.get`` with a miss counter beside the span."""
    timed = traced("context.lookup", function)

    @functools.wraps(function)
    def wrapper(cache, test):
        misses = cache.misses
        context = timed(cache, test)
        registry = _telemetry._ACTIVE
        if registry is not None and cache.misses != misses:
            registry.count("bench.context.misses")
        return context

    wrapper.__wrapped_layer__ = "context.lookup"
    return wrapper


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, layer) for every wrapped entry point."""
    import repro.fences.campaign as fences_campaign
    import repro.fences.validate as fences_validate
    import repro.herd.enumerate as herd_enumerate
    import repro.litmus as litmus
    import repro.litmus.parser as litmus_parser
    from repro.campaign.context import SimulationContext
    from repro.core.model import Architecture, Model
    from repro.herd.simulator import Simulator

    return [
        (litmus_parser, "parse_litmus", "litmus.parse"),
        (litmus, "parse_litmus", "litmus.parse"),
        (herd_enumerate, "enumerate_thread_paths", "litmus.thread_paths"),
        (SimulationContext, "combinations", "context.build"),
        (SimulationContext, "context", "context.build"),
        (SimulationContext, "plan", "context.build"),
        (Simulator, "run", "herd.run"),
        (Model, "check", "core.check"),
        (Architecture, "ppo", "core.ppo"),
        (Architecture, "fences", "core.fences"),
        (Architecture, "prop", "core.prop"),
        (fences_campaign, "aeg_from_litmus", "fences.analysis"),
        (fences_campaign, "critical_cycles", "fences.analysis"),
        (fences_validate, "aeg_from_litmus", "fences.analysis"),
        (fences_validate, "critical_cycles", "fences.analysis"),
        (fences_validate, "plan_placements", "fences.plan"),
        (fences_validate, "apply_placements", "fences.plan"),
        (fences_validate, "_verdict", "fences.validate"),
    ]


def install(service: bool = False) -> None:
    """Wrap every layer entry point (idempotent).  ``service`` also wraps
    the verdict service's batch execution, for the traced server."""
    from repro.campaign.context import ContextCache

    targets = _targets()
    if service:
        from repro.service.app import VerdictService

        targets.append((VerdictService, "_run_group", "service.exec"))
    for owner, attribute, layer in targets:
        current = getattr(owner, attribute)
        if not hasattr(current, "__wrapped_layer__"):
            setattr(owner, attribute, traced(layer, current))
    if not hasattr(ContextCache.get, "__wrapped_layer__"):
        ContextCache.get = _traced_lookup(ContextCache.get)


# -- reduction -------------------------------------------------------------------

#: Every per-layer metric, with its unit, in table order.  Layers a
#: workload does not exercise read 0 — that is the prediction for them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("litmus.parse_s", "s"),
    ("litmus.parse_calls", "count"),
    ("litmus.thread_paths_s", "s"),
    ("litmus.thread_paths_calls", "count"),
    ("context.build_s", "s"),
    ("context.lookups", "count"),
    ("context.hit_rate", "ratio"),
    ("herd.run_s", "s"),
    ("herd.runs", "count"),
    ("herd.self_s", "s"),
    ("herd.survivors", "count"),
    ("herd.attempts", "count"),
    ("herd.co_orders_tried", "count"),
    ("herd.extension_steps", "count"),
    ("herd.early_exits", "count"),
    ("herd.useful_ratio", "ratio"),
    ("core.check_s", "s"),
    ("core.check_calls", "count"),
    ("core.ppo_s", "s"),
    ("core.fences_s", "s"),
    ("core.prop_s", "s"),
    ("campaign.batch_wall_s", "s"),
    ("campaign.worker_busy_s", "s"),
    ("campaign.queue_wait_s", "s"),
    ("campaign.chunks", "count"),
    ("campaign.utilization", "ratio"),
    ("campaign.retries", "count"),
    ("fences.analysis_s", "s"),
    ("fences.plan_s", "s"),
    ("fences.validate_s", "s"),
    ("fences.validations", "count"),
    ("fences.repairs_needed", "count"),
    ("fences.cycle_hit_rate", "ratio"),
)


def _seconds(counters: Dict[str, int], layer: str, kind: str = "ns") -> float:
    return counters.get(f"bench.{layer}.{kind}", 0) / 1e9


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(snapshot, repairs: Tuple[int, int] = (0, 0)) -> Dict[str, float]:
    """The per-layer table of one traced run.

    ``snapshot`` is the merged :class:`repro.telemetry.MetricsSnapshot`
    (or its ``to_dict()`` form); ``repairs`` is ``(memo hits, tests
    needing fences)`` counted from the repair reports, the base of
    ``fences.cycle_hit_rate``.
    """
    if not isinstance(snapshot, dict):
        snapshot = snapshot.to_dict()
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def total(name: str) -> float:
        return float(histograms.get(name, {}).get("total", 0.0))

    survivors = counters.get("engine.survivors", 0) + counters.get(
        "engine.optimal.explored", 0
    )
    attempts = counters.get("engine.co_orders_tried", 0) + counters.get(
        "engine.optimal.extension_steps", 0
    )
    lookups = counters.get("bench.context.lookup.calls", 0)
    wall = total("campaign.batch_seconds")
    busy = total("campaign.chunk_seconds")
    hits, needed = repairs
    return {
        "litmus.parse_s": _seconds(counters, "litmus.parse"),
        "litmus.parse_calls": counters.get("bench.litmus.parse.calls", 0),
        "litmus.thread_paths_s": _seconds(counters, "litmus.thread_paths"),
        "litmus.thread_paths_calls": counters.get("bench.litmus.thread_paths.calls", 0),
        "context.build_s": _seconds(counters, "context.build", "self_ns"),
        "context.lookups": lookups,
        "context.hit_rate": _ratio(lookups - counters.get("bench.context.misses", 0), lookups),
        "herd.run_s": _seconds(counters, "herd.run"),
        "herd.runs": counters.get("bench.herd.run.calls", 0),
        "herd.self_s": _seconds(counters, "herd.run", "self_ns"),
        "herd.survivors": survivors,
        "herd.attempts": attempts,
        "herd.co_orders_tried": counters.get("engine.co_orders_tried", 0),
        "herd.extension_steps": counters.get("engine.optimal.extension_steps", 0),
        "herd.early_exits": counters.get("herd.verdict_early_exits", 0),
        "herd.useful_ratio": _ratio(survivors, attempts),
        "core.check_s": _seconds(counters, "core.check"),
        "core.check_calls": counters.get("bench.core.check.calls", 0),
        "core.ppo_s": _seconds(counters, "core.ppo"),
        "core.fences_s": _seconds(counters, "core.fences"),
        "core.prop_s": _seconds(counters, "core.prop"),
        "campaign.batch_wall_s": wall,
        "campaign.worker_busy_s": busy,
        "campaign.queue_wait_s": total("campaign.queue_wait_seconds"),
        "campaign.chunks": counters.get("campaign.chunks", 0),
        "campaign.utilization": _ratio(busy, wall * WORKERS),
        "campaign.retries": counters.get("campaign.supervisor.retries", 0),
        "fences.analysis_s": _seconds(counters, "fences.analysis"),
        "fences.plan_s": _seconds(counters, "fences.plan"),
        "fences.validate_s": _seconds(counters, "fences.validate"),
        "fences.validations": counters.get("bench.fences.validate.calls", 0),
        "fences.repairs_needed": needed,
        "fences.cycle_hit_rate": _ratio(hits, needed),
    }


#: Deterministic work counters (hardware-independent): the program's
#: engine telemetry plus span call counts, from a fixed serial pass.
COUNTS: Tuple[str, ...] = (
    "herd.runs",
    "herd.plans_walked",
    "herd.verdict_early_exits",
    "engine.walks",
    "engine.rf_candidates",
    "engine.co_orders_tried",
    "engine.closure_edge_ops",
    "engine.survivors",
    "engine.optimal.walks",
    "engine.optimal.explored",
    "engine.optimal.extension_steps",
    "core.check_calls",
    "context.misses",
    "fences.validations",
)


def work_counts(snapshot) -> Dict[str, int]:
    """The ``COUNTS`` of one snapshot, as ``count.<name>`` metrics."""
    if not isinstance(snapshot, dict):
        snapshot = snapshot.to_dict()
    counters = snapshot.get("counters", {})
    derived = {
        "herd.runs": counters.get("bench.herd.run.calls", 0),
        "core.check_calls": counters.get("bench.core.check.calls", 0),
        "context.misses": counters.get("bench.context.misses", 0),
        "fences.validations": counters.get("bench.fences.validate.calls", 0),
    }
    return {
        f"count.{name}": int(derived[name] if name in derived else counters.get(name, 0))
        for name in COUNTS
    }
