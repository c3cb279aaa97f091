"""The shared campaign runtime: sharding, context caching, invalidation.

Differential guarantees, in the spirit of ``tests/test_differential.py``:

* sharded campaign results equal serial results for all five drivers
  (fence repair, hardware testing, mole censuses, diy sweeps, BMC);
* context-cache hits return results identical to cold runs, across
  models and SC-PER-LOCATION variants;
* splicing a test (fence repair) never hits the original's cached
  context — structural fingerprints make stale relations unreachable.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignPool,
    ContextCache,
    SimulationContext,
    chunked,
    run_sharded,
    test_fingerprint,
    worker_count,
)
from repro.diy.families import sweep_family, two_thread_family
from repro.fences.campaign import repair_family
from repro.fences.validate import repair_test
from repro.hardware import default_arm_chips, default_power_chips, run_campaign
from repro.herd.simulator import Simulator, resolve_model
from repro.litmus.registry import get_test
from repro.mole import analyse_corpus, debian_corpus
from repro.verification import verify_batch
from repro.verification.examples import all_examples

MODELS = ("power", "arm", "tso", "arm-llh")


def _family():
    return two_thread_family("power", limit=12)


# -- the sharding runner ------------------------------------------------------------


def _double_chunk(chunk, payload):
    return [item * 2 + (payload or 0) for item in chunk]


def _sum_chunk(chunk, payload):
    return [item + payload for item in chunk], sum(chunk)


def test_worker_count_resolution():
    assert worker_count(None) == 1
    assert worker_count(0) == 1
    assert worker_count(1) == 1
    assert worker_count(3) == 3
    assert worker_count("auto") >= 1
    with pytest.raises(ValueError):
        worker_count(-2)


def test_chunking_preserves_order_and_covers_everything():
    jobs = list(range(23))
    chunks = chunked(jobs, 5)
    assert [len(chunk) for chunk in chunks] == [5, 5, 5, 5, 3]
    assert [item for chunk in chunks for item in chunk] == jobs
    with pytest.raises(ValueError):
        chunked(jobs, 0)


def test_run_sharded_order_and_serial_fallback_identity():
    jobs = list(range(17))
    serial = run_sharded(_double_chunk, jobs, payload=1, processes=None, chunk_size=4)
    sharded = run_sharded(_double_chunk, jobs, payload=1, processes=2, chunk_size=4)
    assert serial == sharded == [item * 2 + 1 for item in jobs]


def test_run_sharded_merge_collects_chunk_extras_in_order():
    jobs = list(range(10))
    extras = []
    results = run_sharded(
        _sum_chunk,
        jobs,
        payload=100,
        processes=2,
        chunk_size=3,
        merge=extras.append,
    )
    assert results == [item + 100 for item in jobs]
    assert extras == [0 + 1 + 2, 3 + 4 + 5, 6 + 7 + 8, 9]


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    size=st.integers(min_value=1, max_value=12),
    chunk_size=st.integers(min_value=1, max_value=5),
    processes=st.sampled_from([1, 2]),
    kind=st.sampled_from(["raise", "raise_unpicklable", "crash"]),
)
def test_run_sharded_slots_match_jobs_under_random_faults(
    data, size, chunk_size, processes, kind
):
    from repro.campaign import FailedItem, SupervisorPolicy
    from repro.campaign.faults import FaultSpec, echo_chunk

    jobs = list(range(100, 100 + size))
    target = data.draw(st.sampled_from(jobs))
    # In-process, only exceptions can be contained: a crash there would
    # take the test runner with it, so crashes stay worker-only (and
    # then do not fire on the in-process path at all).
    spec = FaultSpec(kind, repr(target), only_in_worker=kind == "crash")
    errors: list = []
    slots = run_sharded(
        echo_chunk,
        jobs,
        payload=spec,
        processes=processes,
        chunk_size=chunk_size,
        policy=SupervisorPolicy(max_retries=1, backoff=0.01, max_backoff=0.05),
        errors=errors,
    )
    assert len(slots) == len(jobs)
    for index, (job, slot) in enumerate(zip(jobs, slots)):
        if isinstance(slot, FailedItem):
            assert job == target
            assert slot.index == index and slot.item == repr(job)
        else:
            assert slot == job * 2
    assert errors == [slot for slot in slots if isinstance(slot, FailedItem)]
    if kind != "crash":
        assert [failed.item for failed in errors] == [repr(target)]


def test_policy_less_batches_raise_poison_item_error():
    from repro.campaign import PoisonItemError
    from repro.campaign.faults import FaultSpec, echo_chunk

    spec = FaultSpec("raise", repr(5), only_in_worker=False)
    for processes in (None, 2):
        with pytest.raises(PoisonItemError) as caught:
            run_sharded(echo_chunk, list(range(12)), payload=spec, processes=processes, chunk_size=4)
        assert [failed.item for failed in caught.value.failures] == [repr(5)]
        assert caught.value.failures[0].index == 5


def test_campaign_pool_reuses_workers_across_batches():
    with CampaignPool(2) as pool:
        first = pool.run(_double_chunk, [1, 2, 3], payload=0, chunk_size=2)
        second = pool.run(_double_chunk, [4, 5], payload=0, chunk_size=2)
    assert first == [2, 4, 6]
    assert second == [8, 10]


# -- (a) sharded results == serial results across drivers ---------------------------


def test_sharded_fence_campaign_matches_serial():
    tests = _family()
    serial = repair_family(tests, "power")
    sharded = repair_family(tests, "power", processes=2, chunk_size=4)
    assert serial.model_name == sharded.model_name
    assert [
        (r.test_name, r.before_verdict, r.after_verdict, r.success, r.mechanisms)
        for r in serial.reports
    ] == [
        (r.test_name, r.before_verdict, r.after_verdict, r.success, r.mechanisms)
        for r in sharded.reports
    ]
    assert serial.total_cost == sharded.total_cost


def test_sharded_ilp_fence_campaign_matches_serial():
    """ILP repairs shard and cache exactly like greedy ones: the chunk
    workers carry the strategy in their payload, and sharded results
    (mechanisms, costs, memo behaviour) are byte-equal to serial."""
    from repro.diy.families import shared_gap_family

    tests = _family() + shared_gap_family()
    serial = repair_family(tests, "power", strategy="ilp")
    sharded = repair_family(
        tests, "power", strategy="ilp", processes=2, chunk_size=4
    )
    assert serial.model_name == sharded.model_name
    assert [
        (r.test_name, r.before_verdict, r.after_verdict, r.success,
         r.mechanisms, r.strategy, r.cost)
        for r in serial.reports
    ] == [
        (r.test_name, r.before_verdict, r.after_verdict, r.success,
         r.mechanisms, r.strategy, r.cost)
        for r in sharded.reports
    ]
    assert serial.total_cost == sharded.total_cost


def test_sharded_hardware_campaign_matches_serial():
    tests = _family()[:6]
    chips = default_power_chips()[:2]
    serial = run_campaign(tests, chips, "power", iterations=20_000)
    sharded = run_campaign(
        tests, chips, "power", iterations=20_000, processes=2, chunk_size=2
    )
    assert serial.results == sharded.results  # observations included, seed for seed


def test_sharded_hardware_campaign_arm_errata_match_serial():
    tests = [get_test("coRR"), get_test("mp"), get_test("sb")]
    chips = default_arm_chips()[:2]
    serial = run_campaign(tests, chips, "power-arm", iterations=50_000)
    sharded = run_campaign(
        tests, chips, "power-arm", iterations=50_000, processes=2, chunk_size=1
    )
    assert serial.results == sharded.results


def test_sharded_hardware_campaign_custom_chip_falls_back_to_serial():
    import dataclasses

    from repro.core.architectures import power_architecture
    from repro.core.model import Model
    from repro.hardware.testing import _chip_references

    chips = default_power_chips()[:2]
    assert _chip_references(chips) == ("Power6", "Power7")
    # A same-named chip with a swapped implementation model is custom:
    # workers must not silently rebuild the default in its place.
    custom = dataclasses.replace(chips[0], implementation=Model(power_architecture()))
    assert _chip_references([custom, chips[1]]) is None
    tests = _family()[:3]
    serial = run_campaign(tests, [custom, chips[1]], "power", iterations=5_000)
    sharded = run_campaign(
        tests, [custom, chips[1]], "power", iterations=5_000, processes=2, chunk_size=1
    )
    assert serial.results == sharded.results


def test_sharded_mole_census_matches_serial():
    corpus = debian_corpus()
    serial = analyse_corpus(corpus)
    sharded = analyse_corpus(corpus, processes=2, chunk_size=2)
    assert set(serial) == set(sharded)
    for package in serial:
        assert serial[package].cycles == sharded[package].cycles


def test_sharded_family_sweep_matches_serial():
    tests = _family()
    for model in ("power", "tso"):
        serial = sweep_family(tests, model)
        sharded = sweep_family(tests, model, processes=2, chunk_size=3)
        assert serial.verdicts == sharded.verdicts
        assert serial.model_name == sharded.model_name


def test_sharded_family_sweep_canonicalizes_model_name():
    tests = _family()[:4]
    serial = sweep_family(tests, "Power")
    sharded = sweep_family(tests, "Power", processes=2, chunk_size=2)
    assert serial.model_name == sharded.model_name == "power"
    assert serial.verdicts == sharded.verdicts


def test_run_sharded_single_shard_stays_in_process():
    # One shard has no parallelism to win; the runner must run it in
    # this very process (observable through side effects on a local).
    seen = []
    jobs = list(range(5))

    def record_chunk(chunk, payload):
        seen.extend(chunk)
        return [item + payload for item in chunk]

    results = run_sharded(record_chunk, jobs, payload=1, processes=4, chunk_size=8)
    assert results == [item + 1 for item in jobs]
    assert seen == jobs  # ran here, not in a forked worker


def test_sharded_bmc_batch_matches_serial():
    items = list(all_examples())[:3] + [get_test("mp"), get_test("sb+syncs")]
    serial = verify_batch(items, "power")
    sharded = verify_batch(items, "power", processes=2, chunk_size=2)

    def key(result):
        return (
            result.name,
            result.model_name,
            result.backend,
            result.safe,
            result.violated_assertion,
            result.candidates_explored,
            result.allowed_executions,
        )

    assert [key(r) for r in serial] == [key(r) for r in sharded]


# -- (b) context-cache hits == cold runs --------------------------------------------


def test_context_cache_hits_reproduce_cold_results():
    tests = _family()[:8]
    cache = ContextCache()
    for model in MODELS:
        simulator = Simulator(model)
        for test in tests:
            cold = simulator.run(test)
            warm = simulator.run(test, context=cache.get(test))
            again = simulator.run(test, context=cache.get(test))
            for cached in (warm, again):
                assert cached.allowed_outcomes == cold.allowed_outcomes
                assert cached.all_outcomes == cold.all_outcomes
                assert cached.num_candidates == cold.num_candidates
                assert cached.num_allowed == cold.num_allowed
                assert cached.verdict == cold.verdict
                assert cached.condition_holds == cold.condition_holds
    assert cache.hits > 0
    # One context per distinct test serves every model and variant.
    assert cache.misses == len(tests)


def test_context_cache_verdict_fast_path_matches_cold():
    tests = _family()
    cache = ContextCache()
    for model in ("power", "arm-llh"):
        simulator = Simulator(model)
        for test in tests:
            assert simulator.verdict(test, context=cache.get(test)) == (
                simulator.verdict(test)
            )


def test_context_cache_is_keyed_structurally_not_by_name():
    mp = get_test("mp")
    cache = ContextCache()
    clone = pickle.loads(pickle.dumps(mp))
    clone.name = "renamed-mp"
    assert test_fingerprint(mp) == test_fingerprint(clone)
    assert cache.get(mp) is cache.get(clone)


def test_context_cache_capacity_evicts_least_recently_used():
    tests = _family()[:6]
    cache = ContextCache(capacity=2)
    for test in tests:
        cache.get(test)
    assert len(cache) == 2
    assert cache.evictions == len(tests) - 2


# -- (c) cache invalidation on splice ------------------------------------------------


def test_spliced_test_never_hits_the_original_context():
    mp = get_test("mp")
    report = repair_test(mp, "power")
    assert report.needed_repair and report.success
    repaired = report.repaired

    cache = ContextCache()
    original_context = cache.get(mp)
    spliced_context = cache.get(repaired)
    # The splice changed the instruction stream: different fingerprint,
    # different context, no stale relations.
    assert test_fingerprint(mp) != test_fingerprint(repaired)
    assert spliced_context is not original_context

    simulator = Simulator("power")
    assert simulator.verdict(mp, context=cache.get(mp)) == "Allow"
    assert simulator.verdict(repaired, context=cache.get(repaired)) == "Forbid"


def test_repair_with_context_cache_matches_plain_repair():
    cache = ContextCache()
    for name in ("mp", "sb", "lb", "wrc"):
        plain = repair_test(get_test(name), "power")
        cached = repair_test(get_test(name), "power", context_cache=cache)
        assert plain.before_verdict == cached.before_verdict
        assert plain.after_verdict == cached.after_verdict
        assert plain.success == cached.success
        assert plain.mechanisms == cached.mechanisms
        assert plain.validations == cached.validations


def test_explicit_invalidation_drops_the_entry():
    mp = get_test("mp")
    cache = ContextCache()
    cache.get(mp)
    assert cache.invalidate(mp)
    assert not cache.invalidate(mp)
    assert len(cache) == 0


# -- process-boundary safety ---------------------------------------------------------


def test_event_hash_is_recomputed_on_unpickle():
    from repro.core.events import Event, MemoryWrite

    event = Event(thread=0, poi=1, eid="a", action=MemoryWrite("x", 1))
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert hash(clone) == hash(event)
    # A freshly built equal event must find the unpickled one in a dict.
    fresh = Event(thread=0, poi=1, eid="a", action=MemoryWrite("x", 1))
    assert {clone: "found"}[fresh] == "found"


def test_relation_and_index_caches_are_dropped_on_pickle():
    from repro.herd.enumerate import combination_contexts

    context = next(combination_contexts(get_test("mp")))
    po = context.po
    assert po.transitive_closure() is po.transitive_closure()  # memo warms
    clone = pickle.loads(pickle.dumps(po))
    assert clone._cache == {}
    assert clone.pairs == po.pairs
    index_clone = pickle.loads(pickle.dumps(context.index))
    assert index_clone._mask_cache == {}
    assert index_clone.n == context.index.n
    assert index_clone.events == context.index.events


def test_resolve_model_is_idempotent_and_shared():
    resolved = resolve_model("power")
    assert resolve_model(resolved) is resolved
    assert Simulator(resolved).model is resolved


def test_simulation_context_builds_combinations_lazily():
    mp = get_test("mp")
    context = SimulationContext(mp)
    # A verdict-only query against mp's register-only condition interns a
    # strict subset of the combinations.
    list(context.target_plans("standard"))
    interned_for_target = len(context._contexts)
    assert 0 < interned_for_target < len(context.combinations())
    list(context.plans("standard"))
    assert len(context._contexts) == len(context.combinations())
