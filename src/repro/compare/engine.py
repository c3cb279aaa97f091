"""The comparison driver: paired verdicts, classification, witnesses.

``compare_models(a, b)`` answers "is A stronger than B, and show me a
minimal witness" the way memalloy's comparator does — sweep a bounded
corpus of candidate tests under both models and classify the allowed
sets — with two economies on top:

* **paired contexts** — both models' verdicts of one test share one
  :class:`~repro.campaign.context.SimulationContext`, so the
  model-independent front half of the pipeline (thread paths, event
  interning, plan skeletons) is paid once per test instead of once per
  (test, model) pair;
* **campaign sharding** — the paired jobs fan out over the supervised
  campaign runtime (:class:`~repro.campaign.jobs.VerdictPairJob`) when
  a pool or worker count is supplied, with exactly the serial results
  (asserted in the test-suite) and quarantine semantics for poison
  tests.

Minimality of a witness is certified, not assumed: after the sweep,
every budget-corpus member strictly smaller than the candidate witness
that was *not* already swept (possible when the caller supplies its own
test list) is re-checked serially before the witness is declared
minimal.

``find_distinguishing_tests(violates=..., satisfies=...)`` is the
memalloy use-case as a first-class filter: the corpus tests forbidden
by every ``violates`` model and allowed by every ``satisfies`` model,
smallest first.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.compare.corpus import (
    CorpusBudget,
    comparison_corpus,
    event_count,
    size_key,
    smaller_members,
)
from repro.compare.report import (
    ComparisonReport,
    Row,
    classify,
    minimal_witness,
)
from repro.herd.simulator import ModelLike, Simulator, resolve_model
from repro.litmus.ast import LitmusTest

__all__ = ["compare_models", "find_distinguishing_tests", "paired_verdicts"]

#: One slot per test, in corpus order: ``(test name, verdict per
#: model)``, or the :class:`~repro.campaign.FailedItem` that
#: quarantined the test in a supervised sharded run.
PairedVerdicts = List[Any]


def model_label(model: ModelLike) -> str:
    """The display name of a model-like value (the resolved name for
    strings, exactly as the sweep drivers report it)."""
    if isinstance(model, str):
        return getattr(resolve_model(model), "name", model.lower())
    return getattr(model, "name", str(model))


def paired_verdicts(
    tests: Sequence[LitmusTest],
    models: Sequence[ModelLike],
    *,
    engine: str = "auto",
    processes=None,
    pool=None,
    context_cache=None,
    chunk_size: int = 8,
    policy=None,
    errors: Optional[List] = None,
) -> PairedVerdicts:
    """``(test name, verdict per model)`` for every test: one slot each.

    Shards :class:`~repro.campaign.jobs.VerdictPairJob` chunks over the
    campaign runtime when every model is a *name* and a pool (or a
    worker count above one) is available; otherwise runs in-process,
    still sharing one context per test across all models.  A test
    quarantined by a sharded run keeps its slot, holding its
    :class:`~repro.campaign.FailedItem` (also recorded on ``errors``),
    so slot *i* always belongs to ``tests[i]``.
    """
    from repro.campaign import runner as campaign_runner

    tests = list(tests)
    models = list(models)
    sharded = (
        all(isinstance(model, str) for model in models)
        and (pool is not None or campaign_runner.worker_count(processes) > 1)
        and len(tests) > 1
    )
    if sharded:
        from repro.campaign.jobs import VerdictPairJob, verdict_pair_chunk

        jobs = [
            VerdictPairJob(test, tuple(models), engine) for test in tests
        ]
        return list(
            campaign_runner.run_sharded(
                verdict_pair_chunk,
                jobs,
                processes=processes,
                chunk_size=chunk_size,
                pool=pool,
                policy=policy,
                errors=errors,
            )
        )

    simulators = [Simulator(model, engine=engine) for model in models]
    results: PairedVerdicts = []
    for test in tests:
        context = context_cache.get(test) if context_cache is not None else None
        results.append(
            (
                test.name,
                tuple(
                    simulator.verdict(test, context=context)
                    for simulator in simulators
                ),
            )
        )
    return results


def _answered(
    tests: Sequence[LitmusTest], pairs: PairedVerdicts
) -> List[Tuple[LitmusTest, Tuple[str, ...]]]:
    """Each test with its verdicts, paired by position; quarantined
    tests dropped."""
    from repro.campaign import FailedItem

    return [
        (test, slot[1])
        for test, slot in zip(tests, pairs)
        if not isinstance(slot, FailedItem)
    ]


def _build_rows(
    tests: Sequence[LitmusTest], pairs: PairedVerdicts
) -> List[Row]:
    return [
        (test.name, verdicts[0], verdicts[1], event_count(test), test.num_threads())
        for test, verdicts in _answered(tests, pairs)
    ]


def compare_models(
    model_a: ModelLike,
    model_b: ModelLike,
    *,
    budget: Optional[CorpusBudget] = None,
    tests: Optional[Sequence[LitmusTest]] = None,
    engine: str = "auto",
    processes=None,
    pool=None,
    context_cache=None,
    chunk_size: int = 8,
    policy=None,
    errors: Optional[List] = None,
) -> ComparisonReport:
    """Compare two models over a bounded corpus (or explicit tests).

    ``budget`` (default :class:`~repro.compare.corpus.CorpusBudget`)
    selects the corpus when ``tests`` is not given; when both are
    given, the budget additionally drives the minimality re-check —
    smaller budget-corpus members missing from ``tests`` are swept
    serially before a witness is declared minimal.
    """
    if tests is None and budget is None:
        budget = CorpusBudget()
    corpus = list(tests) if tests is not None else comparison_corpus(budget)

    failed: List = []
    pairs = paired_verdicts(
        corpus,
        (model_a, model_b),
        engine=engine,
        processes=processes,
        pool=pool,
        context_cache=context_cache,
        chunk_size=chunk_size,
        policy=policy,
        errors=failed,
    )
    rows = _build_rows(corpus, pairs)

    label_a, label_b = model_label(model_a), model_label(model_b)
    witness_a = minimal_witness(rows, label_a, label_b, "a")
    witness_b = minimal_witness(rows, label_a, label_b, "b")

    # Minimality re-check: any budget-corpus member strictly smaller
    # than a candidate witness that the sweep did not cover gets its own
    # paired verdict (serially, contexts shared) before minimality is
    # declared.  Unneeded when the corpus came from the budget itself.
    if tests is not None and budget is not None and (witness_a or witness_b):
        from repro.campaign.context import test_fingerprint

        bound = max(
            (witness.events, witness.threads, witness.name)
            for witness in (witness_a, witness_b)
            if witness is not None
        )
        swept = {test_fingerprint(test) for test in corpus}
        missing = [
            test
            for test in smaller_members(budget, bound)
            if test_fingerprint(test) not in swept
        ]
        if missing:
            extra = paired_verdicts(
                missing,
                (model_a, model_b),
                engine=engine,
                context_cache=context_cache,
            )
            rows.extend(_build_rows(missing, extra))
            rows.sort(key=lambda row: (row[3], row[4], row[0]))
            witness_a = minimal_witness(rows, label_a, label_b, "a")
            witness_b = minimal_witness(rows, label_a, label_b, "b")

    if errors is not None:
        errors.extend(failed)
    return ComparisonReport(
        model_a=label_a,
        model_b=label_b,
        verdict=classify(rows),
        rows=tuple(rows),
        witness_a=witness_a,
        witness_b=witness_b,
        budget=budget.as_dict() if budget is not None else None,
        errors=tuple(failed),
    )


def find_distinguishing_tests(
    violates: Union[ModelLike, Sequence[ModelLike]] = (),
    satisfies: Union[ModelLike, Sequence[ModelLike]] = (),
    *,
    budget: Optional[CorpusBudget] = None,
    tests: Optional[Sequence[LitmusTest]] = None,
    engine: str = "auto",
    processes=None,
    pool=None,
    context_cache=None,
    chunk_size: int = 8,
    policy=None,
    errors: Optional[List] = None,
) -> List[LitmusTest]:
    """Corpus tests forbidden by every ``violates`` model and allowed
    by every ``satisfies`` model, smallest first (memalloy's
    ``-violates X -satisfies Y``)."""
    violates = list(violates) if isinstance(violates, (list, tuple)) else [violates]
    satisfies = list(satisfies) if isinstance(satisfies, (list, tuple)) else [satisfies]
    if not violates and not satisfies:
        raise ValueError("pass at least one violates= or satisfies= model")
    if tests is None and budget is None:
        budget = CorpusBudget()
    corpus = list(tests) if tests is not None else comparison_corpus(budget)

    pairs = paired_verdicts(
        corpus,
        [*violates, *satisfies],
        engine=engine,
        processes=processes,
        pool=pool,
        context_cache=context_cache,
        chunk_size=chunk_size,
        policy=policy,
        errors=errors,
    )
    split = len(violates)
    matching = [
        test
        for test, verdicts in _answered(corpus, pairs)
        if all(verdict == "Forbid" for verdict in verdicts[:split])
        and all(verdict == "Allow" for verdict in verdicts[split:])
    ]
    return sorted(matching, key=size_key)
