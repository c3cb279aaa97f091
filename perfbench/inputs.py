"""Workload inputs: fixed test universes, seeded draws and the golden file.

Every workload draws from a *finite, fixed* universe of litmus tests so
that ``golden.json`` can hold the expected answer of every input any
seed can produce.  The seed only chooses the order and the subset; the
program under test never sees the seed.

* ``sweep_universe``   — ``standard_family("power")`` (1872 diy two- and
  three-thread cycles) plus the 58 registry tests;
* ``serve_universe``   — the fresh tests of the service workload:
  ``standard_family("power")`` and ``standard_family("arm")``, each sent
  under the model of its own architecture;
* ``explore_universe`` — coherence-heavy tests in the
  ``coherence_stress_family`` shape (thread *t* writes a burst to
  ``x<t>`` and then reads ``x<t+1>``), over a fixed mix of burst shapes
  with seeded store values, so no two tests share a fingerprint;
* ``repair_universe``  — ``standard_family("power")``.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.campaign.context import test_fingerprint
from repro.diy.families import standard_family
from repro.litmus.ast import LitmusTest, TestBuilder
from repro.litmus.instructions import MoveImmediate
from repro.litmus.registry import all_tests

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The models of the sweep workload, in golden-file column order.
SWEEP_MODELS = ("sc", "tso", "power", "arm")

#: Burst shapes of the explore workload: writes per thread, one thread
#: per entry.  Bursts of 3 stay on the pruning engine and bursts of 4+
#: reach ``AUTO_OPTIMAL_WRITE_BURST``, so the mix straddles the
#: crossover; the largest shape is under a third of a round's time.
EXPLORE_SHAPES: Tuple[Tuple[int, ...], ...] = (
    (3, 3),
    (3, 3, 3),
    (3, 4),
    (4, 4),
    (3, 5),
    (4, 5),
    (5, 5),
    (3, 3, 4),
)

#: Store-value variants per explore shape (the universe is shapes x
#: variants, far more than the 256-entry context cache holds).
EXPLORE_VARIANTS = 128

#: Master seed of the explore universe's store values.  Fixed: the
#: golden file covers exactly this universe.
EXPLORE_UNIVERSE_SEED = 2014


def digest(test: LitmusTest) -> str:
    """A short stable key of a test's structural fingerprint."""
    text = repr(test_fingerprint(test)).encode("utf-8")
    return hashlib.sha1(text).hexdigest()[:16]


def outcome_digest(outcomes) -> str:
    """A short stable digest of an allowed-outcome set."""
    rows = sorted(
        ";".join(f"{name}={value}" for name, value in outcome) for outcome in outcomes
    )
    return hashlib.sha1("\n".join(rows).encode("utf-8")).hexdigest()[:16]


# -- universes --------------------------------------------------------------------


def distinct(tests: Sequence[LitmusTest], by_name: bool = True) -> Tuple[LitmusTest, ...]:
    """*tests* without repeated fingerprints (first one kept), so no input
    can hit a cache entry another input filled; ``by_name`` also drops
    repeated names, so batch results can be matched back by name."""
    seen_keys, seen_names, kept = set(), set(), []
    for test in tests:
        key = digest(test)
        if key not in seen_keys and not (by_name and test.name in seen_names):
            seen_keys.add(key)
            seen_names.add(test.name)
            kept.append(test)
    return tuple(kept)


@lru_cache(maxsize=None)
def sweep_universe() -> Tuple[LitmusTest, ...]:
    return distinct(list(standard_family("power")) + all_tests())


@lru_cache(maxsize=None)
def serve_universe() -> Tuple[LitmusTest, ...]:
    """Fresh service tests: no fingerprint shared with a registry test
    (those are the hot names, answered from the memo)."""
    registry = {digest(test) for test in all_tests()}
    family = list(standard_family("power")) + list(standard_family("arm"))
    return distinct([test for test in family if digest(test) not in registry], by_name=False)


@lru_cache(maxsize=None)
def repair_universe() -> Tuple[LitmusTest, ...]:
    return distinct(standard_family("power"))


def coherence_test(bursts: Sequence[int], values: Sequence[int], name: str) -> LitmusTest:
    """One test of the ``coherence_stress_family`` shape.

    Thread *t* stores ``values[:bursts[t]]`` to ``x<t>`` (po forces the
    coherence order, the candidate grid still holds every permutation)
    and then loads ``x<t+1>``; the ``exists`` clause asks for the
    co-final value everywhere.  Every thread stores a prefix of the same
    value sequence, so the value domain — and the cost — depends on the
    shape alone.
    """
    builder = TestBuilder(name, arch="power", doc="coherence burst")
    threads = len(bursts)
    observers = []
    for thread, burst in enumerate(bursts):
        thread_builder = builder.thread()
        for value in values[:burst]:
            thread_builder.store(f"x{thread}", value)
        observers.append(thread_builder.load(f"x{(thread + 1) % threads}"))
    builder.exists(
        {
            (thread, register): values[bursts[(thread + 1) % threads] - 1]
            for thread, register in enumerate(observers)
        }
    )
    return builder.build()


@lru_cache(maxsize=None)
def explore_universe() -> Tuple[Tuple[LitmusTest, ...], ...]:
    """``EXPLORE_VARIANTS`` tests per shape, as one tuple per shape."""
    rng = random.Random(EXPLORE_UNIVERSE_SEED)
    longest = max(max(shape) for shape in EXPLORE_SHAPES)
    seen = set()
    per_shape = []
    for shape in EXPLORE_SHAPES:
        tests = []
        while len(tests) < EXPLORE_VARIANTS:
            values = tuple(rng.sample(range(1, 1000), longest))
            label = "x".join(map(str, shape))
            test = coherence_test(shape, values, f"coh-{label}-{len(tests)}")
            key = digest(test)
            if key not in seen:
                seen.add(key)
                tests.append(test)
        per_shape.append(tuple(tests))
    return tuple(per_shape)


def explore_expected_outcomes(test: LitmusTest) -> frozenset:
    """Closed-form allowed outcomes of a coherence burst test under Power.

    Each thread's single load may read the initial 0 or any value the
    next thread stores: nothing orders a lone load against another
    thread's writes on Power, so the allowed set is the full product.
    """
    stored = [
        [i.value for i in thread if isinstance(i, MoveImmediate)] for thread in test.threads
    ]
    atoms = sorted(test.condition.atoms, key=lambda atom: atom.thread)
    choices = [
        [(f"{atom.thread}:{atom.name}", value)
         for value in [0] + stored[(atom.thread + 1) % len(stored)]]
        for atom in atoms
    ]
    outcomes = [()]
    for options in choices:
        outcomes = [outcome + (option,) for outcome in outcomes for option in options]
    return frozenset(tuple(sorted(outcome)) for outcome in outcomes)


# -- seeded draws -----------------------------------------------------------------


def shuffled(tests: Sequence[LitmusTest], seed: int, salt: str) -> List[LitmusTest]:
    """A seeded permutation of *tests* (the salt separates workloads)."""
    order = list(tests)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


def explore_rounds(seed: int):
    """Endless rounds of one test per shape, shapes in a seeded order.

    Every round holds the same shapes, so every run sees the same cost
    mix whatever the seed; variants are visited in a seeded order and
    never repeat before the whole universe has been used.
    """
    rng = random.Random(f"explore:{seed}")
    universe = explore_universe()
    orders = [rng.sample(range(EXPLORE_VARIANTS), EXPLORE_VARIANTS) for _ in universe]
    position = 0
    while True:
        shapes = list(range(len(universe)))
        rng.shuffle(shapes)
        variant = position % EXPLORE_VARIANTS
        yield [universe[shape][orders[shape][variant]] for shape in shapes]
        position += 1


# -- golden references ------------------------------------------------------------


@lru_cache(maxsize=None)
def golden() -> Dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_verdict(test: LitmusTest, model: str) -> str:
    """The golden verdict of *test* under *model* ("" when absent)."""
    row = golden()["verdicts"].get(digest(test))
    if row is None:
        return ""
    letter = row[SWEEP_MODELS.index(model)]
    return {"A": "Allow", "F": "Forbid"}.get(letter, "")


def expected_outcomes(test: LitmusTest) -> str:
    """The golden allowed-outcome digest of an explore test ("" when absent)."""
    return golden()["explore"].get(digest(test), "")
