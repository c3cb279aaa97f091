"""The serve workload: ``python -m repro.service`` under an open-loop load.

The server runs in its own process with its default configuration
(``processes=auto``).  The load generator lives in the benchmark
process: requests are due on a fixed schedule (an *open* loop — a slow
server does not slow the schedule down) and are sent over at most two
keep-alive connections, one per sender thread.  Each request carries
one test: either a hot registry name (answered from the verdict memo
after its first sight) or a fresh generated test sent as
``{"source": ...}`` in the column format, never repeated within a run.
Latency is timed from the moment a request was *due*, so a stall also
charges the requests queued behind it; how late the generator sent
each request is recorded as its lag.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import inputs
from printer import to_litmus
from repro.litmus.registry import entries, get_test
from repro.service.client import ServiceClient

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Sender threads, one keep-alive connection each.
CONNECTIONS = 2
#: Of every ``HOT_GROUP`` consecutive requests, exactly ``HOT_PER_GROUP``
#: (at seeded positions) name a hot registry test: a hot name is answered
#: from the memo in about a millisecond and a fresh test in about 15, so
#: a share left to chance (it ranged from 26% to 31% over one phase)
#: moved the saturation rate by 10% from seed to seed.
HOT_GROUP = 10
HOT_PER_GROUP = 3
#: Hot registry names drawn per run.
HOT_NAMES = 8
#: The fixed rates of the latency phases (requests per second).  The
#: busy rate sits far below the saturation rate (about 145 req/s on two
#: cores): on a host that lends the benchmark less than its two cores,
#: 80 req/s reached the open loop's knee and the run-to-run spread of
#: the p90 grew to 40%; 40 req/s held it to 8% on the same host.
IDLE_RATE = 20.0
BUSY_RATE = 40.0
#: Requests per block of the tail estimate (see :func:`block_tail`); a
#: block's p90 has ten requests beyond it.
TAIL_BLOCK = 100
#: Seconds the client waits for an answer.
CLIENT_TIMEOUT = 60.0


@dataclass
class Request:
    spec: object  # a registry name or {"source": text}
    model: str
    expected: str
    fresh: bool


@dataclass
class Record:
    latency_ms: float
    lag_ms: float
    outcome: str  # "ok", "wrong", "http-<status>", "quarantined", "timeout", ...
    fresh: bool


def charged_ms(record: Record) -> float:
    """The latency a request is charged: a refused, failed or wrong
    answer counts as the client's whole timeout, so it misses any limit
    and cannot pull a percentile down."""
    return record.latency_ms if record.outcome == "ok" else CLIENT_TIMEOUT * 1e3


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """One ``python -m repro.service`` process (or its traced launcher)."""

    def __init__(self, traced: bool = False):
        OUT.mkdir(exist_ok=True)
        if traced:
            command = [
                sys.executable, str(HERE / "serve_traced.py"),
                "--port", "0", "--trace", str(OUT / "serve-trace.jsonl"),
            ]
        else:
            command = [sys.executable, "-m", "repro.service", "--port", "0"]
        self._log = open(OUT / "server.log", "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=self._log
        )
        self.host, self.port = self._listening(timeout=60.0)
        self.client = ServiceClient(self.host, self.port, timeout=CLIENT_TIMEOUT)

    def _listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stream.readline().decode("utf-8", "replace")
            if not line:
                break
            if "listening on http://" in line:
                address = line.rsplit("http://", 1)[1].strip()
                host, port = address.rsplit(":", 1)
                return host, int(port)
        self.stop()
        raise RuntimeError("verdict service did not start (see perfbench/out/server.log)")

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.client.healthz().get("status") == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("verdict service never reported healthy")

    def stats(self) -> Dict:
        """``GET /stats`` on a fresh connection.  A kept-alive connection
        left idle past the server's ``keepalive_idle_timeout`` stalls the
        next request for the client's whole timeout (60 s) before the
        client reconnects, so control requests never reuse one."""
        self.client.close()
        return self.client.stats()

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0), then reap."""
        if getattr(self, "client", None) is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def measure_setup() -> float:
    """Seconds from launching the server to its first answered verdict
    (``/healthz`` ok first), then drain it."""
    start = time.perf_counter()
    server = Server()
    try:
        server.wait_healthy()
        response = server.client.verdict(["sb"])
        if response.status != 200 or response.results[0].get("status") != "ok":
            raise RuntimeError(f"warm-up verdict failed: {response.results}")
        return time.perf_counter() - start
    finally:
        server.stop()


def stratified(tests, rng: random.Random) -> List:
    """*tests* in a seeded order that keeps every prefix's mix of
    architectures and thread counts that of the whole universe: each
    stratum is shuffled, and the next test comes from the stratum that
    has given the smallest share of its tests so far."""
    strata: Dict[Tuple[str, int], List] = {}
    for test in tests:
        strata.setdefault((test.arch, len(test.threads)), []).append(test)
    for key in sorted(strata):
        rng.shuffle(strata[key])
    taken = dict.fromkeys(strata, 0)
    order = []
    for _ in range(len(tests)):
        key = min(
            (key for key in sorted(strata) if taken[key] < len(strata[key])),
            key=lambda key: (taken[key] + 1) / len(strata[key]),
        )
        order.append(strata[key][taken[key]])
        taken[key] += 1
    return order


class Traffic:
    """The seeded request mix of one run: hot names and fresh tests."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"serve-mix:{seed}")
        registry = [entry.build() for entry in entries()]
        names = sorted(test.name for test in registry if test.arch == "power")
        self.hot = self._rng.sample(names, HOT_NAMES)
        self._fresh: Iterator = iter(stratified(inputs.serve_universe(), self._rng))
        self._slots: List[bool] = []

    def hot_request(self, name: str) -> Request:
        return Request(name, "power", inputs.expected_verdict(get_test(name), "power"), False)

    def next(self) -> Optional[Request]:
        if not self._slots:
            self._slots = [True] * HOT_PER_GROUP + [False] * (HOT_GROUP - HOT_PER_GROUP)
            self._rng.shuffle(self._slots)
        if self._slots.pop():
            return self.hot_request(self._rng.choice(self.hot))
        test = next(self._fresh, None)
        if test is None:
            return None  # the universe is spent: fresh tests never repeat
        return Request(
            {"source": to_litmus(test)}, test.arch,
            inputs.expected_verdict(test, test.arch), True,
        )


def _classify(response, expected: str) -> str:
    if response.status != 200:
        return f"http-{response.status}"
    line = response.results[0] if response.results else {}
    status = line.get("status")
    if status != "ok":
        return str(status or "error")
    return "ok" if line.get("verdict") == expected and expected else "wrong"


def run_phase(
    server: Server, traffic: Traffic, rate: float, seconds: float
) -> Tuple[List[Record], float]:
    """Send ``rate * seconds`` requests on a fixed schedule (open loop).

    Returns the records and the phase's wall time, from its start to the
    last answer."""
    requests = list(itertools.takewhile(
        lambda request: request is not None,
        (traffic.next() for _ in range(max(int(rate * seconds), 1))),
    ))
    count = len(requests)
    records: List[Optional[Record]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.02
    finished = [start]

    def sender() -> None:
        client = ServiceClient(server.host, server.port, timeout=CLIENT_TIMEOUT)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                request = requests[index]
                try:
                    response = client.verdict([request.spec], model=request.model)
                    outcome = _classify(response, request.expected)
                except OSError as exc:
                    outcome = f"io-{type(exc).__name__}"
                done = time.perf_counter()
                records[index] = Record(
                    (done - due) * 1e3, (sent - due) * 1e3, outcome, request.fresh
                )
                with lock:
                    finished[0] = max(finished[0], done)
        finally:
            client.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    return [record for record in records if record is not None], finished[0] - start


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(max(math.ceil(fraction * len(ordered)), 1), len(ordered)) - 1]


def block_tail(values: List[float], fraction: float) -> float:
    """The median, over consecutive blocks of at least ``TAIL_BLOCK``
    values (in the order the requests were due), of each block's
    *fraction* percentile.  A host stall that lasts a second or two lifts
    the tail of one block, not the reported figure."""
    count = max(len(values) // TAIL_BLOCK, 1)
    return statistics.median(
        percentile(values[index * len(values) // count:(index + 1) * len(values) // count], fraction)
        for index in range(count)
    )


def saturate(server: Server, traffic: Traffic, seconds: float) -> Tuple[float, List[Record]]:
    """Sustained throughput: both connections send back to back (a
    closed loop) for *seconds*; returns ``(correct answers per second,
    records)``.  Refused, failed and wrong answers do not count.

    This is the rate an open loop converges to at its knee, measured
    without having to locate the knee: a rate ladder held a few seconds
    per rung straddles the steep part of the latency curve and flips
    between rungs from run to run."""
    lock = threading.Lock()
    records: List[Record] = []
    start = time.perf_counter()
    deadline = start + seconds
    finished = [start]

    def sender() -> None:
        client = ServiceClient(server.host, server.port, timeout=CLIENT_TIMEOUT)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    request = traffic.next()
                if request is None:
                    return
                sent = time.perf_counter()
                try:
                    response = client.verdict([request.spec], model=request.model)
                    outcome = _classify(response, request.expected)
                except OSError as exc:
                    outcome = f"io-{type(exc).__name__}"
                done = time.perf_counter()
                with lock:
                    records.append(Record((done - sent) * 1e3, 0.0, outcome, request.fresh))
                    finished[0] = max(finished[0], done)
        finally:
            client.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    correct = sum(record.outcome == "ok" for record in records)
    return correct / (finished[0] - start), records


def warm_up(server: Server, traffic: Traffic) -> None:
    """First sight of every hot name plus a few fresh tests (untimed)."""
    for request in [traffic.hot_request(name) for name in traffic.hot] + [
        traffic.next() for _ in range(4)
    ]:
        response = server.client.verdict([request.spec], model=request.model)
        if _classify(response, request.expected) != "ok":
            raise RuntimeError(f"warm-up request failed: {response.results}")
