"""Set-up probe: one fresh process from start to its first answered query.

    python3 perfbench/probe.py {sweep|explore|repair}

Imports the package, opens the session the workload uses (spawning the
campaign pool for the pooled workloads), answers one warm-up query on
two registry tests (a one-test batch would skip the pool) and prints
``ready``.  ``run.py`` times the process from launch to that line, so
interpreter start, imports and pool spawn are all inside ``setup_s``
while input generation is not.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import WORKERS  # noqa: E402
from repro import Session  # noqa: E402
from repro.litmus.registry import get_test  # noqa: E402


def main(workload: str) -> int:
    tests = [get_test("sb"), get_test("mp")]
    pooled = workload in ("sweep", "repair")
    with Session(model="power", processes=WORKERS if pooled else None) as session:
        if workload == "sweep":
            answer = session.sweep(tests, model="sc").verdicts[0][1]
        elif workload == "repair":
            answer = session.repair(tests).reports[0].after_verdict
        else:
            answer = session.simulate(tests[0]).verdict
        print(f"ready {answer}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
