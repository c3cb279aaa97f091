"""The calibration kernel, timed in a process of its own.

    python3 perfbench/kernel.py

Answers every line read on stdin with the median seconds of three runs
of a fixed piece of pure-Python dict and tuple work (the kind of work
the simulator does); one 3 ms run alone is too noisy a reading.
``run.py`` starts this helper before the program's session and asks it
for a reading before and after each timed step and set-up probe.  The
helper never imports the program, so the program's heap, garbage
collector settings and threads cannot move the kernel; only the host's
speed can.
"""

import statistics
import sys
import time

#: Kernel runs per reading; the reading is their median.
RUNS = 3


def kernel() -> float:
    start = time.perf_counter()
    table = {}
    for value in range(12000):
        key = (value % 97, value % 89)
        table[key] = table.get(key, 0) + value
    sorted(table.values())
    return time.perf_counter() - start


def main() -> int:
    for _ in sys.stdin:
        reading = statistics.median(kernel() for _ in range(RUNS))
        sys.stdout.write(f"{reading!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
