"""The verdict service with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py --port 0 --trace perfbench/out/serve-trace.jsonl

Wraps every layer entry point (and the service's batch execution) and
then runs ``python -m repro.service`` with the given arguments; pass
``--trace`` so the session's telemetry registry — which the spans
report into, and which ``GET /stats`` exposes — is enabled.  Campaign
workers fork after the wrappers are in place and inherit them.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from repro.service.__main__ import main  # noqa: E402

if __name__ == "__main__":
    layers.install(service=True)
    sys.exit(main(sys.argv[1:]))
