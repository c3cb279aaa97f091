"""A litmus printer in the column format ``repro.litmus.parser`` reads.

``LitmusTest.pretty()`` is not parser input: it writes each thread as a
`` P<n>:`` block, which the parser reads as a label and folds into
thread 0.  The serve workload therefore sends tests through this
printer, and the self-test checks the round trip
``test_fingerprint(parse_litmus(to_litmus(t))) == test_fingerprint(t)``
on every generated input.
"""

from __future__ import annotations

from repro.litmus.ast import LitmusTest

_HEADERS = {"power": "PPC", "arm": "ARM"}


def to_litmus(test: LitmusTest) -> str:
    """Render *test* as ``header / {init} / columns / condition`` text."""
    header = _HEADERS.get(test.arch)
    if header is None:
        raise ValueError(f"no column dialect for architecture {test.arch!r}")
    inits = [
        f"{thread}:{register}={value}"
        for (thread, register), value in sorted(test.init_registers.items())
    ]
    inits += [f"{location}={value}" for location, value in sorted(test.init_memory.items())]
    columns = [[instruction.mnemonic() for instruction in thread] for thread in test.threads]
    rows = [[f"P{index}" for index in range(len(columns))]]
    for line in range(max((len(column) for column in columns), default=0)):
        rows.append([column[line] if line < len(column) else "" for column in columns])
    widths = [max(len(row[index]) for row in rows) for index in range(len(columns))]
    lines = [f"{header} {test.name}", "{", " ".join(f"{item};" for item in inits), "}"]
    for row in rows:
        cells = [f" {cell:<{widths[index]}} " for index, cell in enumerate(row)]
        lines.append("|".join(cells) + ";")
    if test.condition is not None:
        lines.append(str(test.condition))
    return "\n".join(lines) + "\n"
