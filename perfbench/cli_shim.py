"""``python -m parastein.cli_io`` with tracing on, for the traced cli-mix
rounds: stdout is the CLI's own, and one JSON line with this process's
call tallies and memo counters goes to stderr at exit."""

from __future__ import annotations

import json
import sys

from parastein import cli_io

import memo
import tracing

if __name__ == "__main__":
    tables = memo.Memo()
    before = tables.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli_io.main(sys.argv[1:])
    finally:
        tracer.restore()
    sys.stdout.flush()
    report = {
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "nonzero": tracer.nonzero,
        "memo": memo.delta(before, tables.snapshot()),
    }
    sys.stderr.write(json.dumps(report) + "\n")
    sys.exit(rc)
