"""Run ``repro.cli`` in-process with the layer spans installed.

Usage: ``python3 perfbench/traced_cli.py TRACE_DIR -- <repro.cli arguments>``

The import of ``repro.cli`` is timed before any wrapper exists
(span ``cli.import``).  After the command returns, the parent's spans, a
summary of every pipeline result and the overlap candidate pairs are
written under ``TRACE_DIR``.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    trace_dir = Path(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced_cli.py TRACE_DIR -- <cli args>")
    cli_args = sys.argv[3:]

    start = time.monotonic()
    import repro.cli
    imported = time.monotonic()

    from instrument import Tracer, install, result_summary

    tracer = Tracer(trace_dir)
    tracer.add("cli.import", start, imported)
    install(tracer)
    with tracer.span("cli.main"):
        code = repro.cli.main(cli_args)
    tracer.flush()
    results = [result_summary(entry) for entry in tracer.results]
    pairs = sorted({pair for _kind, _n, result in tracer.results
                    for pair in result.overlap_pairs()})
    (trace_dir / "results.json").write_text(
        json.dumps({"results": results, "pairs": pairs}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
