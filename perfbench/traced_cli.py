"""Run one ``repro`` CLI command under the span tracer.

Usage: ``python perfbench/traced_cli.py SPANS.json <repro CLI arguments>``

Times the import of ``repro.cli`` (and counts the modules it loads),
then runs ``repro.cli.main`` with every layer wrapped, and writes the
spans, the traced wall time and the module count to SPANS.json.  The
cold-start workload's traced run starts its commands through this file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tracing  # noqa: E402


def main(out: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    start = time.perf_counter()
    before = len(sys.modules)
    span = tracer.open("cli.import")
    import repro.cli

    tracer.close(span)
    modules = len(sys.modules) - before
    tracer.install()
    span = tracer.open("cli.main")
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
    wall = time.perf_counter() - start
    doc = {"wall": wall, "modules": modules, "spans": tracing.spans_to_json(tracer)}
    Path(out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
