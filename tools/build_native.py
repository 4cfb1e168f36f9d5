#!/usr/bin/env python3
"""Prebuild the flat engine's native stepper into the per-user cache.

Run from the repository root (``python tools/build_native.py``) or with
the package installed.  It builds exactly the artifact the first flat
engine of a process would build — same compiler (``$CC`` or the
interpreter's), same flags, same cache path (``$XDG_CACHE_HOME`` or
``~/.cache``, under ``repro/native``) — so later processes only load it.

Prints the artifact path, or the reason the engine would fall back to
closure dispatch.  Exit status 0 when the stepper loads, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC.is_dir():
    sys.path.insert(0, str(SRC))

from repro.sim import native  # noqa: E402


def main() -> int:
    module, reason = native.build_and_load()
    if module is None:
        print(f"native stepper unavailable: {reason}", file=sys.stderr)
        return 1
    print(f"native stepper ready: {native.artifact_path()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
