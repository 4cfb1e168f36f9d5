"""The host record printed with every result.

Timings only compare across machines together with the machine they were
taken on, so every run states its interpreter, platform, CPU, core count,
source revision and a calibration score: the speed of a fixed pure-Python
loop, sampled between the run's operations.  The rates in the result are
per reference second, that is, scaled by this score (see ReferenceSpeed).
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _commit(root: Path) -> str | None:
    """The git commit of the checkout, when it is a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files: identifies the code run,
    also in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Iterations of the calibration loop.
LOOP_ITERATIONS = 200_000

#: The calibration score of the reference host, in iterations per
#: microsecond.  A *reference second* is the time this host needs for work
#: that takes one second on the reference host: wall seconds x score / this.
REFERENCE_SCORE = 10.0


def _calibration_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total = (total + i * i) % 1_000_003
    return total


def reference_seconds(wall_s: float, speed: float) -> float:
    """``wall_s`` seconds on a host whose calibration score was ``speed``
    (iterations per µs), in reference seconds."""
    return wall_s * speed / REFERENCE_SCORE


class ReferenceSpeed:
    """The calibration score, sampled between a run's operations.

    The hosts this benchmark runs on change speed by 20-50% within
    seconds and drift over minutes (other tenants of the machine), which
    moves raw wall-clock rates between runs far more than the bounds in
    BENCHMARK.json allow.  A fixed pure-Python loop timed between the
    operations of the same run slows down with them; rates per reference
    second divide that out (``reference_seconds``).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 3) -> float:
        """Time ``repeats`` calibration loops; records and returns the
        speed in iterations per µs."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            _calibration_loop()
        self.samples.append(repeats * LOOP_ITERATIONS / (time.perf_counter() - t0) / 1e6)
        return self.samples[-1]

    def score(self) -> float:
        """Mean calibration score over the run (iterations per µs).

        The mean, not the median: the host's speed is often bimodal, and
        a run's wall time follows the average of its speed over time.
        """
        if not self.samples:
            self.sample()
        return statistics.fmean(self.samples)


def host_record(root: Path, speed: ReferenceSpeed) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": _nproc(),
        "commit": _commit(root),
        "source_digest": source_digest(root),
        "calibration_iter_per_us": round(speed.score(), 3),
        "calibration_samples": len(speed.samples),
    }
