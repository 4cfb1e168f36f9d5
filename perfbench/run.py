"""The repro benchmark: maps, campaigns and cold start, end to end and by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload map-flat --seed 1 --seconds 15 --trace 0

Workloads: ``map-flat``, ``map-object``, ``campaign-mixed``, ``cold-start``
(see README.md).  With ``--trace 0`` the run is untimed-set-up, then timed
for ``--seconds``, and reports the end-to-end metrics; with ``--trace 1``
it runs the same work once untraced and once with every layer wrapped,
and reports the per-layer split.  Human-readable lines come first; the
last line of standard output is the result as one JSON object.

The program is imported from ``src/`` of the checkout; the run works in a
temporary directory under ``.perfbench/`` there and removes it at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import host
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 5

#: Variables that change what the program does; runs never inherit them.
ISOLATED_ENV = ("REPRO_ARTIFACTS", "REPRO_FAULT_INJECT", "REPRO_PARITY_FUZZ")

#: The names the metrics go by on each workload, for the printed report.
ALIASES = {
    "map-flat": {"hops_per_ref_s": "flat_hops_per_s"},
    "map-object": {"hops_per_ref_s": "object_hops_per_s"},
    "campaign-mixed": {"ops_per_ref_s": "scenarios_per_s"},
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up, in this fresh interpreter")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the program in src/")
    return parser.parse_args(argv)


def hermetic_env() -> dict[str, str]:
    """The environment of this process and its children: the program from
    src/ only, and none of the variables that change its behaviour."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(args: argparse.Namespace, ctx: workloads.Context) -> float:
    """Median wall time of fresh interpreters that only set the workload up."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ctx.tmp, env=ctx.env, check=True, stdout=subprocess.DEVNULL,
            timeout=150,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb(ctx: workloads.Context) -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ctx.note(f"peak RSS {own:.1f} MB here, {child:.1f} MB in the largest child")
    return own + child


def record(ctx: workloads.Context) -> None:
    ctx.seed = workloads.DEFAULT_SEED
    expected = {
        "map": workloads.WORKLOADS["map-flat"].record(ctx),
        "campaign": workloads.WORKLOADS["campaign-mixed"].record(ctx),
        "cold": workloads.WORKLOADS["cold-start"].record(ctx),
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def run(args: argparse.Namespace, ctx: workloads.Context) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        getattr(workload, "setup_probe", workload.setup)(ctx)
        return 0
    if args.record:
        record(ctx)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = workload.traced(ctx)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        # a layer the workload does not exercise did no work
        metrics = {name: metrics.get(name, 0) for name in units} | metrics
    else:
        setup_s = setup_seconds(args, ctx)
        metrics = workload.measure(ctx)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb(ctx)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    print("host", json.dumps(host.host_record(ROOT, ctx.speed), sort_keys=True))
    for line in ctx.notes:
        print(f"  {line}")
    for problem in ctx.problems:
        print(f"FAILED: {problem}")
    aliases = ALIASES.get(args.workload, {})
    for name, unit in units.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"{args.workload} {name}{alias} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_share = {ctx.failed}/{ctx.attempted}")
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    env = hermetic_env()
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return run(args, workloads.Context(args.seed, args.seconds, tmp, env))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
