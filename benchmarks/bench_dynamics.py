"""Dynamics throughput — the perturbation-timeline fast path, both backends.

E13 gates the *static* hot paths.  This module gates the **dynamic** ones:
a churn-heavy perturbation timeline (periodic cut + heal waves) runs the
full GTD protocol while the wiring changes under it, on the object backend
(emission overlay) and on the flat backend (incremental CSR patching, the
packed wheel kept hot).  Before PR 4 every flat dynamic run fell off the
compiled fast path onto a generic per-character overlay; the whole point of
the in-place patching is that it no longer does — so this benchmark asserts
hop-count parity *and* a flat/object speedup floor on top of recording the
absolute rates for the regression gate.

The small case is the CI tripwire; the large case is the local acceptance
benchmark (CI runs with ``-k "not large"`` and bench-compare skips the
metrics the smoke run does not produce).
"""

from __future__ import annotations

from repro.campaigns.spec import build_family
from repro.dynamics import compile_timeline, run_dynamic_gtd

from _report import bench_metric, host_meta, report

#: The E-style dynamic workload: periodic churn with strong healing, which
#: keeps the network chattering (floods, RCAs, re-probes) across every
#: phase.  Runs are deterministic per (size, seed): the small case ends
#: stale, the large case eventually deadlocks — but only after moving the
#: bulk of its character-hops (the hops floor below guards against a
#: workload that degenerates into the empty idle crawl, which would
#: benchmark the clock loop instead of the data plane).
TIMELINE = "churn:rate=0.08,period=0.2,heal=0.9,until=0.8"

#: case -> (size, expected outcome, minimum delivered hops, wire-op floor).
#: The outcome and floors are tripwires: a semantic change that shifts
#: them should be a deliberate baseline re-record, never an accident.
CASES = {
    "small": (16, "stale", 20_000, 4),
    "large": (32, "deadlock", 60_000, 8),
}

#: Minimum flat/object speedup on the large dynamic workload.  Measured
#: ~2x on the reference machine; the floor is the acceptance criterion
#: with headroom for slower hosts.
SPEEDUP_FLOOR = 1.5

#: case -> (backend -> (hops, mean_seconds)); filled as tests run, used to
#: cross-check hop parity and compute the speedup once both backends ran.
_RUNS: dict[str, dict[str, tuple[int, float]]] = {}


def _case(case: str, seed: int = 0):
    size, expected_outcome, min_hops, min_ops = CASES[case]
    graph = build_family("spare-ring", size, seed)
    program = compile_timeline(TIMELINE, graph, seed=seed)
    assert len(program.ops) >= min_ops, (
        f"the {case} workload must actually churn the wiring "
        f"({len(program.ops)} ops < {min_ops})"
    )
    budget = program.horizon * 3 + 1000
    return graph, program, budget, size, expected_outcome, min_hops


def _run_dynamic(benchmark, *, case, backend, rounds):
    graph, program, budget, size, expected_outcome, min_hops = _case(case)

    def run():
        return run_dynamic_gtd(
            graph, program, max_ticks=budget, backend=backend
        )

    result = benchmark.pedantic(run, rounds=rounds, iterations=1)
    assert result.outcome.value == expected_outcome
    assert result.hops >= min_hops, (
        f"{case} moved only {result.hops} hops — the workload degenerated "
        f"into an idle crawl and no longer measures the data plane"
    )
    assert result.applied_ops == len(program.ops)
    hops = result.hops
    mean = benchmark.stats.stats.mean
    rate = hops / mean
    _RUNS.setdefault(case, {})[backend] = (hops, mean)
    benchmark.extra_info["character_hops"] = hops
    benchmark.extra_info["hops_per_second"] = int(rate)
    bench_metric(
        "dyn",
        f"{case}_{backend}_hops_per_second",
        rate,
        unit="hops/s",
        meta={
            f"{case}_character_hops": hops,
            f"{case}_outcome": result.outcome.value,
            **host_meta(),
        },
    )
    report(
        "bench_dynamics",
        f"DYN [{backend}] {case} spare-ring({size}) under "
        f"'{TIMELINE}': {hops} character-hops, "
        f"{len(program.ops)} wire ops, {rate:,.0f} hops/s wall-clock "
        f"(mean {mean * 1e3:.1f} ms/run)",
    )
    seen = _RUNS[case]
    if len(seen) == 2:
        assert seen["object"][0] == seen["flat"][0], (
            f"backend hop-count divergence on {case}: {seen}"
        )
        speedup = seen["object"][1] / seen["flat"][1]
        report(
            "bench_dynamics",
            f"DYN {case}: flat is {speedup:.2f}x the object backend "
            f"on the dynamic workload",
        )
        if case == "large":
            # recorded (and hence baseline-gated) for the large case only:
            # the small CI tripwire gates on absolute hops/s, not on a
            # noisy 3-round ratio from a shared runner
            bench_metric(
                "dyn",
                f"{case}_flat_speedup",
                speedup,
                unit="x",
                meta={"floor": SPEEDUP_FLOOR},
            )
            assert speedup >= SPEEDUP_FLOOR, (
                f"flat dynamic backend only {speedup:.2f}x object "
                f"(floor {SPEEDUP_FLOOR}x): the incremental CSR patching "
                f"fast path has regressed"
            )


def test_dyn_small_object_throughput(benchmark):
    _run_dynamic(benchmark, case="small", backend="object", rounds=3)


def test_dyn_small_flat_throughput(benchmark):
    _run_dynamic(benchmark, case="small", backend="flat", rounds=3)


def test_dyn_large_object_throughput(benchmark):
    _run_dynamic(benchmark, case="large", backend="object", rounds=2)


def test_dyn_large_flat_throughput(benchmark):
    _run_dynamic(benchmark, case="large", backend="flat", rounds=2)
