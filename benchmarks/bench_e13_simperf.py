"""E13 — simulator throughput (wall-clock, the pytest-benchmark native mode).

E1–E12 study *simulated ticks* (the paper's complexity measure, independent
of the host machine).  This module benchmarks the simulator itself —
character-hops per wall-clock second — so regressions in the engine's hot
path (delivery, outbox draining, handler dispatch) are caught.  These are
the only benchmarks here where wall time is the object of study, so they
run with real repetitions instead of ``pedantic`` single shots.

Both engine backends are measured: the ``e13`` metrics gate the reference
object backend, the ``e13_flat`` metrics gate the compiled flat-core
backend (``benchmarks/baselines/BENCH_e13_flat.json``).  The flat cases
additionally assert hop-count equality with the object run — a wall-clock
number for a backend that diverged from the reference would be
meaningless.
"""

from __future__ import annotations

from repro import determine_topology
from repro.protocol.rca import run_single_rca
from repro.sim.run import EnginePool
from repro.topology import generators

from _report import bench_metric, host_meta, report

#: hop counts per scenario, keyed by backend — filled as tests run, used
#: to cross-check that both backends moved exactly the same traffic
_HOPS: dict[str, dict[str, int]] = {}


def _note_hops(case: str, backend: str, hops: int) -> None:
    seen = _HOPS.setdefault(case, {})
    seen[backend] = hops
    if len(seen) == 2:
        assert seen["object"] == seen["flat"], (
            f"backend hop-count divergence on {case}: {seen}"
        )


def _run_full_protocol(benchmark, graph, *, backend, experiment, metric, case):
    def run():
        return determine_topology(graph, backend=backend)

    result = benchmark(run)
    assert result.matches(graph)
    hops = result.metrics.total_delivered
    _note_hops(case, backend, hops)
    rate = hops / benchmark.stats["mean"]
    benchmark.extra_info["character_hops"] = hops
    benchmark.extra_info["hops_per_second"] = int(rate)
    bench_metric(
        experiment,
        metric,
        rate,
        unit="hops/s",
        meta={f"{case}_character_hops": hops, **host_meta()},
    )
    report(
        "e13_simperf",
        f"E13 [{backend}] full protocol, {case}: {hops} character-hops per "
        f"run, {rate:,.0f} hops/s wall-clock "
        f"(mean {benchmark.stats['mean'] * 1e3:.1f} ms/run)",
    )


def test_e13_full_protocol_throughput(benchmark):
    graph = generators.de_bruijn(2, 4)  # N=16, E=32, D=4
    _run_full_protocol(
        benchmark, graph,
        backend="object", experiment="e13",
        metric="full_protocol_hops_per_second", case="small",
    )


def test_e13_flat_full_protocol_throughput(benchmark):
    graph = generators.de_bruijn(2, 4)
    _run_full_protocol(
        benchmark, graph,
        backend="flat", experiment="e13_flat",
        metric="full_protocol_hops_per_second", case="small",
    )


def _run_large(benchmark, *, backend, experiment):
    """The scheduler-core acceptance case: a large de Bruijn network.

    ~760k character-hops per run; this is where per-tick dispatch overhead
    dominates and the data-plane refactors must show up.
    """
    graph = generators.de_bruijn(2, 6)  # N=64, E=128, D=6

    def run():
        return determine_topology(graph, backend=backend)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.matches(graph)
    hops = result.metrics.total_delivered
    _note_hops("large", backend, hops)
    rate = hops / benchmark.stats.stats.mean
    benchmark.extra_info["character_hops"] = hops
    benchmark.extra_info["hops_per_second"] = int(rate)
    bench_metric(
        experiment,
        "large_debruijn_hops_per_second",
        rate,
        unit="hops/s",
        meta={"large_character_hops": hops},
    )
    report(
        "e13_simperf",
        f"E13 [{backend}] full protocol on de_bruijn(2,6): {hops} "
        f"character-hops per run, {rate:,.0f} hops/s wall-clock "
        f"(mean {benchmark.stats.stats.mean * 1e3:.1f} ms/run)",
    )


def test_e13_large_debruijn_throughput(benchmark):
    _run_large(benchmark, backend="object", experiment="e13")


def test_e13_flat_large_debruijn_throughput(benchmark):
    _run_large(benchmark, backend="flat", experiment="e13_flat")


def _run_single_rca_case(benchmark, *, backend, experiment):
    graph = generators.bidirectional_line(24)
    # Steady-state measurement: an EnginePool reuses one engine (and its
    # compiled tables) across repetitions, so the row measures the run
    # loop, not per-iteration engine construction — the same way the
    # campaign executor drives this scenario shape in production.
    pool = EnginePool()

    def run():
        return run_single_rca(graph, initiator=23, backend=backend, pool=pool)

    result = benchmark(run)
    hops = result.engine.metrics.total_delivered
    _note_hops("single_rca", backend, hops)
    rate = hops / benchmark.stats["mean"]
    benchmark.extra_info["hops_per_second"] = int(rate)
    bench_metric(experiment, "single_rca_hops_per_second", rate, unit="hops/s")
    report(
        "e13_simperf",
        f"E13 [{backend}] one RCA across a 24-line: {hops} character-hops, "
        f"{rate:,.0f} hops/s wall-clock",
    )


def test_e13_single_rca_throughput(benchmark):
    _run_single_rca_case(benchmark, backend="object", experiment="e13")


def test_e13_flat_single_rca_throughput(benchmark):
    _run_single_rca_case(benchmark, backend="flat", experiment="e13_flat")
