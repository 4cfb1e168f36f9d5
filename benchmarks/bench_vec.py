"""Stepper bench — native walk vs closure dispatch.

The flat engine has two stepper paths: the native walk, which resolves
each delivery at a table-automaton node by one load from the kernel's
``char_trans`` tensor in compiled code (``repro/sim/_stepper.c``), and the
closure dispatch it falls back to when the extension cannot be built.
This bench measures both on the *same engine class* — the control engine
clears ``TABLE_WALK`` so every delivery takes the per-code closures — and
records the per-hop speedup of the native walk.  In-bench asserts pin
tick counts, hop counts and byte-identical root transcripts across both
paths *and* the object backend, so neither side can drift semantically
while getting faster.

Only the ratio ``native_walk_speedup`` is a gated metric: both sides run
back to back on one host, so it travels across machines.  The two
absolute rates are recorded in the baseline's ``meta`` with the host they
were measured on.
"""

from __future__ import annotations

import pytest

from repro import determine_topology
from repro.sim import native
from repro.sim.flatcore import FlatEngine
from repro.sim.run import ENGINE_BACKENDS
from repro.topology import generators

from _report import bench_metric, host_meta, report


class _ClosureDispatchFlatEngine(FlatEngine):
    """Flat engine with the native walk disabled (bench control).

    Every delivery runs the per-code closure handlers — exactly the path
    the native walk escapes to for interceptions, KILL floods and loop
    tokens, here promoted to 100% of traffic.
    """

    TABLE_WALK = False


#: bench-local backend name; registered so the production run pipeline
#: (pooling, budgets, reconstruction) drives the control engine unchanged
ENGINE_BACKENDS.setdefault("flat-closure", _ClosureDispatchFlatEngine)


def _transcript_bytes(result) -> bytes:
    return "\n".join(repr(e) for e in result.transcript.events()).encode()


#: side -> (hops, rate, transcript bytes), filled as tests run
_SIDES: dict[str, tuple[int, float, bytes]] = {}


def _measure_side(benchmark, *, backend: str, side: str) -> None:
    graph = generators.de_bruijn(2, 4)  # N=16, E=32, D=4
    reference = determine_topology(graph, backend="object")

    def run():
        return determine_topology(graph, backend=backend)

    result = benchmark(run)
    assert result.matches(graph)
    # parity gate: the measured path moved exactly the reference traffic
    assert result.ticks == reference.ticks
    assert result.metrics.total_delivered == reference.metrics.total_delivered
    assert _transcript_bytes(result) == _transcript_bytes(reference)
    hops = result.metrics.total_delivered
    rate = hops / benchmark.stats["mean"]
    benchmark.extra_info["character_hops"] = hops
    benchmark.extra_info["hops_per_second"] = int(rate)
    _SIDES[side] = (hops, rate, _transcript_bytes(result))
    report(
        "vec",
        f"VEC [{side}] full protocol on de_bruijn(2,4): {hops} "
        f"character-hops, {rate:,.0f} hops/s wall-clock",
    )


def test_vec_native_walk_throughput(benchmark):
    """Production flat engine: the native walk serves the hot loop."""
    if native.load() is None:
        pytest.fail(
            f"native stepper unavailable ({native.status()[1]}); "
            "build it with tools/build_native.py"
        )
    _measure_side(benchmark, backend="flat", side="native_walk")


def test_vec_closure_dispatch_throughput(benchmark):
    """Control: same engine, every hop through the closure dispatch.

    Runs after the native side (file order), so it also records the
    per-hop split — the gated ratio — and asserts both paths moved
    identical traffic.
    """
    _measure_side(benchmark, backend="flat-closure", side="closure")
    walk = _SIDES.get("native_walk")
    closure = _SIDES["closure"]
    if walk is None:  # partial -k run; nothing to compare against
        return
    assert walk[0] == closure[0], "hop-count divergence between stepper paths"
    assert walk[2] == closure[2], "transcript divergence between stepper paths"
    ratio = walk[1] / closure[1]
    bench_metric(
        "vec",
        "native_walk_speedup",
        ratio,
        unit="x",
        meta={
            "character_hops": walk[0],
            "native_walk_hops_per_second": walk[1],
            "closure_hops_per_second": closure[1],
            **host_meta(),
        },
    )
    report(
        "vec",
        f"VEC split: native walk {walk[1]:,.0f} hops/s vs closure dispatch "
        f"{closure[1]:,.0f} hops/s = {ratio:.2f}x per-hop speedup",
    )
