"""The native tick stepper: row parity, run parity, and its loader.

The flat engine has two stepper paths — the native walk over the
character kernel's transition tensor (``repro/sim/_stepper.c``) and the
closure dispatch it falls back to.  These tests pin the native walk to
both the tensor (every row, executed one delivery at a time, against the
object-path oracle of ``tests/test_kernel.py``) and the closure path
(byte-identical transcripts, ticks and hops on every registered family,
dynamic runs that park and unpark nodes), pin the native
run loop to ``Engine.run`` on an identical engine (ticks, budgets, wire
ops, exceptions, tracers), and exercise the build cache: stale and
corrupt builds, a failing compiler, an unwritable cache, and concurrent
builders.

Tests that need the extension skip when this process cannot build it
(for example under ``CC=false``); the loader tests bring their own
compiler environment.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import textwrap
from pathlib import Path

import pytest

from repro.campaigns.spec import FAMILY_BUILDERS, build_family
from repro.errors import ReproError, TickBudgetExceeded
from repro.protocol.automaton import _BCA_WAIT_UNMARK, _RCA_WAIT_LOOP, ProtocolProcessor
from repro.protocol.bca import run_single_bca
from repro.protocol.rca import run_single_rca
from repro.protocol.runner import default_tick_budget, determine_topology
from repro.sim import characters, native
from repro.sim.characters import (
    SCOPE_BCA,
    SCOPE_RCA,
    TRANS_CODE_SHIFT,
    TRANS_OP_MASK,
    TRANS_OP_SEND,
    TRANS_OP_TAIL,
    TRANS_PHASE_MASK,
    TRANS_PHASE_SHIFT,
    TRANS_PORT_MASK,
    TRANS_PORT_SHIFT,
    intern_char,
    kernel_for,
    make_body,
    make_head,
    n_phases,
)
from repro.sim.engine import Engine
from repro.sim.flatcore import (
    CODE_MASK,
    PORT_MASK,
    PORT_SHIFT,
    SEQ_BITS,
    SEQ_SHIFT,
    FlatEngine,
)
from repro.sim.processor import Processor
from repro.sim.run import ENGINE_BACKENDS, EnginePool
from repro.topology import generators
from repro.topology.properties import diameter

from test_backend_parity import assert_same_run, transcript_bytes
from test_kernel import (
    DELTAS,
    _BANK_MARKS,
    _TICK,
    _fresh_processor,
    _load_phase,
    _read_phase,
)

needs_native = pytest.mark.skipif(
    native.load() is None,
    reason=f"native stepper unavailable here: {native.status()[1]}",
)


class _ClosureFlatEngine(FlatEngine):
    """The control: same engine, closure dispatch only."""

    TABLE_WALK = False


@pytest.fixture
def closure_backend(monkeypatch):
    monkeypatch.setitem(ENGINE_BACKENDS, "flat-closure", _ClosureFlatEngine)
    return "flat-closure"


def _wheel_entries(eng) -> list[tuple[int, int, int, int, int]]:
    """Every scheduled entry as (arrival, dst, in_port, seq, code)."""
    seq_mask = (1 << SEQ_BITS) - 1
    return sorted(
        (
            arrival,
            node,
            (packed >> PORT_SHIFT) & PORT_MASK,
            (packed >> SEQ_SHIFT) & seq_mask,
            packed & CODE_MASK,
        )
        for arrival, bucket in eng._wheel._buckets.items()
        for node in bucket.nodes
        for packed in bucket.lanes[node]
    )


# ----------------------------------------------------------------------
# row parity: every transition row, executed by the native walk
# ----------------------------------------------------------------------
#: the node under test: de_bruijn(delta, 2) node 1 has every in- and
#: out-port wired and no self-loop
_NODE = 1


def _drivable(bank: int, phase: int, delta: int) -> bool:
    """Phases the oracle can load into real registers."""
    return bank not in _BANK_MARKS or phase <= delta + 1


def _deliver_one(eng, bank, phase, code, in_port, delta):
    """Reset, load ``phase`` into the node's bank, deliver one character.

    Returns the wheel afterwards, the emission counters, every node's
    register snapshot, and the exception (type and text) if one escaped.
    """
    eng.reset()
    proc = eng.processors[_NODE]
    _load_phase(proc, bank, phase, delta)
    eng.wake(_NODE)
    eng._wheel.schedule(eng.tick + 1, _NODE, in_port, kernel_for(delta).chars[code])
    error = None
    try:
        eng.step_tick()
    except Exception as exc:  # compared between the two steppers
        error = (type(exc), str(exc))
    return (
        _wheel_entries(eng),
        list(eng._emitted_by_code),
        [p.state_snapshot() for p in eng.processors],
        error,
    )


@needs_native
@pytest.mark.parametrize("delta", DELTAS)
def test_native_rows_match_the_oracle_and_the_closure_path(delta):
    """Each ``(code, in_port, phase)`` row, one native delivery at a time.

    Non-escape rows must do exactly what the object-path oracle does with
    the same registers (emissions, departure ticks, next phase); every
    drivable row, escapes included, must leave the wheel, the counters and
    the registers exactly as the closure dispatch does.  Before each
    delivery the native phase sync must agree with the oracle's
    first-principles phase reading.
    """
    kernel = kernel_for(delta)
    graph = generators.de_bruijn(delta, 2)
    out_ports = tuple(range(1, delta + 1))
    assert graph.connected_out_ports(_NODE) == out_ports
    assert graph.connected_in_ports(_NODE) == out_ports
    walked = FlatEngine(graph, [ProtocolProcessor() for _ in graph.nodes()])
    closure = _ClosureFlatEngine(graph, [ProtocolProcessor() for _ in graph.nodes()])
    assert walked._stepper is not None
    topo = walked._topo
    rows = escapes = 0
    for code in range(kernel.n_codes):
        bank = kernel.bank_list[code]
        for in_port in out_ports:
            for phase, row in enumerate(kernel.trans_rows[code][in_port]):
                if not _drivable(bank, phase, delta):
                    continue
                got = _deliver_one(walked, bank, phase, code, in_port, delta)
                want = _deliver_one(closure, bank, phase, code, in_port, delta)
                assert got == want, (code, in_port, phase, row)
                if row < 0:
                    escapes += 1
                    continue
                rows += 1
                # the oracle: a bare processor in the same state
                oracle = _fresh_processor(delta)
                _load_phase(oracle, bank, phase, delta)
                oracle.handle(in_port, kernel.chars[code])
                expected = sorted(
                    (
                        e.due_tick - _TICK + 2,  # arrival at engine tick 1
                        topo.wire_dst[_NODE * topo.stride + e.out_port],
                        topo.wire_in_port[_NODE * topo.stride + e.out_port],
                        walked._wheel.encode_base(e.char) & CODE_MASK,
                    )
                    for e in oracle._outbox
                )
                assert [entry[:3] + entry[4:] for entry in got[0]] == expected
                assert got[3] is None
                assert walked._stepper.phases(_NODE)[bank] == _read_phase(
                    oracle, bank, delta
                )
                if row:
                    op = row & TRANS_OP_MASK
                    assert _read_phase(oracle, bank, delta) == (
                        (row >> TRANS_PHASE_SHIFT) & TRANS_PHASE_MASK
                    )
                    assert all(entry[4] == row >> TRANS_CODE_SHIFT
                               for entry in got[0]
                               if op not in (TRANS_OP_TAIL,))
                    if op == TRANS_OP_SEND:
                        port = (row >> TRANS_PORT_SHIFT) & TRANS_PORT_MASK
                        assert got[0][0][1] == topo.wire_dst[
                            _NODE * topo.stride + port
                        ]
    assert rows > 0 and escapes > 0


@needs_native
@pytest.mark.parametrize("delta", DELTAS)
def test_native_phase_sync_reads_every_register_state(delta):
    """The native phase derivation equals the oracle on every bank state,
    including the RCA/BCA interception phases the rows cannot drive."""
    graph = generators.de_bruijn(delta, 2)
    eng = FlatEngine(graph, [ProtocolProcessor() for _ in graph.nodes()])
    proc = eng.processors[_NODE]
    for bank in range(6):
        for phase in range(n_phases(delta)):
            if not _drivable(bank, phase, delta):
                continue
            eng.reset()
            _load_phase(proc, bank, phase, delta)
            eng.wake(_NODE)
            assert eng._stepper.phases(_NODE) == tuple(
                _read_phase(proc, b, delta) for b in range(6)
            )
    eng.reset()
    proc.rca_phase = 1
    proc.bca_phase = 1
    eng.wake(_NODE)
    assert eng._stepper.phases(_NODE) == tuple(
        _read_phase(proc, b, delta) for b in range(6)
    )


# ----------------------------------------------------------------------
# KILL floods: native vs closure on one scripted wheel
# ----------------------------------------------------------------------
#: the KILL's receiver: de_bruijn(2, 2) node 1 sends to nodes 2 and 3
_KILLER = 1


class _Injector(Processor):
    """A root stand-in whose every delivery runs the test's ``inject``."""

    def __init__(self) -> None:
        super().__init__()
        self.inject = lambda: None

    def handle(self, in_port, char):
        self.inject()

    def state_snapshot(self):
        return {}


def _kill_tick(eng, scope, marks, debris, resting):
    """Script one KILL at ``_KILLER``, step its tick, return what it touched.

    ``marks``: the scope's marks unvisited, visited, or visited behind an
    RCA/BCA candidacy (the phase then hides them).  ``debris``: the
    killer's purgeable characters wait in several future buckets — mixed
    with kept entries in one lane, alone in another lane, alone in a whole
    bucket — and the root, delivered first, files one more at the current
    tick (already departed: it must stay).  ``resting``: one character
    rests in the killer's outbox, so the KILL must take its handler.
    """
    eng.reset()
    topo = eng._topo
    proc = eng.processors[_KILLER]
    now = eng.tick + 1
    (dst_a, in_a), (dst_b, in_b) = [
        (topo.wire_dst[_KILLER * topo.stride + port],
         topo.wire_in_port[_KILLER * topo.stride + port])
        for port in topo.out_ports_of(_KILLER)
    ]
    other_in = next(  # dst_a's in-port from another sender
        topo.wire_in_port[slot]
        for slot in range(len(topo.wire_dst))
        if topo.wire_dst[slot] == dst_a and topo.wire_in_port[slot] != in_a
    )
    ours, theirs = ("IG", "OG"), "BG"
    if scope == SCOPE_BCA:
        ours, theirs = ("BG",), "IG"
    mine = [make_body(ours[0], 1, 2), make_head(ours[-1], 2), make_body(ours[-1], 2, 1)]
    token = intern_char("FWD", 1, 2)
    dying = make_body("ID", 1, 2)

    def put(arrival, dst, in_port, char):
        eng._wheel.schedule(arrival, dst, in_port, char)
        eng._emitted_by_code[eng._wheel.encode_base(char) & CODE_MASK] += 1

    if marks == "visited":
        proc.growing[ours[0]].mark(1)
    elif marks == "intercepted":  # the flood returning to its initiator
        proc.growing[ours[-1]].mark(1)
        if scope == SCOPE_RCA:
            proc.rca_phase = _RCA_WAIT_LOOP
        else:
            proc.bca_phase = _BCA_WAIT_UNMARK
    if debris:
        eng.processors[0].inject = lambda: put(now, dst_a, in_a, mine[0])
        put(now, 0, 1, token)  # the root comes first in the KILL's bucket
        put(now + 1, dst_a, in_a, mine[0])
        put(now + 1, dst_a, in_a, token)
        for char in (token, mine[1], make_body(theirs, 1, 2), mine[2], dying):
            put(now + 2, dst_a, in_a, char)
        put(now + 2, dst_a, other_in, mine[0])  # another sender's wire
        put(now + 2, dst_b, in_b, mine[1])      # the lane empties
        put(now + 4, dst_b, in_b, mine[0])      # the whole bucket empties
        put(now + 4, dst_b, in_b, mine[2])
        put(now + 9, dst_a, in_a, mine[1])
    if resting:
        proc._queue(1, mine[0], now + 1)
    else:
        proc._max_due = now + 5  # left behind by an earlier fast drain
    eng.wake(_KILLER)
    put(now, _KILLER, 1, intern_char("KILL", payload=scope))
    eng.step_tick()
    wheel = eng._wheel
    return {
        "entries": _wheel_entries(eng),
        "nodes": {arrival: list(b.nodes) for arrival, b in wheel._buckets.items()},
        "ticks": list(wheel._ticks),
        "ring": len(wheel._ring),
        "emitted": list(eng._emitted_by_code),
        "registers": [p.state_snapshot() for p in eng.processors],
        "resting": (proc._next_due, proc._max_due, proc._tick,
                    [(e.due_tick, e.out_port, e.char) for e in proc._outbox]),
    }


def _kill_processors(graph):
    return [_Injector()] + [ProtocolProcessor() for _ in range(graph.num_nodes - 1)]


@needs_native
@pytest.mark.parametrize("scope", [SCOPE_RCA, SCOPE_BCA])
@pytest.mark.parametrize("marks", ["unvisited", "visited", "intercepted"])
@pytest.mark.parametrize("debris", [False, True])
@pytest.mark.parametrize("resting", [False, True])
def test_native_kill_matches_the_closure_handler(scope, marks, debris, resting):
    """A KILL served in the walk edits the wheel, the counters and the
    registers exactly as the node's ``c_kill_*`` handler and the Python
    purge hook do; with an outbox it escapes to that handler."""
    graph = generators.de_bruijn(2, 2)
    walked = FlatEngine(graph, _kill_processors(graph))
    closure = _ClosureFlatEngine(graph, _kill_processors(graph))
    got = _kill_tick(walked, scope, marks, debris, resting)
    want = _kill_tick(closure, scope, marks, debris, resting)
    assert got == want
    assert walked._stepper.counters() == {
        "rows": 0,
        "escapes": int(resting),
        "deliver_other": 0,
        "object_lanes": int(debris),
        "kills": int(not resting),
        "kill_escapes": int(resting),
        "purges": int(debris and not resting),
        "ticks": 0,  # stepped by step_tick, not the run loop
        "skipped": 0,
    }
    # the scenario reaches what it claims to
    now = 1
    kill = kernel_for(2).codes[intern_char("KILL", payload=scope)]
    flood = [e for e in want["entries"] if e[0] == now + 1 and e[4] == kill]
    assert len(flood) == (2 if debris or resting or marks != "unvisited" else 0)
    if debris and not resting:
        assert now + 4 not in want["nodes"]          # bucket unregistered
        assert now + 4 in want["ticks"]               # its tick left stale
        assert len(want["nodes"][now + 2]) == 1       # one lane emptied
        assert len([e for e in want["entries"] if e[0] == now]) == 1
    assert want["resting"][:2] == (None, 0)  # the resting character is purged


@needs_native
def test_a_growing_stray_sends_kills_to_their_handler(monkeypatch):
    """Once a growing character outside the kernel is interned, the family
    mask cannot judge it: KILLs escape, and still match the closure path.
    A stray that cannot grow (a BCA message's tail) changes nothing."""
    monkeypatch.setattr(characters, "_INTERNERS", {})  # a private interner
    graph = generators.de_bruijn(2, 2)
    walked = FlatEngine(graph, _kill_processors(graph))
    closure = _ClosureFlatEngine(graph, _kill_processors(graph))
    assert _kill_tick(walked, SCOPE_RCA, "visited", True, False) == _kill_tick(
        closure, SCOPE_RCA, "visited", True, False
    )
    assert walked._stepper.counters()["kills"] == 1
    for stray, escapes in ((intern_char("BDT", payload="stray"), 0),
                           (intern_char("IGB", 1, 2, payload="stray"), 1)):
        walked._wheel.encode_base(stray)
        walked._grow_code_tables()
        closure._grow_code_tables()
        assert _kill_tick(walked, SCOPE_RCA, "visited", True, False) == _kill_tick(
            closure, SCOPE_RCA, "visited", True, False
        )
        assert walked._stepper.counters()["kill_escapes"] == escapes


@needs_native
@pytest.mark.parametrize("family", ["de-bruijn", "hypercube", "torus", "random"])
def test_kill_floods_stay_in_the_walk(family, monkeypatch):
    """On the benchmark's map families every KILL at a walked node is
    served natively — none escapes to its handler."""
    monkeypatch.setattr(characters, "_INTERNERS", {})  # no strays from other tests
    pool = EnginePool()
    graph = build_family(family, 16, 1)
    assert determine_topology(graph, backend="flat", pool=pool).matches(graph)
    (engine,) = pool.engines()
    counters = engine.stepper_counters()
    assert counters["kills"] > 0 and counters["purges"] > 0
    assert counters["kill_escapes"] == 0


# ----------------------------------------------------------------------
# run parity: native vs closure vs object
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_every_family_runs_identically_on_all_three_paths(family, closure_backend):
    graph = build_family(family, 8, 1)
    native_run = determine_topology(graph, backend="flat")
    closure_run = determine_topology(graph, backend=closure_backend)
    object_run = determine_topology(graph, backend="object")
    assert_same_run(native_run, closure_run)
    assert_same_run(native_run, object_run)
    assert native_run.matches(graph)


@needs_native
def test_scripted_drivers_invalidate_through_wake(closure_backend):
    """The RCA/BCA harnesses move registers outside deliveries."""
    graph = generators.de_bruijn(2, 3)
    for backend in ("flat", closure_backend):
        a = run_single_rca(graph, 3, backend=backend)
        b = run_single_rca(graph, 3, backend="object")
        assert (a.ticks, a.completed_at) == (b.ticks, b.completed_at)
        assert transcript_bytes(a.transcript) == transcript_bytes(b.transcript)
        a = run_single_bca(graph, 5, 1, backend=backend)
        b = run_single_bca(graph, 5, 1, backend="object")
        assert (a.ticks, a.delivered_at, a.initiator_done_at) == (
            b.ticks,
            b.delivered_at,
            b.initiator_done_at,
        )
        assert a.engine.metrics.delivered == b.engine.metrics.delivered


@needs_native
def test_tracer_ticks_take_the_object_path_and_resync():
    """A tracer sends whole ticks down the object path; the walk resumes
    afterwards with re-derived phases, in lock-step with the closure path."""
    from repro.sim.tracer import EventTrace

    graph = generators.de_bruijn(2, 4)
    walked = FlatEngine(graph, _gtd_processors(graph))
    closure = _ClosureFlatEngine(graph, _gtd_processors(graph))
    for eng in (walked, closure):
        eng.start()
    for tick in range(1, 1500):
        if tick == 300:
            walked.tracer = EventTrace()
        elif tick == 360:
            walked.tracer = None
        walked.step_tick()
        closure.step_tick()
        if tick % 100 == 0:
            assert _wheel_entries(walked) == _wheel_entries(closure), tick
    assert transcript_bytes(walked.transcript) == transcript_bytes(closure.transcript)
    assert [p.state_snapshot() for p in walked.processors] == [
        p.state_snapshot() for p in closure.processors
    ]


def _gtd_processors(graph):
    from repro.protocol.gtd import GTDProcessor

    return [GTDProcessor() for _ in graph.nodes()]


@needs_native
@pytest.mark.parametrize(
    "timeline",
    ["cut@0.3+heal@0.5", "storm:p=0.4@0.2+heal@0.6", "churn:rate=0.3,period=0.2"],
)
def test_dynamic_runs_park_and_unpark_identically(timeline, monkeypatch):
    """Degraded nodes leave the walk (parked) and rejoin it (unparked);
    the native, closure and object runs must agree throughout."""
    from repro.dynamics import compile_timeline, run_dynamic_gtd
    from repro.dynamics.engine import FlatDynamicEngine

    graph = build_family("spare-ring", 10, 1)
    program = compile_timeline(timeline, graph, seed=1)
    budget = program.horizon * 3 + 1000
    toggles: list[bool] = []
    toggle = FlatDynamicEngine._toggle_sinks

    def spy(self, node, *, parked):
        if node in self._saved_sinks:
            toggles.append(parked)
        return toggle(self, node, parked=parked)

    monkeypatch.setattr(FlatDynamicEngine, "_toggle_sinks", spy)
    walked = run_dynamic_gtd(graph, program, max_ticks=budget, backend="flat")
    monkeypatch.setattr(native, "_LOADED", (None, "closure control"))
    closure = run_dynamic_gtd(graph, program, max_ticks=budget, backend="flat")
    obj = run_dynamic_gtd(graph, program, max_ticks=budget, backend="object")
    assert True in toggles and False in toggles  # parked, then unparked
    for other in (closure, obj):
        assert walked.outcome == other.outcome
        assert walked.ticks == other.ticks
        assert walked.hops == other.hops
        assert walked.lost_characters == other.lost_characters
        assert transcript_bytes(walked.transcript) == transcript_bytes(other.transcript)
        assert walked.metrics.delivered == other.metrics.delivered


# ----------------------------------------------------------------------
# the native run loop vs Engine.run
# ----------------------------------------------------------------------
def _gtd_engine(graph, timeline=None):
    from repro.dynamics.engine import FlatDynamicEngine

    if timeline is None:
        return FlatEngine(graph, _gtd_processors(graph))
    return FlatDynamicEngine(graph, _gtd_processors(graph), timeline)


def _terminal(engine):
    root = engine.processors[engine.root]
    return lambda: root.terminal


def _loop_outcome(engine, *, python, max_ticks, until=_terminal, drain=None):
    """Every observable of one run of ``engine``: through its own loop,
    or with ``python`` through ``Engine.run`` / ``Engine.run_to_idle``.
    ``until`` builds the engine's predicate (None: run to idle); the
    ticks it is evaluated at are part of the outcome."""
    run = Engine.run if python else type(engine).run
    to_idle = Engine.run_to_idle if python else type(engine).run_to_idle
    out = {"until_at": []}
    check = None
    if until is not None:
        predicate = until(engine)

        def check():
            out["until_at"].append(engine.tick)
            return predicate()

    try:
        out["ticks"] = run(engine, max_ticks=max_ticks, until=check)
        if drain is not None:
            out["drained"] = to_idle(engine, max_ticks=drain)
    except TickBudgetExceeded as exc:
        out["budget"] = exc.ticks
    metrics = engine.metrics
    out.update(
        tick=engine.tick,
        transcript=transcript_bytes(engine.transcript),
        emitted=dict(metrics.emitted),
        delivered=dict(metrics.delivered),
        wheel=_wheel_entries(engine),
        registers=[p.state_snapshot() for p in engine.processors],
        applied=list(getattr(engine, "applied_mutations", ())),
        lost=getattr(engine, "lost_characters", 0),
    )
    return out


def _same_loops(make, **run):
    """Run two engines from ``make()``, one through the native loop and
    one through ``Engine.run``; assert they agree on everything and return
    the native side's outcome and counters."""
    native_eng, python_eng = make(), make()
    native_out = _loop_outcome(native_eng, python=False, **run)
    python_out = _loop_outcome(python_eng, python=True, **run)
    assert native_out == python_out
    counters = native_eng.stepper_counters()
    assert counters["ticks"] > 0  # the native loop ran ...
    assert python_eng.stepper_counters()["ticks"] == 0  # ... and only there
    return native_out, counters


def _stepped_ticks(graph, max_ticks):
    """The ticks ``Engine.run`` steps on a static GTD run of ``graph``."""
    eng = _gtd_engine(graph)
    stepped = []
    step = eng.step_tick

    def record():
        step()
        stepped.append(eng.tick)

    eng.step_tick = record
    Engine.run(eng, max_ticks=max_ticks, until=_terminal(eng))
    return stepped


@needs_native
@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_the_native_loop_runs_every_family_like_engine_run(family):
    graph = build_family(family, 8, 1)
    budget = default_tick_budget(graph, diameter(graph))
    out, counters = _same_loops(
        lambda: _gtd_engine(graph), max_ticks=budget, drain=budget + 1000
    )
    assert "budget" not in out and out["drained"] >= out["ticks"]
    # every tick of the clock was either stepped or skipped by the loop
    assert counters["ticks"] + counters["skipped"] == out["drained"]


@needs_native
def test_the_native_loop_runs_to_idle_without_until():
    graph = generators.de_bruijn(2, 3)
    out, _ = _same_loops(lambda: _gtd_engine(graph), max_ticks=10**6, until=None)
    assert out["ticks"] > 0 and not out["wheel"]


@needs_native
@pytest.mark.parametrize("budget", [1, 2, 97, 500, 1234, 1701])
def test_a_budget_running_out_mid_traffic_leaves_the_same_tick(budget):
    graph = generators.de_bruijn(2, 3)
    out, _ = _same_loops(lambda: _gtd_engine(graph), max_ticks=budget)
    assert out["budget"] == budget and out["tick"] == budget


@needs_native
def test_a_budget_can_end_inside_a_fast_forward_gap():
    graph = generators.de_bruijn(2, 3)
    stepped = _stepped_ticks(graph, 10**6)
    # two ticks into a gap: the fast-forward toward its end is capped
    budget = next(a + 2 for a, t in zip(stepped, stepped[1:]) if t - a > 2)
    assert budget - 1 not in stepped and budget not in stepped
    out, _ = _same_loops(lambda: _gtd_engine(graph), max_ticks=budget)
    assert out["budget"] == budget and out["tick"] == budget


@needs_native
def test_a_budget_running_out_by_the_dead_network_jump():
    """``until`` never holds: the network finishes, goes dead, and the
    clock jumps straight to the budget."""
    graph = generators.de_bruijn(2, 3)
    budget = 50_000
    out, counters = _same_loops(
        lambda: _gtd_engine(graph), max_ticks=budget, until=lambda eng: lambda: False
    )
    assert out["budget"] == budget and out["tick"] == budget
    assert not out["wheel"]
    assert counters["ticks"] + counters["skipped"] == budget
    assert counters["skipped"] > budget // 2


@needs_native
def test_a_drain_budget_runs_out_one_dead_tick_at_a_time():
    """``run_to_idle`` on a dead network that is not idle steps the clock
    one tick at a time to its budget (no jump)."""
    graph = generators.de_bruijn(2, 3)
    budget = default_tick_budget(graph, diameter(graph))
    ends = []
    for to_idle in (FlatEngine.run_to_idle, Engine.run_to_idle):
        eng = _gtd_engine(graph)
        eng.run(max_ticks=budget, until=_terminal(eng))
        start = eng.run_to_idle(max_ticks=budget)
        eng._active.live.add(3)  # resting, with nothing ever due
        before = eng.stepper_counters()
        with pytest.raises(TickBudgetExceeded):
            to_idle(eng, max_ticks=start + 40)
        after = eng.stepper_counters()
        ends.append((eng.tick - start, after["skipped"] - before["skipped"]))
        assert after["ticks"] == before["ticks"]
    assert ends == [(40, 40), (40, 0)]


def _two_wires(graph):
    """Two wires leaving non-root nodes (cutting one parks its sender)."""
    wires = [w for w in graph.wires() if w.src != 0]
    return wires[0], next(w for w in wires if w.src != wires[0].src)


@needs_native
def test_wire_ops_inside_fast_forward_gaps_and_on_one_tick():
    from repro.dynamics.engine import WireMutation

    graph = generators.de_bruijn(2, 3)
    stepped = _stepped_ticks(graph, 10**6)
    gaps = [a + 1 for a, t in zip(stepped, stepped[1:]) if t - a > 2]
    assert len(gaps) >= 4
    skipped = set(range(stepped[-1])) - set(stepped)
    a, b = _two_wires(graph)
    ops = [
        WireMutation(gaps[0], "cut", a),
        WireMutation(gaps[1], "heal", a),
        # several ops on one tick, applied in declared order
        WireMutation(gaps[2], "cut", a),
        WireMutation(gaps[2], "cut", b),
        WireMutation(gaps[2], "heal", a),
        WireMutation(gaps[3], "heal", b),
    ]
    assert {op.tick for op in ops} <= skipped
    budget = 3 * stepped[-1]
    out, _ = _same_loops(lambda: _gtd_engine(graph, ops), max_ticks=budget, drain=budget)
    assert out["applied"] == ops


@needs_native
def test_a_wire_op_exactly_at_the_budget_applies():
    from repro.dynamics.engine import WireMutation

    graph = generators.de_bruijn(2, 3)
    a, _ = _two_wires(graph)
    budget = 1500
    ops = [WireMutation(100, "cut", a), WireMutation(budget, "heal", a)]
    out, _ = _same_loops(lambda: _gtd_engine(graph, ops), max_ticks=budget)
    assert out["budget"] == budget and out["tick"] == budget
    assert out["applied"] == ops


@needs_native
@pytest.mark.parametrize("timeline", ["cut@0.3+heal@0.5", "churn:rate=0.3,period=0.2"])
def test_a_park_unpark_timeline_runs_like_engine_run(timeline):
    from repro.dynamics import compile_timeline

    graph = build_family("spare-ring", 10, 1)
    program = compile_timeline(timeline, graph, seed=1)
    budget = program.horizon * 3 + 1000
    out, _ = _same_loops(
        lambda: _gtd_engine(graph, program), max_ticks=budget, drain=budget + 1000
    )
    assert out["applied"] and out["applied"] == list(program.ops)


@needs_native
@pytest.mark.parametrize("calls", [1, 2, 40, 300])
def test_an_until_that_raises_leaves_the_same_tick(calls):
    graph = generators.de_bruijn(2, 3)

    def until(eng):
        count = []

        def check():
            count.append(1)
            if len(count) == calls:
                raise ReproError(f"until failed at tick {eng.tick}")
            return False

        return check

    failures = []
    for python in (False, True):
        eng = _gtd_engine(graph)
        with pytest.raises(ReproError) as info:
            _loop_outcome(eng, python=python, max_ticks=10**5, until=until)
        failures.append((str(info.value), eng.tick, transcript_bytes(eng.transcript)))
    assert failures[0] == failures[1]


@needs_native
def test_a_handler_that_raises_leaves_the_same_tick():
    graph = generators.de_bruijn(2, 3)

    def boom(in_port, code):
        raise ReproError("handler failed")

    failures = []
    for python in (False, True):
        eng = _gtd_engine(graph)
        eng._chandlers[1] = [boom] * len(eng._chandlers[1])
        with pytest.raises(ReproError, match="handler failed"):
            _loop_outcome(eng, python=python, max_ticks=10**5)
        failures.append((eng.tick, transcript_bytes(eng.transcript)))
    assert failures[0] == failures[1] and failures[0][0] > 0


@needs_native
def test_a_tracer_keeps_the_python_loop():
    from repro.sim.tracer import EventTrace

    graph = generators.de_bruijn(2, 3)
    outs, traces = [], []
    for python in (False, True):
        eng = _gtd_engine(graph)
        eng.tracer = EventTrace()
        outs.append(_loop_outcome(eng, python=python, max_ticks=10**5, drain=10**5))
        traces.append(list(eng.tracer.events()))
        assert eng.stepper_counters()["ticks"] == 0
    assert outs[0] == outs[1]
    assert traces[0] == traces[1] and traces[0]


def test_engines_fall_back_to_closure_dispatch_with_the_reason(monkeypatch):
    monkeypatch.setattr(native, "_LOADED", (None, "compiler 'false' failed"))
    graph = generators.de_bruijn(2, 3)
    eng = FlatEngine(graph, _gtd_processors(graph))
    assert eng._stepper is None
    assert native.status() == ("closure", "compiler 'false' failed")
    result = determine_topology(graph, backend="flat")
    assert_same_run(result, determine_topology(graph, backend="object"))


def test_cli_map_names_the_stepper(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setattr(native, "_LOADED", (None, "no compiler"))
    assert main(["map", "--family", "de-bruijn", "--size", "8", "--backend", "flat"]) == 0
    assert "exact=True  stepper=closure (no compiler)" in capsys.readouterr().out
    assert main(["map", "--family", "de-bruijn", "--size", "8"]) == 0
    assert "stepper=object" in capsys.readouterr().out


@needs_native
def test_cli_map_traffic_prints_the_stepper_counters(tmp_path, capsys):
    """One extra line under ``--traffic``; the ``--json`` result is the
    same with or without it."""
    from repro.cli import main

    args = ["map", "--family", "de-bruijn", "--size", "8", "--backend", "flat"]
    assert main(args + ["--json", str(tmp_path / "plain.json")]) == 0
    assert "stepper counters" not in capsys.readouterr().out
    assert main(args + ["--traffic", "--json", str(tmp_path / "traffic.json")]) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("stepper counters: ")
    ]
    assert len(lines) == 1
    fields = dict(field.split("=") for field in lines[0].split(": ")[1].split())
    assert list(fields) == [
        "rows", "escapes", "deliver_other", "object_lanes", "kills",
        "kill_escapes", "purges", "ticks", "skipped",
    ]
    assert int(fields["rows"]) > 0 and int(fields["kills"]) > 0
    assert int(fields["ticks"]) > 0 and int(fields["skipped"]) > 0
    assert (tmp_path / "plain.json").read_text() == (tmp_path / "traffic.json").read_text()


# ----------------------------------------------------------------------
# the loader: cache key, publication, fallbacks
# ----------------------------------------------------------------------
def _compiler_env(tmp_path: Path) -> dict:
    """os.environ with the default compiler and a private cache."""
    env = dict(os.environ)
    env.pop("CC", None)
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) on this host")
    return env


def test_import_of_the_cli_loads_neither_numpy_nor_the_stepper():
    code = textwrap.dedent(
        """
        import sys
        import repro.cli
        from repro.sim import native
        print('numpy' in sys.modules, native.status())
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(native.__file__).parents[2]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "False ('closure', 'not loaded')"


def test_build_publishes_one_keyed_artifact(tmp_path):
    env = _compiler_env(tmp_path)
    module, reason = native.build_and_load(env)
    assert reason is None and module is not None
    path = native.artifact_path(env)
    assert path.parent == tmp_path / "cache" / "repro" / "native"
    assert path.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
    assert module.SOURCE_DIGEST in path.name


def test_an_edited_source_misses_and_rebuilds(tmp_path, monkeypatch):
    env = _compiler_env(tmp_path)
    native.build_and_load(env)
    first = native.artifact_path(env)
    edited = tmp_path / "_stepper.c"
    edited.write_text(native.SOURCE.read_text() + "\n/* edited */\n")
    monkeypatch.setattr(native, "SOURCE", edited)
    second = native.artifact_path(env)
    assert second != first
    module, reason = native.build_and_load(env)
    assert reason is None and module.SOURCE_DIGEST in second.name
    assert second.exists() and first.exists()


def test_a_stale_build_under_the_key_is_rebuilt(tmp_path):
    env = _compiler_env(tmp_path)
    path = native.artifact_path(env)
    # a valid extension built for another key, placed under this key
    native._build(path, "0123456789abcdef", env)
    module, reason = native.build_and_load(env)
    assert reason is None
    assert module.SOURCE_DIGEST != "0123456789abcdef"
    assert module.SOURCE_DIGEST.encode() in path.read_bytes()


def test_a_corrupt_build_is_rebuilt(tmp_path):
    env = _compiler_env(tmp_path)
    path = native.artifact_path(env)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x7fELF torn")
    module, reason = native.build_and_load(env)
    assert reason is None and module is not None


def test_a_failing_compiler_falls_back_with_the_reason(tmp_path):
    env = _compiler_env(tmp_path)
    env["CC"] = "false"
    module, reason = native.build_and_load(env)
    assert module is None
    assert reason == "compiler 'false' failed: exit status 1"
    assert not any(native.cache_dir(env).iterdir())  # no torn temp file


def test_a_missing_compiler_falls_back_with_the_reason(tmp_path):
    env = _compiler_env(tmp_path)
    env["CC"] = str(tmp_path / "no-such-cc")
    module, reason = native.build_and_load(env)
    assert module is None
    assert reason.startswith("compiler ") and "did not run" in reason


def test_an_unwritable_cache_falls_back_with_the_reason(tmp_path):
    env = _compiler_env(tmp_path)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    env["XDG_CACHE_HOME"] = str(blocker)
    module, reason = native.build_and_load(env)
    assert module is None
    assert reason.startswith("cache not writable")


def test_concurrent_builders_load_one_published_artifact(tmp_path):
    env = _compiler_env(tmp_path)
    env["PYTHONPATH"] = str(Path(native.__file__).parents[2])
    code = (
        "from repro.sim import native\n"
        "module, reason = native.build_and_load()\n"
        "print(native.artifact_path(), reason, module.SOURCE_DIGEST)\n"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=300)[0].split() for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert outs[0] == outs[1]
    path, reason, digest = outs[0]
    assert reason == "None" and digest in path
    assert sorted(p.name for p in Path(path).parent.iterdir()) == [Path(path).name]


def test_the_build_tool_reports_the_artifact(tmp_path):
    env = _compiler_env(tmp_path)
    tool = Path(native.__file__).parents[3] / "tools" / "build_native.py"
    if not tool.exists():
        pytest.skip("the build tool ships with the source tree only")
    done = subprocess.run(
        [sys.executable, str(tool)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert str(native.artifact_path(env)) in done.stdout
    env["CC"] = "false"
    done = subprocess.run(
        [sys.executable, str(tool)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert "compiler 'false' failed" in done.stderr


def test_errors_from_the_walk_propagate():
    """A handler exception raised under the native walk surfaces intact."""
    graph = generators.de_bruijn(2, 3)
    eng = FlatEngine(graph, _gtd_processors(graph))
    if eng._stepper is None:
        pytest.skip("native stepper unavailable")

    def boom(in_port, code):
        raise ReproError("handler failed")

    kernel = kernel_for(graph.delta)
    token = next(
        code
        for code in range(kernel.n_codes)
        if not kernel.trans_walkable[code] and kernel.handler_plan[code] >= 0
    )
    eng._chandlers[1] = [boom] * len(eng._chandlers[1])
    eng._wheel.schedule(1, 1, 1, eng._chars[token])
    with pytest.raises(ReproError, match="handler failed"):
        eng.step_tick()
