"""Lane-parallel batched flat backend: S scenarios in lock-step.

The campaign matrix is dominated by runs that differ **only in seed**:
same family, same size, same protocol, different fault program.  The
``batch`` backend runs S such scenarios — *lanes* — over one set of
shared compiled artifacts (the :class:`~repro.topology.compile.
CompiledTopology` CSR tables, the interned alphabet, the pre-shifted
in-port table), advancing all lanes in lock-step bursts driven by numpy
``int64`` lane registers laid out ``(S, ...)``:

* per-lane scheduler registers — state, clock, budget, error code,
  terminal tick — as ``(S,)`` vectors, so which lanes are live, which
  are due and which have exhausted their budget is decided with
  vectorized masks instead of S separate Python run loops;
* a per-lane per-code emission-counter matrix ``(S, num_codes)``,
  snapshotted at end of run for the campaign fan-out and the batch
  tests (the per-lane metrics flush).

The per-event protocol work inside a lane is exactly the flat backend's
— including its native stepper, which every lane runs over the one
shared ``char_trans`` program: each lane owns a
:class:`~repro.sim.flatcore.FlatEngine` data plane (lane 0 is the
batch engine itself), so every decoded lane is **byte-identical** to a
solo ``flat`` run of the same scenario — the parity contract the
differential fuzz suite enforces.  What batching
buys is shared lowering, one pooled engine per (graph, lane count)
signature, vectorized lane scheduling, and — at the campaign layer —
the fusion of a chunk's seed axis so lanes with equal effective wire
programs share one simulation (:mod:`repro.campaigns.executor`).  The
shared tables themselves resolve through the two-tier
:func:`~repro.topology.compile.compiled_topology` cache, so with a warm
artifact library (:mod:`repro.store.artifacts`) all S lanes ride one
``mmap``-loaded, page-cache-shared table set that no process had to
compile.

numpy is an **optional** dependency (the ``[batch]`` extra).  This
module always imports; only constructing a batch engine requires numpy,
and :func:`repro.sim.run.check_backend` reports the missing extra with
an actionable message when the ``batch`` backend is requested without
it.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ProtocolViolation, ReproError
from repro.sim.characters import (
    KFLAG_BODY,
    KFLAG_DYING,
    KFLAG_GROWING,
    KFLAG_HEAD,
    KFLAG_SCOPE_BCA,
    KFLAG_SCOPE_RCA,
    KFLAG_SNAKE,
    KFLAG_SPEED3,
    KFLAG_TAIL,
)
from repro.sim.flatcore import FlatEngine
from repro.sim.processor import Processor
from repro.topology.portgraph import PortGraph

#: numpy once :func:`require_numpy` resolved it on first batch use (None
#: when absent) — never imported with this module, so the CLI and every
#: non-batch run start without it
_UNRESOLVED = object()
_np = _UNRESOLVED

__all__ = [
    "have_numpy",
    "require_numpy",
    "TRAFFIC_CLASSES",
    "LaneTimelines",
    "LaneRun",
    "LaneOutcome",
    "BatchLaneMixin",
    "BatchEngine",
]

#: Column labels of :meth:`BatchLaneMixin.lane_traffic_classes`, each
#: backed by one ``KFLAG_*`` predicate bit of the compiled kernel's
#: ``char_flags`` table (see :mod:`repro.sim.characters`).
TRAFFIC_CLASSES = (
    "snake",
    "growing",
    "dying",
    "head",
    "body",
    "tail",
    "scope_rca",
    "scope_bca",
    "speed3",
)

_CLASS_BITS = (
    KFLAG_SNAKE,
    KFLAG_GROWING,
    KFLAG_DYING,
    KFLAG_HEAD,
    KFLAG_BODY,
    KFLAG_TAIL,
    KFLAG_SCOPE_RCA,
    KFLAG_SCOPE_BCA,
    KFLAG_SPEED3,
)

#: lane scheduler states (values of the ``(S,)`` state register)
LANE_RUNNING = 0
LANE_DRAINING = 1
LANE_DONE = 2

#: lane error codes (values of the ``(S,)`` error register)
ERR_NONE = 0
ERR_BUDGET = 1
ERR_PROTOCOL = 2

#: micro-steps a live lane advances per lock-step round.  Lanes are
#: independent, so the interleaving granularity cannot change results;
#: a burst amortizes the vectorized mask refresh over many event steps.
#: Measured on the campaign bench matrix: throughput climbs until ~1k
#: steps per burst (finer interleaving thrashes the per-lane working
#: sets) and is flat beyond it.
_BURST = 1024


def have_numpy() -> bool:
    """Whether the optional ``[batch]`` dependency is importable."""
    if _np is _UNRESOLVED:
        return importlib.util.find_spec("numpy") is not None
    return _np is not None


def require_numpy() -> None:
    """Import numpy, or raise a :class:`ReproError` pointing at the extra."""
    global _np
    if _np is _UNRESOLVED:
        try:
            import numpy as _np
        except ImportError:
            _np = None
    if _np is None:
        raise ReproError(
            "the 'batch' engine backend requires numpy, which is not "
            "installed; install the optional extra: "
            "pip install 'repro-topology[batch]'"
        )


@dataclass(frozen=True)
class LaneTimelines:
    """One wire program per lane, for batched dynamic construction.

    The engine pool's ``timeline`` argument is a single program for the
    scalar engines; wrapping a tuple of per-lane programs in this type
    tells :class:`~repro.dynamics.engine.BatchDynamicEngine` (and its
    ``reset``) to load ``programs[i]`` into lane ``i``.
    """

    programs: tuple

    def __len__(self) -> int:
        return len(self.programs)


def lane_timelines(timeline, lanes: int) -> tuple:
    """Normalize a pool ``timeline`` argument into per-lane programs."""
    if isinstance(timeline, LaneTimelines):
        if len(timeline) != lanes:
            raise ReproError(
                f"got {len(timeline)} lane timelines for {lanes} lanes"
            )
        return timeline.programs
    if lanes == 1:
        return (timeline,)
    raise ReproError(
        f"a {lanes}-lane dynamic batch engine needs a LaneTimelines with "
        "one program per lane"
    )


@dataclass(frozen=True)
class LaneRun:
    """How to drive one lane of a batched run (mirrors ``RunConfig``)."""

    max_ticks: int
    until: Callable[[], bool] | None = None
    start: bool = True
    drain: bool = False
    drain_slack: int = 1000


@dataclass
class LaneOutcome:
    """What one lane produced: its engine plus the run-loop verdict.

    ``error`` is ``None`` on clean termination, ``"budget"`` where a solo
    run would have raised :class:`~repro.errors.TickBudgetExceeded`, and
    ``"protocol"`` where it would have raised
    :class:`~repro.errors.ProtocolViolation` — captured per lane so one
    deadlocked lane cannot abort its siblings.
    """

    engine: FlatEngine
    ticks: int
    drained_ticks: int
    error: str | None


class BatchLaneMixin:
    """Lane registers and the lock-step scheduler, over any flat engine.

    Concrete batch engines (:class:`BatchEngine` and the dynamic variant
    in :mod:`repro.dynamics.engine`) mix this over their scalar base
    class: lane 0 **is** the engine itself, lanes 1..S-1 are sibling
    scalar engines over the same graph — and, through the process-wide
    compiled-topology/interner caches and the shared pre-shifted in-port
    table, over the same immutable protocol tables.
    """

    lanes: int = 1

    def _init_lanes(self, lanes: int) -> None:
        require_numpy()
        lanes = int(lanes)
        if lanes < 1:
            raise ReproError(f"lane count must be >= 1, got {lanes}")
        self.lanes = lanes
        #: lane index -> that lane's scalar engine (lane 0 is self)
        self.lane_engines: list[FlatEngine] = [self]
        for lane in range(1, lanes):
            self.lane_engines.append(self._make_lane_sibling(lane))
        #: (S,) scheduler registers of the last run_lanes call
        self._lane_state = _np.zeros(lanes, dtype=_np.int64)
        self._lane_clock = _np.zeros(lanes, dtype=_np.int64)
        self._lane_error = _np.zeros(lanes, dtype=_np.int64)
        #: (S, num_codes) per-lane emission counters, snapshotted at the
        #: end of each run_lanes call (and zeroed by reset)
        self._lane_emitted = _np.zeros((lanes, 0), dtype=_np.int64)
        #: (K, C) 0/1 gather matrix over the compiled kernel's predicate
        #: bitmasks — one column per TRAFFIC_CLASSES entry.  Viewed
        #: zero-copy out of the (possibly mmap-backed) ``char_flags``
        #: table, so a warm artifact load pays no rebuild here either.
        flags = _np.frombuffer(self._topo.char_flags, dtype=_np.int64)
        bits = _np.array(_CLASS_BITS, dtype=_np.int64)
        self._class_masks = ((flags[:, None] & bits) != 0).astype(_np.int64)
        #: (S, C) per-lane traffic-class totals, refreshed by the
        #: pre-classification pass each lock-step round
        self._lane_classes = _np.zeros(
            (lanes, len(TRAFFIC_CLASSES)), dtype=_np.int64
        )

    def _make_lane_sibling(self, lane: int) -> FlatEngine:
        """Construct the scalar engine behind lane ``lane`` (> 0)."""
        raise NotImplementedError

    def _sibling_processors(self) -> list[Processor]:
        """A fresh processor column for a sibling lane.

        Pool contract: every processor in the stack is no-arg
        constructible, so a sibling column is one instance of each lane-0
        processor's type.
        """
        return [type(proc)() for proc in self.processors]

    # ------------------------------------------------------------------
    # per-lane numpy views
    # ------------------------------------------------------------------
    def lane_emitted_matrix(self):
        """Per-lane per-code emission counters as an ``(S, codes)`` matrix.

        Row ``i`` is lane ``i``'s ``_emitted_by_code`` counters, zero-padded
        to the widest lane alphabet (lanes grow their code tables
        independently when a run interns characters lazily).
        """
        require_numpy()
        width = max(len(eng._emitted_by_code) for eng in self.lane_engines)
        matrix = _np.zeros((self.lanes, width), dtype=_np.int64)
        for i, eng in enumerate(self.lane_engines):
            row = eng._emitted_by_code
            if row:
                matrix[i, : len(row)] = row
        return matrix

    def _classify_lanes(self):
        """The vectorized pre-classification pass: one gather per round.

        Buckets every lane's per-code emission counters through the
        kernel's predicate bitmask columns in a single ``(S, K) @ (K, C)``
        product — no per-character Python, no ``Char`` objects.  Codes a
        run interned beyond the compiled census carry no kernel flags and
        classify as zero across the board.
        """
        emitted = self.lane_emitted_matrix()
        masks = self._class_masks
        k = min(emitted.shape[1], masks.shape[0])
        self._lane_classes = emitted[:, :k] @ masks[:k]
        return self._lane_classes

    def lane_traffic_classes(self):
        """Per-lane emission totals bucketed by character class.

        Returns an ``(S, len(TRAFFIC_CLASSES))`` int64 matrix: row ``i``
        is lane ``i``'s lifetime emission counts summed per predicate
        class, in :data:`TRAFFIC_CLASSES` column order.  A character
        carrying several flags (every snake token does) counts in each
        matching column, so columns overlap by design — read them as
        per-predicate totals, not a partition.  Refreshed from the live
        counters on every call.
        """
        require_numpy()
        return self._classify_lanes()

    def _reset_lane_registers(self) -> None:
        self._lane_state[:] = 0
        self._lane_clock[:] = 0
        self._lane_error[:] = 0
        self._lane_emitted = _np.zeros((self.lanes, 0), dtype=_np.int64)
        self._lane_classes = _np.zeros(
            (self.lanes, len(TRAFFIC_CLASSES)), dtype=_np.int64
        )

    # ------------------------------------------------------------------
    # the lock-step scheduler
    # ------------------------------------------------------------------
    def run_lanes(self, runs: Sequence[LaneRun]) -> list[LaneOutcome]:
        """Drive every lane to completion in lock-step bursts.

        Each lane follows exactly the scalar run loop
        (:meth:`repro.sim.engine.Engine.run`, plus ``run_to_idle`` when
        its :class:`LaneRun` drains): the same until-before-advance
        ordering, the same dead-network fast-forward, the same budget
        accounting — so a lane's transcript, tick count and metrics are
        byte-identical to a solo run.  Lanes only differ from solo runs
        in *when* they execute: a vectorized mask over the ``(S,)``
        registers picks the live lanes each round, and every live lane
        advances up to ``_BURST`` event steps before the next mask
        refresh.  Budget and protocol failures are captured per lane as
        :attr:`LaneOutcome.error` instead of raised.
        """
        if len(runs) != self.lanes:
            raise ReproError(
                f"run_lanes got {len(runs)} lane configs for {self.lanes} lanes"
            )
        engines = self.lane_engines
        state = self._lane_state
        error = self._lane_error
        state[:] = LANE_RUNNING
        error[:] = ERR_NONE
        # budget / terminal / drained tick registers for this call
        limit = _np.array([run.max_ticks for run in runs], dtype=_np.int64)
        term = _np.zeros(self.lanes, dtype=_np.int64)
        drained = _np.zeros(self.lanes, dtype=_np.int64)
        for i, (eng, run) in enumerate(zip(engines, runs)):
            if run.start:
                try:
                    eng.start()
                except ProtocolViolation:
                    error[i] = ERR_PROTOCOL
                    term[i] = drained[i] = eng.tick
                    state[i] = LANE_DONE
        while True:
            live = _np.flatnonzero(state != LANE_DONE)
            if live.size == 0:
                break
            # pre-classification: refresh the per-lane traffic-class
            # totals once per lock-step round (amortized over _BURST
            # event steps per lane), so campaign-level consumers can
            # watch class mix evolve without touching the hot loop
            self._classify_lanes()
            for idx in live.tolist():
                self._lane_burst(idx, engines[idx], runs[idx], state, limit,
                                 error, term, drained)
                self._lane_clock[idx] = engines[idx].tick
        self._lane_emitted = self.lane_emitted_matrix()
        self._classify_lanes()
        codes = (None, "budget", "protocol")
        return [
            LaneOutcome(
                engine=engines[i],
                ticks=int(term[i]),
                drained_ticks=int(drained[i]),
                error=codes[int(error[i])],
            )
            for i in range(self.lanes)
        ]

    def _lane_burst(self, i, eng, run, state, limit, error, term, drained) -> None:
        """Advance lane ``i`` by up to ``_BURST`` scalar run-loop steps.

        Hot path: the numpy registers are touched only at phase
        transitions, never per micro-step — a per-step ``state[i]`` read
        would cost more than the mask refresh the burst exists to
        amortize.  The phase lives in a local between transitions.
        """
        until = run.until
        max_ticks = run.max_ticks
        advance = eng._advance
        steps = _BURST
        mode = int(state[i])
        try:
            if mode == LANE_RUNNING:
                while steps > 0:
                    steps -= 1
                    if eng.tick < max_ticks:
                        if until is not None:
                            if until():
                                pass  # terminal; fall to the transition
                            elif eng._next_event_tick() is None:
                                # dead network under a just-false
                                # predicate: burn the budget in one jump
                                # (Engine.run does the same)
                                eng.tick = max_ticks
                                continue
                            else:
                                advance(max_ticks)
                                continue
                        elif eng.is_idle() and eng.tick > 0:
                            pass  # terminal
                        else:
                            advance(max_ticks)
                            continue
                    elif not (until is not None and until()):
                        # budget exhausted (an until holding exactly at
                        # the boundary still counts as termination)
                        error[i] = ERR_BUDGET
                        term[i] = drained[i] = eng.tick
                        state[i] = LANE_DONE
                        return
                    # terminal transition
                    term[i] = eng.tick
                    if not run.drain:
                        drained[i] = eng.tick
                        state[i] = LANE_DONE
                        return
                    state[i] = LANE_DRAINING
                    limit[i] = max_ticks + run.drain_slack
                    mode = LANE_DRAINING
                    break
                if mode != LANE_DRAINING:
                    return  # burst exhausted mid-run
            # LANE_DRAINING: the scalar run_to_idle loop
            lim = int(limit[i])
            while steps > 0:
                steps -= 1
                if eng.is_idle():
                    drained[i] = eng.tick
                    state[i] = LANE_DONE
                    return
                if eng.tick >= lim:
                    error[i] = ERR_BUDGET
                    drained[i] = eng.tick
                    state[i] = LANE_DONE
                    return
                advance(lim)
        except ProtocolViolation:
            error[i] = ERR_PROTOCOL
            if mode == LANE_RUNNING:
                term[i] = eng.tick
            drained[i] = eng.tick
            state[i] = LANE_DONE


class BatchEngine(BatchLaneMixin, FlatEngine):
    """The static ``batch`` backend: S flat lanes over one compiled graph.

    With ``lanes=1`` (the default — what every scalar front-end builds
    through the backend registry) this **is** a flat engine: stepping,
    transcripts and metrics are inherited unchanged, so single-scenario
    batch runs are byte-identical to ``flat`` by construction.  Lane
    fan-out happens through :meth:`~BatchLaneMixin.run_lanes`, which the
    batched campaign executor drives.
    """

    def __init__(
        self,
        graph: PortGraph,
        processors: list[Processor],
        root: int = 0,
        *,
        record_transcript: bool = True,
        lanes: int = 1,
    ) -> None:
        require_numpy()
        super().__init__(
            graph, processors, root=root, record_transcript=record_transcript
        )
        self._init_lanes(lanes)

    def _make_lane_sibling(self, lane: int) -> FlatEngine:
        return FlatEngine(
            self.graph,
            self._sibling_processors(),
            root=self.root,
            record_transcript=self.transcript.enabled,
        )

    def reset(self) -> None:
        """Power-on reset of every lane (lane 0 via the flat reset)."""
        super().reset()
        for eng in self.lane_engines[1:]:
            eng.reset()
        self._reset_lane_registers()
