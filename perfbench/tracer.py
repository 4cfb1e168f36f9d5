"""In-memory span tracer that times the repro layers from outside.

Each traced layer is a public function (or method) of the program,
wrapped at the name its caller looks it up under: for example
``repro.campaigns.executor.determine_topology`` rather than
``repro.protocol.runner.determine_topology``, because the executor calls
the name bound in its own module.  Nothing under ``src/`` is edited; the
wrappers are installed for the traced run only and removed afterwards.

A span records its layer, its start and end (``time.perf_counter``) and
the span that was open when it started.  A span's *self* time is its
duration minus the durations of its direct children, so the self times
of all spans add up to the time spent inside any traced call.
"""

from __future__ import annotations

import importlib
import os
import pickle
import statistics
import time

#: (module, attribute path, layer).  The attribute path may name a class
#: method ("EnginePool.checkout").  Every target must exist: a rename in
#: the program fails the traced run instead of silently zeroing a layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # cli
    ("repro.cli", "determine_topology", "protocol.determine"),
    ("repro.cli", "build_family", "topology.build"),
    ("repro.cli", "diameter", "topology.properties"),
    ("repro.cli", "run_campaign", "campaigns.run"),
    # campaigns
    ("repro.campaigns.spec", "CampaignSpec.scenarios", "campaigns.expand"),
    ("repro.campaigns.executor", "run_campaign", "campaigns.run"),
    ("repro.campaigns.executor", "_run_chunk", "campaigns.chunk"),
    ("repro.campaigns.executor", "run_scenario", "campaigns.cell"),
    ("repro.campaigns.executor", "build_family", "topology.build"),
    ("repro.campaigns.executor", "shutdown_out_ports", "topology.faults"),
    ("repro.campaigns.executor", "pick_cut_victim", "topology.faults"),
    ("repro.campaigns.executor", "pick_free_wire", "topology.faults"),
    ("repro.campaigns.executor", "determine_topology", "protocol.determine"),
    ("repro.campaigns.executor", "run_dynamic_gtd", "dynamics.run"),
    ("repro.campaigns.executor", "rca_episodes", "analysis.episodes"),
    # protocol
    ("repro.protocol.runner", "determine_topology", "protocol.determine"),
    ("repro.protocol.runner", "is_strongly_connected", "topology.properties"),
    ("repro.protocol.runner", "diameter", "topology.properties"),
    ("repro.protocol.runner", "make_engine", "sim.engine_build"),
    ("repro.protocol.runner", "execute_run", "sim.run"),
    ("repro.protocol.runner", "port_isomorphic", "topology.isomorphism"),
    ("repro.protocol.root_computer", "MasterComputer.reconstruct",
     "protocol.reconstruct"),
    # dynamics
    ("repro.dynamics.experiment", "diameter", "topology.properties"),
    ("repro.dynamics.experiment", "execute_run", "sim.run"),
    ("repro.dynamics.experiment", "port_isomorphic", "topology.isomorphism"),
    ("repro.dynamics.timeline", "PerturbationTimeline.compile",
     "dynamics.timeline_compile"),
    ("repro.dynamics.timeline", "sample_cut_wave", "topology.faults"),
    ("repro.dynamics.timeline", "frontier_targets", "topology.faults"),
    ("repro.dynamics.timeline", "apply_wire_events", "topology.faults"),
    # sim
    ("repro.sim.run", "EnginePool.checkout", "sim.engine_checkout"),
    # topology compile, with the artifact library below it
    ("repro.sim.flatcore", "compiled_topology", "topology.compile"),
    ("repro.topology.compile", "compile_topology", "topology.compile_run"),
    ("repro.store.artifacts", "compile_topology", "topology.compile_run"),
    ("repro.store.artifacts", "ArtifactLibrary.load", "store.artifacts.load"),
    ("repro.store.artifacts", "ArtifactLibrary.publish",
     "store.artifacts.publish"),
    ("repro.store.artifacts", "ArtifactLibrary.ensure",
     "store.artifacts.publish"),
    # result store
    ("repro.store.result_store", "ResultStore.__init__", "store.results.load"),
    ("repro.store.result_store", "ResultStore.get", "store.results.load"),
    ("repro.store.result_store", "ResultStore.put", "store.results.put"),
)

#: Self-check tolerance: the self times of all spans must add up to the
#: traced wall time within this share of it plus this many seconds.  What
#: remains is the benchmark's own loop between traced calls.
UNACCOUNTED_SHARE = 0.02
UNACCOUNTED_FLOOR_S = 0.05

_EXECUTOR_LAYERS = ("campaigns.run", "campaigns.chunk", "campaigns.cell")


class Span:
    __slots__ = ("layer", "parent", "t0", "t1", "child_s", "attrs")

    def __init__(self, layer: str, parent: "Span | None") -> None:
        self.layer = layer
        self.parent = parent
        self.t0 = 0.0
        self.t1 = 0.0
        self.child_s = 0.0
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a target; raises if missing."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"trace target {module_name}.{path} does not exist")
    return owner, attr


class Tracer:
    """Collects spans from wrapped layer entry points, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: Span | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._dynamic_keys: set = set()

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target; raises before wrapping any if one is missing."""
        resolved = [(_resolve(module, path), layer) for module, path, layer in TARGETS]
        for (owner, attr), layer in resolved:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, layer))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------
    def open(self, layer: str) -> Span:
        span = Span(layer, self._open)
        self._open = span
        self.spans.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._open = span.parent
        if span.parent is not None:
            span.parent.child_s += span.t1 - span.t0

    def _wrap(self, fn, layer: str):
        hook = getattr(self, "_after_" + layer.replace(".", "_"), None)
        before = getattr(self, "_before_" + layer.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = tracer.open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(span)
                if hook is not None:
                    hook(span, args, kwargs, result, state)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- per-layer bookkeeping, done outside the span's own interval -----
    def _before_sim_engine_checkout(self, args, kwargs):
        return args[0].misses

    def _after_sim_engine_checkout(self, span, args, kwargs, result, misses):
        span.attrs = {"miss": args[0].misses != misses}

    def _after_sim_run(self, span, args, kwargs, result, state):
        engine = args[0]
        span.attrs = {"ticks": engine.tick, "hops": engine.metrics.total_delivered}

    def _before_dynamics_run(self, args, kwargs):
        graph = args[0]
        timeline = args[1] if len(args) > 1 else kwargs.get("timeline", ())
        key = (graph, tuple(timeline), kwargs.get("max_ticks"))
        repeat = key in self._dynamic_keys
        self._dynamic_keys.add(key)
        return repeat

    def _after_dynamics_run(self, span, args, kwargs, result, repeat):
        span.attrs = {"repeat": repeat}

    def _after_store_artifacts_publish(self, span, args, kwargs, result, state):
        if result is None:
            return
        library = args[0]
        key = result[0] if isinstance(result, tuple) else result
        span.attrs = {"bytes": _file_size(library.path_for(key))}

    def _after_store_artifacts_load(self, span, args, kwargs, result, state):
        if result is not None:
            from repro.store.artifacts import artifact_key

            library, graph = args[0], args[1]
            span.attrs = {"bytes": _file_size(library.path_for(artifact_key(graph)))}

    def _after_campaigns_chunk(self, span, args, kwargs, result, state):
        if result is None:
            return
        # What a pool round trip would carry for this chunk: the cells out
        # and the results back, pickled and unpickled once each.
        ipc = self.open("campaigns.ipc")
        blobs = (pickle.dumps(args[0]), pickle.dumps(result))
        for blob in blobs:
            pickle.loads(blob)
        self.close(ipc)
        ipc.attrs = {"bytes": sum(len(b) for b in blobs)}

    # -- reduction ---------------------------------------------------------
    def by_layer(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.layer, []).append(span)
        return out

    def self_total(self) -> float:
        return sum(span.self_s for span in self.spans)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _self(spans: dict, layer: str) -> float:
    return sum(s.self_s for s in spans.get(layer, ()))


def _attr_sum(spans: dict, layer: str, key: str) -> int:
    return sum((s.attrs or {}).get(key, 0) for s in spans.get(layer, ()))


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Reduce the spans of one traced run to the per-layer metrics.

    Simulated ticks and hops are read from each engine right after its
    ``execute_run`` returns or raises, as the program itself reads them.
    """
    spans = tracer.by_layer()
    sim_ticks = _attr_sum(spans, "sim.run", "ticks")
    sim_hops = _attr_sum(spans, "sim.run", "hops")
    checkouts = spans.get("sim.engine_checkout", [])
    misses = [s for s in checkouts if s.attrs and s.attrs["miss"]]
    hits = [s for s in checkouts if not (s.attrs and s.attrs["miss"])]
    run_s = _self(spans, "sim.run")
    dyn = spans.get("dynamics.run", [])
    cells = [s.duration for s in spans.get("campaigns.cell", [])]
    return {
        "sim.run_s": run_s,
        "sim.ns_per_hop": run_s * 1e9 / sim_hops if sim_hops else 0.0,
        "sim.ticks": sim_ticks,
        "sim.hops": sim_hops,
        "sim.run_share": run_s / wall_s if wall_s else 0.0,
        "sim.engine_build_s": sum(s.self_s for s in misses)
        + _self(spans, "sim.engine_build"),
        "sim.engine_reset_s": sum(s.self_s for s in hits),
        "sim.pool_hit_ratio": len(hits) / len(checkouts) if checkouts else 0.0,
        "topology.compile_s": _self(spans, "topology.compile")
        + _self(spans, "topology.compile_run"),
        "topology.compile_calls": len(spans.get("topology.compile_run", [])),
        "store.artifacts.publish_s": _self(spans, "store.artifacts.publish"),
        "store.artifacts.load_s": _self(spans, "store.artifacts.load"),
        "store.artifacts.bytes": _attr_sum(spans, "store.artifacts.publish", "bytes")
        + _attr_sum(spans, "store.artifacts.load", "bytes"),
        "topology.build_s": _self(spans, "topology.build"),
        "topology.properties_s": _self(spans, "topology.properties"),
        "topology.faults_s": _self(spans, "topology.faults"),
        "topology.isomorphism_s": _self(spans, "topology.isomorphism"),
        "protocol.determine_self_s": _self(spans, "protocol.determine"),
        "protocol.reconstruct_s": _self(spans, "protocol.reconstruct"),
        "analysis.episodes_s": _self(spans, "analysis.episodes"),
        "dynamics.run_self_s": _self(spans, "dynamics.run"),
        "dynamics.timeline_compile_s": _self(spans, "dynamics.timeline_compile"),
        "dynamics.runs": len(dyn),
        "dynamics.repeat_share": (
            sum(1 for s in dyn if s.attrs and s.attrs["repeat"]) / len(dyn)
            if dyn else 0.0
        ),
        "campaigns.expand_s": _self(spans, "campaigns.expand"),
        "campaigns.cell_s_p50": _percentile(cells, 50),
        "campaigns.cell_s_p95": _percentile(cells, 95),
        "campaigns.executor_self_s": sum(_self(spans, l) for l in _EXECUTOR_LAYERS),
        "campaigns.ipc_bytes": _attr_sum(spans, "campaigns.ipc", "bytes"),
        "campaigns.ipc_pickle_s": _self(spans, "campaigns.ipc"),
        "store.results.put_s": _self(spans, "store.results.put"),
        "store.results.load_s": _self(spans, "store.results.load"),
        "cli.import_s": _self(spans, "cli.import"),
        "cli.self_s": _self(spans, "cli.main"),
    }


def unaccounted(tracer: Tracer, wall_s: float) -> tuple[float, float]:
    """(wall time not inside any span, the tolerance it must stay within)."""
    gap = wall_s - tracer.self_total()
    return gap, UNACCOUNTED_SHARE * wall_s + UNACCOUNTED_FLOOR_S


def spans_to_json(tracer: Tracer) -> list:
    """The spans of a traced child process, for the parent to reduce."""
    return [[s.layer, s.t0, s.t1, s.child_s, s.attrs] for s in tracer.spans]


def spans_from_json(rows: list) -> list[Span]:
    spans = []
    for layer, t0, t1, child_s, attrs in rows:
        span = Span(layer, None)
        span.t0, span.t1, span.child_s, span.attrs = t0, t1, child_s, attrs
        spans.append(span)
    return spans
