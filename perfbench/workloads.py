"""The benchmark's workloads: what each runs, times, checks and traces.

Every workload reports the same end-to-end metrics, each measured on the
workload's own operation (README.md lists what an operation is):

* ``ops_per_ref_s``  operations completed per reference second of timed work
* ``hops_per_ref_s`` simulated character hops per reference second
* ``setup_s``        median wall time of fresh interpreters that set up
* ``peak_rss_mb``    peak resident set of the benchmark process plus its
  largest reaped child

A reference second is a wall second scaled by the host's speed during
the run, as the calibration loop sampled between operations measures it
(``host.ReferenceSpeed``).  The raw wall-clock rates are printed too.

A workload has ``setup`` (also run alone, in fresh interpreters, to time
set-up), ``measure`` (the untraced timed run) and ``traced`` (an
untraced and a traced pass over the same work, for the per-layer split).
Every operation's output is checked; a mismatch counts in
``Context.failed`` and never stops the run.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

import host
import tracer as tracing

#: expected.json holds the simulated statistics of the inputs this seed
#: generates; seed-independent inputs are checked against it on every run.
DEFAULT_SEED = 0

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Worker processes for the campaign workloads.
JOBS = min(2, os.cpu_count() or 1)


class Context:
    """One benchmark run: where it works, what it was asked, what failed."""

    def __init__(self, seed: int, seconds: float, tmp: Path, env: dict[str, str]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.speed = host.ReferenceSpeed()
        self.expected = (
            json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        )

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def note(self, line: str) -> None:
        self.notes.append(line)


def _stop(start: float, seconds: float, next_cost: float) -> bool:
    """Whether the timed loop ends before an operation of about
    ``next_cost`` seconds; it ends as near to ``seconds`` as it can."""
    return time.perf_counter() - start + 0.5 * next_cost >= seconds


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rates(ctx: Context, ops: int, hops: int, wall_s: float,
           ref_s: float) -> dict[str, float]:
    """The end-to-end rates of ``ops`` operations and ``hops`` hops done in
    ``wall_s`` wall or ``ref_s`` reference seconds; the raw rates go to
    the notes."""
    ctx.note(f"raw: {ops / wall_s:.6g} ops/s, {hops / wall_s:.6g} hops/s; "
             f"calibration {ctx.speed.score():.3f} iter/us over "
             f"{len(ctx.speed.samples)} samples")
    return {"ops_per_ref_s": ops / ref_s, "hops_per_ref_s": hops / ref_s}


class _Timer:
    """Times operations in wall and reference seconds: the host's speed
    during an operation is taken as the mean of the calibration samples
    right before and right after it."""

    def __init__(self, ctx: Context, repeats: int = 1) -> None:
        self.ctx = ctx
        self.repeats = repeats
        self.last = self._sample()

    def _sample(self) -> float:
        return statistics.fmean(self.ctx.speed.sample() for _ in range(self.repeats))

    def time(self, fn, *args, **kwargs):
        """(result, wall seconds, reference seconds) of the call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        before, self.last = self.last, self._sample()
        return result, wall, host.reference_seconds(wall, (before + self.last) / 2)


def _trace_metrics(ctx: Context, tracer: tracing.Tracer, wall: float,
                   overhead: float, **extra: float) -> dict[str, float]:
    """The per-layer metrics, after the self-check that the spans account
    for the traced wall."""
    metrics = tracing.layer_metrics(tracer, wall)
    gap, tolerance = tracing.unaccounted(tracer, wall)
    ctx.check(abs(gap) <= tolerance,
              f"trace self-check: {gap:.3f} s of {wall:.3f} s traced wall is "
              f"outside every span (tolerance {tolerance:.3f} s)")
    metrics.update({"trace.wall_s": wall, "trace.overhead_s": overhead,
                    "trace.unaccounted_s": gap})
    metrics.update(extra)
    ctx.note(f"traced wall {wall:.3f} s, tracing overhead {overhead:+.3f} s, "
             f"unaccounted {gap:+.4f} s (tolerance {tolerance:.3f} s)")
    return metrics


# ----------------------------------------------------------------------
# map-flat / map-object: one warm process maps a fixed set of networks
# ----------------------------------------------------------------------
#: (family, size): de Bruijn(2,6), hypercube(5), torus 7x7 and a random
#: strongly connected network of 48 nodes drawn from the workload seed.
MAP_NETWORKS = (("de-bruijn", 64), ("hypercube", 32), ("torus", 49), ("random", 48))
#: Families whose network depends on the seed.
SEEDED_FAMILIES = {"random"}
#: The degree bound of every random network the workloads draw.  The
#: character kernel, its compile time and its memory grow steeply with the
#: degree bound; fixing it keeps seeds comparable.  5 is hypercube(5)'s
#: and the most common for N=48; 4 the most common for N=16.
RANDOM_DELTA = {48: 5, 16: 4}


def _graph_seed(family: str, size: int, seed: int) -> int:
    """The generator seed for ``family``: the first, counting up from
    ``1000 * seed``, whose random network has the fixed degree bound."""
    if family not in SEEDED_FAMILIES:
        return seed
    from repro.campaigns.spec import build_family

    candidate = 1000 * seed
    while build_family(family, size, candidate).delta != RANDOM_DELTA[size]:
        candidate += 1
    return candidate


def _run_stats(result) -> list[int]:
    return [result.ticks, result.drained_ticks, result.metrics.total_delivered]


class MapWorkload:
    """``determine_topology`` repeated on N=32-64 networks on one backend.

    An operation is one network mapped and its map checked exact.
    """

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.other = "object" if backend == "flat" else "flat"

    def setup(self, ctx: Context):
        """Graph build, compile and engine build for every network."""
        from repro.campaigns.spec import build_family
        from repro.protocol.gtd import GTDProcessor
        from repro.sim.run import ENGINE_BACKENDS, EnginePool

        nets = [
            (f"{family}-{size}", build_family(family, size, _graph_seed(family, size, ctx.seed)))
            for family, size in MAP_NETWORKS
        ]
        pool = EnginePool()
        engine_cls = ENGINE_BACKENDS[self.backend]
        for _, graph in nets:
            pool.checkin(pool.checkout(engine_cls, graph, GTDProcessor))
        return nets, pool

    def _map(self, graph, pool, backend: str | None = None):
        from repro.protocol import runner

        result = runner.determine_topology(
            graph, backend=backend or self.backend, pool=pool
        )
        return result, result.matches(graph)

    def _recorded(self, ctx: Context, name: str) -> list[int] | None:
        if name.rsplit("-", 1)[0] in SEEDED_FAMILIES and ctx.seed != DEFAULT_SEED:
            return None
        return ctx.expected.get("map", {}).get(name)

    def _check(self, ctx: Context, name: str, result, exact: bool,
               reference: tuple | None) -> None:
        where = f"{name} [{self.backend}]"
        ctx.check(exact, f"{where}: recovered map is not exact")
        stats = _run_stats(result)
        recorded = self._recorded(ctx, name)
        if recorded is not None:
            ctx.check(stats == recorded, f"{where}: {stats} != recorded {recorded}")
        if reference is not None:
            ctx.check((stats, result.graph) == reference,
                      f"{where}: run differs from the first run")

    def _cross_backend(self, ctx: Context, nets, reference: dict) -> None:
        """flat equals object: networks without recorded statistics map
        once more, untimed, on the other backend."""
        for name, graph in nets:
            if self._recorded(ctx, name) is None:
                result, exact = self._map(graph, None, self.other)
                ctx.check(exact and (_run_stats(result), result.graph) == reference[name],
                          f"{name}: {self.backend} and {self.other} disagree")

    def measure(self, ctx: Context) -> dict[str, float]:
        nets, pool = self.setup(ctx)
        times: dict[str, list[float]] = {name: [] for name, _ in nets}
        ref_times: dict[str, list[float]] = {name: [] for name, _ in nets}
        reference: dict[str, tuple] = {}
        timer = _Timer(ctx)
        start = time.perf_counter()
        index = 0
        while True:
            name, graph = nets[index % len(nets)]
            if index >= len(nets) and _stop(start, ctx.seconds, _median(times[name])):
                break
            (result, exact), wall, ref = timer.time(self._map, graph, pool)
            times[name].append(wall)
            ref_times[name].append(ref)
            self._check(ctx, name, result, exact, reference.get(name))
            reference.setdefault(name, (_run_stats(result), result.graph))
            index += 1
        self._cross_backend(ctx, nets, reference)
        # A pass is one run of every network; per-network medians keep a
        # slow outlier, or the loop ending mid-pass, from skewing it.
        hops = sum(reference[name][0][2] for name, _ in nets)
        for name, _ in nets:
            ctx.note(f"{name} [{self.backend}]: {len(times[name])} runs, median "
                     f"{_median(times[name]):.3f} s, {reference[name][0][2]} hops")
        return _rates(ctx, len(nets), hops,
                      sum(_median(times[name]) for name, _ in nets),
                      sum(_median(ref_times[name]) for name, _ in nets))

    def traced(self, ctx: Context) -> dict[str, float]:
        nets, pool = self.setup(ctx)
        tracer = tracing.Tracer()
        wall = traced_wall = 0.0
        reference = {}
        # each network untraced, then traced, back to back: the host's
        # speed drifts less between the two than between two whole passes
        for name, graph in nets:
            t0 = time.perf_counter()
            result, exact = self._map(graph, pool)
            wall += time.perf_counter() - t0
            with tracer:
                t0 = time.perf_counter()
                t_result, t_exact = self._map(graph, pool)
                traced_wall += time.perf_counter() - t0
            self._check(ctx, name, result, exact, None)
            reference[name] = (_run_stats(result), result.graph)
            ctx.check(t_exact and (_run_stats(t_result), t_result.graph) == reference[name],
                      f"{name} [{self.backend}]: traced run differs from untraced")
        self._cross_backend(ctx, nets, reference)
        return _trace_metrics(ctx, tracer, traced_wall, traced_wall - wall)

    def record(self, ctx: Context) -> dict:
        nets, pool = self.setup(ctx)
        out = {}
        for name, graph in nets:
            result, exact = self._map(graph, pool)
            other, other_exact = self._map(graph, None, self.other)
            if not (exact and other_exact and _run_stats(result) == _run_stats(other)):
                raise RuntimeError(f"{name}: not exact, or flat and object disagree")
            out[name] = _run_stats(result)
        return out


# ----------------------------------------------------------------------
# campaign-mixed: a warm persistent pool runs mixed fault matrices
# ----------------------------------------------------------------------
CAMPAIGN_FAMILIES = ("spare-ring", "de-bruijn", "torus", "random")
CAMPAIGN_SIZES = (10, 16)
#: The campaign benchmark's fault mix: statics, legacy cut/add, storms,
#: churn, frontier waves and cut+heal.
CAMPAIGN_FAULTS = (
    "none",
    "shutdown:0.15",
    "cut:0.4",
    "cut:1.5",
    "add:0.5",
    "storm:p=0.3@0.25",
    "storm:p=0.25@0.2",
    "churn:rate=0.08,period=0.25,heal=0.9,until=0.7",
    "churn:rate=0.1,period=0.2,until=0.6",
    "frontier:k=2@0.3",
    "frontier:k=3@0.25",
    "cut@0.3+heal@0.5",
)
STATIC_FAULTS = {"none", "shutdown:0.15"}
#: Scenario seeds of the check matrix, recorded in expected.json.
CHECK_SEEDS = (DEFAULT_SEED,)


def _campaign_spec(seeds, faults=CAMPAIGN_FAULTS):
    from repro.campaigns.spec import CampaignSpec

    return CampaignSpec(families=CAMPAIGN_FAMILIES, sizes=CAMPAIGN_SIZES,
                        faults=faults, seeds=tuple(seeds), backends=("flat",))


def _invocation_seeds(seed: int) -> Iterator[int]:
    """The scenario seed of each timed invocation: fresh for every one and
    disjoint from the check matrix, so none repeats work an earlier one
    did.  Only seeds whose random networks have the degree bound 4 at
    every size qualify (see RANDOM_DELTA)."""
    from repro.campaigns.spec import build_family

    for candidate in itertools.count(1 + 1000 * seed):
        if all(build_family("random", size, candidate).delta == 4
               for size in CAMPAIGN_SIZES):
            yield candidate


def _cell(result) -> list:
    return [result.outcome, result.ticks, result.hops]


class CampaignWorkload:
    """``run_campaign`` on ``flat`` over {spare-ring, de-bruijn, torus,
    random} x N in {10, 16} x the fault mix, one seed per invocation.

    An operation is one scenario cell.
    """

    def setup(self, ctx: Context) -> None:
        """Import, pool start and one warm-up invocation (healthy cells)."""
        from repro.campaigns import executor

        executor.run_campaign(_campaign_spec(CHECK_SEEDS, ("none",)), jobs=JOBS)

    def _check_cells(self, ctx: Context, results, recorded: dict | None = None) -> None:
        for r in results:
            label = r.scenario.label
            ok = r.outcome != "error"
            if r.scenario.fault in STATIC_FAULTS:
                ok = ok and r.outcome == "exact"
            if recorded is not None:
                ok = ok and _cell(r) == recorded.get(label)
            ctx.check(ok, f"{label}: {_cell(r)} (error={r.error!r})")

    def _check_matrix(self, ctx: Context) -> None:
        from repro.campaigns import executor

        results = executor.run_campaign(_campaign_spec(CHECK_SEEDS), jobs=JOBS).results
        self._check_cells(ctx, results, ctx.expected.get("campaign", {}))

    def measure(self, ctx: Context) -> dict[str, float]:
        from repro.campaigns import executor

        self.setup(ctx)
        self._check_matrix(ctx)
        cells = hops = 0
        wall = ref_wall = last = 0.0
        seeds = _invocation_seeds(ctx.seed)
        # the workers are idle between invocations: the only time to
        # sample the host's speed without competing with them
        timer = _Timer(ctx, repeats=3)
        start = time.perf_counter()
        index = 0
        while index == 0 or not _stop(start, ctx.seconds, last):
            spec = _campaign_spec([next(seeds)])
            campaign, last, ref = timer.time(executor.run_campaign, spec, jobs=JOBS)
            results = campaign.results
            wall += last
            ref_wall += ref
            cells += len(results)
            hops += sum(r.hops for r in results)
            self._check_cells(ctx, results)
            ctx.note(f"invocation {index}: {len(results)} cells in {last:.2f} s")
            index += 1
        executor.shutdown_worker_pool()
        return _rates(ctx, cells, hops, wall, ref_wall)

    def traced(self, ctx: Context) -> dict[str, float]:
        from repro.campaigns import executor

        self.setup(ctx)
        self._check_matrix(ctx)
        # two invocations' worth, so repeats across seeds show
        spec = _campaign_spec(itertools.islice(_invocation_seeds(ctx.seed), 2))

        def timed(jobs: int):
            t0 = time.perf_counter()
            results = executor.run_campaign(spec, jobs=jobs).results
            return time.perf_counter() - t0, results

        parallel_wall, parallel = timed(JOBS)
        executor.shutdown_worker_pool()
        # jobs=1 runs in this process; both serial passes start from
        # equally cold per-process caches
        executor.clear_scenario_caches()
        wall, plain = timed(1)
        executor.clear_scenario_caches()
        tracer = tracing.Tracer()
        with tracer:
            traced_wall, traced = timed(1)
        self._check_cells(ctx, plain)
        ctx.check(parallel == plain, f"jobs={JOBS} and jobs=1 results differ")
        ctx.check(traced == plain, "traced campaign results differ from untraced")
        cell_s = sum(s.duration for s in tracer.by_layer().get("campaigns.cell", []))
        efficiency = cell_s / (JOBS * parallel_wall)
        ctx.note(f"{len(plain)} cells: jobs={JOBS} {parallel_wall:.2f} s, "
                 f"jobs=1 {wall:.2f} s, traced jobs=1 {traced_wall:.2f} s")
        return _trace_metrics(ctx, tracer, traced_wall, traced_wall - wall,
                              **{"campaigns.parallel_efficiency": efficiency})

    def record(self, ctx: Context) -> dict:
        from repro.campaigns import executor

        results = executor.run_campaign(_campaign_spec(CHECK_SEEDS), jobs=JOBS).results
        executor.shutdown_worker_pool()
        return {r.scenario.label: _cell(r) for r in results}


# ----------------------------------------------------------------------
# cold-start: fresh interpreters through the CLI
# ----------------------------------------------------------------------
COLD_MAP = ("random", 16)
COLD_FAMILIES = "directed-ring,bidirectional-ring,de-bruijn,hypercube,torus,spare-ring"
COLD_SIZES = "4,6,8"
COLD_SEEDS = 2
#: The four commands of one cold round, in order.
COLD_KINDS = ("map-flat", "map-object", "campaign", "resume")


def _cold_cell(cell: dict) -> tuple[str, list]:
    """(label, [outcome, ticks, hops]) of one cell of a ``campaign --json``."""
    label = "{family}({size})/{fault}/s{seed}/{backend}".format(**cell["scenario"])
    return label, [cell["outcome"], cell["ticks"], cell["hops"]]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class ColdStartWorkload:
    """``python -m repro`` from a fresh interpreter: ``map`` on a small
    network (flat and object), ``campaign`` on a static matrix of tiny
    distinct graphs into an empty store and artifact library, and the same
    campaign again, which finds every cell stored.

    An operation is one CLI command.
    """

    def setup_probe(self, ctx: Context) -> None:
        """What every cold command pays before it parses its arguments."""
        import repro.cli  # noqa: F401

    def setup(self, ctx: Context) -> None:
        """One untimed command, so every later one finds compiled bytecode."""
        self._run(ctx, self._cli() + ["map", "--family", "directed-ring", "--size", "4"])

    def _cli(self, traced_out: Path | None = None) -> list[str]:
        if traced_out is None:
            return [sys.executable, "-m", "repro"]
        script = Path(__file__).with_name("traced_cli.py")
        return [sys.executable, str(script), str(traced_out)]

    def _run(self, ctx: Context, argv: list[str]):
        return subprocess.run(argv, cwd=ctx.tmp, env=ctx.env, capture_output=True,
                              text=True, timeout=150)

    def _round(self, ctx: Context, tag: str, jobs: int, traced: bool = False):
        """One cold round in fresh directories: ({kind: wall seconds},
        {kind: reference seconds}, hops, {kind: (JSON output, stdout)},
        the round's directory)."""
        work = ctx.tmp / tag
        work.mkdir()
        family, size = COLD_MAP
        graph_seed = _graph_seed(family, size, ctx.seed)
        times, ref_times, outputs = {}, {}, {}
        timer = _Timer(ctx)
        for kind in COLD_KINDS:
            cli = self._cli(work / f"{kind}.trace.json" if traced else None)
            if kind.startswith("map"):
                backend = kind.split("-")[1]
                args = ["map", "--family", family, "--size", str(size),
                        "--seed", str(graph_seed), "--backend", backend]
            else:
                args = ["campaign", "--families", COLD_FAMILIES, "--sizes", COLD_SIZES,
                        "--seeds", str(COLD_SEEDS), "--seed", str(ctx.seed),
                        "--backend", "flat", "--jobs", str(jobs),
                        "--store", str(work / "store"),
                        "--artifacts", str(work / "artifacts")]
            out_json = work / f"{kind}.json"
            proc, times[kind], ref_times[kind] = timer.time(
                self._run, ctx, cli + args + ["--json", str(out_json)])
            ok = ctx.check(proc.returncode == 0,
                           f"{tag} {kind}: exit {proc.returncode}: {proc.stderr[-300:]}")
            outputs[kind] = (json.loads(out_json.read_text()) if ok else None,
                             proc.stdout)
        hops = self._check_round(ctx, tag, outputs)
        return times, ref_times, hops, outputs, work

    def _check_round(self, ctx: Context, tag: str, outputs: dict) -> int:
        if any(doc is None for doc, _ in outputs.values()):
            return 0
        recorded = ctx.expected.get("cold", {}) if ctx.seed == DEFAULT_SEED else {}
        maps = {}
        for kind in ("map-flat", "map-object"):
            doc, stdout = outputs[kind]
            stats = doc["stats"]
            maps[kind] = [stats["ticks"], stats["drained_ticks"], stats["character_hops"]]
            ctx.check("exact=True" in stdout, f"{tag} {kind}: map is not exact")
        ctx.check(maps["map-flat"] == maps["map-object"],
                  f"{tag}: map flat {maps['map-flat']} != object {maps['map-object']}")
        if "map" in recorded:
            ctx.check(maps["map-flat"] == recorded["map"],
                      f"{tag}: map {maps['map-flat']} != recorded {recorded['map']}")
        cold, _ = outputs["campaign"]
        resumed, stdout = outputs["resume"]
        for cell in cold["scenarios"]:
            label, stats = _cold_cell(cell)
            ok = cell["outcome"] == "exact"
            if "campaign" in recorded:
                ok = ok and stats == recorded["campaign"].get(label)
            ctx.check(ok, f"{tag} campaign {label}: {stats}")
        ctx.check(resumed["scenarios"] == cold["scenarios"],
                  f"{tag}: resumed campaign differs from the cold one")
        ctx.check(" ran 0 fresh" in stdout, f"{tag}: resume re-ran stored cells")
        return (maps["map-flat"][2] + maps["map-object"][2]
                + sum(cell["hops"] for cell in cold["scenarios"]))

    def measure(self, ctx: Context) -> dict[str, float]:
        self.setup(ctx)
        times: dict[str, list[float]] = {kind: [] for kind in COLD_KINDS}
        ref_times: dict[str, list[float]] = {kind: [] for kind in COLD_KINDS}
        hops = 0
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or not _stop(
                start, ctx.seconds, sum(_median(t) for t in times.values())):
            round_times, round_ref, hops, _, _ = self._round(ctx, f"round-{rounds}", JOBS)
            for kind in COLD_KINDS:
                times[kind].append(round_times[kind])
                ref_times[kind].append(round_ref[kind])
            rounds += 1
        # per-command medians over the rounds: one slow process start
        # does not move the figure
        medians = {kind: _median(times[kind]) for kind in COLD_KINDS}
        ctx.note(f"{rounds} rounds; map_cold_s {_median(times['map-flat'] + times['map-object']):.3f}"
                 f", campaign_cold_s {medians['campaign']:.3f}, resume_s {medians['resume']:.3f}")
        return _rates(ctx, len(COLD_KINDS), hops, sum(medians.values()),
                      sum(_median(ref_times[kind]) for kind in COLD_KINDS))

    def traced(self, ctx: Context) -> dict[str, float]:
        self.setup(ctx)
        cold_times, _, _, _, _ = self._round(ctx, "untraced-parallel", JOBS)
        # the traced commands run their campaign at jobs=1, so every span
        # is recorded in the traced process; the overhead compares them
        # with the same commands untraced
        plain_times, _, _, plain, _ = self._round(ctx, "untraced", 1)
        traced_times, _, _, traced, work = self._round(ctx, "traced", 1, traced=True)
        for kind in COLD_KINDS:
            ctx.check(traced[kind][0] == plain[kind][0],
                      f"traced {kind} output differs from untraced")
        tracer = tracing.Tracer()
        wall = 0.0
        modules = 0
        for kind in COLD_KINDS:
            doc = json.loads((work / f"{kind}.trace.json").read_text())
            wall += doc["wall"]
            modules = max(modules, doc["modules"])
            tracer.spans.extend(tracing.spans_from_json(doc["spans"]))
        return _trace_metrics(
            ctx, tracer, wall, sum(traced_times.values()) - sum(plain_times.values()),
            **{
                "cli.modules_imported": modules,
                "store.results.bytes": _dir_bytes(work / "store"),
                "cold.map_s": _median([cold_times["map-flat"], cold_times["map-object"]]),
                "cold.campaign_s": cold_times["campaign"],
                "cold.resume_s": cold_times["resume"],
            })

    def record(self, ctx: Context) -> dict:
        self.setup(ctx)
        _, _, _, outputs, _ = self._round(ctx, "record", JOBS)
        stats = outputs["map-flat"][0]["stats"]
        return {"map": [stats["ticks"], stats["drained_ticks"], stats["character_hops"]],
                "campaign": dict(map(_cold_cell, outputs["campaign"][0]["scenarios"]))}


WORKLOADS = {
    "map-flat": MapWorkload("flat"),
    "map-object": MapWorkload("object"),
    "campaign-mixed": CampaignWorkload(),
    "cold-start": ColdStartWorkload(),
}
