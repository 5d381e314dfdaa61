"""Run one leolat CLI command in-process with spans around each layer.

Usage: python perfbench/traced.py SPANS_JSON -- <leolat arguments>

The wrappers replace, in this process only, the public callables each
module takes from the next one (cli -> experiment -> topology/routing ->
constellation/geo), so the program itself is unchanged. Spans are kept in
memory and written to SPANS_JSON when the command returns, together with
deterministic counters computed from the returned SnapshotGraph and Route
objects. Pool workers are not traced: in a pooled run only the parent's
spans exist, including one span per process pool and the time spent
waiting on its results.

Span record: [name, start_ns, end_ns, parent index or -1, slot id or None].
A slot id names one scenario-slot: build_snapshot opens it and the
shortest_path call that follows joins it. Computing counters is itself a
span (trace.bookkeeping), so it is not charged to the caller.

The functions at the end turn span dumps into run.py's per-layer metrics,
so that the span format is known to this module only.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.slots = 0
        self.counters: dict[str, float] = {}
        self.slot_times: set[float] = set()
        self.last_route: dict[int, tuple[str, ...] | None] = {}
        self.slot_scenarios: dict[int, str] = {}
        self.caller = -1
        self.missing: list[str] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def begin(self, name: str, slot: str = "inherit") -> None:
        parent = self.stack[-1] if self.stack else -1
        if slot == "open":
            self.slots += 1
            slot_id = self.slots
        elif slot == "join":
            slot_id = self.slots
        else:
            slot_id = self.spans[parent][4] if parent >= 0 else None
        rec = [name, time.perf_counter_ns(), 0, parent, slot_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def wrap(self, name, fn, on_result=None, slot="inherit"):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.begin(name, slot)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                # Counting gets its own span so that it is not charged to
                # the caller's self time.
                self.caller = self.stack[-1] if self.stack else -1
                self.begin("trace.bookkeeping")
                try:
                    on_result(result, *args, **kwargs)
                finally:
                    self.end()
            return result

        return wrapped

    # -- counters from returned objects ------------------------------------

    def on_snapshot(self, graph, constellation, stations, t, params, slot_index=0):
        self.count("topology.snapshots")
        self.slot_times.add(float(t))
        ng = graph.n_ground
        i = graph.edge_i.astype(np.int64)
        j = graph.edge_j.astype(np.int64)
        ground = (i < ng) | (j < ng)
        spp = constellation.cfg.sats_per_plane
        planes = constellation.cfg.num_planes
        diff = ((i[~ground] - ng) // spp - (j[~ground] - ng) // spp) % planes
        adjacent = (diff == 1) | (diff == planes - 1)
        self.count("topology.edges.ground", int(ground.sum()))
        self.count("topology.edges.intra", int((diff == 0).sum()))
        self.count("topology.edges.adjacent", int(adjacent.sum()))
        self.count("topology.edges.crossing", int(((diff != 0) & ~adjacent).sum()))
        self.count("topology.station_snapshots", ng)

    def on_route(self, route, graph, src, dst):
        self.slot_scenarios[self.slots] = f"{src.label}-{dst.label}"
        # The caller's span is the run_scenario call that owns this slot
        # sequence; route changes are counted within it.
        ctx = self.caller
        labels = tuple(route.labels()) if route is not None else None
        if route is None:
            self.count("routing.unreachable_slots")
        else:
            self.count("routing.reachable")
            self.count("routing.hops", route.hop_count)
        if ctx in self.last_route and self.last_route[ctx] != labels:
            self.count("routing.route_changes")
        self.last_route[ctx] = labels

    def on_occlusion(self, clear, a, b, radius_km=None):
        self.count("geo.occlusion_pairs_in", len(clear))
        self.count("geo.occlusion_pairs_kept", int(np.count_nonzero(clear)))

    def on_propagate(self, positions, constellation, t):
        self.count("constellation.propagate_calls")

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, replace) -> None:
        """Set owner.attr to replace(original); a callable the program no
        longer has is listed in self.missing rather than failing the run."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, replace(original))

    def install(self) -> None:
        import leolat.cli as cli
        import leolat.constellation as constellation
        import leolat.experiment as experiment
        import leolat.topology as topology

        def span(name, on_result=None, slot="inherit"):
            return lambda fn: self.wrap(name, fn, on_result, slot)

        self.patch(cli, "load_config", span("cli.load_config"))
        self.patch(cli, "cmd_run", span("cli.command"))
        self.patch(cli, "cmd_sweep_range", span("cli.command"))
        self.patch(cli, "run_scenario", span("experiment.run_scenario"))
        self.patch(experiment, "Constellation", span("constellation.build"))
        self.patch(experiment, "build_snapshot",
                   span("topology.build_snapshot", self.on_snapshot, slot="open"))
        self.patch(experiment, "shortest_path",
                   span("routing.shortest_path", self.on_route, slot="join"))
        self.patch(experiment, "ProcessPoolExecutor", lambda base: traced_pool(self, base))
        self.patch(constellation.Constellation, "positions_at",
                   span("constellation.propagate", self.on_propagate))
        self.patch(topology, "segments_clear", span("geo.occlusion", self.on_occlusion))
        self.patch(topology, "elevation_angles", span("geo.elevation"))
        self.patch(topology, "cKDTree", lambda base: traced_kdtree(self, base))
        self.patch(topology.SnapshotGraph, "csr", span("topology.csr"))


def traced_kdtree(tracer: Tracer, base):
    class TracedKDTree:
        """KD-tree pair search, timed from construction to query."""

        def __init__(self, data):
            tracer.begin("topology.pair_search")
            try:
                self.tree = base(data)
            finally:
                tracer.end()

        def query_pairs(self, *args, **kwargs):
            tracer.begin("topology.pair_search")
            try:
                return self.tree.query_pairs(*args, **kwargs)
            finally:
                tracer.end()

    return TracedKDTree


def traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        """Process pool whose lifetime and result waits are spans."""

        def __init__(self, *args, **kwargs):
            tracer.count("experiment.pools_started")
            tracer.begin("experiment.pool")
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            results = super().map(fn, *iterables, **kwargs)

            def waiting():
                while True:
                    tracer.begin("experiment.pool_wait")
                    try:
                        item = next(results)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    yield item

            return waiting()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end()

    return TracedPool


# -- metrics from span dumps (used by run.py) ----------------------------


def self_times(spans: list) -> list[int]:
    covered = [0] * len(spans)
    for name, start, end, parent, slot in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def layer_metrics(dumps: list[dict]) -> tuple[dict, dict, int]:
    """Per-scenario-slot layer costs from single-worker span dumps.

    Returns (metrics, routing share of slot time per scenario, scenario-slots).
    """
    totals: dict[str, int] = {}
    slot_ns: dict[tuple[int, int], int] = {}
    slot_scenario: dict[tuple[int, int], str] = {}
    route_ns: dict[tuple[int, int], int] = {}
    build_calls = 0
    for d, dump in enumerate(dumps):
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, slot = span
            totals[name] = totals.get(name, 0) + own
            if name == "constellation.build":
                build_calls += 1
            if name in ("topology.build_snapshot", "routing.shortest_path"):
                slot_ns[d, slot] = slot_ns.get((d, slot), 0) + end - start
            if name == "routing.shortest_path":
                route_ns[d, slot] = own
        for slot, scenario in dump["slot_scenarios"].items():
            slot_scenario[d, int(slot)] = scenario
    per_slot_ms = {name: total / max(1, len(slot_ns)) / 1e6 for name, total in totals.items()}
    slot_ms = [v / 1e6 for v in slot_ns.values()] or [0.0]
    p99 = statistics.quantiles(slot_ms, n=100, method="inclusive")[98] if len(slot_ms) > 1 else slot_ms[0]
    share: dict[str, list[int]] = {}
    for key, total in slot_ns.items():
        acc = share.setdefault(slot_scenario.get(key, "?"), [0, 0])
        acc[0] += route_ns.get(key, 0)
        acc[1] += total
    metrics = {
        "constellation.build_ms": totals.get("constellation.build", 0) / max(1, build_calls) / 1e6,
        "constellation.propagate_ms": per_slot_ms.get("constellation.propagate", 0.0),
        "geo.elevation_ms": per_slot_ms.get("geo.elevation", 0.0),
        "geo.occlusion_ms": per_slot_ms.get("geo.occlusion", 0.0),
        "topology.pair_search_ms": per_slot_ms.get("topology.pair_search", 0.0),
        "topology.snapshot_self_ms": per_slot_ms.get("topology.build_snapshot", 0.0),
        "topology.csr_ms": per_slot_ms.get("topology.csr", 0.0),
        "routing.search_ms": per_slot_ms.get("routing.shortest_path", 0.0),
        "routing.search_share": sum(route_ns.values()) / max(1, sum(slot_ns.values())),
        "slot.ms.p50": statistics.median(slot_ms),
        "slot.ms.p99": p99,
    }
    return metrics, {k: r / max(1, t) for k, (r, t) in share.items()}, len(slot_ns)


def command_metrics(dumps: list[dict]) -> dict:
    """Per-command costs of the workload's own traced invocations (medians)."""

    def per_dump(dump, name, self_only):
        spans = dump["spans"]
        own = self_times(spans)
        return sum((own[k] if self_only else s[2] - s[1])
                   for k, s in enumerate(spans) if s[0] == name)

    def med(name, self_only, scale):
        return statistics.median(per_dump(d, name, self_only) for d in dumps) / scale

    return {
        "experiment.self_ms": med("experiment.run_scenario", True, 1e6),
        "experiment.pool_wait_s": med("experiment.pool_wait", False, 1e9),
        "cli.load_config_ms": med("cli.load_config", False, 1e6),
        "cli.write_ms": med("cli.command", True, 1e6),
    }


def counter_metrics(c: dict) -> dict:
    instants = max(1, c.get("slot_instants", 0))
    snapshots = max(1, c.get("topology.snapshots", 0))
    pairs_in = c.get("geo.occlusion_pairs_in", 0)
    return {
        "constellation.calls_per_slot": c.get("constellation.propagate_calls", 0) / instants,
        "topology.snapshots_per_slot": c.get("topology.snapshots", 0) / instants,
        "topology.edges.intra": c.get("topology.edges.intra", 0) / snapshots,
        "topology.edges.adjacent": c.get("topology.edges.adjacent", 0) / snapshots,
        "topology.edges.crossing": c.get("topology.edges.crossing", 0) / snapshots,
        "topology.edges.ground": c.get("topology.edges.ground", 0) / snapshots,
        "topology.visible_sats_per_station":
            c.get("topology.edges.ground", 0) / max(1, c.get("topology.station_snapshots", 0)),
        "geo.occlusion_pairs_in": pairs_in,
        "geo.occlusion_keep_ratio": c.get("geo.occlusion_pairs_kept", 0) / pairs_in if pairs_in else 0.0,
        "routing.hops_mean": c.get("routing.hops", 0) / max(1, c.get("routing.reachable", 0)),
        "routing.route_changes": c.get("routing.route_changes", 0),
        "routing.unreachable_slots": c.get("routing.unreachable_slots", 0),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import leolat.cli

    code = leolat.cli.main(cli_args)
    counters = dict(tracer.counters)
    counters["slot_instants"] = len(tracer.slot_times)
    with open(out_path, "w") as f:
        json.dump({"exit_code": code, "spans": tracer.spans, "counters": counters,
                   "slot_scenarios": tracer.slot_scenarios, "missing": tracer.missing}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
