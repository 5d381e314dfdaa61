"""City-pair latency experiments: satellite network vs. fiber baseline.

Each scenario routes one city pair through the constellation once per
time slot over the sweep horizon, then summarizes the reachable-slot
latency statistics against the great-circle fiber baseline. The slot
engine builds each slot's laser graph once and routes every scenario of
the run over it; consecutive slots share the link candidates and the
graph's layout. Slots are independent, so blocks of them can be fanned
out over a process pool; results are merged in slot order, which keeps
every output independent of worker count.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .constellation import Constellation, ConstellationConfig
from .geo import (
    CONSTANTS,
    GeodeticPoint,
    PhysicalConstants,
    check_fields,
    check_number,
    great_circle_distance,
)
from .routing import Route, csr_layout, distances_from, link_latencies, trace_route
from .topology import LinkCandidates, NodeRef, TopologyParams, candidate_blocks, route_budget_km

# Reproduction defaults. Neither the shell's inter-plane phasing nor the
# ground elevation mask is pinned down by the published constellation
# parameters, so both were calibrated once by an exhaustive sweep
# (phase_factor 0-23 crossed with masks 0-34 degrees) against the
# reference hour averages; see README for the sweep table. The 30 degree
# mask matters most: lower masks admit near-horizon ground slants that
# shortcut the corridor and undercut the reference latencies by ~5-10%.
REPRODUCTION_PHASE_FACTOR = 11
REPRODUCTION_MIN_ELEVATION_DEG = 30.0

# Most slots one run may hold: every route is kept in memory, about 1.15 KB
# per slot for the three built-in scenarios, so 1.2 GB at the bound.
MAX_SLOTS = 1_000_000

# Financial-exchange coordinates for the built-in scenarios (public
# street-address records: NYSE, Euronext Dublin, B3, LSE, TSX, ASX).
EXCHANGE_COORDINATES = {
    "New York": (40.706913, -74.011322),
    "Dublin": (53.344648, -6.263233),
    "Sao Paulo": (-23.547778, -46.635833),
    "London": (51.515236, -0.098942),
    "Toronto": (43.648222, -79.381375),
    "Sydney": (-33.863893, 151.208407),
}


@dataclass(frozen=True)
class Scenario:
    """A source/destination city pair."""

    name: str
    src: GeodeticPoint
    dst: GeodeticPoint

    def __post_init__(self):
        for what, text in (("name", self.name), ("src label", self.src.label),
                           ("dst label", self.dst.label)):
            if not isinstance(text, str) or not text:
                raise ValueError(f"{what} must be a non-empty string, got {text!r}")
        if self.src.label == self.dst.label:
            raise ValueError("src and dst must be distinct stations")


@dataclass(frozen=True)
class ScenarioSummary:
    name: str
    oftn_distance_km: float
    oftn_latency_ms: float
    slots: int
    unreachable_slots: int
    owsn_avg_latency_ms: float | None
    owsn_min_ms: float | None
    owsn_max_ms: float | None


def builtin_scenarios() -> list[Scenario]:
    """The three inter-continental exchange pairs."""

    def point(city: str) -> GeodeticPoint:
        lat, lon = EXCHANGE_COORDINATES[city]
        return GeodeticPoint(lat, lon, city)

    return [
        Scenario("New York-Dublin", point("New York"), point("Dublin")),
        Scenario("Sao Paulo-London", point("Sao Paulo"), point("London")),
        Scenario("Toronto-Sydney", point("Toronto"), point("Sydney")),
    ]


def oftn_latency(distance_km: float, constants: PhysicalConstants = CONSTANTS) -> float:
    """Fiber propagation latency in ms for a surface distance in km."""
    if distance_km < 0:
        raise ValueError("distance must be >= 0")
    return distance_km * 1000.0 / constants.c_fiber * 1000.0


def compare(owsn_avg_ms: float, oftn_ms: float) -> tuple[float, float]:
    """(ms, percent of the fiber latency) the satellite route saves."""
    if oftn_ms <= 0:
        raise ValueError("baseline latency must be > 0")
    gain_ms = oftn_ms - owsn_avg_ms
    return gain_ms, 100.0 * gain_ms / oftn_ms


def summarize(
    scenario: Scenario,
    routes: Sequence[Route | None],
    constants: PhysicalConstants = CONSTANTS,
) -> ScenarioSummary:
    """Reachable-slot latency statistics next to the fiber baseline."""
    distance = great_circle_distance(scenario.src, scenario.dst, constants.earth_radius_km)
    baseline_ms = oftn_latency(distance, constants)
    reachable = [r.total_latency_s * 1000.0 for r in routes if r is not None]
    if reachable:
        avg = sum(reachable) / len(reachable)
        owsn_min, owsn_max = min(reachable), max(reachable)
    else:
        avg = owsn_min = owsn_max = None
    return ScenarioSummary(
        name=scenario.name,
        oftn_distance_km=distance,
        oftn_latency_ms=baseline_ms,
        slots=len(routes),
        unreachable_slots=len(routes) - len(reachable),
        owsn_avg_latency_ms=avg,
        owsn_min_ms=owsn_min,
        owsn_max_ms=owsn_max,
    )


def check_station_labels(scenarios: Sequence[Scenario]) -> None:
    """Raise ValueError unless each station label names only one point:
    route paths name stations by label."""
    by_label: dict[str, GeodeticPoint] = {}
    for point in (p for sc in scenarios for p in (sc.src, sc.dst)):
        if by_label.setdefault(point.label, point) != point:
            raise ValueError(f"station label {point.label!r} names two different points")


def slot_count(duration_s: float, slot_s: float) -> int:
    """Number of slots in the horizon, at most MAX_SLOTS; slot_s must divide duration_s."""
    check_number("duration_s", duration_s)
    check_number("slot_s", slot_s)
    if slot_s <= 0 or duration_s < 0:
        raise ValueError("slot_s must be > 0 and duration_s >= 0")
    if not duration_s / slot_s < MAX_SLOTS + 0.5:
        raise ValueError(f"duration_s / slot_s gives {duration_s / slot_s:.7g} slots, "
                         f"more than the bound of {MAX_SLOTS:,}")
    n_slots = round(duration_s / slot_s)
    if abs(n_slots * slot_s - duration_s) > 1e-9:
        raise ValueError("slot_s must divide duration_s")
    return n_slots


@dataclass(frozen=True)
class Run:
    """A run: shell, link rules, constants, city pairs and horizon; the
    defaults are the reproduction setup, with calibrated phasing and mask."""

    constellation: ConstellationConfig = ConstellationConfig(phase_factor=REPRODUCTION_PHASE_FACTOR)
    topology: TopologyParams = TopologyParams(min_elevation_deg=REPRODUCTION_MIN_ELEVATION_DEG)
    constants: PhysicalConstants = CONSTANTS
    scenarios: tuple[Scenario, ...] = tuple(builtin_scenarios())
    duration_s: float = 3600
    slot_s: float = 1

    def __post_init__(self):
        check_fields(self)
        t_end = max(slot_count(self.duration_s, self.slot_s) - 1, 0) * self.slot_s
        check_station_labels(self.scenarios)
        # Constellation's orbit, checked without building the shell (r * r * r
        # overflows to inf where Constellation's r**3 raises), and the angles
        # it and the Earth turn through by the last slot: np.cos(inf) is nan.
        shell, constants = self.constellation, self.constants
        r = constants.earth_radius_km + shell.altitude_km
        cube = r * r * r
        if not (0.0 < cube < math.inf and 0.0 < constants.mu_earth / cube < math.inf):
            raise ValueError(f"altitude_km {shell.altitude_km}, earth_radius_km "
                             f"{constants.earth_radius_km} and mu_earth {constants.mu_earth} "
                             "give no finite circular orbit")
        if not (math.sqrt(constants.mu_earth / cube) * (abs(shell.epoch) + abs(t_end - shell.epoch))
                + abs(constants.earth_rotation_rate) * t_end < math.inf):
            raise ValueError(f"the shell (epoch {shell.epoch:g}) or the Earth (earth_rotation_rate "
                             f"{constants.earth_rotation_rate:g}) turns through no finite angle "
                             f"by the last slot of duration_s {self.duration_s:g}")

    @property
    def n_slots(self) -> int:
        return slot_count(self.duration_s, self.slot_s)


class _SlotEngine:
    """Routes every scenario of a run over one graph per slot.

    The graph is directed. Each distinct station has one row, holding only
    its uplinks; satellite rows follow and hold the laser links, one entry
    per direction. No edge enters a station, so no scenario's station can
    relay another scenario's route. One Dijkstra call per slot, from the
    destination rows along their uplinks, gives every satellite's latency
    to each destination.

    The slots of one topology.candidate_blocks block share one
    LinkCandidates set, and the graph's CSR layout (indptr and indices)
    holds every candidate link of that block. Each slot writes only the
    latencies, inf where a candidate is not a link at that slot: csgraph
    never relaxes an inf edge and trace_route never takes one, so every
    route equals the one-slot graph's.

    Each block's candidates are pruned to the scenarios' route budgets. A
    slot's routes stand only if each is within its budget; otherwise that
    slot and the rest of its block route on the unpruned candidates, so the
    budgets never change a route (see topology.LinkCandidates).
    """

    def __init__(self, run: Run):
        self.constellation = Constellation(run.constellation, run.constants)
        self.params = run.topology
        row: dict[GeodeticPoint, int] = {}
        for sc in run.scenarios:
            row.setdefault(sc.src, len(row))
            row.setdefault(sc.dst, len(row))
        self.stations = list(row)
        self.queries = [(row[sc.src], row[sc.dst]) for sc in run.scenarios]
        self.targets = sorted({dst for _, dst in self.queries})
        self.budgets = [(src, dst, route_budget_km(self.constellation, sc.src, sc.dst, self.params))
                        for (src, dst), sc in zip(self.queries, run.scenarios)]
        self.budgets_s = [link_latencies(km, run.constants.c_vacuum) for _, _, km in self.budgets]
        self.nodes = [NodeRef.ground(s.label) for s in self.stations] + [
            NodeRef.satellite(sid) for sid in self.constellation.sat_ids
        ]

    def route_slots(self, times: Sequence[float]) -> Iterator[list[Route | None]]:
        """Each query's route at each of the ascending times, one list per
        time; the times of one topology.candidate_blocks block share one
        candidate set and layout."""
        for candidates, block in candidate_blocks(self.constellation, self.stations, times,
                                                  self.params, self.budgets):
            graph, link_of = self._layout(candidates)
            for t in block:
                routes = self._route(graph, link_of, *candidates.at(t))
                if candidates.pruned and not all(
                        r is not None and r.total_latency_s <= b
                        for r, b in zip(routes, self.budgets_s)):
                    # Let the pruned set go before the full one is built.
                    t0, span_s = candidates.t0, candidates.span_s
                    candidates = graph = link_of = None
                    candidates = LinkCandidates(self.constellation, self.stations, t0, span_s,
                                                self.params)
                    graph, link_of = self._layout(candidates)
                    routes = self._route(graph, link_of, *candidates.at(t))
                yield routes
            # Let this block go before the next one is built.
            candidates = graph = link_of = None

    def _layout(self, candidates: LinkCandidates) -> tuple[csr_matrix, np.ndarray]:
        """The block's graph, its data still unset, and for each entry the
        candidate link whose latency it holds. The uplinks are one-way: the
        station rows hold them, and no edge enters a station."""
        n = len(self.nodes)
        link_of, indptr, indices = csr_layout(n, candidates.link_i, candidates.link_j,
                                              one_way=candidates.cone_ptr[-1])
        return csr_matrix((np.empty(len(indices)), indices, indptr), shape=(n, n)), link_of

    def _route(self, graph: csr_matrix, link_of: np.ndarray, dist_km: np.ndarray,
               is_link: np.ndarray) -> list[Route | None]:
        data, indptr = graph.data, graph.indptr
        lat = link_latencies(dist_km, self.constellation.constants.c_vacuum, out=dist_km)
        lat[~is_link] = np.inf
        np.take(lat, link_of, out=data, mode="clip")
        # Each satellite's downlink latency to a destination is the
        # destination's uplink read backwards.
        n = len(self.nodes)
        towards = {}
        for dst, dist in zip(self.targets, distances_from(graph, self.targets)):
            lo, hi = indptr[dst], indptr[dst + 1]
            into_dst = np.full(n, np.inf)
            into_dst[graph.indices[lo:hi]] = data[lo:hi]
            towards[dst] = dist, into_dst
        return [trace_route(graph, towards[dst][0], src, dst, self.nodes.__getitem__, towards[dst][1])
                for src, dst in self.queries]


def _route_block(run: Run, times: Sequence[float]) -> list[list[Route | None]]:
    """A pool's task: each scenario's route at each of the ascending times."""
    return list(_SlotEngine(run).route_slots(times))


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity mask, else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scenarios(run: Run, workers: int = 1) -> list[tuple[list[Route | None], ScenarioSummary]]:
    """Each scenario's route per slot (None where it has none) and its
    summary, in scenario order; slot k (1-based) is at index k-1.

    Slot k is evaluated at t = (k-1)*slot_s seconds past epoch. Each slot's
    graph is built once for all scenarios. The slots are cut into P =
    max(1, min(workers, usable_cores(), n_slots // 2)) contiguous chunks:
    workers counts this process. It routes the first chunk while a pool of
    P - 1 processes routes the rest, merged back in slot order; after each
    of its slots it re-raises the first failure of the pool's chunks.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    n_slots = run.n_slots
    times = [(k - 1) * run.slot_s for k in range(1, n_slots + 1)]
    per_slot: list[list[Route | None]] = []
    if n_slots and run.scenarios:
        procs = max(1, min(workers, usable_cores(), n_slots // 2))
        bounds = [(n_slots * w) // procs for w in range(procs + 1)]
        chunks = [times[bounds[w]:bounds[w + 1]] for w in range(procs)]
        pool = contextlib.nullcontext()  # one process: chunks[1:] is empty
        if procs > 1:
            # Load the routing kernel before the fork, so that the pool
            # inherits it, and fork before this process holds any routing memory.
            importlib.import_module("scipy.sparse.csgraph")
            # Read through the module: see __getattr__.
            pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=procs - 1)
        with pool:
            parts = [pool.submit(_route_block, run, chunk) for chunk in chunks[1:]]
            for routes in _SlotEngine(run).route_slots(chunks[0]):
                per_slot.append(routes)
                for part in parts:
                    if part.done() and part.exception() is not None:
                        raise part.exception()
            for part in parts:
                per_slot.extend(part.result())
    per_scenario = [[slot[q] for slot in per_slot] for q in range(len(run.scenarios))]
    return [(routes, summarize(sc, routes, run.constants))
            for sc, routes in zip(run.scenarios, per_scenario)]


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first access: it loads 12 modules
    of multiprocessing (about 0.5 MB), which a run in one process never
    uses. run_scenarios reads it through the module, so it can be patched
    there."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def chord_bound_ms(
    src: GeodeticPoint, dst: GeodeticPoint, constants: PhysicalConstants = CONSTANTS
) -> float:
    """Straight-line-through-Earth lower bound on any route's latency, ms.

    The chord length between the two stations is invariant under Earth
    rotation, so it can be computed from the epoch coordinates.
    """
    arc = great_circle_distance(src, dst, constants.earth_radius_km)
    theta = arc / constants.earth_radius_km
    chord_km = 2.0 * constants.earth_radius_km * math.sin(theta / 2.0)
    return chord_km * 1000.0 / constants.c_vacuum * 1000.0
