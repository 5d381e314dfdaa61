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
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

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
from .routing import Route, csr_layout, find_routes, link_latencies
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

# Graph entries whose latencies one np.take gathers.
_TAKE_CHUNK = 8192
# Most graph components of one block: the bits of a node's membership.
_MAX_COMPONENTS = 64

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


class _BlockGraph(NamedTuple):
    """A block's graph, its data written per slot: entry m holds the latency
    of candidate link link_of[m]; destination d's search starts at row
    first_row[d] + d, and names[r] is row r's node."""

    graph: csr_matrix
    link_of: np.ndarray
    first_row: dict[int, int]
    names: Sequence[NodeRef]


class _SlotEngine:
    """Routes every scenario of a run over one graph per slot.

    The graph is directed. Each distinct station has one row, holding only
    its uplinks; satellite rows follow and hold the laser links, one entry
    per direction. No edge enters a station, so no scenario's station can
    relay another scenario's route. routing.find_routes searches once per
    slot from the destination rows along their uplinks, and its walk reads
    a satellite's downlink from the destination's row.

    The slots of one topology.candidate_blocks block share one
    LinkCandidates set, and the graph's CSR layout (indptr and indices)
    holds the block's candidate links (in a pruned block, those inside each
    component, below). Each slot writes only the latencies, inf where a
    candidate is not a link at that slot: csgraph never relaxes an inf edge
    and trace_route never takes one, so every route equals the one-slot
    graph's.

    Each block's candidates are pruned to the scenarios' route budgets. A
    pruned block's graph is block-diagonal, one component per destination,
    where the block's slots make every component pay for its layout (see
    _layout): the stations, then only the satellites that the budgets of
    the destination's own scenarios keep, both in global order, so that
    trace_route breaks ties as on the whole graph. Each destination's
    search stays inside its component. Other blocks have the single graph
    over every node. A slot's routes stand only if each is within its
    budget; otherwise that slot and the rest of its block route on the
    unpruned candidates, on the single graph, so the budgets never change
    a route (see topology.LinkCandidates).
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
            layout = self._layout(candidates, len(block))
            for t in block:
                routes = self._route(layout, *candidates.at(t))
                if candidates.pruned and not all(
                        r is not None and r.total_latency_s <= b
                        for r, b in zip(routes, self.budgets_s)):
                    # Let the pruned set go before the full one is built.
                    t0, span_s = candidates.t0, candidates.span_s
                    candidates = layout = None
                    candidates = LinkCandidates(self.constellation, self.stations, t0, span_s,
                                                self.params)
                    layout = self._layout(candidates, len(block))
                    routes = self._route(layout, *candidates.at(t))
                yield routes
            # Let this block go before the next one is built.
            candidates = layout = None

    def _layout(self, candidates: LinkCandidates, n_slots: int) -> _BlockGraph:
        """The graph of a block of n_slots slots. The uplinks are one-way:
        the station rows hold them, and no edge enters a station.

        Each destination gets a component of its own, holding the stations
        and the `own` satellites that its scenarios' budgets keep, if every
        destination has (union - own) * n_slots >= own, union counting the
        satellites that any budget keeps: over the block, its search would
        visit more satellites in vain on the single graph than its own
        component lays out. Otherwise the block has the single graph, whose
        rows the satellites that no budget keeps leave empty. (Components
        for some destinations only, next to the single graph for the
        others, would hold more links than either.)
        """
        link_i, link_j, n_up = candidates.link_i, candidates.link_j, candidates.cone_ptr[-1]
        n_st, union = len(self.stations), np.count_nonzero(candidates.kept)
        own = [np.logical_or.reduce([kept for (_, d), kept in zip(self.queries,
                                                                  candidates.kept_by_budget)
                                     if d == dst])
               for dst in self.targets] if candidates.pruned else []
        if not 0 < len(own) <= _MAX_COMPONENTS or any(
                (union - size) * n_slots < size for size in map(np.count_nonzero, own)):
            link_of, indptr, indices = csr_layout(len(self.nodes), link_i, link_j, one_way=n_up)
            return _BlockGraph(self._csr(indptr, indices), link_of,
                               dict.fromkeys(self.targets, 0), self.nodes)
        # Bit c of a node is set if component c holds it, and a link lies in
        # the component if both its ends do.
        bits = np.zeros(len(self.nodes), np.min_scalar_type(2**len(own) - 1))
        bits[:n_st] = 2**len(own) - 1
        for c, kept in enumerate(own):
            bits[n_st:][kept] |= 1 << c
        both = bits[link_i] & bits[link_j]
        row_of = np.empty(len(self.nodes), np.int32)
        members, pieces, rows = [], [], 0
        for c, kept in enumerate(own):
            members.append(np.concatenate([np.arange(n_st), n_st + np.flatnonzero(kept)]))
            row_of[members[-1]] = np.arange(rows, rows + len(members[-1]), dtype=np.int32)
            links = np.flatnonzero(both & both.dtype.type(1 << c)).astype(np.int32)
            pieces.append((row_of[link_i[links]], row_of[link_j[links]], links,
                           np.searchsorted(links, n_up)))
            rows += len(members[-1])
        # Every component's uplinks first, as csr_layout takes the one-way
        # edges: a row's arcs keep the order that a layout of its component
        # alone gives them.
        edge_i, edge_j, edge_ids = (
            np.concatenate([p[k][:p[3]] for p in pieces] + [p[k][p[3]:] for p in pieces])
            for k in range(3))
        one_way = sum(p[3] for p in pieces)
        both = row_of = pieces = None
        link_of, indptr, indices = csr_layout(rows, edge_i, edge_j, one_way=one_way,
                                              edge_ids=edge_ids)
        edge_i = edge_j = edge_ids = None  # before the graph's data is allocated
        first_row = dict(zip(self.targets, np.cumsum([0] + [len(m) for m in members]).tolist()))
        names = [self.nodes[k] for k in np.concatenate(members).tolist()]
        return _BlockGraph(self._csr(indptr, indices), link_of, first_row, names)

    @staticmethod
    def _csr(indptr: np.ndarray, indices: np.ndarray) -> csr_matrix:
        n = len(indptr) - 1
        return csr_matrix((np.empty(len(indices)), indices, indptr), shape=(n, n))

    def _route(self, block: _BlockGraph, dist_km: np.ndarray,
               is_link: np.ndarray) -> list[Route | None]:
        graph, link_of, first_row, names = block
        data = graph.data
        lat = link_latencies(dist_km, self.constellation.constants.c_vacuum, out=dist_km)
        lat[~is_link] = np.inf
        # In chunks: np.take copies int32 indices to intp, and a copy of
        # link_of would be as large as the graph's data.
        for lo in range(0, len(data), _TAKE_CHUNK):
            hi = lo + _TAKE_CHUNK
            np.take(lat, link_of[lo:hi], out=data[lo:hi], mode="clip")
        return find_routes(graph, [(first_row[dst] + src, first_row[dst] + dst)
                                   for src, dst in self.queries], names.__getitem__)


_stop = threading.Event()


def _join_pool(stop) -> None:
    """A pool process's initializer: keep as _stop the signal that the
    calling process sets when it fails. Elsewhere _stop is never set."""
    global _stop
    _stop = stop


def _route_block(run: Run, times: Sequence[float]) -> list[list[Route | None]]:
    """A pool's task: each scenario's route at each of the ascending times.
    It raises RuntimeError after the slot in which _stop is set."""
    routes = []
    for slot in _SlotEngine(run).route_slots(times):
        if _stop.is_set():
            raise RuntimeError("stopped: the calling process failed")
        routes.append(slot)
    return routes


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
    of its slots it re-raises the first failure of the pool's chunks. When
    this process fails, the pool's chunks stop after the slot they route.
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
        pool, stop = contextlib.nullcontext(), threading.Event()  # one process: no pool to stop
        if procs > 1:
            # Load the routing kernel before the fork, so that the pool
            # inherits it, and fork before this process holds any routing memory.
            importlib.import_module("scipy.sparse.csgraph")
            stop = importlib.import_module("multiprocessing").Event()
            # Read through the module: see __getattr__.
            pool = sys.modules[__name__].ProcessPoolExecutor(
                max_workers=procs - 1, initializer=_join_pool, initargs=(stop,))
        with pool:
            parts = [pool.submit(_route_block, run, chunk) for chunk in chunks[1:]]
            try:
                for routes in _SlotEngine(run).route_slots(chunks[0]):
                    per_slot.append(routes)
                    for part in parts:
                        if part.done() and part.exception() is not None:
                            raise part.exception()
                for part in parts:
                    per_slot.extend(part.result())
            finally:
                # After the merge no chunk runs; after a failure each stops.
                stop.set()
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
