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

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .constellation import Constellation, ConstellationConfig
from .geo import (
    CONSTANTS,
    GeodeticPoint,
    PhysicalConstants,
    check_number,
    great_circle_distance,
)
from .routing import Route, csr_layout, distances_from, link_latencies, trace_route
from .topology import LinkCandidates, NodeRef, TopologyParams, candidate_blocks

# Reproduction defaults. Neither the shell's inter-plane phasing nor the
# ground elevation mask is pinned down by the published constellation
# parameters, so both were calibrated once by an exhaustive sweep
# (phase_factor 0-23 crossed with masks 0-34 degrees) against the
# reference hour averages; see README for the sweep table. The 30 degree
# mask matters most: lower masks admit near-horizon ground slants that
# shortcut the corridor and undercut the reference latencies by ~5-10%.
REPRODUCTION_PHASE_FACTOR = 11
REPRODUCTION_MIN_ELEVATION_DEG = 30.0

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


def slot_count(duration_s: float, slot_s: float) -> int:
    """Number of slots in the horizon; slot_s must divide duration_s."""
    check_number("duration_s", duration_s)
    check_number("slot_s", slot_s)
    if slot_s <= 0 or duration_s < 0:
        raise ValueError("slot_s must be > 0 and duration_s >= 0")
    n_slots = round(duration_s / slot_s)
    if abs(n_slots * slot_s - duration_s) > 1e-9:
        raise ValueError("slot_s must divide duration_s")
    return n_slots


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
    """

    def __init__(
        self,
        cfg: ConstellationConfig,
        params: TopologyParams,
        scenarios: Sequence[Scenario],
        constants: PhysicalConstants,
    ):
        self.constellation = Constellation(cfg, constants)
        self.params = params
        row: dict[GeodeticPoint, int] = {}
        for sc in scenarios:
            row.setdefault(sc.src, len(row))
            row.setdefault(sc.dst, len(row))
        self.stations = list(row)
        self.queries = [(row[sc.src], row[sc.dst]) for sc in scenarios]
        self.targets = sorted({dst for _, dst in self.queries})
        self.nodes = [NodeRef.ground(s.label) for s in self.stations] + [
            NodeRef.satellite(sid) for sid in self.constellation.sat_ids
        ]

    def route_slots(self, times: Sequence[float]) -> Iterator[list[Route | None]]:
        """Each query's route at each of the ascending times, one list per
        time; the times of one topology.candidate_blocks block share one
        candidate set and layout."""
        for candidates, block in candidate_blocks(self.constellation, self.stations, times,
                                                  self.params):
            graph, pair_of = self._layout(candidates)
            for t in block:
                yield self._route(graph, pair_of, *candidates.at(t))
            # Let this block go before the next one is built.
            candidates = graph = pair_of = None

    def _layout(self, candidates: LinkCandidates) -> tuple[csr_matrix, np.ndarray]:
        """The block's graph, its data still unset, and for each entry of the
        satellite rows the candidate pair whose latency it holds."""
        n_st, n = len(self.stations), len(self.nodes)
        pair_of, indptr, sat_heads = csr_layout(n, candidates.pair_i + n_st,
                                                candidates.pair_j + n_st)
        # The station rows, empty so far, hold each station's cone in turn.
        indptr[1:n_st + 1] = np.cumsum([len(cone) for cone in candidates.cones])
        indptr[n_st + 1:] += indptr[n_st]
        indices = np.concatenate([cone + n_st for cone in candidates.cones] + [sat_heads])
        return csr_matrix((np.empty(len(indices)), indices, indptr), shape=(n, n)), pair_of

    def _route(self, graph: csr_matrix, pair_of: np.ndarray, isl_dist_km: np.ndarray,
               isl_keep: np.ndarray, uplinks) -> list[Route | None]:
        c_vacuum = self.constellation.constants.c_vacuum
        data, indptr = graph.data, graph.indptr
        isl_lat = link_latencies(isl_dist_km, c_vacuum, out=isl_dist_km)
        isl_lat[~isl_keep] = np.inf
        np.take(isl_lat, pair_of, out=data[indptr[len(self.stations)]:], mode="clip")
        for s, (seen, slant_km) in enumerate(uplinks):
            row = data[indptr[s]:indptr[s + 1]]
            link_latencies(slant_km, c_vacuum, out=row)
            row[~seen] = np.inf
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


def _route_block(
    cfg: ConstellationConfig,
    params: TopologyParams,
    scenarios: Sequence[Scenario],
    constants: PhysicalConstants,
    times: Sequence[float],
) -> list[list[Route | None]]:
    """Each scenario's route at each of the ascending times, one list per time."""
    return list(_SlotEngine(cfg, params, scenarios, constants).route_slots(times))


def run_scenarios(
    scenarios: Sequence[Scenario],
    cfg: ConstellationConfig,
    params: TopologyParams,
    duration_s: float = 3600,
    slot_s: float = 1,
    workers: int = 1,
    constants: PhysicalConstants = CONSTANTS,
) -> list[tuple[list[Route | None], ScenarioSummary]]:
    """Each scenario's route per slot (None where it has none) and its
    summary, in scenario order; slot k (1-based) is at index k-1.

    Slot k is evaluated at t = (k-1)*slot_s seconds past epoch; slot_s must
    divide duration_s. Each slot's graph is built once for all scenarios.
    With workers > 1, the slots are cut into that many contiguous chunks,
    routed by a process pool of at most one process per core and merged
    back in slot order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_slots = slot_count(duration_s, slot_s)
    times = [(k - 1) * slot_s for k in range(1, n_slots + 1)]
    per_slot: list[list[Route | None]] = []
    if n_slots and scenarios:
        if workers == 1 or n_slots < 2 * workers:
            per_slot = _route_block(cfg, params, scenarios, constants, times)
        else:
            bounds = [(n_slots * w) // workers for w in range(workers + 1)]
            chunks = [times[bounds[w]:bounds[w + 1]] for w in range(workers)]
            with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
                for part in pool.map(_route_block, itertools.repeat(cfg), itertools.repeat(params),
                                     itertools.repeat(scenarios), itertools.repeat(constants),
                                     chunks):
                    per_slot.extend(part)
    per_scenario = [[slot[q] for slot in per_slot] for q in range(len(scenarios))]
    return [(routes, summarize(sc, routes, constants))
            for sc, routes in zip(scenarios, per_scenario)]


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
