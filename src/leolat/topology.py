"""Per-time-slot links: laser ISLs plus ground up/down links.

Satellite pairs are linked iff their separation, as pair_lengths computes
it, is within the configured laser link range (optionally also requiring a
clear line of sight past the Earth); a station links to a satellite iff
the satellite is at or above the station's elevation mask.

LinkCandidates holds every link that can exist at some instant of a block
of time [t0, t0 + span]. Satellites move at most v = a * n (about 7.59
km/s at 550 km), so a pair's separation changes by at most 2 * v * span,
and a station-satellite range by at most (v + omega_E * R_E) * span. The
pair search (Constellation.pairs_within, which reads the pairs off the
Walker grid) therefore runs once per block, with the range widened by the
first bound. On one shell the elevation angle falls monotonically
with slant range, sin el = (r^2 - R^2 - d^2) / (2 R d), so each station
keeps the cone of satellites within the slant range of its mask widened by
the second bound; route budgets, held against the least path length over
the shell, may prune both (see LinkCandidates). Each
slot of the block then measures only the candidates and applies the exact
predicates: pair_lengths <= reach and elevation >= mask. build_snapshot
takes the one-slot case, a block of span 0 built and measured at the same
instant; the slot engine routes every CLI command on candidate sets
spanning up to BLOCK_MARGIN_KM of motion.

The line-of-sight test rests on the shell being one sphere of radius r:
the chord between two of its satellites clears the Earth exactly when it
is shorter than the tangent chord 2 * sqrt(r^2 - R_E^2), about 5,410 km at
550 km. So ranges up to the tangent chord never lose a pair to the Earth;
with the occlusion check on, longer pairs are never linked, and only
pairs within a relative 1e-9 of the tangent chord go through the exact
segment test.

build_snapshot turns the links of one slot into a SnapshotGraph: an
undirected graph over the stations and satellites of one slot, weighted by
latency at the vacuum speed of light. It is the reference graph that the
benchmark's output check and the tests route on with
routing.shortest_path.

Every graph numbers its stations first, in the order given, and its
satellites after them in ID order; routing breaks ties towards the smaller
node number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .constellation import Constellation
from .geo import (
    CONSTANTS,
    GeodeticPoint,
    check_fields,
    elevation_angles,
    geodetic_to_inertial,
    great_circle_distance,
    segments_clear,
)

# Relative width of the band around the tangent chord whose pairs get the
# exact line-of-sight test. The pair search reaches this much further as
# well, so that no pair it rounds differently from pair_lengths is lost.
_CHORD_MARGIN = 1e-9
# Relative slack on the slant range of the elevation mask: a range is off
# by ~1e-12 relative, so no satellite at or above the mask leaves the cone.
_CONE_MARGIN = 1e-6
# Most that any link length may change over one block of slots sharing a
# LinkCandidates set, km. With 1 s slots a block is 10 slots; slots longer
# than BLOCK_MARGIN_KM / (2 v), about 9.9 s, get a block each and no margin.
BLOCK_MARGIN_KM = 150.0
# Pairs pair_lengths measures at a time.
_PAIR_CHUNK = 4096


@dataclass(frozen=True)
class NodeRef:
    """A graph node: a ground station (by label) or a satellite (by ID)."""

    kind: str  # "ground" | "sat"
    label: str

    @classmethod
    def ground(cls, label: str) -> "NodeRef":
        return cls("ground", label)

    @classmethod
    def satellite(cls, sat_id: str) -> "NodeRef":
        return cls("sat", sat_id)

    @property
    def is_ground(self) -> bool:
        return self.kind == "ground"


@dataclass(frozen=True)
class TopologyParams:
    lisl_range_km: float = 1500.0
    min_elevation_deg: float = 10.0
    occlusion_check: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.lisl_range_km <= 0:
            raise ValueError("lisl_range_km must be > 0")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValueError("min_elevation_deg must be in [0, 90)")


def plane_link_class(plane_i: np.ndarray, plane_j: np.ndarray, num_planes: int) -> np.ndarray:
    """Class of each laser link from its endpoints' plane indices:
    0 intra-plane, 1 adjacent-plane (wrapping around), 2 crossing-plane."""
    diff = (plane_i - plane_j) % num_planes
    return np.where(diff == 0, 0, np.where((diff == 1) | (diff == num_planes - 1), 1, 2))


@dataclass(frozen=True, eq=False)
class SnapshotGraph:
    """Immutable weighted graph of one time slot.

    Nodes are indexed 0..n-1, the ground stations first and the
    satellites after them; each undirected edge is stored once with
    edge_i < edge_j.
    """

    slot_index: int
    ground_labels: tuple[str, ...]
    sat_ids: tuple[str, ...]
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_dist_km: np.ndarray
    c_vacuum: float = CONSTANTS.c_vacuum

    @property
    def n_ground(self) -> int:
        return len(self.ground_labels)

    @property
    def n_nodes(self) -> int:
        return len(self.ground_labels) + len(self.sat_ids)

    def node_ref(self, idx: int) -> NodeRef:
        if idx < self.n_ground:
            return NodeRef.ground(self.ground_labels[idx])
        return NodeRef.satellite(self.sat_ids[idx - self.n_ground])

    def index_of(self, node: NodeRef) -> int:
        try:
            if node.is_ground:
                return self.ground_labels.index(node.label)
            return self.n_ground + self.sat_ids.index(node.label)
        except ValueError:
            raise KeyError(f"node {node.label!r} not in snapshot") from None


def pair_lengths(cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distance between points i[k] and j[k] of a (3, N) array of x, y and z
    rows. Gathers from three 1-D rows run faster than one (N, 3) row
    gather, and the sum x + y + z is np.linalg.norm's, so the result is
    bit-identical to np.linalg.norm(xyz[i] - xyz[j], axis=1)."""
    # In chunks, with each chunk's indices cast once: ndarray.take casts any
    # other index type to intp on every call, a copy the size of the index
    # array. So the result is the one pair-sized array.
    x, y, z = cols
    dist = np.empty(len(i))
    for lo in range(0, len(i), _PAIR_CHUNK):
        i_ = i[lo:lo + _PAIR_CHUNK].astype(np.intp)
        j_ = j[lo:lo + _PAIR_CHUNK].astype(np.intp)
        out = dist[lo:lo + _PAIR_CHUNK]
        x.take(i_, out=out)
        out -= x.take(j_)
        out *= out
        for row in (y, z):
            d = row.take(i_)
            d -= row.take(j_)
            d *= d
            out += d
    return np.sqrt(dist, out=dist)


def mask_slant_km(constellation: Constellation, min_elevation_deg: float) -> float:
    """Slant range from a station to a satellite of the shell seen at the
    elevation angle, km: the longest link a station makes at that mask."""
    earth_r = constellation.constants.earth_radius_km
    el = math.radians(min_elevation_deg)
    return (math.sqrt(constellation.radius_km**2 - (earth_r * math.cos(el)) ** 2)
            - earth_r * math.sin(el))


def route_budget_km(constellation: Constellation, src: GeodeticPoint, dst: GeodeticPoint,
                    params: TopologyParams) -> float:
    """Path length, km, of the shell arc above the great circle from src to
    dst plus an uplink and a downlink at the mask's slant range: a route
    this long or shorter keeps inside the satellites that
    shell_path_floor_km admits (see LinkCandidates)."""
    return (great_circle_distance(src, dst, constellation.radius_km)
            + 2.0 * mask_slant_km(constellation, params.min_elevation_deg))


def shell_path_floor_km(constellation: Constellation, reach_km: float, min_elevation_deg: float,
                        range_km: np.ndarray) -> np.ndarray:
    """Least length, km, of any route from a station to a satellite at the
    given straight-line ranges from it, over uplinks at or above the mask
    and laser links at most reach_km long.

    With R the Earth radius, r the shell radius and phi the central angle
    from the station to the satellite: a laser link spans a central angle of
    at most alpha = 2 asin(reach / 2r), so it is at least k r times its
    angle, k = sin(alpha/2) / (alpha/2). A route whose uplink spans psi <=
    phi is at least d(psi) + k r (phi - psi) long, d(psi) being the uplink
    length. That is convex in psi (its slope r (sin eta - k) rises with the
    nadir angle eta, sin eta = R sin psi / d), so it is least at psi_c, the
    smaller of the mask's angle and the angle where sin eta = k: the angle
    of elevation e_c = max(mask, acos(k r / R)). Up to psi_c the floor is
    the range itself; past it, d(psi_c) + k r (phi - psi_c). It never
    changes faster than r per radian of phi.
    """
    earth_r, r = constellation.constants.earth_radius_km, constellation.radius_km
    half = math.asin(min(1.0, reach_km / (2.0 * r)))
    k = math.sin(half) / half
    elevation = max(math.radians(min_elevation_deg), math.acos(min(1.0, k * r / earth_r)))
    psi_c = math.pi / 2.0 - elevation - math.asin(earth_r * math.cos(elevation) / r)
    d_c = mask_slant_km(constellation, math.degrees(elevation))
    phi = np.arccos(np.clip((earth_r * earth_r + r * r - range_km * range_km)
                            / (2.0 * earth_r * r), -1.0, 1.0))
    return np.where(range_km <= d_c, range_km, d_c + k * r * (phi - psi_c))


def _station_xyz(station: GeodeticPoint, t: float, constants) -> np.ndarray:
    return geodetic_to_inertial(station, t, constants.earth_radius_km,
                                constants.earth_rotation_rate)


class LinkCandidates:
    """Every link that can exist at some instant of [t0, t0 + span_s].

    The candidates are one int32 edge list link_i < link_j in graph
    numbering, stations first and satellites after them. Station s's
    uplinks come first, station by station: links cone_ptr[s]:cone_ptr[s +
    1], to its candidate satellites in ascending order. The laser pairs
    follow (see the module docstring for the bounds that size both). at(t)
    measures the links at any t of the block.

    Each of the budgets (a, b, L = c * B) prunes. No route goes through
    the Earth, so a route from station a to b through satellite x is at
    least floor_a(x) + floor_b(x) long, floor being shell_path_floor_km at
    x's range from each station. Only the satellites whose floors at t0
    sum to at most L * (1 + _CONE_MARGIN) + 2 (v + omega_E r) span_s are
    kept: over the block the central angle from a station to a satellite
    moves by at most (v / r + omega_E) span_s, and a floor by at most r
    times that. (For Toronto-Sydney's first 10-slot block this keeps 450
    satellites, where the straight-line ellipsoid |x - a| + |x - b| <= L of
    Wagner & Willhalm, ESA 2003, keeps 1,017.) kept_by_budget holds each
    budget's mask, and `kept` their union; the satellites outside it keep
    no candidate. `pruned` says whether any went. Routes from a to b on any
    graph that holds budget (a, b)'s kept satellites and their candidates
    are exact if their latency R <= B: the full optimum is <= R, and every
    full route that fast lies in those satellites, so both graphs share
    their optimal routes. A node's csgraph distance is the least float
    path sum over its paths, so every node that the route walk finds tight
    gets the same float in both; one whose shortest path leaves the kept
    satellites is slower by far more than rounding and tight in neither.
    """

    def __init__(
        self,
        constellation: Constellation,
        stations: Sequence[GeodeticPoint],
        t0: float,
        span_s: float,
        params: TopologyParams,
        budgets: Sequence[tuple[int, int, float]] = (),
    ):
        if not span_s >= 0.0:
            raise ValueError("span_s must be >= 0")
        self.constellation = constellation
        self.stations = tuple(stations)
        self.params = params
        self.t0 = t0
        self.span_s = span_s
        constants = constellation.constants
        earth_r = constants.earth_radius_km

        # Every satellite lies on one shell of radius r, and a chord of that
        # shell clears the Earth exactly when it is shorter than the tangent
        # chord 2 * sqrt(r^2 - R_E^2), about 5,410.47 km at 550 km. Up to that
        # range nothing can be occluded. Past it, with the occlusion check on,
        # the reach is the tangent chord plus a relative margin, and only
        # pairs within that margin of it get the exact segment test. A length
        # is off by ~1e-12 km against a ~5e-6 km margin, so no pair outside
        # the band can fall on the wrong side.
        self.tangent = 2.0 * math.sqrt(max(0.0, constellation.radius_km**2 - earth_r**2))
        self.occlude = params.occlusion_check and params.lisl_range_km > self.tangent
        self.reach = params.lisl_range_km
        if self.occlude:
            self.reach = min(self.reach, self.tangent * (1.0 + _CHORD_MARGIN))

        self._xyz0 = constellation.positions_at(t0)
        ranges = [np.linalg.norm(self._xyz0 - _station_xyz(st, t0, constants), axis=1)
                  for st in self.stations]
        spin = abs(constants.earth_rotation_rate)
        drift = (constellation.speed_km_s + spin * earth_r) * span_s
        floors = {s: shell_path_floor_km(constellation, self.reach, params.min_elevation_deg,
                                         ranges[s]) for s in {s for b in budgets for s in b[:2]}}
        # The central angle from a station to a satellite moves at most (v / r
        # + omega_E) * span_s over the block, and each floor at most r times that.
        slack = 2.0 * (constellation.speed_km_s + spin * constellation.radius_km) * span_s
        self.kept_by_budget = [floors[a] + floors[b] <= budget_km * (1.0 + _CONE_MARGIN) + slack
                               for a, b, budget_km in budgets]
        self.kept = np.logical_or.reduce(self.kept_by_budget, axis=0) if budgets \
            else np.ones(len(self._xyz0), bool)
        self.pruned = not self.kept.all()
        pairs = constellation.pairs_within(
            t0, self._xyz0,
            self.reach * (1.0 + _CHORD_MARGIN) + 2.0 * constellation.speed_km_s * span_s,
            self.kept)

        cone_km = mask_slant_km(constellation, params.min_elevation_deg) * (1.0 + _CONE_MARGIN)
        cones = [np.flatnonzero((r <= cone_km + drift) & self.kept) for r in ranges]
        self.cone_ptr = np.cumsum([0] + [len(cone) for cone in cones])
        n_st, n_up = len(self.stations), self.cone_ptr[-1]
        self.link_i = np.empty(n_up + len(pairs), np.int32)
        self.link_j = np.empty_like(self.link_i)
        self.link_i[:n_up] = np.repeat(np.arange(n_st), np.diff(self.cone_ptr))
        for lo, cone in zip(self.cone_ptr, cones):
            self.link_j[lo:lo + len(cone)] = cone + n_st
        for end, column in ((self.link_i, 0), (self.link_j, 1)):
            np.add(pairs[:, column], n_st, out=end[n_up:])

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The candidates measured at t, as (dist_km, is_link): each
        candidate link's length and whether it is a link at t. t must lie in
        the block."""
        if not 0.0 <= t - self.t0 <= self.span_s:
            raise ValueError(f"t = {t} lies outside the block of {self.span_s} s "
                             f"from {self.t0}")
        constants = self.constellation.constants
        sats_xyz = self._xyz0 if t == self.t0 else self.constellation.positions_at(t)
        gs_xyz = np.array([_station_xyz(st, t, constants) for st in self.stations]).reshape(-1, 3)
        # Every node's x, y and z rows; xyz is the (N, 3) view of them.
        cols = np.empty((3, len(gs_xyz) + len(sats_xyz)))
        cols[:, :len(gs_xyz)] = gs_xyz.T
        cols[:, len(gs_xyz):] = sats_xyz.T
        xyz = cols.T
        dist = pair_lengths(cols, self.link_i, self.link_j)
        is_link = dist <= self.reach
        for gs, lo, hi in zip(gs_xyz, self.cone_ptr, self.cone_ptr[1:]):
            is_link[lo:hi] = elevation_angles(gs, xyz[self.link_j[lo:hi]]) \
                >= self.params.min_elevation_deg
        if self.occlude:
            # An uplink is at most half the tangent chord, so never in the band.
            band = np.flatnonzero(dist >= self.tangent * (1.0 - _CHORD_MARGIN))
            band = band[is_link[band]]
            if len(band):
                is_link[band] = segments_clear(xyz[self.link_i[band]], xyz[self.link_j[band]],
                                               constants.earth_radius_km)
        return dist, is_link


def candidate_blocks(
    constellation: Constellation,
    stations: Sequence[GeodeticPoint],
    times: Sequence[float],
    params: TopologyParams,
    budgets: Sequence[tuple[int, int, float]] = (),
) -> Iterator[tuple[LinkCandidates, Sequence[float]]]:
    """Split the ascending times into blocks of consecutive times over which
    no link length can change by more than BLOCK_MARGIN_KM, and yield each
    block's LinkCandidates, pruned to the budgets, with the block's times.

    With times slot_s apart, a block holds K = 1 + floor(BLOCK_MARGIN_KM /
    (2 v slot_s)) of them, the last block possibly fewer. Each set is built
    only when the caller asks for it, so a caller that has let go of one
    never holds two.
    """
    longest = BLOCK_MARGIN_KM / (2.0 * constellation.speed_km_s)
    start = 0
    while start < len(times):
        stop = start + 1
        while stop < len(times) and times[stop] - times[start] <= longest:
            stop += 1
        yield (LinkCandidates(constellation, stations, times[start],
                              times[stop - 1] - times[start], params, budgets),
               times[start:stop])
        start = stop


def build_snapshot(
    constellation: Constellation,
    stations: Sequence[GeodeticPoint],
    t: float,
    params: TopologyParams,
    slot_index: int = 0,
) -> SnapshotGraph:
    """Snapshot of the constellation plus ground stations at time t.

    The links are those of a LinkCandidates block of span 0 at t;
    isolated nodes are legal.
    """
    labels = [s.label for s in stations]
    if len(set(labels)) != len(labels):
        raise ValueError("ground station labels must be unique")
    candidates = LinkCandidates(constellation, stations, t, 0.0, params)
    dist, is_link = candidates.at(t)
    return SnapshotGraph(
        slot_index=slot_index,
        ground_labels=tuple(labels),
        sat_ids=constellation.sat_ids,
        edge_i=candidates.link_i[is_link],
        edge_j=candidates.link_j[is_link],
        edge_dist_km=dist[is_link],
        c_vacuum=constellation.constants.c_vacuum,
    )
