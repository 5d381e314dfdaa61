"""Per-time-slot links: laser ISLs plus ground up/down links.

Satellite pairs are linked iff their separation, as pair_lengths computes
it, is within the configured laser link range (optionally also requiring a
clear line of sight past the Earth); a station links to a satellite iff
the satellite is at or above the station's elevation mask.

LinkCandidates holds every link that can exist at some instant of a block
of time [t0, t0 + span]. Satellites move at most v = a * n (about 7.59
km/s at 550 km), so a pair's separation changes by at most 2 * v * span,
and a station-satellite range by at most (v + omega_E * R_E) * span. The
KD-tree pair search therefore runs once per block, with the range widened
by the first bound. On one shell the elevation angle falls monotonically
with slant range, sin el = (r^2 - R^2 - d^2) / (2 R d), so each station
keeps the cone of satellites within the slant range of its mask widened by
the second bound. Each slot of the block then measures only the candidates
and applies the exact predicates: pair_lengths <= reach and elevation >=
mask. slot_links is the one-slot case, a block of span 0 built and
measured at the same instant; the slot engine routes every CLI command on
candidate sets spanning up to BLOCK_MARGIN_KM of motion.

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

Node ordering is total and deterministic: ground stations first (by
label), then satellites (by ID). Everything downstream that breaks ties
does so in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .constellation import (
    Constellation,
    ConstellationConfig,
    orbit_radius_km,
    orbital_speed_km_s,
)
from .geo import (
    CONSTANTS,
    GeodeticPoint,
    check_fields,
    elevation_angles,
    geodetic_to_inertial,
    segments_clear,
)

# Relative width of the band around the tangent chord whose pairs get the
# exact line-of-sight test. The KD-tree searches this much past the reach
# as well, so that no pair it rounds differently from pair_lengths is lost.
_CHORD_MARGIN = 1e-9
# Relative slack on the slant range of the elevation mask: a range is off
# by ~1e-12 relative, so no satellite at or above the mask leaves the cone.
_CONE_MARGIN = 1e-6
# Most that any link length may change over one block of slots sharing a
# LinkCandidates set, km. With 1 s slots a block is 10 slots; slots longer
# than BLOCK_MARGIN_KM / (2 v), about 9.9 s, get a block each and no margin.
BLOCK_MARGIN_KM = 150.0


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

    def sort_key(self) -> tuple[int, str]:
        # Ground stations order before satellites.
        return (0 if self.kind == "ground" else 1, self.label)


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

    Nodes are indexed 0..n-1 in NodeRef order; each undirected edge is
    stored once with edge_i < edge_j.
    """

    slot_index: int
    time_s: float
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


@dataclass(frozen=True)
class SlotLinks:
    """Every link available at one instant, by satellite and station index.

    Laser pairs are (isl_i[k], isl_j[k]) with isl_i < isl_j; uplinks[s]
    holds the satellites station s sees and their slant ranges.
    """

    isl_i: np.ndarray
    isl_j: np.ndarray
    isl_dist_km: np.ndarray
    uplinks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def edges(self, n_stations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, dist_km) arrays, each link once with i < j, numbering the
        stations first and the satellites after them: each station's
        uplinks, station by station, then the laser links."""
        return (np.concatenate([np.full(len(v), s, dtype=np.int32)
                                for s, (v, _) in enumerate(self.uplinks)]
                               + [self.isl_i + n_stations]),
                np.concatenate([v + n_stations for v, _ in self.uplinks]
                               + [self.isl_j + n_stations]),
                np.concatenate([d for _, d in self.uplinks] + [self.isl_dist_km]))


def pair_lengths(cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distance between points i[k] and j[k] of a (3, N) array of x, y and z
    rows. Gathers from three 1-D rows run faster than one (N, 3) row
    gather, and the sum x + y + z is np.linalg.norm's, so the result is
    bit-identical to np.linalg.norm(xyz[i] - xyz[j], axis=1)."""
    # In place: at most three pair-sized arrays are alive at once.
    x, y, z = cols
    dist = x[i]
    dist -= x[j]
    dist *= dist
    for row in (y, z):
        d = row[i]
        d -= row[j]
        d *= d
        dist += d
    return np.sqrt(dist, out=dist)


def _station_xyz(station: GeodeticPoint, t: float, constants) -> np.ndarray:
    return geodetic_to_inertial(station, t, constants.earth_radius_km,
                                constants.earth_rotation_rate)


class LinkCandidates:
    """Every link that can exist at some instant of [t0, t0 + span_s].

    pair_i < pair_j are the candidate laser pairs and cones[s] the candidate
    satellites of station s, in ascending order, all int32 (see the module
    docstring for the bounds that size them). at(t) measures the candidates
    at any t of the block and links_at(t) keeps the links among them.
    """

    def __init__(
        self,
        constellation: Constellation,
        stations: Sequence[GeodeticPoint],
        t0: float,
        span_s: float,
        params: TopologyParams,
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
        shell_r = orbit_radius_km(constellation.cfg, constants)
        speed = orbital_speed_km_s(constellation.cfg, constants)

        # Every satellite lies on one shell of radius r, and a chord of that
        # shell clears the Earth exactly when it is shorter than the tangent
        # chord 2 * sqrt(r^2 - R_E^2), about 5,410.47 km at 550 km. Up to that
        # range nothing can be occluded. Past it, with the occlusion check on,
        # the reach is the tangent chord plus a relative margin, and only
        # pairs within that margin of it get the exact segment test. A length
        # is off by ~1e-12 km against a ~5e-6 km margin, so no pair outside
        # the band can fall on the wrong side.
        self.tangent = 2.0 * math.sqrt(max(0.0, shell_r**2 - earth_r**2))
        self.occlude = params.occlusion_check and params.lisl_range_km > self.tangent
        self.reach = params.lisl_range_km
        if self.occlude:
            self.reach = min(self.reach, self.tangent * (1.0 + _CHORD_MARGIN))

        self._xyz0 = constellation.positions_at(t0)
        pairs = cKDTree(self._xyz0).query_pairs(
            r=self.reach * (1.0 + _CHORD_MARGIN) + 2.0 * speed * span_s, output_type="ndarray")
        self.pair_i = pairs[:, 0].astype(np.int32)
        self.pair_j = pairs[:, 1].astype(np.int32)
        del pairs

        # Slant range of a satellite on the shell seen at the mask angle.
        el = math.radians(params.min_elevation_deg)
        d_max = math.sqrt(shell_r**2 - (earth_r * math.cos(el)) ** 2) - earth_r * math.sin(el)
        cone_km = (d_max * (1.0 + _CONE_MARGIN)
                   + (speed + constants.earth_rotation_rate * earth_r) * span_s)
        self.cones = tuple(
            np.flatnonzero(np.linalg.norm(self._xyz0 - _station_xyz(st, t0, constants), axis=1)
                           <= cone_km).astype(np.int32)
            for st in self.stations)

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
        """The candidates measured at t, as (isl_dist_km, isl_keep, uplinks):
        each candidate pair's length and whether it is a link, and for each
        station (seen, slant_km) over its cone, whether each satellite is at
        or above the mask and its slant range. t must lie in the block."""
        if not 0.0 <= t - self.t0 <= self.span_s:
            raise ValueError(f"t = {t} lies outside the block of {self.span_s} s "
                             f"from {self.t0}")
        constants = self.constellation.constants
        sats_xyz = self._xyz0 if t == self.t0 else self.constellation.positions_at(t)
        isl_dist = pair_lengths(sats_xyz.T.copy(), self.pair_i, self.pair_j)
        keep = isl_dist <= self.reach
        if self.occlude:
            band = np.flatnonzero(isl_dist >= self.tangent * (1.0 - _CHORD_MARGIN))
            band = band[keep[band]]
            if len(band):
                keep[band] = segments_clear(sats_xyz[self.pair_i[band]],
                                            sats_xyz[self.pair_j[band]], constants.earth_radius_km)
        uplinks = []
        for station, cone in zip(self.stations, self.cones):
            gs_xyz = _station_xyz(station, t, constants)
            sats = sats_xyz[cone]
            uplinks.append((elevation_angles(gs_xyz, sats) >= self.params.min_elevation_deg,
                            np.linalg.norm(sats - gs_xyz, axis=1)))
        return isl_dist, keep, tuple(uplinks)

    def links_at(self, t: float) -> SlotLinks:
        """The links among the candidates at t."""
        isl_dist, keep, uplinks = self.at(t)
        return SlotLinks(self.pair_i[keep], self.pair_j[keep], isl_dist[keep],
                         tuple((cone[seen], slant[seen])
                               for cone, (seen, slant) in zip(self.cones, uplinks)))


def candidate_blocks(
    constellation: Constellation,
    stations: Sequence[GeodeticPoint],
    times: Sequence[float],
    params: TopologyParams,
) -> Iterator[tuple[LinkCandidates, Sequence[float]]]:
    """Split the ascending times into blocks of consecutive times over which
    no link length can change by more than BLOCK_MARGIN_KM, and yield each
    block's LinkCandidates with the block's times.

    With times slot_s apart, a block holds K = 1 + floor(BLOCK_MARGIN_KM /
    (2 v slot_s)) of them, the last block possibly fewer. Each set is built
    only when the caller asks for it, so a caller that has let go of one
    never holds two.
    """
    longest = BLOCK_MARGIN_KM / (2.0 * orbital_speed_km_s(constellation.cfg,
                                                          constellation.constants))
    start = 0
    while start < len(times):
        stop = start + 1
        while stop < len(times) and times[stop] - times[start] <= longest:
            stop += 1
        yield (LinkCandidates(constellation, stations, times[start],
                              times[stop - 1] - times[start], params),
               times[start:stop])
        start = stop


def slot_links(
    constellation: Constellation,
    stations: Sequence[GeodeticPoint],
    t: float,
    params: TopologyParams,
) -> SlotLinks:
    """Laser pairs within range and station-satellite links above the mask
    at t: the links of a one-slot LinkCandidates block."""
    return LinkCandidates(constellation, stations, t, 0.0, params).links_at(t)


def build_snapshot(
    constellation: Constellation,
    stations: Sequence[GeodeticPoint],
    t: float,
    params: TopologyParams,
    slot_index: int = 0,
) -> SnapshotGraph:
    """Snapshot of the constellation plus ground stations at time t.

    The links are those of slot_links; isolated nodes are legal.
    """
    labels = [s.label for s in stations]
    if len(set(labels)) != len(labels):
        raise ValueError("ground station labels must be unique")
    ordered = sorted(stations, key=lambda s: s.label)
    edge_i, edge_j, edge_d = slot_links(constellation, ordered, t, params).edges(len(ordered))
    return SnapshotGraph(
        slot_index=slot_index,
        time_s=t,
        ground_labels=tuple(s.label for s in ordered),
        sat_ids=constellation.sat_ids,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_dist_km=edge_d,
        c_vacuum=constellation.constants.c_vacuum,
    )


def neighbor_census(links: SlotLinks, cfg: ConstellationConfig) -> np.ndarray:
    """(n_sats, 4) link counts per satellite, in columns intra-plane,
    adjacent-plane, crossing-plane and ground; each row sums to the
    satellite's degree."""
    counts = np.zeros((cfg.total_sats, 4), dtype=np.int64)
    cls = plane_link_class(links.isl_i // cfg.sats_per_plane, links.isl_j // cfg.sats_per_plane,
                           cfg.num_planes)
    np.add.at(counts, (links.isl_i, cls), 1)
    np.add.at(counts, (links.isl_j, cls), 1)
    for visible, _ in links.uplinks:
        counts[visible, 3] += 1
    return counts
