"""Per-time-slot links: laser ISLs plus ground up/down links.

slot_links finds every link available at one instant. Satellite pairs are
linked iff their Euclidean separation is within the configured laser link
range (optionally also requiring a clear line of sight past the Earth); a
station links to a satellite iff the satellite is above the station's
elevation mask. The slot engine routes every CLI command on these arrays.

The line-of-sight test rests on the shell being one sphere of radius r:
the chord between two of its satellites clears the Earth exactly when it
is shorter than the tangent chord 2 * sqrt(r^2 - R_E^2), about 5,410 km at
550 km. So ranges up to the tangent chord never lose a pair to the Earth;
with the occlusion check on, longer pairs are never linked, and only
pairs within a relative 1e-9 of the tangent chord go through the exact
segment test.

build_snapshot turns the same links into a SnapshotGraph: an undirected
graph over the stations and satellites of one slot, weighted by latency at
the vacuum speed of light. It is the reference graph that the benchmark's
output check and the tests route on with routing.shortest_path.

Node ordering is total and deterministic: ground stations first (by
label), then satellites (by ID). Everything downstream that breaks ties
does so in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .constellation import Constellation, ConstellationConfig, orbit_radius_km
from .geo import (
    CONSTANTS,
    GeodeticPoint,
    check_fields,
    elevation_angles,
    geodetic_to_inertial,
    segments_clear,
)

# Relative width of the band around the tangent chord whose pairs get the
# exact line-of-sight test.
_CHORD_MARGIN = 1e-9


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

    def __lt__(self, other: "NodeRef") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return self.label


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


class SnapshotGraph:
    """Immutable weighted graph of one time slot.

    Nodes are indexed 0..n-1 in NodeRef order; each undirected edge is
    stored once with edge_i < edge_j.
    """

    def __init__(
        self,
        slot_index: int,
        time_s: float,
        ground_labels: tuple[str, ...],
        sat_ids: tuple[str, ...],
        edge_i: np.ndarray,
        edge_j: np.ndarray,
        edge_dist_km: np.ndarray,
        c_vacuum: float = CONSTANTS.c_vacuum,
        sat_index: dict[str, int] | None = None,
    ):
        self.slot_index = slot_index
        self.time_s = time_s
        self.ground_labels = ground_labels
        self.sat_ids = sat_ids
        self.edge_i = edge_i
        self.edge_j = edge_j
        self.edge_dist_km = edge_dist_km
        self.c_vacuum = c_vacuum
        self._sat_index = sat_index

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
        if node.is_ground:
            try:
                return self.ground_labels.index(node.label)
            except ValueError:
                raise KeyError(f"node {node.label!r} not in snapshot") from None
        if self._sat_index is None:
            self._sat_index = {sid: k for k, sid in enumerate(self.sat_ids)}
        try:
            return self.n_ground + self._sat_index[node.label]
        except KeyError:
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

    @property
    def n_uplinks(self) -> int:
        return sum(len(visible) for visible, _ in self.uplinks)

    def arcs(self, n_stations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tail, head, dist_km) arrays of the directed links, numbering the
        stations first and the satellites after them: the n_uplinks station
        links first (station to satellite only), then each laser link i -> j,
        then each laser link j -> i."""
        visible = [v for v, _ in self.uplinks]
        i = self.isl_i + n_stations
        j = self.isl_j + n_stations
        return (np.concatenate([np.full(len(v), s, dtype=np.int32) for s, v in enumerate(visible)]
                               + [i, j]),
                np.concatenate([v + n_stations for v in visible] + [j, i]),
                np.concatenate([d for _, d in self.uplinks] + [self.isl_dist_km] * 2))

    def edges(self, n_stations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, dist_km) arrays, each link once with i < j: the arcs up to
        the first laser link's reverse direction."""
        n = self.n_uplinks + len(self.isl_i)
        return tuple(a[:n] for a in self.arcs(n_stations))


def pair_lengths(cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distance between points i[k] and j[k] of a (3, N) array of x, y and z
    rows. Gathers from three 1-D rows run faster than one (N, 3) row
    gather, and the sum x + y + z is np.linalg.norm's, so the result is
    bit-identical to np.linalg.norm(xyz[i] - xyz[j], axis=1)."""
    x, y, z = cols
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    dz = z[i] - z[j]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def slot_links(
    constellation: Constellation,
    stations: list[GeodeticPoint],
    t: float,
    params: TopologyParams,
) -> SlotLinks:
    """Laser pairs within range and station-satellite links above the mask at t.

    Satellite pairs within laser range are found with a KD-tree and
    optionally filtered by Earth occlusion, by chord length (see the module
    docstring); each station links to every satellite at or above its
    elevation mask.
    """
    constants = constellation.constants
    sats_xyz = constellation.positions_at(t)

    # Every satellite lies on one shell of radius r, and a chord of that
    # shell clears the Earth exactly when it is shorter than the tangent
    # chord 2 * sqrt(r^2 - R_E^2), about 5,410.47 km at 550 km. Up to that
    # range nothing can be occluded. Past it, with the occlusion check on,
    # the KD-tree searches only up to the tangent chord plus a relative
    # margin, and only pairs within that margin of it get the exact segment
    # test. A length is off by ~1e-12 km against a ~5e-6 km margin, so no
    # pair outside the band can fall on the wrong side.
    shell_r = orbit_radius_km(constellation.cfg, constants)
    tangent = 2.0 * math.sqrt(max(0.0, shell_r**2 - constants.earth_radius_km**2))
    occlude = params.occlusion_check and params.lisl_range_km > tangent
    reach = params.lisl_range_km
    if occlude:
        reach = min(reach, tangent * (1.0 + _CHORD_MARGIN))
    pairs = cKDTree(sats_xyz).query_pairs(r=reach, output_type="ndarray")
    # Gathers index fastest with the platform's own integer, so the pairs
    # narrow to int32 only once the lengths are taken.
    isl_dist = pair_lengths(sats_xyz.T.copy(), pairs[:, 0], pairs[:, 1])
    if occlude:
        band = np.flatnonzero(isl_dist >= tangent * (1.0 - _CHORD_MARGIN))
        if len(band):
            keep = np.ones(len(pairs), dtype=bool)
            keep[band] = segments_clear(sats_xyz[pairs[band, 0]], sats_xyz[pairs[band, 1]],
                                        constants.earth_radius_km)
            pairs, isl_dist = pairs[keep], isl_dist[keep]
    pairs = pairs.astype(np.int32)

    uplinks = []
    for station in stations:
        gs_xyz = geodetic_to_inertial(
            station, t, constants.earth_radius_km, constants.earth_rotation_rate
        )
        elev = elevation_angles(gs_xyz, sats_xyz)
        visible = np.flatnonzero(elev >= params.min_elevation_deg).astype(np.int32)
        uplinks.append((visible, np.linalg.norm(sats_xyz[visible] - gs_xyz, axis=1)))
    return SlotLinks(pairs[:, 0], pairs[:, 1], isl_dist, tuple(uplinks))


def build_snapshot(
    constellation: Constellation,
    stations: list[GeodeticPoint],
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
        sat_index=constellation.sat_index,
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
