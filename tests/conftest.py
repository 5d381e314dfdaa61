import math
import random
import re
from heapq import heappop, heappush

import numpy as np
import pytest

from leolat import experiment
from leolat.constellation import Constellation, ConstellationConfig
from leolat.geo import CONSTANTS, elevation_angles, geodetic_to_inertial, segments_clear
from leolat.topology import (
    LinkCandidates,
    NodeRef,
    SnapshotGraph,
    TopologyParams,
    plane_link_class,
)

# Distance that makes one edge weigh exactly 1 ms at the vacuum speed of light.
KM_PER_MS = 299.792458

_SAT_ID_RE = re.compile(r"^x1(\d{2})(\d{2})$")


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores on any host, so that two workers cut two chunks."""
    monkeypatch.setattr(experiment, "usable_cores", lambda: 2)


@pytest.fixture(scope="session")
def default_cfg():
    return ConstellationConfig()


@pytest.fixture(scope="session")
def default_constellation(default_cfg):
    return Constellation(default_cfg)


@pytest.fixture(scope="session")
def small_constellation():
    # 4 planes x 6 sats: small enough for all-pairs oracles.
    return Constellation(ConstellationConfig(num_planes=4, sats_per_plane=6))


@pytest.fixture
def default_params():
    return TopologyParams()


def snapshot_from_edges(edges, nodes=(), c_vacuum: float = CONSTANTS.c_vacuum) -> SnapshotGraph:
    """SnapshotGraph from explicit (a, b, distance_km) triples of NodeRefs.

    For small synthetic graphs: the node set is the union of the endpoints
    and the optional extra nodes; self-loops, duplicate edges and
    non-positive distances are rejected.
    """
    edges = list(edges)
    # Stations before satellites, each sorted by label.
    ordered = sorted(set(nodes) | {n for a, b, _ in edges for n in (a, b)},
                     key=lambda n: (not n.is_ground, n.label))
    index = {n: k for k, n in enumerate(ordered)}
    seen = set()
    ei, ej, dist = [], [], []
    for a, b, d in edges:
        if a == b:
            raise ValueError(f"self-loop on {a.label!r}")
        if d <= 0:
            raise ValueError("edge distance must be > 0")
        i, j = sorted((index[a], index[b]))
        if (i, j) in seen:
            raise ValueError(f"duplicate edge {a.label!r}-{b.label!r}")
        seen.add((i, j))
        ei.append(i)
        ej.append(j)
        dist.append(d)
    ei, ej = np.array(ei, dtype=np.int32), np.array(ej, dtype=np.int32)
    order = np.lexsort((ej, ei))
    return SnapshotGraph(
        slot_index=0,
        ground_labels=tuple(n.label for n in ordered if n.is_ground),
        sat_ids=tuple(n.label for n in ordered if not n.is_ground),
        edge_i=ei[order],
        edge_j=ej[order],
        edge_dist_km=np.array(dist, dtype=float)[order],
        c_vacuum=c_vacuum,
    )


def links_at(candidates: LinkCandidates, t: float):
    """The links among the candidates at t, as (edge_i, edge_j, dist_km)
    arrays, each link once with edge_i < edge_j in graph numbering: each
    station's uplinks, station by station, then the laser links."""
    dist, is_link = candidates.at(t)
    return candidates.link_i[is_link], candidates.link_j[is_link], dist[is_link]


def parse_sat_id(sat_id: str) -> tuple[int, int]:
    """Inverse of constellation.format_sat_id; rejects malformed strings."""
    m = _SAT_ID_RE.match(sat_id)
    if not m:
        raise ValueError(f"malformed satellite ID {sat_id!r}")
    plane, slot = int(m.group(1)), int(m.group(2))
    if plane == 0 or slot == 0:
        raise ValueError(f"satellite ID {sat_id!r} has out-of-range plane/slot")
    return plane, slot


def neighbor_census(graph: SnapshotGraph, cfg: ConstellationConfig) -> np.ndarray:
    """(n_sats, 4) link counts per satellite of the graph, in columns
    intra-plane, adjacent-plane, crossing-plane and ground; each row sums to
    the satellite's degree."""
    n_stations, edge_i, edge_j = graph.n_ground, graph.edge_i, graph.edge_j
    laser = edge_i >= n_stations
    sat_i, sat_j = edge_i[laser] - n_stations, edge_j[laser] - n_stations
    counts = np.zeros((cfg.total_sats, 4), dtype=np.int64)
    cls = plane_link_class(sat_i // cfg.sats_per_plane, sat_j // cfg.sats_per_plane,
                           cfg.num_planes)
    np.add.at(counts, (sat_i, cls), 1)
    np.add.at(counts, (sat_j, cls), 1)
    counts[:, 3] = np.bincount(edge_j[~laser] - n_stations, minlength=cfg.total_sats)
    return counts


def node_refs(graph: SnapshotGraph) -> list[NodeRef]:
    return [graph.node_ref(i) for i in range(graph.n_nodes)]


def adjacency(graph: SnapshotGraph) -> list[list[tuple[int, float]]]:
    """Per-node list of (neighbor index, latency_s), both directions."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(graph.n_nodes)]
    lat = (graph.edge_dist_km * (1000.0 / graph.c_vacuum)).tolist()
    for i, j, w in zip(graph.edge_i.tolist(), graph.edge_j.tolist(), lat):
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def edge_set(graph: SnapshotGraph) -> set[tuple[str, str]]:
    """The graph's edges as (label_a, label_b) pairs, one per edge."""
    return {(graph.node_ref(i).label, graph.node_ref(j).label)
            for i, j in zip(graph.edge_i.tolist(), graph.edge_j.tolist())}


def enumerate_paths_oracle(
    graph: SnapshotGraph, src: NodeRef, dst: NodeRef, max_nodes: int = 12
) -> float | None:
    """Exact minimum latency by exhaustive DFS over simple paths.

    Refuses graphs larger than max_nodes (capped at 12) because the path
    count grows factorially.
    """
    if max_nodes > 12:
        raise ValueError("max_nodes is capped at 12")
    if graph.n_nodes > max_nodes:
        raise ValueError(f"graph has {graph.n_nodes} nodes, oracle cap is {max_nodes}")
    if src == dst:
        raise ValueError("src and dst must differ")
    i_src = graph.index_of(src)
    i_dst = graph.index_of(dst)
    adj = adjacency(graph)

    best: float | None = None
    on_path = bytearray(graph.n_nodes)

    def dfs(u: int, acc: float) -> None:
        nonlocal best
        if u == i_dst:
            if best is None or acc < best:
                best = acc
            return
        on_path[u] = 1
        for v, w in adj[u]:
            if not on_path[v]:
                dfs(v, acc + w)
        on_path[u] = 0

    dfs(i_src, 0.0)
    return best


def random_snapshot(rng: random.Random, max_nodes: int = 10, max_edges: int = 20) -> SnapshotGraph:
    """Random connected-or-not weighted graph for routing cross-checks."""
    n = rng.randint(2, max_nodes)
    nodes = [NodeRef.ground(f"n{k:02d}") for k in range(n)]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(possible)
    n_edges = rng.randint(1, min(max_edges, len(possible)))
    edges = [
        (nodes[i], nodes[j], rng.uniform(0.1, 2000.0))
        for i, j in possible[:n_edges]
    ]
    return snapshot_from_edges(edges, nodes=nodes)


def heap_route(graph: SnapshotGraph, src: NodeRef, dst: NodeRef) -> tuple[list[str], float] | None:
    """Reference router: pure-Python heap Dijkstra from dst, then a forward
    walk taking the smallest eligible next-hop index.

    Returns the route's node labels and its fsum latency in s, or None.
    This is the router leolat shipped before routing moved onto scipy's
    Dijkstra; the tests hold the fast kernel to its node sequences.
    """
    i_src, i_dst = graph.index_of(src), graph.index_of(dst)
    adj = adjacency(graph)
    dist = [math.inf] * graph.n_nodes
    done = bytearray(graph.n_nodes)
    dist[i_dst] = 0.0
    heap = [(0.0, i_dst)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        if u == i_src:
            break
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heappush(heap, (d + w, v))
    if not done[i_src]:
        return None
    path, hops = [i_src], []
    u = i_src
    while u != i_dst:
        v, w = min((v, w) for v, w in adj[u] if dist[u] == w + dist[v])
        path.append(v)
        hops.append(w)
        u = v
    return [graph.node_ref(i).label for i in path], math.fsum(hops)


def brute_force_edge_set(constellation, stations, t, params) -> set[tuple[str, str]]:
    """All-pairs O(n^2) oracle for the pruned snapshot builder, in the
    form of edge_set().

    A pair's length is np.linalg.norm over a row of coordinate differences,
    the length pair_lengths matches bit for bit. The norm of a 1-D vector
    is a dot product instead, which can round a length at the range the
    other way.
    """
    sats = constellation.positions_at(t)
    ids = constellation.sat_ids
    edges = set()
    for i in range(len(ids)):
        lengths = np.linalg.norm(sats[i] - sats[i + 1:], axis=1)
        for j in np.flatnonzero(lengths <= params.lisl_range_km) + i + 1:
            if not params.occlusion_check or segments_clear(sats[i:i + 1], sats[j:j + 1])[0]:
                edges.add(tuple(sorted((ids[i], ids[j]))))
    for st in stations:
        elev = elevation_angles(geodetic_to_inertial(st, t), sats)
        edges.update((st.label, ids[k]) for k in np.flatnonzero(elev >= params.min_elevation_deg))
    return edges
