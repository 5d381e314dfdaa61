import math
import random
from heapq import heappop, heappush

import numpy as np
import pytest

from leolat import (
    Constellation,
    ConstellationConfig,
    NodeRef,
    SnapshotGraph,
    TopologyParams,
    geodetic_to_inertial,
)
from leolat.geo import elevation_angles, segments_clear

# Distance that makes one edge weigh exactly 1 ms at the vacuum speed of light.
KM_PER_MS = 299.792458


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
    return SnapshotGraph.from_edge_list(edges, nodes=nodes)


def heap_route(graph: SnapshotGraph, src: NodeRef, dst: NodeRef) -> tuple[list[str], float] | None:
    """Reference router: pure-Python heap Dijkstra from dst, then a forward
    walk taking the smallest eligible next-hop index.

    Returns the route's node labels and its fsum latency in s, or None.
    This is the router leolat shipped before routing moved onto scipy's
    Dijkstra; the tests hold the fast kernel to its node sequences.
    """
    i_src, i_dst = graph.index_of(src), graph.index_of(dst)
    adj = graph.adjacency()
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
    form of SnapshotGraph.edge_set()."""
    sats = constellation.positions_at(t)
    ids = constellation.sat_ids
    edges = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = float(np.linalg.norm(sats[i] - sats[j]))
            if d <= params.lisl_range_km:
                if not params.occlusion_check or segments_clear(sats[i:i + 1], sats[j:j + 1])[0]:
                    edges.add(tuple(sorted((ids[i], ids[j]))))
    for st in stations:
        elev = elevation_angles(geodetic_to_inertial(st, t), sats)
        edges.update((st.label, ids[k]) for k in np.flatnonzero(elev >= params.min_elevation_deg))
    return edges
