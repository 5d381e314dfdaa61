"""Minimum-latency pathfinding over snapshot graphs.

Dijkstra over positive weights, made fully deterministic: among
equal-latency shortest paths the route with the lexicographically
smallest node sequence (ground stations before satellites, then by
label) is returned. Distances are computed from the destination with
scipy's C Dijkstra, and the route is rebuilt forward from the source,
greedily taking the smallest eligible next hop at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from .topology import NodeRef, SnapshotGraph


@dataclass(frozen=True)
class Route:
    """An executed path: node sequence plus per-hop and total latency."""

    nodes: tuple[NodeRef, ...]
    hop_latencies_s: tuple[float, ...]
    total_latency_s: float

    @property
    def hop_count(self) -> int:
        return len(self.hop_latencies_s)

    @property
    def satellite_count(self) -> int:
        return sum(1 for n in self.nodes if not n.is_ground)

    def labels(self) -> list[str]:
        return [n.label for n in self.nodes]


def link_latencies(
    dist_km: np.ndarray, c_vacuum: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Propagation latency in s of links of the given lengths in km,
    written into out when it is given."""
    return np.multiply(dist_km, 1000.0 / c_vacuum, out=out)


def csr_layout(
    n_nodes: int, edge_i: np.ndarray, edge_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge_of, indptr, indices), all int32, of a CSR matrix holding each
    edge edge_i[k] - edge_j[k] in both directions: entry m of the matrix is
    a direction of edge edge_of[m].

    The arcs are each edge i -> j, then each edge j -> i, grouped by tail
    with a stable sort, so within a row they keep that order. The tails are
    sorted as the narrowest unsigned type that holds every node number: for
    up to 65,536 nodes that is 16 bits, which numpy sorts stably by radix
    sort.
    """
    tails = np.concatenate([edge_i, edge_j])
    order = np.argsort(tails.astype(np.min_scalar_type(n_nodes)), kind="stable")
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n_nodes), out=indptr[1:])
    indices = np.concatenate([edge_j, edge_i])[order].astype(np.int32, copy=False)
    return np.remainder(order, len(edge_i), out=order).astype(np.int32), indptr, indices


def distances_from(graph: csr_matrix, sources) -> np.ndarray:
    """Shortest-path latencies from each source along the graph's edges.

    Where every link the search can reach is stored in both directions,
    these are also the latencies towards the source.
    """
    # Imported here: csgraph pulls in scipy.sparse.linalg, which costs tens
    # of ms at start-up for commands that never route.
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(graph, directed=True, indices=sources)


def trace_route(
    graph: csr_matrix,
    dist: np.ndarray,
    src: int,
    dst: int,
    node_ref: Callable[[int], NodeRef],
    into_dst: np.ndarray | None = None,
) -> Route | None:
    """Forward walk from src to dst over the distances to dst.

    dist[v] is the latency from v to dst; src's own entry is not read, so
    src may be a node the search could not reach. into_dst, when given,
    holds the latency of links v -> dst that the graph stores only as
    dst -> v (inf where there is none). node_ref names each node of the
    route. Returns None when dst is unreachable.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.data
    path = [src]
    hops: list[float] = []
    u = src
    lo, hi = indptr[u], indptr[u + 1]
    du = (weights[lo:hi] + dist[indices[lo:hi]]).min() if hi > lo else math.inf
    if du == math.inf:
        return None

    # Every finite distance was set by a relaxation dist[u] = w(u,v) +
    # dist[v], so an eligible neighbor always exists and distances strictly
    # decrease (weights are positive) until dst. Taking the smallest
    # eligible node index at each step yields the lexicographically
    # smallest equal-latency node sequence.
    while u != dst:
        lo, hi = indptr[u], indptr[u + 1]
        nbrs = indices[lo:hi]
        w = weights[lo:hi]
        ok = np.flatnonzero(w + dist[nbrs] == du)
        v = None
        if len(ok):
            k = ok[np.argmin(nbrs[ok])]
            v, hop = int(nbrs[k]), float(w[k])
        if into_dst is not None and into_dst[u] == du and (v is None or dst < v):
            v, hop = dst, float(into_dst[u])
        if v is None:  # pragma: no cover - excluded by the invariant above
            raise RuntimeError("route reconstruction lost the shortest-path trail")
        path.append(v)
        hops.append(hop)
        u = v
        du = dist[u]
    return Route(
        nodes=tuple(node_ref(idx) for idx in path),
        hop_latencies_s=tuple(hops),
        total_latency_s=math.fsum(hops),
    )


def shortest_path(graph: SnapshotGraph, src: NodeRef, dst: NodeRef) -> Route | None:
    """Latency-minimal route from src to dst, or None when unreachable.

    Raises ValueError for src == dst; KeyError for nodes not in the graph.
    Unreachability is a result, not an error. Any node may relay,
    ground stations included.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    i_src = graph.index_of(src)
    i_dst = graph.index_of(dst)

    n = graph.n_nodes
    edge_of, indptr, indices = csr_layout(n, graph.edge_i, graph.edge_j)
    lat = link_latencies(graph.edge_dist_km, graph.c_vacuum)
    csr = csr_matrix((lat[edge_of], indices, indptr), shape=(n, n))
    return trace_route(csr, distances_from(csr, i_dst), i_src, i_dst, graph.node_ref)

