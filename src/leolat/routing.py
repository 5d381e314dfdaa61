"""Minimum-latency pathfinding over snapshot graphs.

Dijkstra over positive weights, made fully deterministic: among
equal-latency shortest paths the route with the lexicographically
smallest node sequence (ground stations before satellites, then by
label) is returned. find_routes computes the distances to every
destination with one call of scipy's C Dijkstra, and trace_route rebuilds
each route forward from its source, greedily taking the smallest eligible
next hop at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .topology import NodeRef, SnapshotGraph


@dataclass(frozen=True)
class Route:
    """An executed path: node sequence plus total latency."""

    nodes: tuple[NodeRef, ...]
    total_latency_s: float

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

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
    n_nodes: int, edge_i: np.ndarray, edge_j: np.ndarray, one_way: int = 0,
    edge_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge_of, indptr, indices), all int32, of a CSR matrix holding each
    edge edge_i[k] - edge_j[k] in both directions, or only as edge_i[k] ->
    edge_j[k] for k < one_way: entry m of the matrix is a direction of edge
    edge_of[m], or of the edge named edge_ids[edge_of[m]] when edge_ids is
    given.

    The arcs are each edge i -> j, then each two-way edge j -> i, grouped by
    tail with a stable sort, so within a row they keep that order. The
    tails are sorted as the narrowest unsigned type that holds every node
    number: for up to 65,536 nodes that is 16 bits, which numpy sorts
    stably by radix sort.
    """
    tails = np.concatenate([edge_i, edge_j[one_way:]], dtype=np.min_scalar_type(n_nodes),
                           casting="unsafe")
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n_nodes), out=indptr[1:])
    order = np.argsort(tails, kind="stable")
    tails = None  # the sort's input goes before its outputs are gathered
    indices = np.concatenate([edge_j, edge_i[one_way:]])[order].astype(np.int32, copy=False)
    order[order >= len(edge_i)] -= len(edge_i) - one_way
    if edge_ids is not None:
        return edge_ids.take(order).astype(np.int32, copy=False), indptr, indices
    return order.astype(np.int32), indptr, indices


def find_routes(graph: csr_matrix, queries: Sequence[tuple[int, int]],
                node_ref: Callable[[int], NodeRef]) -> list[Route | None]:
    """Each (src, dst) query's latency-minimal route between rows of the
    graph, or None: one csgraph Dijkstra call from the distinct
    destinations along the stored edges, which must hold each link both
    ways or as dst's own, then one trace_route walk per query."""
    # Imported here: csgraph pulls in scipy.sparse.linalg, which costs tens
    # of ms at start-up for commands that never route.
    from scipy.sparse.csgraph import dijkstra

    rows = sorted({dst for _, dst in queries})
    dist = dict(zip(rows, dijkstra(graph, directed=True, indices=rows)))
    return [trace_route(graph, dist[dst], src, dst, node_ref) for src, dst in queries]


def trace_route(graph: csr_matrix, dist: np.ndarray, src: int, dst: int,
                node_ref: Callable[[int], NodeRef]) -> Route | None:
    """Forward walk from src to dst over the distances to dst.

    dist[v] is the latency from v to dst; src's own entry is not read, so
    src may be a node the search could not reach. The walk reads dst's own
    row once, for links v -> dst past src that the graph stores only as dst
    -> v, as a station's uplinks. node_ref names each node of the route.
    Returns None when dst is unreachable.

    Every finite distance was set by a relaxation dist[u] = w(u,v) +
    dist[v], so each node but dst has a tight neighbour v, w(u,v) + dist[v]
    == dist[u]. The walk steps to the smallest tight neighbour strictly
    closer to dst, which gives the lexicographically smallest equal-latency
    node sequence. A link shorter than half an ulp of dist[u] (two
    satellites a rounding error apart) leaves dist[v] == dist[u]; only
    when no tight neighbour is closer does the walk take the smallest such
    equal-distance one that is not yet on the path. So the walk never
    turns back, and it raises RuntimeError rather than run on.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.data
    dist_of = dist.item

    def row(u: int):
        lo, hi = indptr[u], indptr[u + 1]
        return zip(indices[lo:hi].tolist(), weights[lo:hi].tolist())

    du = min((w + dist_of(v) for v, w in row(src)), default=math.inf)
    if du == math.inf:
        return None
    into_dst = dict(row(dst))
    path, hops, u = [src], [], src
    while u != dst:
        if len(path) > len(dist):
            raise RuntimeError("route reconstruction ran longer than the graph")
        v = tie = None
        for x, w in row(u):
            dx = dist_of(x)
            if w + dx != du:
                continue
            if dx < du:
                if v is None or x < v:
                    v, hop = x, w
            elif (tie is None or x < tie) and x not in path:
                tie, tie_hop = x, w
        if into_dst.get(u) == du and (v is None or dst < v):
            v, hop = dst, du
        if v is None:
            if tie is None:
                raise RuntimeError("route reconstruction lost the shortest-path trail")
            v, hop = tie, tie_hop
        path.append(v)
        hops.append(hop)
        u, du = v, dist_of(v)
    return Route(nodes=tuple(node_ref(idx) for idx in path), total_latency_s=math.fsum(hops))


def shortest_path(graph: SnapshotGraph, src: NodeRef, dst: NodeRef) -> Route | None:
    """Latency-minimal route from src to dst, or None when unreachable.

    Raises ValueError for src == dst; KeyError for nodes not in the graph.
    Unreachability is a result, not an error. Any node may relay,
    ground stations included.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    query = (graph.index_of(src), graph.index_of(dst))
    n = graph.n_nodes
    edge_of, indptr, indices = csr_layout(n, graph.edge_i, graph.edge_j)
    lat = link_latencies(graph.edge_dist_km, graph.c_vacuum)
    csr = csr_matrix((lat[edge_of], indices, indptr), shape=(n, n))
    return find_routes(csr, [query], graph.node_ref)[0]

