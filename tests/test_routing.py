import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from conftest import (
    KM_PER_MS,
    adjacency,
    deadline,
    edge_set,
    enumerate_paths_oracle,
    heap_route,
    node_refs,
    random_snapshot,
    snapshot_from_edges,
)
import leolat
from leolat.experiment import builtin_scenarios, chord_bound_ms
from leolat.routing import csr_layout, find_routes, shortest_path
from leolat.topology import NodeRef, TopologyParams, build_snapshot


def ground(*labels):
    return [NodeRef.ground(l) for l in labels]


class TestShortestPath:
    def test_line_graph(self):
        a, b, c = ground("a", "b", "c")
        g = snapshot_from_edges([(a, b, KM_PER_MS), (b, c, 2 * KM_PER_MS)])
        route = shortest_path(g, a, c)
        assert route.labels() == ["a", "b", "c"]
        assert route.total_latency_s * 1000.0 == pytest.approx(3.0, rel=1e-12)

    def test_equal_cost_tie_breaks_lexicographically(self):
        a, b, c, d = ground("a", "b", "c", "d")
        g = snapshot_from_edges(
            [(a, b, KM_PER_MS), (b, c, KM_PER_MS), (c, d, KM_PER_MS), (d, a, KM_PER_MS)]
        )
        route = shortest_path(g, a, c)
        assert route.labels() == ["a", "b", "c"]

    def test_ground_orders_before_satellites_in_ties(self):
        # Same square, but one branch goes through a satellite node; the
        # ground branch must win the tie.
        a, c = ground("a", "c")
        zsat = NodeRef.satellite("x10101")
        b = NodeRef.ground("zz")  # label sorts after the satellite's
        g = snapshot_from_edges(
            [(a, zsat, KM_PER_MS), (zsat, c, KM_PER_MS), (a, b, KM_PER_MS), (b, c, KM_PER_MS)]
        )
        assert shortest_path(g, a, c).labels() == ["a", "zz", "c"]

    def test_unreachable_is_a_result(self):
        a, b, c, d = ground("a", "b", "c", "d")
        g = snapshot_from_edges([(a, b, 10.0), (c, d, 10.0)])
        assert shortest_path(g, a, c) is None

    def test_same_endpoints_rejected(self):
        a, b = ground("a", "b")
        g = snapshot_from_edges([(a, b, 10.0)])
        with pytest.raises(ValueError):
            shortest_path(g, a, a)

    def test_missing_node_rejected(self):
        a, b = ground("a", "b")
        g = snapshot_from_edges([(a, b, 10.0)])
        with pytest.raises(KeyError):
            shortest_path(g, a, NodeRef.ground("nope"))

    def test_matches_enumeration_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        hits = 0
        for _ in range(250):
            g = random_snapshot(rng)
            nodes = node_refs(g)
            src, dst = rng.sample(nodes, 2)
            best = enumerate_paths_oracle(g, src, dst)
            route = shortest_path(g, src, dst)
            if best is None:
                assert route is None
                continue
            hits += 1
            assert route.total_latency_s == pytest.approx(best, rel=1e-12, abs=1e-15)
        assert hits > 100  # the generator must exercise reachable pairs

    def test_never_beaten_by_random_walks(self):
        rng = random.Random(77)
        for _ in range(50):
            g = random_snapshot(rng)
            adj = adjacency(g)
            nodes = node_refs(g)
            src, dst = rng.sample(nodes, 2)
            route = shortest_path(g, src, dst)
            if route is None:
                continue
            for _ in range(20):
                u = g.index_of(src)
                cost = 0.0
                for _ in range(30):
                    if not adj[u]:
                        break
                    v, w = rng.choice(adj[u])
                    cost += w
                    u = v
                    if u == g.index_of(dst):
                        assert route.total_latency_s <= cost + 1e-15
                        break


@st.composite
def tie_heavy_graphs(draw):
    """Small graphs with integer link lengths, so that many routes tie.

    With c_vacuum = 1000 m/s a 1 km link weighs exactly 1 s and ties are
    exact; with thirds of a second, or the real c_vacuum, equal-length
    routes may differ in the last bit, which the kernel must resolve
    exactly as the reference does.
    """
    n = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    nodes = [NodeRef.ground(f"g{k}") if is_ground else NodeRef.satellite(f"x1{k + 1:02d}01")
             for k, is_ground in enumerate(kinds)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    lengths = draw(st.lists(st.integers(1, 4), min_size=len(chosen), max_size=len(chosen)))
    c_vacuum = draw(st.sampled_from([1000.0, 3000.0, 299_792_458.0]))
    graph = snapshot_from_edges(
        [(nodes[i], nodes[j], float(d)) for (i, j), d in zip(chosen, lengths)],
        nodes=nodes, c_vacuum=c_vacuum,
    )
    src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    return graph, src, dst


@settings(max_examples=400, deadline=None)
@given(tie_heavy_graphs())
def test_kernel_matches_heap_reference_on_tie_heavy_graphs(case):
    graph, src, dst = case
    route = shortest_path(graph, src, dst)
    reference = heap_route(graph, src, dst)
    if reference is None:
        assert route is None
    else:
        assert route is not None
        assert (route.labels(), route.total_latency_s) == reference



def naive_csr_layout(n_nodes, edge_i, edge_j, one_way):
    """csr_layout by list sorting: arcs i -> j of every edge, then j -> i of
    the edges from one_way on, sorted stably by tail."""
    arcs = [(i, j, k) for k, (i, j) in enumerate(zip(edge_i, edge_j))]
    arcs += [(j, i, k) for k, (i, j) in enumerate(zip(edge_i, edge_j)) if k >= one_way]
    arcs.sort(key=lambda arc: arc[0])
    counts = [0] * (n_nodes + 1)
    for tail, _, _ in arcs:
        counts[tail + 1] += 1
    return [[k for _, _, k in arcs], np.cumsum(counts).tolist(), [head for _, head, _ in arcs]]


class TestCsrLayout:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_naive_build(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 5, 12, 300])
        m = rng.randint(0, 40)
        edge_i, edge_j = [], []
        for _ in range(m):
            i, j = sorted(rng.sample(range(n), 2))
            edge_i.append(i)
            edge_j.append(j)
        for one_way in sorted({0, m, rng.randint(0, m)}):
            got = csr_layout(n, np.array(edge_i, np.int32), np.array(edge_j, np.int32), one_way)
            assert [a.dtype for a in got] == [np.int32] * 3
            assert [a.tolist() for a in got] \
                == naive_csr_layout(n, edge_i, edge_j, one_way), one_way

    @pytest.mark.parametrize("one_way", [0, None])
    def test_empty_edge_list(self, one_way):
        none = np.zeros(0, np.int32)
        edge_of, indptr, indices = csr_layout(4, none, none, *([] if one_way is None else [0]))
        assert edge_of.tolist() == indices.tolist() == []
        assert indptr.tolist() == [0] * 5


class TestOracle:
    def test_single_edge(self):
        a, b = ground("a", "b")
        g = snapshot_from_edges([(a, b, KM_PER_MS)])
        assert enumerate_paths_oracle(g, a, b) == pytest.approx(0.001, rel=1e-12)

    def test_disconnected_pair(self):
        a, b, c, d = ground("a", "b", "c", "d")
        g = snapshot_from_edges([(a, b, 10.0), (c, d, 10.0)])
        assert enumerate_paths_oracle(g, a, c) is None

    def test_size_cap_enforced(self):
        nodes = ground(*[f"n{i}" for i in range(13)])
        edges = [(nodes[i], nodes[i + 1], 10.0) for i in range(12)]
        g = snapshot_from_edges(edges)
        with pytest.raises(ValueError):
            enumerate_paths_oracle(g, nodes[0], nodes[12])
        with pytest.raises(ValueError):
            enumerate_paths_oracle(g, nodes[0], nodes[1], max_nodes=13)


def test_walk_steps_past_a_link_below_half_an_ulp():
    # a and b are a rounding error apart: dist[a] == dist[b], so each is a
    # tight neighbour of the other, and both number below c, the true next
    # hop. A walk that took the smallest tight neighbour ran a, b, a, ...
    km = 1e-20
    src, a, b, c, dst = ground("s", "a", "b", "c", "d")
    graph = snapshot_from_edges([(src, a, KM_PER_MS), (src, b, 2 * KM_PER_MS), (a, b, km),
                                 (a, c, KM_PER_MS), (b, c, KM_PER_MS), (c, dst, KM_PER_MS)])
    with deadline(5.0):
        route = shortest_path(graph, src, dst)
        reference = heap_route(graph, src, dst)
    assert route.labels() == reference[0] == ["s", "a", "c", "d"]
    assert route.total_latency_s == reference[1] == pytest.approx(3e-3, rel=1e-12)


def test_walk_takes_the_destination_from_its_own_row():
    # Station rows hold only their uplinks: src 0 -> 2 of weight 1, and dst
    # 1 -> 2 of weight 2 and 1 -> 3 of weight 1; satellites 2 and 3 are
    # linked both ways, weight 1. Satellite 2 is tight both to dst, over a
    # link that only dst's row holds, and to satellite 3, which is strictly
    # closer to dst; dst numbers below it.
    nodes = [*ground("a", "b"), NodeRef.satellite("x10101"), NodeRef.satellite("x10102")]
    indptr, indices = [0, 1, 3, 4, 5], [2, 2, 3, 3, 2]
    graph = csr_matrix((np.array([1.0, 2.0, 1.0, 1.0, 1.0]), indices, indptr), shape=(4, 4))
    (route,) = find_routes(graph, [(0, 1)], nodes.__getitem__)
    assert route.nodes == (nodes[0], nodes[2], nodes[1])
    assert route.total_latency_s == 3.0
    undirected = snapshot_from_edges([(nodes[0], nodes[2], KM_PER_MS),
                                      (nodes[1], nodes[2], 2 * KM_PER_MS),
                                      (nodes[1], nodes[3], KM_PER_MS),
                                      (nodes[2], nodes[3], KM_PER_MS)])
    assert shortest_path(undirected, nodes[0], nodes[1]).nodes == route.nodes


class TestRoutesOnConstellation:
    def test_route_structure_and_chord_bound(self, default_constellation):
        scenario = builtin_scenarios()[0]
        bound_ms = chord_bound_ms(scenario.src, scenario.dst)
        assert bound_ms == pytest.approx(16.62, abs=0.05)
        for t in (0.0, 60.0):
            graph = build_snapshot(
                default_constellation, [scenario.src, scenario.dst], t, TopologyParams()
            )
            route = shortest_path(
                graph, NodeRef.ground(scenario.src.label), NodeRef.ground(scenario.dst.label)
            )
            assert route is not None
            assert route.nodes[0].is_ground and route.nodes[-1].is_ground
            assert all(not n.is_ground for n in route.nodes[1:-1])
            assert len(set(route.nodes)) == len(route.nodes)
            assert route.total_latency_s * 1000.0 >= bound_ms
            # hops follow graph edges
            edges = edge_set(graph)
            for x, y in zip(route.nodes, route.nodes[1:]):
                assert (x.label, y.label) in edges or (y.label, x.label) in edges


def test_cli_import_leaves_csgraph_unloaded():
    # scipy.sparse.csgraph costs tens of ms to import; commands that never
    # route must not pay for it, so routing imports it only when it runs.
    code = "import sys, leolat.cli; sys.exit('scipy.sparse.csgraph' in sys.modules)"
    src = str(Path(leolat.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "leolat.cli imported scipy.sparse.csgraph"


def test_runs_leave_scipy_spatial_out_and_fork_after_the_kernel_loads(tmp_path):
    # A pool forked before csgraph is loaded would load it in every child.
    # With 2 usable cores, each --workers 2 routing call starts one pool of
    # one process: one for run, one per range for sweep-range.
    code = """if True:
        import sys
        from concurrent.futures import ProcessPoolExecutor
        from leolat import experiment
        from leolat.cli import main

        pools = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers, **initializer):
                pools.append(("scipy.sparse.csgraph" in sys.modules, max_workers))
                super().__init__(max_workers, **initializer)

        experiment.usable_cores = lambda: 2
        experiment.ProcessPoolExecutor = Pool
        for argv in (["run"], ["sweep-range", "--ranges", "1000,6000"]):
            assert main([*argv, "--duration", "4", "--workers", "2", "--out", sys.argv[1]]) == 0
        assert "scipy.spatial" not in sys.modules, "a run loaded scipy.spatial"
        assert pools == [(True, 1)] * 3, pools
    """
    src = str(Path(leolat.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_package_root_loads_no_numpy():
    # The package root holds only __version__; each name is imported from
    # the module that defines it.
    code = ("import sys, leolat; assert leolat.__version__; "
            "sys.exit(' '.join(sorted({'numpy', 'scipy'} & set(sys.modules))) or None)")
    src = str(Path(leolat.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
