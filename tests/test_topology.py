import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    adjacency,
    brute_force_edge_set,
    edge_set,
    links_at,
    neighbor_census,
    parse_sat_id,
    snapshot_from_edges,
)
from leolat.constellation import Constellation, ConstellationConfig
from leolat.geo import CONSTANTS, GeodeticPoint, elevation_angles, geodetic_to_inertial
from leolat import topology
from leolat.routing import link_latencies, shortest_path
from leolat.topology import (
    BLOCK_MARGIN_KM,
    LinkCandidates,
    NodeRef,
    TopologyParams,
    build_snapshot,
    candidate_blocks,
    pair_lengths,
    plane_link_class,
    route_budget_km,
)

STATIONS = [GeodeticPoint(40.7, -74.0, "NY"), GeodeticPoint(53.3, -6.3, "Dub")]


def link_class(a: str, b: str, num_planes: int) -> int:
    """plane_link_class of the laser link between two satellite IDs."""
    (plane_a, _), (plane_b, _) = parse_sat_id(a), parse_sat_id(b)
    return int(plane_link_class(np.array([plane_a]), np.array([plane_b]), num_planes)[0])


class TestParams:
    def test_defaults(self):
        p = TopologyParams()
        assert p.lisl_range_km == 1500.0 and p.min_elevation_deg == 10.0 and p.occlusion_check

    @pytest.mark.parametrize("kwargs", [{"lisl_range_km": 0}, {"min_elevation_deg": 90.0},
                                        {"min_elevation_deg": -1.0}, {"lisl_range_km": True},
                                        {"lisl_range_km": "6000"}, {"min_elevation_deg": False},
                                        {"occlusion_check": "no"}, {"occlusion_check": None}])
    def test_invalid_rejected(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ValueError, match=key):
            TopologyParams(**kwargs)


class TestClassify:
    def test_intra_plane(self, default_cfg):
        assert link_class("x10101", "x10102", default_cfg.num_planes) == 0

    def test_adjacent_wraps_around(self, default_cfg):
        assert link_class("x10101", "x12454", default_cfg.num_planes) == 1
        assert link_class("x12454", "x10101", default_cfg.num_planes) == 1

    def test_crossing(self, default_cfg):
        assert link_class("x10101", "x11325", default_cfg.num_planes) == 2


def census_at(constellation, stations, t, params):
    return neighbor_census(build_snapshot(constellation, stations, t, params), constellation.cfg)


class TestSnapshot:
    def test_every_satellite_has_four_intra_plane_links(self, default_constellation):
        for t in (0.0, 1700.0, 3599.0):
            census = census_at(default_constellation, STATIONS, t, TopologyParams())
            assert census.shape == (1584, 4)
            assert (census[:, 0] == 4).all()

    def test_short_range_drops_intra_plane_links(self, default_constellation):
        # One-slot chord is ~659 km > 600 km.
        census = census_at(default_constellation, [], 0.0, TopologyParams(lisl_range_km=600))
        assert (census[:, 0] == 0).all()

    def test_link_latency_is_distance_over_c(self):
        (latency_s,) = link_latencies(np.array([1317.1]), CONSTANTS.c_vacuum)
        assert latency_s * 1000.0 == pytest.approx(4.3934, abs=1e-4)
        assert latency_s * CONSTANTS.c_vacuum / 1000.0 == pytest.approx(1317.1, rel=1e-12)

    def test_all_nodes_present_and_ordered(self, default_constellation):
        graph = build_snapshot(default_constellation, STATIONS, 0.0, TopologyParams())
        assert graph.n_nodes == 1586
        assert graph.ground_labels == ("NY", "Dub")
        assert graph.node_ref(0) == NodeRef.ground("NY")
        assert graph.node_ref(2) == NodeRef.satellite("x10101")
        assert graph.index_of(NodeRef.satellite("x12466")) == graph.n_nodes - 1

    def test_symmetric_adjacency(self, small_constellation):
        graph = build_snapshot(small_constellation, STATIONS, 500.0,
                               TopologyParams(lisl_range_km=3000))
        adj = adjacency(graph)
        for u, nbrs in enumerate(adj):
            for v, w in nbrs:
                assert (u, w) in [(x, y) for x, y in adj[v]]

    def test_range_law(self, default_constellation):
        params = TopologyParams(lisl_range_km=1500)
        graph = build_snapshot(default_constellation, STATIONS, 1234.0, params)
        laser = graph.edge_i >= graph.n_ground
        assert laser.any()
        assert (graph.edge_dist_km[laser] <= params.lisl_range_km).all()

    def test_edge_set_monotone_in_range(self, default_constellation):
        t = 250.0
        sets = [
            edge_set(build_snapshot(default_constellation, STATIONS, t,
                                    TopologyParams(lisl_range_km=r)))
            for r in (600.0, 1000.0, 1500.0)
        ]
        assert sets[0] <= sets[1] <= sets[2]

    def test_pruned_builder_matches_all_pairs_scan(self, small_constellation):
        for t, r in ((0.0, 1500.0), (613.7, 3000.0), (2801.1, 4500.0)):
            params = TopologyParams(lisl_range_km=r)
            graph = build_snapshot(small_constellation, STATIONS, t, params)
            assert edge_set(graph) == brute_force_edge_set(
                small_constellation, STATIONS, t, params
            )

    @pytest.mark.parametrize("occlusion_check", [True, False], ids=["occlusion", "no-occlusion"])
    def test_all_pairs_scan_above_the_tangent_chord(self, small_constellation, occlusion_check):
        # A chord of the shell clears the Earth iff it is shorter than the
        # tangent chord; LinkCandidates.at tests only pairs within 1e-9 of it
        # exactly. Check ranges on both sides of it against the all-pairs
        # oracle, at epochs spread over one orbit plus every whole second
        # at which some pair lies within 0.1% of the tangent chord.
        shell = small_constellation
        tangent = 2.0 * math.sqrt(shell.radius_km**2 - shell.constants.earth_radius_km**2)
        period = 2.0 * math.pi / shell.mean_motion_rad_s
        near, beyond = [], 0
        for t in np.arange(0.0, period, 1.0):
            xyz = shell.positions_at(t)
            ratio = np.linalg.norm(xyz[:, None] - xyz[None], axis=2) / tangent
            if (np.abs(ratio - 1.0) <= 1e-3).any():
                near.append(t)
                beyond += np.count_nonzero((ratio > 1.0) & (ratio <= 1.001))
        assert beyond  # some blocked pair lies just past the tangent chord
        epochs = sorted(set(np.linspace(0.0, period, 8, endpoint=False)) | set(near))
        for t in epochs:
            for r in (5000.0, tangent, tangent - 1e-6, tangent + 1e-6, 6000.0, 9000.0):
                params = TopologyParams(lisl_range_km=r, occlusion_check=occlusion_check)
                graph = build_snapshot(shell, STATIONS, t, params)
                assert edge_set(graph) == brute_force_edge_set(shell, STATIONS, t, params), (t, r)

    def test_ground_links_respect_elevation_mask(self, default_constellation):
        t = 42.0
        params = TopologyParams(min_elevation_deg=25.0)
        graph = build_snapshot(default_constellation, STATIONS, t, params)
        wide = build_snapshot(default_constellation, STATIONS, t,
                              TopologyParams(min_elevation_deg=0.0))
        sats = default_constellation.positions_at(t)
        for st in STATIONS:
            k = graph.index_of(NodeRef.ground(st.label))
            linked = graph.edge_j[graph.edge_i == k] - graph.n_ground
            elev = elevation_angles(geodetic_to_inertial(st, t), sats)
            assert sorted(linked) == np.flatnonzero(elev >= params.min_elevation_deg).tolist()
            # raising the mask keeps the visible set smaller or equal
            assert len(linked) <= np.count_nonzero(wide.edge_i == k)

    def test_no_ground_to_ground_edges(self, default_constellation):
        graph = build_snapshot(default_constellation, STATIONS, 10.0, TopologyParams())
        # Each edge is stored once with edge_i < edge_j, so a ground link
        # has its station at edge_i and a satellite at edge_j.
        assert (graph.edge_i < graph.edge_j).all()
        ground = graph.edge_i < graph.n_ground
        assert ground.any()
        assert (graph.edge_j[ground] >= graph.n_ground).all()

    def test_duplicate_station_labels_rejected(self, default_constellation):
        with pytest.raises(ValueError):
            build_snapshot(
                default_constellation,
                [GeodeticPoint(0, 0, "X"), GeodeticPoint(1, 1, "X")],
                0.0,
                TopologyParams(),
            )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(1, 40), n_pairs=st.integers(0, 200),
       radius=st.sampled_from([1.0, 6928.0, 1e7]))
@example(seed=0, n_points=3, n_pairs=0, radius=6928.0)  # no pairs
@example(seed=1, n_points=40, n_pairs=2 * topology._PAIR_CHUNK + 5, radius=6928.0)  # 3 chunks
def test_pair_lengths_match_row_norms(seed, n_points, n_pairs, radius):
    rng = np.random.default_rng(seed)
    xyz = rng.normal(size=(n_points, 3))
    xyz *= radius / np.linalg.norm(xyz, axis=1)[:, None]
    i = rng.integers(0, n_points, n_pairs)
    j = rng.integers(0, n_points, n_pairs)
    want = np.linalg.norm(xyz[i] - xyz[j], axis=1)
    # int32 indices are what the slot engine's candidates hold.
    for dtype in (np.intp, np.int32):
        got = pair_lengths(xyz.T.copy(), i.astype(dtype), j.astype(dtype))
        assert got.shape == want.shape == (n_pairs,)
        assert got.tobytes() == want.tobytes(), dtype


class TestCensus:
    def test_class_counts_sum_to_degree(self, default_constellation):
        graph = build_snapshot(default_constellation, STATIONS, 321.0, TopologyParams())
        census = neighbor_census(graph, default_constellation.cfg)
        degree = np.bincount(np.concatenate([graph.edge_i, graph.edge_j]),
                             minlength=graph.n_nodes)[graph.n_ground:]
        n_ground_links = np.count_nonzero(graph.edge_i < graph.n_ground)
        assert n_ground_links > 0 and census[:, 3].sum() == n_ground_links
        assert (census.sum(axis=1) == degree).all()

    def test_class_counts_match_parsed_ids(self, default_constellation):
        graph = build_snapshot(default_constellation, STATIONS, 77.0, TopologyParams())
        n_st = graph.n_ground
        census = neighbor_census(graph, default_constellation.cfg)
        ids = default_constellation.sat_ids
        expected = np.zeros_like(census)
        for i, j in zip(graph.edge_i.tolist(), graph.edge_j.tolist()):
            if i < n_st:
                expected[j - n_st, 3] += 1
                continue
            cls = link_class(ids[i - n_st], ids[j - n_st], default_constellation.cfg.num_planes)
            expected[i - n_st, cls] += 1
            expected[j - n_st, cls] += 1
        assert expected[:, 3].sum() > 0
        assert (census == expected).all()

    def test_adjacent_plane_neighbors_exist_at_mid_latitudes(self, default_constellation):
        census = census_at(default_constellation, [], 0.0, TopologyParams())
        sats = default_constellation.positions_at(0.0)
        lat_deg = np.degrees(np.arcsin(sats[:, 2] / 6928.0))
        assert (census[np.abs(lat_deg) < 30.0, 1] >= 1).all()

    def test_empty_graph_yields_empty_census(self):
        cfg = ConstellationConfig(num_planes=3, sats_per_plane=4)
        graph = snapshot_from_edges([], nodes=[NodeRef.ground("a")])
        assert (neighbor_census(graph, cfg) == np.zeros((12, 4))).all()


def link_arrays(links, n_stations: int, n_sats: int) -> list[bytes]:
    """Edge arrays (edge_i, edge_j, dist_km) as comparable bytes: which
    entries are laser links, the laser pairs in ascending order with their
    lengths, then the uplinks' stations, satellites and slant ranges in
    order."""
    edge_i, edge_j, dist = links
    laser = edge_i >= n_stations
    key = (edge_i[laser] - n_stations).astype(np.int64) * n_sats + edge_j[laser] - n_stations
    order = np.argsort(key)
    return [laser.tobytes(), key[order].tobytes(), dist[laser][order].tobytes()] + [
        a[~laser].tobytes() for a in links]


def link_labels(links, shell, stations) -> set[tuple[str, str]]:
    """links_at's edge arrays in the form of conftest.edge_set."""
    names = [station.label for station in stations] + list(shell.sat_ids)
    edge_i, edge_j, _ = links
    return {(names[i], names[j]) for i, j in zip(edge_i.tolist(), edge_j.tolist())}


class TestLinkCandidates:
    # The orbital speed of the default 550 km shell on a sparser grid:
    # blocks as long as the default's, cheap enough to check every slot of
    # an orbit.
    ORBIT_SHELL = ConstellationConfig(num_planes=8, sats_per_plane=12, phase_factor=3)

    @pytest.mark.parametrize("occlusion_check", [True, False], ids=["occlusion", "no-occlusion"])
    @pytest.mark.parametrize("lisl_range_km", [1500.0, 6000.0])
    @pytest.mark.parametrize("slot_s", [1, 2, 7, 60])
    def test_blocks_equal_one_slot_links_over_an_orbit(self, slot_s, lisl_range_km,
                                                       occlusion_check):
        shell = Constellation(self.ORBIT_SHELL)
        params = TopologyParams(lisl_range_km=lisl_range_km, occlusion_check=occlusion_check)
        period = 2.0 * math.pi / shell.mean_motion_rad_s
        times = [float(k * slot_s) for k in range(math.ceil(period / slot_s) + 1)]
        k_slots = 1 + math.floor(BLOCK_MARGIN_KM / (2.0 * shell.speed_km_s * slot_s))
        assert k_slots == {1: 10, 2: 5, 7: 2, 60: 1}[slot_s]
        seen = []
        for candidates, block in candidate_blocks(shell, STATIONS, times, params):
            assert len(block) == k_slots or block[-1] == times[-1]
            for t in block:
                graph = build_snapshot(shell, STATIONS, t, params)
                assert link_arrays(links_at(candidates, t), len(STATIONS), len(shell)) \
                    == link_arrays((graph.edge_i, graph.edge_j, graph.edge_dist_km),
                                   len(STATIONS), len(shell)), t
            seen += block
        assert seen == times

    @pytest.mark.parametrize("occlusion_check", [True, False], ids=["occlusion", "no-occlusion"])
    def test_blocks_match_all_pairs_scan(self, small_constellation, occlusion_check):
        times = [float(t) for t in range(0, 120, 1)] + [float(t) for t in range(2000, 2400, 7)]
        for r in (1500.0, 3000.0, 6000.0):
            params = TopologyParams(lisl_range_km=r, occlusion_check=occlusion_check)
            for candidates, block in candidate_blocks(small_constellation, STATIONS, times,
                                                      params):
                for t in block:
                    assert link_labels(links_at(candidates, t), small_constellation, STATIONS) \
                        == brute_force_edge_set(small_constellation, STATIONS, t, params), (t, r)

    @pytest.mark.parametrize("stations", [STATIONS, [GeodeticPoint(51.5, -0.1, "London"),
                                                     GeodeticPoint(53.3, -6.3, "Dub")]],
                             ids=["NY-Dub", "London-Dub"])
    @pytest.mark.parametrize("lisl_range_km", [1500.0, 6000.0])
    def test_budget_keeps_every_route_within_it_over_an_orbit(self, lisl_range_km, stations):
        # Each route is also kept by the block pruned to its own length, the
        # tightest budget that accepts it: a one-satellite route lies on that
        # ellipsoid, and routes after t0 need the motion bound. 3 s slots
        # make blocks of 4 slots spanning 9 s, as 1 s slots do.
        shell = Constellation(self.ORBIT_SHELL)
        params = TopologyParams(lisl_range_km=lisl_range_km)
        src, dst = (NodeRef.ground(st.label) for st in stations)
        km_per_s = shell.constants.c_vacuum / 1000.0
        budget_km = route_budget_km(shell, *stations, params)
        period = 2.0 * math.pi / shell.mean_motion_rad_s
        times = [float(k * 3) for k in range(math.ceil(period / 3) + 1)]
        within = pruned = 0
        for candidates, block in candidate_blocks(shell, stations, times, params,
                                                  [(0, 1, budget_km)]):
            assert candidates.span_s == 9.0 or block[-1] == times[-1]
            pruned += candidates.pruned
            for t in block:
                route = shortest_path(build_snapshot(shell, stations, t, params), src, dst)
                if route is None or route.total_latency_s * km_per_s > budget_km:
                    continue
                within += 1
                sats = [shell.sat_ids.index(n.label) for n in route.nodes if not n.is_ground]
                tight = LinkCandidates(shell, stations, block[0], candidates.span_s, params,
                                       [(0, 1, route.total_latency_s * km_per_s)])
                assert candidates.kept[sats].all() and tight.kept[sats].all(), t
        assert pruned > 0 and within > 0

    def test_budget_keeping_the_whole_shell_changes_nothing(self, default_constellation):
        params = TopologyParams(lisl_range_km=6000.0)
        full = LinkCandidates(default_constellation, STATIONS, 50.0, 9.0, params)
        whole = LinkCandidates(default_constellation, STATIONS, 50.0, 9.0, params,
                               [(0, 1, 1e6)])
        assert not full.pruned and not whole.pruned and whole.kept.all()
        for name in ("link_i", "link_j", "cone_ptr"):
            a, b = getattr(full, name), getattr(whole, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert a.flags.c_contiguous and b.flags.c_contiguous, name
        assert full.link_i.dtype == np.int32 and full.link_j.dtype == np.int32

    def test_pruned_set_keeps_global_ascending_numbering(self, default_constellation):
        params = TopologyParams(min_elevation_deg=30.0)
        budget_km = route_budget_km(default_constellation, *STATIONS, params)
        full = LinkCandidates(default_constellation, STATIONS, 50.0, 9.0, params)
        cut = LinkCandidates(default_constellation, STATIONS, 50.0, 9.0, params,
                             [(0, 1, budget_km)])
        assert cut.pruned and 0 < cut.kept.sum() < len(default_constellation)
        n_st = len(STATIONS)
        kept = np.concatenate([np.ones(n_st, bool), cut.kept])
        # The candidates among the kept satellites, with their global numbers.
        assert (cut.link_i < cut.link_j).all()
        for c in (full, cut):
            assert c.link_i[:c.cone_ptr[-1]].tolist() \
                == np.repeat(np.arange(n_st), np.diff(c.cone_ptr)).tolist()
        for s in range(n_st):
            cone = full.link_j[full.cone_ptr[s]:full.cone_ptr[s + 1]]
            assert cut.link_j[cut.cone_ptr[s]:cut.cone_ptr[s + 1]].tolist() \
                == cone[kept[cone]].tolist()
        laser_full = slice(full.cone_ptr[-1], None)
        both = kept[full.link_i[laser_full]] & kept[full.link_j[laser_full]]
        laser_cut = slice(cut.cone_ptr[-1], None)
        assert {*zip(cut.link_i[laser_cut].tolist(), cut.link_j[laser_cut].tolist())} \
            == {*zip(full.link_i[laser_full][both].tolist(),
                     full.link_j[laser_full][both].tolist())}

    def test_measuring_outside_the_block_is_refused(self, small_constellation):
        candidates = LinkCandidates(small_constellation, STATIONS, 10.0, 5.0, TopologyParams())
        candidates.at(15.0)
        for t in (9.0, 15.5):
            with pytest.raises(ValueError, match="outside the block"):
                candidates.at(t)


class TestOneInRangePredicate:
    """Links are exactly the pairs with pair_lengths <= reach and the
    satellites with elevation >= mask, however close to the boundary: the
    KD-tree and the station cones only narrow the search."""

    T = 100.0

    def blocks(self, constellation, stations, params):
        # A one-slot set at T, and a block that covers T in its middle.
        return (LinkCandidates(constellation, stations, self.T, 0.0, params),
                LinkCandidates(constellation, stations, self.T - 4.0, 9.0, params))

    def test_laser_pairs_at_the_reach(self, default_constellation):
        xyz = default_constellation.positions_at(self.T)
        n = len(xyz)
        i, j = np.triu_indices(n, 1)
        lengths = pair_lengths(xyz.T.copy(), i, j)
        keys = i.astype(np.int64) * n + j
        for k in np.argsort(np.abs(lengths - 1500.0))[:8]:
            for reach in (lengths[k], np.nextafter(lengths[k], 0.0),
                          np.nextafter(lengths[k], np.inf)):
                params = TopologyParams(lisl_range_km=float(reach))
                expected = keys[lengths <= reach]
                for candidates in self.blocks(default_constellation, [], params):
                    edge_i, edge_j, _ = links_at(candidates, self.T)
                    got = np.sort(edge_i.astype(np.int64) * n + edge_j)
                    assert np.array_equal(got, expected)

    def test_station_links_at_the_mask(self, default_constellation):
        xyz = default_constellation.positions_at(self.T)
        for station in STATIONS:
            gs = geodetic_to_inertial(station, self.T)
            elev = elevation_angles(gs, xyz)
            near = np.flatnonzero((elev > 5.0) & (elev < 60.0))
            assert len(near) >= 4
            for k in near[:4]:
                for mask in (elev[k], np.nextafter(elev[k], 0.0), np.nextafter(elev[k], 90.0)):
                    params = TopologyParams(min_elevation_deg=float(mask))
                    expected = np.flatnonzero(elev >= mask)
                    for candidates in self.blocks(default_constellation, [station], params):
                        edge_i, edge_j, dist = links_at(candidates, self.T)
                        # The uplinks come first, then the laser links.
                        up = np.flatnonzero(edge_i == 0)
                        assert up.tolist() == list(range(len(expected)))
                        visible, slant = edge_j[up] - 1, dist[up]
                        assert visible.tolist() == expected.tolist()
                        assert slant.tobytes() == np.linalg.norm(xyz[expected] - gs,
                                                                 axis=1).tobytes()


class TestFromEdgeList:
    def test_rejects_self_loop(self):
        a = NodeRef.ground("a")
        with pytest.raises(ValueError):
            snapshot_from_edges([(a, a, 10.0)])

    def test_rejects_duplicate_edges(self):
        a, b = NodeRef.ground("a"), NodeRef.ground("b")
        with pytest.raises(ValueError):
            snapshot_from_edges([(a, b, 10.0), (b, a, 12.0)])

    def test_isolated_nodes_are_legal(self):
        a, b, c = (NodeRef.ground(x) for x in "abc")
        graph = snapshot_from_edges([(a, b, 5.0)], nodes=[c])
        assert graph.n_nodes == 3
        assert adjacency(graph)[graph.index_of(c)] == []

