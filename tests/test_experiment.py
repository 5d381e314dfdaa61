import math

import networkx as nx
import pytest

from conftest import heap_route
from leolat import (
    Constellation,
    ConstellationConfig,
    GeodeticPoint,
    NodeRef,
    Scenario,
    TopologyParams,
    build_snapshot,
    builtin_scenarios,
    great_circle_distance,
    oftn_latency,
    run_scenarios,
    shortest_path,
)
from leolat.experiment import EXCHANGE_COORDINATES, chord_bound_ms, compare, summarize


class TestFiberBaseline:
    @pytest.mark.parametrize(
        "distance_km,expected_ms",
        [(5121.30, 25.07), (9514.30, 46.57), (15584.58, 76.29)],
    )
    def test_published_distances(self, distance_km, expected_ms):
        assert oftn_latency(distance_km) == pytest.approx(expected_ms, abs=0.01)

    def test_zero_distance(self):
        assert oftn_latency(0.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            oftn_latency(-1.0)


class TestCompare:
    @pytest.mark.parametrize(
        "owsn,oftn,imp_ms,imp_pct",
        [(20.07, 25.07, 5.00, 19.94), (36.64, 46.57, 9.93, 21.32)],
    )
    def test_published_rows(self, owsn, oftn, imp_ms, imp_pct):
        got_ms, got_pct = compare(owsn, oftn)
        assert got_ms == pytest.approx(imp_ms, abs=0.005)
        assert got_pct == pytest.approx(imp_pct, abs=0.005)

    def test_equal_latencies(self):
        assert compare(33.3, 33.3) == (0.0, 0.0)

    def test_non_positive_baseline_rejected(self):
        with pytest.raises(ValueError):
            compare(10.0, 0.0)


class TestBuiltinScenarios:
    def test_three_pairs(self):
        names = [s.name for s in builtin_scenarios()]
        assert names == ["New York-Dublin", "Sao Paulo-London", "Toronto-Sydney"]

    @pytest.mark.parametrize(
        "idx,expected_km",
        [(0, 5121.30), (1, 9514.30), (2, 15584.58)],
    )
    def test_pinned_coordinates_reproduce_distances(self, idx, expected_km):
        s = builtin_scenarios()[idx]
        assert great_circle_distance(s.src, s.dst) == pytest.approx(expected_km, rel=0.0025)

    def test_identical_labels_rejected(self):
        p = GeodeticPoint(1.0, 2.0, "same")
        with pytest.raises(ValueError):
            Scenario("x", p, GeodeticPoint(3.0, 4.0, "same"))


@pytest.fixture(scope="module")
def short_run(default_cfg):
    scenario = builtin_scenarios()[0]
    results, summary = run_scenarios(
        [scenario], default_cfg, TopologyParams(), duration_s=30, slot_s=1
    )[0]
    return scenario, results, summary


class TestRunScenario:
    def test_slot_count_and_order(self, short_run):
        _, results, summary = short_run
        assert [r.slot_index for r in results] == list(range(1, 31))
        assert summary.slots == 30

    def test_routes_start_and_end_at_the_ground(self, short_run):
        _, results, _ = short_run
        for r in results:
            if r.route is None:
                continue
            assert r.route.nodes[0].label == "New York"
            assert r.route.nodes[-1].label == "Dublin"
            assert all(not n.is_ground for n in r.route.nodes[1:-1])
            assert r.latency_ms == pytest.approx(r.route.total_latency_s * 1000.0, rel=1e-15)

    def test_chord_bound_holds_per_slot(self, short_run):
        scenario, results, _ = short_run
        bound = chord_bound_ms(scenario.src, scenario.dst)
        for r in results:
            if r.latency_ms is not None:
                assert r.latency_ms >= bound

    def test_summary_consistency(self, short_run):
        _, results, summary = short_run
        reachable = [r.latency_ms for r in results if r.latency_ms is not None]
        assert summary.unreachable_slots == 30 - len(reachable)
        if reachable:
            assert summary.owsn_avg_latency_ms == pytest.approx(
                math.fsum(reachable) / len(reachable), rel=1e-12
            )
            assert summary.owsn_min_ms <= summary.owsn_avg_latency_ms <= summary.owsn_max_ms
            assert summary.improvement_ms == pytest.approx(
                summary.oftn_latency_ms - summary.owsn_avg_latency_ms, rel=1e-12
            )
            assert summary.improvement_pct == pytest.approx(
                100.0 * summary.improvement_ms / summary.oftn_latency_ms, rel=1e-12
            )

    def test_latency_continuity_while_path_is_stable(self, short_run):
        # Satellites move ~7.6 km per slot, so an unchanged node sequence
        # shifts total latency by well under 0.1 ms.
        _, results, _ = short_run
        stable_pairs = 0
        for prev, cur in zip(results, results[1:]):
            if prev.route and cur.route and prev.route.labels() == cur.route.labels():
                stable_pairs += 1
                assert abs(cur.latency_ms - prev.latency_ms) < 0.1
        assert stable_pairs > 0

    def test_zero_duration(self, default_cfg):
        results, summary = run_scenarios(
            builtin_scenarios()[:1], default_cfg, TopologyParams(), duration_s=0
        )[0]
        assert results == []
        assert summary.slots == 0
        assert summary.owsn_avg_latency_ms is None
        assert summary.improvement_ms is None

    def test_slot_must_divide_duration(self, default_cfg):
        with pytest.raises(ValueError):
            run_scenarios(builtin_scenarios()[:1], default_cfg, TopologyParams(),
                          duration_s=10, slot_s=3)

    @pytest.mark.parametrize("horizon", [{"duration_s": True}, {"slot_s": True},
                                         {"slot_s": "1"}, {"duration_s": None}],
                             ids=["bool-duration", "bool-slot", "string-slot", "none-duration"])
    def test_non_numbers_rejected(self, default_cfg, horizon):
        # True would otherwise route one slot; "1" fail with a TypeError.
        (name,) = horizon
        with pytest.raises(ValueError, match=name):
            run_scenarios(builtin_scenarios()[:1], default_cfg, TopologyParams(), **horizon)

    def test_fully_unreachable_summary(self):
        # A 2x2 shell leaves hemisphere-sized gaps; stations in opposite
        # gaps never both see a satellite, let alone a connected path.
        cfg = ConstellationConfig(num_planes=2, sats_per_plane=2)
        scenario = Scenario(
            "nowhere", GeodeticPoint(-85.0, 10.0, "S85"), GeodeticPoint(85.0, -170.0, "N85")
        )
        results, summary = run_scenarios(
            [scenario], cfg, TopologyParams(min_elevation_deg=60.0), duration_s=5
        )[0]
        assert summary.unreachable_slots == 5
        assert summary.owsn_avg_latency_ms is None

    def test_worker_pool_merges_identically(self, default_cfg):
        scenario = builtin_scenarios()[0]
        seq, _ = run_scenarios([scenario], default_cfg, TopologyParams(), duration_s=8)[0]
        par, _ = run_scenarios([scenario], default_cfg, TopologyParams(), duration_s=8,
                               workers=2)[0]
        assert [r.slot_index for r in par] == [r.slot_index for r in seq]
        assert [r.latency_ms for r in par] == [r.latency_ms for r in seq]
        assert [r.route.labels() for r in par] == [r.route.labels() for r in seq]


def test_summarize_reproduces_reference_baseline_for_builtin_pairs():
    for scenario, (dist, ms) in zip(
        builtin_scenarios(), [(5121.30, 25.07), (9514.30, 46.57), (15584.58, 76.29)]
    ):
        summary = summarize(scenario, [])
        assert summary.oftn_distance_km == pytest.approx(dist, rel=0.0025)
        assert summary.oftn_latency_ms == pytest.approx(ms, rel=0.0025)


def exchange_pair(a: str, b: str) -> Scenario:
    def point(city):
        lat, lon = EXCHANGE_COORDINATES[city]
        return GeodeticPoint(lat, lon, city)

    return Scenario(f"{a}-{b}", point(a), point(b))


def route_rows(results):
    return [(r.slot_index, r.latency_ms, r.route.labels() if r.route else None) for r in results]


class TestSlotEngine:
    @pytest.mark.parametrize(
        "epoch,params",
        [
            (0.0, TopologyParams(min_elevation_deg=30.0)),
            (1234.5, TopologyParams(min_elevation_deg=10.0)),
            # Past the ~5,410 km occlusion threshold: the Earth cut is live.
            (4321.0, TopologyParams(lisl_range_km=6000.0, min_elevation_deg=30.0)),
        ],
    )
    def test_routes_equal_per_scenario_snapshot_and_heap_reference(self, epoch, params):
        cfg = ConstellationConfig(phase_factor=11, epoch=epoch)
        scenarios = builtin_scenarios() + [exchange_pair("London", "Dublin")]
        runs = run_scenarios(scenarios, cfg, params, duration_s=40, slot_s=20)
        constellation = Constellation(cfg)
        km_per_s = constellation.constants.c_vacuum / 1000.0
        for scenario, (results, _) in zip(scenarios, runs):
            src, dst = NodeRef.ground(scenario.src.label), NodeRef.ground(scenario.dst.label)
            for r in results:
                graph = build_snapshot(constellation, [scenario.src, scenario.dst],
                                       (r.slot_index - 1) * 20.0, params)
                reference = heap_route(graph, src, dst)
                assert r.route is not None and reference is not None
                assert (r.route.labels(), r.route.total_latency_s) == reference
                # networkx as an independent distance oracle
                g = nx.Graph()
                g.add_weighted_edges_from(zip(graph.edge_i.tolist(), graph.edge_j.tolist(),
                                              (graph.edge_dist_km / km_per_s).tolist()))
                expected = nx.dijkstra_path_length(g, graph.index_of(src), graph.index_of(dst))
                assert r.route.total_latency_s == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "params,slot_s,duration_s",
        [
            # 1 s slots share candidates in blocks of 10: with 2 workers the
            # second worker's first block starts at slot 12 (t = 11 s).
            (TopologyParams(min_elevation_deg=30.0), 1, 23),
            # Blocks of 4 slots past the occlusion threshold; the second
            # worker starts at t = 9 s, three slots into a block.
            (TopologyParams(lisl_range_km=6000.0, min_elevation_deg=30.0), 3, 21),
        ],
        ids=["1500km", "6000km"],
    )
    def test_routes_equal_one_slot_reference(self, params, slot_s, duration_s, workers):
        cfg = ConstellationConfig(phase_factor=11, epoch=777.0)
        scenarios = builtin_scenarios() + [exchange_pair("London", "Dublin")]
        runs = run_scenarios(scenarios, cfg, params, duration_s=duration_s, slot_s=slot_s,
                             workers=workers)
        constellation = Constellation(cfg)
        for scenario, (results, _) in zip(scenarios, runs):
            assert len(results) == duration_s // slot_s
            for r in results:
                graph = build_snapshot(constellation, [scenario.src, scenario.dst],
                                       (r.slot_index - 1) * slot_s, params)
                reference = shortest_path(graph, NodeRef.ground(scenario.src.label),
                                          NodeRef.ground(scenario.dst.label))
                # Node sequence, each hop's latency and the total.
                assert r.route == reference, (scenario.name, r.slot_index)

    def test_worker_counts_agree(self, default_cfg):
        scenarios = builtin_scenarios() + [exchange_pair("London", "Dublin")]
        one = run_scenarios(scenarios, default_cfg, TopologyParams(), duration_s=9, workers=1)
        two = run_scenarios(scenarios, default_cfg, TopologyParams(), duration_s=9, workers=2)
        assert [route_rows(r) for r, _ in one] == [route_rows(r) for r, _ in two]
        assert [s for _, s in one] == [s for _, s in two]

    def test_other_scenarios_stations_never_relay(self, default_cfg):
        # No laser links, and West and East are too far apart for one
        # satellite to see both, so West-East is unreachable. Mid sits
        # between them: a station that could relay would link a satellite
        # over West to one over East in every slot.
        params = TopologyParams(lisl_range_km=100.0, min_elevation_deg=30.0)
        a = Scenario("West-East", GeodeticPoint(45.0, -30.0, "West"),
                     GeodeticPoint(45.0, -4.0, "East"))
        b = Scenario("Mid-Far", GeodeticPoint(45.8, -17.0, "Mid"), GeodeticPoint(0.0, 100.0, "Far"))
        alone, _ = run_scenarios([a], default_cfg, params, duration_s=20, slot_s=2)[0]
        (together, _), _ = run_scenarios([a, b], default_cfg, params, duration_s=20, slot_s=2)
        assert route_rows(together) == route_rows(alone)
        assert all(r.route is None for r in together)

    def test_shared_stations_route_as_if_alone(self, default_cfg):
        scenarios = [
            exchange_pair("New York", "Dublin"),
            exchange_pair("New York", "London"),
            exchange_pair("London", "New York"),
            exchange_pair("Dublin", "London"),
            exchange_pair("Toronto", "New York"),
        ]
        params = TopologyParams(min_elevation_deg=30.0)
        together = run_scenarios(scenarios, default_cfg, params, duration_s=6)
        for scenario, (results, summary) in zip(scenarios, together):
            alone, alone_summary = run_scenarios([scenario], default_cfg, params,
                                                 duration_s=6)[0]
            assert route_rows(results) == route_rows(alone)
            assert summary == alone_summary

    def test_no_scenarios(self, default_cfg):
        assert run_scenarios([], default_cfg, TopologyParams(), duration_s=5) == []
