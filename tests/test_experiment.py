import math
import multiprocessing
import os
from concurrent.futures import Future

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_edge_set, deadline, heap_route, snapshot_from_edges
from leolat import experiment, routing, topology
from leolat.constellation import Constellation, ConstellationConfig
from leolat.experiment import (
    EXCHANGE_COORDINATES,
    Run,
    Scenario,
    builtin_scenarios,
    chord_bound_ms,
    compare,
    oftn_latency,
    run_scenarios,
    summarize,
)
from leolat.geo import CONSTANTS, GeodeticPoint, geodetic_to_inertial, great_circle_distance
from leolat.routing import shortest_path
from leolat.topology import NodeRef, TopologyParams, build_snapshot


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

    @pytest.mark.parametrize("label", [123, True, ""], ids=["int", "bool", "empty"])
    def test_labels_must_be_non_empty_strings(self, label):
        b = GeodeticPoint(3.0, 4.0, "b")
        with pytest.raises(ValueError, match="src label"):
            Scenario("x", GeodeticPoint(1.0, 2.0, label), b)
        with pytest.raises(ValueError, match="dst label"):
            Scenario("x", b, GeodeticPoint(1.0, 2.0, label))
        with pytest.raises(ValueError, match="name"):
            Scenario(label, b, GeodeticPoint(1.0, 2.0, "a"))


@pytest.fixture(scope="module")
def short_run(default_cfg):
    scenario = builtin_scenarios()[0]
    routes, summary = run_scenarios(
        Run(default_cfg, TopologyParams(), scenarios=(scenario,), duration_s=30, slot_s=1)
    )[0]
    return scenario, routes, summary


ONE_PAIR = tuple(builtin_scenarios()[:1])


def latency_ms(route):
    return route.total_latency_s * 1000.0


ROUTE_BLOCK = experiment._route_block
ROUTE_SLOTS = experiment._SlotEngine.route_slots


def record_chunk(*args):
    """_route_block that first appends this process's pid and the chunk's
    first time to the file named by $LEOLAT_TEST_CHUNKS; a module-level
    function, so that a pool can pickle it."""
    with open(os.environ["LEOLAT_TEST_CHUNKS"], "a") as f:
        f.write(f"{os.getpid()} {args[-1][0]}\n")
    return ROUTE_BLOCK(*args)


class InlinePool:
    """A pool that runs each task when it is submitted, in this process, or
    whose futures have all failed if `failure` is set."""

    failure: Exception | None = None

    def __init__(self, max_workers, **initializer):
        self.max_workers = max_workers
        self.tasks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks.append(args[-1][0])
        done = Future()
        if self.failure is not None:
            done.set_exception(self.failure)
        else:
            done.set_result(fn(*args))
        return done


class TestRunScenario:
    def test_slot_count_and_order(self, short_run):
        # Slot k is the route at index k - 1.
        _, routes, summary = short_run
        assert len(routes) == 30
        assert summary.slots == 30

    def test_routes_start_and_end_at_the_ground(self, short_run):
        _, routes, _ = short_run
        for route in routes:
            if route is None:
                continue
            assert route.nodes[0].label == "New York"
            assert route.nodes[-1].label == "Dublin"
            assert all(not n.is_ground for n in route.nodes[1:-1])

    def test_chord_bound_holds_per_slot(self, short_run):
        scenario, routes, _ = short_run
        bound = chord_bound_ms(scenario.src, scenario.dst)
        for route in routes:
            if route is not None:
                assert latency_ms(route) >= bound

    def test_summary_consistency(self, short_run):
        _, routes, summary = short_run
        reachable = [latency_ms(r) for r in routes if r is not None]
        assert summary.unreachable_slots == 30 - len(reachable)
        if reachable:
            assert summary.owsn_avg_latency_ms == pytest.approx(
                math.fsum(reachable) / len(reachable), rel=1e-12
            )
            assert summary.owsn_min_ms <= summary.owsn_avg_latency_ms <= summary.owsn_max_ms

    def test_latency_continuity_while_path_is_stable(self, short_run):
        # Satellites move ~7.6 km per slot, so an unchanged node sequence
        # shifts total latency by well under 0.1 ms.
        _, routes, _ = short_run
        stable_pairs = 0
        for prev, cur in zip(routes, routes[1:]):
            if prev and cur and prev.labels() == cur.labels():
                stable_pairs += 1
                assert abs(latency_ms(cur) - latency_ms(prev)) < 0.1
        assert stable_pairs > 0

    def test_zero_duration(self, default_cfg):
        routes, summary = run_scenarios(
            Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, duration_s=0)
        )[0]
        assert routes == []
        assert summary.slots == 0
        assert summary.owsn_avg_latency_ms is None

    # A bad horizon or station label is rejected when the Run is built,
    # before run_scenarios can route anything.
    def test_slot_must_divide_duration(self, default_cfg):
        with pytest.raises(ValueError):
            Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, duration_s=10, slot_s=3)

    def test_horizon_beyond_the_slot_bound_rejected(self, default_cfg):
        for horizon in ({"duration_s": 3600, "slot_s": 1e-300},
                        {"duration_s": experiment.MAX_SLOTS + 1}):
            with pytest.raises(ValueError, match="more than the bound of 1,000,000"):
                Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, **horizon)
        assert experiment.slot_count(experiment.MAX_SLOTS, 1) == experiment.MAX_SLOTS

    @pytest.mark.parametrize("horizon", [{"duration_s": True}, {"slot_s": True},
                                         {"slot_s": "1"}, {"duration_s": None}],
                             ids=["bool-duration", "bool-slot", "string-slot", "none-duration"])
    def test_non_numbers_rejected(self, default_cfg, horizon):
        # True would otherwise route one slot; "1" fail with a TypeError.
        (name,) = horizon
        with pytest.raises(ValueError, match=name):
            Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, **horizon)

    def test_fully_unreachable_summary(self):
        # A 2x2 shell leaves hemisphere-sized gaps; stations in opposite
        # gaps never both see a satellite, let alone a connected path.
        cfg = ConstellationConfig(num_planes=2, sats_per_plane=2)
        scenario = Scenario(
            "nowhere", GeodeticPoint(-85.0, 10.0, "S85"), GeodeticPoint(85.0, -170.0, "N85")
        )
        results, summary = run_scenarios(
            Run(cfg, TopologyParams(min_elevation_deg=60.0), scenarios=(scenario,), duration_s=5)
        )[0]
        assert summary.unreachable_slots == 5
        assert summary.owsn_avg_latency_ms is None

    def test_worker_pool_merges_identically(self, default_cfg, two_cores):
        scenario = builtin_scenarios()[0]
        run = Run(default_cfg, TopologyParams(), scenarios=(scenario,), duration_s=8)
        seq, _ = run_scenarios(run)[0]
        par, _ = run_scenarios(run, workers=2)[0]
        assert len(par) == len(seq)
        assert [latency_ms(r) for r in par] == [latency_ms(r) for r in seq]
        assert [r.labels() for r in par] == [r.labels() for r in seq]

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5])
    def test_workers_below_one_rejected(self, default_cfg, workers):
        with pytest.raises(ValueError, match="workers"):
            run_scenarios(Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, duration_s=4),
                          workers=workers)

    def test_label_naming_two_points_rejected_before_routing(self, default_cfg):
        ny, london = (EXCHANGE_COORDINATES[c] for c in ("New York", "London"))
        dublin = exchange_pair("New York", "Dublin").dst
        scenarios = (Scenario("a", GeodeticPoint(*ny, "X"), dublin),
                     Scenario("b", GeodeticPoint(*london, "X"), dublin))
        with pytest.raises(ValueError, match="label 'X' names two different points"):
            Run(default_cfg, TopologyParams(), scenarios=scenarios, duration_s=8)

    def test_pool_never_larger_than_the_core_count(self, default_cfg, monkeypatch, two_cores):
        # The pool runs each task inline when it is submitted, so no process
        # starts. On 2 usable cores, 8 workers cut 2 chunks: a pool of one
        # process routes the second and this process the first.
        pools, routed = [], []

        def pool(max_workers, **initializer):
            pools.append(InlinePool(max_workers))
            return pools[-1]

        def spy(engine, times):
            routed.append(times[0])
            return ROUTE_SLOTS(engine, times)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(experiment._SlotEngine, "route_slots", spy)
        run = Run(default_cfg, TopologyParams(), scenarios=tuple(builtin_scenarios()),
                  duration_s=16)
        eight = run_scenarios(run, workers=8)
        assert [(p.max_workers, p.tasks) for p in pools] == [(1, [8])]
        assert routed == [8, 0]
        one = run_scenarios(run, workers=1)
        assert len(pools) == 1
        assert eight == one

    def test_failed_chunk_stops_this_process_after_one_slot(self, default_cfg, monkeypatch,
                                                              two_cores):
        # The pool's chunk has failed before this process routes its first
        # slot; its chunk, t = 0-19 s, is two blocks of 10 slots.
        slots = []

        class FailedPool(InlinePool):
            failure = RuntimeError("the pool's chunk failed")

        def spy(engine, times):
            for routes in ROUTE_SLOTS(engine, times):
                slots.append(times[len(slots)])
                yield routes

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", FailedPool)
        monkeypatch.setattr(experiment._SlotEngine, "route_slots", spy)
        with pytest.raises(RuntimeError, match="the pool's chunk failed"):
            run_scenarios(Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, duration_s=40),
                          workers=2)
        assert slots == [0]

    @pytest.mark.parametrize("workers,cores,duration_s", [(1, 2, 16), (2, 1, 16), (2, 2, 3)],
                             ids=["one-worker", "one-core", "under-two-slots-a-process"])
    def test_one_process_starts_no_pool(self, default_cfg, monkeypatch, workers, cores,
                                        duration_s):
        def pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(experiment, "usable_cores", lambda: cores)
        ((routes, _),) = run_scenarios(
            Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, duration_s=duration_s),
            workers=workers)
        assert len(routes) == duration_s

    def test_this_process_routes_the_first_chunk(self, default_cfg, monkeypatch, tmp_path,
                                                 two_cores):
        # A real pool of one process. The pool's task logs its pid to a
        # file; this process's chunk is logged in memory, which a forked
        # child cannot append to.
        log = tmp_path / "chunks.txt"
        routed = []

        def spy(engine, times):
            routed.append((os.getpid(), times[0]))
            return ROUTE_SLOTS(engine, times)

        monkeypatch.setenv("LEOLAT_TEST_CHUNKS", str(log))
        monkeypatch.setattr(experiment, "_route_block", record_chunk)
        monkeypatch.setattr(experiment._SlotEngine, "route_slots", spy)
        run_scenarios(Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR, duration_s=8),
                      workers=2)
        ((pid, t),) = map(str.split, log.read_text().splitlines())
        assert routed == [(os.getpid(), 0)]
        assert float(t) == 4 and int(pid) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_failure_here_stops_the_pool_after_its_slot(self, default_cfg, monkeypatch, tmp_path,
                                                         two_cores):
        # This process fails in its first slot. A real pool of one process
        # logs each slot it routes to a file; it stops once the failure has
        # set the pool's stop signal, long before its 600-slot chunk is done.
        log = tmp_path / "slots.txt"
        log.touch()
        caller = os.getpid()

        def spy(engine, times):
            if os.getpid() == caller:
                raise RuntimeError("this process failed")
            for t, routes in zip(times, ROUTE_SLOTS(engine, times)):
                with open(log, "a") as f:
                    f.write(f"{t}\n")
                yield routes

        monkeypatch.setattr(experiment._SlotEngine, "route_slots", spy)
        with pytest.raises(RuntimeError, match="this process failed"):
            run_scenarios(Run(default_cfg, TopologyParams(), scenarios=ONE_PAIR,
                              duration_s=1200), workers=2)
        routed = [float(t) for t in log.read_text().split()]
        assert routed == [600.0 + k for k in range(len(routed))]
        assert len(routed) < 600
        assert multiprocessing.active_children() == []

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert experiment.usable_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiment.usable_cores() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment.usable_cores() == 1


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_worker_counts_agree_on_random_runs(data):
    # Two workers on two usable cores: a real pool of one process routes
    # the second chunk. The seam falls on a block edge or inside a block.
    planes = data.draw(st.integers(3, 8), label="planes")
    cfg = ConstellationConfig(
        num_planes=planes,
        sats_per_plane=data.draw(st.integers(3, 12), label="sats_per_plane"),
        altitude_km=data.draw(st.floats(300.0, 1500.0), label="altitude"),
        inclination_deg=data.draw(st.floats(30.0, 110.0), label="inclination"),
        phase_factor=data.draw(st.integers(0, planes - 1), label="phase_factor"),
    )
    shell = Constellation(cfg)
    spacing = 2.0 * shell.radius_km * math.sin(math.pi / cfg.sats_per_plane)
    tangent = 2.0 * math.sqrt(shell.radius_km**2 - CONSTANTS.earth_radius_km**2)
    params = TopologyParams(
        lisl_range_km=data.draw(st.floats(0.5 * min(spacing, tangent),
                                          1.2 * max(spacing, tangent)), label="range"),
        min_elevation_deg=data.draw(st.sampled_from([0.0, 10.0]) | st.floats(0.0, 60.0),
                                    label="mask"),
        occlusion_check=data.draw(st.booleans(), label="occlusion"),
    )
    points = [GeodeticPoint(data.draw(st.floats(-90.0, 90.0), label=f"S{k} latitude"),
                            data.draw(st.floats(-180.0, 180.0), label=f"S{k} longitude"), f"S{k}")
              for k in range(4)]
    ends = data.draw(st.lists(st.permutations(range(4)), min_size=2, max_size=3), label="pairs")
    scenarios = tuple(Scenario(f"pair {k}", points[a], points[b])
                      for k, (a, b, *_) in enumerate(ends))
    slot_s = data.draw(st.sampled_from([1, 7, 60]), label="slot_s")
    block = 1 + math.floor(topology.BLOCK_MARGIN_KM / (2.0 * shell.speed_km_s * slot_s))
    seam = (block * data.draw(st.integers(1, 2), label="blocks before the seam")
            + data.draw(st.integers(0, block - 1), label="slots past the block edge"))
    n_slots = 2 * seam + data.draw(st.integers(0, 1), label="odd")
    run = Run(cfg, params, scenarios=scenarios, duration_s=n_slots * slot_s, slot_s=slot_s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "usable_cores", lambda: 2)
        assert run_scenarios(run, workers=2) == run_scenarios(run, workers=1)
    assert multiprocessing.active_children() == []


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


def spy_fallbacks(monkeypatch) -> list[float]:
    """The start of each block that the slot engine routes again on the
    unpruned candidates, in order."""
    fallbacks = []
    full = experiment.LinkCandidates

    def spy(*args):
        fallbacks.append(args[2])
        return full(*args)

    monkeypatch.setattr(experiment, "LinkCandidates", spy)
    return fallbacks


def route_rows(routes):
    return [(k, latency_ms(r), r.labels()) if r else (k, None, None)
            for k, r in enumerate(routes, start=1)]


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
        scenarios = (*builtin_scenarios(), exchange_pair("London", "Dublin"))
        runs = run_scenarios(Run(cfg, params, scenarios=scenarios, duration_s=40, slot_s=20))
        constellation = Constellation(cfg)
        km_per_s = constellation.constants.c_vacuum / 1000.0
        for scenario, (routes, _) in zip(scenarios, runs):
            src, dst = NodeRef.ground(scenario.src.label), NodeRef.ground(scenario.dst.label)
            for k, route in enumerate(routes, start=1):
                graph = build_snapshot(constellation, [scenario.src, scenario.dst],
                                       (k - 1) * 20.0, params)
                reference = heap_route(graph, src, dst)
                assert route is not None and reference is not None
                assert (route.labels(), route.total_latency_s) == reference
                # networkx as an independent distance oracle
                g = nx.Graph()
                g.add_weighted_edges_from(zip(graph.edge_i.tolist(), graph.edge_j.tolist(),
                                              (graph.edge_dist_km / km_per_s).tolist()))
                expected = nx.dijkstra_path_length(g, graph.index_of(src), graph.index_of(dst))
                assert route.total_latency_s == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "params,slot_s,duration_s",
        [
            # 1 s slots share candidates in blocks of 10: with 2 workers the
            # pool's chunk starts at slot 12 (t = 11 s).
            (TopologyParams(min_elevation_deg=30.0), 1, 23),
            # Blocks of 4 slots past the occlusion threshold; the pool's
            # chunk starts at t = 9 s, three slots into a block.
            (TopologyParams(lisl_range_km=6000.0, min_elevation_deg=30.0), 3, 21),
        ],
        ids=["1500km", "6000km"],
    )
    def test_routes_equal_one_slot_reference(self, params, slot_s, duration_s, workers,
                                             two_cores):
        cfg = ConstellationConfig(phase_factor=11, epoch=777.0)
        scenarios = (*builtin_scenarios(), exchange_pair("London", "Dublin"))
        runs = run_scenarios(Run(cfg, params, scenarios=scenarios, duration_s=duration_s,
                                 slot_s=slot_s), workers=workers)
        constellation = Constellation(cfg)
        for scenario, (routes, _) in zip(scenarios, runs):
            assert len(routes) == duration_s // slot_s
            for k, route in enumerate(routes, start=1):
                graph = build_snapshot(constellation, [scenario.src, scenario.dst],
                                       (k - 1) * slot_s, params)
                reference = shortest_path(graph, NodeRef.ground(scenario.src.label),
                                          NodeRef.ground(scenario.dst.label))
                # Node sequence, each hop's latency and the total.
                assert route == reference, (scenario.name, k)

    def test_worker_counts_agree(self, default_cfg, two_cores):
        run = Run(default_cfg, TopologyParams(),
                  scenarios=(*builtin_scenarios(), exchange_pair("London", "Dublin")), duration_s=9)
        one = run_scenarios(run, workers=1)
        two = run_scenarios(run, workers=2)
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
        alone, _ = run_scenarios(Run(default_cfg, params, scenarios=(a,), duration_s=20,
                                     slot_s=2))[0]
        (together, _), _ = run_scenarios(Run(default_cfg, params, scenarios=(a, b), duration_s=20,
                                             slot_s=2))
        assert route_rows(together) == route_rows(alone)
        assert all(r is None for r in together)

    def test_shared_stations_route_as_if_alone(self, default_cfg):
        scenarios = (
            exchange_pair("New York", "Dublin"),
            exchange_pair("New York", "London"),
            exchange_pair("London", "New York"),
            exchange_pair("Dublin", "London"),
            exchange_pair("Toronto", "New York"),
        )
        params = TopologyParams(min_elevation_deg=30.0)
        together = run_scenarios(Run(default_cfg, params, scenarios=scenarios, duration_s=6))
        for scenario, (results, summary) in zip(scenarios, together):
            alone, alone_summary = run_scenarios(
                Run(default_cfg, params, scenarios=(scenario,), duration_s=6))[0]
            assert route_rows(results) == route_rows(alone)
            assert summary == alone_summary

    def test_empty_cone_between_non_empty_ones(self, default_cfg):
        # No satellite of the 53 degree shell rises 30 degrees above a
        # station at 85 degrees latitude: the polar stations' rows are
        # empty, between New York-Dublin's rows and Sao Paulo-London's.
        params = TopologyParams(min_elevation_deg=30.0)
        polar = Scenario("North-South", GeodeticPoint(85.0, 10.0, "North"),
                         GeodeticPoint(-85.0, 10.0, "South"))
        scenarios = (exchange_pair("New York", "Dublin"), polar,
                     exchange_pair("Sao Paulo", "London"))
        together = run_scenarios(Run(default_cfg, params, scenarios=scenarios, duration_s=12))
        polar_routes, _ = together[1]
        assert polar_routes == [None] * 12
        for scenario, (routes, _) in zip(scenarios[::2], together[::2]):
            alone, _ = run_scenarios(Run(default_cfg, params, scenarios=(scenario,),
                                         duration_s=12))[0]
            assert all(r is not None for r in alone)
            assert route_rows(routes) == route_rows(alone)

    @pytest.mark.parametrize("lisl_range_km", [1500.0, 6000.0])
    def test_tenth_of_the_budget_falls_back_to_the_same_routes(self, monkeypatch,
                                                               lisl_range_km):
        cfg = ConstellationConfig(phase_factor=11, epoch=777.0)
        params = TopologyParams(lisl_range_km=lisl_range_km, min_elevation_deg=30.0)
        budget_km = experiment.route_budget_km
        monkeypatch.setattr(experiment, "route_budget_km", lambda *a: budget_km(*a) / 10.0)
        fallbacks = spy_fallbacks(monkeypatch)
        scenarios = (*builtin_scenarios(), exchange_pair("London", "Dublin"))
        runs = run_scenarios(Run(cfg, params, scenarios=scenarios, duration_s=12))
        # Every block falls back at its first slot.
        assert fallbacks == [0.0, 10.0]
        constellation = Constellation(cfg)
        for scenario, (routes, _) in zip(scenarios, runs):
            for t, route in enumerate(routes):
                graph = build_snapshot(constellation, [scenario.src, scenario.dst], float(t),
                                       params)
                assert route == shortest_path(graph, NodeRef.ground(scenario.src.label),
                                              NodeRef.ground(scenario.dst.label))

    def test_route_beyond_budget_falls_back_mid_block(self, monkeypatch):
        # New York-Dublin's latency rises over the first block at this epoch.
        # With the budget between the latencies of slots 4 and 5, slots 1-4
        # stand on the pruned set; slot 5 and the rest of its block route
        # on the full set, and the second block starts beyond the budget.
        cfg = ConstellationConfig(phase_factor=11, epoch=777.0)
        params = TopologyParams(min_elevation_deg=30.0)
        scenario = exchange_pair("New York", "Dublin")
        constellation = Constellation(cfg)
        src, dst = NodeRef.ground(scenario.src.label), NodeRef.ground(scenario.dst.label)
        reference = [shortest_path(build_snapshot(constellation, [scenario.src, scenario.dst],
                                                  float(t), params), src, dst)
                     for t in range(20)]
        latency = [r.total_latency_s for r in reference]
        assert latency[:10] == sorted(latency[:10]) and min(latency[10:18]) > latency[4]
        km_per_s = constellation.constants.c_vacuum / 1000.0
        budget_km = (latency[3] + latency[4]) / 2.0 * km_per_s
        monkeypatch.setattr(experiment, "route_budget_km", lambda *a: budget_km)
        fallbacks = spy_fallbacks(monkeypatch)
        engine = experiment._SlotEngine(Run(cfg, params, scenarios=(scenario,)))
        built = []
        for t, (route,) in enumerate(engine.route_slots([float(t) for t in range(20)])):
            assert route == reference[t], t
            built.append(len(fallbacks))
        assert built == [0] * 4 + [1] * 6 + [2] * 10
        assert fallbacks == [0.0, 10.0]

    def test_fifteen_exchange_pairs_prune_the_shell(self, default_cfg):
        # Measured over the shell, the budgets of the fifteen pairs of the six
        # exchanges keep about 1,320 of the 1,584 satellites at t = 0, and
        # Dublin-Sydney's alone about 530. Every block is pruned, so a run
        # over them checks every slot.
        scenarios = fifteen_exchange_pairs()
        params = TopologyParams(min_elevation_deg=30.0)
        engine = experiment._SlotEngine(Run(default_cfg, params, scenarios=scenarios))
        times = [60.0 * k for k in range(30)] + [4000.0 + k for k in range(10)]
        blocks = list(topology.candidate_blocks(engine.constellation, engine.stations, times,
                                                params, engine.budgets))
        assert len(blocks) == 31
        assert all(candidates.pruned for candidates, _ in blocks)
        first, _ = blocks[0]
        dublin_sydney = [sc.name for sc in scenarios].index("Dublin-Sydney")
        assert 1250 < first.kept.sum() < 1400
        assert 450 < first.kept_by_budget[dublin_sydney].sum() < 600

    def test_no_scenarios(self, default_cfg):
        assert run_scenarios(Run(default_cfg, TopologyParams(), scenarios=(), duration_s=5)) == []

    def test_each_destination_searches_only_its_own_scenarios_satellites(self):
        # The first block of the paper's run is pruned. Each destination's
        # component holds the stations, then the satellites its own
        # scenario's budget keeps, in ascending global order; its entries
        # stay inside it.
        engine = experiment._SlotEngine(Run())
        candidates, _ = next(topology.candidate_blocks(
            engine.constellation, engine.stations, [float(t) for t in range(10)], engine.params,
            engine.budgets))
        block = engine._layout(candidates, 10)
        graph, n_st = block.graph, len(engine.stations)
        assert candidates.pruned and sorted(block.first_row) == engine.targets == [1, 3, 5]
        bounds = sorted(block.first_row.values()) + [graph.shape[0]]
        sizes = {}
        for (_, dst), kept in zip(engine.queries, candidates.kept_by_budget):
            first = block.first_row[dst]
            last = bounds[bounds.index(first) + 1]
            assert block.names[first:last] == engine.nodes[:n_st] + [
                engine.nodes[n_st + k] for k in np.flatnonzero(kept)]
            columns = graph.indices[graph.indptr[first]:graph.indptr[last]]
            assert ((first <= columns) & (columns < last)).all()
            sizes[engine.stations[dst].label] = last - first - n_st
        assert 100 < sizes["Dublin"] < 160 < sizes["London"] < sizes["Sydney"] \
            < candidates.kept.sum()

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_one_search_per_slot_and_per_fallback(self, monkeypatch, scale):
        budget_km = experiment.route_budget_km
        monkeypatch.setattr(experiment, "route_budget_km", lambda *a: budget_km(*a) * scale)
        fallbacks = spy_fallbacks(monkeypatch)
        searches = []
        search = experiment.find_routes

        def spy(graph, queries, node_ref):
            searches.append({dst for _, dst in queries})
            return search(graph, queries, node_ref)

        monkeypatch.setattr(experiment, "find_routes", spy)
        run_scenarios(Run(duration_s=25))
        # One search per slot from the three destinations' rows, and one
        # more for each slot routed again on the unpruned candidates.
        assert len(searches) == 25 + len(fallbacks)
        assert all(len(rows) == 3 for rows in searches)
        assert (fallbacks == []) == (scale == 1.0)

    @pytest.mark.parametrize("budgets", ["whole-shell", "fallback", "one-slot"])
    def test_single_graph_where_components_would_not_pay(self, default_cfg, budgets):
        # Budgets that keep the whole shell, the fallback's candidates, and a
        # one-slot block of the fifteen pairs, where Sydney's scenarios keep
        # so much of the union that its component would cost more than it
        # saves: each block lays out the one graph over every node.
        params = TopologyParams(min_elevation_deg=30.0)
        engine = experiment._SlotEngine(Run(default_cfg, params,
                                            scenarios=fifteen_exchange_pairs()))
        kept = {"whole-shell": [(src, dst, 1e6) for src, dst in engine.queries],
                "fallback": [], "one-slot": engine.budgets}[budgets]
        for t in (0.0, 600.0):
            candidates = topology.LinkCandidates(engine.constellation, engine.stations, t, 0.0,
                                                 params, kept)
            assert candidates.pruned == (budgets == "one-slot")
            block = engine._layout(candidates, 1)
            want = routing.csr_layout(len(engine.nodes), candidates.link_i, candidates.link_j,
                                      one_way=candidates.cone_ptr[-1])
            for got, expected in zip((block.link_of, block.graph.indptr, block.graph.indices),
                                     want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert block.names is engine.nodes
            assert block.first_row == dict.fromkeys(engine.targets, 0)

    def test_components_where_every_destination_gains(self, default_cfg):
        # Ten slots share the block: each of the five destinations searches a
        # component of its own scenarios' satellites.
        params = TopologyParams(min_elevation_deg=30.0)
        engine = experiment._SlotEngine(Run(default_cfg, params,
                                            scenarios=fifteen_exchange_pairs()))
        candidates = topology.LinkCandidates(engine.constellation, engine.stations, 0.0, 9.0,
                                             params, engine.budgets)
        block = engine._layout(candidates, 10)
        n_st = len(engine.stations)
        bounds = [block.first_row[dst] for dst in engine.targets] + [block.graph.shape[0]]
        assert bounds == sorted(bounds) and len(engine.targets) == 5
        for dst, first, last in zip(engine.targets, bounds, bounds[1:]):
            kept = np.logical_or.reduce([k for (_, d), k in zip(engine.queries,
                                                                 candidates.kept_by_budget)
                                         if d == dst])
            union, own = candidates.kept.sum(), kept.sum()
            assert (union - own) * 10 >= own
            assert block.names[first:last] == engine.nodes[:n_st] + [
                engine.nodes[n_st + k] for k in np.flatnonzero(kept)]
            columns = block.graph.indices[block.graph.indptr[first]:block.graph.indptr[last]]
            assert ((first <= columns) & (columns < last)).all()


def fifteen_exchange_pairs() -> tuple[Scenario, ...]:
    cities = list(EXCHANGE_COORDINATES)
    return tuple(exchange_pair(a, b) for k, a in enumerate(cities) for b in cities[k + 1:])


def oracle_routes(shell: Constellation, scenarios, t: float, params: TopologyParams):
    """Each scenario's route at t as (labels, fsum latency in s), or None:
    the heap router on the scenario's two stations and the links that
    brute_force_edge_set finds, with lengths by np.linalg.norm."""
    stations = list({p.label: p for sc in scenarios for p in (sc.src, sc.dst)}.values())
    sat_ids = set(shell.sat_ids)
    where = dict(zip(shell.sat_ids, shell.positions_at(t)))
    where.update((st.label, geodetic_to_inertial(st, t)) for st in stations)
    edges = sorted(brute_force_edge_set(shell, stations, t, params))

    def node(label):
        return NodeRef.satellite(label) if label in sat_ids else NodeRef.ground(label)

    routes = []
    for sc in scenarios:
        # The laser links, and the uplinks of this scenario's stations only.
        mine = [(a, b) for a, b in edges if a in sat_ids or a in (sc.src.label, sc.dst.label)]
        km = np.linalg.norm(np.array([where[a] for a, _ in mine]).reshape(-1, 3)
                            - np.array([where[b] for _, b in mine]).reshape(-1, 3), axis=1)
        src, dst = NodeRef.ground(sc.src.label), NodeRef.ground(sc.dst.label)
        graph = snapshot_from_edges(
            [(node(a), node(b), float(d)) for (a, b), d in zip(mine, km)], nodes=[src, dst])
        routes.append(heap_route(graph, src, dst))
    return routes


@st.composite
def oracle_cases(draw):
    """A run, a scale for its route budgets, and None or a factor over each
    scenario's oracle route that replaces its budget. Scenarios a -> b and
    c -> b share a destination, and b -> c starts at one, so the
    destinations' components differ and overlap. Scales down to a tenth
    make slots fall back to the unpruned candidates; budgets just over a
    route put the pruning bound right at the route.

    A coincident shell has an even plane count P, and S and F of one
    parity: at t = 0 two satellites of planes 180 degrees apart meet at
    the first plane's ascending node, and station b stands under it."""
    coincident = draw(st.sampled_from([False, False, True]), label="coincident shell")
    planes = draw(st.sampled_from([4, 6, 8]) if coincident else st.integers(3, 8), label="planes")
    per_plane = draw(st.integers(3, 22), label="sats_per_plane")
    phases = range(per_plane % 2, planes, 2) if coincident else range(planes)
    cfg = ConstellationConfig(
        num_planes=planes,
        sats_per_plane=per_plane,
        altitude_km=draw(st.floats(300.0, 1500.0), label="altitude"),
        inclination_deg=draw(st.sampled_from([53.0]) | st.floats(30.0, 110.0),
                             label="inclination"),
        raan0_deg=draw(st.sampled_from([0.0]) | st.floats(0.0, 360.0), label="raan0"),
        phase_factor=draw(st.sampled_from(phases), label="phase_factor"),
        epoch=0.0 if coincident else draw(st.sampled_from([0.0]) | st.floats(0.0, 6000.0),
                                          label="epoch"),
    )
    shell = Constellation(cfg)
    spacing = 2.0 * shell.radius_km * math.sin(math.pi / cfg.sats_per_plane)
    tangent = 2.0 * math.sqrt(shell.radius_km**2 - CONSTANTS.earth_radius_km**2)
    # Mostly ranges past the in-plane spacing, so that most slots have routes.
    params = TopologyParams(
        lisl_range_km=draw(st.floats(min(spacing, tangent), 1.2 * max(spacing, tangent))
                           | st.floats(0.5 * min(spacing, tangent), 1.2 * tangent),
                           label="range"),
        min_elevation_deg=draw(st.sampled_from([0.0, 10.0]) | st.floats(0.0, 60.0),
                               label="mask"),
        occlusion_check=draw(st.booleans(), label="occlusion"),
    )
    n_points = draw(st.integers(3, 5), label="stations")
    points = [GeodeticPoint(draw(st.floats(-90.0, 90.0), label=f"S{k} latitude"),
                            draw(st.floats(-180.0, 180.0), label=f"S{k} longitude"), f"S{k}")
              for k in range(n_points)]
    a, b, c, *_ = draw(st.permutations(range(n_points)), label="a, b, c")
    if coincident:
        points[b] = GeodeticPoint(0.0, (cfg.raan0_deg + 180.0) % 360.0 - 180.0, f"S{b}")
    ends = [(a, b), (c, b), (b, c)] + draw(
        st.lists(st.permutations(range(n_points)).map(lambda p: (p[0], p[1])), max_size=1),
        label="another pair")
    # At most about 6,000 satellite pairs for the all-pairs oracle to test
    # over the whole horizon.
    slot_s = draw(st.sampled_from([1, 7, 60]), label="slot_s")
    most = max(1, min({1: 12, 7: 4, 60: 3}[slot_s], 12_000 // len(shell) ** 2))
    n_slots = draw(st.integers(1, most), label="slots")
    run = Run(cfg, params, duration_s=n_slots * slot_s, slot_s=slot_s,
              scenarios=tuple(Scenario(f"pair {k}", points[x], points[y])
                              for k, (x, y) in enumerate(ends)))
    return (run, draw(st.floats(0.1, 1.0), label="budget scale"),
            draw(st.none() | st.floats(1.0, 1.2), label="budget over the oracle route"))


def test_coincident_satellites_end_the_route_walk():
    # Planes 180 degrees apart of this shell meet at the nodes, 1e-12 km
    # apart, and a link between two such satellites is below half an ulp of
    # the route's latency. The route walk once ran back and forth between
    # them here without end.
    run = Run(ConstellationConfig(num_planes=4, sats_per_plane=4),
              TopologyParams(lisl_range_km=11_759.24, min_elevation_deg=0.0,
                             occlusion_check=False),
              scenarios=(Scenario("coincident", GeodeticPoint(16.4354, -82.8768, "A"),
                                  GeodeticPoint(-55.0832, -174.0501, "B")),),
              duration_s=1)
    with deadline(30.0):
        ((routes, _),) = run_scenarios(run)
        want = oracle_routes(Constellation(run.constellation), run.scenarios, 0.0, run.topology)
    assert routes[0] is not None
    assert [(routes[0].labels(), routes[0].total_latency_s)] == want


# A shell with bit-equal route latencies at epoch 0 inside the pruned
# components of the built-in pairs.
TIED_RUN = Run(ConstellationConfig(num_planes=6, sats_per_plane=22, phase_factor=1),
               TopologyParams(lisl_range_km=4000.0, min_elevation_deg=30.0), duration_s=2)


# A route over the long links of test_topology's LONG_LINKS that climbs
# steeply to its first satellite. With its budget 1.003 times the route, a
# floor that turned onto the shell at the mask would drop that satellite and
# accept a route 1.0001 times as long. It is the Toronto-Sydney route of
# test_topology's 8 x 12 shell at t = 239 s, moved to t = 0: the epoch puts
# the satellites there, and the stations lie a degree east, where the Earth
# has turned them by then.
STEEP_RUN = Run(ConstellationConfig(num_planes=8, sats_per_plane=12, phase_factor=3, epoch=-239.0),
                TopologyParams(lisl_range_km=12_000.0, min_elevation_deg=0.0,
                               occlusion_check=False),
                scenarios=(Scenario("steep", GeodeticPoint(43.65, -78.38, "Tor"),
                                    GeodeticPoint(-33.87, 152.21, "Syd")),),
                duration_s=1)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=oracle_cases())
@example(case=(TIED_RUN, 1.0, None))
@example(case=(STEEP_RUN, 1.0, 1.003))
def test_routes_equal_all_pairs_heap_oracle_on_random_runs(case):
    run, scale, over_route = case
    shell = Constellation(run.constellation)
    # A walk that turns back fails by the deadline instead of hanging.
    with deadline(60.0):
        want = [oracle_routes(shell, run.scenarios, k * run.slot_s, run.topology)
                for k in range(run.n_slots)]
        budget_km = {(sc.src, sc.dst): experiment.route_budget_km(shell, sc.src, sc.dst,
                                                                   run.topology) * scale
                     for sc in run.scenarios}
        if over_route is not None:
            # Each scenario's first oracle route, as a length.
            for q, sc in enumerate(run.scenarios):
                first = next((slot[q] for slot in want if slot[q] is not None), None)
                if first is not None:
                    budget_km[sc.src, sc.dst] = \
                        over_route * first[1] * run.constants.c_vacuum / 1000.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "route_budget_km",
                       lambda shell, src, dst, params: budget_km[src, dst])
            got = [routes for routes, _ in run_scenarios(run)]
    for k in range(run.n_slots):
        assert [(r.labels(), r.total_latency_s) if r else None for r in (q[k] for q in got)] \
            == want[k], k
