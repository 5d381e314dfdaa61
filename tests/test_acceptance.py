"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The slow pieces (full one-hour, three-scenario sweeps)
run once in session fixtures and are shared by the criteria that read
them; those criteria are marked ``slow``, so ``pytest -m "not slow"``
leaves them out.

Reproduction status: criterion 3 constrains the ground elevation mask to
{0, 5, 10} degrees. An exhaustive sweep of phase_factor x mask over that
set (see the calibration notes in the README) tops out 6.0% below the
reference hour averages, because with low masks the latency-optimal
routes ride long near-horizon ground slants that the reference model
evidently did not admit. Criterion 3 is therefore expected to FAIL as
stated; `test_calibrated_reproduction_hour_averages` demonstrates the
same model reproducing all reference figures to within 0.5% at the
calibrated 30 degree mask, which is the documented default for
reproduction runs.
"""

import csv
import hashlib
import io
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from conftest import (
    brute_force_edge_set,
    edge_set,
    enumerate_paths_oracle,
    neighbor_census,
    node_refs,
    random_snapshot,
)
from leolat.constellation import ConstellationConfig
from leolat.experiment import (
    REPRODUCTION_MIN_ELEVATION_DEG,
    REPRODUCTION_PHASE_FACTOR,
    Run,
    builtin_scenarios,
    chord_bound_ms,
    compare,
    oftn_latency,
    run_scenarios,
)
from leolat.geo import great_circle_distance
from leolat.routing import shortest_path
from leolat.topology import TopologyParams, build_snapshot

# Reference comparison values for the three city pairs (fiber baseline,
# satellite-network hour average, improvement percent, surface distance).
REFERENCE = {
    "New York-Dublin": {"oftn_ms": 25.07, "owsn_ms": 20.07, "pct": 19.94, "distance_km": 5121.30},
    "Sao Paulo-London": {"oftn_ms": 46.57, "owsn_ms": 36.64, "pct": 21.32, "distance_km": 9514.30},
    "Toronto-Sydney": {"oftn_ms": 76.29, "owsn_ms": 58.34, "pct": 23.53, "distance_km": 15584.58},
}

# Best (phase_factor, mask) inside criterion 3's allowed set, found by the
# exhaustive offline sweep documented in the README.
C3_BEST_PHASE_FACTOR = 10
C3_BEST_MIN_ELEVATION_DEG = 10.0


def _hour_sweep(phase_factor: int, min_elevation_deg: float):
    cfg = ConstellationConfig(phase_factor=phase_factor)
    params = TopologyParams(min_elevation_deg=min_elevation_deg)
    t0 = time.perf_counter()
    scenarios = tuple(builtin_scenarios())
    runs = run_scenarios(Run(cfg, params, scenarios=scenarios, duration_s=3600, slot_s=1))
    out = {scenario.name: (scenario, routes, summary)
           for scenario, (routes, summary) in zip(scenarios, runs)}
    wall = time.perf_counter() - t0
    print(f"3-scenario hour at phase_factor={phase_factor}, "
          f"mask={min_elevation_deg}: {wall:.0f} s wall")
    assert wall <= 300.0  # the stated runtime target for a full sweep
    return out


@pytest.fixture(scope="session")
def hour_run_calibrated():
    """One-hour sweep at the calibrated reproduction defaults."""
    return _hour_sweep(REPRODUCTION_PHASE_FACTOR, REPRODUCTION_MIN_ELEVATION_DEG)


@pytest.fixture(scope="session")
def hour_run_c3_mask_set():
    """One-hour sweep at the best combination criterion 3 allows."""
    return _hour_sweep(C3_BEST_PHASE_FACTOR, C3_BEST_MIN_ELEVATION_DEG)


def test_criterion_1_fiber_baseline_exact():
    for name, row in REFERENCE.items():
        got = oftn_latency(row["distance_km"])
        print(f"criterion 1 {name}: {got:.4f} ms vs {row['oftn_ms']}")
        assert got == pytest.approx(row["oftn_ms"], abs=0.01)


def test_criterion_2_great_circle_distances():
    for scenario in builtin_scenarios():
        expected = REFERENCE[scenario.name]["distance_km"]
        got = great_circle_distance(scenario.src, scenario.dst)
        print(f"criterion 2 {scenario.name}: {got:.2f} km vs {expected}")
        assert got == pytest.approx(expected, rel=0.0025)


@pytest.mark.slow
def test_criterion_3_owsn_hour_averages(hour_run_c3_mask_set):
    """Hour averages within 5% for some phase_factor and mask in {0, 5, 10}.

    The offline sweep covered the full 24 x 3 combination set; the combo
    checked here is that sweep's deviation minimizer, so this assertion
    holds if and only if the existence claim does. Expected to fail: see
    the module docstring and the README's calibration notes.
    """
    failures = []
    for name, (_, _, summary) in hour_run_c3_mask_set.items():
        target = REFERENCE[name]["owsn_ms"]
        dev = 100.0 * (summary.owsn_avg_latency_ms - target) / target
        print(
            f"criterion 3 {name}: avg {summary.owsn_avg_latency_ms:.3f} ms vs {target} "
            f"({dev:+.2f}%) at phase_factor={C3_BEST_PHASE_FACTOR}, "
            f"mask={C3_BEST_MIN_ELEVATION_DEG}"
        )
        assert summary.unreachable_slots == 0
        if abs(dev) > 5.0:
            failures.append(f"{name}: {dev:+.2f}%")
    assert not failures, (
        "hour averages outside +/-5% at the best allowed (phase_factor, mask): "
        + "; ".join(failures)
        + " -- no combination in [0,23] x {0,5,10} does better (exhaustive sweep); "
        "the calibrated 30 degree mask reproduces all three (see "
        "test_calibrated_reproduction_hour_averages)"
    )


@pytest.mark.slow
def test_calibrated_reproduction_hour_averages(hour_run_calibrated):
    """The documented reproduction defaults match the reference table.

    Not one of the numbered criteria: this is criterion 3's intent, with
    the elevation mask calibrated outside its enumerated set (the README's
    calibration notes cover the deviation).
    """
    for name, (_, _, summary) in hour_run_calibrated.items():
        target = REFERENCE[name]["owsn_ms"]
        dev = 100.0 * (summary.owsn_avg_latency_ms - target) / target
        print(
            f"calibrated {name}: avg {summary.owsn_avg_latency_ms:.3f} ms vs {target} "
            f"({dev:+.2f}%) at phase_factor={REPRODUCTION_PHASE_FACTOR}, "
            f"mask={REPRODUCTION_MIN_ELEVATION_DEG}"
        )
        assert summary.unreachable_slots == 0
        assert summary.owsn_avg_latency_ms == pytest.approx(target, rel=0.05)


@pytest.mark.slow
def test_criterion_4_improvement_ordering(hour_run_calibrated):
    pcts = {name: compare(s.owsn_avg_latency_ms, s.oftn_latency_ms)[1]
            for name, (_, _, s) in hour_run_calibrated.items()}
    order = ["New York-Dublin", "Sao Paulo-London", "Toronto-Sydney"]
    for name in order:
        print(f"criterion 4 {name}: improvement {pcts[name]:.2f}% vs {REFERENCE[name]['pct']}")
    assert pcts[order[0]] < pcts[order[1]] < pcts[order[2]]
    for name in order:
        assert pcts[name] == pytest.approx(REFERENCE[name]["pct"], abs=3.0)


@pytest.mark.slow
def test_criterion_5_path_structure(hour_run_calibrated):
    _, routes, _ = hour_run_calibrated["New York-Dublin"]
    hops = Counter(r.satellite_count for r in routes if r)
    share_4_to_6 = sum(v for k, v in hops.items() if 4 <= k <= 6) / len(routes)
    in_band = sum(1 for r in routes if r and 17.0 <= r.total_latency_s * 1000.0 <= 23.0)
    churn = sum(
        1
        for a, b in zip(routes[:59], routes[1:60])
        if a and b and a.labels() != b.labels()
    )
    print(
        f"criterion 5: hop histogram {dict(sorted(hops.items()))}, "
        f"4-6 sats {100 * share_4_to_6:.1f}%, latency in [17,23] {in_band}/{len(routes)}, "
        f"route changes in first 60 slots: {churn}"
    )
    assert share_4_to_6 >= 0.90
    assert in_band == len(routes)
    assert churn > 0


# SHA-256 of each scenario's slot CSV over the whole hour, as `leolat run`
# writes it; the calibrated ones are the default run's files.
HOUR_DIGESTS = {
    "calibrated": {
        "New York-Dublin": "810f8b4d3da0c51b2e8fd586f98c9a2ec8531382b7e015af9cc3a936fa19d530",
        "Sao Paulo-London": "c81ba62a12a57266e34acf2570e42e3d4a52a44db68cded264c4b6df26e3ca75",
        "Toronto-Sydney": "b1b0e43d57ff4fa4d8b688deb2a6e05a4274f424cf4189b6f4461b90e9928e02",
    },
    "c3_mask_set": {
        "New York-Dublin": "381650bfa88c6e06e824e9112c0f3ac950e0ef80991ea11c2fe5e9b4768dc87f",
        "Sao Paulo-London": "3f71941b776249635f7afaac2a07a187ee75cb618fa64425dbfe451ae0f89736",
        "Toronto-Sydney": "26aa4a669531929f1cb0116efe167774887a343e0a17de5acc9c9802e51ac831",
    },
}


def slot_csv_digest(routes) -> str:
    """SHA-256 of the routes rendered as a slot CSV: slot, latency in ms to
    4 decimals and the |-joined node labels, empty where unreachable."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["slot", "latency_ms", "path"])
    for k, route in enumerate(routes, start=1):
        writer.writerow([k, "", ""] if route is None else
                        [k, f"{route.total_latency_s * 1000.0:.4f}", "|".join(route.labels())])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("fixture", list(HOUR_DIGESTS))
def test_whole_hour_routes_match_pinned_digests(request, fixture):
    """Every route of both hour sweeps, byte for byte: a refactor that moves
    one hop or one latency digit in any of the 10,800 slots fails here."""
    run = request.getfixturevalue(f"hour_run_{fixture}")
    assert {name: slot_csv_digest(routes) for name, (_, routes, _) in run.items()} \
        == HOUR_DIGESTS[fixture]


def test_criterion_6_dijkstra_matches_enumeration_oracle():
    rng = random.Random(123457)
    checked = 0
    for _ in range(1000):
        g = random_snapshot(rng)
        src, dst = rng.sample(node_refs(g), 2)
        best = enumerate_paths_oracle(g, src, dst)
        route = shortest_path(g, src, dst)
        if best is None:
            assert route is None
        else:
            checked += 1
            assert route.total_latency_s == pytest.approx(best, rel=1e-12, abs=1e-15)
    print(f"criterion 6a: oracle agreement on 1000 seeded graphs ({checked} reachable)")


def test_criterion_6_intra_plane_census(default_constellation):
    rng = random.Random(8675309)
    for _ in range(50):
        t = rng.uniform(0.0, 5800.0)
        graph = build_snapshot(default_constellation, [], t, TopologyParams())
        census = neighbor_census(graph, default_constellation.cfg)
        assert census.shape == (1584, 4)
        assert (census[:, 0] == 4).all()
    print("criterion 6b: intra-plane neighbor count = 4 for all satellites at 50 slots")


def test_criterion_6_orbit_invariants(default_constellation):
    period = 2.0 * math.pi / default_constellation.mean_motion_rad_s
    assert period == pytest.approx(5738.6, abs=1.0)
    rng = random.Random(4242)
    for _ in range(200):
        k = rng.randrange(1584)
        xyz = default_constellation.positions_at(rng.uniform(0, 2 * period))[k]
        r = float(np.linalg.norm(xyz))
        assert abs(r - 6928.0) < 1e-6
    print(f"criterion 6c: orbit radius constant to 1e-6 km, period {period:.1f} s")


def test_criterion_6_pruned_builder_equals_all_pairs(small_constellation):
    stations = [builtin_scenarios()[0].src, builtin_scenarios()[0].dst]
    for t, r in ((0.0, 1500.0), (913.7, 3500.0)):
        params = TopologyParams(lisl_range_km=r)
        graph = build_snapshot(small_constellation, stations, t, params)
        assert edge_set(graph) == brute_force_edge_set(small_constellation, stations, t, params)
    print("criterion 6d: pruned snapshot builder matches the all-pairs scan on 4x6")


@pytest.mark.slow
def test_criterion_6_chord_bound_on_every_route(hour_run_calibrated):
    for name, (scenario, routes, _) in hour_run_calibrated.items():
        bound = chord_bound_ms(scenario.src, scenario.dst)
        for r in routes:
            if r is not None:
                assert r.total_latency_s * 1000.0 >= bound
    print("criterion 6e: chord lower bound holds on every emitted route")


def test_criterion_6_edge_set_monotone_in_range(default_constellation):
    stations = [builtin_scenarios()[0].src, builtin_scenarios()[0].dst]
    for t in (100.0, 2222.0):
        previous = set()
        for r in (800.0, 1200.0, 1500.0, 2000.0):
            current = edge_set(build_snapshot(
                default_constellation, stations, t, TopologyParams(lisl_range_km=r)
            ))
            assert previous <= current
            previous = current
    print("criterion 6f: edge sets grow monotonically with LISL range")


def test_criterion_7_determinism_across_worker_counts(tmp_path):
    from leolat.cli import main

    a, b = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", "--out", str(a), "--duration", "10", "--workers", "1"]) == 0
    assert main(["run", "--out", str(b), "--duration", "10", "--workers", "3"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    print(f"criterion 7: {len(names)} output files byte-identical across worker counts")
