import collections
import csv
import dataclasses
import json
import logging
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import leolat
from leolat import cli, experiment
from leolat.cli import CliError, RunConfig, load_config, main, round4, slugify
from leolat.constellation import Constellation, ConstellationConfig
from leolat.experiment import Run, builtin_scenarios
from leolat.geo import GeodeticPoint

ROUTE_BLOCK = experiment._route_block


def die_in_workers(*args):
    """_route_block that ends every process but the one whose pid is
    $LEOLAT_TEST_PID; a module-level function, so that a pool can pickle it."""
    if os.getpid() != int(os.environ["LEOLAT_TEST_PID"]):
        os._exit(3)
    return ROUTE_BLOCK(*args)


NY_DUBLIN_CSV = "new_york_dublin_slots.csv"
# One scenario whose two stations are one point: its fiber baseline is 0 km.
LOOP_YAML = (
    "scenarios:\n"
    "  - name: loop\n"
    "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: here}\n"
    "    dst: {latitude_deg: 10.0, longitude_deg: 20.0, label: there}\n"
)

# London-Dublin and New York-Dublin: route budgets prune every block to a
# small part of the shell.
REGIONAL_YAML = (
    "constellation: {phase_factor: 11, epoch: 777.0}\n"
    "scenarios:\n"
    "  - name: London-Dublin\n"
    "    src: {latitude_deg: 51.515236, longitude_deg: -0.098942, label: London}\n"
    "    dst: {latitude_deg: 53.344648, longitude_deg: -6.263233, label: Dublin}\n"
    "  - name: New York-Dublin\n"
    "    src: {latitude_deg: 40.706913, longitude_deg: -74.011322, label: New York}\n"
    "    dst: {latitude_deg: 53.344648, longitude_deg: -6.263233, label: Dublin}\n"
)


def read_rows(path):
    with open(path) as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--out", str(out), "--duration", "20"]) == 0
    return out


class TestSlugify:
    def test_scenario_names(self):
        assert slugify("New York-Dublin") == "new_york_dublin"
        assert slugify("Sao Paulo-London") == "sao_paulo_london"


class TestRun:
    def test_writes_one_csv_per_scenario_and_summary(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert names == {
            NY_DUBLIN_CSV,
            "sao_paulo_london_slots.csv",
            "toronto_sydney_slots.csv",
            "summary.json",
        }

    def test_csv_has_one_row_per_slot(self, run_dir):
        rows = read_rows(run_dir / NY_DUBLIN_CSV)
        assert rows[0] == ["slot", "latency_ms", "path"]
        assert len(rows) - 1 == 20
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(1, 21)]

    def test_paths_are_pipe_joined_ground_to_ground(self, run_dir):
        rows = read_rows(run_dir / NY_DUBLIN_CSV)
        for row in rows[1:]:
            hops = row[2].split("|")
            assert hops[0] == "New York" and hops[-1] == "Dublin"
            assert all(h.startswith("x1") for h in hops[1:-1])
            float(row[1])  # fixed 4-decimal latency parses

    def test_summary_fields_and_baseline(self, run_dir):
        doc = json.loads((run_dir / "summary.json").read_text())
        assert doc["version"]
        assert doc["config"]["constellation"]["num_planes"] == 24
        recs = {r["name"]: r for r in doc["scenarios"]}
        assert recs["New York-Dublin"]["oftn_latency_ms"] == pytest.approx(25.07, abs=0.01)
        assert recs["Toronto-Sydney"]["oftn_latency_ms"] == pytest.approx(76.29, abs=0.01)
        for rec in recs.values():
            assert rec["slots"] == 20

    def test_summary_round_trips_improvement_fields(self, run_dir):
        doc = json.loads((run_dir / "summary.json").read_text())
        for rec in doc["scenarios"]:
            if rec["owsn_avg_latency_ms"] is None:
                continue
            assert rec["improvement_ms"] == rec["oftn_latency_ms"] - rec["owsn_avg_latency_ms"]
            assert rec["improvement_pct"] == 100.0 * rec["improvement_ms"] / rec["oftn_latency_ms"]
            assert rec["owsn_min_ms"] <= rec["owsn_avg_latency_ms"] <= rec["owsn_max_ms"]

    def test_byte_identical_across_runs_and_worker_counts(self, tmp_path, two_cores):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(a), "--duration", "6"]) == 0
        assert main(["run", "--out", str(b), "--duration", "6", "--workers", "2"]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--duration", "2", "--workers", workers]) == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_that_dies_fails_without_a_traceback(self, tmp_path, capsys, monkeypatch,
                                                        two_cores):
        # A real pool of one process, which exits while routing its chunk.
        monkeypatch.setenv("LEOLAT_TEST_PID", str(os.getpid()))
        monkeypatch.setattr(experiment, "_route_block", die_in_workers)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--duration", "8", "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert "error: A process in the process pool was terminated abruptly" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_stops_this_process_early(self, tmp_path, capsys, monkeypatch,
                                                       two_cores):
        # This process's chunk, t = 0-199 s, is 20 blocks of 10 slots. The
        # pool's one process exits at once, and this process must stop
        # before it builds its last block.
        monkeypatch.setenv("LEOLAT_TEST_PID", str(os.getpid()))
        monkeypatch.setattr(experiment, "_route_block", die_in_workers)
        starts = []
        blocks = experiment.candidate_blocks

        def spy(*args):
            for candidates, block in blocks(*args):
                starts.append(block[0])
                yield candidates, block

        monkeypatch.setattr(experiment, "candidate_blocks", spy)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--duration", "400", "--workers", "2"]) == 1
        assert "error: A process in the process pool was terminated abruptly" in \
            capsys.readouterr().err
        assert starts and starts[-1] < 190
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
    def test_config_echo_loads_back_to_the_run_config(self, tmp_path, custom):
        argv = ["run", "--out", str(tmp_path / "out"), "--duration", "2"]
        if custom:
            p = tmp_path / "custom.yaml"
            p.write_text(
                "constellation: {num_planes: 6, sats_per_plane: 8, altitude_km: 700.0,\n"
                "                inclination_deg: 60.0, phase_factor: 1}\n"
                "topology: {lisl_range_km: 4000.0, min_elevation_deg: 20.0}\n"
                "formats: [json]\n"
                "scenarios:\n"
                "  - name: one\n"
                "    src: {latitude_deg: 10.5, longitude_deg: 200.0, label: a}\n"
                "    dst: {latitude_deg: -20.25, longitude_deg: 30.0, label: b}\n"
                "  - name: two\n"
                "    src: {latitude_deg: -20.25, longitude_deg: 30.0, label: b}\n"
                "    dst: {latitude_deg: 45.0, longitude_deg: -60.0, label: c}\n"
            )
            argv += ["--config", str(p)]
        expected = dataclasses.replace(load_config(argv[-1] if custom else None),
                                       duration_s=2.0, out_dir=str(tmp_path / "out"))
        assert main(argv) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        echo = tmp_path / "echo.yaml"
        echo.write_text(json.dumps(doc["config"] | {"out_dir": expected.out_dir}))
        assert load_config(echo) == expected

    def test_zero_fiber_baseline_rejected_before_routing(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_scenarios", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "loop.yaml"
        cfg.write_text(LOOP_YAML)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--duration", "2"]) == 1
        assert "loop" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_range_past_the_shell_diameter_routes_as_the_diameter(self, tmp_path):
        # No two satellites of the 550 km shell are farther apart than its
        # 13,856 km diameter: a 1.0e+300 km range links what 14,000 km does.
        outs = []
        for km in ("1.0e+300", "14000.0"):
            p = tmp_path / f"{km}.yaml"
            p.write_text(f"topology: {{lisl_range_km: {km}, occlusion_check: false}}\n")
            outs.append(tmp_path / f"out-{km}")
            assert main(["run", "--config", str(p), "--out", str(outs[-1]), "--duration", "2"]) == 0
        far, diameter = outs
        names = sorted(x.name for x in far.iterdir())
        assert names == sorted(x.name for x in diameter.iterdir())
        for name in names:
            text = (far / name).read_text()
            if name == "summary.json":
                assert '"lisl_range_km": 1e+300' in text
                text = text.replace('"lisl_range_km": 1e+300', '"lisl_range_km": 14000.0')
            assert text == (diameter / name).read_text(), name

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_shell_with_too_many_pair_candidates_rejected(self, tmp_path, capsys, two_cores,
                                                          workers):
        # Every pair of 9,801 satellites is within the diameter: 48,514,950
        # candidates, more than constellation.MAX_PAIR_CANDIDATES.
        p = tmp_path / "big.yaml"
        p.write_text("constellation: {num_planes: 99, sats_per_plane: 99}\n"
                     "topology: {lisl_range_km: 1.0e+300, occlusion_check: false}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out), "--duration", "2",
                     "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the 99 x 99 shell has [\d,]+ candidate laser pairs within "
                            r"13856 km, more than the bound of 20,000,000\n", err), err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_phase_factor_override_recorded_in_config_echo(self, tmp_path):
        out = tmp_path / "pf"
        assert main(["run", "--out", str(out), "--duration", "2", "--phase-factor", "7"]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["constellation"]["phase_factor"] == 7


class TestDistances:
    def test_baseline_rows(self, capsys):
        assert main(["distances"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        by_name = dict(line.split(", ", 1) for line in lines)
        assert by_name["New York-Dublin"].startswith("5121.")
        assert by_name["New York-Dublin"].endswith(" ms")
        tor = by_name["Toronto-Sydney"].split(", ")
        assert float(tor[0].removesuffix(" km")) == pytest.approx(15584.58, rel=0.0025)
        assert float(tor[1].removesuffix(" ms")) == pytest.approx(76.29, abs=0.2)

    def test_coincident_endpoints_report_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(LOOP_YAML)
        assert main(["distances", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "loop, 0.00 km, 0.00 ms"


class TestSweepRange:
    def test_consistency_with_run_at_same_range(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["run", "--out", str(out), "--duration", "10"]) == 0
        assert main(
            ["sweep-range", "--out", str(out), "--duration", "10", "--ranges", "1500"]
        ) == 0
        doc = json.loads((out / "summary.json").read_text())
        expected = {r["name"]: r for r in doc["scenarios"]}
        rows = read_rows(out / "sweep_range.csv")
        assert rows[0] == ["scenario", "lisl_range_km", "avg_latency_ms", "unreachable_slots"]
        assert len(rows) - 1 == 3
        for name, rng, avg, unreach in rows[1:]:
            assert rng == "1500"
            assert round4(float(avg)) == expected[name]["owsn_avg_latency_ms"]
            assert int(unreach) == expected[name]["unreachable_slots"]

    def test_rejects_bad_ranges(self, tmp_path, capsys):
        assert main(["sweep-range", "--out", str(tmp_path), "--ranges", ""]) == 1
        assert "range" in capsys.readouterr().err
        assert main(["sweep-range", "--out", str(tmp_path), "--ranges", "-5"]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_range_rejected_before_any_routing(self, tmp_path, monkeypatch,
                                                           capsys, bad):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cli_run_scenarios(*args, **kwargs)

        cli_run_scenarios = cli.run_scenarios
        monkeypatch.setattr(cli, "run_scenarios", counting)
        out = tmp_path / "out"
        assert main(["sweep-range", "--out", str(out), "--duration", "2",
                     "--ranges", f"1000,{bad}"]) == 1
        assert "lisl_range_km must be finite" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_repeated_range_rejected_before_any_routing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_scenarios", lambda *a, **k: pytest.fail("routed"))
        out = tmp_path / "out"
        assert main(["sweep-range", "--out", str(out), "--duration", "2",
                     "--ranges", "1000,1500,1e3"]) == 1
        err = capsys.readouterr().err
        assert "--ranges" in err and "1000" in err and "1500" not in err
        assert not out.exists()

    def test_close_ranges_get_distinct_labels(self, tmp_path, capsys, caplog):
        # Either side of the 550 km shell's tangent chord; six significant
        # digits would label all six rows 5410.47.
        caplog.set_level(logging.INFO, logger="leolat")
        out = tmp_path / "out"
        assert main(["sweep-range", "--out", str(out), "--duration", "2",
                     "--ranges", "5410.468,5410.474"]) == 0
        assert [row[1] for row in read_rows(out / "sweep_range.csv")[1:]] == \
            ["5410.468"] * 3 + ["5410.474"] * 3
        assert "range 5410.474 km" in caplog.text
        assert main(["sweep-range", "--out", str(out), "--duration", "2",
                     "--ranges", "5410.474,5410.4740"]) == 1
        assert "repeats 5410.474 km" in capsys.readouterr().err

    def test_unparseable_range_names_the_option(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep-range", "--out", str(out), "--ranges", "1000,abc"]) == 1
        err = capsys.readouterr().err
        assert "--ranges" in err and "abc" in err
        assert not out.exists()

    def test_pruned_sweep_agrees_across_worker_counts(self, tmp_path, monkeypatch, two_cores):
        cfg = tmp_path / "regional.yaml"
        cfg.write_text(REGIONAL_YAML)
        pruned = []
        blocks = experiment.candidate_blocks

        def spy(*args):
            for candidates, block in blocks(*args):
                pruned.append(candidates.pruned)
                yield candidates, block

        monkeypatch.setattr(experiment, "candidate_blocks", spy)
        texts = []
        # With 2 workers this process routes t = 0-10 s, and the pool's
        # chunk starts at t = 11 s, one slot into a block.
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["sweep-range", "--config", str(cfg), "--out", str(out),
                         "--duration", "23", "--ranges", "1000,6000",
                         "--workers", workers]) == 0
            texts.append((out / "sweep_range.csv").read_bytes())
        # Every block routed in this process was pruned: 3 per range with 1
        # worker, and the 2 per range of the first chunk with 2 workers.
        assert pruned == [True] * 10
        assert texts[0] == texts[1]

    def test_zero_fiber_baseline_accepted(self, tmp_path):
        # sweep-range reports latencies only; it never compares with fiber.
        cfg = tmp_path / "loop.yaml"
        cfg.write_text(LOOP_YAML)
        out = tmp_path / "out"
        assert main(["sweep-range", "--config", str(cfg), "--out", str(out),
                     "--duration", "2", "--ranges", "1500"]) == 0
        ((name, _, avg, _),) = read_rows(out / "sweep_range.csv")[1:]
        assert name == "loop" and float(avg) > 0

    def test_average_latency_non_increasing_in_range(self, tmp_path):
        out = tmp_path / "mono"
        assert main(
            ["sweep-range", "--out", str(out), "--duration", "6",
             "--ranges", "1000,1500,2000"]
        ) == 0
        rows = read_rows(out / "sweep_range.csv")[1:]
        by_scenario = {}
        for name, rng, avg, _ in rows:
            by_scenario.setdefault(name, []).append((float(rng), avg))
        for name, pairs in by_scenario.items():
            pairs.sort()
            defined = [float(avg) for _, avg in pairs if avg != ""]
            assert defined == sorted(defined, reverse=True)

    def test_short_range_reports_disconnection_without_error(self, tmp_path):
        # At 600 km there are no intra-plane links; the long corridors over
        # low latitudes disconnect, while New York-Dublin survives on the
        # high-latitude crossing-plane lattice at a latency penalty.
        out = tmp_path / "short"
        assert main(
            ["sweep-range", "--out", str(out), "--duration", "5", "--ranges", "600,1500"]
        ) == 0
        rows = {(r[0], r[1]): r for r in read_rows(out / "sweep_range.csv")[1:]}
        assert rows[("Sao Paulo-London", "600")][2] == ""
        assert int(rows[("Sao Paulo-London", "600")][3]) == 5
        assert int(rows[("Toronto-Sydney", "600")][3]) == 5
        ny_600 = rows[("New York-Dublin", "600")]
        ny_1500 = rows[("New York-Dublin", "1500")]
        assert int(ny_600[3]) == 0
        assert float(ny_600[2]) > float(ny_1500[2])


class TestExportGeojson:
    def test_route_feature_collection(self, tmp_path):
        out = tmp_path / "geo"
        assert main(["run", "--out", str(out), "--duration", "3"]) == 0
        assert main(
            ["export-geojson", "--out", str(out), "--duration", "3",
             "--scenario", "New York-Dublin", "--slot", "2"]
        ) == 0
        doc = json.loads((out / "new_york_dublin_slot2.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        line = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
        points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
        assert len(line) == 1
        coords = line[0]["geometry"]["coordinates"]
        assert len(points) == len(coords)
        sat_points = [p for p in points if p["properties"]["kind"] == "satellite"]
        assert len(sat_points) == len(coords) - 2
        for p in sat_points:
            assert p["properties"]["altitude_km"] == pytest.approx(550.0, abs=0.01)
        # endpoints sit at the ground stations
        ny = points[0]["geometry"]["coordinates"]
        assert ny[1] == pytest.approx(40.706913, abs=1e-6)
        assert ny[0] == pytest.approx(-74.011322, abs=1e-6)
        assert coords[0] == ny

    def test_route_matches_slot_csv(self, run_dir, tmp_path):
        # export-geojson must show the route, not only the latency, that
        # run wrote for the same slot.
        for scenario in builtin_scenarios():
            rows = read_rows(run_dir / f"{slugify(scenario.name)}_slots.csv")
            for slot in (1, 7, 20):
                assert main(["export-geojson", "--out", str(tmp_path), "--duration", "20",
                             "--scenario", scenario.name, "--slot", str(slot)]) == 0
                path = tmp_path / f"{slugify(scenario.name)}_slot{slot}.geojson"
                features = json.loads(path.read_text())["features"]
                labels = [f["properties"]["label"] for f in features
                          if f["geometry"]["type"] == "Point"]
                (line,) = [f for f in features if f["geometry"]["type"] == "LineString"]
                assert rows[slot] == [str(slot), f"{line['properties']['latency_ms']:.4f}",
                                      "|".join(labels)]

    def test_unknown_scenario_and_bad_slot(self, tmp_path, capsys):
        assert main(["export-geojson", "--out", str(tmp_path),
                     "--scenario", "Nope", "--slot", "1"]) == 1
        assert "unknown scenario" in capsys.readouterr().err
        assert main(["export-geojson", "--out", str(tmp_path), "--duration", "3",
                     "--scenario", "New York-Dublin", "--slot", "9"]) == 1
        assert "slot 9" in capsys.readouterr().err

    def test_unreachable_slot_names_the_slot(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(
            "constellation: {num_planes: 2, sats_per_plane: 2}\n"
            "topology: {min_elevation_deg: 60.0}\n"
            "duration_s: 2\n"
            "scenarios:\n"
            "  - name: nowhere\n"
            "    src: {latitude_deg: -85.0, longitude_deg: 10.0, label: S85}\n"
            "    dst: {latitude_deg: 85.0, longitude_deg: -170.0, label: N85}\n"
        )
        assert main(["export-geojson", "--config", str(cfg), "--out", str(tmp_path),
                     "--scenario", "nowhere", "--slot", "1"]) == 1
        assert "slot 1" in capsys.readouterr().err


class TestConfigLoading:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.duration_s == 3600 and cfg.slot_s == 1
        assert len(cfg.scenarios) == 3
        assert cfg.constellation.total_sats == 1584

    def test_run_config_is_a_run_with_the_run_defaults(self):
        # experiment.Run owns the run's fields and defaults; RunConfig adds
        # only where the outputs go.
        cfg, run = load_config(None), Run()
        assert isinstance(cfg, Run)
        for field in dataclasses.fields(Run):
            assert getattr(cfg, field.name) == getattr(run, field.name), field.name
        assert "REPRODUCTION_" not in Path(cli.__file__).read_text()

    def test_overrides_merge_with_defaults(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(
            "constellation: {altitude_km: 600.0}\n"
            "topology: {lisl_range_km: 2000.0}\n"
            "constants: {earth_radius_km: 6371.0}\n"
            "duration_s: 10\n"
        )
        cfg = load_config(p)
        assert cfg.constellation.altitude_km == 600.0
        assert cfg.constellation.num_planes == 24  # untouched default
        assert cfg.topology.lisl_range_km == 2000.0
        assert cfg.constants.earth_radius_km == 6371.0
        assert cfg.duration_s == 10

    def test_config_step_builds_one_run_config_and_no_shell(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.yaml"
        p.write_text("constellation: {altitude_km: 600.0}\nduration_s: 10\n")
        built = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RunConfig, "__post_init__",
                            counted("RunConfig", RunConfig.__post_init__))
        monkeypatch.setattr(Constellation, "__init__",
                            counted("Constellation", Constellation.__init__))
        configs = []
        monkeypatch.setattr(cli, "cmd_run", lambda cfg, workers: configs.append(cfg) or 0)
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(p), "--out", out, "--duration", "4",
                     "--phase-factor", "5"]) == 0
        assert built == {"RunConfig": 1}
        (cfg,) = configs
        assert (cfg.out_dir, cfg.duration_s) == (out, 4.0)
        assert cfg.constellation == ConstellationConfig(altitude_km=600.0, phase_factor=5)

    def test_options_beat_the_file(self, tmp_path):
        # The file's own duration_s would be rejected: the option replaces
        # it before the config is checked.
        p = tmp_path / "cfg.yaml"
        p.write_text("constellation: {phase_factor: 2}\nduration_s: 0\nout_dir: from-file\n")
        cfg = load_config(p, out_dir="from-option", duration_s=4.0, phase_factor=5)
        assert (cfg.out_dir, cfg.duration_s, cfg.constellation.phase_factor) == \
            ("from-option", 4.0, 5)
        with pytest.raises(CliError, match="duration_s"):
            load_config(p)

    @pytest.mark.parametrize(
        "yaml_text,shell",
        [(None, dataclasses.replace(RunConfig().constellation, phase_factor=5)),
         ("duration_s: 2\n", dataclasses.replace(RunConfig().constellation, phase_factor=5)),
         ("constellation:\n", ConstellationConfig(phase_factor=5)),
         ("constellation: {altitude_km: 600.0}\n",
          ConstellationConfig(altitude_km=600.0, phase_factor=5))],
        ids=["no-file", "no-section", "empty-section", "custom-shell"],
    )
    def test_phase_factor_option_sets_only_the_phasing(self, tmp_path, yaml_text, shell):
        p = None
        if yaml_text is not None:
            p = tmp_path / "cfg.yaml"
            p.write_text(yaml_text)
        assert load_config(p, phase_factor=5).constellation == shell

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["run", "--config", "/no/such/file.yaml"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_yaml_fails_cleanly(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("constellation: [unclosed\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "YAML" in capsys.readouterr().err

    def test_non_utf8_file_fails_naming_the_file(self, tmp_path, capsys):
        p = tmp_path / "latin1.yaml"
        p.write_bytes("duration_s: 2\n# S\xe3o Paulo\n".encode("latin-1"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert f"cannot read config {p}: 'utf-8' codec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "yaml_text,key,line",
        [("duration_s: 2\nslot_s: 1\nduration_s: 4\n", "duration_s", 3),
         ("topology: {min_elevation_deg: 30}\ntopology: {lisl_range_km: 2000}\nduration_s: 2\n",
          "topology", 2),
         ("duration_s: 2\nscenarios:\n  - name: A-B\n"
          "    src:\n      latitude_deg: 10.0\n      longitude_deg: 20.0\n      label: a\n"
          "      latitude_deg: 11.0\n"
          "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n", "latitude_deg", 8)],
        ids=["top-level-key", "section", "scenario-src-key"],
    )
    def test_repeated_keys_rejected(self, tmp_path, capsys, yaml_text, key, line):
        # PyYAML alone keeps the last value: the first would be dropped silently.
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert f"config key {key!r} repeated on line {line}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_merge_key_values_may_be_overridden(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("scenarios:\n  - name: A-B\n"
                     "    src: &a {latitude_deg: 10.0, longitude_deg: 20.0, label: a}\n"
                     "    dst: {<<: *a, latitude_deg: 30.0, label: b}\n")
        (scenario,) = load_config(p).scenarios
        assert scenario.dst == GeodeticPoint(30.0, 20.0, "b")

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("constellation: {planes: 24}\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_invalid_values_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("constellation: {num_planes: 0}\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "invalid constellation" in err

    @pytest.mark.parametrize(
        "yaml_text,where",
        [
            ("constellation: 5\n", "constellation must be a mapping"),
            ("topology: [1]\n", "topology must be a mapping"),
            ("constants: x\n", "constants must be a mapping"),
            ("scenarios: 5\n", "scenarios must be a non-empty list"),
            ("[]\n", "config must be a mapping"),
            ("constellation: {phase_factor: 1.5}\n", "phase_factor must be an integer"),
            ("constellation: {num_planes: true}\n", "num_planes must be an integer"),
            ("constellation: {1: 2, a: 3}\n", "unknown constellation keys"),
            ("topology: {occlusion_check: 'no'}\n", "occlusion_check must be true or false"),
            ("topology: {occlusion_check: 1}\n", "occlusion_check must be true or false"),
            ("duration_s: true\n", "duration_s must be a number"),
            ("duration_s: '10'\n", "duration_s must be a number"),
            ("slot_s: true\nduration_s: 2\n", "slot_s must be a number"),
            ("slot_s: '1'\n", "slot_s must be a number"),
            ("topology: {lisl_range_km: true}\n", "lisl_range_km must be a number"),
            ("topology: {lisl_range_km: '6000'}\n", "lisl_range_km must be a number"),
            ("topology: {min_elevation_deg: false}\n", "min_elevation_deg must be a number"),
            ("topology: {min_elevation_deg: '30'}\n", "min_elevation_deg must be a number"),
            ("formats: 5\n", "formats must be a string or a list of strings, got 5"),
            ("formats: [[csv]]\n", "formats must be a string or a list of strings"),
        ],
        ids=["scalar-constellation", "list-topology", "string-constants", "scalar-scenarios",
             "list-config", "float-phasing", "bool-planes", "mixed-type-keys", "string-occlusion",
             "int-occlusion", "bool-duration", "string-duration", "bool-slot", "string-slot",
             "bool-range", "string-range", "bool-mask", "string-mask", "int-formats",
             "nested-formats"],
    )
    def test_malformed_sections_rejected(self, tmp_path, capsys, yaml_text, where):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        with pytest.raises(CliError, match=where):
            load_config(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["null", "''", "5", "[a]"])
    def test_out_dir_must_be_a_non_empty_string(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "bad.yaml"
        p.write_text(f"out_dir: {value}\nduration_s: 2\n")
        with pytest.raises(CliError, match="out_dir"):
            load_config(p)
        assert main(["run", "--config", str(p)]) == 1
        assert "out_dir" in capsys.readouterr().err
        assert [x.name for x in tmp_path.iterdir()] == ["bad.yaml"]

    def test_formats_must_name_a_format(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("formats: []\nduration_s: 2\n")
        with pytest.raises(CliError, match="formats"):
            load_config(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert "formats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_option_follows_the_out_dir_rule(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--out", "", "--duration", "2"]) == 1
        assert "out_dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_slot_must_divide_duration(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("duration_s: 10\nslot_s: 3\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "divide" in capsys.readouterr().err

    @pytest.mark.parametrize("yaml_text,count", [("duration_s: 36000000\n", "3.6e+07"),
                                                 ("slot_s: 1.0e-300\n", "3.6e+303"),
                                                 ("duration_s: 1000001\n", "1000001")],
                             ids=["long-duration", "tiny-slot", "one-past-the-bound"])
    def test_horizon_beyond_the_slot_bound_rejected(self, tmp_path, capsys, yaml_text, count):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        with pytest.raises(CliError, match="more than the bound of 1,000,000"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"gives {count} slots, more than the bound of 1,000,000" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "yaml_text,where",
        [
            ("scenarios:\n"
             "  - name: nan\n"
             "    src: {latitude_deg: 10.0, longitude_deg: .nan, label: a}\n"
             "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n", "longitude_deg"),
            ("topology: {lisl_range_km: .nan}\n", "lisl_range_km"),
            ("constellation: {altitude_km: .inf}\n", "altitude_km"),
            ("constellation: {epoch: .nan}\n", "epoch"),
            ("constants: {c_vacuum: .nan}\n", "c_vacuum"),
            ("duration_s: .inf\n", "finite"),
        ],
        ids=["nan-longitude", "nan-lisl-range", "inf-altitude", "nan-epoch", "nan-c-vacuum",
             "inf-duration"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, yaml_text, where):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "finite" in err and where in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "yaml_text,where",
        [
            (f"constellation: {{altitude_km: 1{'0' * 400}}}\n", "altitude_km must be finite"),
            ("constants: {c_vacuum: 5.0e-324, fiber_refractive_index: 2.0}\n", "c_vacuum"),
            ("constants: {c_vacuum: 1.0e-300, fiber_refractive_index: 1.0e-300}\n", "c_vacuum"),
            ("constants: {earth_radius_km: 5.0e-324}\n", "earth_radius_km"),
            ("constants: {earth_rotation_rate: 1.0e+300}\nslot_s: 1.0e+10\n"
             "duration_s: 2.0e+10\n", "earth_rotation_rate"),
            ("constants: {mu_earth: 1.0e+300}\nslot_s: 1.0e+300\nduration_s: 2.0e+300\n",
             "the shell (epoch 0)"),
        ],
        ids=["int-past-the-float-range", "fiber-speed-underflows", "latency-overflows",
             "earth-radius-squared-underflows", "earth-turns-past-the-float-range",
             "shell-turns-past-the-float-range"],
    )
    def test_numbers_the_model_cannot_compute_rejected(self, tmp_path, capsys, yaml_text, where):
        # Found by tests/test_config_fuzz.py: each ended `run` in a traceback,
        # or with a warning and NaN positions.
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err
        assert [x.name for x in tmp_path.iterdir()] == ["bad.yaml"]

    @pytest.mark.parametrize(
        "yaml_text",
        ["constellation: {altitude_km: 1.0e+300}\n",
         "constants: {earth_radius_km: 1.0e+200}\n",
         "constellation: {altitude_km: 1.0e+100}\nconstants: {mu_earth: 1.0e-300}\n"],
        ids=["radius-cubed-overflows", "earth-radius-cubed-overflows", "no-mean-motion"],
    )
    @pytest.mark.parametrize(
        "command", [["run"], ["export-geojson", "--scenario", "New York-Dublin", "--slot", "1"]],
        ids=["run", "export-geojson"])
    def test_orbit_that_is_not_finite_rejected_at_load(self, tmp_path, capsys, monkeypatch,
                                                       yaml_text, command):
        # r**3 overflows, or the mean motion sqrt(mu / r**3) is 0: the shell
        # is rejected before any is built.
        def built(*args):
            raise AssertionError("shell built")

        monkeypatch.setattr(Constellation, "__init__", built)
        p = tmp_path / "orbit.yaml"
        p.write_text(yaml_text)
        assert main(command + ["--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(key in err for key in ("altitude_km", "earth_radius_km", "mu_earth"))
        assert "Traceback" not in err
        assert [x.name for x in tmp_path.iterdir()] == ["orbit.yaml"]

    @pytest.mark.parametrize(
        "yaml_text,message",
        [
            ("constants: {mu_earth: 1.0e300}\n",
             "mu_earth must be a number, got '1.0e300' (YAML reads it as a string; write 1.0e+300)"),
            ("duration_s: 5e3\n",
             "duration_s must be a number, got '5e3' (YAML reads it as a string; write 5000.0)"),
            ("scenarios:\n  - name: A-B\n"
             "    src: {latitude_deg: 1e1, longitude_deg: 20.0, label: a}\n"
             "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n",
             "latitude_deg must be a number, got '1e1' (YAML reads it as a string; write 10.0)"),
        ],
        ids=["unsigned-exponent", "no-dot", "scenario-station"],
    )
    def test_number_read_as_a_string_gets_a_hint(self, tmp_path, capsys, yaml_text, message):
        # YAML 1.1 reads a float only with a dot and a signed exponent.
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        with pytest.raises(CliError, match=re.escape(message)):
            load_config(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "'-inf'"])
    def test_string_that_is_no_finite_number_gets_no_hint(self, tmp_path, value):
        p = tmp_path / "bad.yaml"
        p.write_text(f"duration_s: {value}\n")
        with pytest.raises(CliError, match="duration_s must be a number") as raised:
            load_config(p)
        assert "YAML reads" not in str(raised.value)

    def test_config_parser_is_libyaml_where_pyyaml_has_it(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(cli._UniqueKeyLoader, base)

    @pytest.mark.parametrize(
        "args,yaml_text,where",
        [
            (["--duration", "0"], "", "duration_s"),
            ([], "duration_s: 0\n", "duration_s"),
            ([], "duration_s: 2\nscenarios:\n"
                 "  - name: '!!!'\n"
                 "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: a}\n"
                 "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n", "'!!!'"),
            ([], "duration_s: 2\nscenarios:\n"
                 "  - name: A-B\n"
                 "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: a}\n"
                 "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n"
                 "  - name: a b\n"
                 "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: a}\n"
                 "    dst: {latitude_deg: 30.0, longitude_deg: 40.0, label: c}\n", "collide"),
        ],
        ids=["duration-option-0", "duration-key-0", "unnamed-files", "colliding-files"],
    )
    @pytest.mark.parametrize("command", [["run"], ["sweep-range", "--ranges", "1500"],
                                         ["distances"]], ids=["run", "sweep-range", "distances"])
    def test_horizon_and_file_names_checked_at_load(self, tmp_path, capsys, command, args,
                                                    yaml_text, where):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        out = tmp_path / "out"
        assert main(command + ["--config", str(p), "--out", str(out)] + args) == 1
        assert where in capsys.readouterr().err
        assert [x.name for x in tmp_path.iterdir()] == ["bad.yaml"]

    def test_scalar_format_accepted(self, tmp_path):
        p = tmp_path / "csv.yaml"
        p.write_text("formats: csv\nduration_s: 2\n")
        assert load_config(p).formats == ("csv",)
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert sorted(x.suffix for x in out.iterdir()) == [".csv"] * 3

    @pytest.mark.parametrize(
        "src,dst,more",
        [
            ("label: 123", "label: b", ""),
            ("label: yes", "label: b", ""),
            ("label: a", "", ""),
            ("label: ''", "label: b", ""),
            ("label: X", "label: b",
             "  - name: two\n"
             "    src: {latitude_deg: 50.0, longitude_deg: 60.0, label: X}\n"
             "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n"),
        ],
        ids=["int-label", "bool-label", "missing-label", "empty-label", "label-names-two-points"],
    )
    def test_bad_station_labels_rejected(self, tmp_path, capsys, src, dst, more):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "scenarios:\n"
            "  - name: one\n"
            f"    src: {{latitude_deg: 10.0, longitude_deg: 20.0, {src}}}\n"
            f"    dst: {{latitude_deg: 20.0, longitude_deg: 30.0, {dst}}}\n" + more
        )
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert "label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "distances"])
    @pytest.mark.parametrize("label,why", [("New|York", "'|'"), ("x11705", "satellite ID"),
                                           ("x10101", "satellite ID")],
                             ids=["pipe", "sat-id", "first-sat-id"])
    def test_labels_that_make_paths_ambiguous_rejected(self, tmp_path, capsys, command,
                                                        label, why):
        # "New|York" would write the path New|York|x11705|... and exit 0.
        p = tmp_path / "bad.yaml"
        p.write_text(
            "duration_s: 2\nscenarios:\n"
            "  - name: NY-Dublin\n"
            f"    src: {{latitude_deg: 40.7, longitude_deg: -74.0, label: '{label}'}}\n"
            "    dst: {latitude_deg: 53.3, longitude_deg: -6.3, label: Dublin}\n"
        )
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "'NY-Dublin'" in err and repr(label) in err and why in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["distances"],
                                         ["sweep-range", "--ranges", "1500"],
                                         ["export-geojson", "--scenario", "A", "--slot", "1"]],
                             ids=lambda command: command[0])
    def test_label_naming_two_points_rejected_by_every_command(self, tmp_path, capsys, command):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "duration_s: 2\nscenarios:\n"
            "  - name: A\n"
            "    src: {latitude_deg: 40.7, longitude_deg: -74.0, label: NY}\n"
            "    dst: {latitude_deg: 53.3, longitude_deg: -6.3, label: Dublin}\n"
            "  - name: B\n"
            "    src: {latitude_deg: 41.7, longitude_deg: -74.0, label: NY}\n"
            "    dst: {latitude_deg: 51.5, longitude_deg: -0.1, label: London}\n"
        )
        assert main(command + ["--config", str(p), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "station label 'NY' names two different points" in err
        assert [x.name for x in tmp_path.iterdir()] == ["bad.yaml"]

    def test_satellite_ids_are_those_of_the_configured_shell(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        text = ("constellation: {num_planes: 2, sats_per_plane: 3}\nscenarios:\n"
                "  - name: A-B\n"
                "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: LABEL}\n"
                "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n")
        for label in ("x10104", "x10301", "x1"):
            p.write_text(text.replace("LABEL", label))
            assert load_config(p).scenarios[0].src.label == label
        p.write_text(text.replace("LABEL", "x10203"))
        with pytest.raises(CliError, match="'x10203' is a satellite ID"):
            load_config(p)

    @pytest.mark.parametrize("name", ["~", "12", "true"])
    @pytest.mark.parametrize("command", ["run", "distances"])
    def test_non_string_scenario_names_rejected(self, tmp_path, capsys, command, name):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "duration_s: 2\nscenarios:\n"
            "  - name: A-B\n"
            "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: a}\n"
            "    dst: {latitude_deg: 20.0, longitude_deg: 30.0, label: b}\n"
            f"  - name: {name}\n"
            "    src: {latitude_deg: 10.0, longitude_deg: 20.0, label: a}\n"
            "    dst: {latitude_deg: 30.0, longitude_deg: 40.0, label: c}\n"
        )
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "scenario #2" in err and "name" in err
        assert [x.name for x in tmp_path.iterdir()] == ["bad.yaml"]


class TestWriteFailure:
    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep-range", "--ranges", "1500"],
        ["export-geojson", "--scenario", "New York-Dublin", "--slot", "1"],
    ], ids=["run", "sweep-range", "export-geojson"])
    def test_out_below_a_regular_file(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(command + ["--out", str(blocker / "out"), "--duration", "2"]) == 1
        assert "cannot write" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_run_removes_what_it_wrote_and_nothing_else(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        assert main(["run", "--out", str(out), "--duration", "2"]) == 1
        assert "cannot write" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert (out / "summary.json").is_dir()


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this source tree, its output captured."""
    src = str(Path(leolat.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


class TestProcess:
    """A command as its own process: what it loads, and how it ends."""

    def test_run_writes_what_main_writes_and_exits_after_its_log(self, tmp_path):
        proc, inproc = tmp_path / "process", tmp_path / "main"
        done = python("-m", "leolat", "run", "--duration", "4", "--out", str(proc))
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1].startswith(f"INFO run complete: 4 files in {proc}")
        assert main(["run", "--duration", "4", "--out", str(inproc)]) == 0
        names = sorted(p.name for p in proc.iterdir())
        assert names == sorted(p.name for p in inproc.iterdir())
        for name in names:
            assert (proc / name).read_bytes() == (inproc / name).read_bytes()

    def test_sweep_range_prints_its_output_path(self, tmp_path):
        done = python("-m", "leolat", "sweep-range", "--duration", "2", "--ranges", "1500",
                      "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{tmp_path / 'sweep_range.csv'}\n"

    def test_one_process_never_loads_the_pool(self, tmp_path):
        code = """if True:
            import sys
            import leolat.cli
            pool = {"multiprocessing", "concurrent.futures.process"}
            assert not pool & set(sys.modules), "import leolat.cli"
            assert leolat.cli.main(["run", "--duration", "2", "--workers", "1",
                                    "--out", sys.argv[1]]) == 0
            assert not pool & set(sys.modules), "a run in one process"
        """
        done = python("-c", code, str(tmp_path))
        assert done.returncode == 0, done.stderr

    def test_heap_freezes_once_at_exit_and_never_in_main(self):
        # A handler registered before main runs after the ones main registers.
        code = """if True:
            import atexit, gc
            from leolat.cli import main

            freeze, calls = gc.freeze, []

            def counted():
                calls.append(None)
                freeze()

            gc.freeze = counted
            atexit.register(lambda: print("at exit:", len(calls), gc.get_freeze_count() > 0))
            for _ in range(2):
                assert main(["distances"]) == 0
            print("after main:", len(calls), gc.get_freeze_count() > 0)
        """
        done = python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["after main: 0 False", "at exit: 1 True"]
