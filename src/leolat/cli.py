"""Command-line interface: config loading, subcommands, serialized outputs.

Subcommands:
    run             full slotted sweep; writes per-scenario slot CSVs and summary.json
    distances       fiber-baseline distances and latencies, no simulation
    sweep-range     average latency vs. laser link range, CSV output
    export-geojson  one slot's route as a GeoJSON FeatureCollection

All outputs are deterministic for a given config: identical runs (any
worker count) produce byte-identical files. Wall-clock timing therefore
goes to the log, never into the artifacts.
"""

from __future__ import annotations

# numpy and scipy load before the stdlib and yaml: the reverse order starts ~20 ms slower.
from . import __version__
from .geo import GeodeticPoint, PhysicalConstants, great_circle_distance, inertial_to_geodetic
from .constellation import ConstellationConfig
from .topology import TopologyParams
from .experiment import Run, Scenario, _SlotEngine, compare, oftn_latency, run_scenarios

import argparse
import atexit
import csv
import dataclasses
import functools
import gc
import io
import json
import logging
import math
import re
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

log = logging.getLogger("leolat")


class CliError(Exception):
    """User-facing failure; message printed to stderr, nonzero exit."""


def round4(x: float | None) -> float | None:
    """Latency serialization precision: fixed 4 decimals, as a float;
    None (no latency) stays None."""
    return None if x is None else float(f"{x:.4f}")


def slugify(name: str) -> str:
    """File-name stem of a scenario name."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


@dataclass(frozen=True)
class RunConfig(Run):
    """A Run of the CLI, and where its outputs go."""

    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        super().__post_init__()
        if self.n_slots == 0:
            raise ValueError(f"duration_s must cover at least one slot, got {self.duration_s}")
        stems = [slugify(s.name) for s in self.scenarios]
        unnamed = [s.name for s, stem in zip(self.scenarios, stems) if not stem]
        if unnamed:
            raise ValueError(f"scenario names need a letter or digit to name files: {unnamed}")
        if len(set(stems)) != len(stems):
            raise ValueError("scenario names collide after slugification; rename them")
        # The path column joins node labels with "|": a station label must
        # neither contain it nor read as a satellite of the shell.
        sat_ids = set(self.constellation.sat_ids)
        for s in self.scenarios:
            for label in (s.src.label, s.dst.label):
                if "|" in label or label in sat_ids:
                    raise ValueError(f"scenario {s.name!r}: station label {label!r} " + (
                        "contains '|', the path separator" if "|" in label
                        else "is a satellite ID of the shell"))
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValueError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        if not self.formats:
            raise ValueError("formats must name at least one of csv, json")
        unknown = set(self.formats) - {"csv", "json"}
        if unknown:
            raise ValueError(f"unknown output formats: {sorted(unknown)}")


# -- config file ---------------------------------------------------------------


def _from_mapping(cls, what: str, mapping, **readers):
    """cls(**mapping), each value with a reader read by it first; null reads
    as {}. Malformed input raises CliError naming what."""
    mapping = {} if mapping is None else mapping
    if not isinstance(mapping, dict):
        raise CliError(f"{what} must be a mapping, got {mapping!r}")
    unknown = set(mapping) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise CliError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    try:
        return cls(**{k: readers[k](v) if k in readers else v for k, v in mapping.items()})
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {what}: {exc}{_string_number_hint(mapping, exc)}") from exc


def _string_number_hint(mapping: dict, exc: Exception) -> str:
    """Why a value the error calls not a number may be one: YAML 1.1 reads
    a float only with a dot and a signed exponent, so 1.0e300 and 5e3 load
    as strings. Empty unless the error names such a string of the mapping
    that reads as a finite number."""
    for value in mapping.values():
        if isinstance(value, str) and f"must be a number, got {value!r}" in str(exc):
            try:
                number = float(value)
            except ValueError:
                continue
            if math.isfinite(number):
                # PyYAML writes a float as YAML 1.1 reads it back, e.g. 1.0e+300.
                return f" (YAML reads it as a string; write {yaml.safe_dump(number).split()[0]})"
    return ""


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader (libyaml's, where PyYAML was built with it) that rejects
    a key repeated within one mapping, where PyYAML would keep the last
    value silently."""

    def construct_unique_map(self, node):
        seen = set()
        for k, _ in node.value:
            # Merge keys may repeat; the base class rejects unhashable keys.
            if isinstance(k, yaml.ScalarNode) and k.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(k)
                if key in seen:
                    raise CliError(f"config key {key!r} repeated on line {k.start_mark.line + 1}")
                seen.add(key)
        return self.construct_yaml_map(node)


_UniqueKeyLoader.add_constructor("tag:yaml.org,2002:map", _UniqueKeyLoader.construct_unique_map)


def _scenarios(entries) -> tuple[Scenario, ...]:
    if not isinstance(entries, list) or not entries:
        raise CliError(f"scenarios must be a non-empty list, got {entries!r}")
    return tuple(
        _from_mapping(Scenario, f"scenario #{i}", sc,
                      src=functools.partial(_from_mapping, GeodeticPoint, f"scenario #{i} src"),
                      dst=functools.partial(_from_mapping, GeodeticPoint, f"scenario #{i} dst"))
        for i, sc in enumerate(entries, start=1))


def _formats(value) -> tuple[str, ...]:
    formats = [value] if isinstance(value, str) else value
    if not isinstance(formats, list) or not all(isinstance(f, str) for f in formats):
        raise CliError(f"formats must be a string or a list of strings, got {value!r}")
    return tuple(formats)


def load_config(path: str | Path | None, out_dir: str | None = None,
                duration_s: float | None = None, phase_factor: int | None = None) -> RunConfig:
    """RunConfig from a YAML file (None: no file) and the CLI options: an
    option that is not None replaces the file's value for its key. Absent
    keys and sections keep RunConfig's defaults."""
    doc = None
    if path is not None:
        try:
            raw = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = yaml.load(raw, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise CliError(f"config {path} is not valid YAML: {exc}") from exc
    if isinstance(doc, dict | None):  # _from_mapping rejects anything else
        options = {"out_dir": out_dir, "duration_s": duration_s}
        doc = (doc or {}) | {key: value for key, value in options.items() if value is not None}
        shell = doc.get("constellation")
        if phase_factor is not None and isinstance(shell, dict | None):
            doc["constellation"] = (shell or {}) | {"phase_factor": phase_factor}
    # A present section fills its omitted keys from the plain type defaults;
    # the calibrated reproduction values apply only to omitted sections, so
    # a custom shell never inherits a phasing calibrated for a different one.
    return _from_mapping(
        RunConfig, "config", doc,
        constellation=functools.partial(_from_mapping, ConstellationConfig, "constellation"),
        topology=functools.partial(_from_mapping, TopologyParams, "topology"),
        constants=functools.partial(_from_mapping, PhysicalConstants, "constants"),
        scenarios=_scenarios,
        formats=_formats)


# -- serialization ---------------------------------------------------------------


def _summary_record(summary) -> dict:
    """JSON form of a summary; improvement fields recomputed from the
    rounded values they are stored next to, so the file round-trips. A
    scenario with no reachable slot has null latencies and improvement."""
    oftn_ms = round4(summary.oftn_latency_ms)
    owsn_ms = round4(summary.owsn_avg_latency_ms)
    improvement_ms, improvement_pct = (None, None) if owsn_ms is None else compare(owsn_ms, oftn_ms)
    return {
        "name": summary.name,
        "oftn_distance_km": float(f"{summary.oftn_distance_km:.2f}"),
        "oftn_latency_ms": oftn_ms,
        "slots": summary.slots,
        "unreachable_slots": summary.unreachable_slots,
        "owsn_avg_latency_ms": owsn_ms,
        "owsn_min_ms": round4(summary.owsn_min_ms),
        "owsn_max_ms": round4(summary.owsn_max_ms),
        "improvement_ms": improvement_ms,
        "improvement_pct": improvement_pct,
    }


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_artifacts(out_dir: Path, files: dict[str, str]) -> list[Path]:
    """Write each named text under out_dir, creating it, and return the
    paths. If any write fails, every file this call opened is removed."""
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out_dir / name
            with open(path, "w", newline="") as f:
                written.append(path)
                f.write(text)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        raise CliError(f"cannot write outputs under {out_dir}: {exc}") from exc
    return written


# -- subcommands ---------------------------------------------------------------


def cmd_run(cfg: RunConfig, workers: int) -> int:
    # summary.json compares each hour average with the rounded baseline.
    flat = [s.name for s in cfg.scenarios if round4(oftn_latency(great_circle_distance(
        s.src, s.dst, cfg.constants.earth_radius_km), cfg.constants)) == 0]
    if flat:
        raise CliError(f"no fiber baseline to compare with, stations coincide: {', '.join(flat)}")
    out_dir = Path(cfg.out_dir)
    t0 = time.perf_counter()

    runs = run_scenarios(cfg, workers)
    for scenario, (_, summary) in zip(cfg.scenarios, runs):
        log.info("%s: %d slots, %d unreachable",
                 scenario.name, summary.slots, summary.unreachable_slots)
    log.info("routed %d scenarios in %.1f s wall", len(runs), time.perf_counter() - t0)

    files = {}
    if "csv" in cfg.formats:
        for s, (routes, _) in zip(cfg.scenarios, runs):
            files[f"{slugify(s.name)}_slots.csv"] = _csv_text(["slot", "latency_ms", "path"], (
                [k, "", ""] if route is None else
                [k, f"{route.total_latency_s * 1000.0:.4f}", "|".join(route.labels())]
                for k, route in enumerate(routes, start=1)))
    if "json" in cfg.formats:
        files["summary.json"] = _json_text({
            "version": __version__,
            # The config as load_config reads it, less out_dir.
            "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out_dir"},
            "scenarios": [_summary_record(s) for _, s in runs],
        })
    written = _write_artifacts(out_dir, files)
    log.info("run complete: %d files in %s, %.1f s wall",
             len(written), out_dir, time.perf_counter() - t0)
    return 0


def cmd_distances(cfg: RunConfig) -> int:
    for s in cfg.scenarios:
        d = great_circle_distance(s.src, s.dst, cfg.constants.earth_radius_km)
        print(f"{s.name}, {d:.2f} km, {oftn_latency(d, cfg.constants):.2f} ms")
    return 0


def cmd_sweep_range(cfg: RunConfig, ranges: list[float], workers: int) -> int:
    if not ranges:
        raise CliError("at least one LISL range is required")
    # Every range is checked before any is routed. Each is written as the
    # shortest text that reads back as it, so distinct ranges never share a label.
    variants = [dataclasses.replace(
        cfg, topology=dataclasses.replace(cfg.topology, lisl_range_km=r)) for r in ranges]
    km = functools.partial(np.format_float_positional, trim="-")
    if len(set(ranges)) < len(ranges):
        repeated = next(r for r in ranges if ranges.count(r) > 1)
        raise CliError(f"--ranges repeats {km(repeated)} km")
    rows = []
    for run in variants:
        lisl_range = km(run.topology.lisl_range_km)
        for scenario, (_, summary) in zip(cfg.scenarios, run_scenarios(run, workers)):
            avg = "" if summary.owsn_avg_latency_ms is None else f"{summary.owsn_avg_latency_ms:.4f}"
            rows.append([scenario.name, lisl_range, avg, summary.unreachable_slots])
            log.info("range %s km, %s: avg %s ms, %d unreachable", lisl_range,
                     scenario.name, avg or "n/a", summary.unreachable_slots)
    (path,) = _write_artifacts(Path(cfg.out_dir), {"sweep_range.csv": _csv_text(
        ["scenario", "lisl_range_km", "avg_latency_ms", "unreachable_slots"], rows)})
    print(path)
    return 0


def cmd_export_geojson(cfg: RunConfig, scenario_name: str, slot: int) -> int:
    matches = [s for s in cfg.scenarios if s.name == scenario_name]
    if not matches:
        names = ", ".join(s.name for s in cfg.scenarios)
        raise CliError(f"unknown scenario {scenario_name!r} (have: {names})")
    if not 1 <= slot <= cfg.n_slots:
        raise CliError(f"slot {slot} outside 1..{cfg.n_slots}")
    scenario = matches[0]
    t = (slot - 1) * cfg.slot_s

    engine = _SlotEngine(dataclasses.replace(cfg, scenarios=(scenario,)))
    (route,) = next(engine.route_slots([t]))
    if route is None:
        raise CliError(f"scenario {scenario.name!r} has no route at slot {slot}")

    positions = dict(zip(engine.constellation.sat_ids, engine.constellation.positions_at(t)))
    stations = {p.label: p for p in (scenario.src, scenario.dst)}
    features = []
    for node in route.nodes:
        if node.is_ground:
            point = stations[node.label]
            lat, lon, alt_km = point.latitude_deg, point.longitude_deg, 0.0
            props = {"kind": "ground", "label": node.label}
        else:
            lat, lon, r = inertial_to_geodetic(positions[node.label], t,
                                               cfg.constants.earth_rotation_rate)
            alt_km = r - cfg.constants.earth_radius_km
            props = {"kind": "satellite", "label": node.label, "altitude_km": alt_km}
        coord = [lon, lat, alt_km * 1000.0]
        features.append(
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": coord},
             "properties": props}
        )
    line_coords = [f["geometry"]["coordinates"] for f in features]
    features.append(
        {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": line_coords},
            "properties": {
                "kind": "route",
                "scenario": scenario.name,
                "slot": slot,
                "latency_ms": round4(route.total_latency_s * 1000.0),
                "satellite_count": route.satellite_count,
            },
        }
    )

    (path,) = _write_artifacts(Path(cfg.out_dir), {
        f"{slugify(scenario.name)}_slot{slot}.geojson":
            _json_text({"type": "FeatureCollection", "features": features})})
    print(path)
    return 0


# -- argument parsing ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, workers: bool = True) -> None:
    p.add_argument("--config", metavar="PATH", help="YAML run configuration")
    p.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    p.add_argument("--phase-factor", type=int, metavar="K",
                   help="override the constellation phasing factor")
    p.add_argument("--duration", type=float, metavar="S",
                   help="override the sweep duration in seconds")
    if workers:
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="processes routing time slots, this one included and at most one "
                            "per usable core; this one routes the first chunk (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leolat",
        description="Latency of laser-linked LEO constellation routes vs. terrestrial fiber.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="slotted sweep; writes slot CSVs and summary.json")
    _add_common(p_run)

    p_dist = sub.add_parser("distances", help="fiber baseline distances and latencies")
    _add_common(p_dist, workers=False)

    p_sweep = sub.add_parser("sweep-range", help="average latency vs. laser link range")
    _add_common(p_sweep)
    p_sweep.add_argument("--ranges", required=True, metavar="KM[,KM...]",
                         help="comma-separated LISL ranges in km")

    p_geo = sub.add_parser("export-geojson", help="export one slot's route as GeoJSON")
    _add_common(p_geo, workers=False)
    p_geo.add_argument("--scenario", required=True, help="scenario name, e.g. 'New York-Dublin'")
    p_geo.add_argument("--slot", type=int, required=True, help="1-based time slot")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Freeze the heap at interpreter exit, after every file is closed, so
    # that teardown leaves the ~43,000 objects numpy and scipy made at import
    # to the OS instead of collecting them, which takes longer than a short
    # command routes. Registered once per process; an in-process caller
    # keeps collecting while it lives.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, out_dir=args.out, duration_s=args.duration,
                          phase_factor=args.phase_factor)
        if args.command == "run":
            return cmd_run(cfg, workers=args.workers)
        if args.command == "distances":
            return cmd_distances(cfg)
        if args.command == "sweep-range":
            try:
                ranges = [float(r) for r in args.ranges.split(",") if r.strip()]
            except ValueError as exc:
                raise CliError(f"--ranges: {exc}") from None
            return cmd_sweep_range(cfg, ranges, workers=args.workers)
        if args.command == "export-geojson":
            return cmd_export_geojson(cfg, args.scenario, args.slot)
        raise CliError(f"unhandled command {args.command!r}")  # pragma: no cover
    except (CliError, ValueError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
