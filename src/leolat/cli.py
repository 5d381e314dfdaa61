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

import argparse
import csv
import dataclasses
import json
import logging
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__
from .constellation import ConstellationConfig
from .experiment import (
    REPRODUCTION_MIN_ELEVATION_DEG,
    REPRODUCTION_PHASE_FACTOR,
    Scenario,
    SlotResult,
    _SlotEngine,
    builtin_scenarios,
    oftn_latency,
    run_scenarios,
    slot_count,
)
from .geo import (
    CONSTANTS,
    GeodeticPoint,
    PhysicalConstants,
    check_fields,
    great_circle_distance,
    inertial_to_geodetic,
)
from .topology import TopologyParams

log = logging.getLogger("leolat")


class CliError(Exception):
    """User-facing failure; message printed to stderr, nonzero exit."""


def round4(x: float) -> float:
    """Latency serialization precision: fixed 4 decimals, as a float."""
    return float(f"{x:.4f}")


@dataclass(frozen=True)
class RunConfig:
    constellation: ConstellationConfig
    topology: TopologyParams
    constants: PhysicalConstants = CONSTANTS
    scenarios: tuple[Scenario, ...] = ()
    duration_s: float = 3600
    slot_s: float = 1
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        check_fields(self)
        slot_count(self.duration_s, self.slot_s)
        unknown = set(self.formats) - {"csv", "json"}
        if unknown:
            raise ValueError(f"unknown output formats: {sorted(unknown)}")

    @property
    def n_slots(self) -> int:
        return slot_count(self.duration_s, self.slot_s)


def default_run_config() -> RunConfig:
    """The reproduction setup: calibrated phasing and elevation mask."""
    return RunConfig(
        constellation=ConstellationConfig(phase_factor=REPRODUCTION_PHASE_FACTOR),
        topology=TopologyParams(min_elevation_deg=REPRODUCTION_MIN_ELEVATION_DEG),
        scenarios=tuple(builtin_scenarios()),
    )


# -- config file ---------------------------------------------------------------


def _from_mapping(cls, mapping: dict, what: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(mapping) - fields
    if unknown:
        raise CliError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    try:
        return cls(**mapping)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {what}: {exc}") from exc


def _parse_point(mapping: dict, what: str) -> GeodeticPoint:
    if not isinstance(mapping, dict):
        raise CliError(f"{what} must be a mapping with latitude_deg/longitude_deg/label")
    point = _from_mapping(GeodeticPoint, mapping, what)
    if not isinstance(point.label, str) or not point.label:
        raise CliError(f"{what} label must be a non-empty string, got {point.label!r}")
    return point


def load_config(path: str | Path | None) -> RunConfig:
    """RunConfig from a YAML file; absent sections keep reproduction defaults."""
    if path is None:
        return default_run_config()
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(raw) or {}
    except yaml.YAMLError as exc:
        raise CliError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config {path} must be a mapping")

    known = {"constellation", "topology", "constants", "scenarios",
             "duration_s", "slot_s", "out_dir", "formats"}
    unknown = set(doc) - known
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown, key=str)}")

    # A section that is present merges over the plain type defaults; the
    # calibrated reproduction values apply only to omitted sections, so a
    # custom shell never inherits a phasing calibrated for a different one.
    base = default_run_config()
    sections = {}
    for key, cls in (("constellation", ConstellationConfig), ("topology", TopologyParams),
                     ("constants", PhysicalConstants)):
        if key not in doc:
            sections[key] = getattr(base, key)
            continue
        section = {} if doc[key] is None else doc[key]
        if not isinstance(section, dict):
            raise CliError(f"config section {key} must be a mapping, got {section!r}")
        sections[key] = _from_mapping(cls, dataclasses.asdict(cls()) | section, key)
    scenarios = base.scenarios
    if "scenarios" in doc:
        entries = doc["scenarios"]
        if not isinstance(entries, list) or not entries:
            raise CliError(f"scenarios must be a non-empty list, got {entries!r}")
        parsed = []
        for i, sc in enumerate(entries):
            if not isinstance(sc, dict) or set(sc) - {"name", "src", "dst"}:
                raise CliError(f"scenario #{i + 1} must have keys name/src/dst")
            try:
                parsed.append(
                    Scenario(
                        name=str(sc["name"]),
                        src=_parse_point(sc["src"], f"scenario #{i + 1} src"),
                        dst=_parse_point(sc["dst"], f"scenario #{i + 1} dst"),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise CliError(f"scenario #{i + 1} is invalid: {exc}") from exc
        by_label: dict[str, GeodeticPoint] = {}
        for point in (p for sc in parsed for p in (sc.src, sc.dst)):
            if by_label.setdefault(point.label, point) != point:
                raise CliError(f"station label {point.label!r} names two different points")
        scenarios = tuple(parsed)

    out_dir = doc.get("out_dir", base.out_dir)
    if not isinstance(out_dir, str) or not out_dir:
        raise CliError(f"out_dir must be a non-empty string, got {out_dir!r}")
    formats = doc.get("formats", base.formats)
    try:
        return RunConfig(
            **sections,
            scenarios=scenarios,
            duration_s=doc.get("duration_s", base.duration_s),
            slot_s=doc.get("slot_s", base.slot_s),
            out_dir=out_dir,
            formats=(formats,) if isinstance(formats, str) else tuple(formats),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid config: {exc}") from exc


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if getattr(args, "duration", None) is not None:
        cfg = dataclasses.replace(cfg, duration_s=args.duration)
    if getattr(args, "phase_factor", None) is not None:
        cfg = dataclasses.replace(
            cfg,
            constellation=dataclasses.replace(cfg.constellation, phase_factor=args.phase_factor),
        )
    return cfg


# -- serialization ---------------------------------------------------------------


def slugify(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _summary_record(summary) -> dict:
    """JSON form of a summary; improvement fields recomputed from the
    rounded values they are stored next to, so the file round-trips."""
    oftn_ms = round4(summary.oftn_latency_ms)
    rec = {
        "name": summary.name,
        "oftn_distance_km": float(f"{summary.oftn_distance_km:.2f}"),
        "oftn_latency_ms": oftn_ms,
        "slots": summary.slots,
        "unreachable_slots": summary.unreachable_slots,
    }
    if summary.owsn_avg_latency_ms is None:
        rec.update(
            owsn_avg_latency_ms=None, owsn_min_ms=None, owsn_max_ms=None,
            improvement_ms=None, improvement_pct=None,
        )
    else:
        owsn_ms = round4(summary.owsn_avg_latency_ms)
        rec.update(
            owsn_avg_latency_ms=owsn_ms,
            owsn_min_ms=round4(summary.owsn_min_ms),
            owsn_max_ms=round4(summary.owsn_max_ms),
            improvement_ms=oftn_ms - owsn_ms,
            improvement_pct=100.0 * (oftn_ms - owsn_ms) / oftn_ms,
        )
    return rec


def _config_record(cfg: RunConfig) -> dict:
    rec = {
        "constellation": dataclasses.asdict(cfg.constellation),
        "topology": dataclasses.asdict(cfg.topology),
        "constants": dataclasses.asdict(cfg.constants),
        "scenarios": [
            {
                "name": s.name,
                "src": dataclasses.asdict(s.src),
                "dst": dataclasses.asdict(s.dst),
            }
            for s in cfg.scenarios
        ],
        "duration_s": cfg.duration_s,
        "slot_s": cfg.slot_s,
        "formats": list(cfg.formats),
    }
    return rec


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_slots_csv(path: Path, results: list[SlotResult]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["slot", "latency_ms", "path"])
        for r in results:
            if r.route is None:
                w.writerow([r.slot_index, "", ""])
            else:
                w.writerow([r.slot_index, f"{r.latency_ms:.4f}", "|".join(r.route.labels())])


# -- subcommands ---------------------------------------------------------------


def cmd_run(cfg: RunConfig, workers: int) -> int:
    slugs = [slugify(s.name) for s in cfg.scenarios]
    if len(set(slugs)) != len(slugs):
        raise CliError("scenario names collide after slugification; rename them")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    runs = run_scenarios(
        cfg.scenarios,
        cfg.constellation,
        cfg.topology,
        duration_s=cfg.duration_s,
        slot_s=cfg.slot_s,
        workers=workers,
        constants=cfg.constants,
    )
    per_scenario = [(scenario, results, summary)
                    for scenario, (results, summary) in zip(cfg.scenarios, runs)]
    for scenario, _, summary in per_scenario:
        log.info("%s: %d slots, %d unreachable",
                 scenario.name, summary.slots, summary.unreachable_slots)
    log.info("routed %d scenarios in %.1f s wall", len(runs), time.perf_counter() - t0)

    written: list[Path] = []
    try:
        if "csv" in cfg.formats:
            for scenario, results, _ in per_scenario:
                path = out_dir / f"{slugify(scenario.name)}_slots.csv"
                _write_slots_csv(path, results)
                written.append(path)
        if "json" in cfg.formats:
            path = out_dir / "summary.json"
            _write_json(
                path,
                {
                    "version": __version__,
                    "config": _config_record(cfg),
                    "scenarios": [_summary_record(s) for _, _, s in per_scenario],
                },
            )
            written.append(path)
    except OSError as exc:
        for p in written:
            p.unlink(missing_ok=True)
        raise CliError(f"cannot write outputs under {out_dir}: {exc}") from exc

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
    if any(r <= 0 for r in ranges):
        raise CliError("LISL ranges must be > 0")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep_range.csv"
    rows = []
    for lisl_range in ranges:
        params = dataclasses.replace(cfg.topology, lisl_range_km=lisl_range)
        runs = run_scenarios(
            cfg.scenarios, cfg.constellation, params,
            duration_s=cfg.duration_s, slot_s=cfg.slot_s,
            workers=workers, constants=cfg.constants,
        )
        for scenario, (_, summary) in zip(cfg.scenarios, runs):
            avg = "" if summary.owsn_avg_latency_ms is None else f"{summary.owsn_avg_latency_ms:.4f}"
            rows.append([scenario.name, f"{lisl_range:g}", avg, summary.unreachable_slots])
            log.info("range %g km, %s: avg %s ms, %d unreachable",
                     lisl_range, scenario.name, avg or "n/a", summary.unreachable_slots)
    try:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["scenario", "lisl_range_km", "avg_latency_ms", "unreachable_slots"])
            w.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
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

    engine = _SlotEngine(cfg.constellation, cfg.topology, [scenario], cfg.constants)
    (route,) = next(engine.route_slots([t]))
    if route is None:
        raise CliError(f"scenario {scenario.name!r} has no route at slot {slot}")

    constellation = engine.constellation
    positions = constellation.positions_at(t)
    points_by_label = {
        scenario.src.label: (scenario.src.latitude_deg, scenario.src.longitude_deg, 0.0),
        scenario.dst.label: (scenario.dst.latitude_deg, scenario.dst.longitude_deg, 0.0),
    }
    features = []
    line_coords = []
    for node in route.nodes:
        if node.is_ground:
            lat, lon, alt_km = points_by_label[node.label]
            props = {"kind": "ground", "label": node.label}
        else:
            glat, glon, r = inertial_to_geodetic(
                positions[constellation.sat_index[node.label]], t,
                cfg.constants.earth_rotation_rate,
            )
            lat, lon, alt_km = glat, glon, r - cfg.constants.earth_radius_km
            props = {"kind": "satellite", "label": node.label, "altitude_km": alt_km}
        coord = [lon, lat, alt_km * 1000.0]
        line_coords.append(coord)
        features.append(
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": coord},
             "properties": props}
        )
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

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{slugify(scenario.name)}_slot{slot}.geojson"
    try:
        _write_json(path, {"type": "FeatureCollection", "features": features})
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
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
                       help="worker processes over time slots (default 1)")


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
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            return cmd_run(cfg, workers=max(1, args.workers))
        if args.command == "distances":
            return cmd_distances(cfg)
        if args.command == "sweep-range":
            ranges = [float(r) for r in args.ranges.split(",") if r.strip()]
            return cmd_sweep_range(cfg, ranges, workers=max(1, args.workers))
        if args.command == "export-geojson":
            return cmd_export_geojson(cfg, args.scenario, args.slot)
        raise CliError(f"unhandled command {args.command!r}")  # pragma: no cover
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
