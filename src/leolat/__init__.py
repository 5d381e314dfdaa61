"""Latency simulator for laser-linked LEO constellations vs. terrestrial fiber."""

__version__ = "0.1.0"

from .geo import (
    CONSTANTS,
    GeodeticPoint,
    PhysicalConstants,
    elevation_angle,
    geodetic_to_inertial,
    great_circle_distance,
    inertial_to_geodetic,
    line_of_sight_clear,
)
from .constellation import (
    Constellation,
    ConstellationConfig,
    SatelliteElement,
    build_constellation,
    format_sat_id,
    parse_sat_id,
    position_at,
)
from .topology import (
    Link,
    LinkClass,
    NodeRef,
    SnapshotGraph,
    TopologyParams,
    build_snapshot,
    classify_link,
    neighbor_census,
)
from .routing import Route, enumerate_paths_oracle, shortest_path
from .experiment import (
    Scenario,
    ScenarioSummary,
    SlotResult,
    builtin_scenarios,
    chord_bound_ms,
    compare,
    oftn_latency,
    run_scenario,
    run_scenarios,
)

__all__ = [
    "CONSTANTS",
    "Constellation",
    "ConstellationConfig",
    "GeodeticPoint",
    "Link",
    "LinkClass",
    "NodeRef",
    "PhysicalConstants",
    "Route",
    "SatelliteElement",
    "Scenario",
    "ScenarioSummary",
    "SlotResult",
    "SnapshotGraph",
    "TopologyParams",
    "build_constellation",
    "build_snapshot",
    "builtin_scenarios",
    "chord_bound_ms",
    "classify_link",
    "compare",
    "elevation_angle",
    "enumerate_paths_oracle",
    "format_sat_id",
    "geodetic_to_inertial",
    "great_circle_distance",
    "inertial_to_geodetic",
    "line_of_sight_clear",
    "neighbor_census",
    "oftn_latency",
    "parse_sat_id",
    "position_at",
    "run_scenario",
    "run_scenarios",
    "shortest_path",
]
