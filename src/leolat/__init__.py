"""Latency simulator for laser-linked LEO constellations vs. terrestrial fiber."""

__version__ = "0.1.0"

from .geo import (
    CONSTANTS,
    GeodeticPoint,
    PhysicalConstants,
    geodetic_to_inertial,
    great_circle_distance,
    inertial_to_geodetic,
)
from .constellation import (
    Constellation,
    ConstellationConfig,
    parse_sat_id,
)
from .topology import (
    NodeRef,
    SnapshotGraph,
    TopologyParams,
    build_snapshot,
    neighbor_census,
)
from .routing import Route, shortest_path
from .experiment import (
    Scenario,
    ScenarioSummary,
    builtin_scenarios,
    chord_bound_ms,
    oftn_latency,
    run_scenarios,
)

__all__ = [
    "CONSTANTS",
    "Constellation",
    "ConstellationConfig",
    "GeodeticPoint",
    "NodeRef",
    "PhysicalConstants",
    "Route",
    "Scenario",
    "ScenarioSummary",
    "SnapshotGraph",
    "TopologyParams",
    "build_snapshot",
    "builtin_scenarios",
    "chord_bound_ms",
    "geodetic_to_inertial",
    "great_circle_distance",
    "inertial_to_geodetic",
    "neighbor_census",
    "oftn_latency",
    "parse_sat_id",
    "run_scenarios",
    "shortest_path",
]
