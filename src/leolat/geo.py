"""Spherical-Earth geometry: coordinates, rotation, distances, visibility.

All positions are Earth-centered inertial (ECI), in km. The Greenwich
meridian is aligned with the inertial +x axis at t = 0; ground points
rotate about +z at the sidereal rate. Angles are degrees at the API
boundary and radians internally.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

Vec3 = np.ndarray  # shape (3,), km, ECI frame


_FIELD_KINDS = {"int": (int, "an integer"), "bool": (bool, "true or false")}


def check_number(name: str, value) -> None:
    """Raise ValueError naming the field unless value is a finite real
    number. Neither a bool nor a string passes for a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # exact for any int
        raise ValueError(f"{name} must be finite, got {value}")


def check_fields(obj) -> None:
    """Raise ValueError naming the field unless every float field of a
    dataclass passes check_number, every int field holds an int and every
    bool field a bool."""
    for f in dataclasses.fields(obj):
        kind = getattr(f.type, "__name__", f.type)
        value = getattr(obj, f.name)
        if kind == "float":
            check_number(f.name, value)
        elif kind in _FIELD_KINDS:
            cls, what = _FIELD_KINDS[kind]
            if not isinstance(value, cls) or (cls is int and isinstance(value, bool)):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed physical model parameters; never mutated during a run."""

    c_vacuum: float = 299_792_458.0          # m/s
    fiber_refractive_index: float = 1.4675   # Corning SMF at 1310 nm
    earth_radius_km: float = 6378.0
    earth_rotation_rate: float = 7.2921159e-5  # rad/s, sidereal
    mu_earth: float = 398_600.4418           # km^3/s^2

    def __post_init__(self):
        check_fields(self)
        for name in ("c_vacuum", "fiber_refractive_index", "earth_radius_km", "mu_earth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # Latencies divide by the speeds, and positions on the Earth are
        # normalised through their squares.
        if min(self.c_vacuum, self.c_fiber) < 1.0:
            raise ValueError("c_vacuum and c_vacuum / fiber_refractive_index must be >= 1 m/s")
        if self.earth_radius_km * self.earth_radius_km < sys.float_info.min:
            raise ValueError(f"earth_radius_km {self.earth_radius_km} squared underflows")

    @property
    def c_fiber(self) -> float:
        """Speed of light in fiber, m/s (~204,287,876)."""
        return self.c_vacuum / self.fiber_refractive_index


CONSTANTS = PhysicalConstants()


def _normalize_longitude(lon_deg: float) -> float:
    """Map any longitude to (-180, 180]."""
    lon = math.fmod(lon_deg, 360.0)
    if lon > 180.0:
        lon -= 360.0
    elif lon <= -180.0:
        lon += 360.0
    return lon


@dataclass(frozen=True)
class GeodeticPoint:
    """A labelled point on the spherical Earth."""

    latitude_deg: float
    longitude_deg: float
    label: str = ""

    def __post_init__(self):
        check_fields(self)
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude {self.latitude_deg} outside [-90, 90]")
        object.__setattr__(
            self, "longitude_deg", _normalize_longitude(self.longitude_deg)
        )


def great_circle_distance(
    a: GeodeticPoint, b: GeodeticPoint, radius_km: float = CONSTANTS.earth_radius_km
) -> float:
    """Central-angle arc length between two surface points, km.

    Uses the haversine form, which is stable for small separations where
    the plain arccos formula loses digits.
    """
    lat1 = math.radians(a.latitude_deg)
    lat2 = math.radians(b.latitude_deg)
    dlat = lat2 - lat1
    dlon = math.radians(b.longitude_deg - a.longitude_deg)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * radius_km * math.asin(min(1.0, math.sqrt(h)))


def geodetic_to_inertial(
    p: GeodeticPoint,
    t: float,
    radius_km: float = CONSTANTS.earth_radius_km,
    rotation_rate: float = CONSTANTS.earth_rotation_rate,
) -> Vec3:
    """ECI position of a ground point at t seconds past epoch.

    The point sits on the sphere; its inertial longitude is the geodetic
    longitude advanced by the Earth rotation accumulated since epoch.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    lat = math.radians(p.latitude_deg)
    lon = math.radians(p.longitude_deg) + rotation_rate * t
    clat = math.cos(lat)
    return np.array(
        [
            radius_km * clat * math.cos(lon),
            radius_km * clat * math.sin(lon),
            radius_km * math.sin(lat),
        ]
    )


def inertial_to_geodetic(
    v: Vec3,
    t: float,
    rotation_rate: float = CONSTANTS.earth_rotation_rate,
) -> tuple[float, float, float]:
    """Inverse of the ground rotation: (lat_deg, lon_deg, radius_km) at t."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        raise ValueError("zero vector has no geodetic image")
    lat = math.degrees(math.asin(z / r))
    lon = math.degrees(math.atan2(y, x)) - math.degrees(rotation_rate * t)
    return lat, _normalize_longitude(lon), r


def elevation_angles(gs: Vec3, sats: np.ndarray) -> np.ndarray:
    """Angle of each gs->sat ray above the local horizontal plane, degrees,
    for an (N, 3) satellite position array.

    gs must lie on the Earth sphere (it defines the local vertical). A
    satellite that coincides with the station gets NaN, which compares
    below every mask, so it is never visible.
    """
    gs = np.asarray(gs, dtype=float)
    rel = np.asarray(sats, dtype=float) - gs
    rel_norm = np.linalg.norm(rel, axis=1)
    up = gs / np.linalg.norm(gs)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = rel @ up / rel_norm
    return np.degrees(np.arcsin(np.clip(s, -1.0, 1.0)))


def segments_clear(
    a: np.ndarray, b: np.ndarray, radius_km: float = CONSTANTS.earth_radius_km
) -> np.ndarray:
    """For (N, 3) endpoint arrays, True where segment a-b stays outside
    the Earth sphere.

    Closest-approach test with the parameter clamped to the segment;
    endpoints are assumed on or outside the sphere.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    # Zero-length segments: closest point is the endpoint itself.
    with np.errstate(invalid="ignore", divide="ignore"):
        tstar = np.where(dd > 0.0, -np.einsum("ij,ij->i", a, d) / np.where(dd > 0.0, dd, 1.0), 0.0)
    tstar = np.clip(tstar, 0.0, 1.0)
    closest = a + tstar[:, None] * d
    return np.linalg.norm(closest, axis=1) > radius_km
