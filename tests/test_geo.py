import math
import random

import numpy as np
import pytest

from leolat.experiment import EXCHANGE_COORDINATES
from leolat.geo import (
    CONSTANTS,
    GeodeticPoint,
    elevation_angles,
    geodetic_to_inertial,
    great_circle_distance,
    inertial_to_geodetic,
    segments_clear,
)

R = CONSTANTS.earth_radius_km


def point(city):
    lat, lon = EXCHANGE_COORDINATES[city]
    return GeodeticPoint(lat, lon, city)


def arc_via_dot_product(a, b):
    # Independent oracle: angle recovered from unit-vector dot product.
    def unit(p):
        lat, lon = math.radians(p.latitude_deg), math.radians(p.longitude_deg)
        return np.array([
            math.cos(lat) * math.cos(lon),
            math.cos(lat) * math.sin(lon),
            math.sin(lat),
        ])

    return R * math.acos(max(-1.0, min(1.0, float(np.dot(unit(a), unit(b))))))


def elevation_angle(gs, sat):
    """elevation_angles of a single satellite."""
    return float(elevation_angles(gs, sat[None, :])[0])


def line_of_sight_clear(a, b):
    """segments_clear of a single segment."""
    return bool(segments_clear(a[None, :], b[None, :])[0])


class TestPhysicalConstants:
    def test_fiber_speed_matches_published_value(self):
        assert abs(CONSTANTS.c_fiber - 204_287_876.0) < 1.0

    def test_vacuum_speed(self):
        assert CONSTANTS.c_vacuum == 299_792_458.0


class TestGeodeticPoint:
    def test_longitude_normalized_into_half_open_range(self):
        assert GeodeticPoint(0.0, 270.0).longitude_deg == -90.0
        assert GeodeticPoint(0.0, -180.0).longitude_deg == 180.0
        assert GeodeticPoint(0.0, 180.0).longitude_deg == 180.0

    def test_latitude_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GeodeticPoint(91.0, 0.0)


class TestGreatCircleDistance:
    def test_new_york_dublin(self):
        d = great_circle_distance(point("New York"), point("Dublin"))
        assert d == pytest.approx(5121.30, rel=0.0025)

    def test_sao_paulo_london(self):
        d = great_circle_distance(point("Sao Paulo"), point("London"))
        assert d == pytest.approx(9514.30, rel=0.0025)

    def test_identical_points(self):
        p = GeodeticPoint(12.3, 45.6)
        assert great_circle_distance(p, p) == 0.0

    def test_equatorial_antipodes(self):
        d = great_circle_distance(GeodeticPoint(0, 0), GeodeticPoint(0, 180))
        assert d == pytest.approx(math.pi * R, abs=1e-6)

    def test_symmetry_triangle_inequality_and_dot_product_cross_check(self):
        rng = random.Random(1234)
        for _ in range(300):
            pts = [
                GeodeticPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
                for _ in range(3)
            ]
            a, b, c = pts
            ab = great_circle_distance(a, b)
            assert ab == great_circle_distance(b, a)
            assert ab <= great_circle_distance(a, c) + great_circle_distance(c, b) + 1e-9
            assert ab == pytest.approx(arc_via_dot_product(a, b), rel=1e-9, abs=1e-6)
            assert 0.0 <= ab <= math.pi * R


class TestGeodeticToInertial:
    def test_greenwich_equator_at_epoch(self):
        v = geodetic_to_inertial(GeodeticPoint(0, 0), 0.0)
        assert np.allclose(v, [R, 0, 0], atol=1e-12)

    def test_pole_is_rotation_invariant(self):
        for t in (0.0, 123.4, 86400.0):
            v = geodetic_to_inertial(GeodeticPoint(90, -37.0), t)
            assert np.allclose(v, [0, 0, R], atol=1e-9)

    def test_quarter_sidereal_turn(self):
        t = (math.pi / 2) / CONSTANTS.earth_rotation_rate  # ~21,541.1 s
        v = geodetic_to_inertial(GeodeticPoint(0, 0), t)
        assert np.allclose(v, [0, R, 0], atol=1e-6)

    def test_norm_preserved(self):
        rng = random.Random(99)
        for _ in range(200):
            p = GeodeticPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            v = geodetic_to_inertial(p, rng.uniform(0, 1e5))
            assert abs(float(np.linalg.norm(v)) - R) < 1e-9 * R

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            geodetic_to_inertial(GeodeticPoint(0, 0), -1.0)

    def test_round_trip_through_inertial(self):
        rng = random.Random(7)
        for _ in range(100):
            p = GeodeticPoint(rng.uniform(-89.9, 89.9), rng.uniform(-179.9, 179.9))
            t = rng.uniform(0, 1e5)
            lat, lon, r = inertial_to_geodetic(geodetic_to_inertial(p, t), t)
            assert lat == pytest.approx(p.latitude_deg, abs=1e-9)
            assert lon == pytest.approx(p.longitude_deg, abs=1e-9)
            assert r == pytest.approx(R, abs=1e-9)


class TestElevationAngle:
    GS = np.array([R, 0.0, 0.0])

    def test_zenith(self):
        assert elevation_angle(self.GS, np.array([R + 550.0, 0, 0])) == pytest.approx(90.0)

    def test_horizon_tangency(self):
        horizon_y = math.sqrt(6928.0**2 - R**2)  # ~2705.2 km
        e = elevation_angle(self.GS, np.array([R, horizon_y, 0]))
        assert e == pytest.approx(0.0, abs=0.01)

    def test_below_horizon_is_negative(self):
        rng = random.Random(5)
        for _ in range(50):
            # Any target with dot(gs, sat-gs) < 0 sits under the horizon plane.
            sat = np.array([R - rng.uniform(1, 500), rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)])
            if np.dot(self.GS, sat - self.GS) < 0:
                assert elevation_angle(self.GS, sat) < 0

    def test_antisymmetric_across_horizon_plane(self):
        above = np.array([R + 300.0, 1000.0, 0.0])
        below = np.array([R - 300.0, 1000.0, 0.0])
        assert elevation_angle(self.GS, above) == pytest.approx(
            -elevation_angle(self.GS, below), abs=1e-9
        )

    def test_coincident_satellite_rejected(self):
        # NaN compares below every elevation mask: never visible.
        assert math.isnan(elevation_angle(self.GS, self.GS.copy()))


class TestLineOfSight:
    def test_perpendicular_satellites_blocked(self):
        a = np.array([6928.0, 0, 0])
        b = np.array([0, 6928.0, 0])
        # Closest approach 6928/sqrt(2) = 4898.8 km < 6378.
        assert not line_of_sight_clear(a, b)

    def test_zero_length_segment_outside_sphere(self):
        a = np.array([6928.0, 0, 0])
        assert line_of_sight_clear(a, a.copy())

    def test_lisl_range_links_never_graze(self):
        # 1,500 km chords at 550 km altitude keep >500 km of clearance.
        rng = random.Random(31)
        a_r = 6928.0
        for _ in range(500):
            u = np.array([rng.gauss(0, 1) for _ in range(3)])
            u /= np.linalg.norm(u)
            # random tangent direction
            w = np.array([rng.gauss(0, 1) for _ in range(3)])
            w -= u * np.dot(u, w)
            w /= np.linalg.norm(w)
            sep = rng.uniform(0, 1500.0)
            half_angle = math.asin(sep / 2.0 / a_r)
            p = a_r * (math.cos(half_angle) * u + math.sin(half_angle) * w)
            q = a_r * (math.cos(half_angle) * u - math.sin(half_angle) * w)
            assert np.linalg.norm(p - q) <= 1500.0 + 1e-6
            assert line_of_sight_clear(p, q)
