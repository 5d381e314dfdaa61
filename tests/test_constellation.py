import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_sat_id
from leolat.constellation import Constellation, ConstellationConfig, format_sat_id
from leolat.geo import CONSTANTS

A = 6928.0  # shell radius at 550 km over the 6,378 km Earth


class TestConfig:
    def test_default_spacings(self):
        cfg = ConstellationConfig()
        assert cfg.total_sats == 1584
        assert cfg.raan_spacing_deg == pytest.approx(15.0)
        assert cfg.anomaly_spacing_deg == pytest.approx(360.0 / 66.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_planes": 0},
            {"sats_per_plane": 0},
            {"altitude_km": -1.0},
            {"inclination_deg": 181.0},
            {"phase_factor": 24},
            {"phase_factor": -1},
            {"num_planes": 2.5},
            {"sats_per_plane": 66.0},
            {"phase_factor": 1.5},
            {"num_planes": True},
            {"phase_factor": False},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConstellationConfig(**kwargs)


class TestBuild:
    def test_default_shell_count_and_ids(self):
        shell = Constellation(ConstellationConfig())
        assert len(shell) == 1584
        assert shell.sat_ids[0] == "x10101"
        assert shell.sat_ids[-1] == "x12466"
        assert len(set(shell.sat_ids)) == 1584
        assert [parse_sat_id(sid) for sid in shell.sat_ids[65:67]] == [(1, 66), (2, 1)]

    def test_uniform_grid_two_planes_three_slots(self):
        shell = Constellation(ConstellationConfig(num_planes=2, sats_per_plane=3))
        # Rows are planes, columns slots within a plane.
        raans = np.degrees(shell._raan).reshape(2, 3)
        anomalies = np.degrees(shell._anom0).reshape(2, 3)
        assert raans.tolist() == [[0.0] * 3, [180.0] * 3]
        for row in anomalies:
            assert sorted(row) == pytest.approx([0.0, 120.0, 240.0])

    def test_phase_factor_shifts_adjacent_planes(self):
        cfg = ConstellationConfig(num_planes=24, sats_per_plane=66, phase_factor=5)
        shell = Constellation(cfg)
        # Index 66 is slot 1 of plane 2.
        shift = math.degrees(shell._anom0[66] - shell._anom0[0])
        assert shift == pytest.approx(5 * 360.0 / (24 * 66))

    def test_two_digit_id_scheme_limit(self):
        with pytest.raises(ValueError):
            ConstellationConfig(num_planes=100, sats_per_plane=2)
        with pytest.raises(ValueError):
            ConstellationConfig(num_planes=2, sats_per_plane=100)
        assert Constellation(ConstellationConfig(num_planes=99, sats_per_plane=2)).sat_ids[-1] == "x19902"


class TestSatId:
    @pytest.mark.parametrize(
        "plane,slot,expected",
        [(1, 1, "x10101"), (24, 54, "x12454"), (15, 3, "x11503"), (24, 66, "x12466")],
    )
    def test_format_examples(self, plane, slot, expected):
        assert format_sat_id(plane, slot) == expected

    def test_round_trip_over_full_default_grid(self):
        for plane in range(1, 25):
            for slot in range(1, 67):
                assert parse_sat_id(format_sat_id(plane, slot)) == (plane, slot)

    @pytest.mark.parametrize(
        "bad", ["y10101", "x1010", "x101010", "x10a01", "x10001", "x10100", "10101", ""]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_sat_id(bad)

    def test_format_rejects_out_of_scheme(self):
        with pytest.raises(ValueError):
            format_sat_id(0, 1)
        with pytest.raises(ValueError):
            format_sat_id(1, 100)


class TestPropagation:
    def test_epoch_position_of_reference_satellite(self, default_constellation):
        # satellite 0 has raan 0 and anomaly 0
        assert np.allclose(default_constellation.positions_at(0.0)[0], [A, 0, 0], atol=1e-9)

    def test_quarter_period_position(self, default_constellation):
        period = 2.0 * math.pi / default_constellation.mean_motion_rad_s
        assert period == pytest.approx(5738.6, abs=1.0)
        inc = math.radians(53.0)
        expected = [0.0, A * math.cos(inc), A * math.sin(inc)]
        assert np.allclose(default_constellation.positions_at(period / 4.0)[0], expected, atol=0.5)

    def test_speed_by_finite_difference(self, default_constellation):
        t = 1234.5
        dt = 0.5
        dp = (default_constellation.positions_at(t + dt)[100]
              - default_constellation.positions_at(t - dt)[100])
        speed = float(np.linalg.norm(dp)) / (2 * dt)
        assert speed == pytest.approx(7.585, abs=0.01)

    def test_orbit_radius_constant(self, default_constellation):
        rng = random.Random(42)
        for _ in range(100):
            k = rng.randrange(1584)
            r = float(np.linalg.norm(default_constellation.positions_at(rng.uniform(0, 20000))[k]))
            assert abs(r - A) < 1e-6

    def test_periodicity(self, default_constellation):
        period = 2.0 * math.pi / default_constellation.mean_motion_rad_s
        for t in (0.0, 100.0, 2500.0):
            p1 = default_constellation.positions_at(t)[777]
            p2 = default_constellation.positions_at(t + period)[777]
            assert np.linalg.norm(p1 - p2) < 1e-5

    def test_intra_plane_spacing_time_invariant(self, default_constellation):
        expected = 2.0 * A * math.sin(math.pi / 66.0)  # one-slot chord
        for t in (0.0, 917.3, 3600.0):
            a, b = default_constellation.positions_at(t)[10:12]
            assert float(np.linalg.norm(a - b)) == pytest.approx(expected, abs=0.1)

    def test_negative_time_rejected(self, default_constellation):
        with pytest.raises(ValueError):
            default_constellation.positions_at(-1.0)


def test_mean_speed_matches_circular_orbit_formula(default_constellation):
    # sqrt(mu/a) is the circular speed the finite-difference test sees.
    assert default_constellation.radius_km == A
    assert default_constellation.speed_km_s == pytest.approx(math.sqrt(CONSTANTS.mu_earth / A),
                                                             rel=1e-12)
    assert math.sqrt(CONSTANTS.mu_earth / A) == pytest.approx(7.585, abs=0.01)


def test_pair_candidates_bounded_before_they_are_built():
    # A 99 x 99 shell has 901,296 candidates within 1,650 km and 48,514,950
    # within its diameter; the bound lies between.
    shell = Constellation(ConstellationConfig(num_planes=99, sats_per_plane=99))
    xyz, kept = shell.positions_at(0.0), np.ones(len(shell), bool)
    assert len(shell.pairs_within(0.0, xyz, 1650.0, kept)) > 0
    with pytest.raises(ValueError, match=r"48,514,950 candidate laser pairs within 13856 km, "
                                         r"more than the bound of 20,000,000"):
        shell.pairs_within(0.0, xyz, 2.0 * shell.radius_km, kept)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pairs_within_match_all_pairs_norms_on_random_walker_shells(data):
    planes = data.draw(st.integers(1, 12), label="planes")
    cfg = ConstellationConfig(
        num_planes=planes,
        sats_per_plane=data.draw(st.integers(1, 20), label="sats_per_plane"),
        altitude_km=data.draw(st.floats(300.0, 1500.0), label="altitude"),
        inclination_deg=data.draw(st.sampled_from([0.0, 90.0, 180.0]) | st.floats(0.0, 180.0),
                                  label="inclination"),
        raan0_deg=data.draw(st.floats(-400.0, 400.0), label="raan0"),
        phase_factor=data.draw(st.integers(0, planes - 1), label="phase_factor"),
        epoch=data.draw(st.floats(0.0, 1000.0), label="epoch"),
    )
    shell = Constellation(cfg)
    n = len(shell)
    t = cfg.epoch + data.draw(st.floats(0.0, 6000.0), label="t - epoch")
    xyz = shell.positions_at(t)
    kept = np.array(data.draw(st.just([True] * n) | st.lists(st.booleans(), min_size=n,
                                                               max_size=n), label="kept"))
    norms = np.linalg.norm(xyz[:, None] - xyz[None], axis=2)
    if n > 1 and data.draw(st.booleans(), label="tie"):
        # The chord is one pair's own length, so that pair lies at the reach.
        i, j = data.draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]),
                         label="pair at the reach")
        chord = float(norms[i, j])
    else:
        chord = data.draw(st.floats(0.0, 1.1 * 2.0 * shell.radius_km), label="chord")

    pairs = shell.pairs_within(t, xyz, chord, kept)
    i, j = pairs.T
    assert (i < j).all() and kept[i].all() and kept[j].all()
    found = set(zip(i.tolist(), j.tolist()))
    assert len(found) == len(pairs), "a pair repeats"
    within = np.triu((norms <= chord) & kept[:, None] & kept[None, :], 1)
    assert set(zip(*(k.tolist() for k in np.nonzero(within)))) <= found
    # u.v carries a few rounding errors, which near u.v = 1 amount to under
    # a metre: the search does not tell such close satellites from
    # coincident ones, as on an equatorial shell.
    assert (norms[i, j] <= chord * (1.0 + 1e-6) + 1e-3).all()
