"""Walker-delta shell generation and circular two-body propagation.

The shell is a uniform grid: planes evenly spaced in RAAN, satellites
evenly spaced in argument of latitude within each plane, with an optional
integer phasing factor that shifts adjacent planes' satellites by
``phase_factor * 360 / (num_planes * sats_per_plane)`` degrees of anomaly.
Orbits are circular two-body (no J2, no drag), which is negligible error
over the hour-scale horizons this package targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geo import CONSTANTS, PhysicalConstants, check_fields

# A run holds about 50 bytes per candidate laser pair at its peak: 1 GB at the bound.
MAX_PAIR_CANDIDATES = 20_000_000


@dataclass(frozen=True)
class ConstellationConfig:
    """Shell parameters; defaults are the 24x66 550 km / 53 deg shell."""

    num_planes: int = 24
    sats_per_plane: int = 66
    altitude_km: float = 550.0
    inclination_deg: float = 53.0
    raan0_deg: float = 0.0      # RAAN of plane 1 at epoch
    phase_factor: int = 0       # inter-plane phasing, in [0, num_planes-1]
    epoch: float = 0.0          # reference time, s; t is measured from it

    def __post_init__(self):
        check_fields(self)
        if self.num_planes < 1 or self.sats_per_plane < 1:
            raise ValueError("num_planes and sats_per_plane must be >= 1")
        if self.num_planes > 99 or self.sats_per_plane > 99:
            raise ValueError("two-digit ID scheme cannot encode planes/slots beyond 99")
        if self.altitude_km <= 0:
            raise ValueError("altitude_km must be > 0")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg must be in [0, 180]")
        if not 0 <= self.phase_factor < self.num_planes:
            raise ValueError("phase_factor must be in [0, num_planes-1]")

    @property
    def total_sats(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def raan_spacing_deg(self) -> float:
        return 360.0 / self.num_planes

    @property
    def anomaly_spacing_deg(self) -> float:
        return 360.0 / self.sats_per_plane

    @property
    def phase_offset_deg(self) -> float:
        """Anomaly shift between satellites in adjacent planes."""
        return self.phase_factor * 360.0 / (self.num_planes * self.sats_per_plane)

    @functools.cached_property
    def sat_ids(self) -> tuple[str, ...]:
        """The satellites' IDs, plane-major then slot order; built once per config."""
        return tuple(format_sat_id(p, s) for p in range(1, self.num_planes + 1)
                     for s in range(1, self.sats_per_plane + 1))


def format_sat_id(plane: int, slot: int) -> str:
    """Canonical ID "x1" + two-digit plane + two-digit slot, e.g. x10101."""
    if not 1 <= plane <= 99 or not 1 <= slot <= 99:
        raise ValueError(f"plane/slot ({plane}, {slot}) outside the two-digit ID scheme")
    return f"x1{plane:02d}{slot:02d}"


def _propagate(
    raan: np.ndarray,
    anomaly0: np.ndarray,
    t: float,
    a: float,
    n: float,
    inclination_rad: float,
) -> np.ndarray:
    """Positions for angle arrays at time t: Rz(raan) . Rx(inc) . in-plane."""
    theta = anomaly0 + n * t
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cos_o, sin_o = np.cos(raan), np.sin(raan)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    x = a * (cos_t * cos_o - sin_t * cos_i * sin_o)
    y = a * (cos_t * sin_o + sin_t * cos_i * cos_o)
    z = a * (sin_t * sin_i)
    return np.stack([x, y, z], axis=-1)


class Constellation:
    """A built shell: its satellite IDs, its orbit's radius_km, mean_motion_rad_s
    and speed_km_s, and cached angle arrays for vectorized propagation."""

    def __init__(self, cfg: ConstellationConfig, constants: PhysicalConstants = CONSTANTS):
        self.cfg = cfg
        self.constants = constants
        planes = np.arange(cfg.num_planes)  # 0-based plane and slot indices
        slots = np.arange(cfg.sats_per_plane)
        raan_deg = (cfg.raan0_deg + planes * cfg.raan_spacing_deg) % 360.0
        anom_deg = (slots[None, :] * cfg.anomaly_spacing_deg
                    + planes[:, None] * cfg.phase_offset_deg) % 360.0
        # Plane-major then slot order, as the satellite IDs.
        self._raan = np.repeat(np.radians(raan_deg), cfg.sats_per_plane)
        self._anom0 = np.radians(anom_deg).ravel()
        self.sat_ids = cfg.sat_ids
        self.radius_km = constants.earth_radius_km + cfg.altitude_km
        self.mean_motion_rad_s = math.sqrt(constants.mu_earth / self.radius_km**3)
        self.speed_km_s = self.radius_km * self.mean_motion_rad_s
        self._inc = math.radians(cfg.inclination_deg)

    def __len__(self) -> int:
        return len(self.sat_ids)

    def positions_at(self, t: float) -> np.ndarray:
        """(N, 3) ECI positions of every satellite at t seconds past epoch."""
        if t < 0:
            raise ValueError("t must be >= 0")
        return _propagate(self._raan, self._anom0, t - self.cfg.epoch, self.radius_km,
                          self.mean_motion_rad_s, self._inc)

    def pairs_within(self, t: float, xyz: np.ndarray, chord_km: float,
                     kept: np.ndarray) -> np.ndarray:
        """(M, 2) pairs i < j of kept satellites that may be at most chord_km
        apart at t, xyz being positions_at(t): every pair within the chord,
        and none more than a rounding error longer.

        Unit vectors u and v are within the chord iff u.v >= c = 1 - chord^2
        / (2 r^2). With a and b u's components along plane q's axes e1 and
        e2, and rho = sqrt(a^2 + b^2), q's satellites within reach fill the
        arc |theta - atan2(b, a)| <= arccos(c / rho): none unless rho >= c,
        and all of them when c <= -rho.
        """
        cfg, per_plane = self.cfg, self.cfg.sats_per_plane
        chord_km = min(chord_km, 2.0 * self.radius_km)  # no pair is farther apart
        # A slack of a few rounding errors in u.v, so that a pair at the
        # chord stays even where arccos is steepest, at 0 and at pi.
        c = 1.0 - chord_km**2 / (2.0 * self.radius_km**2) - 4e-15
        sats = np.flatnonzero(kept)
        u = xyz[sats] / self.radius_km
        raan, zero = self._raan[::per_plane], np.zeros(cfg.num_planes)
        e1 = _propagate(raan, zero, 0.0, 1.0, 0.0, self._inc)
        e2 = _propagate(raan, zero + math.pi / 2.0, 0.0, 1.0, 0.0, self._inc)
        a, b = u @ e1.T, u @ e2.T
        rho = np.hypot(a, b)
        # Each pair of planes once: q >= the satellite's own plane.
        row, q = np.nonzero((np.arange(cfg.num_planes) >= (sats // per_plane)[:, None])
                            & (rho >= c))
        a, b, rho = a[row, q], b[row, q], rho[row, q]
        cos_w = np.divide(c, rho, out=np.full(len(rho), -1.0), where=rho > 0.0)
        # The arc in slots, from the anomaly of plane q's slot 0 at t.
        theta0 = (self._anom0[::per_plane] + self.mean_motion_rad_s * (t - cfg.epoch)) \
            % (2.0 * math.pi)
        per_rad = per_plane / (2.0 * math.pi)
        centre = (np.arctan2(b, a) - theta0[q]) * per_rad
        half = np.arccos(np.clip(cos_w, -1.0, 1.0)) * per_rad
        # int32 throughout: the candidates are bounded below 2**31 before
        # any is built, and they are the largest arrays of a block's build.
        lo = np.ceil(centre - half - 1e-9).astype(np.int32)
        count = np.clip(np.floor(centre + half + 1e-9).astype(np.int32) - lo + 1, 0, per_plane)
        total = int(count.sum())
        if total > MAX_PAIR_CANDIDATES:
            raise ValueError(f"the {cfg.num_planes} x {cfg.sats_per_plane} shell has "
                             f"{total:,} candidate laser pairs within {chord_km:.7g} km, "
                             f"more than the bound of {MAX_PAIR_CANDIDATES:,}")
        # Candidate k of row r is plane q's slot lo + (k - first candidate of r).
        j = np.repeat(lo - (np.cumsum(count, dtype=np.int32) - count), count)
        j += np.arange(total, dtype=np.int32)
        j %= per_plane
        j += np.repeat(q.astype(np.int32) * per_plane, count)
        i = np.repeat(sats[row].astype(np.int32), count)
        keep = (j > i) & kept[j]
        return np.stack([i[keep], j[keep]], axis=1)
