"""Fuzz `leolat run` at the config boundary.

Hypothesis draws YAML documents over the known sections and keys. A wild
document draws each value from every YAML type: null, bools, ints (one
past the float range among them), floats (.nan, .inf, +-1e300 and 1e-300
among them), strings (some of which read as numbers), lists and nested
maps. A typed document draws each value from the type its key takes, out
to the ends of the float range, so that most of them are routed. For
each, main(["run", ...]) must return 0 or 1. On 1, stderr holds one
"error:" line and no traceback, and no file is written. On 0,
summary.json is strict JSON (no NaN or Infinity), and a second run writes
byte-identical files.

The draws bound the runtime, not the faults: a horizon of more than 4
slots is cut to at most 4 slots of its slot_s, and a plane or slot count
drawn as an int is at most 12 (an omitted one keeps its default).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leolat.cli import RunConfig, main
from leolat.experiment import slot_count

MAX_SLOTS_DRAWN = 4

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12) | st.sampled_from([100, 2**63, 10**400]),
    st.floats() | st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 0.5, 90.0]),
    st.text(max_size=5) | st.sampled_from(["5e3", "1.0e300", "nan", "csv", "json", "|",
                                           "x10101", "no", "A", "B"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SCALARS, inner, max_size=3),
    max_leaves=5,
)

POSITIVE = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([1e-300, 1e300])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Each key's own type. No int drawn lies in 13..99, so a plane or slot count is at most 12.
TYPED = {
    "num_planes": st.integers(-1, 12),
    "sats_per_plane": st.integers(-1, 12),
    "altitude_km": st.sampled_from([300.0, 550.0, 1.0e+4]) | POSITIVE,
    "inclination_deg": st.floats(0.0, 180.0),
    "raan0_deg": FINITE,
    "phase_factor": st.integers(0, 3),
    "epoch": FINITE,
    "lisl_range_km": st.sampled_from([100.0, 1500.0, 6000.0]) | POSITIVE,
    "min_elevation_deg": st.floats(0.0, 90.0, exclude_max=True),
    "occlusion_check": st.booleans(),
    "c_vacuum": POSITIVE,
    "fiber_refractive_index": POSITIVE,
    "earth_radius_km": POSITIVE,
    "earth_rotation_rate": FINITE,
    "mu_earth": POSITIVE,
    "latitude_deg": st.floats(-90.0, 90.0),
    "longitude_deg": FINITE,
    "label": st.sampled_from(["A", "B", "C", "D", "a|b", "x10101"]),
    "name": st.sampled_from(["A-B", "C-D", "a b", "!!!"]),
    "duration_s": st.sampled_from([1, 2.0, 4]) | POSITIVE,
    "slot_s": st.sampled_from([1, 0.5, 60]) | POSITIVE,
    "out_dir": st.text(max_size=3),
    "formats": st.sampled_from(["csv", ["json"], ["csv", "json"], []]),
}
SECTIONS = {
    "constellation": ("num_planes", "sats_per_plane", "altitude_km", "inclination_deg",
                      "raan0_deg", "phase_factor", "epoch"),
    "topology": ("lisl_range_km", "min_elevation_deg", "occlusion_check"),
    "constants": ("c_vacuum", "fiber_refractive_index", "earth_radius_km",
                  "earth_rotation_rate", "mu_earth"),
}
POINT_KEYS = ("latitude_deg", "longitude_deg", "label")


def document(wild: bool) -> st.SearchStrategy:
    """A mapping over some of the known keys, each value of its key's type
    or, in a wild document, of any type."""
    def value(key):
        return TYPED[key] | VALUES if wild else TYPED[key]

    def mapping(keys, **values):
        drawn = st.fixed_dictionaries({}, optional={k: values[k] if k in values else value(k)
                                                     for k in keys})
        return drawn | VALUES if wild else drawn

    point = mapping(POINT_KEYS)
    scenarios = st.lists(mapping(("name", "src", "dst"), src=point, dst=point),
                         min_size=0 if wild else 1, max_size=3)
    return st.fixed_dictionaries({}, optional={
        **{section: mapping(keys) for section, keys in SECTIONS.items()},
        "scenarios": scenarios | VALUES if wild else scenarios,
        **{key: value(key) for key in ("duration_s", "slot_s", "out_dir", "formats")},
    })


@st.composite
def documents(draw) -> dict:
    """A wild or typed document, its horizon cut to at most MAX_SLOTS_DRAWN slots."""
    doc = draw(document(wild=draw(st.booleans())))
    slot_s = doc.get("slot_s", RunConfig.slot_s)
    try:
        n_slots = slot_count(doc.get("duration_s", RunConfig.duration_s), slot_s)
    except ValueError:
        n_slots = 0
    if n_slots > MAX_SLOTS_DRAWN:
        doc["duration_s"] = draw(st.integers(0, MAX_SLOTS_DRAWN)) * slot_s
    return doc


def not_json(constant: str):
    raise AssertionError(f"summary.json holds {constant}")


def run(config: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=documents())
def test_run_succeeds_or_fails_cleanly(doc):
    text = yaml.safe_dump(doc, sort_keys=False)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.yaml"
        config.write_text(text)
        code, err = run(config, tmp / "a")
        assert code in (0, 1), text
        if code == 1:
            assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, text
            assert "Traceback" not in err, text
            assert not (tmp / "a").exists() or not any((tmp / "a").iterdir()), text
        else:
            summary = tmp / "a" / "summary.json"
            if summary.exists():
                json.loads(summary.read_text(), parse_constant=not_json)
            assert run(config, tmp / "b")[0] == 0
            files = sorted(p.name for p in (tmp / "a").iterdir())
            assert files == sorted(p.name for p in (tmp / "b").iterdir())
            for name in files:
                assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name
