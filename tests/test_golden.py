"""Golden artifacts: short default-config commands must reproduce these
SHA-256 digests byte for byte.

A refactor that changes any route, latency digit or summary field fails
here. When an output change is intended, rerun the commands, check
the new files by hand, and replace the digests below.
"""

import hashlib

import pytest

from leolat.cli import main

GOLDEN = {
    ("run", "--duration", "120"): {
        "new_york_dublin_slots.csv":
            "7387167911c345f55931ac7196a4542b31b77a8f4e1914bb0bf5b17e90018007",
        "sao_paulo_london_slots.csv":
            "7252c40e4cc305d137b2c16facf1a45dacd25ab52aece213fb3189620411b0ec",
        "summary.json":
            "633f9c605421c745dae1bcddb3b5b4bb3f23bf7fb2608e9823eb6c768730c2fc",
        "toronto_sydney_slots.csv":
            "54c3f4c5e18a69228a74480176c05916990b8a259519d0500d45f2b7c41ea10b",
    },
    ("sweep-range", "--duration", "10", "--ranges", "1000,1500,3000,6000"): {
        "sweep_range.csv":
            "43828b52f4f94e530ac1ad72239fd24b3a49dc2242644eea5ab1aef1dbc62313",
    },
    ("export-geojson", "--scenario", "Toronto-Sydney", "--slot", "60"): {
        "toronto_sydney_slot60.geojson":
            "01f29c690d31f2bf18344603e536f7515eb2d8585b3f4b9bc355f04bb8c73384",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
def test_artifacts_match_golden_digests(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN[argv]
