"""The benchmark's own output checks (perfbench/checks.py) on short runs.

The benchmark imports leolat names that no CLI command needs (the
snapshot graph and its router among them). Running its checks here makes
a change that breaks one of those names fail in the test suite, not only
when the benchmark runs.
"""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from leolat.cli import load_config, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

RANGES = (1000, 1500, 3000)


@pytest.mark.parametrize(
    "workload",
    [SimpleNamespace(command="run", ranges=()),
     SimpleNamespace(command="sweep-range", ranges=RANGES)],
    ids=lambda w: w.command,
)
def test_benchmark_checks_pass_on_a_short_run(tmp_path, workload):
    cfg = dataclasses.replace(load_config(None), duration_s=3)
    argv = [workload.command, "--duration", "3", "--out", str(tmp_path)]
    if workload.ranges:
        argv += ["--ranges", ",".join(map(str, workload.ranges))]
    assert main(argv) == 0
    assert checks.artifact_problems(workload, cfg, tmp_path) == []
    assert checks.sample_problems(workload, cfg, tmp_path, seed=0) == []
