"""The benchmark's own output checks (perfbench/checks.py) and its traced
runs (perfbench/traced.py) on short runs.

The benchmark imports leolat names that no CLI command needs (the
snapshot graph and its router among them), and its tracer replaces some
of the program's callables with wrappers that accept only the calls the
program made when the tracer was written. Running both here makes a
change that breaks one of those names or calls fail in the test suite,
not only when the benchmark runs.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from leolat.cli import load_config, main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
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


@pytest.mark.parametrize(
    "argv",
    [["run", "--duration", "3"],
     ["sweep-range", "--duration", "3", "--ranges", "1500,6000"]],
    ids=lambda argv: argv[0],
)
def test_traced_run_completes(tmp_path, argv):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "--",
         *argv, "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(spans_path.read_text())
    assert dump["exit_code"] == 0 and dump["spans"]
    names = {span[0] for span in dump["spans"]}
    assert {"geo.elevation", "constellation.propagate"} <= names
    # The callables the tracer patches but the program no longer has. A
    # rename of any other patched callable would zero its metric silently.
    assert dump["missing"] == ["leolat.cli.run_scenario", "leolat.experiment.build_snapshot",
                               "leolat.experiment.shortest_path", "leolat.topology.cKDTree",
                               "SnapshotGraph.csr"]
