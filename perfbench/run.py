"""leolat benchmark: time to a finished sweep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-golden
    python3 perfbench/compare.py PARENT_RECORDS CHANGE_RECORDS

Run from a source checkout of leolat (the program is imported from
./src, never from an installed copy). The benchmark writes a generated
config, starts the `leolat` CLI on it as a fresh process per invocation,
times it from outside, and checks every invocation's artifacts
(checks.py). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, with no tracing in the program:
  wall_s       median wall time of one workload command, process start
               to exit, artifacts written
  slots_per_s  scenario-slots routed per second excluding set-up:
               scenario-slots / (wall_s - setup_s)
  setup_s      median time from a fresh interpreter until the first slot
               can be routed: import, cli.load_config, Constellation build
  peak_rss_mb  median peak resident memory of the command, summed over the
               main process and its pool workers
--trace 1 alternates untraced invocations with traced ones (traced.py)
and reports per-layer metrics from the spans and counters. Layer ms
metrics are mean self time per scenario-slot.

Workloads (--seed shifts constellation.epoch; seed 0 is the calibrated
reproduction, whose artifacts must match golden.json byte for byte):
  hour-3pairs        `leolat run`, the 3 built-in pairs, 1 s slots, 1 worker,
                     first 120 s. The paper's workload; every stage works,
                     and Toronto-Sydney's ~15-hop routes make routing heavy.
  sweep-regional     `leolat sweep-range` at 1000,1500,3000,6000 km over
                     London-Dublin and New York-Dublin, 1 s slots, 1 worker,
                     first 10 s. Topology- and geo-heavy, routing-light, and
                     the only workload above the occlusion threshold
                     (~5,410 km).
  many-pairs-coarse  `leolat run` over all 15 pairs of 6 exchange cities,
                     60 s slots, 2 workers, first 1800 s. The same shell is
                     propagated and linked 15 times per slot, and one
                     process pool is started per scenario.
The horizons are short so that a run holds several invocations and
reports medians.

Each run appends a record (machine, versions, commit, raw samples) under
perfbench-out/records/, or --record-dir; compare.py reads two such sets.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
PHASE_FACTOR = 11  # calibrated phasing; a present constellation section must restate it
ORBIT_PERIOD_S = 5739.0  # of the 550 km shell; seeded epochs fall within one period
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
POLL_S = 0.05
# Keeps a run that hangs within its 180 s: a normal invocation takes 3-10 s.
INVOCATION_TIMEOUT_S = 35.0

# Exchange coordinates (NYSE, Euronext Dublin, B3, LSE, TSX, ASX), fixed
# here so the generated inputs do not depend on the code under test.
CITIES = {
    "New York": (40.706913, -74.011322),
    "Dublin": (53.344648, -6.263233),
    "Sao Paulo": (-23.547778, -46.635833),
    "London": (51.515236, -0.098942),
    "Toronto": (43.648222, -79.381375),
    "Sydney": (-33.863893, 151.208407),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep-range"
    pairs: tuple[tuple[str, str], ...] | None  # None: the built-in scenarios
    n_scenarios: int
    duration_s: int
    slot_s: int
    workers: int
    ranges: tuple[int, ...] = ()

    @property
    def scenario_slots(self) -> int:
        return self.n_scenarios * (self.duration_s // self.slot_s) * max(1, len(self.ranges))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hour-3pairs", "run", None, 3, duration_s=120, slot_s=1, workers=1),
        Workload("sweep-regional", "sweep-range", (("London", "Dublin"), ("New York", "Dublin")),
                 2, duration_s=10, slot_s=1, workers=1, ranges=(1000, 1500, 3000, 6000)),
        Workload("many-pairs-coarse", "run", tuple(itertools.combinations(CITIES, 2)),
                 15, duration_s=1800, slot_s=60, workers=2),
    )
}

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
from leolat.cli import load_config
from leolat.constellation import Constellation
cfg = load_config(sys.argv[1])
Constellation(cfg.constellation, cfg.constants)
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- inputs --------------------------------------------------------------------


def epoch_for(seed: int) -> float:
    if seed == DEFAULT_SEED:
        return 0.0
    return round(random.Random(seed).uniform(0.0, ORBIT_PERIOD_S), 3)


def config_for(w: Workload, seed: int) -> dict:
    doc = {
        "constellation": {"phase_factor": PHASE_FACTOR, "epoch": epoch_for(seed)},
        "duration_s": w.duration_s,
        "slot_s": w.slot_s,
    }
    if w.pairs is not None:
        doc["scenarios"] = [
            {
                "name": f"{a}-{b}",
                "src": {"latitude_deg": CITIES[a][0], "longitude_deg": CITIES[a][1], "label": a},
                "dst": {"latitude_deg": CITIES[b][0], "longitude_deg": CITIES[b][1], "label": b},
            }
            for a, b in w.pairs
        ]
    return doc


def cli_args(w: Workload, cfg_path: Path, out_dir: Path, workers: int) -> list[str]:
    args = [w.command, "--config", str(cfg_path), "--out", str(out_dir), "--workers", str(workers)]
    if w.ranges:
        args += ["--ranges", ",".join(str(r) for r in w.ranges)]
    return args


# -- processes -------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _tree_hwm_kb(pid: int) -> int:
    """Summed VmHWM (peak RSS) of pid and its live direct children, kB."""
    pids = [pid]
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                pids += [int(p) for p in f.read().split()]
    except OSError:
        return 0
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                total += next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass
    return total


def invoke(argv: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run argv to completion: (wall seconds, peak RSS MB, exit code).

    Peak RSS is the largest sum of the per-process peaks (VmHWM) of the
    process and its live pool workers, sampled every POLL_S while it runs.
    The kernel's ru_maxrss is not used: after fork and exec it also counts
    the RSS of the parent that forked, here the benchmark itself.
    """
    done: dict[str, float] = {}
    peak_kb = 0
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        # A session of its own, so that a kill also reaches pool workers.
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        def reap():
            _, status = os.waitpid(proc.pid, 0)
            done["t"] = time.perf_counter()
            done["status"] = status

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            while waiter.is_alive():
                peak_kb = max(peak_kb, _tree_hwm_kb(proc.pid))
                waiter.join(POLL_S)
                if waiter.is_alive() and time.perf_counter() - t0 > INVOCATION_TIMEOUT_S:
                    kill()
        except BaseException:
            kill()
            waiter.join()
            raise
    proc.returncode = os.waitstatus_to_exitcode(int(done["status"]))
    return done["t"] - t0, peak_kb / 1024.0, proc.returncode


def setup_probe(cfg_path: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(cfg_path)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# -- one run -----------------------------------------------------------------------


class Run:
    """One benchmark run: a work directory, its invocations and their checks."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.work = OUT / "work" / f"{w.name}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg_path = self.work / "config.yaml"  # JSON is valid YAML
        self.cfg_path.write_text(json.dumps(config_for(w, seed), indent=1) + "\n")
        from leolat.cli import load_config

        self.cfg = load_config(self.cfg_path)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.reference_failed = False
        self.bytes_written = 0
        self.n = 0

    def command(self, out_dir: Path, workers: int, spans_path: Path | None = None) -> list[str]:
        head = [sys.executable, "-m", "leolat"] if spans_path is None else \
            [sys.executable, str(Path(traced.__file__).resolve()), str(spans_path), "--"]
        return head + cli_args(self.w, self.cfg_path, out_dir, workers)

    def invoke(self, workers: int, spans: bool = False) -> tuple[float, float, dict | None]:
        """One checked invocation: (wall s, peak RSS MB, span dump or None)."""
        self.n += 1
        out_dir = self.work / f"out{self.n}"
        spans_path = self.work / f"spans{self.n}.json" if spans else None
        wall, rss, code = invoke(self.command(out_dir, workers, spans_path),
                                 self.work / f"log{self.n}.txt")
        self.attempted += 1
        problems = self.check(out_dir, code)
        if problems:
            self.failed += 1
            self.problems += [f"invocation {self.n}: {p}" for p in problems]
        dump = json.loads(spans_path.read_text()) if spans and code == 0 else None
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, rss, dump

    def check(self, out_dir: Path, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}, log in {self.work}"]
        digests = checks.digest_dir(out_dir)
        if self.reference is not None:
            if digests != self.reference:
                return ["artifacts differ from the first (single-worker) invocation"]
            return ["same artifacts as the first invocation, which failed"] if self.reference_failed else []
        # The first invocation of a run is the reference: it gets the full
        # checks, and every later invocation must reproduce it byte for byte.
        self.reference = digests
        self.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        problems = []
        if self.seed == DEFAULT_SEED:
            golden = json.loads(GOLDEN.read_text()).get(self.w.name)
            if digests != golden:
                problems.append("artifacts differ from golden.json")
        try:
            problems += checks.artifact_problems(self.w, self.cfg, out_dir)
            problems += checks.sample_problems(self.w, self.cfg, out_dir, self.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"malformed artifacts: {exc!r}")
        self.reference_failed = bool(problems)
        return problems

    def close(self) -> None:
        if not self.problems:
            shutil.rmtree(self.work, ignore_errors=True)


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced invocations for `seconds`; returns (metrics, raw samples)."""
    w = run.w
    run.invoke(workers=1)  # reference and warm-up, untimed
    walls, rss, setups = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_probe(run.cfg_path))
        wall, peak, _ = run.invoke(w.workers)
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds and (len(walls) >= MIN_REPS or elapsed > seconds):
            break
    wall_s, setup_s = statistics.median(walls), statistics.median(setups)
    metrics = {
        "wall_s": wall_s,
        "slots_per_s": w.scenario_slots / (wall_s - setup_s),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


# -- traced run ----------------------------------------------------------------------


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict, list[str]]:
    """Alternating untraced/traced invocations; returns (metrics, samples, notes)."""
    w = run.w
    notes = []
    layer_dumps, command_dumps = [], []
    if w.workers > 1:
        # Pool workers are not traced, so the layer spans come from one
        # single-worker traced pass, which is also the reference invocation.
        _, _, dump = run.invoke(workers=1, spans=True)
        layer_dumps.append(dump)
        notes.append(f"layer spans from a single-worker traced pass; experiment.* and cli.* "
                     f"from the parent process of the {w.workers}-worker traced passes")
    else:
        run.invoke(workers=1)
    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    while True:
        for is_traced in (len(plain_walls) % 2 == 1, len(plain_walls) % 2 == 0):
            wall, _, dump = run.invoke(w.workers, spans=is_traced)
            (traced_walls if is_traced else plain_walls).append(wall)
            if is_traced:
                command_dumps.append(dump)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain_walls) > seconds and (
                len(plain_walls) >= MIN_TRACED_PAIRS or elapsed > seconds):
            break
    # A failed invocation is already counted by its check and left no dump.
    if w.workers == 1:
        layer_dumps = command_dumps
    layer_dumps = [d for d in layer_dumps if d is not None]
    command_dumps = [d for d in command_dumps if d is not None]
    if not layer_dumps or not command_dumps:
        raise BenchError(f"no traced invocation succeeded; logs in {run.work}")
    counters = [d["counters"] for d in layer_dumps]
    if any(c != counters[0] for c in counters):
        run.problems.append("deterministic counters differ between traced invocations")
    pools = [d["counters"].get("experiment.pools_started", 0) for d in command_dumps]
    if len(set(pools)) != 1:
        run.problems.append("experiment.pools_started differs between traced invocations")
    missing = sorted({m for d in layer_dumps + command_dumps for m in d["missing"]})
    if missing:
        notes.append("not traced, absent from the program: " + ", ".join(missing))
    layers, shares, n_slots = traced.layer_metrics(layer_dumps)
    notes.append(f"slot.ms over {n_slots} scenario-slots; routing share of slot time by "
                 "scenario: " + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items())))
    metrics = {
        **layers,
        **traced.counter_metrics(counters[0]),
        **traced.command_metrics(command_dumps),
        "experiment.pools_started": pools[0],
        "cli.bytes_written": run.bytes_written,
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
    }
    return metrics, {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}, notes


# -- record and report ---------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": git_commit(),
    }


def units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-dir", type=Path, default=OUT / "records",
                        help="directory for the run record (default perfbench-out/records)")
    parser.add_argument("--write-golden", action="store_true",
                        help="store the default seed's single-worker artifact digests in golden.json")
    args = parser.parse_args(argv)

    if not (SRC / "leolat" / "__init__.py").is_file():
        print(f"error: no leolat sources under {SRC}; run from a leolat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leolat

    if Path(leolat.__file__).resolve().parent != (SRC / "leolat").resolve():
        print(f"error: imported leolat from {leolat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    if args.write_golden:
        return write_golden(w)

    load_before = os.getloadavg()
    started = time.time()
    run = Run(w, args.seed)
    try:
        if args.trace:
            metrics, samples, notes = measure_traced(run, args.seconds)
        else:
            metrics, samples = measure_end_to_end(run, args.seconds)
            notes = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    names = units(bool(args.trace))
    correct = not run.problems
    record = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "machine": machine_record(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "config": config_for(w, args.seed),
        "scenario_slots": w.scenario_slots,
        "samples": samples,
        "metrics": metrics,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    args.record_dir.mkdir(parents=True, exist_ok=True)
    record_path = args.record_dir / f"{w.name}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}, seed {args.seed}, epoch {epoch_for(args.seed)} s, "
          f"{w.scenario_slots} scenario-slots per invocation, trace {args.trace}")
    for key, values in samples.items():
        print(f"  samples {key}: n={len(values)} " + " ".join(f"{v:.4g}" for v in values))
    for name, unit in names.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  failed_frac {run.failed / max(1, run.attempted):.3f} "
          f"({run.failed} of {run.attempted} invocations failed the output check)")
    print(f"  output check: {'PASS' if correct else 'FAIL'}")
    for problem in run.problems[:20]:
        print(f"    {problem}")
    print(f"  record: {record_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0


def write_golden(w: Workload) -> int:
    run = Run(w, DEFAULT_SEED)
    out_dir = run.work / "golden"
    try:
        wall, _, code = invoke(run.command(out_dir, workers=1), run.work / "golden-log.txt")
        if code != 0:
            print(f"error: leolat exited {code}; log in {run.work}", file=sys.stderr)
            return 1
        problems = checks.artifact_problems(w, run.cfg, out_dir) + \
            checks.sample_problems(w, run.cfg, out_dir, DEFAULT_SEED)
        if problems:
            print("error: artifacts fail the output check:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
            return 1
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[w.name] = checks.digest_dir(out_dir)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{w.name}: {len(golden[w.name])} digests written to {GOLDEN} ({wall:.1f} s)")
        return 0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
