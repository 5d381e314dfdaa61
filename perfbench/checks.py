"""Output checks for benchmark artifacts.

Every workload invocation writes artifacts; the benchmark accepts them only
if they pass these checks:

* For the default seed, the SHA-256 of every artifact equals the digest
  checked in under golden.json, generated from a single-worker run.
* For every seed, each reachable latency is at least the scenario's chord
  bound, each path starts and ends at the scenario's stations, and on a
  sample of scenario-slots leolat's shortest_path agrees with an
  independent networkx Dijkstra on the same snapshot to 1e-9 ms.

An unreachable slot is a valid result, not a failure.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import random
from pathlib import Path

import networkx as nx

TOLERANCE_MS = 1e-9
SAMPLED_SLOTS = 4
# Latencies are written with 4 decimals, so a written value may sit up to
# half a unit of the last digit below the exact route latency.
ROUNDING_MS = 0.5e-4


def digest_dir(path: Path) -> dict[str, str]:
    """SHA-256 of each file under path, keyed by relative name."""
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def artifact_problems(workload, cfg, out_dir: Path) -> list[str]:
    """Structural checks of one invocation's artifacts against its config."""
    from leolat.cli import slugify
    from leolat.experiment import chord_bound_ms

    n = cfg.n_slots
    problems = []
    bounds = {s.name: chord_bound_ms(s.src, s.dst, cfg.constants) for s in cfg.scenarios}
    if workload.command == "run":
        summary = json.loads((out_dir / "summary.json").read_text())
        records = {r["name"]: r for r in summary["scenarios"]}
        if list(records) != [s.name for s in cfg.scenarios]:
            problems.append(f"summary.json scenarios {list(records)} differ from the config")
        for sc in cfg.scenarios:
            name = f"{slugify(sc.name)}_slots.csv"
            rows = _read_csv(out_dir / name)
            if rows[0] != ["slot", "latency_ms", "path"]:
                problems.append(f"{name}: header {rows[0]}")
            body = rows[1:]
            if [int(r[0]) for r in body] != list(range(1, n + 1)):
                problems.append(f"{name}: slots are not 1..{n}")
            unreachable = 0
            for slot, latency, path in body:
                if latency == "" or path == "":
                    unreachable += 1
                    if latency != path:
                        problems.append(f"{name} slot {slot}: latency without path or path without latency")
                    continue
                if float(latency) < bounds[sc.name] - ROUNDING_MS:
                    problems.append(f"{name} slot {slot}: {latency} ms below chord bound "
                                    f"{bounds[sc.name]:.4f} ms")
                nodes = path.split("|")
                if nodes[0] != sc.src.label or nodes[-1] != sc.dst.label:
                    problems.append(f"{name} slot {slot}: path {nodes[0]}..{nodes[-1]} does not join "
                                    f"{sc.src.label} to {sc.dst.label}")
            if records.get(sc.name, {}).get("unreachable_slots") != unreachable:
                problems.append(f"summary.json unreachable_slots for {sc.name} differ from {name}")
    else:
        rows = _read_csv(out_dir / "sweep_range.csv")
        expected = [[s.name, f"{r:g}"] for r in workload.ranges for s in cfg.scenarios]
        if rows[0] != ["scenario", "lisl_range_km", "avg_latency_ms", "unreachable_slots"]:
            problems.append(f"sweep_range.csv: header {rows[0]}")
        if [r[:2] for r in rows[1:]] != expected:
            problems.append("sweep_range.csv: rows are not ranges x scenarios in order")
        for name, rng, avg, unreachable in rows[1:]:
            if not 0 <= int(unreachable) <= n or (avg == "") != (int(unreachable) == n):
                problems.append(f"sweep_range.csv {name} @ {rng} km: {unreachable} unreachable, avg {avg!r}")
            elif avg and float(avg) < bounds[name] - ROUNDING_MS:
                problems.append(f"sweep_range.csv {name} @ {rng} km: avg {avg} ms below chord bound")
    return problems


def _networkx_latency_ms(graph, i_src: int, i_dst: int) -> tuple[float | None, nx.Graph]:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    km_per_ms = graph.c_vacuum / 1e6
    g.add_weighted_edges_from(
        zip(graph.edge_i.tolist(), graph.edge_j.tolist(), (graph.edge_dist_km / km_per_ms).tolist())
    )
    try:
        return nx.dijkstra_path_length(g, i_src, i_dst), g
    except nx.NetworkXNoPath:
        return None, g


def sample_problems(workload, cfg, out_dir: Path, seed: int) -> list[str]:
    """Rebuild sampled snapshots and compare routes with networkx."""
    from leolat.cli import slugify
    from leolat.constellation import Constellation
    from leolat.topology import NodeRef, build_snapshot
    from leolat.routing import shortest_path

    ranges = workload.ranges or (None,)
    combos = [(r, sc, k) for r in ranges for sc in cfg.scenarios for k in range(1, cfg.n_slots + 1)]
    picks = random.Random(seed).sample(combos, min(SAMPLED_SLOTS, len(combos)))
    constellation = Constellation(cfg.constellation, cfg.constants)
    problems = []
    for lisl_range, sc, k in picks:
        where = f"{sc.name} slot {k}" + (f" @ {lisl_range} km" if lisl_range else "")
        params = cfg.topology if lisl_range is None else dataclasses.replace(
            cfg.topology, lisl_range_km=float(lisl_range))
        graph = build_snapshot(constellation, [sc.src, sc.dst], (k - 1) * cfg.slot_s, params,
                               slot_index=k)
        src, dst = NodeRef.ground(sc.src.label), NodeRef.ground(sc.dst.label)
        route = shortest_path(graph, src, dst)
        reference, g = _networkx_latency_ms(graph, graph.index_of(src), graph.index_of(dst))
        if (route is None) != (reference is None):
            problems.append(f"{where}: leolat reachable={route is not None}, "
                            f"networkx reachable={reference is not None}")
            continue
        if route is None:
            continue
        latency_ms = route.total_latency_s * 1000.0
        if abs(latency_ms - reference) > TOLERANCE_MS:
            problems.append(f"{where}: leolat {latency_ms!r} ms, networkx {reference!r} ms")
        idx = [graph.index_of(n) for n in route.nodes]
        if not all(g.has_edge(u, v) for u, v in zip(idx, idx[1:])):
            problems.append(f"{where}: route uses a link absent from the snapshot")
        elif abs(nx.path_weight(g, idx, "weight") - reference) > TOLERANCE_MS:
            problems.append(f"{where}: route links do not add up to its latency")
        if route.nodes[0] != src or route.nodes[-1] != dst:
            problems.append(f"{where}: route does not join the scenario's stations")
        if workload.command == "run":
            row = _read_csv(out_dir / f"{slugify(sc.name)}_slots.csv")[k]
            if row[1:] != [f"{latency_ms:.4f}", "|".join(route.labels())]:
                problems.append(f"{where}: written row {row} differs from the recomputed route")
    return problems
