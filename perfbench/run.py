"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload delivery --seed 1 --seconds 10 --trace 0

``--trace 0`` flies the run untraced and reports the end-to-end metrics;
``--trace 1`` flies it untraced and then again under the layer wrappers,
and reports the per-layer metrics.  A table of the metrics goes to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every flown
mission's simulated digest is checked against ``references.json``; a
mission that raises or does not match counts as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END: List[Tuple[str, str]] = [
    ("wall_s", "s"),
    ("sim_rate", "sim_s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

#: (name, unit) of the per-layer metrics, as in BENCHMARK.json.
PER_LAYER: List[Tuple[str, str]] = [
    ("perception.safety_filter.calls", "count"),
    ("perception.safety_filter.self_s", "s"),
    ("perception.safety_filter.total_s", "s"),
    ("perception.boxes_occupied.calls", "count"),
    ("perception.boxes_occupied.self_s", "s"),
    ("perception.boxes_occupied.boxes", "count"),
    ("perception.insert_scan.calls", "count"),
    ("perception.insert_scan.self_s", "s"),
    ("perception.insert_scan.points", "count"),
    ("perception.log_odds_many.self_s", "s"),
    ("sensors.capture_depth.calls", "count"),
    ("sensors.capture_depth.self_s", "s"),
    ("world.ray_cast_many.calls", "count"),
    ("world.ray_cast_many.self_s", "s"),
    ("world.ray_cast_many.rays", "count"),
    ("planning.plan.calls", "count"),
    ("planning.plan.self_s", "s"),
    ("planning.plan.failed", "count"),
    ("planning.smooth.self_s", "s"),
    ("planning.segments_free.calls", "count"),
    ("planning.segments_free.self_s", "s"),
    ("planning.segments_free.segments", "count"),
    ("planning.ground_truth.self_s", "s"),
    ("core.ticks", "count"),
    ("core.tick_p50_ms", "ms"),
    ("core.tick_p99_ms", "ms"),
    ("core.loop_self_s", "s"),
    ("control.update.self_s", "s"),
    ("dynamics.step.self_s", "s"),
    ("energy.draw.self_s", "s"),
    ("compute.advance_to.self_s", "s"),
    ("fleet.kernels.self_s", "s"),
    ("fleet.conflicts.self_s", "s"),
    ("fleet.gate_wait_s", "s"),
    ("fleet.holds", "count"),
    ("scenarios.instantiate.calls", "count"),
    ("scenarios.instantiate.self_s", "s"),
    ("scenarios.cache_hit_ratio", "ratio"),
    ("campaign.store.self_s", "s"),
    ("campaign.worker_busy_ratio", "ratio"),
    ("campaign.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check(bench: str, flights, references) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every flown mission."""
    attempted = failed = 0
    problems: List[str] = []
    from perfbench.missions import digest_key, digest_matches

    for flight in flights:
        attempted += len(flight.digests) + flight.errors
        failed += flight.errors
        if flight.errors:
            problems.append(f"{flight.errors} mission(s) raised")
        for digest in flight.digests:
            key = digest_key(bench, digest)
            if not digest_matches(digest, references.get(key)):
                failed += 1
                problems.append(f"digest mismatch: {key}")
    return attempted, failed, problems


def end_to_end(result) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run (``ok_frac`` aside)."""
    return {
        "wall_s": result.wall_s,
        "sim_rate": result.sim_s / result.wall_s,
        "setup_s": statistics.median(result.setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(totals: Dict[str, Any], traced, untraced_wall: float,
              cache_delta: Tuple[int, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced flight, in ``PER_LAYER`` order."""
    from perfbench.layers import WRAPS

    wrapped = {layer for layer, *_ in WRAPS}
    layers = totals["layers"]
    lanes = traced.lanes
    wall = traced.wall_s
    metrics: Dict[str, float] = {}

    def layer(name: str) -> List[float]:
        return layers.get(name, [0, 0.0, 0, 0.0])

    # ``<layer>.calls``, ``.self_s``, ``.total_s`` (nested wrapped calls
    # included) and ``.<work units>`` of every wrapped layer; the rest
    # are derived below.
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if base in wrapped:
            calls, self_s, units, total_s = layer(base)
            metrics[name] = {"calls": calls, "self_s": self_s,
                             "total_s": total_s}.get(field, units)
    timed = sum(v[1] for v in layers.values())
    gaps = totals["tick_gaps"]
    walls = sum(traced.record_walls)
    hits, misses = cache_delta
    metrics.update({
        "core.ticks": layer("core.ticks")[0],
        "core.tick_p50_ms": 1e3 * percentile(gaps, 50),
        "core.tick_p99_ms": 1e3 * percentile(gaps, 99),
        "core.loop_self_s": max(lanes * wall - timed, 0.0),
        "fleet.gate_wait_s": layer("fleet.gate")[1],
        "fleet.holds": sum(d.get("fleet_conflict_holds", 0.0)
                           for d in traced.digests),
        "scenarios.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "campaign.worker_busy_ratio": walls / (lanes * wall)
        if traced.record_walls else 0.0,
        "campaign.overhead_s": wall - walls / lanes
        if traced.record_walls else 0.0,
        "trace.overhead_ratio": wall / untraced_wall - 1.0,
        "trace.coverage": timed / (lanes * wall),
    })
    return {name: float(metrics.get(name, 0.0)) for name, _ in PER_LAYER}


def traced_flight(workload, seeds, workdir):
    """One more set-up, then one flight under the layer wrappers.

    Returns ``(flight, totals, (cache_hits, cache_misses))``: the flight,
    the wrappers' totals (forked campaign workers included) and the
    scenario-cache hits and misses during the flight.
    """
    from perfbench.layers import LayerTracer
    from repro.scenarios import cache_stats

    tracer = LayerTracer(child_dir=workdir)
    state = workload.setup(seeds, workdir)
    before = cache_stats()
    with tracer:
        flight = workload.fly(state, seeds, workdir)
    after = cache_stats()
    tracer.merge_children()
    return flight, tracer.totals(), (after["hits"] - before["hits"],
                                     after["misses"] - before["misses"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import missions

    workload = missions.WORKLOADS_BY_NAME.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{sorted(missions.WORKLOADS_BY_NAME)})", file=sys.stderr)
        return 2
    refs = missions.load_references()
    seeds = workload.mission_seeds(args.seed, refs["pools"])
    workdir = missions.make_workdir(ROOT)
    try:
        result = missions.run_once(workload, seeds, args.seconds, workdir)
        flights = list(result.passes)
        if args.trace:
            traced, totals, cache = traced_flight(workload, seeds, workdir)
            flights.append(traced)
            metrics = per_layer(totals, traced, result.passes[0].wall_s,
                                cache)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(result)
            units = dict(END_TO_END)
        attempted, failed, problems = check(workload.name, flights, refs["digests"])
        if not args.trace:
            metrics["ok_frac"] = (attempted - failed) / attempted
    finally:
        missions.remove_workdir(workdir)

    print(f"workload {workload.name}  seed {args.seed}  missions {seeds}  "
          f"passes {len(result.passes)}")
    for problem in problems:
        print(f"FAILED  {problem}")
    if not args.trace:
        print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
