"""Ablation — the Fig. 11 column: live map index, fleet batching.

The Fig. 11 package-delivery heatmap's 2.2 GHz column (its three
highest-compute operating points), seed 1, flown on the canonical urban
world, three ways: sequentially with the OctoMap index rebuilt after
every write (the read path before the live index), sequentially as
shipped, and as one fleet of 3.  All three land in ``BENCH_fleet.json``,
so the perf trajectory of each is visible PR-over-PR via
``tools/bench_report.py compare``.

Each gate sits with the code that earns it:

* the live index — the shipped sequential column must be at least
  :data:`SPEEDUP_FLOOR` times faster than the rebuilt-index column
  flown in the same run, with identical records;
* fleet correctness — every fleet run's (spec, report, status) triple
  matches the sequential campaign exactly (``wall_time_s`` excluded:
  fleet members share one wall clock by design).  The fleet-vs-
  sequential ratio is printed, not gated: batching alone measured
  0.85-0.97x on this column.
"""

import json
import time
from contextlib import contextmanager

from conftest import run_once

from repro.campaign import CampaignSpec, run_campaign
from repro.fleet import (
    FleetMission,
    SharedWorldState,
    fleet_gate_stats,
    run_workloads_fleet,
)
from repro.observability import trace
from repro.perception.octomap import OctoMap

#: The Fig. 11 heatmap's high-frequency column: every core count at the
#: TX2's 2.2 GHz operating point.
GRID_22 = [(2, 2.2), (3, 2.2), (4, 2.2)]

#: Minimum rebuilt-index/live-index wall-clock ratio the CI gate accepts.
SPEEDUP_FLOOR = 4.0

#: Fleet size — one fleet flies the whole column.
FLEET = 3

#: Cross-test stashes so later benchmarks compare against earlier ones
#: without re-flying them (file order runs them first; a solo run
#: recomputes a missing reference untimed).
_REBUILT = {}
_SEQUENTIAL = {}


def _spec() -> CampaignSpec:
    return CampaignSpec(
        workloads=["package_delivery"], grid=list(GRID_22), seeds=[1]
    )


def _run_campaign(fleet_batch=None):
    """Fly the column; returns (records, wall_seconds)."""
    started = time.perf_counter()
    campaign = run_campaign(_spec(), fleet_batch=fleet_batch)
    wall = time.perf_counter() - started
    assert campaign.failed == 0, campaign.summary()
    return campaign.records, wall


def record_identity(records):
    """Run hash -> (spec payload, report, status); excludes wall_time_s,
    which legitimately differs (same invariant the campaign sharding
    equivalence suite compares)."""
    return {
        r["run_key"]: (
            json.dumps(r["spec"], sort_keys=True),
            json.dumps(r.get("report"), sort_keys=True),
            r["status"],
        )
        for r in records
    }


@contextmanager
def _index_rebuilt_after_every_write():
    """Fly the read path the OctoMap had before its index stayed live:
    every batch write marks the sorted index dirty, so the next query
    rebuilds it from the cell dict.  Answers are unchanged; only the
    cost moves."""
    merge = OctoMap._apply_log_odds_batch

    def invalidate_then_write(self, packed, delta, counts=None):
        self._index_dirty = True
        merge(self, packed, delta, counts)

    OctoMap._apply_log_odds_batch = invalidate_then_write
    try:
        yield
    finally:
        OctoMap._apply_log_odds_batch = merge


def _run_rebuilt_campaign():
    with _index_rebuilt_after_every_write():
        return _run_campaign()


def _reference(stash, fly):
    if "records" not in stash:
        stash["records"], stash["wall"] = fly()
    return stash["records"], stash["wall"]


def test_fig11_column_rebuilt_index(benchmark, print_header):
    print_header(
        "Fleet ablation — sequential, index rebuilt after every write "
        "(Fig. 11, 2.2 GHz column)"
    )
    _REBUILT["records"], _REBUILT["wall"] = run_once(
        benchmark, _run_rebuilt_campaign
    )
    print(f"rebuilt index: {len(_REBUILT['records'])} missions in "
          f"{_REBUILT['wall']:.1f}s")


def test_fig11_column_sequential(benchmark, print_header):
    print_header("Fleet ablation — sequential reference (Fig. 11, 2.2 GHz column)")
    records, wall = run_once(benchmark, _run_campaign)
    _SEQUENTIAL["records"] = records
    _SEQUENTIAL["wall"] = wall
    rebuilt_records, rebuilt_wall = _reference(_REBUILT, _run_rebuilt_campaign)

    assert record_identity(records) == record_identity(rebuilt_records), (
        "the live index changed mission records"
    )
    ratio = rebuilt_wall / wall
    print(
        f"rebuilt index {rebuilt_wall:.1f}s / live index {wall:.1f}s "
        f"= {ratio:.2f}x speedup (gate: >= {SPEEDUP_FLOOR:.1f}x)"
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"live-index speedup {ratio:.2f}x fell below the "
        f"{SPEEDUP_FLOOR:.1f}x gate (rebuilt {rebuilt_wall:.1f}s, live "
        f"{wall:.1f}s) — the OctoMap index likely stopped staying live"
    )


def test_fig11_column_fleet(benchmark, print_header):
    print_header(f"Fleet ablation — fleet of {FLEET} (Fig. 11, 2.2 GHz column)")
    fleet_records, fleet_wall = run_once(
        benchmark, _run_campaign, fleet_batch=FLEET
    )
    seq_records, seq_wall = _reference(_SEQUENTIAL, _run_campaign)

    assert record_identity(fleet_records) == record_identity(seq_records), (
        "fleet campaign records diverged from sequential execution"
    )
    print(
        f"sequential {seq_wall:.1f}s / fleet {fleet_wall:.1f}s "
        f"= {seq_wall / fleet_wall:.2f}x (batching alone; not gated)"
    )


# --- Gate-contention scaling: traced fleets of 3 vs 9 -----------------
#
# Every member pays one gate wait per tick; the gate amortizes each
# tick's batched kernels over all members.  Flying the same short
# scanning mission at both widths (same seed per member, so every
# member survives the full flight and the gate runs at full width
# throughout) puts two rows into BENCH_fleet.json whose ratio is the
# amortization trend: per-mission wall should *fall* as the fleet
# widens, while mean gate wait stays in the same order of magnitude.

#: Cross-test stash: fleet-of-3 row for the fleet-of-9 comparison.
_GATE = {}


def _traced_uniform_fleet(n):
    """Fly n copies of the golden short scanning mission, traced."""
    missions = [
        FleetMission(
            workload="scanning",
            seed=1,
            cores=4,
            frequency_ghz=2.2,
            workload_kwargs={"area_width": 40.0, "area_length": 24.0},
        )
        for _ in range(n)
    ]
    labels = [f"m{i}:scanning" for i in range(n)]
    started = time.perf_counter()
    with trace.capture() as tracer:
        results, errors = run_workloads_fleet(missions, labels=labels)
    wall = time.perf_counter() - started
    assert all(error is None for error in errors), errors
    assert all(result.report.success for result in results)
    return fleet_gate_stats(tracer.metrics.snapshot()), wall


def _gate_row(n, gate, wall):
    waits = [h for h in gate["wait"].values() if h["count"]]
    mean_wait = (
        sum(h["sum"] for h in waits) / sum(h["count"] for h in waits)
        if waits
        else 0.0
    )
    max_wait = max((h["max"] for h in waits), default=0.0)
    return {
        "n": n,
        "ticks": gate["ticks"],
        "wall_s": wall,
        "per_mission_s": wall / n,
        "mean_wait_ms": mean_wait * 1e3,
        "max_wait_ms": max_wait * 1e3,
    }


def _print_gate_row(print_fn, row):
    print_fn(
        f"fleet of {row['n']}: {row['ticks']} gate ticks in "
        f"{row['wall_s']:.2f}s ({row['per_mission_s']:.2f}s/mission), "
        f"gate wait mean {row['mean_wait_ms']:.3f}ms "
        f"max {row['max_wait_ms']:.3f}ms"
    )


def test_gate_wait_fleet3(benchmark, print_header):
    print_header("Gate contention — traced fleet of 3 (scanning, seed 1)")
    gate, wall = run_once(benchmark, _traced_uniform_fleet, 3)
    assert gate["ticks"] > 0 and gate["retired"] == 3
    assert len(gate["wait"]) == 3
    _GATE[3] = _gate_row(3, gate, wall)
    _print_gate_row(print, _GATE[3])


def test_gate_wait_fleet9(benchmark, print_header):
    print_header("Gate contention — traced fleet of 9 (scanning, seed 1)")
    gate, wall = run_once(benchmark, _traced_uniform_fleet, 9)
    assert gate["ticks"] > 0 and gate["retired"] == 9
    assert len(gate["wait"]) == 9
    row9 = _gate_row(9, gate, wall)
    _print_gate_row(print, row9)

    if 3 not in _GATE:  # solo run: recompute the narrow row untimed
        gate3, wall3 = _traced_uniform_fleet(3)
        _GATE[3] = _gate_row(3, gate3, wall3)
    row3 = _GATE[3]
    amortization = row3["per_mission_s"] / row9["per_mission_s"]
    print(
        f"amortization 3 -> 9: {row3['per_mission_s']:.2f}s -> "
        f"{row9['per_mission_s']:.2f}s per mission "
        f"({amortization:.2f}x)"
    )
    # Widening the fleet must not make per-mission wall *worse*: the
    # gate's serialization overhead has to stay amortized away by the
    # batched kernels.  (Floor is deliberately loose — 1.0 would flake
    # on shared CI runners.)
    assert row9["per_mission_s"] < 1.5 * row3["per_mission_s"], (
        f"fleet-of-9 per-mission wall {row9['per_mission_s']:.2f}s vs "
        f"fleet-of-3 {row3['per_mission_s']:.2f}s — gate contention is "
        "no longer amortized by batching"
    )


# --- Shared-world ablation: one city, 3 drones ------------------------
#
# Independent fleets batch N disjoint worlds; the shared-world path adds
# the conflicts gate phase (pairwise separations + priority resolution)
# and peer-aware collision checks on top.  This row times a 3-drone
# package-delivery fleet through one shared_city and lands its wall in
# BENCH_fleet.json, so the airspace machinery's cost trends PR-over-PR
# alongside the plain fleet rows — and hard-asserts the low-difficulty
# safety contract (everyone lands, lanes keep them a street apart).

#: Pinned city every member flies through (one scenario key, one world).
SHARED_CITY = {"family": "shared_city", "difficulty": 0.3, "seed": 7}


def _shared_city_fleet(n):
    """Fly n drones through one shared_city; returns (state, wall)."""
    missions = [
        FleetMission(
            workload="package_delivery",
            seed=10 + member,
            cores=4,
            frequency_ghz=2.2,
            workload_kwargs={"scenario": dict(SHARED_CITY), "member": member},
        )
        for member in range(n)
    ]
    state = SharedWorldState()
    started = time.perf_counter()
    results, errors = run_workloads_fleet(missions, shared_world=state)
    wall = time.perf_counter() - started
    assert all(error is None for error in errors), errors
    assert all(result.report.success for result in results)
    return state, results, wall


def test_shared_city_fleet3(benchmark, print_header):
    print_header("Shared-world ablation — 3 drones, one shared_city")
    state, results, wall = run_once(benchmark, _shared_city_fleet, 3)
    print(
        f"3 drones in {wall:.1f}s: min separation "
        f"{state.min_separation_m:.1f}m, near misses {state.near_misses}, "
        f"holds {state.conflict_holds}, collisions {state.drone_collisions}"
    )
    # Low difficulty + parallel lanes: the airspace must stay clean.
    assert state.drone_collisions == 0
    assert state.near_misses == 0
    assert state.min_separation_m >= 5.0, state.min_separation_m
    # And every report carries the airspace extras.
    for result in results:
        extra = result.report.extra
        assert extra["fleet_near_misses"] == 0, extra
        assert extra["fleet_min_separation_m"] >= 5.0, extra
