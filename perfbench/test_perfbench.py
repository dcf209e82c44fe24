"""Tests of the benchmark itself, on small versions of its workloads.

Each benchmark workload has a small variant here (short missions in
small worlds, a two-cell campaign) flown through the same set-up, flight,
wrapper and metric code as the full benchmark.  Run with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from perfbench import layers, ledger, missions, run
from repro.world import empty_world, make_box_obstacle, make_person


class SmallDelivery(missions.Delivery):
    def mission_kwargs(self):
        world = empty_world((50, 50, 12), name="small-city")
        world.add(make_box_obstacle((0, 0, 4), (6, 6, 8), kind="building"))
        return {"world": world, "goal": np.array([18.0, 18.0, 3.0])}


class SmallSearchRescue(missions.SearchRescue):
    def mission_kwargs(self):
        world = empty_world((30, 30, 10), name="small-site")
        world.add(make_box_obstacle((0, 8, 2), (4, 2, 4), kind="debris"))
        world.add(make_person((8.0, 8.0, 0.9), name="survivor-0"))
        return {"world": world, "coverage_target": 0.9,
                "mapping_ceiling": 8.0, "n_survivors": 1}


class SmallCityCross2(missions.CityCross2):
    scenario = {
        "family": "shared_city",
        "difficulty": 0.0,
        "seed": 3,
        "knobs": {"blocks": 2, "block_size": 10.0, "street_width": 8.0,
                  "cross_traffic": 1, "altitude_slots": 1},
    }


class SmallCampaignSweep(missions.CampaignSweep):
    missions = ("scanning",)
    grid = [(4, 2.2), (2, 0.8)]
    campaign_kwargs = {"scanning": {"area_width": 40.0, "area_length": 24.0}}


SMALL = {w.name: w for w in (SmallDelivery(), SmallSearchRescue(),
                             SmallCityCross2(), SmallCampaignSweep())}
SEEDS = [1]


def _originals():
    """Every attribute the wrappers replace, as found now."""
    found = {}
    for _layer, owner, attr, _units in layers.WRAPS:
        target = layers._resolve(owner)
        found[(owner, attr)] = target.__dict__[attr]
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    found[(name, attr)] = value
    owner, attr = layers.TICK
    found[layers.TICK] = layers._resolve(owner).__dict__[attr]
    return found


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each small workload flown untraced, then traced."""
    out = {}
    for name, workload in SMALL.items():
        workdir = tmp_path_factory.mktemp(name)
        untraced = workload.fly(workload.setup(SEEDS, workdir), SEEDS,
                                workdir)
        before = _originals()
        traced, totals, cache = run.traced_flight(workload, SEEDS, workdir)
        after = _originals()
        out[name] = (untraced, traced, totals, cache, before, after)
    return out


def test_every_workload_has_a_small_variant():
    assert set(SMALL) == set(missions.WORKLOADS_BY_NAME)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((missions.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        missions.WORKLOADS_BY_NAME)
    for key, metrics in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == metrics


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrappers_restored_after_traced_run(traced_runs, name):
    *_, before, after = traced_runs[name]
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_digests_identical(traced_runs, name):
    untraced, traced, *_ = traced_runs[name]
    assert untraced.digests and untraced.errors == 0
    assert traced.digests == untraced.digests


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_never_exceed_wall(traced_runs, name):
    _, traced, totals, *_ = traced_runs[name]
    budget = traced.lanes * traced.wall_s
    self_times = [v[1] for v in totals["layers"].values()]
    assert all(0.0 <= t <= budget for t in self_times)
    assert sum(self_times) <= budget


@pytest.mark.parametrize("name", sorted(SMALL))
def test_coverage_reported_for_every_workload(traced_runs, name):
    untraced, traced, totals, cache, *_ = traced_runs[name]
    metrics = run.per_layer(totals, traced, untraced.wall_s, cache)
    assert [m for m, _ in run.PER_LAYER] == list(metrics)
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["core.ticks"] > 0
    fleet = [metrics[m] for m in ("fleet.kernels.self_s",
                                  "fleet.gate_wait_s")]
    if name == "city_cross2":
        assert all(v > 0 for v in fleet)
    else:
        assert fleet == [0.0, 0.0]


def test_campaign_workers_report_their_layers(traced_runs):
    _, traced, totals, *_ = traced_runs["campaign_sweep"]
    # Missions fly only in the forked workers: their ticks must arrive.
    assert totals["layers"]["core.ticks"][0] > 0
    assert len(traced.record_walls) == len(traced.digests) == 2


def test_digest_check_counts_mismatches():
    digest = {"workload": "scanning", "seed": 1, "cores": 4,
              "frequency_ghz": 2.2, "success": True, "failure_reason": None,
              "mission_time_s": 10.0, "total_energy_j": 100.0,
              "flight_distance_m": 5.0, "replans": 0.0}
    key = missions.digest_key("campaign_sweep", digest)
    flight = missions.Flight(wall_s=1.0, sim_s=10.0, digests=[digest])
    check = functools.partial(run.check, "campaign_sweep", [flight])
    assert check({key: dict(digest)})[:2] == (1, 0)
    assert check({key: dict(digest, total_energy_j=100.0 * (1 + 1e-6))})[:2] \
        == (1, 1)
    assert check({})[:2] == (1, 1)
    raised = missions.Flight(wall_s=1.0, sim_s=0.0, digests=[], errors=1)
    assert run.check("campaign_sweep", [raised], {})[:2] == (1, 1)


def test_seeds_pick_fixed_pool_entries():
    refs = missions.load_references()
    for name, workload in missions.WORKLOADS_BY_NAME.items():
        pool = refs["pools"][name]
        picked = workload.mission_seeds(5, refs["pools"])
        assert picked == workload.mission_seeds(5, refs["pools"])
        assert set(picked) <= set(pool["seeds"])
        held_out = workload.mission_seeds(missions.HELD_OUT_SEED,
                                          refs["pools"])
        assert not set(held_out) & set(pool["seeds"])


def test_every_pool_mission_has_a_reference():
    refs = missions.load_references()
    for name, pool in refs["pools"].items():
        for seed in pool["seeds"] + pool["held_out"]:
            assert any(key.startswith(f"{name}:")
                       and key.split("/")[1] == str(seed)
                       for key in refs["digests"]), (name, seed)


def test_attribute_names_the_layer_that_moved(tmp_path, capsys):
    def results(safety, insert):
        layer = {"perception.safety_filter.self_s": safety,
                 "perception.insert_scan.self_s": insert,
                 "perception.insert_scan.calls": 10.0}
        return {"schema": ledger.SCHEMA, "workloads": {"delivery": {
            "end_to_end": {"wall_s": ledger.stats([10.0])},
            "per_layer": {k: ledger.stats([v]) for k, v in layer.items()},
        }}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(results(8.0, 1.0)))
    new.write_text(json.dumps(results(2.0, 1.1)))
    assert ledger.main(["attribute", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "moved: perception.safety_filter.self_s" in out
    assert "insert_scan.calls" not in out


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    bench.joinpath("run.py").write_text(
        (missions.HERE / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delivery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
