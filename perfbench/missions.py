"""The benchmark's workloads: what one run flies, how it is set up, and
the digest each mission is checked against.

Every workload is driven through the program's public API only:
``Workload`` + ``make_simulation`` for sequential missions,
``run_workloads_fleet(shared_world=True)`` for the shared-city fleet and
``run_campaign(jobs=2)`` for the heatmap sweep.

Mission seeds come from a fixed pool per workload (``references.json``):
the run's ``--seed`` picks which pool entries it flies, so the same seed
always flies the same missions and every mission has a stored reference
digest.  Each pool holds missions of one length class (similar simulated
mission time), so a run's host time measures the simulator rather than
which mission the seed happened to draw.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign import (
    DEFAULT_GRID,
    CampaignSpec,
    CampaignStore,
    run_campaign,
)
from repro.core.api import make_simulation
from repro.core.workloads import WORKLOADS
from repro.fleet import FleetMission, run_workloads_fleet
from repro.scenarios import clear_scenario_cache

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: TX2 operating point of the sequential and fleet workloads.
CORES, FREQUENCY_GHZ = 4, 2.2
#: Shared city of ``city_cross2``: pinned world, crossing routes at one
#: altitude, so the two drones must yield to each other.
CITY_SCENARIO = {
    "family": "shared_city",
    "difficulty": 0.5,
    "seed": 7,
    "knobs": {"cross_traffic": 1, "altitude_slots": 1},
}
#: Relative tolerance of float digest fields (the goldens' tolerance).
RTOL = 1e-9
#: Times each run repeats its set-up to report a median ``setup_s``.
SETUP_REPEATS = 15
#: The ``--seed`` that flies each workload's held-out missions.
HELD_OUT_SEED = 90001


@dataclass
class Flight:
    """What one pass over a run's missions produced."""

    wall_s: float
    sim_s: float
    digests: List[Dict[str, Any]]
    #: missions that raised (counted in ``failed`` with digest mismatches)
    errors: int = 0
    #: concurrent host lanes (threads or worker processes) that flew it
    lanes: int = 1
    #: campaign-only: per-record worker wall times
    record_walls: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def report_digest(workload: str, seed: int, cores: int, frequency_ghz: float,
                  report, member: Optional[int] = None) -> Dict[str, Any]:
    """The simulated outcome of one mission (host time excluded)."""
    if not isinstance(report, dict):
        report = asdict(report)
    extra = report.get("extra") or {}
    digest = {
        "workload": workload,
        "seed": int(seed),
        "cores": int(cores),
        "frequency_ghz": float(frequency_ghz),
        "success": bool(report["success"]),
        "failure_reason": report["failure_reason"],
        "mission_time_s": float(report["mission_time_s"]),
        "total_energy_j": float(report["total_energy_j"]),
        "flight_distance_m": float(report["flight_distance_m"]),
        "replans": float(extra.get("replans", 0.0)),
    }
    if member is not None:
        digest["member"] = int(member)
    for key in ("fleet_conflict_holds", "fleet_near_misses",
                "fleet_min_separation_m"):
        if key in extra:
            digest[key] = float(extra[key])
    return digest


def digest_key(bench: str, digest: Dict[str, Any]) -> str:
    """``<benchmark workload>:<mission>/<seed>/<cores>x<GHz>[/m<member>]``."""
    key = (f"{bench}:{digest['workload']}/{digest['seed']}/"
           f"{digest['cores']}x{digest['frequency_ghz']:g}")
    return key if "member" not in digest else f"{key}/m{digest['member']}"


_EXACT = ("workload", "seed", "cores", "frequency_ghz", "member", "success",
          "failure_reason", "replans", "fleet_conflict_holds",
          "fleet_near_misses")


def digest_matches(digest: Dict[str, Any], reference: Optional[Dict]) -> bool:
    """Exact on identity and outcome fields, ``RTOL`` on float metrics."""
    if reference is None or set(digest) != set(reference):
        return False
    for key, ref in reference.items():
        got = digest[key]
        if key in _EXACT:
            if got != ref:
                return False
        elif abs(got - ref) > RTOL * max(abs(ref), 1e-300):
            return False
    return True


def load_references() -> Dict[str, Any]:
    return json.loads(REFERENCES.read_text())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class BenchWorkload:
    """One benchmark workload: set-up and flight of a run's missions."""

    name = ""
    #: pool entries one run flies
    per_run = 1

    def mission_seeds(self, seed: int, pools: Dict[str, Any]) -> List[int]:
        """The pool entries ``seed`` selects (fixed per seed)."""
        pool = pools[self.name]
        if seed == HELD_OUT_SEED:
            return list(pool["held_out"])
        return sorted(random.Random(seed).sample(pool["seeds"], self.per_run))

    def setup(self, seeds: Sequence[int], workdir: Path) -> Any:
        """Everything before the first tick; returns what ``fly`` needs."""
        raise NotImplementedError

    def fly(self, state: Any, seeds: Sequence[int], workdir: Path) -> Flight:
        raise NotImplementedError


class Sequential(BenchWorkload):
    """Missions flown one after another in this process."""

    mission = ""

    def mission_kwargs(self) -> Dict[str, Any]:
        """Extra workload constructor arguments (none: canonical world)."""
        return {}

    def setup(self, seeds, workdir):
        missions = []
        for s in seeds:
            workload = WORKLOADS[self.mission](seed=s, **self.mission_kwargs())
            make_simulation(workload, cores=CORES, frequency_ghz=FREQUENCY_GHZ,
                            seed=s)
            missions.append(workload)
        return missions

    def fly(self, state, seeds, workdir):
        wall = sim = 0.0
        digests = []
        errors = 0
        for s, workload in zip(seeds, state):
            t0 = time.perf_counter()
            try:
                report = workload.run()
            except Exception:  # a raising mission is a failed operation
                traceback.print_exc()
                errors += 1
                continue
            finally:
                wall += time.perf_counter() - t0
            sim += report.mission_time_s
            digests.append(report_digest(self.mission, s, CORES,
                                         FREQUENCY_GHZ, report))
        return Flight(wall_s=wall, sim_s=sim, digests=digests, errors=errors)


class Delivery(Sequential):
    """The Fig. 11 package_delivery mission, one per run."""

    name = "delivery"
    mission = "package_delivery"


class SearchRescue(Sequential):
    """Four search_rescue missions per run."""

    name = "search_rescue"
    mission = "search_rescue"
    per_run = 4


class CityCross2(BenchWorkload):
    """Two package_delivery drones crossing one shared city as a fleet."""

    name = "city_cross2"
    members = 2
    scenario = CITY_SCENARIO

    def _missions(self, seed: int) -> List[FleetMission]:
        return [
            FleetMission("package_delivery", seed=seed, cores=CORES,
                         frequency_ghz=FREQUENCY_GHZ,
                         workload_kwargs={"scenario": dict(self.scenario),
                                          "member": m})
            for m in range(self.members)
        ]

    def setup(self, seeds, workdir):
        # The set-up each fleet thread performs, from a cold scenario
        # cache: the first member builds the city, the second hits.
        clear_scenario_cache()
        for mission in self._missions(seeds[0]):
            workload = WORKLOADS[mission.workload](
                seed=mission.seed, **mission.workload_kwargs)
            make_simulation(workload, cores=mission.cores,
                            frequency_ghz=mission.frequency_ghz,
                            seed=mission.seed)
        return None

    def fly(self, state, seeds, workdir):
        clear_scenario_cache()
        missions = self._missions(seeds[0])
        t0 = time.perf_counter()
        results, errors = run_workloads_fleet(missions, shared_world=True)
        wall = time.perf_counter() - t0
        digests = []
        sim = 0.0
        for member, (mission, result) in enumerate(zip(missions, results)):
            if result is None:
                continue
            sim += result.report.mission_time_s
            digests.append(report_digest(mission.workload, mission.seed,
                                         mission.cores, mission.frequency_ghz,
                                         result.report, member=member))
        return Flight(wall_s=wall, sim_s=sim, digests=digests,
                      errors=sum(e is not None for e in errors),
                      lanes=self.members)


def _worker_setup(name: str, kwargs: Dict[str, Any], seed: int, cores: int,
                  frequency_ghz: float) -> None:
    """Campaign worker warm-up: one mission's set-up in a fresh worker."""
    workload = WORKLOADS[name](seed=seed, **kwargs)
    make_simulation(workload, cores=cores, frequency_ghz=frequency_ghz,
                    seed=seed)


class CampaignSweep(BenchWorkload):
    """``run_campaign`` over two short workloads x the 3x3 TX2 grid."""

    name = "campaign_sweep"
    per_run = 2
    jobs = 2
    missions = ("scanning", "aerial_photography")
    grid = DEFAULT_GRID  # the paper's 3x3 TX2 grid
    #: per-mission constructor overrides (none: canonical worlds)
    campaign_kwargs: Dict[str, Dict[str, Any]] = {}

    def spec(self, seeds) -> CampaignSpec:
        return CampaignSpec(workloads=list(self.missions), grid=list(self.grid),
                            seeds=list(seeds),
                            workload_kwargs=dict(self.campaign_kwargs))

    def setup(self, seeds, workdir):
        spec = self.spec(seeds)
        spec.expand()
        CampaignStore(workdir / "setup.jsonl", fresh=True)
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            first = self.missions[0]
            futures = [pool.submit(_worker_setup, first,
                                   self.campaign_kwargs.get(first, {}),
                                   seeds[0], *self.grid[0])
                       for _ in range(self.jobs)]
            for future in futures:
                future.result()
        return spec

    def fly(self, spec, seeds, workdir):
        store = CampaignStore(workdir / "campaign.jsonl", fresh=True)
        t0 = time.perf_counter()
        report = run_campaign(spec, jobs=self.jobs, store=store)
        wall = time.perf_counter() - t0
        digests = []
        sim = 0.0
        walls = []
        for record in report.records:
            if record.get("status") != "ok":
                continue
            cfg = record["config"]
            sim += record["report"]["mission_time_s"]
            walls.append(record["wall_time_s"])
            digests.append(report_digest(cfg["workload"], cfg["seed"],
                                         cfg["cores"], cfg["frequency_ghz"],
                                         record["report"]))
        return Flight(wall_s=wall, sim_s=sim, digests=digests,
                      errors=report.failed, lanes=self.jobs,
                      record_walls=walls)


WORKLOADS_BY_NAME: Dict[str, BenchWorkload] = {
    w.name: w for w in (Delivery(), SearchRescue(), CityCross2(),
                        CampaignSweep())
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """A run's set-up samples and its flight passes."""

    setup_samples: List[float]
    passes: List[Flight]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.passes) / len(self.passes)

    @property
    def sim_s(self) -> float:
        return sum(p.sim_s for p in self.passes) / len(self.passes)


def run_once(workload: BenchWorkload, seeds: Sequence[int], seconds: float,
             workdir: Path) -> RunResult:
    """Set up ``SETUP_REPEATS`` times, then fly passes until ``seconds``
    of flight have been measured (at least one pass)."""
    samples = []
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seeds, workdir)
        samples.append(time.perf_counter() - t0)
    passes: List[Flight] = []
    flown = 0.0
    while not passes or flown < seconds:
        if passes:
            state = workload.setup(seeds, workdir)
        flight = workload.fly(state, seeds, workdir)
        passes.append(flight)
        flown += flight.wall_s
    return RunResult(setup_samples=samples, passes=passes)


def make_workdir(root: Path) -> Path:
    """A private scratch directory inside the checkout."""
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass
