"""Workload base classes and the shared perception pipeline.

Every MAVBench application follows the Perception -> Planning -> Control
pipeline of Fig. 5.  This module provides:

* :class:`Workload` — the interface the benchmark harness drives;
* :class:`OccupancyPipeline` — the shared perception chain (depth capture
  -> point cloud -> OctoMap) used by Package Delivery, 3D Mapping, and
  Search and Rescue, including the Eq.-2 velocity bound derived from the
  pipeline's current response time.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ...compute.kernels import octomap_runtime_scale
from ...compute.scheduler import Job
from ...observability import trace as _trace
from ...perception.octomap import OctoMap
from ...perception.point_cloud import PointCloud, depth_to_point_cloud
from ...planning.collision import CollisionChecker
from ...scenarios import (
    ScenarioSpec,
    instantiate_scenario,
    member_route as _member_route,
)
from ...world.environment import World
from ...world.geometry import AABB, norm as _vec_norm
from ..qof import QofReport
from ..simulator import Simulation
from ..velocity import max_velocity


class Workload(abc.ABC):
    """One end-to-end MAV application.

    Lifecycle: construct -> :meth:`build_world` -> attach to a
    :class:`Simulation` via :meth:`bind` -> :meth:`run`.
    """

    #: Workload identifier; must match the kernel-model workload key.
    name: str = "abstract"

    def __init__(self, seed: int = 0, scenario=None, member=None) -> None:
        self.seed = seed
        #: Injected scenario (spec / "family:difficulty" token / payload
        #: dict).  ``None`` keeps the workload's canonical hard-wired
        #: generator, bit-for-bit.
        self.scenario: Optional[ScenarioSpec] = (
            None if scenario is None else ScenarioSpec.coerce(scenario)
        )
        #: Fleet-member index in a shared-world scenario: picks this
        #: mission's start/goal lane assignment (``member_route``).
        #: ``None`` (the default) keeps the workload single-drone.
        self.member: Optional[int] = None if member is None else int(member)
        self.sim: Optional[Simulation] = None
        self.replans = 0

    @abc.abstractmethod
    def build_world(self) -> World:
        """The environment this workload flies in."""

    def scenario_world(self) -> Optional[World]:
        """The injected scenario's world, or ``None`` for the canonical one.

        Scenarios with no pinned seed inherit the workload seed, so a
        campaign's seed axis varies scenario worlds exactly like it
        varies the canonical generators.
        """
        if self.scenario is None:
            return None
        return instantiate_scenario(self.scenario, default_seed=self.seed)

    def member_route(self) -> Optional[Dict[str, object]]:
        """This member's start/goal assignment in a shared-world scenario.

        ``None`` unless both a member index and a scenario whose family
        supports member routes are set — every other configuration keeps
        the historical launch/goal logic bit-for-bit.
        """
        if self.member is None or self.scenario is None:
            return None
        return _member_route(self.scenario.resolved(self.seed), self.member)

    def start_position(self, world: World) -> np.ndarray:
        """Ground-level launch point (must be obstacle-free).

        Default: the first free spot found scanning diagonally inward from
        the southwest corner of the world.  Scenario worlds additionally
        require ground-level clearance: families place low obstacles
        (crop rows, rubble) that a probe at hover height misses but the
        drone would spawn inside.  The extra check is gated on an
        injected scenario so canonical worlds keep their historical
        launch points bit-for-bit.
        """
        route = self.member_route()
        if route is not None:
            # Shared-world members launch from their assigned lane; the
            # family guarantees street lanes are building-free.
            return np.asarray(route["start"], dtype=float).copy()
        lo, hi = world.bounds.lo, world.bounds.hi
        for frac in np.linspace(0.06, 0.5, 23):
            candidate = lo + (hi - lo) * np.array([frac, frac, 0.0])
            candidate[2] = 0.0
            if self.scenario is not None:
                if self._scenario_launch_clear(world, candidate):
                    return candidate
                continue
            probe = candidate.copy()
            probe[2] = 1.5
            if world.is_free(probe, margin=1.0):
                return candidate
        raise RuntimeError(
            f"no free launch point found in world '{world.name}'"
        )

    @staticmethod
    def _scenario_launch_clear(world: World, candidate: np.ndarray) -> bool:
        """Launch-candidate validation for scenario worlds: hover-height
        clearance plus a ground-level probe, because families place low
        obstacles (crop rows, rubble) that the hover-height probe misses
        but the drone would spawn inside."""
        probe = candidate.copy()
        probe[2] = 1.5
        if not world.is_free(probe, margin=1.0):
            return False
        ground = candidate.copy()
        ground[2] = 0.4
        return world.is_free(ground, margin=0.6)

    def bind(self, sim: Simulation) -> None:
        """Attach the workload to an assembled simulation."""
        self.sim = sim

    @abc.abstractmethod
    def run(self) -> QofReport:
        """Execute the full mission and return its QoF report."""

    # Convenience -------------------------------------------------------
    @property
    def _sim(self) -> Simulation:
        if self.sim is None:
            raise RuntimeError(
                f"workload '{self.name}' is not bound to a simulation"
            )
        return self.sim

    def extra_metrics(self) -> Dict[str, float]:
        """Application-specific QoF metrics (override as needed)."""
        return {"replans": float(self.replans)}


@dataclass
class OccupancyPipeline:
    """The depth -> point cloud -> OctoMap perception chain.

    The chain runs continuously while the drone flies: when the previous
    map-update job finishes, a new depth frame is captured and a new job
    chain submitted, so the *map update rate equals what the platform can
    sustain* — slower compute means a staler map, a longer response time,
    and via Eq. (2) a lower permitted velocity.

    Attributes
    ----------
    sim:
        The owning simulation.
    resolution:
        OctoMap voxel size (the energy case-study knob).
    max_rays:
        Point-cloud subsampling cap per inserted frame (bounds the real
        octree insertion cost in our pure-Python tree).
    stop_distance_m:
        The Eq.-2 stopping-distance budget.
    """

    sim: Simulation
    resolution: float = 0.5
    max_rays: int = 60
    stop_distance_m: float = 6.5
    endpoint_only: bool = False
    map_bounds: Optional[AABB] = None

    def __post_init__(self) -> None:
        bounds = self.map_bounds or self.sim.world.bounds
        self.octomap = OctoMap(resolution=self.resolution, bounds=bounds)
        # In a shared-world fleet the other drones are dynamic obstacles:
        # the enrolled sim's coordinator hands out this member's view of
        # them, which both the clearance probes and the checker consult.
        fleet = getattr(self.sim, "_fleet", None)
        shared = None if fleet is None else fleet.shared
        self.peers = None if shared is None else shared.view(self.sim)
        self.checker = CollisionChecker(
            octomap=self.octomap,
            drone_radius=self.sim.vehicle.params.radius_m,
            peers=self.peers,
        )
        self._busy = False
        self._pending_cloud: Optional[PointCloud] = None
        self.updates_completed = 0
        self._resolution_scale = octomap_runtime_scale(self.resolution)

    # ------------------------------------------------------------------
    # Continuous mapping
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    def tick(self) -> None:
        """Keep the pipeline saturated: start a new update when idle."""
        if not self._busy:
            self.start_update()

    def start_update(self) -> None:
        """Capture a frame and submit the point-cloud + OctoMap jobs."""
        self._busy = True
        self._pending_cloud = self.sim.capture_point_cloud(stride=1)

        def _point_cloud_done(job: Job) -> None:
            octomap_runtime = (
                self.sim.kernel_model.runtime_s(
                    "octomap", self.sim.platform, self.sim.scheduler.rng
                )
                * self._resolution_scale
            )
            self.sim.submit_kernel(
                "octomap",
                on_done=self._octomap_done,
                duration_s=octomap_runtime,
            )

        self.sim.submit_kernel("point_cloud", on_done=_point_cloud_done)

    def _octomap_done(self, job: Job) -> None:
        cloud = self._pending_cloud
        if cloud is not None:
            carve = 0 if self.endpoint_only else self.max_rays
            self.octomap.insert_scan(cloud, carve_rays=carve)
        self._pending_cloud = None
        self._busy = False
        self.updates_completed += 1

    # ------------------------------------------------------------------
    # Resolution switching (dynamic case study)
    # ------------------------------------------------------------------
    def set_resolution(self, resolution: float, reset: bool = True) -> bool:
        """Switch the map resolution (Fig. 19's dynamic knob).

        With ``reset`` (the default) the map starts empty at the new
        resolution and the caller re-scans; cross-resolution evidence is
        treacherous in both directions (re-gridded occupancy either
        blocks doorways for many scans or erodes walls to a single
        grazing beam), so a clean rebuild-from-sensing is both simpler
        and safer.  ``reset=False`` re-grids the existing knowledge via
        :meth:`OctoMap.rebuilt_at_resolution` instead.

        Returns True if the resolution actually changed (callers should
        re-sense before planning either way).
        """
        if abs(resolution - self.resolution) < 1e-9:
            return False
        self.resolution = resolution
        if reset:
            self.octomap = OctoMap(
                resolution=resolution, bounds=self.octomap.bounds
            )
        else:
            self.octomap = self.octomap.rebuilt_at_resolution(resolution)
        self.checker.octomap = self.octomap
        self._resolution_scale = octomap_runtime_scale(resolution)
        return True

    # ------------------------------------------------------------------
    # Eq. (2) velocity bound
    # ------------------------------------------------------------------
    def response_time_s(self) -> float:
        """Deterministic sensor-to-reaction latency of the chain."""
        km = self.sim.kernel_model
        cfg = self.sim.platform
        return (
            km.runtime_s("point_cloud", cfg)
            + km.runtime_s("octomap", cfg) * self._resolution_scale
            + km.runtime_s("collision_check", cfg)
        )

    def allowed_velocity(self) -> float:
        """Eq.-2 bound at the pipeline's current response time, clamped to
        the airframe's mechanical limit."""
        bound = max_velocity(self.response_time_s(), self.stop_distance_m)
        return min(bound, self.sim.vehicle.params.max_speed_ms)

    #: Speed cap while the near-term flight corridor is still unobserved.
    UNKNOWN_SPACE_SPEED = 1.5

    def clearance_along(
        self, direction: np.ndarray, max_dist: float = 8.0
    ) -> float:
        """Distance to the first *believed-occupied* voxel along
        ``direction`` from the vehicle (ray-marched on the belief map).

        In a shared-world fleet the answer is additionally capped by the
        distance to the nearest peer drone along the ray."""
        clearance = self._map_clearance_along(direction, max_dist)
        if self.peers is not None:
            clearance = min(
                clearance, self.peers.clearance_along(direction, max_dist)
            )
        return clearance

    def _map_clearance_along(
        self, direction: np.ndarray, max_dist: float = 8.0
    ) -> float:
        d = np.asarray(direction, dtype=float)
        speed = _vec_norm(d)
        if speed < 1e-6:
            return max_dist
        d = d / speed
        position = self.sim.state.position
        radius = self.sim.vehicle.params.radius_m
        step = self.octomap.resolution / 2.0
        # Accumulate the march distances exactly as the scalar loop did
        # (``dist += step``) so the probe set is bit-identical, then answer
        # every probe with one batched occupied-box query.
        dists: List[float] = []
        dist = step
        while dist <= max_dist:
            dists.append(dist)
            dist += step
        if not dists:
            return max_dist
        darr = np.asarray(dists)
        probes = position[None, :] + d[None, :] * darr[:, None]
        occupied = self.octomap.boxes_occupied(probes - radius, probes + radius)
        blocked = np.nonzero(occupied)[0]
        if blocked.size:
            return float(darr[blocked[0]])
        return max_dist

    def safe_speed_limit(self, direction: np.ndarray) -> float:
        """Velocity cap: Eq. (2), a reactive brake before believed
        obstacles, and an unknown-space crawl.

        The reactive term guarantees the drone can stop within its known
        clearance (v <= sqrt(2 a (clearance - margin))); the unknown-space
        term keeps optimistic planning honest by crawling whenever the
        corridor a few meters ahead is still unobserved.
        """
        limit = self.allowed_velocity()
        d = np.asarray(direction, dtype=float)
        speed = _vec_norm(d)
        if speed < 1e-6:
            return limit
        d = d / speed
        a_max = self.sim.vehicle.params.max_acceleration_ms2
        margin = self.sim.vehicle.params.radius_m + self.octomap.resolution
        clearance = self.clearance_along(d)
        brake = math.sqrt(2.0 * a_max * max(clearance - margin, 0.0))
        limit = min(limit, brake)
        position = self.sim.state.position
        # Both unknown-space probes answered by one batched map lookup.
        probes = position[None, :] + d[None, :] * np.array([[2.0], [4.0]])
        if np.any(np.isnan(self.octomap.log_odds_many(probes))):
            return min(limit, self.UNKNOWN_SPACE_SPEED)
        return limit

    def safety_filter(self, cmd: np.ndarray, cruise: float) -> np.ndarray:
        """Final velocity-command filter applied every control tick.

        1. clamps ``cmd`` to min(cruise, :meth:`safe_speed_limit`);
        2. emergency brake: if the vehicle's *current momentum* cannot be
           arrested before its known clearance (accounting for the
           velocity-loop response lag), command a full stop.  The pure
           speed-limit envelope assumes instantaneous response; a real
           (simulated) vehicle needs the lag term or it creeps into
           obstacles at the boundary.
        """
        with _trace.span("tick.safety_filter", "control"):
            return self._safety_filter(cmd, cruise)

    def _safety_filter(self, cmd: np.ndarray, cruise: float) -> np.ndarray:
        cmd = np.asarray(cmd, dtype=float).copy()
        limit = min(cruise, self.safe_speed_limit(cmd))
        speed = _vec_norm(cmd)
        if speed > limit and speed > 0:
            cmd = cmd * (limit / speed)
        v = self.sim.state.velocity
        v_mag = _vec_norm(v)
        if v_mag > 0.3:
            params = self.sim.vehicle.params
            response_lag = 1.0 / 3.0  # velocity-loop time constant
            stop_dist = v_mag**2 / (2.0 * params.max_acceleration_ms2)
            margin = params.radius_m + self.octomap.resolution
            clearance = self.clearance_along(v)
            if clearance - margin <= stop_dist + v_mag * response_lag:
                return np.zeros(3)
        return cmd


def warm_up_map(pipeline: OccupancyPipeline, sweeps: int = 8) -> None:
    """Build initial map knowledge by yawing in place through a few frames.

    Mirrors the initial hover-and-scan phase real missions perform before
    the first plan.  The vehicle stays put; frames are captured at evenly
    spaced yaw angles and inserted synchronously (charged to the scheduler
    as a single warm-up batch by the caller's mission loop).
    """
    sim = pipeline.sim
    state = sim.state
    with _trace.span("perceive.warm_up", "perceive") as sp:
        sp.set(sweeps=sweeps)
        for k in range(sweeps):
            yaw = -np.pi + (2 * np.pi) * (k / max(sweeps, 1))
            image = sim.camera.capture_depth(
                sim.world, state.position, yaw, time=sim.now
            )
            cloud = depth_to_point_cloud(image, stride=1)
            carve = 0 if pipeline.endpoint_only else pipeline.max_rays
            pipeline.octomap.insert_scan(cloud, carve_rays=carve)
