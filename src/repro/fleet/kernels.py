"""Struct-of-arrays per-tick kernels for fleet execution.

Each per-tick phase of :meth:`repro.core.simulator.Simulation.step` —
control, dynamics, collision sensing, energy — has a ``*_batch`` kernel
here that advances N missions with stacked ``(N, ...)`` state arrays,
plus a ``*_scalar`` twin that runs the original single-mission code
path.  The repo-wide twin convention applies: the batched kernels must
be **bit-identical** to the scalar references (pinned by
``tests/test_fleet_batched.py``), so a fleet of N missions produces
exactly the records N sequential missions would.

Bit-identity notes
------------------
The sequential code computes Euclidean norms as
``float(np.linalg.norm(v))`` on a length-3 vector, which NumPy lowers to
``sqrt(dot(v, v))`` — a BLAS dot.  Every kernel here takes its norms
from :func:`repro.world.geometry.batched_norms`, which runs the same dot
kernel per row, and its point-to-box distances from
:func:`repro.world.geometry.aabb_distances`, the function
``World.is_occupied`` uses.  ``hypot``/``arctan2``/``fmod``/``clip``
are ufuncs and agree elementwise by construction.

Branches (acceleration clamping, speed clamping, yaw hold, waypoint
arrival) become boolean masks; rows are gathered, transformed with the
identical per-element operations, and scattered back.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..dynamics.flight_controller import FlightMode
from ..dynamics.state import VehicleState
from ..world.geometry import aabb_distances, batched_norms

__all__ = [
    "wrap_angles",
    "flying_setpoints",
    "quadrotor_step_arrays",
    "rotor_power_arrays",
    "FleetBatchArrays",
    "control_step_batch",
    "control_step_scalar",
    "dynamics_step_batch",
    "dynamics_step_scalar",
    "sense_check_batch",
    "sense_check_scalar",
    "energy_step_batch",
    "energy_step_scalar",
    "pairwise_separations",
    "pairwise_separations_scalar",
    "resolve_conflicts",
    "resolve_conflicts_scalar",
]


# ----------------------------------------------------------------------
# Gathered per-mission constants
# ----------------------------------------------------------------------
class FleetBatchArrays:
    """Stacked mission constants for one fleet composition.

    Vehicle parameters, rotor coefficients, wind, tick lengths, and (for
    worlds without dynamic obstacles) the collision-box geometry never
    change over a mission, yet naive struct-of-arrays kernels would
    re-gather them from N Python objects every tick.  The coordinator
    builds one of these per *live set* of missions (rebuilding only when
    membership changes — a retirement or a mid-tick failure) so the
    per-tick kernels gather only state that actually evolves.
    """

    def __init__(self, sims: Sequence, dts: Sequence[float]) -> None:
        # ``key`` is an id() tuple, so the cache must pin the sims alive:
        # were they collectable, CPython could hand a *new* live set the
        # same ids and a stale cache would validate against it.
        self.sims = list(sims)
        self.key = tuple(id(s) for s in sims)
        quads = [s.vehicle for s in sims]
        self.dts = [float(d) for d in dts]
        self.dt = np.array(self.dts)
        self.gain = np.array([q.velocity_gain for q in quads])
        self.drag = np.array([q.params.drag_coefficient for q in quads])
        self.a_max = np.array([q.params.max_acceleration_ms2 for q in quads])
        self.v_max = np.array([q.params.max_speed_ms for q in quads])
        self.vz_max = np.array([q.params.max_vertical_speed_ms for q in quads])
        self.yaw_rate_max = np.array([q.params.max_yaw_rate_rads for q in quads])
        self.wind = np.stack([s.wind for s in sims])
        self.wind_xy = np.ascontiguousarray(self.wind[:, :2])
        self.beta = np.stack(
            [
                np.asarray(s.rotor_power.coefficients.beta, dtype=float)
                for s in sims
            ]
        )
        self.mass = np.array([s.rotor_power.mass_kg for s in sims])
        self.margins = np.array([s.ground_truth.drone_radius for s in sims])

        # Collision geometry: static worlds always return the same box
        # stacks from ``boxes_at``, so flatten them once, owner-indexed.
        self.sense_static = all(not s.world.dynamic_obstacles for s in sims)
        if self.sense_static:
            owner_parts: List[np.ndarray] = []
            lo_parts: List[np.ndarray] = []
            hi_parts: List[np.ndarray] = []
            counts = []
            self._static_refs = []
            for i, sim in enumerate(sims):
                boxes = sim.world.static_boxes()
                self._static_refs.append(boxes)
                los, his = boxes
                count = los.shape[0]
                counts.append(count)
                if count:
                    owner_parts.append(np.full(count, i, dtype=np.int64))
                    lo_parts.append(los)
                    hi_parts.append(his)
            self.sense_counts = np.asarray(counts, dtype=np.int64)
            if owner_parts:
                self.sense_owner = np.concatenate(owner_parts)
                self.sense_lo = np.concatenate(lo_parts)
                self.sense_hi = np.concatenate(hi_parts)
                self.sense_box_margin = self.margins[self.sense_owner]
            else:
                self.sense_owner = np.zeros(0, dtype=np.int64)
                self.sense_lo = np.zeros((0, 3))
                self.sense_hi = np.zeros((0, 3))
                self.sense_box_margin = np.zeros(0)

    def sense_fresh(self, sims: Sequence) -> bool:
        """True while the pre-flattened geometry still mirrors each
        world (``World.add`` makes ``static_boxes()`` return a new
        tuple; a mismatch sends the sense kernel down the
        always-correct generic path)."""
        if not self.sense_static:
            return False
        return all(
            sim.world.static_boxes() is ref
            for sim, ref in zip(sims, self._static_refs)
        )


# ----------------------------------------------------------------------
# Array primitives
# ----------------------------------------------------------------------
def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.world.geometry.wrap_angle` — (-pi, pi]."""
    wrapped = np.fmod(np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped)
    return wrapped - math.pi


# ----------------------------------------------------------------------
# Control (FlightController.update, FLYING-to-waypoint branch)
# ----------------------------------------------------------------------
def flying_setpoints(
    targets: np.ndarray,
    positions: np.ndarray,
    target_speeds: np.ndarray,
    tolerances: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Waypoint-tracking velocity setpoints for M missions at once.

    Returns ``(commands, at_waypoint)``: rows with ``at_waypoint`` True
    have reached their waypoint (the controller hovers); the others get
    ``unit(delta) * min(target_speed, max(0.8, 1.5 * dist))`` exactly as
    the scalar FLYING branch computes it.
    """
    deltas = np.asarray(targets, dtype=float) - np.asarray(positions, dtype=float)
    dists = batched_norms(deltas)
    at_waypoint = dists <= np.asarray(tolerances, dtype=float)
    speeds = np.minimum(
        np.asarray(target_speeds, dtype=float), np.maximum(0.8, 1.5 * dists)
    )
    # Guard the division on arrived rows (their command is discarded).
    safe = np.where(at_waypoint, 1.0, dists)
    commands = deltas / safe[:, None] * speeds[:, None]
    return commands, at_waypoint


def control_step_scalar(sim, dt: float) -> None:
    """Scalar twin: the original per-sim controller update."""
    sim.flight_controller.update(dt)


def control_step_batch(sims: Sequence, dts: Sequence[float]) -> None:
    """Advance every fleet member's flight controller by one tick.

    The steady-state cruise branch (FLYING toward a waypoint) is the hot
    one and runs batched; transient modes (arming, takeoff, landing,
    hover) are rare, O(1) each, and run through the original scalar
    update so their stateful side effects stay byte-exact.  FLYING with
    no waypoint (velocity tracking) is a no-op, as in the scalar code.
    """
    flying: List[int] = []
    for i, sim in enumerate(sims):
        fc = sim.flight_controller
        if fc.mode is FlightMode.FLYING:
            if fc._target is not None:
                flying.append(i)
        else:
            fc.update(dts[i])
    if not flying:
        return
    controllers = [sims[i].flight_controller for i in flying]
    commands, at_waypoint = flying_setpoints(
        np.array([fc._target for fc in controllers]),
        np.array([sims[i].state.position for i in flying]),
        np.array([fc._target_speed for fc in controllers]),
        np.array([fc.waypoint_tolerance for fc in controllers]),
    )
    for row, fc in enumerate(controllers):
        if at_waypoint[row]:
            fc.hover()
        else:
            fc.vehicle.command_velocity(commands[row])


# ----------------------------------------------------------------------
# Dynamics (Quadrotor.step)
# ----------------------------------------------------------------------
def quadrotor_step_arrays(
    position: np.ndarray,
    velocity: np.ndarray,
    yaw: np.ndarray,
    vel_cmd: np.ndarray,
    yaw_cmd: np.ndarray,
    wind: np.ndarray,
    dt: np.ndarray,
    gain: np.ndarray,
    drag: np.ndarray,
    a_max: np.ndarray,
    v_max: np.ndarray,
    vz_max: np.ndarray,
    yaw_rate_max: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point-mass quadrotor integration over N stacked vehicles.

    ``yaw_cmd`` rows are NaN where no yaw command is active (the vehicle
    then yaws toward its direction of travel above 0.2 m/s horizontal,
    or holds).  Returns ``(new_position, new_velocity, new_yaw)``.
    """
    v_err = vel_cmd - velocity
    accel = gain[:, None] * v_err
    airspeed = velocity - wind
    accel = accel - drag[:, None] * airspeed
    a_mag = batched_norms(accel)
    over_a = a_mag > a_max
    if np.any(over_a):
        accel[over_a] = accel[over_a] * (a_max[over_a] / a_mag[over_a])[:, None]
    new_velocity = velocity + accel * dt[:, None]
    speed = batched_norms(new_velocity)
    over_v = speed > v_max
    if np.any(over_v):
        new_velocity[over_v] = (
            new_velocity[over_v] * (v_max[over_v] / speed[over_v])[:, None]
        )
    new_velocity[:, 2] = np.clip(new_velocity[:, 2], -vz_max, vz_max)
    new_position = position + new_velocity * dt[:, None]

    has_cmd = ~np.isnan(yaw_cmd)
    horizontal = np.hypot(new_velocity[:, 0], new_velocity[:, 1])
    track = np.arctan2(new_velocity[:, 1], new_velocity[:, 0])
    target = np.where(has_cmd, yaw_cmd, track)
    hold = ~has_cmd & ~(horizontal > 0.2)
    err = wrap_angles(target - yaw)
    max_step = yaw_rate_max * dt
    step = np.clip(err, -max_step, max_step)
    new_yaw = np.where(hold, yaw, wrap_angles(yaw + step))
    return new_position, new_velocity, new_yaw


def dynamics_step_scalar(sim, dt: float) -> None:
    """Scalar twin: the original per-sim dynamics integration."""
    sim.vehicle.step(dt, wind=sim.wind)


def dynamics_step_batch(
    sims: Sequence, dts: Sequence[float], cache: Optional[FleetBatchArrays] = None
) -> None:
    """Integrate every fleet member's dynamics by one tick (one gather,
    one array kernel, one scatter).  ``cache`` supplies the stacked
    mission constants; without one they are gathered ad hoc."""
    if cache is None:
        cache = FleetBatchArrays(sims, dts)
    quads = [sim.vehicle for sim in sims]
    states = [quad.state for quad in quads]
    new_p, new_v, new_yaw = quadrotor_step_arrays(
        position=np.array([s.position for s in states]),
        velocity=np.array([s.velocity for s in states]),
        yaw=np.array([s.yaw for s in states]),
        vel_cmd=np.array([q._velocity_command for q in quads]),
        yaw_cmd=np.array(
            [math.nan if q._yaw_command is None else q._yaw_command for q in quads]
        ),
        wind=cache.wind,
        dt=cache.dt,
        gain=cache.gain,
        drag=cache.drag,
        a_max=cache.a_max,
        v_max=cache.v_max,
        vz_max=cache.vz_max,
        yaw_rate_max=cache.yaw_rate_max,
    )
    for i, quad in enumerate(quads):
        old = states[i]
        dt = cache.dts[i]
        quad.state = VehicleState(
            position=new_p[i],
            velocity=new_v[i],
            acceleration=(new_v[i] - old.velocity) / dt,
            yaw=float(new_yaw[i]),
            time=old.time + dt,
        )


# ----------------------------------------------------------------------
# Sense (Simulation._check_collision)
# ----------------------------------------------------------------------
def sense_check_scalar(sim) -> None:
    """Scalar twin: the original per-sim ground-truth collision check."""
    sim._check_collision()


def sense_check_batch(
    sims: Sequence, cache: Optional[FleetBatchArrays] = None
) -> None:
    """Ground-truth collision check for the whole fleet in one query.

    Gathers every (mission, obstacle) pair into one flat distance
    computation; a mission collides when it is above the 0.3 m altitude
    gate and any of its obstacle distances is within its ground-truth
    margin, exactly the ``World.is_occupied`` any-semantics.  Static
    worlds reuse the cache's pre-flattened box stacks (distances for
    below-gate rows are computed and discarded — masking replaces the
    scalar path's early return, never changes it).
    """
    if not sims:
        return
    if cache is None:
        cache = FleetBatchArrays(sims, [sim.config.dt for sim in sims])
    if cache.sense_fresh(sims):
        if cache.sense_owner.size == 0:
            return
        positions = np.array([sim.state.position for sim in sims])
        airborne = positions[:, 2] > 0.3
        if not np.any(airborne):
            return
        owner = cache.sense_owner
        distances = aabb_distances(
            np.repeat(positions, cache.sense_counts, axis=0),
            cache.sense_lo,
            cache.sense_hi,
        )
        hits = (distances <= cache.sense_box_margin) & airborne[owner]
        if not np.any(hits):
            return
        hit_owner = np.unique(owner[hits])
    else:
        owners: List[np.ndarray] = []
        lo_parts: List[np.ndarray] = []
        hi_parts: List[np.ndarray] = []
        point_parts: List[np.ndarray] = []
        for i, sim in enumerate(sims):
            position = sim.state.position
            if not position[2] > 0.3:
                continue
            los, his = sim.world.boxes_at(sim.now)
            count = los.shape[0]
            if count == 0:
                continue
            owners.append(np.full(count, i, dtype=np.int64))
            lo_parts.append(los)
            hi_parts.append(his)
            point_parts.append(np.broadcast_to(position, (count, 3)))
        if not owners:
            return
        owner = np.concatenate(owners)
        distances = aabb_distances(
            np.concatenate(point_parts),
            np.concatenate(lo_parts),
            np.concatenate(hi_parts),
        )
        hit_owner = np.unique(owner[distances <= cache.margins[owner]])
    for i in hit_owner:
        sim = sims[int(i)]
        sim.collisions += 1
        sim.fail("collision")


# ----------------------------------------------------------------------
# Energy (Simulation._integrate_energy)
# ----------------------------------------------------------------------
def rotor_power_arrays(
    velocity: np.ndarray,
    acceleration: np.ndarray,
    wind_xy: np.ndarray,
    beta: np.ndarray,
    mass: np.ndarray,
) -> np.ndarray:
    """Eq. (1) rotor power over N stacked vehicles.

    ``beta`` is ``(N, 9)`` so heterogeneous airframes batch together;
    power is floored at each row's hover baseline exactly as
    :meth:`RotorPowerModel.power` does.
    """
    vxy = np.hypot(velocity[:, 0], velocity[:, 1])
    axy = np.hypot(acceleration[:, 0], acceleration[:, 1])
    vz = np.abs(velocity[:, 2])
    az = np.abs(acceleration[:, 2])
    horizontal = beta[:, 0] * vxy + beta[:, 1] * axy + beta[:, 2] * vxy * axy
    vertical = beta[:, 3] * vz + beta[:, 4] * az + beta[:, 5] * vz * az
    wind_term = velocity[:, 0] * wind_xy[:, 0] + velocity[:, 1] * wind_xy[:, 1]
    body = beta[:, 6] * mass + beta[:, 7] * mass * wind_term + beta[:, 8]
    hover_floor = beta[:, 6] * mass + beta[:, 8]
    return np.maximum(horizontal + vertical + body, hover_floor)


def energy_step_scalar(sim, dt: float) -> None:
    """Scalar twin: the original per-sim energy integration."""
    sim._integrate_energy(dt)


def energy_step_batch(
    sims: Sequence, dts: Sequence[float], cache: Optional[FleetBatchArrays] = None
) -> None:
    """Integrate every fleet member's energy draw by one tick.

    Rotor power (the arithmetic-heavy part) runs through the batched
    Eq.-(1) kernel for every row — grounded rows' values are computed
    and discarded, exactly as if never computed; coulomb counting and
    QoF sampling stay per-mission — they are stateful object
    bookkeeping, and grounded rows draw compute power only, as in the
    scalar path.
    """
    if not sims:
        return
    if cache is None:
        cache = FleetBatchArrays(sims, dts)
    airborne = [sim.flight_controller.airborne for sim in sims]
    rotor = rotor_power_arrays(
        velocity=np.array([sim.state.velocity for sim in sims]),
        acceleration=np.array([sim.state.acceleration for sim in sims]),
        wind_xy=cache.wind_xy,
        beta=cache.beta,
        mass=cache.mass,
    )
    for i, sim in enumerate(sims):
        dt = cache.dts[i]
        rotor_w = float(rotor[i]) if airborne[i] else 0.0
        compute_w = sim.platform.cpu_power_w(
            sim.scheduler.busy_cores, sim.scheduler.gpu_active
        )
        sim.battery.draw(rotor_w + compute_w, dt)
        if sim.battery.depleted:
            sim.fail("battery_depleted")
        sim.qof.record(sim.state, rotor_w, compute_w, dt, airborne[i])


# ----------------------------------------------------------------------
# Cross-member sensing (shared-world fleets)
# ----------------------------------------------------------------------
def pairwise_separations_scalar(positions: np.ndarray) -> np.ndarray:
    """Scalar twin: per-pair ``float(np.linalg.norm(a - b))`` loops."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    seps = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                seps[i, j] = float(
                    np.linalg.norm(positions[i] - positions[j])
                )
    return seps


def pairwise_separations(positions: np.ndarray) -> np.ndarray:
    """All drone-to-drone distances over stacked ``(N, 3)`` positions.

    Returns an ``(N, N)`` symmetric matrix with ``inf`` on the diagonal
    (a member is never in conflict with itself).  Built on
    :func:`batched_norms` over the flattened difference vectors so every
    entry is bit-identical to the scalar ``np.linalg.norm(a - b)`` the
    sequential near-miss bookkeeping would compute.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n == 0:
        return np.full((0, 0), np.inf)
    deltas = (positions[:, None, :] - positions[None, :, :]).reshape(-1, 3)
    seps = batched_norms(deltas).reshape(n, n)
    np.fill_diagonal(seps, np.inf)
    return seps


def resolve_conflicts_scalar(
    separations: np.ndarray,
    priorities: np.ndarray,
    conflict_radius: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar twin: per-member loops over the separation matrix."""
    separations = np.asarray(separations, dtype=float)
    priorities = np.asarray(priorities)
    n = separations.shape[0]
    yields = np.zeros(n, dtype=bool)
    min_seps = np.full(n, np.inf)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            min_seps[i] = min(min_seps[i], float(separations[i, j]))
            if (
                separations[i, j] < conflict_radius
                and priorities[j] < priorities[i]
            ):
                yields[i] = True
    return yields, min_seps


def resolve_conflicts(
    separations: np.ndarray,
    priorities: np.ndarray,
    conflict_radius: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic priority-ordered conflict resolution.

    A member *yields* (holds instead of flying its command) when any
    other member within ``conflict_radius`` carries a strictly smaller
    priority value — lower value wins the airspace, so of any conflicted
    pair exactly the lower-priority side gives way and the resolution is
    independent of member enumeration order.  Returns
    ``(yields, min_seps)``: the boolean yield mask and each member's
    distance to its nearest peer.
    """
    separations = np.asarray(separations, dtype=float)
    priorities = np.asarray(priorities)
    n = separations.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), np.full(0, np.inf)
    min_seps = separations.min(axis=1)
    outranked = priorities[None, :] < priorities[:, None]
    yields = ((separations < conflict_radius) & outranked).any(axis=1)
    return yields, min_seps
