"""Shared-world fleet tests: one city, N drones, airspace conflicts.

Pins the shared-world contract end to end:

* ``shared_city`` member routes — deterministic, lane-separated,
  altitude-staggered per-member start/goal assignments.
* The cross-member sensing kernels (``pairwise_separations``,
  ``resolve_conflicts``) against their scalar twins, plus permutation
  invariance of the priority rule.
* The conflicts gate phase (:func:`repro.fleet.shared_world
  .gate_conflicts`) on synthetic fleets: priority holds, edge-triggered
  near misses, drone-drone collisions, grounded-member exemptions.
* Peer sensing injected into the collision checker and clearance
  queries.
* End-to-end: a shared-world fleet of one is bit-identical to the same
  mission run sequentially; a fleet of two is seed-deterministic,
  member-permutation-invariant, and keeps lane separation (no near
  misses) at difficulty 0.
* The :meth:`FleetCoordinator.retire` id-reuse regression: every
  id-keyed record (order, label, pending error) is dropped with the
  sim, and the constants cache pins its sims alive.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.api import (
    available_workloads,
    make_simulation,
    run_workload,
    validate_workload_kwargs,
)
from repro.core.workloads import PackageDeliveryWorkload
from repro.core.workloads.base import OccupancyPipeline
from repro.fleet import (
    FleetCoordinator,
    FleetMission,
    SharedWorldPolicy,
    SharedWorldState,
    gate_conflicts,
    pairwise_separations,
    pairwise_separations_scalar,
    resolve_conflicts,
    resolve_conflicts_scalar,
    run_workloads_fleet,
)
from repro.fleet.kernels import FleetBatchArrays
from repro.perception.octomap import OctoMap
from repro.planning.collision import CollisionChecker
from repro.scenarios import ScenarioSpec, member_route, supports_member_routes

# Tiny city: 3 lanes 18 m apart, ~1.5 s host per delivery mission.
TINY_CITY = {
    "family": "shared_city",
    "difficulty": 0.0,
    "seed": 3,
    "knobs": {"blocks": 2, "block_size": 10.0, "street_width": 8.0},
}


def _tiny_spec(**overrides):
    payload = dict(TINY_CITY)
    payload["knobs"] = {**TINY_CITY["knobs"], **overrides.pop("knobs", {})}
    payload.update(overrides)
    return ScenarioSpec.coerce(payload)


# ----------------------------------------------------------------------
# Member routes
# ----------------------------------------------------------------------
class TestSharedCityRoutes:
    def test_supports_member_routes(self):
        assert supports_member_routes("shared_city")
        assert not supports_member_routes("urban")
        assert not supports_member_routes("forest")

    def test_route_deterministic(self):
        spec = _tiny_spec()
        for member in range(4):
            a = member_route(spec, member)
            b = member_route(spec, member)
            assert np.array_equal(a["start"], b["start"])
            assert np.array_equal(a["goal"], b["goal"])
            assert a["altitude_m"] == b["altitude_m"]

    def test_unsupported_family_routes_to_none(self):
        urban = ScenarioSpec.coerce("urban:0.5:3")
        assert member_route(urban, 0) is None

    def test_parallel_lanes_default(self):
        """Default routes are parallel lanes: goal lane == start lane,
        and adjacent members launch one street pitch apart laterally."""
        spec = _tiny_spec()
        pitch = 10.0 + 8.0  # block_size + street_width
        routes = [member_route(spec, m) for m in range(3)]
        for route in routes:
            assert route["start"][0] == route["goal"][0]  # same lane
            assert route["start"][1] < route["goal"][1]  # south -> north
        xs = sorted(r["start"][0] for r in routes)
        assert np.allclose(np.diff(xs), pitch)

    def test_cross_traffic_mirrors_goal_lanes(self):
        spec = _tiny_spec(knobs={"cross_traffic": 1.0})
        lanes = 3  # blocks + 1
        for member in range(lanes):
            route = member_route(spec, member)
            mirror = member_route(spec, lanes - 1 - member)
            assert route["goal"][0] == mirror["start"][0]

    def test_altitude_slots_stagger(self):
        spec = _tiny_spec(knobs={"altitude_slots": 2, "altitude_step_m": 2.0,
                                 "route_altitude_m": 3.0})
        assert member_route(spec, 0)["altitude_m"] == 3.0
        assert member_route(spec, 1)["altitude_m"] == 5.0
        assert member_route(spec, 2)["altitude_m"] == 3.0  # wraps

    def test_member_kwarg_accepted_everywhere(self):
        for name in available_workloads():
            validate_workload_kwargs(name, {"member": 0})


# ----------------------------------------------------------------------
# Kernels vs scalar twins
# ----------------------------------------------------------------------
class TestConflictKernels:
    def test_pairwise_separations_matches_scalar(self):
        rng = np.random.default_rng(11)
        positions = rng.uniform(-50.0, 50.0, size=(7, 3))
        batched = pairwise_separations(positions)
        scalar = pairwise_separations_scalar(positions)
        assert np.array_equal(batched, scalar)  # bit-identical
        assert np.all(np.isinf(np.diag(batched)))

    def test_pairwise_separations_empty(self):
        assert pairwise_separations(np.zeros((0, 3))).shape == (0, 0)

    def test_resolve_conflicts_matches_scalar(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(-4.0, 4.0, size=(6, 3))
        seps = pairwise_separations(positions)
        priorities = np.arange(6)
        for radius in (0.5, 3.0, 20.0):
            yields, min_seps = resolve_conflicts(seps, priorities, radius)
            yields_s, min_seps_s = resolve_conflicts_scalar(
                seps, priorities, radius
            )
            assert np.array_equal(yields, yields_s)
            assert np.array_equal(min_seps, min_seps_s)

    def test_lower_priority_yields(self):
        positions = np.array([[0.0, 0.0, 3.0], [2.0, 0.0, 3.0]])
        seps = pairwise_separations(positions)
        yields, min_seps = resolve_conflicts(seps, np.array([0, 1]), 5.0)
        assert list(yields) == [False, True]  # member 1 gives way
        assert np.allclose(min_seps, 2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        positions = rng.uniform(-3.0, 3.0, size=(5, 3))
        priorities = np.array([4, 0, 3, 1, 2])
        yields, min_seps = resolve_conflicts(
            pairwise_separations(positions), priorities, 4.0
        )
        perm = rng.permutation(5)
        yields_p, min_seps_p = resolve_conflicts(
            pairwise_separations(positions[perm]), priorities[perm], 4.0
        )
        assert np.array_equal(yields[perm], yields_p)
        assert np.array_equal(min_seps[perm], min_seps_p)


# ----------------------------------------------------------------------
# The conflicts gate phase on synthetic fleets
# ----------------------------------------------------------------------
class _StubVehicle:
    def __init__(self):
        self.commands = []

    def command_velocity(self, velocity, yaw=None):
        self.commands.append(np.asarray(velocity, dtype=float).copy())


class _StubGroundTruth:
    drone_radius = 0.325


class _StubState:
    def __init__(self, position):
        self.position = np.asarray(position, dtype=float)


class _StubSim:
    """Just enough Simulation surface for the conflicts phase."""

    def __init__(self, position):
        self.state = _StubState(position)
        self.vehicle = _StubVehicle()
        self.ground_truth = _StubGroundTruth()
        self.collisions = 0
        self.failure_reason = None

    def fail(self, reason):
        if self.failure_reason is None:
            self.failure_reason = reason


def _registered_fleet(positions, policy=None):
    state = SharedWorldState(policy)
    sims = [_StubSim(p) for p in positions]
    for member, sim in enumerate(sims):
        state.register(sim, member)
    return state, sims


class TestGateConflicts:
    def test_priority_hold(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [3.0, 0.0, 3.0]]
        )
        gate_conflicts(state, sims)
        assert sims[0].vehicle.commands == []  # priority member flies on
        (cmd,) = sims[1].vehicle.commands  # yielding member holds + climbs
        assert cmd[0] == 0.0 and cmd[1] == 0.0
        assert cmd[2] == state.policy.hold_climb_ms
        assert state.conflict_holds == 1
        assert state.metrics[1]["conflict_holds"] == 1.0
        assert state.metrics[0]["conflict_holds"] == 0.0
        assert state.min_separation_m == 3.0

    def test_near_miss_edge_triggered(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [2.0, 0.0, 3.0]]
        )
        gate_conflicts(state, sims)
        gate_conflicts(state, sims)  # still inside: same incursion
        assert state.near_misses == 1
        sims[1].state.position = np.array([9.0, 0.0, 3.0])
        gate_conflicts(state, sims)  # separated again
        sims[1].state.position = np.array([2.0, 0.0, 3.0])
        gate_conflicts(state, sims)  # re-entry: a second near miss
        assert state.near_misses == 2
        assert state.metrics[0]["near_misses"] == 2.0
        assert state.metrics[1]["near_misses"] == 2.0

    def test_drone_collision_fails_both(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [0.3, 0.0, 3.0]]
        )
        gate_conflicts(state, sims)
        for sim in sims:
            assert sim.failure_reason == "drone_collision"
            assert sim.collisions == 1
        assert state.drone_collisions == 2  # both sides of the pair
        # A crashed pair holds no one: collision preempts the hold rule.
        assert sims[1].vehicle.commands == []

    def test_grounded_members_exempt(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [0.5, 0.0, 0.0]]  # second still on the pad
        )
        gate_conflicts(state, sims)
        assert state.near_misses == 0
        assert all(s.failure_reason is None for s in sims)
        assert math.isinf(state.min_separation_m)

    def test_single_member_inert(self):
        state, sims = _registered_fleet([[0.0, 0.0, 3.0]])
        gate_conflicts(state, sims)
        assert math.isinf(state.min_separation_m)

    def test_unregistered_sims_ignored(self):
        state, sims = _registered_fleet([[0.0, 0.0, 3.0]])
        stranger = _StubSim([1.0, 0.0, 3.0])  # never registered
        gate_conflicts(state, sims + [stranger])
        assert math.isinf(state.min_separation_m)


# ----------------------------------------------------------------------
# Peer sensing: clearance and collision-checker injection
# ----------------------------------------------------------------------
class TestPeerSensing:
    def test_clearance_along_sees_peer(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [4.0, 0.0, 3.0]]
        )
        ahead = state.clearance_along(sims[0], np.array([1.0, 0.0, 0.0]))
        radius = state.policy.peer_radius_m + sims[0].ground_truth.drone_radius
        assert ahead == pytest.approx(4.0 - radius)
        # Looking away from the peer: unobstructed.
        behind = state.clearance_along(sims[0], np.array([-1.0, 0.0, 0.0]))
        assert behind == 8.0

    def test_clearance_ignores_grounded_peer(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [4.0, 0.0, 0.0]]
        )
        assert state.clearance_along(sims[0], np.array([1.0, 0.0, 0.0])) == 8.0

    def test_checker_peer_block_twin_identity(self):
        state, sims = _registered_fleet(
            [[0.0, 0.0, 3.0], [4.0, 0.0, 3.0]]
        )
        checker = CollisionChecker(
            OctoMap(resolution=0.5), peers=state.view(sims[0])
        )
        points = np.array(
            [[4.0, 0.0, 3.0],  # on the peer
             [4.4, 0.0, 3.0],  # inside its bubble
             [9.0, 0.0, 3.0],  # clear
             [0.0, 0.0, 3.0]]  # own position: never self-blocked
        )
        batched = checker.points_free(points)
        scalar = checker.points_free_scalar(points)
        assert np.array_equal(batched, scalar)
        assert list(batched) == [False, False, True, True]

    def test_pipeline_built_with_peer_view(self):
        """An enrolled sim's pipeline gets its coordinator's peer view and
        hands the same provider to its collision checker."""
        workload = PackageDeliveryWorkload(seed=1)
        state = SharedWorldState()
        coordinator = FleetCoordinator(expected=1, shared=state)
        sim = make_simulation(workload, cores=4, frequency_ghz=2.2, seed=1)
        coordinator.enroll(sim)
        sim.vehicle.state.position = np.array([0.0, 0.0, 3.0])
        state.register(_StubSim([4.0, 0.0, 3.0]), 1)
        pipeline = OccupancyPipeline(sim)
        assert pipeline.checker.peers is pipeline.peers is not None
        # Empty map: only the peer 4 m ahead limits the clearance.
        assert pipeline.clearance_along(np.array([1.0, 0.0, 0.0])) < 4.0
        assert not pipeline.checker.point_free(np.array([4.0, 0.0, 3.0]))

    def test_checker_unchanged_without_peers(self):
        state, sims = _registered_fleet([[0.0, 0.0, 3.0]])
        checker = CollisionChecker(
            OctoMap(resolution=0.5), peers=state.view(sims[0])
        )
        points = np.array([[4.0, 0.0, 3.0], [0.0, 0.0, 3.0]])
        assert np.all(checker.points_free(points))


# ----------------------------------------------------------------------
# Coordinator bookkeeping: the retire() id-reuse regression
# ----------------------------------------------------------------------
class TestCoordinatorRetire:
    def test_retire_drops_every_id_keyed_record(self):
        coordinator = FleetCoordinator(expected=1)
        coordinator.set_thread_label("m0:test")
        sim = _StubSim([0.0, 0.0, 0.0])
        coordinator.enroll(sim)
        # A pending error nobody collected (mission died mid-gate).
        coordinator._errors[id(sim)] = RuntimeError("stale")
        assert coordinator._labels[id(sim)] == "m0:test"
        coordinator.retire()
        # Regression: _order was popped but _labels/_errors leaked, so a
        # later sim allocated at the same address inherited this label
        # and re-raised this error.
        assert coordinator._order == {}
        assert coordinator._labels == {}
        assert coordinator._errors == {}
        assert coordinator._thread_labels == {}
        assert sim._fleet is None

    def test_retire_unregisters_shared_member(self):
        state = SharedWorldState()
        coordinator = FleetCoordinator(expected=1, shared=state)
        coordinator.set_thread_member(4)
        sim = _StubSim([0.0, 0.0, 0.0])
        coordinator.enroll(sim)
        assert state.member_of(sim) == 4
        coordinator.retire()
        assert state.member_of(sim) is None
        # The metrics record survives retirement for report injection.
        assert 4 in state.metrics

    def test_batch_arrays_pin_sims_alive(self):
        from repro.core.workloads import WORKLOADS

        workload = WORKLOADS["scanning"](seed=0)
        sim = make_simulation(workload, cores=2, frequency_ghz=0.8, seed=0)
        arrays = FleetBatchArrays([sim], [sim.config.dt])
        # The id-tuple cache key is only sound while the ids cannot be
        # recycled — the cache must hold strong references.
        assert arrays.sims[0] is sim
        assert arrays.key == (id(sim),)


# ----------------------------------------------------------------------
# End-to-end: shared-world fleets over the tiny city
# ----------------------------------------------------------------------
def _tiny_mission(member, seed):
    return FleetMission(
        workload="package_delivery",
        seed=seed,
        workload_kwargs={"scenario": dict(TINY_CITY), "member": member},
    )


def _report_dicts(results):
    return [asdict(r.report) for r in results]


@pytest.fixture(scope="module")
def duo_flight():
    """One 2-drone shared-world flight, reused across assertions."""
    state = SharedWorldState()
    results, errors = run_workloads_fleet(
        [_tiny_mission(0, 10), _tiny_mission(1, 11)], shared_world=state
    )
    assert errors == [None, None]
    return state, results


class TestSharedWorldEndToEnd:
    def test_fleet_of_one_bit_identical_to_sequential(self):
        kwargs = {"scenario": dict(TINY_CITY), "member": 0}
        sequential = run_workload(
            "package_delivery", seed=10, workload_kwargs=dict(kwargs)
        )
        results, errors = run_workloads_fleet(
            [FleetMission(workload="package_delivery", seed=10,
                          workload_kwargs=dict(kwargs))],
            shared_world=True,
        )
        assert errors == [None]
        assert asdict(results[0].report) == asdict(sequential.report)

    def test_duo_succeeds_with_lane_separation(self, duo_flight):
        state, results = duo_flight
        assert all(r.report.success for r in results)
        # Difficulty 0, parallel lanes: separation never dips below the
        # conflict radius, so no near misses and no holds.
        assert state.min_separation_m >= state.policy.conflict_radius_m
        assert state.near_misses == 0
        assert state.conflict_holds == 0
        assert state.drone_collisions == 0

    def test_duo_reports_airspace_extras(self, duo_flight):
        state, results = duo_flight
        for result in results:
            extra = result.report.extra
            assert extra["fleet_near_misses"] == 0.0
            assert extra["fleet_conflict_holds"] == 0.0
            assert extra["fleet_min_separation_m"] == pytest.approx(
                state.min_separation_m
            )

    def test_duo_deterministic(self, duo_flight):
        _, first = duo_flight
        results, errors = run_workloads_fleet(
            [_tiny_mission(0, 10), _tiny_mission(1, 11)], shared_world=True
        )
        assert errors == [None, None]
        assert _report_dicts(results) == _report_dicts(first)

    def test_duo_permutation_invariant(self, duo_flight):
        """Mission order is bookkeeping: flying [m1, m0] produces the
        same per-member reports as [m0, m1]."""
        _, first = duo_flight
        results, errors = run_workloads_fleet(
            [_tiny_mission(1, 11), _tiny_mission(0, 10)], shared_world=True
        )
        assert errors == [None, None]
        assert _report_dicts([results[1], results[0]]) == _report_dicts(first)
