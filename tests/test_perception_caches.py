"""Differential tests for the OctoMap's live sorted index.

Batch writes merge into the sorted packed-key index instead of
invalidating it, and every mission — sequential or fleet — reads through
that index, so a fleet==sequential comparison cannot catch a merge bug:
both sides share it.  These tests pin the live index against references
that never touch it, on random scans:

* the index itself against a rebuild from the cell dict, with a scalar
  ``update_cell`` between scan inserts;
* ``OccupancyPipeline.clearance_along`` against a per-probe scalar walk;
* ``CollisionChecker.points_free`` against ``points_free_scalar``
  across map versions, with and without a peer-obstacle provider;
* ``set_resolution`` (both modes): the checker and the clearance probe
  answer from the new map, whose index is rebuilt, not inherited.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import make_simulation
from repro.core.workloads import PackageDeliveryWorkload
from repro.core.workloads.base import OccupancyPipeline
from repro.fleet import SharedWorldState
from repro.perception.octomap import OCCUPANCY_THRESHOLD, OctoMap, pack_keys
from repro.perception.point_cloud import PointCloud
from repro.planning.collision import CollisionChecker
from repro.world import empty_world, vec
from repro.world.geometry import AABB

BOUNDS = AABB(vec(-20.0, -20.0, 0.0), vec(20.0, 20.0, 12.0))
RESOLUTIONS = [0.15, 0.25, 0.5, 0.8]
NO_MISSES = np.zeros((0, 3))


def random_cloud(rng, n_hits=120, n_misses=20, reach=10.0):
    """A random scan whose hits land within ``reach`` of its origin."""
    origin = rng.uniform([-8.0, -8.0, 1.0], [8.0, 8.0, 6.0])
    d = rng.normal(size=(n_hits, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    hits = origin + d * rng.uniform(0.8, reach, size=(n_hits, 1))
    d2 = rng.normal(size=(n_misses, 3))
    d2 /= np.linalg.norm(d2, axis=1)[:, None]
    return PointCloud(origin=origin, hits=hits, misses=origin + d2 * 25.0)


def wall_scan(origin, x, step=0.2):
    """A scan of a 4 m x 3 m wall ``x`` m ahead of ``origin``."""
    ys = np.arange(-2.0, 2.0 + 1e-9, step)
    zs = np.arange(-1.5, 1.5 + 1e-9, step)
    hits = np.array([[x, y, z] for y in ys for z in zs]) + origin
    return PointCloud(origin=origin, hits=hits, misses=NO_MISSES)


@functools.lru_cache(maxsize=None)
def _sim():
    workload = PackageDeliveryWorkload(seed=1, world=empty_world((40, 40, 12)))
    return make_simulation(workload, cores=4, frequency_ghz=2.2, seed=1)


def probe_walk(pipeline, direction, max_dist=8.0):
    """Reference clearance: the same probe ladder, each probe answered by
    a per-voxel dict walk (no sorted index)."""
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm < 1e-6:
        return max_dist
    d = d / norm
    octomap = pipeline.octomap
    radius = pipeline.sim.vehicle.params.radius_m
    step = octomap.resolution / 2.0
    dist = step
    while dist <= max_dist:
        probe = pipeline.sim.state.position + d * dist
        if octomap.region_occupied_scalar(AABB(probe - radius, probe + radius)):
            return dist
        dist += step
    return max_dist


# ----------------------------------------------------------------------
# The merged index vs a rebuild
# ----------------------------------------------------------------------
def assert_index_matches_rebuild(octomap):
    keys, values = octomap.cells_arrays()
    packed = pack_keys(keys)
    order = np.argsort(packed)
    assert np.array_equal(octomap._idx_packed, packed[order])
    assert np.array_equal(octomap._idx_values, values[order])
    assert np.array_equal(
        octomap._idx_occupied,
        packed[order][values[order] > OCCUPANCY_THRESHOLD],
    )


@given(
    seed=st.integers(0, 10_000),
    resolution=st.sampled_from(RESOLUTIONS),
    before=st.integers(0, 3),
    after=st.integers(1, 3),
    query_between=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_incremental_index_matches_rebuild(
    seed, resolution, before, after, query_between
):
    rng = np.random.default_rng(seed)
    octomap = OctoMap(resolution=resolution, bounds=BOUNDS)
    probe = rng.uniform([-8.0, -8.0, 1.0], [8.0, 8.0, 6.0], size=(20, 3))

    def insert():
        octomap.insert_scan(random_cloud(rng), carve_rays=40)
        if not octomap._index_dirty:
            assert_index_matches_rebuild(octomap)

    for _ in range(before):
        insert()
    key = octomap.key_for(rng.uniform([-8.0, -8.0, 1.0], [8.0, 8.0, 6.0]))
    octomap.update_cell(key, float(rng.choice([0.85, -0.4])))
    assert octomap._index_dirty
    if query_between:  # a query rebuilds; later scans merge again
        octomap.boxes_occupied(probe - 0.3, probe + 0.3)
        assert not octomap._index_dirty
        assert_index_matches_rebuild(octomap)
    for _ in range(after):
        insert()
    live = octomap.boxes_occupied(probe - 0.3, probe + 0.3)
    assert_index_matches_rebuild(octomap)
    rebuilt = OctoMap(resolution=resolution, bounds=BOUNDS)
    for k, v in octomap._cells.items():
        rebuilt.update_cell(k, v)
    assert np.array_equal(
        live, rebuilt.boxes_occupied(probe - 0.3, probe + 0.3)
    )


# ----------------------------------------------------------------------
# Readers of the live index vs their scalar references
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    resolution=st.sampled_from(RESOLUTIONS),
    scans=st.integers(1, 4),
    aim=st.booleans(),
    direction=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3),
    max_dist=st.sampled_from([0.1, 3.0, 8.0, 12.5]),
)
@settings(max_examples=40, deadline=None)
def test_clearance_along_matches_probe_walk(
    seed, resolution, scans, aim, direction, max_dist
):
    pipeline = OccupancyPipeline(_sim(), resolution=resolution)
    rng = np.random.default_rng(seed)
    for _ in range(scans):
        cloud = random_cloud(rng)
        pipeline.octomap.insert_scan(cloud, carve_rays=40)
        position = cloud.origin + rng.normal(scale=0.5, size=3)
        pipeline.sim.vehicle.state.position = position
        # Aimed probes head for a scanned surface, so blocked answers
        # get exercised as well as free corridors.
        d = cloud.hits[0] - position if aim else np.asarray(direction)
        assert pipeline.clearance_along(d, max_dist) == probe_walk(
            pipeline, d, max_dist
        )


def _peer_view(rng):
    """A real peer provider over two stub drones near the query area."""
    state = SharedWorldState()
    me = SimpleNamespace(state=SimpleNamespace(position=vec(0.0, 0.0, 3.0)))
    state.register(me, 0)
    for member in (1, 2):
        position = rng.uniform([-6.0, -6.0, 1.0], [6.0, 6.0, 6.0])
        state.register(
            SimpleNamespace(state=SimpleNamespace(position=position)), member
        )
    return state.view(me)


@given(
    seed=st.integers(0, 10_000),
    resolution=st.sampled_from(RESOLUTIONS),
    with_peers=st.booleans(),
    conservative=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_points_free_matches_scalar(seed, resolution, with_peers, conservative):
    rng = np.random.default_rng(seed)
    octomap = OctoMap(resolution=resolution, bounds=BOUNDS)
    checker = CollisionChecker(
        octomap,
        treat_unknown_as_occupied=conservative,
        peers=_peer_view(rng) if with_peers else None,
    )
    for _ in range(3):  # three map versions
        octomap.insert_scan(random_cloud(rng), carve_rays=40)
        for _ in range(4):
            centre = rng.uniform([-8.0, -8.0, 1.0], [8.0, 8.0, 6.0])
            spread = rng.choice([0.2, 1.0, 4.0])
            points = centre + rng.normal(scale=spread, size=(12, 3))
            assert np.array_equal(
                checker.points_free(points), checker.points_free_scalar(points)
            )


# ----------------------------------------------------------------------
# A map swapped in by set_resolution is the one answered from
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reset", [True, False])
def test_set_resolution_answers_from_the_new_map(reset):
    pipeline = OccupancyPipeline(_sim(), resolution=0.5)
    origin = vec(0.0, 0.0, 3.0)
    pipeline.sim.vehicle.state.position = origin
    ahead = vec(1.0, 0.0, 0.0)
    target = origin + vec(4.0, 0.0, 0.0)
    # Old map: only a wall behind the drone; the corridor ahead is free
    # and both readers have built the old map's index.
    pipeline.octomap.insert_scan(wall_scan(origin, -4.0), carve_rays=20)
    assert pipeline.clearance_along(ahead) == 8.0
    assert pipeline.checker.point_free(target)
    old = pipeline.octomap

    assert pipeline.set_resolution(0.25, reset=reset)
    new = pipeline.octomap
    assert new is not old and pipeline.checker.octomap is new
    # Re-gridded knowledge: the wall behind stays without a rescan.
    assert pipeline.clearance_along(-ahead) == probe_walk(pipeline, -ahead)
    assert (pipeline.clearance_along(-ahead) < 8.0) == (not reset)

    new.insert_scan(wall_scan(origin, 4.0), carve_rays=20)
    clearance = pipeline.clearance_along(ahead)
    assert clearance < 4.0
    assert clearance == probe_walk(pipeline, ahead)
    assert not pipeline.checker.point_free(target)
    assert not pipeline.checker.point_free_scalar(target)
    assert not old.boxes_occupied(target[None, :] - 0.3, target[None, :] + 0.3)[0]
