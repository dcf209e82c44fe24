"""Tests for repro.world: obstacles, environments, generators."""

import numpy as np
import pytest

from repro.core.api import run_workload
from repro.world import (
    AABB,
    DynamicObstacle,
    Obstacle,
    Ray,
    World,
    add_moving_people,
    disaster_world,
    empty_world,
    farm_world,
    forest_world,
    indoor_world,
    make_box_obstacle,
    make_environment,
    make_person,
    obstacle_density,
    urban_world,
    vec,
)
from repro.world.generator import ENVIRONMENTS
from repro.world.geometry import batch_ray_aabbs


class TestObstacles:
    def test_static_obstacle_constant_over_time(self):
        obs = make_box_obstacle((0, 0, 1), (2, 2, 2), kind="building")
        assert not obs.is_dynamic
        assert np.allclose(obs.box_at(0.0).center, obs.box_at(99.0).center)

    def test_obstacle_names_unique(self):
        a = make_box_obstacle((0, 0, 0), (1, 1, 1))
        b = make_box_obstacle((0, 0, 0), (1, 1, 1))
        assert a.name != b.name

    def test_person_dimensions(self):
        p = make_person((5, 5, 0.9))
        assert p.kind == "person"
        assert p.box.size[2] == pytest.approx(1.8)

    def test_dynamic_obstacle_moves_along_loop(self):
        p = make_person(
            (0, 0, 0.9), waypoints=[(0, 0, 0.9), (10, 0, 0.9)], speed=1.0
        )
        assert np.allclose(p.position_at(0.0), [0, 0, 0.9])
        assert np.allclose(p.position_at(5.0), [5, 0, 0.9])
        # Loop: at t=10 it reaches the far end, then comes back.
        assert np.allclose(p.position_at(15.0), [5, 0, 0.9])
        assert np.allclose(p.position_at(20.0), [0, 0, 0.9])

    def test_dynamic_obstacle_zero_speed_stays(self):
        p = make_person((3, 3, 0.9), waypoints=[(3, 3, 0.9), (8, 3, 0.9)], speed=0.0)
        assert np.allclose(p.position_at(100.0), [3, 3, 0.9])

    def test_dynamic_velocity_magnitude(self):
        p = make_person(
            (0, 0, 0.9), waypoints=[(0, 0, 0.9), (100, 0, 0.9)], speed=2.0
        )
        v = p.velocity_at(1.0)
        assert np.linalg.norm(v) == pytest.approx(2.0, rel=0.05)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            DynamicObstacle(
                box=AABB.from_center((0, 0, 0), (1, 1, 1)),
                waypoints=[vec(0, 0, 0), vec(1, 0, 0)],
                speed=-1.0,
            )

    def test_obstacle_density_half_filled(self):
        region = AABB(vec(0, 0, 0), vec(2, 1, 1))
        obs = [make_box_obstacle((0.5, 0.5, 0.5), (1, 1, 1))]
        assert obstacle_density(obs, region) == pytest.approx(0.5)

    def test_obstacle_density_clipped_to_region(self):
        region = AABB(vec(0, 0, 0), vec(1, 1, 1))
        obs = [make_box_obstacle((0.5, 0.5, 0.5), (10, 10, 10))]
        assert obstacle_density(obs, region) == pytest.approx(1.0)


class TestWorldQueries:
    def _simple_world(self):
        world = empty_world((20, 20, 10))
        world.add(make_box_obstacle((5, 0, 2.5), (2, 2, 5), kind="pillar"))
        return world

    def test_is_free_and_occupied(self):
        world = self._simple_world()
        assert world.is_free(vec(0, 0, 2))
        assert world.is_occupied(vec(5, 0, 2))
        assert not world.is_free(vec(5, 0, 2))

    def test_margin_expands_occupancy(self):
        world = self._simple_world()
        p = vec(6.3, 0, 2)  # 0.3 m from the pillar face at x=6
        assert world.is_free(p)
        assert world.is_occupied(p, margin=0.5)

    def test_out_of_bounds_not_free(self):
        world = self._simple_world()
        assert not world.is_free(vec(100, 0, 2))

    def test_segment_collision(self):
        world = self._simple_world()
        assert world.segment_collides(vec(0, 0, 2), vec(10, 0, 2))
        assert not world.segment_collides(vec(0, 5, 2), vec(10, 5, 2))

    def test_line_of_sight(self):
        world = self._simple_world()
        assert world.line_of_sight(vec(0, 5, 2), vec(10, 5, 2))
        assert not world.line_of_sight(vec(0, 0, 2), vec(10, 0, 2))

    def test_ray_cast_hits_pillar(self):
        world = self._simple_world()
        d = world.ray_cast(Ray(vec(0, 0, 2), vec(1, 0, 0)), max_range=50)
        assert d == pytest.approx(4.0)

    def test_ray_cast_many_matches_single(self):
        world = self._simple_world()
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        dists = world.ray_cast_many(vec(0, 0, 2), dirs, max_range=50)
        assert dists[0] == pytest.approx(4.0)
        assert dists[1] == pytest.approx(50.0)

    def test_ray_cast_many_sees_dynamic_obstacles(self):
        world = self._simple_world()
        person = make_person(
            (0, -5, 0.9), waypoints=[(0, -5, 0.9), (0, 5, 0.9)], speed=1.0
        )
        world.add(person)
        dirs = np.array([[0.0, -1.0, 0.0]])
        d0 = world.ray_cast_many(vec(0, 0, 0.9), dirs, max_range=50, time=0.0)
        # At t=5 the person is at the sensor's location's y=0... use t=3: y=-2.
        d3 = world.ray_cast_many(vec(0, 0, 0.9), dirs, max_range=50, time=3.0)
        assert d0[0] > d3[0]

    def test_sample_free_point(self):
        world = self._simple_world()
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = world.sample_free_point(rng, margin=0.2)
            assert world.is_free(p, margin=0.2)

    def test_sample_free_point_impossible_raises(self):
        world = empty_world((2, 2, 2))
        world.add(make_box_obstacle((0, 0, 1), (10, 10, 10)))
        with pytest.raises(RuntimeError):
            world.sample_free_point(np.random.default_rng(0), max_tries=50)

    def test_find_by_kind(self):
        world = self._simple_world()
        assert len(world.find("pillar")) == 1
        assert world.find("nonexistent") == []

    def test_cache_invalidation_on_add(self):
        world = self._simple_world()
        d_before = world.ray_cast_many(
            vec(0, 0, 2), np.array([[-1.0, 0, 0]]), max_range=50
        )[0]
        world.add(make_box_obstacle((-5, 0, 2.5), (2, 2, 5)))
        d_after = world.ray_cast_many(
            vec(0, 0, 2), np.array([[-1.0, 0, 0]]), max_range=50
        )[0]
        assert d_before == pytest.approx(50.0)
        assert d_after == pytest.approx(4.0)


def _geometry_signature(world):
    """Obstacle set stripped of auto-generated names (a process-global
    counter), so two builds of the same world can be compared exactly."""
    rows = []
    for obs in world.obstacles:
        row = {
            "kind": obs.kind,
            "lo": obs.box.lo.tolist(),
            "hi": obs.box.hi.tolist(),
        }
        if isinstance(obs, DynamicObstacle):
            row["waypoints"] = [w.tolist() for w in obs.waypoints]
            row["speed"] = obs.speed
        rows.append(row)
    return rows


class TestGenerators:
    def test_generators_are_deterministic(self):
        a = urban_world(seed=3)
        b = urban_world(seed=3)
        assert len(a.obstacles) == len(b.obstacles)
        for oa, ob in zip(a.obstacles, b.obstacles):
            assert np.allclose(oa.box.lo, ob.box.lo)

    @pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
    def test_every_generator_seed_deterministic(self, name):
        """Same seed => bit-identical obstacle set, for all six families."""
        a = make_environment(name, seed=11)
        b = make_environment(name, seed=11)
        assert _geometry_signature(a) == _geometry_signature(b)
        assert np.array_equal(a.bounds.lo, b.bounds.lo)
        assert np.array_equal(a.bounds.hi, b.bounds.hi)
        # A different seed must actually change something for the seeded
        # generators (all but the door-grid layouts which only reseed
        # door positions — those too, in fact).
        c = make_environment(name, seed=12)
        assert _geometry_signature(a) != _geometry_signature(c)

    def test_docstring_lists_every_environment(self):
        """The module docstring's environment list tracks ENVIRONMENTS
        (it once dropped 'campus'; pin it so it cannot drift again)."""
        from repro.world import generator

        for name in ENVIRONMENTS:
            assert f"``{name}``" in generator.__doc__, (
                f"generator.py docstring is missing environment '{name}'"
            )

    def test_urban_density_knob(self):
        dense = urban_world(building_density=1.0, seed=0)
        sparse = urban_world(building_density=0.2, seed=0)
        assert len(dense.find("building")) > len(sparse.find("building"))

    def test_urban_rejects_bad_density(self):
        with pytest.raises(ValueError):
            urban_world(building_density=1.5)

    def test_farm_has_no_tall_obstacles(self):
        world = farm_world(seed=1)
        assert all(o.box.hi[2] < 2.0 for o in world.static_obstacles)

    def test_indoor_has_walls_and_passable_doors(self):
        world = indoor_world(seed=2)
        walls = world.find("wall")
        assert len(walls) > 4
        # Doors exist: density is well below a fully-walled grid.
        assert world.density() < 0.5

    def test_forest_world_tree_count(self):
        world = forest_world(n_trees=10, seed=0)
        assert len(world.find("tree")) == 10
        assert len(world.find("canopy")) == 10

    def test_disaster_world_has_survivors(self):
        world = disaster_world(n_survivors=2, seed=0)
        survivors = world.find("person")
        assert len(survivors) == 2
        # Survivors don't start inside debris.
        for s in survivors:
            assert not any(
                s.box.intersects(d.box) for d in world.find("debris")
            )

    def test_make_environment_factory(self):
        world = make_environment("farm", seed=5)
        assert world.name == "farm"
        with pytest.raises(KeyError):
            make_environment("atlantis")

    def test_add_moving_people(self):
        world = empty_world((50, 50, 10))
        people = add_moving_people(world, count=4, speed=2.0, seed=1)
        assert len(people) == 4
        assert len(world.dynamic_obstacles) == 4
        for p in people:
            assert p.speed == 2.0


# ----------------------------------------------------------------------
# Ground-truth fast paths: each is pinned bit for bit to the plain
# computation it replaces.
# ----------------------------------------------------------------------
def _random_world(seed, n_static=25, n_dynamic=4, extent=40.0):
    """A seeded world of random boxes and patrolling people."""
    rng = np.random.default_rng(seed)
    world = empty_world((2 * extent, 2 * extent, 20.0), name=f"random-{seed}")
    for _ in range(n_static):
        center = rng.uniform(-extent, extent, size=3)
        world.add(make_box_obstacle(center, rng.uniform(0.2, 6.0, size=3)))
    for _ in range(n_dynamic):
        waypoints = rng.uniform(-extent, extent, size=(3, 3))
        world.add(make_person(
            waypoints[0], waypoints=list(waypoints),
            speed=float(rng.uniform(0.5, 3)),
        ))
    return world


def _random_directions(rng, n):
    dirs = rng.normal(size=(n, 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _uncull(world, origin, dirs, max_range, time=0.0):
    """The reference: every ray against every box at ``time``."""
    return batch_ray_aabbs(origin, dirs, *world.boxes_at(time), max_range)


def _assert_cast_matches(world, origin, dirs, max_range, time=0.0):
    culled = world.ray_cast_many(origin, dirs, max_range=max_range, time=time)
    reference = _uncull(world, origin, dirs, max_range, time)
    assert np.array_equal(culled, reference)
    return culled


@pytest.fixture
def tested_boxes(monkeypatch):
    """The number of boxes each ray cast hands to the kernel."""
    counts = []

    def spy(origin, directions, los, his, max_range):
        counts.append(los.shape[0])
        return batch_ray_aabbs(origin, directions, los, his, max_range)

    monkeypatch.setattr("repro.world.environment.batch_ray_aabbs", spy)
    return counts


AXES = np.vstack([np.eye(3), -np.eye(3)])


class TestRangeCulledRayCast:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_worlds_match_uncull(self, seed):
        world = _random_world(seed)
        rng = np.random.default_rng(100 + seed)
        dirs = _random_directions(rng, 400)
        for _ in range(5):
            origin = rng.uniform(-30, 30, size=3)
            for max_range in (3.0, 20.0, 60.0):
                _assert_cast_matches(world, origin, dirs, max_range)

    def test_non_unit_directions_match_uncull(self):
        world = _random_world(7)
        rng = np.random.default_rng(7)
        dirs = _random_directions(rng, 300) * rng.uniform(0.1, 3.0, (300, 1))
        for origin in rng.uniform(-30, 30, size=(5, 3)):
            _assert_cast_matches(world, origin, dirs, 15.0)

    @pytest.mark.parametrize(
        "face",
        [20.0, np.nextafter(20.0, 0.0), np.nextafter(20.0, 40.0),
         20.0 - 1e-12, 20.0 + 1e-12],
    )
    def test_box_at_the_range_boundary(self, face):
        """A box whose near face sits at, a hair inside or a hair
        outside ``max_range`` along +x — and one whose nearest corner
        does, along the diagonal."""
        max_range = 20.0
        world = empty_world((100, 100, 100))
        world.add(Obstacle(AABB(vec(face, -1, -1), vec(face + 2, 1, 1))))
        corner = face / np.sqrt(3.0)
        world.add(Obstacle(AABB(vec(corner, corner, corner) * -1 - 2,
                                vec(corner, corner, corner) * -1)))
        rng = np.random.default_rng(0)
        diagonal = -np.ones(3) / np.sqrt(3.0)
        dirs = np.vstack([
            AXES, diagonal, _random_directions(rng, 200),
            _random_directions(rng, 50) * 0.02 + [1.0, 0.0, 0.0],
        ])
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        culled = _assert_cast_matches(world, vec(0, 0, 0), dirs, max_range)
        assert culled[0] == min(face, max_range)

    def test_origin_inside_a_box(self):
        world = _random_world(3)
        world.add(make_box_obstacle((1, 2, 3), (4, 4, 4)))
        rng = np.random.default_rng(3)
        dirs = _random_directions(rng, 200)
        culled = _assert_cast_matches(world, vec(1.5, 2.5, 3.5), dirs, 20.0)
        assert np.all(culled == 0.0)

    def test_axis_parallel_rays(self):
        """Axis-parallel rays, including origins on a box's slab planes
        (the kernel's 0 * inf branch)."""
        world = _random_world(4)
        box = make_box_obstacle((5, 0, 2), (2, 2, 2))
        world.add(box)
        origins = [vec(0, 0, 2), vec(0, box.box.lo[1], 2),
                   vec(0, 0, box.box.hi[2]), vec(-10, 3, 7)]
        for origin in origins:
            for max_range in (4.0, 5.0, 20.0):
                _assert_cast_matches(world, origin, AXES, max_range)

    @pytest.mark.parametrize("time", [0.0, 1.7, 5.0, 13.3, 250.0])
    def test_dynamic_obstacles_at_several_times(self, time):
        world = _random_world(5, n_static=10, n_dynamic=12, extent=15.0)
        rng = np.random.default_rng(5)
        dirs = _random_directions(rng, 300)
        for origin in rng.uniform(-15, 15, size=(4, 3)):
            _assert_cast_matches(world, origin, dirs, 10.0, time=time)

    def test_empty_world(self):
        dirs = _random_directions(np.random.default_rng(0), 50)
        culled = _assert_cast_matches(empty_world(), vec(1, 2, 3), dirs, 20.0)
        assert np.all(culled == 20.0)

    def test_every_box_culled(self, tested_boxes):
        world = _random_world(6, extent=40.0)
        origin = vec(0, 0, 200)  # far above every box
        dirs = _random_directions(np.random.default_rng(6), 100)
        culled = _assert_cast_matches(world, origin, dirs, 20.0)
        assert tested_boxes == [0]
        assert np.all(culled == 20.0)


def _loop_occupied(world, point, time, margin):
    """The reference: one ``AABB.distance_to`` per obstacle."""
    return any(
        o.box_at(time).distance_to(point) <= margin for o in world.obstacles
    )


class TestArrayCrashCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_points_match_loop(self, seed):
        world = _random_world(seed, extent=15.0)
        rng = np.random.default_rng(200 + seed)
        hits = 0
        for point in rng.uniform(-15, 15, size=(300, 3)):
            for margin in (0.0, 0.325, 1.5):
                expected = _loop_occupied(world, point, 2.0, margin)
                assert world.is_occupied(point, 2.0, margin) == expected
                hits += expected
        assert hits > 0

    def test_points_at_exactly_margin(self):
        world = empty_world((40, 40, 20))
        world.add(make_box_obstacle((0, 0, 2), (2, 2, 2)))
        rng = np.random.default_rng(1)
        for margin in (0.5, 0.325, 1.0):
            # On an axis the distance is exact; off it, take the computed
            # distance itself as the margin, then a hair less.
            axis_point = vec(1.0 + margin, 0.0, 2.0)
            assert world.is_occupied(axis_point, margin=margin)
            for point in rng.uniform(-3, 3, size=(20, 3)) + [0, 0, 2]:
                d = world.obstacles[0].box.distance_to(point)
                for m in (d, np.nextafter(d, -1.0)):
                    assert world.is_occupied(point, margin=m) == (
                        _loop_occupied(world, point, 0.0, m)
                    )

    def test_points_inside_boxes(self):
        world = _random_world(2, extent=15.0)
        for obs in world.obstacles:
            center = obs.box_at(4.0).center
            assert world.is_occupied(center, time=4.0)
            assert _loop_occupied(world, center, 4.0, 0.0)

    @pytest.mark.parametrize("time", [0.0, 0.9, 7.5, 61.0])
    def test_dynamic_obstacles(self, time):
        world = _random_world(8, n_static=3, n_dynamic=15, extent=10.0)
        rng = np.random.default_rng(8)
        for point in rng.uniform(-10, 10, size=(200, 3)):
            for margin in (0.0, 0.5):
                assert world.is_occupied(point, time, margin) == (
                    _loop_occupied(world, point, time, margin)
                )

    def test_empty_world(self):
        world = empty_world()
        assert not world.is_occupied(vec(0, 0, 1), margin=5.0)
        assert not _loop_occupied(world, vec(0, 0, 1), 0.0, 5.0)

    def test_add_invalidates(self):
        world = _random_world(9, n_static=5, n_dynamic=1, extent=30.0)
        point = vec(0.5, 0.5, 50.0)
        assert not world.is_occupied(point)
        world.add(make_box_obstacle((0, 0, 50), (2, 2, 2)))
        assert world.is_occupied(point)
        far = vec(-5.0, 5.0, 60.0)
        assert not world.is_occupied(far, time=3.0)
        world.add(make_person(far, waypoints=[far, far + 10], speed=1.0))
        assert world.is_occupied(far, time=0.0)
        assert _loop_occupied(world, far, 0.0, 0.0)


class TestStackedObstacleArrays:
    def test_boxes_at_matches_per_obstacle_boxes(self):
        world = _random_world(10, n_dynamic=6)
        for time in (0.0, 3.3, 40.0):
            los, his = world.boxes_at(time)
            ordered = world.static_obstacles + world.dynamic_obstacles
            assert np.array_equal(los, [o.box_at(time).lo for o in ordered])
            assert np.array_equal(his, [o.box_at(time).hi for o in ordered])

    def test_static_boxes_identity_tracks_add(self):
        world = _random_world(11, n_dynamic=0)
        held = world.static_boxes()
        assert world.static_boxes() is held
        assert not held[0].flags.writeable
        world.add(make_box_obstacle((0, 0, 1), (1, 1, 1)))
        fresh = world.static_boxes()
        assert fresh is not held
        assert fresh[0].shape[0] == held[0].shape[0] + 1


def test_disaster_mission_identical_with_uncull_ray_casts(
    monkeypatch, tested_boxes
):
    """One search_rescue mission on the canonical disaster world (most
    of its 33 boxes beyond camera range, unlike the golden worlds) flies
    to the same QoF report with the range cull as with every box cast."""

    def fly():
        return run_workload("search_rescue", seed=6).report

    culled = fly()
    assert tested_boxes and np.mean(tested_boxes) < 33 / 2

    def uncull(self, origin, directions, max_range=100.0, time=0.0):
        return _uncull(self, origin, directions, max_range, time)

    monkeypatch.setattr(World, "ray_cast_many", uncull)
    assert fly() == culled
