"""The simulated 3D world: bounds, obstacles, and spatial queries.

This module is our substitute for the Unreal Engine environment.  The
architecture studies in the paper consume the environment only through
geometric queries — collision checks, ray casts for depth sensing, and
line-of-sight tests — all of which :class:`World` provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    AABB,
    Ray,
    aabb_distances,
    batch_ray_aabbs,
    ray_aabb_intersection,
    segment_intersects_aabb,
    vec,
)
from .obstacles import DynamicObstacle, Obstacle, obstacle_density


@dataclass
class World:
    """A bounded 3D world filled with static and dynamic obstacles.

    Attributes
    ----------
    bounds:
        The extent of the world.  The drone may not leave it and planners
        sample within it.
    obstacles:
        Every obstacle, static and dynamic.
    name:
        Human-readable environment label (e.g. ``"urban"``, ``"indoor"``).
    """

    bounds: AABB
    obstacles: List[Obstacle] = field(default_factory=list)
    name: str = "empty"

    def __post_init__(self) -> None:
        self._static_boxes_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._dynamic_cache: Optional[
            Tuple[List[DynamicObstacle], np.ndarray]
        ] = None

    # ------------------------------------------------------------------
    # Obstacle management
    # ------------------------------------------------------------------
    def add(self, obstacle: Obstacle) -> None:
        """Add an obstacle, invalidating the geometry caches."""
        self.obstacles.append(obstacle)
        self._static_boxes_cache = None
        self._dynamic_cache = None

    def extend(self, obstacles: Iterable[Obstacle]) -> None:
        for obs in obstacles:
            self.add(obs)

    @property
    def static_obstacles(self) -> List[Obstacle]:
        return [o for o in self.obstacles if not o.is_dynamic]

    @property
    def dynamic_obstacles(self) -> List[DynamicObstacle]:
        return [o for o in self.obstacles if isinstance(o, DynamicObstacle)]

    def find(self, kind: str) -> List[Obstacle]:
        """All obstacles with the given category tag."""
        return [o for o in self.obstacles if o.kind == kind]

    def density(self, region: Optional[AABB] = None) -> float:
        """Obstacle density (occupied volume fraction) in ``region``."""
        return obstacle_density(self.static_obstacles, region or self.bounds)

    # ------------------------------------------------------------------
    # Geometry caches
    # ------------------------------------------------------------------
    def static_boxes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked (lo, hi) corner arrays for all static obstacles.

        Cached until the next :meth:`add`, which makes the next call
        return a new tuple: holders of the arrays check freshness by
        identity (``world.static_boxes() is held``).  Read-only.
        """
        if self._static_boxes_cache is None:
            statics = self.static_obstacles
            if statics:
                los = np.stack([o.box.lo for o in statics])
                his = np.stack([o.box.hi for o in statics])
            else:
                los = np.zeros((0, 3))
                his = np.zeros((0, 3))
            los.flags.writeable = False
            his.flags.writeable = False
            self._static_boxes_cache = (los, his)
        return self._static_boxes_cache

    def _dynamic_geometry(self) -> Tuple[List[DynamicObstacle], np.ndarray]:
        """The dynamic obstacles and their stacked half sizes."""
        if self._dynamic_cache is None:
            dyn = self.dynamic_obstacles
            halves = (
                np.stack([o.box.size / 2.0 for o in dyn])
                if dyn
                else np.zeros((0, 3))
            )
            self._dynamic_cache = (dyn, halves)
        return self._dynamic_cache

    def boxes_at(self, time: float) -> Tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corner arrays for *all* obstacles at time ``time``.

        Static boxes come first, then each dynamic obstacle's box at
        ``time`` — ``center ± size / 2``, the same arithmetic as
        :meth:`DynamicObstacle.box_at`.
        """
        los, his = self.static_boxes()
        dyn, halves = self._dynamic_geometry()
        if dyn:
            centers = np.array([o.position_at(time) for o in dyn])
            dlos = centers - halves
            dhis = centers + halves
            los = np.concatenate([los, dlos]) if los.size else dlos
            his = np.concatenate([his, dhis]) if his.size else dhis
        return los, his

    # ------------------------------------------------------------------
    # Spatial queries
    # ------------------------------------------------------------------
    def in_bounds(self, point: np.ndarray) -> bool:
        return self.bounds.contains(point)

    def is_occupied(
        self, point: np.ndarray, time: float = 0.0, margin: float = 0.0
    ) -> bool:
        """True if ``point`` lies within ``margin`` of any obstacle.

        One array query over :meth:`boxes_at`; every distance is
        bit-identical to :meth:`AABB.distance_to`.
        """
        los, his = self.boxes_at(time)
        return bool((aabb_distances(point, los, his) <= margin).any())

    def is_free(
        self, point: np.ndarray, time: float = 0.0, margin: float = 0.0
    ) -> bool:
        """True if ``point`` is inside the world and clear of obstacles."""
        return self.in_bounds(point) and not self.is_occupied(point, time, margin)

    def segment_collides(
        self,
        a: np.ndarray,
        b: np.ndarray,
        time: float = 0.0,
        margin: float = 0.0,
    ) -> bool:
        """True if the straight segment a->b hits any (inflated) obstacle."""
        for obs in self.obstacles:
            box = obs.box_at(time)
            if margin > 0:
                box = box.inflate(margin)
            if segment_intersects_aabb(a, b, box):
                return True
        return False

    def line_of_sight(
        self, a: np.ndarray, b: np.ndarray, time: float = 0.0
    ) -> bool:
        """True if nothing blocks the segment between ``a`` and ``b``."""
        return not self.segment_collides(a, b, time=time, margin=0.0)

    def ray_cast(
        self, ray: Ray, max_range: float = 100.0, time: float = 0.0
    ) -> float:
        """Distance along ``ray`` to the first obstacle surface.

        Returns ``max_range`` when nothing is hit within range.
        """
        best = max_range
        for obs in self.obstacles:
            hit = ray_aabb_intersection(ray, obs.box_at(time))
            if hit is not None:
                best = min(best, hit[0])
        return best

    def ray_cast_many(
        self,
        origin: np.ndarray,
        directions: np.ndarray,
        max_range: float = 100.0,
        time: float = 0.0,
    ) -> np.ndarray:
        """Vectorized multi-ray cast — the depth camera's inner loop.

        Only boxes within reach are tested.  A ray meets a box no
        earlier than ``t = distance(origin, box) / |direction|``, so a
        box farther than ``max_range`` times the longest direction can
        only report a hit beyond ``max_range``, where the result is
        clipped anyway: dropping it leaves every ray's distance
        bit-identical to casting against all boxes (the relative slack
        covers FP rounding).
        """
        los, his = self.boxes_at(time)
        o = np.asarray(origin, dtype=float)
        dirs = np.asarray(directions, dtype=float)
        longest = np.sqrt(np.einsum("ij,ij->i", dirs, dirs).max(initial=0.0))
        reach = max_range * longest * (1.0 + 1e-9)
        near = aabb_distances(o, los, his) <= reach
        return batch_ray_aabbs(o, dirs, los[near], his[near], max_range)

    def sample_free_point(
        self,
        rng: np.random.Generator,
        margin: float = 0.0,
        max_tries: int = 1000,
        z_range: Optional[Tuple[float, float]] = None,
    ) -> np.ndarray:
        """Uniformly sample a collision-free point inside the world bounds.

        Raises
        ------
        RuntimeError
            If no free point is found in ``max_tries`` samples (the world is
            essentially full).
        """
        lo = self.bounds.lo.copy()
        hi = self.bounds.hi.copy()
        if z_range is not None:
            lo[2], hi[2] = z_range
        for _ in range(max_tries):
            p = rng.uniform(lo, hi)
            if self.is_free(p, margin=margin):
                return p
        raise RuntimeError(
            f"could not sample a free point in {max_tries} tries "
            f"(world '{self.name}' too dense?)"
        )


def empty_world(
    size: Sequence[float] = (100.0, 100.0, 30.0), name: str = "empty"
) -> World:
    """A world with no obstacles, centered on the origin at ground level."""
    half_x, half_y = size[0] / 2.0, size[1] / 2.0
    bounds = AABB(vec(-half_x, -half_y, 0.0), vec(half_x, half_y, size[2]))
    return World(bounds=bounds, name=name)
