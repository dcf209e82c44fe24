"""Collision checking against an OctoMap (and against ground truth).

The planners never touch the ground-truth world — like the paper's stack,
they query the drone's *belief* (the OctoMap), so map resolution and
sensor noise shape planning behaviour exactly as in the case studies.
Ground-truth checking is provided separately for validation/metrics.

This module is the planning hot path.  Every query is phrased over
*batches*: an (N, 3) point batch answers with one vectorized box query
against the packed-key sorted OctoMap index, and whole polylines (all
segments, all samples) collapse into a single such call via
:meth:`CollisionChecker.segments_free`.  Scalar reference twins
(``*_scalar``) walk the same logic point-by-point through the OctoMap's
scalar dict queries; ``tests/test_planning_batched.py`` pins batched ==
scalar on seeded worlds, exactly like the OctoMap insertion kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..observability import trace as _trace
from ..perception.octomap import OctoMap
from ..world.environment import World
from ..world.geometry import AABB


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance computed exactly like the batched row kernels
    (sequential add-reduce + correctly rounded sqrt), so scalar twins and
    array code agree bit-for-bit."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.sqrt(float(np.sum(d * d)))


def _row_dists(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances from an (N, 3) batch to one point."""
    d = points - target[None, :]
    return np.sqrt(np.sum(d * d, axis=1))


@dataclass
class CollisionChecker:
    """Point/segment collision queries against an occupancy map.

    Attributes
    ----------
    octomap:
        The belief map to query.
    drone_radius:
        Half-extent of the drone; obstacle clearance required.
    treat_unknown_as_occupied:
        Conservative mode: unexplored space blocks flight.  The mapping /
        exploration workloads fly into unknown space, so they disable it;
        package delivery keeps it on for safety along the final path.
    """

    octomap: OctoMap
    drone_radius: float = 0.325
    treat_unknown_as_occupied: bool = False
    #: Peer-obstacle provider (:class:`repro.fleet.shared_world.PeerView`)
    #: in a shared-airspace fleet, else None.  ``peers.blocked(points,
    #: radius)`` masks points inside another drone's exclusion bubble, or
    #: returns None when no peer is airborne.
    peers: Optional[object] = None

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def points_free(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`point_free` over an (N, 3) batch.

        One batched occupied-box query (plus one unknown-fraction query in
        conservative mode) answers every candidate at once — this is the
        kernel the segment and path checks are built on.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        _trace.observe("collision.batch_points", pts.shape[0])
        r = self.drone_radius
        los = pts - r
        his = pts + r
        free = ~self.octomap.boxes_occupied(los, his)
        if self.treat_unknown_as_occupied and np.any(free):
            free &= ~(self.octomap.boxes_unknown_fraction(los, his) > 0.5)
        return self._apply_peers(pts, free)

    def points_free_scalar(self, points: np.ndarray) -> np.ndarray:
        """Reference scalar implementation of :meth:`points_free`: one
        Python per-voxel dict walk per point (no sorted index)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        r = self.drone_radius
        out = np.empty(pts.shape[0], dtype=bool)
        for i, p in enumerate(pts):
            box = AABB(p - r, p + r)
            free = not self.octomap.region_occupied_scalar(box)
            if free and self.treat_unknown_as_occupied:
                free = not (
                    self.octomap.region_unknown_fraction_scalar(box) > 0.5
                )
            out[i] = free
        return self._apply_peers(pts, out)

    def _apply_peers(self, pts: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Mask out points inside a fleet peer's exclusion bubble.

        The shared tail of every point query — batched and scalar alike —
        so shared-world fleets block on other drones through the exact
        same test on both paths.  A no-op without a peer provider or with
        an empty sky.
        """
        if self.peers is not None:
            blocked = self.peers.blocked(pts, self.drone_radius)
            if blocked is not None:
                free = free & ~blocked
        return free

    def point_free(self, point: np.ndarray) -> bool:
        """True if the drone centered at ``point`` collides with nothing."""
        return bool(self.points_free(np.asarray(point, dtype=float))[0])

    def point_free_scalar(self, point: np.ndarray) -> bool:
        """Reference scalar twin of a one-point :meth:`points_free`
        query (same inflated-box test via the scalar map path)."""
        return bool(self.points_free_scalar(np.asarray(point, dtype=float))[0])

    # ------------------------------------------------------------------
    # Segment sampling
    # ------------------------------------------------------------------
    def _segment_samples(
        self, a: np.ndarray, b: np.ndarray, step: Optional[float]
    ) -> np.ndarray:
        """Sample points along one segment (scalar-twin sampling rule)."""
        if step is None:
            step = self.octomap.resolution / 2.0
        length = _dist(b, a)
        n = max(int(np.ceil(length / step)), 1)
        t = np.arange(n + 1) / n
        return a[None, :] + (b - a)[None, :] * t[:, None]

    def _batch_segment_samples(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        step: Optional[float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample every segment of a batch at once.

        Returns ``(samples, seg_index, seg_start)`` where ``samples``
        stacks each segment's samples in order (including both endpoints,
        exactly the rows :meth:`_segment_samples` emits per segment),
        ``seg_index[m]`` names the segment that produced ``samples[m]``,
        and ``seg_start[s]`` is the row where segment ``s`` begins.
        """
        if step is None:
            step = self.octomap.resolution / 2.0
        a = np.asarray(starts, dtype=float).reshape(-1, 3)
        b = np.asarray(ends, dtype=float).reshape(-1, 3)
        d = b - a
        lengths = np.sqrt(np.sum(d * d, axis=1))
        n = np.maximum(np.ceil(lengths / step).astype(np.int64), 1)
        counts = n + 1
        total = int(counts.sum())
        seg = np.repeat(np.arange(a.shape[0]), counts)
        seg_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        local = np.arange(total) - np.repeat(seg_start, counts)
        t = local / n[seg]
        samples = a[seg] + d[seg] * t[:, None]
        return samples, seg, seg_start

    # ------------------------------------------------------------------
    # Segment / path queries
    # ------------------------------------------------------------------
    def segments_free(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        step: Optional[float] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`segment_free` over an (S, 3) segment batch.

        All samples of all segments go to the map in one batched point
        query; one boolean per segment comes back.  ``starts`` may be a
        single (3,) point shared by every segment (RRT* edge fans).
        """
        ends_arr = np.asarray(ends, dtype=float).reshape(-1, 3)
        starts_arr = np.asarray(starts, dtype=float)
        if starts_arr.ndim == 1:
            starts_arr = np.broadcast_to(starts_arr, ends_arr.shape)
        if ends_arr.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        _trace.observe("collision.batch_segments", ends_arr.shape[0])
        samples, _seg, seg_start = self._batch_segment_samples(
            starts_arr, ends_arr, step
        )
        free = self.points_free(samples)
        # Segmented blocked-sample counts via reduceat (every segment has
        # >= 2 samples, so seg_start is strictly increasing); a segment is
        # free when its count is zero.
        return np.add.reduceat(~free, seg_start) == 0

    def segment_free(
        self,
        a: np.ndarray,
        b: np.ndarray,
        step: Optional[float] = None,
    ) -> bool:
        """True if the straight segment a->b is collision-free.

        Samples the segment at ``step`` spacing (default: half a voxel)
        and checks all samples with one batched map query.  (Single-
        segment fast path; :meth:`_segment_samples` emits exactly the
        row :meth:`segments_free` would build for this segment.)
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return bool(np.all(self.points_free(self._segment_samples(a, b, step))))

    def segment_free_scalar(
        self,
        a: np.ndarray,
        b: np.ndarray,
        step: Optional[float] = None,
    ) -> bool:
        """Reference scalar implementation of :meth:`segment_free`."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        samples = self._segment_samples(a, b, step)
        return bool(np.all(self.points_free_scalar(samples)))

    def path_free(self, waypoints) -> bool:
        """True if every leg of the polyline is collision-free (one
        batched query over every sample of every leg)."""
        pts = [np.asarray(p, dtype=float) for p in waypoints]
        if len(pts) < 2:
            return True
        arr = np.stack(pts)
        return bool(np.all(self.segments_free(arr[:-1], arr[1:])))

    def path_free_scalar(self, waypoints) -> bool:
        """Reference scalar implementation of :meth:`path_free`."""
        pts = [np.asarray(p, dtype=float) for p in waypoints]
        return all(
            self.segment_free_scalar(p, q)
            for p, q in zip(pts[:-1], pts[1:])
        )

    def first_blocked_index(self, waypoints) -> Optional[int]:
        """Index of the first waypoint whose incoming leg is blocked.

        Package delivery uses this to decide *where* a newly observed
        obstacle obstructs the planned trajectory, triggering a re-plan.
        Runs the same batched sample set as :meth:`path_free`, so the two
        can never disagree on boundary voxels at segment joints.
        """
        pts = [np.asarray(p, dtype=float) for p in waypoints]
        if len(pts) < 2:
            return None
        arr = np.stack(pts)
        verdicts = self.segments_free(arr[:-1], arr[1:])
        blocked = np.nonzero(~verdicts)[0]
        if blocked.size:
            return int(blocked[0]) + 1
        return None

    def first_blocked_index_scalar(self, waypoints) -> Optional[int]:
        """Reference scalar implementation of :meth:`first_blocked_index`."""
        pts = [np.asarray(p, dtype=float) for p in waypoints]
        for i, (p, q) in enumerate(zip(pts[:-1], pts[1:])):
            if not self.segment_free_scalar(p, q):
                return i + 1
        return None


def escape_point(
    checker: CollisionChecker,
    start: np.ndarray,
    rng: np.random.Generator,
    max_radius: float = 3.0,
    tries: int = 60,
) -> Optional[np.ndarray]:
    """A free point near ``start`` for planners whose start is in collision.

    A drone braked right at an (inflated) obstacle boundary sits inside
    occupied belief space; planners need a nearby free point to plan from.
    Samples at growing radii; returns None if everything nearby is blocked.

    All candidate offsets are drawn and checked as one batch (a single
    :meth:`CollisionChecker.points_free` call).  On success the generator
    is rewound and re-advanced by exactly the draws the sequential sampler
    would have consumed, so downstream RNG use (the planner's sampling
    loop) sees an identical stream.
    """
    start = np.asarray(start, dtype=float)
    state = rng.bit_generator.state
    offsets = rng.normal(0.0, 1.0, size=(tries, 3))
    offsets[:, 2] *= 0.3  # prefer lateral escapes over vertical ones
    norms = np.sqrt(np.sum(offsets * offsets, axis=1))
    valid = norms >= 1e-9
    if np.any(valid):
        radii = max_radius * (np.arange(1, tries + 1) / tries)
        candidates = (
            start[None, :]
            + offsets[valid] / norms[valid, None] * radii[valid, None]
        )
        free = checker.points_free(candidates)
        hits = np.nonzero(free)[0]
        if hits.size:
            row = int(np.nonzero(valid)[0][int(hits[0])])
            rng.bit_generator.state = state
            rng.normal(0.0, 1.0, size=(row + 1, 3))
            return candidates[int(hits[0])]
    return None


def escape_point_scalar(
    checker: CollisionChecker,
    start: np.ndarray,
    rng: np.random.Generator,
    max_radius: float = 3.0,
    tries: int = 60,
) -> Optional[np.ndarray]:
    """Reference scalar implementation of :func:`escape_point` (one draw
    and one scalar map query per try)."""
    start = np.asarray(start, dtype=float)
    for i in range(tries):
        radius = max_radius * ((i + 1) / tries)
        offset = rng.normal(0.0, 1.0, size=3)
        offset[2] *= 0.3
        n = math.sqrt(float(np.sum(offset * offset)))
        if n < 1e-9:
            continue
        candidate = start + offset / n * radius
        if checker.point_free_scalar(candidate):
            return candidate
    return None


@dataclass
class GroundTruthChecker:
    """Collision queries against the true world (validation only)."""

    world: World
    drone_radius: float = 0.325

    def point_free(self, point: np.ndarray, time: float = 0.0) -> bool:
        """True if the margin-inflated point is free in the *true* world."""
        return self.world.is_free(
            np.asarray(point, dtype=float), time=time, margin=self.drone_radius
        )

    def point_collides(self, point: np.ndarray, time: float = 0.0) -> bool:
        """Margin-inflated obstacle hit test (pure obstacle proximity —
        leaving the world bounds is not a collision).  The simulator's
        per-tick crash check."""
        return self.world.is_occupied(
            np.asarray(point, dtype=float), time=time, margin=self.drone_radius
        )

    def segment_free(
        self, a: np.ndarray, b: np.ndarray, time: float = 0.0
    ) -> bool:
        """True if the swept segment ``a``–``b`` clears every true-world
        obstacle by the drone radius."""
        return not self.world.segment_collides(
            np.asarray(a, dtype=float),
            np.asarray(b, dtype=float),
            time=time,
            margin=self.drone_radius,
        )

    def path_free(self, waypoints, time: float = 0.0) -> bool:
        """True if every consecutive waypoint pair is segment-free."""
        pts = [np.asarray(p, dtype=float) for p in waypoints]
        return all(
            self.segment_free(p, q, time) for p, q in zip(pts[:-1], pts[1:])
        )


__all__ = [
    "CollisionChecker",
    "GroundTruthChecker",
    "escape_point",
    "escape_point_scalar",
]
