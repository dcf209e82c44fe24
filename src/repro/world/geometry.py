"""Geometric primitives for the simulated world.

The world is composed of axis-aligned bounding boxes (AABBs).  All of the
perception substrate (depth camera ray casting, collision checking,
line-of-sight queries) is built on the primitives in this module.

Conventions
-----------
* Right-handed coordinate system: ``x`` forward, ``y`` left, ``z`` up.
* All lengths are in meters; all angles in radians.
* Vectors are ``numpy`` arrays of shape ``(3,)`` and dtype float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

EPS = 1e-9


def vec(x: float, y: float, z: float) -> np.ndarray:
    """Build a 3-vector. Convenience constructor used throughout the library."""
    return np.array([x, y, z], dtype=float)


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector.

    For 1-D input this is ``sqrt(dot(v, v))`` — the exact reduction
    ``np.linalg.norm`` lowers to, minus its dispatch overhead (this
    helper sits under every control tick).
    """
    a = np.asarray(v, dtype=float)
    if a.ndim == 1:
        return float(np.sqrt(np.dot(a, a)))
    return float(np.linalg.norm(a))


def batched_norms(arr: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm of an ``(N, 3)`` array.

    Bit-identical to :func:`norm` per row.  Axis-wise reformulations
    (``np.sqrt(np.sum(v*v, axis=1))``, ``np.linalg.norm(..., axis=1)``,
    ``einsum``) round differently in the last ulp on some BLAS builds;
    the stacked matmul ``(V[:, None, :] @ V[:, :, None])`` dispatches to
    the *same* dot kernel per row, so every batched kernel that must
    agree with a scalar twin takes its norms from here.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.shape[0] == 0:
        return np.zeros(0)
    return np.sqrt((arr[:, None, :] @ arr[:, :, None])[:, 0, 0])


def aabb_distances(
    points: np.ndarray, los: np.ndarray, his: np.ndarray
) -> np.ndarray:
    """Distance from ``points[k]`` to the AABB ``(los[k], his[k])``.

    The batched form of :meth:`AABB.distance_to`, bit-identical to it:
    clamp the point into the box (``minimum(maximum(...))`` is how
    ``np.clip`` is defined, minus its dispatch overhead), then the norm
    of the residual.  A single ``(3,)`` point broadcasts against every
    box.
    """
    points = np.asarray(points, dtype=float)
    return batched_norms(np.minimum(np.maximum(points, los), his) - points)


def unit(v: np.ndarray) -> np.ndarray:
    """Return ``v`` normalized to unit length.

    Raises
    ------
    ValueError
        If ``v`` has (near) zero length.
    """
    n = norm(v)
    if n < EPS:
        raise ValueError("cannot normalize a zero-length vector")
    return v / n


@dataclass(frozen=True)
class AABB:
    """An axis-aligned bounding box defined by two corners.

    Attributes
    ----------
    lo:
        Component-wise minimum corner.
    hi:
        Component-wise maximum corner.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("AABB corners must be 3-vectors")
        if np.any(lo > hi):
            raise ValueError(f"AABB lo must be <= hi (got lo={lo}, hi={hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_center(cls, center: Sequence[float], size: Sequence[float]) -> "AABB":
        """Build a box from its center point and full edge lengths."""
        c = np.asarray(center, dtype=float)
        half = np.asarray(size, dtype=float) / 2.0
        if np.any(half < 0):
            raise ValueError("AABB size must be non-negative")
        return cls(c - half, c + half)

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def size(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.size))

    def contains(self, point: np.ndarray) -> bool:
        """True if ``point`` lies inside or on the boundary of the box."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo - EPS) and np.all(p <= self.hi + EPS))

    def inflate(self, margin: float) -> "AABB":
        """Return a copy grown by ``margin`` on every face.

        Used to inflate obstacles by the drone's radius so the drone can be
        treated as a point during collision checking.
        """
        m = vec(margin, margin, margin)
        lo = self.lo - m
        hi = self.hi + m
        # A negative margin may invert a degenerate box; clamp to center.
        c = self.center
        return AABB(np.minimum(lo, c), np.maximum(hi, c))

    def intersects(self, other: "AABB") -> bool:
        """True if this box overlaps ``other`` (closed-interval semantics)."""
        return bool(
            np.all(self.lo <= other.hi + EPS) and np.all(other.lo <= self.hi + EPS)
        )

    def closest_point(self, point: np.ndarray) -> np.ndarray:
        """Point on/inside the box closest to ``point``."""
        return np.clip(np.asarray(point, dtype=float), self.lo, self.hi)

    def distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the box surface (0 inside)."""
        return norm(self.closest_point(point) - np.asarray(point, dtype=float))

    def corners(self) -> np.ndarray:
        """All 8 corner points, shape (8, 3)."""
        lo, hi = self.lo, self.hi
        xs = [lo[0], hi[0]]
        ys = [lo[1], hi[1]]
        zs = [lo[2], hi[2]]
        return np.array([[x, y, z] for x in xs for y in ys for z in zs])


@dataclass(frozen=True)
class Ray:
    """A half-line with an origin and a unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        o = np.asarray(self.origin, dtype=float)
        d = unit(np.asarray(self.direction, dtype=float))
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)

    def at(self, t: float) -> np.ndarray:
        """Point at parameter ``t`` along the ray."""
        return self.origin + t * self.direction


def ray_aabb_intersection(ray: Ray, box: AABB) -> Optional[Tuple[float, float]]:
    """Slab-method ray/AABB intersection.

    Returns
    -------
    ``(t_near, t_far)`` parameters of entry and exit, or ``None`` when the
    ray misses the box entirely or the box is behind the origin.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = np.where(
            np.abs(ray.direction) < EPS, np.inf, 1.0 / ray.direction
        )
        t1 = (box.lo - ray.origin) * inv
        t2 = (box.hi - ray.origin) * inv
    # Rays parallel to a slab: origin must be within the slab.
    parallel = np.abs(ray.direction) < EPS
    if np.any(parallel & ((ray.origin < box.lo) | (ray.origin > box.hi))):
        return None
    t1 = np.where(parallel, -np.inf, t1)
    t2 = np.where(parallel, np.inf, t2)
    t_near = float(np.max(np.minimum(t1, t2)))
    t_far = float(np.min(np.maximum(t1, t2)))
    if t_near > t_far + EPS or t_far < 0:
        return None
    return max(t_near, 0.0), t_far


def segment_intersects_aabb(a: np.ndarray, b: np.ndarray, box: AABB) -> bool:
    """True if the segment from ``a`` to ``b`` passes through ``box``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    length = norm(d)
    if length < EPS:
        return box.contains(a)
    hit = ray_aabb_intersection(Ray(a, d / length), box)
    if hit is None:
        return False
    t_near, _t_far = hit
    return t_near <= length + EPS


def batch_ray_aabbs(
    origin: np.ndarray,
    directions: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """Vectorized first-hit distances for many rays against many AABBs.

    Parameters
    ----------
    origin:
        Shared ray origin, shape ``(3,)``.
    directions:
        Unit direction per ray, shape ``(N, 3)``.
    los, his:
        Box corners, each shape ``(M, 3)``.
    max_range:
        Rays that hit nothing within this distance report ``max_range``.

    Returns
    -------
    Array of shape ``(N,)`` with the distance to the nearest box surface
    along each ray, clipped at ``max_range``.

    This is the inner loop of the depth camera; it is fully vectorized over
    the ``N x M`` ray/box pairs.
    """
    directions = np.asarray(directions, dtype=float)
    n = directions.shape[0]
    if los.size == 0:
        return np.full(n, max_range, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / directions  # (N, 3); inf where direction component is 0
        # Broadcast: (N, 1, 3) against (1, M, 3) -> (N, M, 3)
        o = np.asarray(origin, dtype=float)
        t1 = (los[None, :, :] - o[None, None, :]) * inv[:, None, :]
        t2 = (his[None, :, :] - o[None, None, :]) * inv[:, None, :]
    # Handle parallel rays: where direction==0, t1/t2 are +-inf or nan.
    t_lo = np.fmin(t1, t2)
    t_hi = np.fmax(t1, t2)
    # nan appears when 0 * inf occurs (origin on slab); treat as full range.
    t_lo = np.where(np.isnan(t_lo), -np.inf, t_lo)
    t_hi = np.where(np.isnan(t_hi), np.inf, t_hi)
    t_near = t_lo.max(axis=2)  # (N, M)
    t_far = t_hi.min(axis=2)
    hit = (t_near <= t_far) & (t_far >= 0)
    t_near = np.where(t_near < 0, 0.0, t_near)
    dist = np.where(hit, t_near, np.inf).min(axis=1)
    return np.minimum(dist, max_range)


def yaw_rotation(yaw: float) -> np.ndarray:
    """Rotation matrix for a rotation of ``yaw`` about the +z axis."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix(yaw: float, pitch: float = 0.0, roll: float = 0.0) -> np.ndarray:
    """Intrinsic ZYX (yaw-pitch-roll) rotation matrix."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]], dtype=float)
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]], dtype=float)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]], dtype=float)
    return rz @ ry @ rx


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass
class Pose:
    """Position + yaw of the vehicle (pitch/roll abstracted away).

    The MAVBench workloads command the vehicle in the horizontal plane plus
    altitude, so a 4-DoF pose (x, y, z, yaw) is the natural state.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).copy()
        self.yaw = wrap_angle(float(self.yaw))

    def copy(self) -> "Pose":
        return Pose(self.position.copy(), self.yaw)

    def distance_to(self, other: "Pose") -> float:
        return norm(self.position - other.position)

    def forward(self) -> np.ndarray:
        """Unit vector in the direction the vehicle is facing (horizontal)."""
        return vec(math.cos(self.yaw), math.sin(self.yaw), 0.0)


def path_length(points: Iterable[np.ndarray]) -> float:
    """Total polyline length through ``points``."""
    pts = [np.asarray(p, dtype=float) for p in points]
    if len(pts) < 2:
        return 0.0
    return float(sum(norm(b - a) for a, b in zip(pts[:-1], pts[1:])))
