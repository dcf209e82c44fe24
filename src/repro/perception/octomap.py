"""OctoMap: a probabilistic occupancy octree, reimplemented from scratch.

Substitute for Hornung et al.'s OctoMap C++ library.  The paper calls this
kernel "a major bottleneck in three of our end to end applications" and
builds its energy case study on the resolution knob (Figs. 17-19), so we
implement the real data structure, not a model:

* octree over a cubic region, leaves at a configurable ``resolution``;
* log-odds occupancy updates with clamping (the standard OctoMap
  parameters: hit +0.85, miss -0.4, clamp to [-2, 3.5] log-odds);
* ray-cast insertion (3D DDA voxel traversal marking free space along each
  beam and occupied space at the endpoint);
* occupancy queries by point and by box region, plus unknown-space queries
  used by the frontier-exploration planner.

The tree stores only non-unknown leaves in a hash map keyed by voxel
index; interior nodes are implicit.  This keeps insertion O(ray length /
resolution) and memory proportional to observed space, which is what makes
the resolution/runtime trade-off of Fig. 18 emerge naturally when the
benchmarks measure *this very code*.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import trace as _trace
from ..world.geometry import AABB, EPS
from .point_cloud import PointCloud

VoxelKey = Tuple[int, int, int]

#: Packed voxel-key layout: 21 bits per axis, biased by 2^20 so indices in
#: (-2^20, 2^20) pack into one non-negative int64.  That is +-500 km of
#: world at the finest paper resolution (0.15 m) — far beyond any mission.
_PACK_BITS = 21
_PACK_OFFSET = 1 << 20


def pack_keys(keys: np.ndarray) -> np.ndarray:
    """Pack (N, 3) integer voxel keys into sortable int64 scalars."""
    k = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    return (
        ((k[:, 0] + _PACK_OFFSET) << (2 * _PACK_BITS))
        + ((k[:, 1] + _PACK_OFFSET) << _PACK_BITS)
        + (k[:, 2] + _PACK_OFFSET)
    )


def unpack_keys(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_keys`; returns (N, 3) int64 keys."""
    p = np.asarray(packed, dtype=np.int64).reshape(-1)
    mask = (1 << _PACK_BITS) - 1
    out = np.empty((p.shape[0], 3), dtype=np.int64)
    out[:, 0] = (p >> (2 * _PACK_BITS)) - _PACK_OFFSET
    out[:, 1] = ((p >> _PACK_BITS) & mask) - _PACK_OFFSET
    out[:, 2] = (p & mask) - _PACK_OFFSET
    return out


def _sorted_membership(sorted_arr: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``queries`` appear in ``sorted_arr``."""
    if sorted_arr.size == 0 or queries.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    idx = np.searchsorted(sorted_arr, queries)
    idx = np.minimum(idx, sorted_arr.size - 1)
    return sorted_arr[idx] == queries

#: Standard OctoMap sensor-model parameters (log odds).
LOG_ODDS_HIT = 0.85
LOG_ODDS_MISS = -0.4
LOG_ODDS_MIN = -2.0
LOG_ODDS_MAX = 3.5
OCCUPANCY_THRESHOLD = 0.0  # log-odds 0 == probability 0.5


def probability(log_odds: float) -> float:
    """Convert log-odds to an occupancy probability."""
    return 1.0 / (1.0 + math.exp(-log_odds))


def log_odds(p: float) -> float:
    """Convert a probability to log-odds."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must be strictly inside (0, 1)")
    return math.log(p / (1.0 - p))


@dataclass
class OctoMap:
    """A probabilistic 3D occupancy map at a fixed voxel resolution.

    Attributes
    ----------
    resolution:
        Voxel edge length in meters — *the* knob of the energy case study.
    bounds:
        Optional region of interest; updates outside it are ignored.
    """

    resolution: float = 0.5
    bounds: Optional[AABB] = None
    hit_update: float = LOG_ODDS_HIT
    miss_update: float = LOG_ODDS_MISS

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        self._cells: Dict[VoxelKey, float] = {}
        self.insertions = 0
        self.rays_inserted = 0
        # Sorted packed-key index over _cells, kept live across writes:
        # batch log-odds updates merge their clamped values into it
        # (_merge_index), so a scan costs an O(N) array merge rather than
        # an O(N) dict->array rebuild.  Scalar writes (update_cell) mark
        # it dirty; the next query rebuilds it once and merging resumes.
        self._index_dirty = False
        self._idx_packed = np.zeros(0, dtype=np.int64)
        self._idx_values = np.zeros(0, dtype=np.float64)
        self._idx_occupied = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Keys and coordinates
    # ------------------------------------------------------------------
    def key_for(self, point: Sequence[float]) -> VoxelKey:
        """Voxel index containing ``point``."""
        p = np.asarray(point, dtype=float)
        return (
            int(math.floor(p[0] / self.resolution)),
            int(math.floor(p[1] / self.resolution)),
            int(math.floor(p[2] / self.resolution)),
        )

    def center_of(self, key: VoxelKey) -> np.ndarray:
        """World coordinates of a voxel center."""
        return (np.asarray(key, dtype=float) + 0.5) * self.resolution

    def voxel_box(self, key: VoxelKey) -> AABB:
        lo = np.asarray(key, dtype=float) * self.resolution
        return AABB(lo, lo + self.resolution)

    def _in_bounds(self, point: np.ndarray) -> bool:
        return self.bounds is None or self.bounds.contains(point)

    # Batched key/bounds kernels ---------------------------------------
    def keys_for_points(self, points: np.ndarray) -> np.ndarray:
        """Voxel indices for a whole (N, 3) point batch at once."""
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        return np.floor(p / self.resolution).astype(np.int64)

    def centers_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """World centers for an (N, 3) key batch."""
        k = np.asarray(keys, dtype=float).reshape(-1, 3)
        return (k + 0.5) * self.resolution

    def _in_bounds_mask(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`AABB.contains` over an (N, 3) point batch."""
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        if self.bounds is None:
            return np.ones(p.shape[0], dtype=bool)
        lo, hi = self.bounds.lo, self.bounds.hi
        return np.all((p >= lo - EPS) & (p <= hi + EPS), axis=1)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_cell(self, key: VoxelKey, delta: float) -> float:
        """Apply a log-odds delta with clamping; returns the new value."""
        value = self._cells.get(key, 0.0) + delta
        value = min(max(value, LOG_ODDS_MIN), LOG_ODDS_MAX)
        self._cells[key] = value
        self._index_dirty = True
        return value

    def _merge_index(self, packed: np.ndarray, values: np.ndarray) -> None:
        """Merge unique sorted ``packed`` keys with their new ``values``
        into the (clean) sorted index in place."""
        idx = np.searchsorted(self._idx_packed, packed)
        if self._idx_packed.size:
            hit = np.minimum(idx, self._idx_packed.size - 1)
            found = self._idx_packed[hit] == packed
        else:
            found = np.zeros(packed.shape, dtype=bool)
        if np.any(found):
            self._idx_values[idx[found]] = values[found]
        missing = ~found
        if np.any(missing):
            # Fused two-array insert: one destination-position computation
            # shared by keys and values (``np.insert`` would redo it, with
            # per-call wrapper overhead, for each array).
            new_p = packed[missing]
            new_v = values[missing]
            n = self._idx_packed.size
            k = new_p.size
            pos = idx[missing] + np.arange(k, dtype=np.int64)
            out_p = np.empty(n + k, dtype=self._idx_packed.dtype)
            out_v = np.empty(n + k, dtype=self._idx_values.dtype)
            old_mask = np.ones(n + k, dtype=bool)
            old_mask[pos] = False
            out_p[pos] = new_p
            out_v[pos] = new_v
            out_p[old_mask] = self._idx_packed
            out_v[old_mask] = self._idx_values
            self._idx_packed = out_p
            self._idx_values = out_v
        self._idx_occupied = self._idx_packed[
            self._idx_values > OCCUPANCY_THRESHOLD
        ]

    def _values_for_sorted_packed(self, packed: np.ndarray) -> np.ndarray:
        """Current log-odds for sorted unique packed keys (0.0 where
        unknown), served from the live sorted index when it is clean —
        one vectorized binary search instead of per-key dict hashing."""
        out = np.zeros(packed.size)
        if self._idx_packed.size:
            idx = np.minimum(
                np.searchsorted(self._idx_packed, packed),
                self._idx_packed.size - 1,
            )
            found = self._idx_packed[idx] == packed
            out[found] = self._idx_values[idx[found]]
        return out

    def _apply_log_odds_batch(
        self,
        packed: np.ndarray,
        delta: float,
        counts: Optional[np.ndarray] = None,
    ) -> None:
        """Apply ``delta`` (optionally ``counts`` times per voxel) to a batch
        of *unique*, sorted packed voxel keys, clamping exactly like
        :meth:`update_cell`.

        All deltas in one batch share a sign, so clamping once after the
        summed update is bit-identical to clamping after every scalar
        update (a monotone sequence crosses each clamp bound at most once).
        """
        if packed.size == 0:
            return
        keys = unpack_keys(packed)
        cells = self._cells
        # zip of column lists + map(dict.get)/dict.update keep the per-voxel
        # hash traffic in C; numpy does the arithmetic and clamping.
        key_tuples = list(
            zip(keys[:, 0].tolist(), keys[:, 1].tolist(), keys[:, 2].tolist())
        )
        if not self._index_dirty:
            current = self._values_for_sorted_packed(packed)
        else:
            current = np.fromiter(
                map(cells.get, key_tuples, itertools.repeat(0.0)),
                dtype=np.float64,
                count=packed.size,
            )
        step = delta if counts is None else delta * counts
        new = np.clip(current + step, LOG_ODDS_MIN, LOG_ODDS_MAX)
        cells.update(zip(key_tuples, new.tolist()))
        if not self._index_dirty:
            # Keep the sorted index live: the clamped values are already
            # computed, so the merge is pure array work.
            if packed.size > 1 and not np.all(packed[1:] > packed[:-1]):
                order = np.argsort(packed)
                self._merge_index(packed[order], new[order])
            else:
                self._merge_index(packed, new)
        else:
            self._index_dirty = True

    def mark_occupied(self, point: Sequence[float]) -> None:
        p = np.asarray(point, dtype=float)
        if self._in_bounds(p):
            self.update_cell(self.key_for(p), self.hit_update)

    def mark_free(self, point: Sequence[float]) -> None:
        p = np.asarray(point, dtype=float)
        if self._in_bounds(p):
            self.update_cell(self.key_for(p), self.miss_update)

    def ray_keys(
        self, origin: np.ndarray, endpoint: np.ndarray
    ) -> List[VoxelKey]:
        """Voxels traversed from ``origin`` to ``endpoint`` (exclusive of
        the endpoint voxel), via 3D DDA (Amanatides & Woo)."""
        origin = np.asarray(origin, dtype=float)
        endpoint = np.asarray(endpoint, dtype=float)
        direction = endpoint - origin
        length = float(np.linalg.norm(direction))
        if length < 1e-9:
            return []
        direction = direction / length
        key = np.array(self.key_for(origin), dtype=int)
        end_key = self.key_for(endpoint)
        step = np.sign(direction).astype(int)
        # Distance along the ray to the first boundary crossing per axis.
        t_max = np.empty(3)
        t_delta = np.empty(3)
        for i in range(3):
            if direction[i] > 1e-12:
                boundary = (key[i] + 1) * self.resolution
                t_max[i] = (boundary - origin[i]) / direction[i]
                t_delta[i] = self.resolution / direction[i]
            elif direction[i] < -1e-12:
                boundary = key[i] * self.resolution
                t_max[i] = (boundary - origin[i]) / direction[i]
                t_delta[i] = -self.resolution / direction[i]
            else:
                t_max[i] = np.inf
                t_delta[i] = np.inf
        keys: List[VoxelKey] = []
        current: VoxelKey = (int(key[0]), int(key[1]), int(key[2]))
        guard = int(3 * length / self.resolution) + 6
        for _ in range(guard):
            if current == end_key:
                break
            keys.append(current)
            axis = int(np.argmin(t_max))
            if t_max[axis] > length:
                break
            key[axis] += step[axis]
            t_max[axis] += t_delta[axis]
            current = (int(key[0]), int(key[1]), int(key[2]))
        return keys

    def batch_ray_keys(
        self, origins: np.ndarray, endpoints: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized 3D DDA over a whole batch of rays at once.

        Traverses every ray in lock-step: each iteration advances *all*
        still-active rays by one voxel with array ops, instead of walking
        rays one voxel at a time in Python.  Per ray, the emitted voxel
        sequence is identical to :meth:`ray_keys` (same start key, same
        endpoint-voxel exclusion, same tie-breaking and guard limits).

        Parameters
        ----------
        origins:
            Ray origins, shape (3,) (shared origin) or (N, 3).
        endpoints:
            Ray endpoints, shape (N, 3).

        Returns
        -------
        keys, ray_index:
            ``keys`` is the (M, 3) int64 array of all traversed voxels;
            ``ray_index[m]`` tells which ray emitted ``keys[m]``.  Within
            one ray the keys appear in traversal order.
        """
        res = self.resolution
        endpoints = np.asarray(endpoints, dtype=float).reshape(-1, 3)
        n = endpoints.shape[0]
        empty = (np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        if n == 0:
            return empty
        origins = np.asarray(origins, dtype=float)
        if origins.ndim == 1:
            origins = np.broadcast_to(origins, (n, 3))
        delta = endpoints - origins
        length = np.linalg.norm(delta, axis=1)
        valid = length >= 1e-9
        if not np.any(valid):
            return empty
        direction = np.zeros_like(delta)
        np.divide(delta, length[:, None], out=direction, where=valid[:, None])

        key0 = np.floor(origins / res).astype(np.int64)
        end_key = np.floor(endpoints / res).astype(np.int64)
        step = np.sign(direction).astype(np.int64)
        moving = np.abs(direction) > 1e-12
        boundary = np.where(direction > 1e-12, (key0 + 1) * res, key0 * res)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_first = np.where(
                moving, (boundary - origins) / direction, np.inf
            )
            t_delta = np.where(moving, np.abs(res / direction), np.inf)
        guard = (3.0 * length / res).astype(np.int64) + 6

        # Phase 1: every voxel-boundary crossing of every ray, per axis.
        # Crossing times are built by row-wise cumulative sum so each value
        # is the same left-to-right float accumulation the scalar DDA
        # performs with ``t_max += t_delta`` — bit-identical termination.
        max_steps = int(np.max(length[valid]) / res) + 3
        t_flat: List[np.ndarray] = []
        ray_flat: List[np.ndarray] = []
        axis_flat: List[np.ndarray] = []
        rows = np.arange(n)
        for a in range(3):
            ladder = np.empty((n, max_steps))
            ladder[:, 0] = t_first[:, a]
            ladder[:, 1:] = t_delta[:, a, None]
            times = np.cumsum(ladder, axis=1)
            taken = times <= length[:, None]
            taken &= valid[:, None]
            counts = np.count_nonzero(taken, axis=1)
            rid = np.repeat(rows, counts)
            t_flat.append(times[taken])
            ray_flat.append(rid)
            axis_flat.append(np.full(rid.size, a, dtype=np.int64))
        t_all = np.concatenate(t_flat)
        ray_all = np.concatenate(ray_flat)
        axis_all = np.concatenate(axis_flat)

        # Phase 2: merge the three per-axis crossing streams per ray.  A
        # stable (t, axis) order reproduces the scalar loop's first-minimum
        # argmin tie-breaking exactly.
        order = np.lexsort((axis_all, t_all, ray_all))
        ray_s = ray_all[order]
        axis_s = axis_all[order]
        k_total = ray_s.size
        cross_per_ray = np.bincount(ray_s, minlength=n)

        # Phase 3: reconstruct the voxel sequence.  Each crossing advances
        # one axis by its step; keys are exact segmented integer cumsums.
        dk = np.zeros((k_total, 3), dtype=np.int64)
        dk[np.arange(k_total), axis_s] = step[ray_s, axis_s]
        csum = np.cumsum(dk, axis=0)
        excl = csum - dk  # exclusive prefix sums

        ray_ids = rows[valid]
        counts_r = cross_per_ray[valid]
        cand_counts = counts_r + 1  # the origin voxel plus one per crossing
        total = int(cand_counts.sum())
        seg_start_cand = np.concatenate(
            ([0], np.cumsum(cand_counts)[:-1])
        )
        seg_start_cross = np.concatenate(([0], np.cumsum(counts_r)[:-1]))
        cand_ray = np.repeat(ray_ids, cand_counts)
        cand = key0[cand_ray].copy()
        if k_total:
            seg_base = excl[seg_start_cross]
            within = csum - np.repeat(seg_base, counts_r, axis=0)
            seg_ord = np.repeat(
                np.arange(ray_ids.size), counts_r
            )
            slots = np.arange(k_total) + seg_ord + 1
            cand[slots] += within

        # Phase 4: truncate each ray at its endpoint voxel (never emitted)
        # and at the traversal guard, exactly like the scalar walk.
        within_idx = np.arange(total) - np.repeat(seg_start_cand, cand_counts)
        at_end = np.all(cand == end_key[cand_ray], axis=1)
        sentinel = np.where(at_end, within_idx, total + 1)
        first_end = np.minimum.reduceat(sentinel, seg_start_cand)
        emit = np.minimum(cand_counts, first_end)
        emit = np.minimum(emit, guard[ray_ids])
        mask = within_idx < np.repeat(emit, cand_counts)
        if not np.any(mask):
            return empty
        return cand[mask], cand_ray[mask]

    def insert_ray(
        self, origin: np.ndarray, endpoint: np.ndarray, hit: bool = True
    ) -> None:
        """Insert one beam: free space along the ray, occupied endpoint."""
        for key in self.ray_keys(origin, endpoint):
            center = self.center_of(key)
            if self._in_bounds(center):
                self.update_cell(key, self.miss_update)
        p = np.asarray(endpoint, dtype=float)
        if hit and self._in_bounds(p):
            self.update_cell(self.key_for(p), self.hit_update)
        self.rays_inserted += 1

    @staticmethod
    def _subsample_rays(
        cloud: PointCloud, max_rays: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        hits = cloud.hits
        misses = cloud.misses
        if max_rays is not None and hits.shape[0] + misses.shape[0] > max_rays:
            frac = max_rays / (hits.shape[0] + misses.shape[0])
            hstride = max(int(round(1.0 / frac)), 1)
            hits = hits[::hstride]
            misses = misses[::hstride]
        return hits, misses

    def insert_point_cloud(
        self,
        cloud: PointCloud,
        max_rays: Optional[int] = None,
        endpoint_only: bool = False,
    ) -> int:
        """Insert a point cloud scan; returns the number of rays processed.

        Batched kernel: all rays are traversed in one vectorized DDA and
        log-odds deltas accumulate per voxel (with multiplicity) before a
        single clamped update.  Free-space carving is applied before the
        endpoint hits, so within one batch occupied evidence lands last —
        for scans where a voxel receives only one kind of update (the
        common case) this is bit-identical to the scalar loop.

        Parameters
        ----------
        cloud:
            Scan to integrate.
        max_rays:
            Optional cap on rays processed (uniform subsample).
        endpoint_only:
            Skip free-space carving and only mark endpoints (the cheap
            approximate mode used as an ablation in DESIGN.md).
        """
        hits, misses = self._subsample_rays(cloud, max_rays)
        count = hits.shape[0] + misses.shape[0]
        if not endpoint_only:
            endpoints = (
                np.vstack([hits, misses]) if misses.size else np.asarray(hits)
            )
            keys, _ = self.batch_ray_keys(cloud.origin, endpoints)
            if keys.size:
                centers = self.centers_of_keys(keys)
                keys = keys[self._in_bounds_mask(centers)]
            if keys.size:
                packed, mult = np.unique(pack_keys(keys), return_counts=True)
                self._apply_log_odds_batch(packed, self.miss_update, mult)
            self.rays_inserted += count
        if hits.shape[0]:
            pts = np.asarray(hits, dtype=float).reshape(-1, 3)
            pts = pts[self._in_bounds_mask(pts)]
            if pts.shape[0]:
                packed, mult = np.unique(
                    pack_keys(self.keys_for_points(pts)), return_counts=True
                )
                self._apply_log_odds_batch(packed, self.hit_update, mult)
        self.insertions += 1
        return count

    def insert_point_cloud_scalar(
        self,
        cloud: PointCloud,
        max_rays: Optional[int] = None,
        endpoint_only: bool = False,
    ) -> int:
        """Reference scalar implementation of :meth:`insert_point_cloud`
        (one Python DDA walk and one clamped dict update per voxel); kept
        for the batched-vs-scalar equivalence suite."""
        hits, misses = self._subsample_rays(cloud, max_rays)
        count = 0
        for point in hits:
            if endpoint_only:
                self.mark_occupied(point)
            else:
                self.insert_ray(cloud.origin, point, hit=True)
            count += 1
        for point in misses:
            if not endpoint_only:
                self.insert_ray(cloud.origin, point, hit=False)
            count += 1
        self.insertions += 1
        return count

    def insert_scan(self, cloud: PointCloud, carve_rays: int = 40) -> int:
        """Insert a full scan: every hit endpoint marked occupied (dense
        surfaces — cheap, one hash update per point) plus free-space
        carving along an evenly strided subset of ``carve_rays`` beams.

        As in the original OctoMap, updates are de-duplicated per scan and
        occupied endpoints take precedence: a voxel hit by any endpoint in
        this scan is never carved free by a grazing beam of the same scan.
        Without this rule, thin obstacles (tree trunks, poles) get outvoted
        by the many near-miss rays passing through their voxel and vanish
        from the map.  Returns the number of endpoint updates performed.

        This is the batched hot path: endpoint voxelization, the carve-ray
        DDA, and both log-odds passes run as whole-scan array kernels.
        Because every voxel receives at most one update per scan, the
        result is identical to :meth:`insert_scan_scalar` (the per-point
        reference implementation) on any input.
        """
        with _trace.span("perceive.octomap_insert", "perceive") as _sp:
            result = self._insert_scan_traced(cloud, carve_rays)
            _sp.set(points=result)
            _trace.observe("octomap.scan_points", result)
            return result

    def _insert_scan_traced(self, cloud: PointCloud, carve_rays: int) -> int:
        hits = np.asarray(cloud.hits, dtype=float).reshape(-1, 3)
        count = hits.shape[0]
        hit_packed = np.zeros(0, dtype=np.int64)
        if count:
            in_bounds = hits[self._in_bounds_mask(hits)]
            if in_bounds.shape[0]:
                hit_packed = np.unique(
                    pack_keys(self.keys_for_points(in_bounds))
                )
                self._apply_log_odds_batch(hit_packed, self.hit_update)
        endpoints = cloud.all_endpoints
        n = endpoints.shape[0]
        if n and carve_rays > 0:
            stride = max(n // carve_rays, 1)
            beams = endpoints[::stride]
            keys, _ = self.batch_ray_keys(cloud.origin, beams)
            if keys.size:
                packed = np.unique(pack_keys(keys))
                # Occupied endpoints of this scan take precedence.
                packed = packed[
                    ~_sorted_membership(hit_packed, packed)
                ]
            else:
                packed = np.zeros(0, dtype=np.int64)
            if packed.size:
                # Grazing-beam guard: never carve a confidently occupied
                # voxel (see insert_scan_scalar for the full rationale —
                # a subsampled carve set would otherwise erode thin walls
                # one miss-update per scan).
                unpacked = unpack_keys(packed)
                if not self._index_dirty:
                    existing = self._values_for_sorted_packed(packed)
                else:
                    cells = self._cells
                    existing = np.fromiter(
                        map(
                            cells.get,
                            zip(
                                unpacked[:, 0].tolist(),
                                unpacked[:, 1].tolist(),
                                unpacked[:, 2].tolist(),
                            ),
                            itertools.repeat(0.0),
                        ),
                        dtype=np.float64,
                        count=packed.size,
                    )
                keep = ~(existing > 2.0)
                if self.bounds is not None:
                    keep &= self._in_bounds_mask(
                        self.centers_of_keys(unpacked)
                    )
                self._apply_log_odds_batch(packed[keep], self.miss_update)
            self.rays_inserted += beams.shape[0]
        self.insertions += 1
        return count

    def insert_scan_scalar(self, cloud: PointCloud, carve_rays: int = 40) -> int:
        """Reference scalar implementation of :meth:`insert_scan`: one
        Python DDA walk per beam and one dict update per voxel.  Kept (and
        tested) as the ground truth the batched kernels must reproduce."""
        hit_keys = set()
        count = 0
        for point in cloud.hits:
            p = np.asarray(point, dtype=float)
            if self._in_bounds(p):
                hit_keys.add(self.key_for(p))
            count += 1
        for key in hit_keys:
            self.update_cell(key, self.hit_update)
        endpoints = cloud.all_endpoints
        n = endpoints.shape[0]
        if n and carve_rays > 0:
            stride = max(n // carve_rays, 1)
            carved = set()
            for point in endpoints[::stride]:
                for key in self.ray_keys(cloud.origin, point):
                    if key in hit_keys or key in carved:
                        continue
                    # Guard confidently occupied voxels against grazing
                    # beams: with a subsampled carve set, repeated edge-on
                    # views of a thin wall would otherwise erode it to
                    # free one miss-update per scan while contributing no
                    # endpoint hits, and the drone flies through a wall it
                    # once mapped correctly.
                    existing = self._cells.get(key)
                    if existing is not None and existing > 2.0:
                        continue
                    center = self.center_of(key)
                    if self._in_bounds(center):
                        self.update_cell(key, self.miss_update)
                        carved.add(key)
                self.rays_inserted += 1
        self.insertions += 1
        return count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of observed (non-unknown) voxels."""
        return len(self._cells)

    def log_odds_at(self, point: Sequence[float]) -> Optional[float]:
        """Raw log-odds at ``point``; None when unknown."""
        return self._cells.get(self.key_for(point))

    def occupancy_at(self, point: Sequence[float]) -> Optional[float]:
        """Occupancy probability at ``point``; None when unknown."""
        value = self.log_odds_at(point)
        return None if value is None else probability(value)

    def is_occupied(self, point: Sequence[float]) -> bool:
        value = self.log_odds_at(point)
        return value is not None and value > OCCUPANCY_THRESHOLD

    def is_free(self, point: Sequence[float]) -> bool:
        value = self.log_odds_at(point)
        return value is not None and value <= OCCUPANCY_THRESHOLD

    def is_unknown(self, point: Sequence[float]) -> bool:
        return self.log_odds_at(point) is None

    def occupied_keys(self) -> Iterator[VoxelKey]:
        for key, value in self._cells.items():
            if value > OCCUPANCY_THRESHOLD:
                yield key

    def free_keys(self) -> Iterator[VoxelKey]:
        for key, value in self._cells.items():
            if value <= OCCUPANCY_THRESHOLD:
                yield key

    def occupied_centers(self) -> np.ndarray:
        """World centers of all occupied voxels, shape (N, 3)."""
        keys = list(self.occupied_keys())
        if not keys:
            return np.zeros((0, 3))
        return (np.asarray(keys, dtype=float) + 0.5) * self.resolution

    # Vectorized query index -------------------------------------------
    def _ensure_index(self) -> None:
        """Rebuild the sorted packed-key index if writes invalidated it."""
        if not self._index_dirty:
            return
        keys, values = self.cells_arrays()
        if keys.shape[0] == 0:
            self._idx_packed = np.zeros(0, dtype=np.int64)
            self._idx_values = np.zeros(0, dtype=np.float64)
            self._idx_occupied = np.zeros(0, dtype=np.int64)
        else:
            packed = pack_keys(keys)
            order = np.argsort(packed)
            self._idx_packed = packed[order]
            self._idx_values = values[order]
            self._idx_occupied = self._idx_packed[
                self._idx_values > OCCUPANCY_THRESHOLD
            ]
        self._index_dirty = False

    def cells_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All observed cells as arrays: (N, 3) int64 keys and (N,) values,
        in insertion order (matching ``dict`` iteration)."""
        n = len(self._cells)
        if n == 0:
            return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
        keys = np.array(list(self._cells.keys()), dtype=np.int64)
        values = np.fromiter(self._cells.values(), dtype=np.float64, count=n)
        return keys, values

    def known_mask_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask over an (N, 3) key batch: which voxels are observed."""
        k = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        self._ensure_index()
        return _sorted_membership(self._idx_packed, pack_keys(k))

    def log_odds_many(self, points: np.ndarray) -> np.ndarray:
        """Log-odds for an (N, 3) point batch; NaN where unknown."""
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        self._ensure_index()
        packed = pack_keys(self.keys_for_points(p))
        out = np.full(p.shape[0], np.nan)
        if self._idx_packed.size:
            idx = np.minimum(
                np.searchsorted(self._idx_packed, packed),
                self._idx_packed.size - 1,
            )
            found = self._idx_packed[idx] == packed
            out[found] = self._idx_values[idx[found]]
        return out

    def _box_key_ranges(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        corners = np.concatenate(
            (
                np.asarray(los, dtype=float).reshape(-1, 3),
                np.asarray(his, dtype=float).reshape(-1, 3),
            )
        )
        keys = np.floor(corners / self.resolution).astype(np.int64)
        m = keys.shape[0] // 2
        return keys[:m], keys[m:]

    def _boxes_range_query(
        self,
        lo_keys: np.ndarray,
        hi_keys: np.ndarray,
        sorted_packed: np.ndarray,
        count: bool,
    ) -> np.ndarray:
        """Core box kernel: for each key-range box, test (or count) stored
        packed keys inside it.

        Exploits the packed layout: for fixed (i, j) the k-axis is a
        contiguous packed range, so one box decomposes into a small grid of
        (i, j) columns, each answered by two binary searches — no voxel
        grid is ever materialized.
        """
        m = lo_keys.shape[0]
        if m == 0:
            return np.zeros(0, dtype=np.int64 if count else bool)
        # Run-length dedupe of identical key-range boxes before the column
        # searches.  Path-validation batches sample at half-voxel spacing,
        # so *consecutive* samples often quantize to the very same box;
        # each run is answered once and scattered back (O(M), no sort).
        scatter = None
        if m > 1:
            both = pack_keys(np.concatenate((lo_keys, hi_keys)))
            run_lo, run_hi = both[:m], both[m:]
            new_run = np.empty(m, dtype=bool)
            new_run[0] = True
            np.not_equal(run_lo[1:], run_lo[:-1], out=new_run[1:])
            np.logical_or(
                new_run[1:], run_hi[1:] != run_hi[:-1], out=new_run[1:]
            )
            if not np.all(new_run):
                scatter = np.cumsum(new_run) - 1
                first = np.nonzero(new_run)[0]
                lo_keys = lo_keys[first]
                hi_keys = hi_keys[first]
                m = first.size
        counts = hi_keys - lo_keys + 1
        # Ragged column layout: box b contributes exactly its own
        # counts_i * counts_j (i, j) columns instead of a padded
        # (M, max_i, max_j) grid, and the per-box reductions run as one
        # ``np.add.reduceat`` over the concatenated column spans.  Every
        # box has >= 1 column, so the reduceat segment starts are strictly
        # increasing (no empty-slice quirk).
        ncols = counts[:, 0] * counts[:, 1]  # (M,)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(ncols))
        )
        total = int(offsets[-1])
        box_id = np.repeat(np.arange(m, dtype=np.int64), ncols)
        within = np.arange(total, dtype=np.int64) - offsets[box_id]
        cj = counts[box_id, 1]
        ii = lo_keys[box_id, 0] + within // cj
        jj = lo_keys[box_id, 1] + within % cj
        base = ((ii + _PACK_OFFSET) << (2 * _PACK_BITS)) + (
            (jj + _PACK_OFFSET) << _PACK_BITS
        )
        lo_p = base + (lo_keys[box_id, 2] + _PACK_OFFSET)
        hi_p = base + (hi_keys[box_id, 2] + _PACK_OFFSET)
        # One fused binary search: for sorted int64 keys, a side="left"
        # search for hi+1 lands exactly where side="right" for hi does,
        # so both bounds come back from a single searchsorted call.
        bounds = np.concatenate((lo_p, hi_p + 1))
        pos = sorted_packed.searchsorted(bounds, side="left")
        span = pos[total:] - pos[:total]
        if count:
            out = np.add.reduceat(span, offsets[:-1])
        else:
            # reduceat counts each box's non-empty columns; > 0 is "any".
            out = np.add.reduceat(span > 0, offsets[:-1]) > 0
        return out if scatter is None else out[scatter]

    def boxes_occupied(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`region_occupied` over (M, 3) corner batches:
        True per box when any occupied voxel intersects it."""
        self._ensure_index()
        lo_keys, hi_keys = self._box_key_ranges(los, his)
        return self._boxes_range_query(
            lo_keys, hi_keys, self._idx_occupied, count=False
        )

    def boxes_unknown_fraction(
        self, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`region_unknown_fraction` over corner batches."""
        self._ensure_index()
        lo_keys, hi_keys = self._box_key_ranges(los, his)
        total = np.prod(hi_keys - lo_keys + 1, axis=1)
        known = self._boxes_range_query(
            lo_keys, hi_keys, self._idx_packed, count=True
        )
        return (total - known) / total

    def occupied_in_box(self, box: AABB, margin: float = 0.0) -> bool:
        """True if any occupied voxel intersects ``box`` (inflated).

        This is the collision-check primitive the planners use: the box is
        typically the drone's body at a candidate position, inflated by a
        safety margin.  Unknown space is treated as free here; planners that
        must avoid unknown space use :meth:`region_unknown_fraction`.
        """
        check = box.inflate(margin) if margin > 0 else box
        return bool(
            self.boxes_occupied(check.lo[None, :], check.hi[None, :])[0]
        )

    def region_occupied(self, box: AABB, margin: float = 0.0) -> bool:
        """Compatibility alias for :meth:`occupied_in_box`."""
        return self.occupied_in_box(box, margin)

    def _box_key_range_scalar(self, box: AABB) -> Tuple[VoxelKey, VoxelKey]:
        """Inclusive voxel-key corners of ``box`` (scalar twin of
        :meth:`_box_key_ranges`)."""
        return self.key_for(box.lo), self.key_for(box.hi)

    def region_occupied_scalar(self, box: AABB, margin: float = 0.0) -> bool:
        """Reference scalar implementation of :meth:`occupied_in_box`: a
        Python walk over every voxel the box overlaps, one dict lookup
        each.  Kept (and tested) as the ground truth the batched sorted-
        index query must reproduce — the collision-checker equivalence
        suite builds on it."""
        check = box.inflate(margin) if margin > 0 else box
        lo_key, hi_key = self._box_key_range_scalar(check)
        for i in range(lo_key[0], hi_key[0] + 1):
            for j in range(lo_key[1], hi_key[1] + 1):
                for k in range(lo_key[2], hi_key[2] + 1):
                    value = self._cells.get((i, j, k))
                    if value is not None and value > OCCUPANCY_THRESHOLD:
                        return True
        return False

    def region_unknown_fraction_scalar(self, box: AABB) -> float:
        """Reference scalar implementation of
        :meth:`region_unknown_fraction` (per-voxel dict walk)."""
        lo_key, hi_key = self._box_key_range_scalar(box)
        total = 0
        known = 0
        for i in range(lo_key[0], hi_key[0] + 1):
            for j in range(lo_key[1], hi_key[1] + 1):
                for k in range(lo_key[2], hi_key[2] + 1):
                    total += 1
                    if (i, j, k) in self._cells:
                        known += 1
        return (total - known) / total

    def region_unknown_fraction(self, box: AABB) -> float:
        """Fraction of voxels inside ``box`` that are unobserved."""
        return float(
            self.boxes_unknown_fraction(box.lo[None, :], box.hi[None, :])[0]
        )

    def known_volume(self) -> float:
        """Total volume (m^3) of observed voxels."""
        return len(self._cells) * self.resolution**3

    def coverage_fraction(self, region: Optional[AABB] = None) -> float:
        """Observed fraction of ``region`` (or of ``self.bounds``).

        The 3D Mapping workload's completion metric.
        """
        box = region or self.bounds
        if box is None:
            raise ValueError("coverage needs an explicit region or map bounds")
        if box.volume <= 0:
            return 1.0
        return min(self.known_volume() / box.volume, 1.0)

    # ------------------------------------------------------------------
    # Resolution management (the energy case-study knob)
    # ------------------------------------------------------------------
    def rebuilt_at_resolution(self, resolution: float) -> "OctoMap":
        """A new map at a different resolution carrying over this map's
        knowledge.

        Coarsening max-pools occupancy: any occupied fine voxel makes the
        coarse voxel occupied — the obstacle inflation of Fig. 17.
        Refining expands each occupied coarse voxel into all contained
        fine voxels (conservative: the surface is somewhere inside), and
        carries free space over at a subsampled stride (fresh scans re-
        carve it quickly; losing free-space detail is harmless, losing
        obstacles is not).

        Carried log-odds are capped to +-0.35 in both directions: evidence
        accumulated at a different resolution is weak evidence about the
        re-gridded cells, and fresh observations must be able to overturn
        it within a few scans (a doorway that a coarse map declared
        blocked must re-open quickly once the fine map actually sees it).
        """
        other = OctoMap(
            resolution=resolution,
            bounds=self.bounds,
            hit_update=self.hit_update,
            miss_update=self.miss_update,
        )
        # Filled through _cells below, bypassing the live index.
        other._index_dirty = True
        refining = resolution < self.resolution

        def carried(value: float) -> float:
            # Weak-evidence cap: one fresh observation (hit +0.85 or miss
            # -0.4 with the 0.35 floor below it) can overturn any carried
            # cell, so re-gridded knowledge never outvotes current sensing.
            return min(max(value, -0.35), 0.35)

        if not refining:
            for key, value in self._cells.items():
                value = carried(value)
                if value > OCCUPANCY_THRESHOLD:
                    # Occupied fine voxels may straddle coarse boundaries
                    # (resolutions need not nest): mark every overlapping
                    # coarse voxel so no obstacle evidence is dropped.
                    box = self.voxel_box(key)
                    eps = 1e-9
                    targets = {
                        other.key_for(np.clip(corner, box.lo + eps, box.hi - eps))
                        for corner in box.corners()
                    }
                else:
                    targets = {other.key_for(self.center_of(key))}
                for new_key in targets:
                    existing = other._cells.get(new_key)
                    if existing is None or value > existing:
                        other._cells[new_key] = value
            return other
        n_sub = max(int(math.ceil(self.resolution / resolution)), 1)
        free_stride = max(n_sub // 2, 1)
        for key, value in self._cells.items():
            lo = np.asarray(key, dtype=float) * self.resolution
            occupied = value > OCCUPANCY_THRESHOLD
            stride = 1 if occupied else free_stride
            value = carried(value)
            for i in range(0, n_sub, stride):
                for j in range(0, n_sub, stride):
                    for k in range(0, n_sub, stride):
                        center = lo + (np.array([i, j, k]) + 0.5) * resolution
                        if not self._in_bounds(center):
                            continue
                        new_key = other.key_for(center)
                        existing = other._cells.get(new_key)
                        if existing is None or value > existing:
                            other._cells[new_key] = value
        return other

    def memory_cells(self) -> int:
        """Stored leaf count (memory footprint proxy)."""
        return len(self._cells)
