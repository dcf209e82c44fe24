"""Measured scenario difficulty.

A requested ``difficulty`` is a promise; these metrics check what the
generated world actually delivers, so studies can compare *requested*
against *realized* hardness:

* **occupied_fraction** — static obstacle volume over world volume (the
  paper's "(static) obstacle density" knob, measured);
* **corridor widths** — percentiles of free-space clearance at flight
  altitude, from a vectorized grid of free-space probes (one batched
  point-to-AABB distance computation, no per-probe Python loop);
* **dynamic_congestion** — patrolling-obstacle speed mass per 1000 m²
  (the "(dynamic) obstacle speed" knob, measured).

``congestion_score`` folds static and dynamic terms into one scalar that
is non-decreasing in requested difficulty for every registered family
(pinned by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..world.environment import World

__all__ = [
    "ScenarioMetrics",
    "corridor_width_percentiles",
    "dynamic_congestion",
    "free_space_clearances",
    "measure_scenario",
]


@dataclass(frozen=True)
class ScenarioMetrics:
    """Realized difficulty of one generated world."""

    occupied_fraction: float
    corridor_widths_m: Dict[str, float]  # {"p10": ..., "p50": ..., "p90": ...}
    dynamic_congestion: float
    congestion_score: float

    def as_dict(self) -> Dict[str, float]:
        row = {
            "occupied_fraction": self.occupied_fraction,
            "dynamic_congestion": self.dynamic_congestion,
            "congestion_score": self.congestion_score,
        }
        for key, value in self.corridor_widths_m.items():
            row[f"corridor_{key}_m"] = value
        return row


def free_space_clearances(
    world: World, z: float = 1.5, spacing: Optional[float] = None
) -> np.ndarray:
    """Clearance (m) to the nearest static obstacle or boundary for every
    *free* probe on an xy grid at height ``z`` — fully vectorized.

    ``spacing`` defaults to ~1/64 of the larger horizontal extent
    (clamped to [0.5 m, 4 m]) so the probe count stays bounded on large
    worlds and dense on small ones.
    """
    lo, hi = world.bounds.lo, world.bounds.hi
    extent = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if spacing is None:
        spacing = min(max(extent / 64.0, 0.5), 4.0)
    xs = np.arange(lo[0] + spacing / 2, hi[0], spacing)
    ys = np.arange(lo[1] + spacing / 2, hi[1], spacing)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack(
        [gx.ravel(), gy.ravel(), np.full(gx.size, float(z))]
    )
    # Distance from every probe to every static AABB in one broadcast:
    # clamp the probe into the box, then measure the displacement.
    los, his = world.static_boxes()
    if los.shape[0]:
        nearest = np.clip(points[:, None, :], los[None, :, :], his[None, :, :])
        dists = np.linalg.norm(points[:, None, :] - nearest, axis=2)
        min_dist = dists.min(axis=1)
    else:
        min_dist = np.full(points.shape[0], np.inf)
    # Boundary walls count as obstacles for corridor purposes.
    boundary = np.minimum(
        np.minimum(points[:, 0] - lo[0], hi[0] - points[:, 0]),
        np.minimum(points[:, 1] - lo[1], hi[1] - points[:, 1]),
    )
    clearance = np.minimum(min_dist, boundary)
    return clearance[min_dist > 0.0]  # drop probes inside obstacles


def corridor_width_percentiles(
    world: World,
    percentiles: Sequence[float] = (10.0, 50.0, 90.0),
    z: float = 1.5,
    spacing: Optional[float] = None,
) -> Dict[str, float]:
    """Corridor width (2 x clearance) percentiles over the free probes."""
    clearances = free_space_clearances(world, z=z, spacing=spacing)
    if clearances.size == 0:
        return {f"p{int(p)}": 0.0 for p in percentiles}
    widths = 2.0 * clearances
    values = np.percentile(widths, list(percentiles))
    return {f"p{int(p)}": float(v) for p, v in zip(percentiles, values)}


def dynamic_congestion(world: World) -> float:
    """Patrolling-obstacle speed mass per 1000 m² of ground area.

    Only obstacles that actually move count (a survivor standing in
    rubble is a degenerate patrol of length zero).
    """
    lo, hi = world.bounds.lo, world.bounds.hi
    area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
    if area <= 0:
        return 0.0
    speed_mass = sum(
        o.speed for o in world.dynamic_obstacles if o.is_patrolling
    )
    return float(speed_mass) * 1000.0 / area


def measure_scenario(
    world: World, z: float = 1.5, spacing: Optional[float] = None
) -> ScenarioMetrics:
    """Measure the realized difficulty of ``world``."""
    occupied = float(world.density())
    corridors = corridor_width_percentiles(world, z=z, spacing=spacing)
    dynamic = dynamic_congestion(world)
    # Static density dominates; the dynamic term breaks ties for families
    # whose hardness is purely congestion (e.g. "park").  The corridor
    # term is reported but kept out of the score: clearance percentiles
    # shift with probe layout, while the two score terms are exactly
    # monotone in every family's difficulty mapping.
    score = occupied + 0.05 * dynamic
    return ScenarioMetrics(
        occupied_fraction=occupied,
        corridor_widths_m=corridors,
        dynamic_congestion=dynamic,
        congestion_score=float(score),
    )
