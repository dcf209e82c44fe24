"""Shared-world fleet state: one city, N drones, cross-member sensing.

Classic fleets fly N *independent* worlds — each mission builds its own
city and the batch gate only amortizes NumPy dispatch.  A *shared-world*
fleet flies one content-hashed city (the ``shared_city`` scenario
family): every member plans against the same buildings and traffic, and
the other N-1 drones become dynamic obstacles it must sense and avoid.

Three mechanisms, all deterministic:

1. **Peer sensing** — each member's perception pipeline and collision
   checker are built with a :class:`PeerView` (:meth:`SharedWorldState
   .view`) and see the other drones' *current* positions as exclusion
   bubbles.  Positions only change inside the tick gate, and mission
   code runs only while every other thread is parked, so a member
   always senses a consistent snapshot.
2. **Conflict resolution** (:func:`gate_conflicts`) — a dedicated gate
   phase between control and dynamics computes all pairwise separations
   over the stacked fleet state and applies a priority-ordered
   altitude-hold rule: of any pair closer than the conflict radius, the
   *higher member index* yields (holds laterally and climbs gently)
   while the lower-index member keeps its command.  Lower index always
   wins, so the outcome is independent of enumeration order.
3. **Airspace metrics** — per-member minimum separation, edge-triggered
   near-miss counts, and hold tallies accumulate on the shared state
   and land in each mission report's ``extra`` block (plus
   ``fleet.conflicts.*`` counters when a tracer is installed).

A pair closer than the *collision* radius is a drone-drone crash: both
members fail with reason ``drone_collision``, mirroring the ground-truth
obstacle check's semantics.

With fewer than two registered airborne members every mechanism is
inert, so a shared-world fleet of one is bit-identical to the same
mission run sequentially.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from .kernels import pairwise_separations, resolve_conflicts

__all__ = [
    "PeerView",
    "SharedWorldPolicy",
    "SharedWorldState",
    "gate_conflicts",
]


@dataclass(frozen=True)
class SharedWorldPolicy:
    """Tunable radii and rules for one shared-world fleet.

    Attributes
    ----------
    conflict_radius_m:
        Pairs closer than this are *in conflict*: the lower-priority
        member holds instead of flying its commanded velocity.
    near_miss_radius_m:
        Pairs closer than this log an (edge-triggered) near miss.
    collision_radius_m:
        Pairs closer than this have physically collided — both members
        fail with ``drone_collision``.  Roughly two drone radii.
    peer_radius_m:
        Exclusion-bubble radius added to the querying drone's own radius
        when peers are injected into clearance and collision queries.
    hold_climb_ms:
        Vertical speed a yielding member climbs at while holding, so
        conflicted pairs open altitude separation instead of stalling.
    altitude_gate_m:
        Grounded drones (at or below this altitude) neither sense peers
        nor count as obstacles — same gate the crash check uses.
    """

    conflict_radius_m: float = 5.0
    near_miss_radius_m: float = 2.5
    collision_radius_m: float = 0.65
    peer_radius_m: float = 0.6
    hold_climb_ms: float = 0.5
    altitude_gate_m: float = 0.3


class SharedWorldState:
    """Cross-member registry and airspace bookkeeping for one fleet.

    The coordinator registers each member's sim at enrollment (keyed by
    ``id`` with a strong reference, so CPython id reuse cannot alias a
    retired member onto a live one) and unregisters it at retirement.
    ``metrics`` maps member index to its accumulated airspace record::

        {"min_separation_m": float, "near_misses": float,
         "conflict_holds": float}
    """

    def __init__(self, policy: Optional[SharedWorldPolicy] = None) -> None:
        self.policy = policy or SharedWorldPolicy()
        self._lock = threading.Lock()
        #: id(sim) -> (sim, member index); the sim ref pins the id.
        self._members: Dict[int, Tuple[object, int]] = {}
        #: member-index pairs currently inside the near-miss radius
        #: (edge-triggering: one near miss per incursion, not per tick).
        self._near_pairs: Set[Tuple[int, int]] = set()
        self.metrics: Dict[int, Dict[str, float]] = {}
        self.min_separation_m = math.inf
        self.near_misses = 0
        self.conflict_holds = 0
        self.drone_collisions = 0

    # ------------------------------------------------------------------
    # Registration (driven by the coordinator's enroll/retire)
    # ------------------------------------------------------------------
    def register(self, sim, member: int) -> None:
        """Add a member's sim to the shared airspace."""
        with self._lock:
            self._members[id(sim)] = (sim, int(member))
            self.metrics.setdefault(
                int(member),
                {
                    "min_separation_m": math.inf,
                    "near_misses": 0.0,
                    "conflict_holds": 0.0,
                },
            )

    def unregister(self, sim) -> None:
        """Remove a retired member's sim (its metrics record stays)."""
        with self._lock:
            self._members.pop(id(sim), None)

    def member_of(self, sim) -> Optional[int]:
        """This sim's member index, or None if it is not registered."""
        entry = self._members.get(id(sim))
        return None if entry is None else entry[1]

    # ------------------------------------------------------------------
    # Peer sensing (queried from mission threads between gates)
    # ------------------------------------------------------------------
    def view(self, sim) -> "PeerView":
        """The peer-obstacle provider for one member's perception stack:
        its pipeline's clearance probes (safety filter) and its collision
        checker (all planners) see the other drones through it."""
        return PeerView(self, sim)

    def peers_for(self, sim) -> Optional[np.ndarray]:
        """Stacked ``(P, 3)`` positions of the *other* airborne members
        (member-index order), or None when the sky is empty."""
        gate = self.policy.altitude_gate_m
        me = id(sim)
        with self._lock:
            entries = sorted(self._members.values(), key=lambda e: e[1])
        rows = [
            e[0].state.position.copy()
            for e in entries
            if id(e[0]) != me and e[0].state.position[2] > gate
        ]
        if not rows:
            return None
        return np.stack(rows)

    def clearance_along(self, sim, direction, max_dist: float = 8.0) -> float:
        """Distance from ``sim`` to the nearest peer bubble along
        ``direction`` (capped at ``max_dist``) — the peer half of the
        pipeline's ray-march clearance.  Ray-sphere entry distance
        against each peer's exclusion bubble."""
        peers = self.peers_for(sim)
        if peers is None:
            return float(max_dist)
        d = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm < 1e-9:
            return float(max_dist)
        unit = d / norm
        radius = self.policy.peer_radius_m + sim.ground_truth.drone_radius
        rel = peers - sim.state.position[None, :]
        along = rel @ unit
        perp2 = np.sum(rel * rel, axis=1) - along * along
        hit = (along > 0.0) & (perp2 <= radius * radius)
        if not np.any(hit):
            return float(max_dist)
        entry = along[hit] - np.sqrt(
            np.maximum(radius * radius - perp2[hit], 0.0)
        )
        return float(min(max(float(entry.min()), 0.0), max_dist))


class PeerView:
    """One member's view of the other drones in a shared airspace.

    Built once per member pipeline and passed to its
    :class:`~repro.planning.collision.CollisionChecker`.  Both
    ``points_free`` and ``points_free_scalar`` end in the same
    :meth:`blocked` call, so the twins keep agreeing with peers present;
    with an empty sky every query leaves the sequential math untouched.
    """

    __slots__ = ("_state", "_sim")

    def __init__(self, state: SharedWorldState, sim):
        self._state = state
        self._sim = sim

    def blocked(
        self, points: np.ndarray, drone_radius: float
    ) -> Optional[np.ndarray]:
        """``(N,)`` mask of the ``(N, 3)`` points inside a peer's bubble
        (grown by ``drone_radius``), or None when no peer is airborne."""
        peers = self._state.peers_for(self._sim)
        if peers is None:
            return None
        radius = self._state.policy.peer_radius_m + float(drone_radius)
        delta = points[:, None, :] - peers[None, :, :]
        return (np.sum(delta * delta, axis=2) <= radius * radius).any(axis=1)

    def clearance_along(self, direction, max_dist: float = 8.0) -> float:
        """Distance to the nearest peer bubble along ``direction``."""
        return self._state.clearance_along(self._sim, direction, max_dist)


# ----------------------------------------------------------------------
# The conflicts gate phase
# ----------------------------------------------------------------------
def gate_conflicts(state: SharedWorldState, sims: Sequence, tracer=None) -> None:
    """One tick of cross-member sensing and conflict resolution.

    Runs inside the gate after the control phase (commands are fresh)
    and before dynamics (overridden commands take effect this tick):

    1. pairwise separations over the stacked airborne members,
    2. separation metrics (per-member minimums, edge-triggered near
       misses, ``fleet.conflicts.*`` counters under a tracer),
    3. drone-drone collisions (both members of a pair inside the
       collision radius fail with ``drone_collision``),
    4. priority holds: each surviving conflicted member that is
       outranked by a nearby peer has its velocity command overridden
       to a lateral hold plus a gentle climb.

    Deterministic by construction: pure array math over the stacked
    state, priority = member index, no RNG, no wall clock.
    """
    policy = state.policy
    rows = []
    member_list = []
    for i, sim in enumerate(sims):
        member = state.member_of(sim)
        if member is not None:
            rows.append(i)
            member_list.append(member)
    if len(rows) < 2:
        return
    positions = np.stack([sims[i].state.position for i in rows])
    airborne = positions[:, 2] > policy.altitude_gate_m
    act = np.nonzero(airborne)[0]
    if act.size < 2:
        return
    members = np.asarray(member_list)[act]
    seps = pairwise_separations(positions[act])
    yields, min_seps = resolve_conflicts(
        seps, members, policy.conflict_radius_m
    )
    metrics = tracer.metrics if tracer is not None else None

    # -- separation metrics -------------------------------------------
    fleet_min = float(min_seps.min())
    if fleet_min < state.min_separation_m:
        state.min_separation_m = fleet_min
    if metrics is not None:
        metrics.histogram("fleet.conflicts.min_separation").observe(fleet_min)
    for k, member in enumerate(members):
        record = state.metrics[int(member)]
        if min_seps[k] < record["min_separation_m"]:
            record["min_separation_m"] = float(min_seps[k])

    # -- near misses (edge-triggered per pair) ------------------------
    iu, ju = np.triu_indices(int(act.size), k=1)
    close = seps[iu, ju] < policy.near_miss_radius_m
    for a, b, is_close in zip(iu, ju, close):
        pair = (int(members[a]), int(members[b]))
        if is_close:
            if pair not in state._near_pairs:
                state._near_pairs.add(pair)
                state.near_misses += 1
                state.metrics[pair[0]]["near_misses"] += 1.0
                state.metrics[pair[1]]["near_misses"] += 1.0
                if metrics is not None:
                    metrics.counter("fleet.conflicts.near_misses").inc()
        else:
            state._near_pairs.discard(pair)

    # -- drone-drone collisions ---------------------------------------
    collided = min_seps < policy.collision_radius_m
    for k in np.nonzero(collided)[0]:
        sim = sims[rows[int(act[int(k)])]]
        sim.collisions += 1
        sim.fail("drone_collision")
        state.drone_collisions += 1
        if metrics is not None:
            metrics.counter("fleet.conflicts.drone_collisions").inc()

    # -- priority holds -----------------------------------------------
    holding = yields & ~collided
    for k in np.nonzero(holding)[0]:
        sim = sims[rows[int(act[int(k)])]]
        sim.vehicle.command_velocity(
            np.array([0.0, 0.0, policy.hold_climb_ms])
        )
        state.conflict_holds += 1
        state.metrics[int(members[int(k)])]["conflict_holds"] += 1.0
        if metrics is not None:
            metrics.counter("fleet.conflicts.holds").inc()
