"""Fleet runner: N missions advanced per NumPy call.

Sequential campaigns spend their host wall in per-mission Python ticking
— thousands of small NumPy calls on length-3 vectors.  The fleet runner
amortizes that dispatch overhead across missions: each mission runs its
*unchanged* workload code in its own thread, but every
:meth:`Simulation.step` parks at a shared tick gate, and the last thread
to arrive executes the whole fleet's per-tick phases as struct-of-arrays
kernels over stacked ``(N, ...)`` state (see :mod:`repro.fleet.kernels`).

Why threads rather than rewriting the workloads as coroutines: the
mission scripts are ordinary imperative Python (``run_until`` loops,
planning callbacks, mid-mission re-planning) and the thread stack *is*
their continuation.  The GIL serializes execution — threads here are a
control-flow device, not a parallelism device; any speedup comes from
the batched kernels, not concurrency.

Determinism: missions share no mutable state, each per-tick phase
preserves its sequential per-mission math bit-for-bit, and planning
callbacks run serially inside the gate in enrollment order.  A fleet of
N therefore produces *byte-identical* mission reports, vehicle states,
and RNG end-states to N sequential runs — pinned by
``tests/test_fleet_batched.py`` and the fleet golden-trace suite.

Lifecycle of one fleet member::

    thread: set_adopter(coord.enroll) -> run_workload(...) builds a
    Simulation -> Simulation.__init__ adopts it -> every sim.step()
    parks at coord.step(sim) -> mission finishes -> finally: retire()

Missions that finish (or die) *retire*, shrinking the barrier so the
remaining fleet keeps ticking; a mission that is re-planning simply
isn't calling ``step`` from a kernel completion — planning happens
inside the gate's compute phase via its scheduler callbacks, so slow
planners stall only their own mission's tick, never the batch protocol.

Tracing (see ``docs/observability.md``): fleets run under an installed
tracer.  Each member's spans land on its own mission stream
(:func:`repro.observability.trace.mission_scope`), the gate emits a
``fleet.gate`` span subtree on a dedicated gate stream with
``control``/``dynamics``/``compute``/``sense``/``energy`` children, and
the gate runner re-attributes each member's compute phase (planning
callbacks included) to that member's stream — so a fleet trace splits
into per-mission phase trees identical in shape to sequential ones.
Gate contention lands in per-member histograms: ``fleet.gate.wait.<m>``
(arrival → release, i.e. stragglers + the gate run; the gate runner
itself records 0) and ``fleet.gate.wake.<m>`` (release → resumption —
the wake overhead that grows with N).  When no tracer is installed the
gate pays one ``get_tracer()`` check per park and a handful of shared
no-op context managers per tick, gated <2% in
``benchmarks/test_ablation_tracing.py``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import fleet_hook
from ..core.api import WorkloadResult, run_workload
from ..observability import trace as _trace
from ..observability.trace import _NOOP
from .kernels import (
    FleetBatchArrays,
    control_step_batch,
    dynamics_step_batch,
    energy_step_batch,
    sense_check_batch,
)
from .shared_world import SharedWorldPolicy, SharedWorldState, gate_conflicts

__all__ = [
    "FleetMission",
    "FleetCoordinator",
    "fleet_gate_stats",
    "run_workloads_fleet",
]


@dataclass
class FleetMission:
    """One mission's worth of :func:`repro.core.api.run_workload` inputs."""

    workload: str
    seed: int = 0
    cores: int = 4
    frequency_ghz: float = 2.2
    depth_noise_std: float = 0.0
    workload_kwargs: Optional[Dict[str, Any]] = None
    sim_kwargs: Dict[str, Any] = field(default_factory=dict)


class FleetCoordinator:
    """The shared tick gate for one fleet.

    ``expected`` counts mission threads.  A thread's sim parks here via
    :meth:`step`; when every non-retired thread has parked, the last
    arrival runs the gate: batched control and dynamics, per-sim clock +
    compute (planning callbacks fire here, serially, in enrollment
    order), batched sensing and energy.  The gate runs while holding the
    condition lock — safe, because every other fleet thread is blocked
    in ``wait_for`` at that moment and mission code never re-enters
    ``sim.step`` from a scheduler callback.  The same lock is what makes
    gate-side *tracing* sound: the runner may push spans onto a parked
    member's mission stream (attributing that member's compute phase)
    because the member cannot resume until the gate releases it.

    Per-mission failures stay per-mission: an exception raised by a
    mission's compute phase (a planner blowing up, a workload callback
    asserting) is captured into ``_errors`` and re-raised *in that
    mission's thread* when it leaves the gate; the rest of the fleet
    ticks on.  Only an exception inside a batched kernel itself — which
    cannot be attributed to one mission — poisons the whole batch.
    """

    def __init__(
        self,
        expected: int,
        group: str = "fleet",
        shared: Optional[SharedWorldState] = None,
    ) -> None:
        self._cond = threading.Condition()
        self._expected = expected
        #: shared-world airspace (peer sensing + conflicts phase), or
        #: None for the classic independent-worlds fleet.
        self.shared = shared
        self._retired = 0
        self._generation = 0
        self._enrolled = 0
        self._order: Dict[int, int] = {}
        self._waiting: Dict[int, Any] = {}
        self._by_thread: Dict[int, List[Any]] = {}
        self._errors: Dict[int, BaseException] = {}
        self._arrays: Optional[FleetBatchArrays] = None
        self.ticks = 0
        #: group name — the trace's process lane for this fleet.
        self.group = group
        self._gate_label = f"{group}.gate"
        #: thread ident -> mission label (set before enrollment).
        self._thread_labels: Dict[int, str] = {}
        #: thread ident -> shared-world member index (set before
        #: enrollment; enrollment order is the fallback).
        self._thread_members: Dict[int, int] = {}
        #: sim id -> mission label (fixed at enrollment).
        self._labels: Dict[int, str] = {}
        #: perf_counter at the most recent gate release (wake latency).
        self._wake_t0 = 0.0
        #: member-label tuple last stamped onto a gate span.
        self._traced_members: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # Enrollment (installed as the thread-local sim adopter)
    # ------------------------------------------------------------------
    def set_thread_label(self, label: str) -> None:
        """Name the calling thread's mission (trace/metric attribution)."""
        with self._cond:
            self._thread_labels[threading.get_ident()] = label

    def set_thread_member(self, member: int) -> None:
        """Pin the calling thread's shared-world member index (conflict
        priority and metrics attribution) ahead of enrollment."""
        with self._cond:
            self._thread_members[threading.get_ident()] = int(member)

    def enroll(self, sim) -> None:
        """Adopt a freshly built sim into the fleet (thread-local hook)."""
        with self._cond:
            sim._fleet = self
            order = self._enrolled
            self._order[id(sim)] = order
            self._enrolled += 1
            ident = threading.get_ident()
            self._by_thread.setdefault(ident, []).append(sim)
            self._labels[id(sim)] = self._thread_labels.get(ident, f"m{order}")
            if self.shared is not None:
                self.shared.register(
                    sim, self._thread_members.get(ident, order)
                )

    def _member_label(self, sim) -> str:
        return self._labels.get(id(sim)) or f"m{self._order.get(id(sim), 0)}"

    # ------------------------------------------------------------------
    # The tick gate
    # ------------------------------------------------------------------
    def step(self, sim) -> None:
        """Park ``sim``'s thread until the fleet's next tick has run."""
        ident = threading.get_ident()
        tracer = _trace.get_tracer()
        with self._cond:
            generation = self._generation
            self._waiting[ident] = sim
            if len(self._waiting) == self._expected - self._retired:
                self._run_gate()
                if tracer is not None:
                    # The runner never parks: zero wait, by definition.
                    label = self._member_label(sim)
                    tracer.metrics.histogram(
                        f"fleet.gate.wait.{label}"
                    ).observe(0.0)
            elif tracer is None:
                self._cond.wait_for(lambda: self._generation != generation)
            else:
                t0 = time.perf_counter()
                self._cond.wait_for(lambda: self._generation != generation)
                t1 = time.perf_counter()
                label = self._member_label(sim)
                metrics = tracer.metrics
                metrics.histogram(f"fleet.gate.wait.{label}").observe(t1 - t0)
                # _wake_t0 is this generation's release stamp: the next
                # gate cannot run (and restamp it) until this waiter has
                # re-parked, so the read is race-free under the lock.
                metrics.histogram(f"fleet.gate.wake.{label}").observe(
                    t1 - self._wake_t0
                )
            error = self._errors.pop(id(sim), None)
        if error is not None:
            raise error

    def retire(self) -> None:
        """Drop the calling thread from the barrier (mission over).

        Called from each fleet thread's ``finally`` whether the mission
        succeeded, failed, or never finished building its world.  If the
        remaining threads are all already parked, the retiree fires the
        gate on their behalf so they don't wait forever.
        """
        ident = threading.get_ident()
        tracer = _trace.get_tracer()
        with self._cond:
            for sim in self._by_thread.pop(ident, []):
                sim._fleet = None
                # Drop *every* id-keyed record for the sim, not just the
                # order: a label or pending error left behind could be
                # claimed by a later sim that CPython hands the same id.
                self._order.pop(id(sim), None)
                self._labels.pop(id(sim), None)
                self._errors.pop(id(sim), None)
                if self.shared is not None:
                    self.shared.unregister(sim)
            self._waiting.pop(ident, None)
            if tracer is not None:
                tracer.metrics.counter("fleet.gate.retired").inc()
            self._thread_labels.pop(ident, None)
            self._thread_members.pop(ident, None)
            self._retired += 1
            remaining = self._expected - self._retired
            if remaining > 0 and len(self._waiting) == remaining:
                self._run_gate()

    def _arrays_for(self, sims: List[Any], dts: List[float]) -> FleetBatchArrays:
        """The gathered-constants cache for this exact live set (rebuilt
        only when fleet membership changes)."""
        key = tuple(id(s) for s in sims)
        if self._arrays is None or self._arrays.key != key:
            self._arrays = FleetBatchArrays(sims, dts)
        return self._arrays

    def _run_gate(self) -> None:
        """Advance the whole parked fleet by one tick (lock held).

        The traced and untraced paths execute the *same* statements in
        the same order — tracing only brackets them with spans (shared
        no-ops when disabled), preserving the bit-identity contract.
        """
        tracer = _trace.get_tracer()
        sims = sorted(self._waiting.values(), key=lambda s: self._order[id(s)])
        if tracer is None:
            gate_scope = gate_span = _NOOP
        else:
            gate_scope = tracer.use_stream(self._gate_label, self.group)
            gate_span = _GateSpan(self, tracer, sims)
        with gate_scope, gate_span:
            try:
                dts = [sim.config.dt for sim in sims]
                cache = self._arrays_for(sims, dts)
                with _phase(tracer, "control"):
                    control_step_batch(sims, dts)
                if self.shared is not None:
                    # Between control (commands are fresh) and dynamics
                    # (overrides integrate this tick): cross-member
                    # sensing, priority holds, airspace metrics.
                    with _phase(tracer, "conflicts"):
                        gate_conflicts(self.shared, sims, tracer)
                with _phase(tracer, "dynamics"):
                    dynamics_step_batch(sims, dts, cache)
                live: List[Any] = []
                live_dts: List[float] = []
                with _phase(tracer, "compute"):
                    for sim, dt in zip(sims, dts):
                        try:
                            with self._member_compute(tracer, sim):
                                sim.clock.advance(dt)
                                sim.scheduler.advance_to(sim.clock.now)
                        except BaseException as exc:  # planning blew up
                            self._errors[id(sim)] = exc
                        else:
                            live.append(sim)
                            live_dts.append(dt)
                if live:
                    live_cache = (
                        cache
                        if len(live) == len(sims)
                        else FleetBatchArrays(live, live_dts)
                    )
                    with _phase(tracer, "sense"):
                        sense_check_batch(live, live_cache)
                    with _phase(tracer, "energy"):
                        energy_step_batch(live, live_dts, live_cache)
            except BaseException as exc:  # batched kernel itself failed
                for sim in sims:
                    self._errors.setdefault(id(sim), exc)
        if tracer is not None:
            tracer.metrics.counter("fleet.gate.ticks").inc()
        self.ticks += 1
        self._generation += 1
        self._waiting.clear()
        self._wake_t0 = time.perf_counter()
        self._cond.notify_all()

    def _member_compute(self, tracer, sim):
        """Attribute one member's compute phase to its mission stream.

        The span nests under the spans the member's parked thread left
        open (``mission/fly``), so a fleet member's ``tick.compute`` —
        planning callbacks included — lands exactly where the
        sequential path would put it.
        """
        if tracer is None:
            return _NOOP
        return _MemberCompute(tracer, self._member_label(sim))


class _MemberCompute:
    """``use_stream(member) + span('tick.compute')`` as one context."""

    __slots__ = ("_tracer", "_label", "_scope", "_span")

    def __init__(self, tracer, label: str) -> None:
        self._tracer = tracer
        self._label = label

    def __enter__(self):
        self._scope = self._tracer.use_stream(self._label)
        self._scope.__enter__()
        self._span = self._tracer.span("tick.compute", "compute")
        return self._span.__enter__()

    def __exit__(self, *exc):
        self._span.__exit__(*exc)
        self._scope.__exit__(*exc)


class _GateSpan:
    """The per-tick ``fleet.gate`` root span, with membership attrs."""

    __slots__ = ("_coord", "_tracer", "_sims", "_span")

    def __init__(self, coord: FleetCoordinator, tracer, sims: List[Any]) -> None:
        self._coord = coord
        self._tracer = tracer
        self._sims = sims

    def __enter__(self):
        self._span = self._tracer.span("fleet.gate", "fleet")
        sp = self._span.__enter__()
        members = tuple(self._coord._member_label(s) for s in self._sims)
        sp.set(n=len(members))
        if members != self._coord._traced_members:
            # Full member list only on membership change (enroll/retire)
            # keeps per-tick span payloads O(1).
            sp.set(members=list(members))
            self._coord._traced_members = members
        return sp

    def __exit__(self, *exc):
        self._span.__exit__(*exc)


def _phase(tracer, name: str):
    """A gate-phase child span, or the shared no-op when untraced."""
    if tracer is None:
        return _NOOP
    return tracer.span(name, "fleet")


def fleet_gate_stats(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Extract the gate-contention block from a metrics snapshot.

    Returns ``{"ticks", "retired", "wait": {member: hist}, "wake":
    {member: hist}, "conflicts": {...}}`` — empty member dicts when the
    snapshot holds no fleet metrics (e.g. a sequential run).  The
    ``conflicts`` block folds the shared-world ``fleet.conflicts.*``
    counters (all zero for independent-worlds fleets); its
    ``min_separation`` entry is the per-tick fleet-minimum histogram, or
    None when the conflicts phase never ran.  Both ``repro profile
    --fleet`` and the campaign fleet profile report through here.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    waits: Dict[str, Any] = {}
    wakes: Dict[str, Any] = {}
    for name, hist in histograms.items():
        if name.startswith("fleet.gate.wait."):
            waits[name[len("fleet.gate.wait."):]] = hist
        elif name.startswith("fleet.gate.wake."):
            wakes[name[len("fleet.gate.wake."):]] = hist
    return {
        "ticks": counters.get("fleet.gate.ticks", 0),
        "retired": counters.get("fleet.gate.retired", 0),
        "wait": waits,
        "wake": wakes,
        "conflicts": {
            "holds": counters.get("fleet.conflicts.holds", 0),
            "near_misses": counters.get("fleet.conflicts.near_misses", 0),
            "drone_collisions": counters.get(
                "fleet.conflicts.drone_collisions", 0
            ),
            "min_separation": histograms.get("fleet.conflicts.min_separation"),
        },
    }


def run_workloads_fleet(
    missions: Sequence[FleetMission],
    labels: Optional[Sequence[str]] = None,
    group: str = "fleet",
    shared_world=None,
) -> Tuple[List[Optional[WorkloadResult]], List[Optional[BaseException]]]:
    """Fly ``missions`` as one fleet; returns ``(results, errors)``.

    ``results[i]`` is mission *i*'s :class:`WorkloadResult`, or ``None``
    if it raised — in which case ``errors[i]`` holds the exception.  The
    call returns when every mission has finished or failed.

    ``shared_world`` switches on the shared-airspace layer (see
    :mod:`repro.fleet.shared_world`): pass ``True`` for the default
    :class:`SharedWorldPolicy`, a policy for custom radii, or a
    pre-built :class:`SharedWorldState` to inspect afterwards.  Member
    index (conflict priority) is each mission's ``member`` workload
    kwarg when present, else its position in ``missions``; with two or
    more members, each mission report gains ``fleet_near_misses``,
    ``fleet_conflict_holds``, and ``fleet_min_separation_m`` extras.
    Missions are expected to share one world — pin the scenario seed
    (e.g. ``shared_city:0.4:7``) so every member builds the same city.

    Under an installed tracer each mission's spans collect on a stream
    named ``labels[i]`` (default ``"m{i}:{workload}"``) in process lane
    ``group``, and the tick gate adds its own ``{group}.gate`` lane plus
    per-member wait/wake histograms — see ``docs/observability.md``.
    Tracing never alters execution: results stay byte-identical.
    """
    missions = list(missions)
    if labels is None:
        labels = [f"m{i}:{m.workload}" for i, m in enumerate(missions)]
    else:
        labels = list(labels)
        if len(labels) != len(missions):
            raise ValueError(
                f"labels/missions length mismatch "
                f"({len(labels)} vs {len(missions)})"
            )
    if shared_world is None or shared_world is False:
        shared_state = None
    elif isinstance(shared_world, SharedWorldState):
        shared_state = shared_world
    elif isinstance(shared_world, SharedWorldPolicy):
        shared_state = SharedWorldState(shared_world)
    else:
        shared_state = SharedWorldState()
    members = [
        int((m.workload_kwargs or {}).get("member", i))
        for i, m in enumerate(missions)
    ]
    coordinator = FleetCoordinator(
        expected=len(missions), group=group, shared=shared_state
    )
    results: List[Optional[WorkloadResult]] = [None] * len(missions)
    errors: List[Optional[BaseException]] = [None] * len(missions)

    def _fly(index: int, mission: FleetMission, label: str) -> None:
        fleet_hook.set_adopter(coordinator.enroll)
        coordinator.set_thread_label(label)
        if shared_state is not None:
            coordinator.set_thread_member(members[index])
        try:
            with _trace.mission_scope(label, group):
                results[index] = run_workload(
                    mission.workload,
                    cores=mission.cores,
                    frequency_ghz=mission.frequency_ghz,
                    seed=mission.seed,
                    depth_noise_std=mission.depth_noise_std,
                    workload_kwargs=mission.workload_kwargs,
                    **(mission.sim_kwargs or {}),
                )
        except BaseException as exc:
            errors[index] = exc
        finally:
            fleet_hook.set_adopter(None)
            coordinator.retire()

    threads = [
        threading.Thread(
            target=_fly, args=(i, m, labels[i]), name=f"fleet-{i}"
        )
        for i, m in enumerate(missions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if shared_state is not None and len(missions) >= 2:
        # Airspace extras only make sense with someone to share the sky
        # with — a fleet of one stays byte-identical to sequential.
        for i, result in enumerate(results):
            if result is None:
                continue
            record = shared_state.metrics.get(members[i])
            if record is None:
                continue
            extra = result.report.extra
            if math.isfinite(record["min_separation_m"]):
                extra["fleet_min_separation_m"] = record["min_separation_m"]
            extra["fleet_near_misses"] = record["near_misses"]
            extra["fleet_conflict_holds"] = record["conflict_holds"]
    return results, errors
