"""Per-layer self-times from wrappers installed by the benchmark.

A :class:`LayerTracer` wraps public functions of the program's layers
(class attributes and module-level functions, in every ``repro`` module
that imported them by name) for the duration of a traced flight, then
puts the originals back.  Nothing inside ``src/`` records spans.

Each thread keeps its own stack of open wrapped calls, so fleet members
stay apart: a call's *self time* is its wall time minus the wall time of
the wrapped calls nested inside it on the same thread.  Campaign worker
processes forked while the wrappers are installed inherit them; each
worker writes its totals to the run's work directory when it exits and
:meth:`LayerTracer.merge_children` folds them in.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


def _zero() -> List[float]:
    return [0, 0.0, 0, 0.0]


class _ThreadStats:
    """Totals of one thread: ``layer -> [calls, self_s, units, total_s]``
    (``total_s`` includes nested wrapped calls)."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.layers: Dict[str, List[float]] = defaultdict(_zero)
        #: host seconds between consecutive ``Simulation.step`` entries
        self.tick_gaps: List[float] = []


def _len_arg(i: int) -> Callable:
    return lambda args, result: len(args[i])


def _result_int(args, result) -> int:
    return int(result)


def _plan_failed(args, result) -> int:
    return 0 if result.success else 1


#: (layer, owner, attribute, units) — ``owner`` is ``"module:Class"`` for
#: a method or ``"module"`` for a module-level function.  ``units`` maps
#: a call's ``(args, result)`` to the layer's work count.
WRAPS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("perception.safety_filter", "repro.core.workloads.base:OccupancyPipeline",
     "safety_filter", None),
    ("perception.boxes_occupied", "repro.perception.octomap:OctoMap",
     "boxes_occupied", _len_arg(1)),
    ("perception.insert_scan", "repro.perception.octomap:OctoMap",
     "insert_scan", _result_int),
    ("perception.log_odds_many", "repro.perception.octomap:OctoMap",
     "log_odds_many", None),
    ("sensors.capture_depth", "repro.sensors.camera:RgbdCamera",
     "capture_depth", None),
    ("world.ray_cast_many", "repro.world.environment:World",
     "ray_cast_many", _len_arg(2)),
    ("planning.plan", "repro.planning.rrt:RrtPlanner", "plan", _plan_failed),
    ("planning.plan", "repro.planning.prm:PrmPlanner", "plan", _plan_failed),
    ("planning.smooth", "repro.planning.smoothing", "smooth_trajectory", None),
    ("planning.segments_free", "repro.planning.collision:CollisionChecker",
     "segments_free", _len_arg(2)),
    ("planning.ground_truth", "repro.planning.collision:GroundTruthChecker",
     "point_collides", None),
    ("control.update", "repro.dynamics.flight_controller:FlightController",
     "update", None),
    ("dynamics.step", "repro.dynamics.quadrotor:Quadrotor", "step", None),
    ("energy.draw", "repro.energy.battery:Battery", "draw", None),
    ("compute.advance_to", "repro.compute.scheduler:ComputeScheduler",
     "advance_to", None),
    ("fleet.kernels", "repro.fleet.kernels", "control_step_batch", None),
    ("fleet.kernels", "repro.fleet.kernels", "dynamics_step_batch", None),
    ("fleet.kernels", "repro.fleet.kernels", "energy_step_batch", None),
    ("fleet.kernels", "repro.fleet.kernels", "sense_check_batch", None),
    ("fleet.conflicts", "repro.fleet.shared_world", "gate_conflicts", None),
    ("fleet.gate", "repro.fleet.runner:FleetCoordinator", "step", None),
    ("scenarios.instantiate", "repro.scenarios.cache", "instantiate_scenario",
     None),
    ("campaign.store", "repro.campaign.store:CampaignStore", "add", None),
]

#: The tick counter: not a timed layer, so a tick's own bookkeeping
#: stays in the loop's self time.
TICK = ("repro.core.simulator:Simulation", "step")


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


class LayerTracer:
    """Install wrappers, collect per-thread totals, restore originals."""

    def __init__(self, child_dir: Optional[Path] = None) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadStats] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._tick_last: Dict[int, float] = {}
        self._children: List[Dict[str, Any]] = []
        self.child_dir = child_dir

    # -- per-thread state ------------------------------------------------
    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = _ThreadStats()
            self._local.stats = stats
            with self._lock:
                self._threads.append(stats)
        return stats

    def _timed(self, layer: str, units: Optional[Callable],
               fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer._stats()
            frame = _Frame()
            stats.stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                stats.stack.pop()
                if stats.stack:
                    stats.stack[-1].child += elapsed
                entry = stats.layers[layer]
                entry[0] += 1
                entry[1] += elapsed - frame.child
                entry[3] += elapsed
            if units is not None:
                entry[2] += units(args, result)
            return result

        return wrapper

    def _ticked(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            now = _clock()
            last = tracer._tick_last.get(id(sim))
            tracer._tick_last[id(sim)] = now
            stats = tracer._stats()
            if last is not None:
                stats.tick_gaps.append(now - last)
            stats.layers["core.ticks"][0] += 1
            return fn(sim, *args, **kwargs)

        return wrapper

    # -- install / remove ------------------------------------------------
    def _patch(self, owner: str, attr: str, make: Callable) -> None:
        target = _resolve(owner)
        original = target.__dict__[attr]
        wrapped = make(original)
        if isinstance(target, type):
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)
            return
        # A module-level function: rebind it wherever ``repro`` imported
        # it by name, so callers holding the name see the wrapper.
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                    module is not None
                    and module.__dict__.get(attr) is original):
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for layer, owner, attr, units in WRAPS:
                self._patch(owner, attr, functools.partial(
                    self._timed, layer, units))
            self._patch(*TICK, self._ticked)
        except BaseException:
            self.remove()
            raise
        multiprocessing.util.register_after_fork(self, LayerTracer._in_child)

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- forked campaign workers -------------------------------------------
    def _in_child(self) -> None:
        """After fork: start empty and dump totals when the worker exits."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._tick_last = {}
        self._children = []
        if self.child_dir is not None and self._patches:
            multiprocessing.util.Finalize(self, self._dump_child,
                                          exitpriority=10)

    def _dump_child(self) -> None:
        path = self.child_dir / f"layers-{os.getpid()}.json"
        path.write_text(json.dumps(self.totals()))

    def merge_children(self) -> None:
        """Fold in every worker's dump (and delete it)."""
        if self.child_dir is None:
            return
        for path in sorted(self.child_dir.glob("layers-*.json")):
            self._children.append(json.loads(path.read_text()))
            path.unlink()

    # -- results -----------------------------------------------------------
    def totals(self) -> Dict[str, Any]:
        """``{"layers": {layer: [calls, self_s, units, total_s]},
        "tick_gaps": [...]}`` summed over this process's threads and any
        merged workers."""
        layers: Dict[str, List[float]] = defaultdict(_zero)
        gaps: List[float] = []
        sources = [{"layers": dict(t.layers), "tick_gaps": t.tick_gaps}
                   for t in self._threads] + self._children
        for source in sources:
            for layer, values in source["layers"].items():
                entry = layers[layer]
                for i, value in enumerate(values):
                    entry[i] += value
            gaps.extend(source["tick_gaps"])
        return {"layers": dict(layers), "tick_gaps": gaps}
