"""Fleet-scale batched mission execution.

Advance N missions per NumPy call: unchanged workload code runs per
mission, but the per-tick phases (control, dynamics, sensing, energy)
execute as struct-of-arrays kernels over the whole fleet.  Bit-identical
to sequential execution by construction — see :mod:`repro.fleet.runner`.
"""

from .kernels import (
    aabb_distances,
    batched_norms,
    control_step_batch,
    control_step_scalar,
    dynamics_step_batch,
    dynamics_step_scalar,
    energy_step_batch,
    energy_step_scalar,
    flying_setpoints,
    pairwise_separations,
    pairwise_separations_scalar,
    quadrotor_step_arrays,
    resolve_conflicts,
    resolve_conflicts_scalar,
    rotor_power_arrays,
    sense_check_batch,
    sense_check_scalar,
    wrap_angles,
)
from .runner import (
    FleetCoordinator,
    FleetMission,
    fleet_gate_stats,
    run_workloads_fleet,
)
from .shared_world import (
    PeerView,
    SharedWorldPolicy,
    SharedWorldState,
    gate_conflicts,
)

__all__ = [
    "FleetMission",
    "FleetCoordinator",
    "PeerView",
    "SharedWorldPolicy",
    "SharedWorldState",
    "gate_conflicts",
    "fleet_gate_stats",
    "run_workloads_fleet",
    "batched_norms",
    "wrap_angles",
    "flying_setpoints",
    "quadrotor_step_arrays",
    "rotor_power_arrays",
    "aabb_distances",
    "control_step_batch",
    "control_step_scalar",
    "dynamics_step_batch",
    "dynamics_step_scalar",
    "energy_step_batch",
    "energy_step_scalar",
    "sense_check_batch",
    "sense_check_scalar",
    "pairwise_separations",
    "pairwise_separations_scalar",
    "resolve_conflicts",
    "resolve_conflicts_scalar",
]
