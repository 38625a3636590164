"""Capacity analysis and discrete-time simulation for expert request queues."""

from .analysis import (
    DriftReport,
    StabilityVerdict,
    SweepResult,
    analytic_boundary,
    capacity_boundary_sweep,
    classify_stability,
    drift_check,
    misestimation_check,
    policy_load,
    verify,
    with_load,
)
from .capacity import (
    CapacityResult,
    LossPolicy,
    RoutingPolicy,
    degraded_capacity,
    loss_capacity,
    max_min_load,
    multi_capacity_dual,
    routing_lp,
    routing_policy_violations,
    single_capacity,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .model import (
    ArrivalSpec,
    ExpertProfile,
    Instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    merged_pmf,
    save_instance,
)
from .rng import RngStreams
from .sched import (
    Scheduler,
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from .sim import (
    QueueState,
    SimConfig,
    SlotEvents,
    TraceStats,
    geometric_service_check,
    run,
    steps,
    write_trace_csv,
)

__version__ = "0.1.0"
