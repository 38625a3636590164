"""Capacity analysis and discrete-time simulation for expert request queues.

Imported before numpy, it runs OpenBLAS on one thread unless a BLAS thread count is set.
"""

import os as _os
import sys as _sys

# OpenBLAS reads these, in this order, when it loads; no expertq work can use a second thread.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and _os.environ.keys().isdisjoint(_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    run,
    steps,
    write_trace_csv,
)

__version__ = "0.1.0"
