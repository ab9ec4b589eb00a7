"""Exact-rational coflow scheduling: schedulers, verifier, certificates.

Demand matrices may have arbitrary nonnegative rational entries; every
feasibility check, certificate and LP solve in this package is exact.
"""

from .certificates import (
    BoundsReport,
    DualCertificate,
    build_certificate,
    check_certificate,
    lower_bounds,
)
from .direct import (
    GreedyTrace,
    edge_coloring_schedule,
    greedy_schedule,
    smeared_fractional_schedule,
)
from .indirect import (
    auto_schedule,
    elementary_basis_schedule,
    grid_schedule,
    hypercube_schedule,
    round_robin_schedule,
    vlb_lift,
)
from .model import (
    Instance,
    Metrics,
    Schedule,
    Step,
    Transfer,
    compute_metrics,
    make_instance,
    uniform_instance,
)
from .oracle import (
    opt_direct_fractional,
    opt_receiver_bound,
    opt_sender_bound,
    solve_completion_lp,
)
from .verifier import VerificationReport, verify

__all__ = [
    "BoundsReport", "DualCertificate", "GreedyTrace",
    "Instance", "Metrics", "Schedule", "Step",
    "Transfer", "VerificationReport", "auto_schedule", "build_certificate",
    "check_certificate", "compute_metrics",
    "edge_coloring_schedule", "elementary_basis_schedule", "greedy_schedule",
    "grid_schedule", "hypercube_schedule", "lower_bounds", "make_instance",
    "opt_direct_fractional",
    "opt_receiver_bound", "opt_sender_bound",
    "round_robin_schedule", "smeared_fractional_schedule",
    "solve_completion_lp", "uniform_instance", "verify", "vlb_lift",
]
