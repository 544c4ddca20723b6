"""Dynamic quota-constrained rationing: solvers and verification tooling.

The package splits into the problem domain (:mod:`rationd.model`), an exact
integer min-cost-flow engine (:mod:`rationd.flow`), offline solvers built on
it (:mod:`rationd.offline`), the day-by-day online allocator
(:mod:`rationd.online`), verification and metrics (:mod:`rationd.analysis`),
file formats plus the synthetic generator (:mod:`rationd.data`), and a CLI
(:mod:`rationd.cli`).
"""

from .model import (
    Agent,
    Allocation,
    Category,
    Instance,
    MalformedInstance,
    ModelMismatch,
    TieBreakOrder,
    ValidationReport,
    Violation,
    check_allocation,
    total_utility,
    utility_of,
    overall_quotas,
    validate_instance,
)
from .flow import Arc, FlowNetwork, FlowResult, NegativeCycleError, solve_profitable_flow
from .offline import (
    OracleBudgetExceeded,
    ReductionMap,
    build_model1_network,
    solve_exact_oracle,
    solve_offline_model1,
    solve_offline_tiebroken,
)
from .online import (
    DayGraph,
    DayTrace,
    build_day_graph,
    max_weight_capped_bmatching,
    run_online,
    run_online_with_trace,
)
from .analysis import (
    Charge,
    ChargingReport,
    DeviationReport,
    MetricsSeries,
    RatioCheck,
    availability_deviation_report,
    build_charging_report,
    compute_metrics,
    max_matching_size,
    model1_bound,
    model2_bound,
    ratio_check,
    wasted_slots,
)
from .data import (
    DataFormatError,
    GeneratorConfig,
    GroupSpec,
    SupplyModel,
    generate,
    load_fixture,
    read_allocation,
    read_instance,
    write_allocation,
    write_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Allocation",
    "Arc",
    "Category",
    "Charge",
    "ChargingReport",
    "DataFormatError",
    "DayGraph",
    "DayTrace",
    "DeviationReport",
    "FlowNetwork",
    "FlowResult",
    "GeneratorConfig",
    "GroupSpec",
    "Instance",
    "MalformedInstance",
    "MetricsSeries",
    "ModelMismatch",
    "NegativeCycleError",
    "OracleBudgetExceeded",
    "RatioCheck",
    "ReductionMap",
    "SupplyModel",
    "TieBreakOrder",
    "ValidationReport",
    "Violation",
    "availability_deviation_report",
    "build_charging_report",
    "build_day_graph",
    "build_model1_network",
    "check_allocation",
    "compute_metrics",
    "generate",
    "load_fixture",
    "max_matching_size",
    "max_weight_capped_bmatching",
    "model1_bound",
    "model2_bound",
    "overall_quotas",
    "ratio_check",
    "read_allocation",
    "read_instance",
    "run_online",
    "run_online_with_trace",
    "solve_exact_oracle",
    "solve_offline_model1",
    "solve_offline_tiebroken",
    "solve_profitable_flow",
    "total_utility",
    "utility_of",
    "validate_instance",
    "wasted_slots",
    "write_allocation",
    "write_instance",
]
