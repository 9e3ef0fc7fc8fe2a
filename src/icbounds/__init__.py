"""Rate-region bounds and coding simulation for the two-user interference
channel with receivers that confer over finite-capacity links."""

from .gaussian import (
    DerivedSignals,
    GaussianIC,
    GaussianSystem,
    build_system,
    derived_signals,
    full_system,
    gaussian_mi,
    psi,
)
from .outer_bound import (
    BoundParams,
    constraints_at,
    outer_region,
    region_at,
    sum_rate_bound,
)
from .regimes import (
    CorrelatedGaussianIC,
    RegimeReport,
    capacity_region_one_sided,
    capacity_region_strong,
    classify,
    sum_capacity_fwd_interference,
    sum_capacity_fwd_own,
)
from .discrete import (
    AuxJointDist,
    ConditionReport,
    DiscreteIC,
    check_condition,
    inner_region_one_sided,
    inner_region_strong,
    mi,
    outer_constraints,
)
from .regions import (
    RateConstraint,
    RateRegion,
    convex_hull,
    from_constraints,
    from_csv,
    frontier_csv,
    gap,
    includes,
)
from .sim import CellPartition, SimConfig, SimResult, simulate

__all__ = [
    "AuxJointDist", "BoundParams", "CellPartition", "ConditionReport",
    "CorrelatedGaussianIC", "DerivedSignals", "DiscreteIC", "GaussianIC",
    "GaussianSystem", "RateConstraint", "RateRegion", "RegimeReport",
    "SimConfig", "SimResult", "build_system", "capacity_region_one_sided",
    "capacity_region_strong", "check_condition", "classify", "constraints_at",
    "convex_hull", "derived_signals", "from_constraints",
    "from_csv", "frontier_csv", "full_system", "gap", "gaussian_mi",
    "includes", "inner_region_one_sided", "inner_region_strong", "mi",
    "outer_constraints", "outer_region", "psi", "region_at",
    "simulate", "sum_capacity_fwd_interference", "sum_capacity_fwd_own",
    "sum_rate_bound",
]

__version__ = "0.1.0"
