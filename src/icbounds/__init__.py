"""Rate-region bounds and coding simulation for the two-user interference
channel with receivers that confer over finite-capacity links."""

from .gaussian import GaussianIC, psi
from .outer_bound import outer_region, sum_rate_bound
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
    ConditionReport,
    DiscreteIC,
    check_condition,
    inner_region_one_sided,
    inner_region_strong,
)
from .regions import RateRegion, convex_hull, from_csv, frontier_csv
from .sim import CellPartition, SimConfig, SimResult, simulate

__all__ = [
    "CellPartition", "ConditionReport", "CorrelatedGaussianIC", "DiscreteIC",
    "GaussianIC", "RateRegion", "RegimeReport", "SimConfig", "SimResult",
    "capacity_region_one_sided", "capacity_region_strong", "check_condition",
    "classify", "convex_hull", "from_csv", "frontier_csv",
    "inner_region_one_sided", "inner_region_strong", "outer_region", "psi",
    "simulate", "sum_capacity_fwd_interference", "sum_capacity_fwd_own",
    "sum_rate_bound",
]

__version__ = "0.1.0"
