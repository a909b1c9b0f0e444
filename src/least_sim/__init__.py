"""Deterministic simulator and analysis toolkit for tree-based WSN routing."""

__version__ = "0.1.0"

from .analysis import PowerEstimate, compare_estimates, estimate_leach, estimate_least
from .core import (
    BS_ID,
    Network,
    NetworkStats,
    Point,
    RandomStream,
    network_stats,
    uniform_choice,
)
from .energy import EnergyLedger, EnergyParams, apply_messages, charge, tx_cost
from .protocols import (
    ControlMessage,
    ProtocolParams,
    ProtocolStallError,
    SetupOutcome,
    elect_heirs,
    elect_host_nodes,
    leach_setup,
    least_setup,
    relocate,
    rotation_eligible,
)
from .simulator import (
    LifetimeSummary,
    RoundMetrics,
    SimConfig,
    Simulation,
    place_nodes,
    run,
)
from .tree import RoutingTree, Violation

__all__ = [
    "BS_ID",
    "ControlMessage",
    "EnergyLedger",
    "EnergyParams",
    "LifetimeSummary",
    "Network",
    "NetworkStats",
    "Point",
    "PowerEstimate",
    "ProtocolParams",
    "ProtocolStallError",
    "RandomStream",
    "RoundMetrics",
    "RoutingTree",
    "SetupOutcome",
    "SimConfig",
    "Simulation",
    "Violation",
    "apply_messages",
    "charge",
    "compare_estimates",
    "elect_heirs",
    "elect_host_nodes",
    "estimate_leach",
    "estimate_least",
    "leach_setup",
    "least_setup",
    "network_stats",
    "place_nodes",
    "relocate",
    "rotation_eligible",
    "run",
    "tx_cost",
    "uniform_choice",
]
