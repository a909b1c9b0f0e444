"""Deterministic simulator and analysis toolkit for tree-based WSN routing."""

__version__ = "0.1.0"

from .core import Network, RandomStream, network_stats
from .energy import EnergyParams, EnergyTally, apply_messages
from .protocols import (
    ProtocolParams,
    ProtocolStallError,
    SetupOutcome,
    elect_heirs,
    elect_host_nodes,
    leach_setup,
    least_setup,
    relocate,
)
from .simulator import (
    LifetimeSummary,
    RoundMetrics,
    SimConfig,
    Simulation,
    place_nodes,
    run,
)
from .tree import RoutingTree

__all__ = [
    "EnergyParams",
    "EnergyTally",
    "LifetimeSummary",
    "Network",
    "ProtocolParams",
    "ProtocolStallError",
    "RandomStream",
    "RoundMetrics",
    "RoutingTree",
    "SetupOutcome",
    "SimConfig",
    "Simulation",
    "apply_messages",
    "elect_heirs",
    "elect_host_nodes",
    "leach_setup",
    "least_setup",
    "network_stats",
    "place_nodes",
    "relocate",
    "run",
]
