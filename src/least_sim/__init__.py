"""Deterministic simulator and analysis toolkit for tree-based WSN routing.

The package root exports names that check their input, and plain records;
the setup operations, ``RoutingTree``, ``SetupOutcome`` and ``place_nodes``
trust theirs and are imported from their own modules."""

__version__ = "0.1.0"

from .core import Network, RandomStream, network_stats
from .energy import EnergyParams, EnergyTally, apply_messages
from .protocols import ProtocolParams, ProtocolStallError
from .simulator import LifetimeSummary, RoundMetrics, SimConfig, Simulation, run

__all__ = [
    "EnergyParams",
    "EnergyTally",
    "LifetimeSummary",
    "Network",
    "ProtocolParams",
    "ProtocolStallError",
    "RandomStream",
    "RoundMetrics",
    "SimConfig",
    "Simulation",
    "apply_messages",
    "network_stats",
    "run",
]
