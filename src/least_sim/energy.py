"""Transmission pricing: epsilon * d^2 per packet, charged until nodes die."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BS_ID, Network


class DeadNodeError(RuntimeError):
    """Charging a dead node is a protocol bug, not a recoverable condition."""


@dataclass(frozen=True)
class EnergyParams:
    """Radio cost model: amplifier constant plus an optional reception cost.

    Reception pricing defaults to zero; the analysis this tool reproduces
    prices transmissions only.
    """

    epsilon_amp: float = 50e-9  # J per packet per m^2
    rx_cost: float = 0.0        # J per received packet

    def __post_init__(self):
        if self.epsilon_amp < 0 or self.rx_cost < 0:
            raise ValueError("energy coefficients must be >= 0")
        if not (math.isfinite(self.epsilon_amp) and math.isfinite(self.rx_cost)):
            raise ValueError("energy coefficients must be finite")


class EnergyLedger:
    """Cumulative spend, split into setup and steady energy, per round and in all.

    The ledger only observes charges; conservation (initial total minus
    current total equals the ledger total) is an invariant the tests check.
    """

    def __init__(self):
        self.bucket = "setup"
        self.round_setup = 0.0
        self.round_steady = 0.0
        self.setup_total = 0.0
        self.steady_total = 0.0

    def start_round(self):
        self.round_setup = 0.0
        self.round_steady = 0.0
        self.bucket = "setup"

    def record(self, node_id: int, amount: float):
        if self.bucket == "setup":
            self.round_setup += amount
            self.setup_total += amount
        else:
            self.round_steady += amount
            self.steady_total += amount

    def total(self) -> float:
        return self.setup_total + self.steady_total


def tx_cost(d: float, packets: int, params: EnergyParams) -> float:
    """Energy to transmit ``packets`` over distance ``d``."""
    if d < 0:
        raise ValueError(f"negative distance: {d}")
    if packets < 0:
        raise ValueError(f"negative packet count: {packets}")
    return params.epsilon_amp * d * d * packets


def charge(net: Network, node_id: int, amount: float,
           ledger: EnergyLedger | None = None) -> float:
    """Deduct up to ``amount`` from a node, killing it at zero.

    Returns what was actually spent (clamped at the remaining energy); a
    return value below ``amount`` means the node died mid-transmission.
    """
    node = net.node(node_id)
    if not node.alive:
        raise DeadNodeError(f"node {node_id} is dead")
    if amount < 0:
        raise ValueError(f"negative charge: {amount}")
    spent = amount if amount <= node.energy else node.energy
    node.energy -= spent
    if node.energy == 0.0:
        node.alive = False
        net.mark_dead(node_id)
    if ledger is not None and spent:
        ledger.record(node_id, spent)
    return spent


def apply_messages(net: Network, messages, params: EnergyParams,
                   ledger: EnergyLedger | None = None) -> None:
    """Charge a message log: senders pay epsilon * d^2 * packets.

    Base-station sends are free (it is mains powered). A message whose sender
    already died earlier in the log is skipped: it was never transmitted.
    When reception pricing is on, the addressee pays rx_cost per packet, and
    broadcasts (receiver None) charge every alive sensor within tx_distance.
    """
    eps, rx_cost = params.epsilon_amp, params.rx_cost
    nodes = net.nodes
    for _, sender, d, packets, receiver in messages:
        if sender != BS_ID:
            if not nodes[sender].alive:
                continue
            charge(net, sender, eps * d * d * packets, ledger)
        if rx_cost > 0.0 and packets > 0:
            rx = rx_cost * packets
            if receiver is not None:
                if receiver != BS_ID and net.node(receiver).alive:
                    charge(net, receiver, rx, ledger)
            else:
                for nid in net.alive_ids():
                    # only nid itself can die charging nid, so every nid is alive
                    if nid != sender and net.dist(sender, nid) <= d:
                        charge(net, nid, rx, ledger)
