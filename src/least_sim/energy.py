"""Transmission pricing: epsilon * d^2 per packet, charged until nodes die."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BS_ID, Network
from .protocols import MESSAGE_KINDS, check_message


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
        for name in ("epsilon_amp", "rx_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0: {value}")


class EnergyTally:
    """Energy spent in one phase: in the current round and in the whole run.

    A tally only observes charges; which phase a spend belongs to is which
    tally it is added to. Conservation (initial total minus current total
    equals the sum of the tallies' totals) is an invariant the tests check.
    """

    def __init__(self):
        self.round = 0.0
        self.total = 0.0

    def add(self, amounts) -> None:
        """Add each amount in turn: float sums depend on their order."""
        part, whole = self.round, self.total
        for amount in amounts:
            part += amount
            whole += amount
        self.round, self.total = part, whole


def _sensor_id(net: Network, node_id: int) -> int:
    """``node_id`` if it names a sensor (1..n); a bare list index would wrap -1."""
    if not 0 < node_id <= net.n:
        raise KeyError(f"unknown sensor id: {node_id}")
    return node_id


def charge(net: Network, node_id: int, amount: float) -> float:
    """Deduct up to ``amount`` from a sensor, killing it at zero.

    Returns what was actually spent (clamped at the remaining energy); a
    return value below ``amount`` means the sensor died mid-transmission.
    """
    left = net.energy[_sensor_id(net, node_id)]
    if not left > 0:
        raise DeadNodeError(f"node {node_id} is dead")
    if amount < 0:
        raise ValueError(f"negative charge: {amount}")
    spent = amount if amount <= left else left
    net.energy[node_id] = left = left - spent
    if left == 0.0:
        net.mark_dead(node_id)
    return spent


def apply_messages(net: Network, messages, params: EnergyParams,
                   tally: EnergyTally | None = None) -> None:
    """Charge a message log: senders pay epsilon * d^2 * packets.

    Each ``(kind, sender, tx_distance, packets, receiver)`` record must pass
    ``check_message``; senders are charged inline exactly as
    ``charge`` would, in log order. Base-station sends are free (it is mains
    powered). A message whose sender already died earlier in the log is
    skipped: it was never transmitted. When reception pricing is on, the
    addressee pays rx_cost per packet, and broadcasts (receiver None) charge
    every alive sensor within tx_distance.
    """
    eps, rx_cost, inf = params.epsilon_amp, params.rx_cost, math.inf
    pay_rx = rx_cost > 0.0
    energy, mark_dead, n = net.energy, net.mark_dead, net.n
    spent = []  # in charge order; tallied even if a later record is rejected
    pay = spent.append
    try:
        for kind, sender, d, packets, receiver in messages:
            if (kind not in MESSAGE_KINDS or not 0.0 <= d < inf
                    or type(packets) is not int or packets < 0):
                check_message(kind, d, packets)  # raises, naming what is wrong
            if sender != BS_ID:
                if not 0 < sender <= n:
                    raise KeyError(f"unknown sensor id: {sender}")
                left = energy[sender]
                if not left > 0:
                    continue
                amount = eps * d * d * packets
                if amount < left:
                    energy[sender] = left - amount
                    pay(amount)
                else:  # dies transmitting: spends what it had left
                    energy[sender] = 0.0
                    mark_dead(sender)
                    pay(left)
            if pay_rx and packets > 0:
                rx = rx_cost * packets
                if receiver is not None:
                    if receiver != BS_ID and energy[_sensor_id(net, receiver)] > 0:
                        pay(charge(net, receiver, rx))
                else:
                    for nid in net.alive_ids():
                        # only nid itself can die charging nid, so every nid is alive
                        if nid != sender and net.dist(sender, nid) <= d:
                            pay(charge(net, nid, rx))
    finally:
        if tally is not None:
            tally.add(spent)
