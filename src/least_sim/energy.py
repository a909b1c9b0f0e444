"""Transmission pricing: epsilon * d^2 per packet, charged until nodes die."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BS_ID, Network
from .protocols import check_message


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


def apply_messages(net: Network, messages, params: EnergyParams,
                   tally: EnergyTally | None = None) -> None:
    """Charge a message log: senders pay epsilon * d^2 * packets.

    Each ``(kind, sender, tx_distance, packets, receiver)`` record must pass
    ``check_message`` and name sensors 1..n or the base station (0), or None
    as a broadcast's receiver; a bad record raises after those before it are
    charged. Payers are charged in log order and clamped: a node keeps
    ``energy - amount`` while the amount is smaller, and otherwise spends
    what it had left and dies. Base-station sends are free (it is mains
    powered). A message whose sender already died earlier in the log is
    skipped: it was never transmitted. When reception pricing is on, the
    addressee pays rx_cost per packet, and a broadcast (receiver None)
    charges every other alive sensor within tx_distance.
    """
    tally, n = EnergyTally() if tally is None else tally, net.n
    for record in messages:
        kind, sender, d, packets, receiver = record
        check_message(kind, d, packets)
        if receiver is not None and not 0 <= receiver <= n:
            raise KeyError(f"unknown sensor id: {receiver}")
        if not 0 <= sender <= n:
            raise KeyError(f"unknown sensor id: {sender}")
        _charge_log(net, (record,), params, tally)


def _charge_log(net: Network, messages, params: EnergyParams, tally: EnergyTally) -> None:
    """``apply_messages`` without its checks, for a log valid by construction.
    Each spend is added to the tally's sums as it is charged, in charge order
    (float sums depend on their order), and they reach ``tally`` on an error too."""
    eps, rx_cost = params.epsilon_amp, params.rx_cost
    pay_rx = rx_cost > 0.0
    energy, mark_dead, rows = net.energy, net.mark_dead, net.rows
    part, whole = tally.round, tally.total
    try:
        for _, sender, d, packets, receiver in messages:
            if sender != BS_ID:
                left = energy[sender]
                if not left > 0.0:
                    continue
                amount = eps * d * d * packets
                if amount < left:
                    energy[sender] = left - amount
                    part, whole = part + amount, whole + amount
                else:  # dies transmitting: spends what it had left
                    energy[sender] = 0.0
                    mark_dead(sender)
                    part, whole = part + left, whole + left
            if pay_rx and packets > 0:
                if receiver is None:  # listed first: only paying kills a payer
                    row = rows[sender]
                    payers = [i for i in net.alive_ids() if i != sender and row[i] <= d]
                else:
                    payers = (receiver,) if receiver != BS_ID and energy[receiver] > 0 else ()
                amount = rx_cost * packets
                for nid in payers:
                    left = energy[nid]
                    if amount < left:
                        energy[nid] = left - amount
                        part, whole = part + amount, whole + amount
                    else:  # dies receiving: spends what it had left
                        energy[nid] = 0.0
                        mark_dead(nid)
                        part, whole = part + left, whole + left
    finally:
        tally.round, tally.total = part, whole
