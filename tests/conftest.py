from collections import namedtuple

import pytest
from hypothesis import strategies as st

from least_sim import EnergyParams, Network, ProtocolParams, SimConfig
from least_sim.protocols import HEIR_NOTIFY_PARENT, HN_ANNOUNCE_TO_BS, check_message
from least_sim.simulator import METRICS_HEADER, fmt_float

from tree_reference import parent_map


Message = namedtuple("Message", "kind sender tx_distance packets receiver")


def checked(messages):
    """Setup's plain message records, each passed through ``check_message``
    (the check the public ``apply_messages`` makes on each record before
    charging it) and given field names."""
    out = [Message(*m) for m in messages]
    for m in out:
        check_message(m.kind, m.tx_distance, m.packets)
    return out


def tx_cost(d, packets, params):
    """Energy to transmit ``packets`` over distance ``d``: the per-message price
    that ``energy._charge_log`` and the steady phase compute inline."""
    if d < 0:
        raise ValueError(f"negative distance: {d}")
    if packets < 0:
        raise ValueError(f"negative packet count: {packets}")
    return params.epsilon_amp * d * d * packets


class DeadNodeError(RuntimeError):
    """Charging a dead node is a protocol bug, not a recoverable condition."""


def charge(net, node_id, amount):
    """Deduct up to ``amount`` from sensor ``node_id``, killing it at zero: the
    reference clamp that ``energy._charge_log`` and the steady phase write inline.

    Returns what was actually spent (clamped at the remaining energy); a
    return value below ``amount`` means the sensor died mid-transmission.
    """
    if not 0 < node_id <= net.n:  # a bare list index would wrap -1
        raise KeyError(f"unknown sensor id: {node_id}")
    left = net.energy[node_id]
    if not left > 0:
        raise DeadNodeError(f"node {node_id} is dead")
    if amount < 0:
        raise ValueError(f"negative charge: {amount}")
    spent = amount if amount <= left else left
    net.energy[node_id] = left = left - spent
    if left == 0.0:
        net.mark_dead(node_id)
    return spent


def tally_add(tally, amounts):
    """Add each amount in turn to ``tally.round`` and ``tally.total``: the
    reference left fold that ``energy._charge_log`` and the steady phase
    write inline, in charge order (float sums depend on their order)."""
    part, whole = tally.round, tally.total
    for amount in amounts:
        part += amount
        whole += amount
    tally.round, tally.total = part, whole


def hosts_of(outcome):
    """The round's host nodes: the senders of the host announcements."""
    return {m[1] for m in outcome.messages if m[0] == HN_ANNOUNCE_TO_BS}


def heirs_of(outcome):
    """The round's heirs by the first-level node they replace, in log order:
    each heir notifies that parent once."""
    heirs = {}
    for kind, sender, _, _, receiver in outcome.messages:
        if kind == HEIR_NOTIFY_PARENT:
            heirs.setdefault(receiver, []).append(sender)
    return heirs


def to_lines(tree):
    """A tree as one ``child parent`` line per edge, ascending child id."""
    edges = parent_map(tree)
    return "\n".join(f"{c} {edges[c]}" for c in sorted(edges))


def make_net(positions, energy=1.0, bs=(50.0, 50.0)):
    """Sensors 1..n at ``positions``, each holding ``energy`` (or its own
    entry when ``energy`` is a list)."""
    energies = energy if isinstance(energy, list) else [energy] * len(positions)
    return Network(list(positions), bs, energies)


@pytest.fixture
def line10_net():
    """Ten sensors on the horizontal midline, BS at the center."""
    return make_net([(10.0 * i - 5.0, 50.0) for i in range(1, 11)])


FIVE_POSITIONS = [(10.0, 10.0), (20.0, 80.0), (80.0, 20.0), (90.0, 90.0), (55.0, 45.0)]


@pytest.fixture
def five_net():
    return make_net(FIVE_POSITIONS, energy=0.1)


@st.composite
def dying_configs(draw, max_n=10):
    """Small fields on low batteries: sensors die sending setup messages, on
    their steady-phase hops and, with reception priced, on receiving."""
    return SimConfig(
        n=draw(st.integers(1, max_n)), protocol=draw(st.sampled_from(["leach", "least"])),
        seed=draw(st.integers(0, 999)),
        area_w=draw(st.sampled_from([30.0, 100.0])), area_h=draw(st.sampled_from([30.0, 100.0])),
        initial_energy=draw(st.sampled_from([2e-5, 2e-4, 1e-3])),
        traffic_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        energy=EnergyParams(rx_cost=draw(st.sampled_from([0.0, 1e-6, 2e-5]))),
        max_rounds=80,
    )


@st.composite
def small_configs(draw):
    """Small fields run through deaths to extinction or a short cap."""
    return SimConfig(
        n=draw(st.integers(1, 40)), protocol=draw(st.sampled_from(["leach", "least"])),
        seed=draw(st.integers(0, 999)),
        area_w=draw(st.sampled_from([30.0, 100.0, 150.0])), area_h=draw(st.sampled_from([30.0, 100.0])),
        bs_pos=draw(st.sampled_from([(50.0, 50.0), (0.0, 0.0), (50.0, 175.0)])),
        initial_energy=draw(st.sampled_from([2e-4, 1e-3, 5e-3])),
        traffic_fraction=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        params=ProtocolParams(hn_window=draw(st.sampled_from([None, 0, 1, 3]))),
        energy=EnergyParams(rx_cost=draw(st.sampled_from([0.0, 1e-6, 1e-5]))),
        max_rounds=300,
    )


def reference_metrics_csv(records):
    """The metrics CSV written record by record with ``fmt_float``: the
    reference that ``metrics_csv``, which reads the columns, matches byte for byte."""
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(
            f"{r.round},{r.dead_count},{fmt_float(r.total_energy)},"
            f"{fmt_float(r.setup_energy)},{fmt_float(r.steady_energy)},"
            f"{r.first_level_width},{r.max_depth}"
        )
    return "\n".join(lines) + "\n"
