from collections import namedtuple

import pytest

from least_sim import Network
from least_sim.protocols import check_message

from tree_reference import parent_map


Message = namedtuple("Message", "kind sender tx_distance packets receiver")


def checked(messages):
    """Setup's plain message records, each passed through ``check_message``
    (the check ``apply_messages`` makes) and given field names."""
    out = [Message(*m) for m in messages]
    for m in out:
        check_message(m.kind, m.tx_distance, m.packets)
    return out


def tx_cost(d, packets, params):
    """Energy to transmit ``packets`` over distance ``d``: the per-message price
    that ``apply_messages`` and the steady phase compute inline."""
    if d < 0:
        raise ValueError(f"negative distance: {d}")
    if packets < 0:
        raise ValueError(f"negative packet count: {packets}")
    return params.epsilon_amp * d * d * packets


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
