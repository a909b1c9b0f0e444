"""Setup-phase logic for both routing protocols.

Draw-order contract (what makes traces replayable): every election iterates
its candidates in ascending node id and consumes one Bernoulli draw per
rotation-eligible candidate; an election with zero winners repeats with fresh
draws up to 100 times and then falls back to a single uniform pick; heir
election draws one Bernoulli per child (ascending) and one uniform pick only
when no child won. Nearest-parent choices, relocation and dead-node repair
consume no draws.

Message pricing is delegated to the energy module; this module only records
what was sent, by whom, and over which distance, as plain
``(kind, sender, tx_distance, packets, receiver)`` tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import BS_ID, Network, RandomStream, bernoulli_bound, uniform_choice
from .tree import RoutingTree

CH_ANNOUNCE = "ch_announce"
JOIN_REQUEST = "join_request"
HN_ANNOUNCE_TO_BS = "hn_announce_to_bs"
BS_NOTIFY_FIRST_LEVEL = "bs_notify_first_level"
HEIR_NOTIFY_PARENT = "heir_notify_parent"
HEIR_RELAY_TO_BS = "heir_relay_to_bs"
HEIR_ANNOUNCE_SIBLINGS = "heir_announce_siblings"

MESSAGE_KINDS = frozenset(
    {
        CH_ANNOUNCE,
        JOIN_REQUEST,
        HN_ANNOUNCE_TO_BS,
        BS_NOTIFY_FIRST_LEVEL,
        HEIR_NOTIFY_PARENT,
        HEIR_RELAY_TO_BS,
        HEIR_ANNOUNCE_SIBLINGS,
    }
)

_MAX_ELECTION_ATTEMPTS = 100


class ProtocolStallError(RuntimeError):
    """No rotation-eligible host-node candidate exists this round."""


@dataclass(frozen=True)
class ProtocolParams:
    """Election probabilities; ``hn_window`` overrides the host-node rotation window."""

    p_ch: float = 0.1
    p_hn: float = 0.2
    p_h: float = 0.1
    hn_window: int | None = None

    def __post_init__(self):
        for name in ("p_ch", "p_hn", "p_h"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {v}")
        if self.p_ch == 0.0:
            raise ValueError("p_ch must be positive")
        if self.hn_window is not None and (not isinstance(self.hn_window, int)
                                           or isinstance(self.hn_window, bool)):
            raise ValueError(f"hn_window must be an integer or None: {self.hn_window!r}")
        if self.hn_window is not None and self.hn_window < 0:
            raise ValueError(f"hn_window must be >= 0: {self.hn_window}")

    def ch_rotation_window(self) -> int:
        return _default_window(self.p_ch)

    def hn_rotation_window(self) -> int:
        if self.hn_window is not None:
            return self.hn_window
        return _default_window(self.p_hn)


def _default_window(p: float) -> int:
    # p == 0 never elects, so rotation is moot; a zero window disables it.
    return int(1.0 / p) if p > 0.0 else 0


def check_message(kind, tx_distance, packets) -> None:
    """Reject an unknown kind, a negative or non-finite distance, or a packet
    count that is not a non-negative ``int`` (a bool, a float and NaN included)."""
    if kind not in MESSAGE_KINDS:
        raise ValueError(f"unknown message kind: {kind}")
    if tx_distance < 0:
        raise ValueError(f"negative tx_distance: {tx_distance}")
    if not math.isfinite(tx_distance):
        raise ValueError(f"non-finite tx_distance: {tx_distance}")
    if type(packets) is not int:
        raise ValueError(f"packets must be an int: {packets!r}")
    if packets < 0:
        raise ValueError(f"negative packet count: {packets}")


@dataclass
class SetupOutcome:
    """Result of one setup phase: the map plus everything sent to build it,
    as plain ``(kind, sender, tx_distance, packets, receiver)`` tuples.

    The log is the record of the round's roles: the host nodes are the
    senders of ``HN_ANNOUNCE_TO_BS``, and each heir sends one
    ``HEIR_NOTIFY_PARENT`` to the first-level node it replaces."""

    tree: RoutingTree
    messages: list[tuple] = field(default_factory=list)


def election_threshold(p: float, round_no: int, window: int) -> float:
    """Self-election probability for an eligible node in the given round.

    Rises through each rotation cycle so that, when 1/p is an integer, the
    last round of the cycle forces every still-eligible node to elect itself.
    """
    if p <= 0.0:
        return 0.0
    if window <= 0:
        return p
    denom = 1.0 - p * (round_no % window)
    if denom <= 0.0:  # only reachable with an overridden, oversized window
        return 1.0
    return min(p / denom, 1.0)


def rotation_eligible(ids: list[int], last: list[int | None], round_no: int,
                      window: int) -> list[int]:
    """The ids, in order, that have not held a role within its rotation window.

    ``last[i]`` is the last round sensor ``i`` held the role, None if never
    (``net.last_ch`` or ``net.last_hn``). A node serving in round r stays
    ineligible for rounds r+1 .. r+window.
    """
    return [i for i in ids if last[i] is None or round_no - last[i] > window]


def _run_election(stream: RandomStream, eligible: list[int], threshold: float,
                  fallback_pool: list[int]) -> list[int]:
    """One self-election: Bernoulli per eligible id (ascending), repeated on
    zero winners, then a uniform fallback so setup can never loop forever."""
    draw, bound = stream.next_u64, bernoulli_bound(threshold)  # one draw per eligible candidate
    for _ in range(_MAX_ELECTION_ATTEMPTS if eligible else 0):  # no candidate, no draw
        winners = [i for i in eligible if draw() < bound]
        if winners:
            return winners
    return [uniform_choice(stream, fallback_pool)]


def leach_setup(net: Network, params: ProtocolParams, round_no: int,
                stream: RandomStream) -> SetupOutcome:
    """Cluster-head election plus nearest-head joins; builds a fresh two-hop map.

    Each cluster head announces itself at the distance of the farthest alive
    sensor; every other node joins its nearest head. If rotation has exhausted
    the eligible pool entirely, one node is drafted uniformly from all alive
    sensors rather than deadlocking the round.
    """
    alive = net.alive_ids()
    if not alive:
        raise ValueError("no alive sensors")
    window = params.ch_rotation_window()
    last_ch = net.last_ch
    eligible = rotation_eligible(alive, last_ch, round_no, window)
    threshold = election_threshold(params.p_ch, round_no, window)
    heads = _run_election(stream, eligible, threshold, eligible if eligible else alive)
    for h in heads:
        last_ch[h] = round_no

    parent: list[int | None] = [None] * (net.n + 1)
    for h in heads:
        parent[h] = BS_ID
    far = net.farthest_alive_distance
    messages = [(CH_ANNOUNCE, h, far(h), 1, None) for h in heads]
    members = [m for m in alive if parent[m] is None]
    for m, (target, d) in zip(members, net.nearest(heads, members)):
        parent[m] = target
        messages.append((JOIN_REQUEST, m, d, 1, target))
    return SetupOutcome(RoutingTree(parent), messages)


def elect_host_nodes(net: Network, tree: RoutingTree, params: ProtocolParams,
                     round_no: int, stream: RandomStream):
    """Self-elect relocation targets among alive, non-first-level sensors.

    Returns (sorted host ids, messages). Raises ProtocolStallError when no
    rotation-eligible candidate exists at all, which the simulator treats as
    "keep this round's map unchanged".
    """
    parent = tree.parent
    window = params.hn_rotation_window()
    last_hn = net.last_hn
    candidates = [i for i in net.alive_ids() if parent[i] != BS_ID]
    eligible = rotation_eligible(candidates, last_hn, round_no, window)
    if not eligible:
        raise ProtocolStallError(
            f"round {round_no}: no rotation-eligible host-node candidates"
        )
    threshold = election_threshold(params.p_hn, round_no, window)
    hosts = _run_election(stream, eligible, threshold, eligible)  # ascending
    for h in hosts:
        last_hn[h] = round_no
    rows = net.table[1]  # the distance rows, read as net.dist reads them
    messages = [(HN_ANNOUNCE_TO_BS, h, rows[h][BS_ID], 1, BS_ID) for h in hosts]
    notice = net.farthest(BS_ID, tree.children[BS_ID])
    messages.append((BS_NOTIFY_FIRST_LEVEL, BS_ID, notice, 1, None))
    return hosts, messages


def elect_heirs(net: Network, tree: RoutingTree, first_level, params: ProtocolParams,
                stream: RandomStream):
    """Choose, per first-level node, which children replace it at level one.

    Each child wins independently with probability p_h; a parent whose
    children all lost gets exactly one heir by uniform pick. Childless
    first-level nodes get no entry. Every heir notifies its parent, the
    parent relays to the base station, and the heir announces itself to its
    siblings (a zero-packet message when it has none).
    """
    heirs: dict[int, list[int]] = {}
    messages = []
    draw, bound = stream.next_u64, bernoulli_bound(params.p_h)  # one draw per child, ascending
    rows, farthest, children = net.table[1], net.farthest, tree.children
    for parent in sorted(first_level):
        kids = children[parent]
        if not kids:
            continue
        chosen = [c for c in kids if draw() < bound]
        if not chosen:
            chosen = [uniform_choice(stream, kids)]
        heirs[parent] = chosen
        to_bs = rows[parent][BS_ID]
        sibling_packets = 1 if len(kids) > 1 else 0
        for heir in chosen:
            # an heir is 0 from itself, so its farthest kid is its farthest sibling
            messages += (
                (HEIR_NOTIFY_PARENT, heir, rows[heir][parent], 1, parent),
                (HEIR_RELAY_TO_BS, parent, to_bs, 1, BS_ID),
                (HEIR_ANNOUNCE_SIBLINGS, heir, farthest(heir, kids), sibling_packets, None),
            )
    return heirs, messages


def relocate(net: Network, tree: RoutingTree, first_level, host_nodes, heirs) -> None:
    """Demote every first-level node and promote its heirs, as one transaction.

    Computed from the map as it stood at round start and written into its
    parent list, then its child lists derived again: heirs rise to the base
    station, the remaining former children re-home under their parent's
    nearest heir, and each former first-level node joins its nearest host
    node, never one of the formers. Deeper descendants keep their parents.

    Every move is silent, as in the closed-form setup estimate
    (``analysis.estimate_least``), which charges host announcements and three
    heir messages per first-level node and nothing for relocation. The base
    station's notice already tells the first-level nodes where the hosts
    are, and each heir's sibling announcement tells its siblings who their
    new parent is.
    """
    former = sorted(first_level)
    if not host_nodes:
        raise ValueError("relocation needs at least one host node")
    hosts = sorted(host_nodes)
    if not set(hosts).isdisjoint(former):
        raise ValueError("host nodes may not be first-level nodes: "
                         f"{sorted(set(hosts) & set(former))}")

    parent, children = tree.parent, tree.children
    for f in former:
        own_heirs = heirs.get(f, [])
        if len(own_heirs) == 1:  # the lone heir is every mover's nearest: no search
            for c in children[f]:
                parent[c] = own_heirs[0]
        else:
            movers = [c for c in children[f] if c not in own_heirs]
            for c, (target, _) in zip(movers, net.nearest(own_heirs, movers)):
                parent[c] = target
        for heir in own_heirs:  # last: the one-heir loop pointed the heir at itself
            parent[heir] = BS_ID
    for f, (host, _) in zip(former, net.nearest(hosts, former)):
        parent[f] = host
    tree.derive_children()


def least_setup(net: Network, tree: RoutingTree | None, params: ProtocolParams,
                round_no: int, stream: RandomStream) -> SetupOutcome:
    """One tree-based setup phase; round one is plain cluster-head setup.

    For later rounds the existing map is transformed in place: host-node
    election, heir election, then relocation, which rewrites the map's
    parent list and derives its child lists once. The message log is the
    concatenation of the election messages in execution order; relocation
    adds none.
    """
    if round_no <= 1 or tree is None:
        return leach_setup(net, params, round_no, stream)
    first_level = tree.first_level()
    hosts, host_msgs = elect_host_nodes(net, tree, params, round_no, stream)
    heirs, heir_msgs = elect_heirs(net, tree, first_level, params, stream)
    relocate(net, tree, first_level, hosts, heirs)
    return SetupOutcome(tree, host_msgs + heir_msgs)
