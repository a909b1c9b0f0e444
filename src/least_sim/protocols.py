"""Setup-phase logic for both routing protocols.

Draw-order contract (what makes traces replayable): every election iterates
its candidates in ascending node id and consumes one Bernoulli draw per
rotation-eligible candidate; an election with zero winners repeats with fresh
draws up to 100 times and then falls back to a single uniform pick; heir
election draws one Bernoulli per child (ascending) and one uniform pick only
when no child won. Nearest-parent choices, relocation and dead-node repair
consume no draws.

Message pricing is delegated to the energy module; this module only records
what was sent, by whom, and over which distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .core import BS_ID, Network, RandomStream, uniform_choice
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


class ControlMessage(tuple):
    """One setup-phase transmission: ``(kind, sender, tx_distance, packets, receiver)``.

    ``receiver`` is the addressee for point-to-point messages and None for
    broadcasts (whose reach is ``tx_distance``). The energy model charges the
    sender epsilon * d^2 per packet; base-station sends are free.
    """

    __slots__ = ()

    def __new__(cls, kind, sender, tx_distance, packets=1, receiver=None):
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind: {kind}")
        if tx_distance < 0:
            raise ValueError(f"negative tx_distance: {tx_distance}")
        if packets < 0:
            raise ValueError(f"negative packet count: {packets}")
        return tuple.__new__(cls, (kind, sender, tx_distance, packets, receiver))

    kind, sender, tx_distance, packets, receiver = (property(itemgetter(i)) for i in range(5))


@dataclass
class SetupOutcome:
    """Result of one setup phase: the map plus everything sent to build it."""

    tree: RoutingTree
    messages: list[ControlMessage] = field(default_factory=list)
    host_nodes: set[int] = field(default_factory=set)
    heirs: dict[int, list[int]] = field(default_factory=dict)


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


def rotation_eligible(ids: list[int], last_rounds: list[int | None], round_no: int,
                      window: int) -> list[int]:
    """The ids, in order, that have not held a role within its rotation window.

    ``last_rounds[k]`` is the last round ``ids[k]`` held the role, None if
    never. A node serving in round r stays ineligible for rounds
    r+1 .. r+window.
    """
    return [i for i, last in zip(ids, last_rounds) if last is None or round_no - last > window]


def _run_election(stream: RandomStream, eligible: list[int], threshold: float,
                  fallback_pool: list[int]) -> list[int]:
    """One self-election: Bernoulli per eligible id (ascending), repeated on
    zero winners, then a uniform fallback so setup can never loop forever."""
    rand = stream.random  # one Bernoulli draw per eligible candidate
    for _ in range(_MAX_ELECTION_ATTEMPTS):
        winners = [i for i in eligible if rand() < threshold]
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
    nodes = net.nodes
    last = [nodes[i].last_ch_round for i in alive]
    eligible = rotation_eligible(alive, last, round_no, window)
    threshold = election_threshold(params.p_ch, round_no, window)
    heads = _run_election(stream, eligible, threshold, eligible if eligible else alive)
    head_set = set(heads)
    for h in heads:
        net.node(h).last_ch_round = round_no

    tree = RoutingTree()
    messages = []
    heads_sorted = sorted(head_set)
    for h in heads_sorted:
        tree.attach(h, BS_ID)
        messages.append(ControlMessage(CH_ANNOUNCE, h, net.farthest_alive_distance(h)))
    members = [m for m in alive if m not in head_set]
    for member, (target, d) in zip(members, net.nearest(heads_sorted, members)):
        tree.attach(member, target)
        messages.append(ControlMessage(JOIN_REQUEST, member, d, receiver=target))
    return SetupOutcome(tree, messages)


def elect_host_nodes(net: Network, tree: RoutingTree, params: ProtocolParams,
                     round_no: int, stream: RandomStream):
    """Self-elect relocation targets among alive, non-first-level sensors.

    Returns (sorted host ids, messages). Raises ProtocolStallError when no
    rotation-eligible candidate exists at all, which the simulator treats as
    "keep this round's map unchanged".
    """
    first_level = set(tree.first_level())
    window = params.hn_rotation_window()
    nodes = net.nodes
    candidates = [i for i in net.alive_ids() if i not in first_level]
    last = [nodes[i].last_hn_round for i in candidates]
    eligible = rotation_eligible(candidates, last, round_no, window)
    if not eligible:
        raise ProtocolStallError(
            f"round {round_no}: no rotation-eligible host-node candidates"
        )
    threshold = election_threshold(params.p_hn, round_no, window)
    hosts = sorted(_run_election(stream, eligible, threshold, eligible))
    messages = []
    for h in hosts:
        net.node(h).last_hn_round = round_no
        messages.append(ControlMessage(HN_ANNOUNCE_TO_BS, h, net.dist(h, BS_ID), receiver=BS_ID))
    messages.append(ControlMessage(BS_NOTIFY_FIRST_LEVEL, BS_ID, net.farthest(BS_ID, first_level)))
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
    rand = stream.random  # one Bernoulli draw per child, ascending
    for parent in sorted(first_level):
        kids = tree.children_of(parent)
        if not kids:
            continue
        chosen = [c for c in kids if rand() < params.p_h]
        if not chosen:
            chosen = [uniform_choice(stream, kids)]
        heirs[parent] = chosen
        to_bs = net.dist(parent, BS_ID)
        sibling_packets = 1 if len(kids) > 1 else 0
        for heir in chosen:
            # an heir is 0 from itself, so its farthest kid is its farthest sibling
            messages += (
                ControlMessage(HEIR_NOTIFY_PARENT, heir, net.dist(heir, parent), receiver=parent),
                ControlMessage(HEIR_RELAY_TO_BS, parent, to_bs, receiver=BS_ID),
                ControlMessage(HEIR_ANNOUNCE_SIBLINGS, heir, net.farthest(heir, kids),
                               packets=sibling_packets),
            )
    return heirs, messages


def relocate(net: Network, tree: RoutingTree, first_level, host_nodes, heirs) -> None:
    """Demote every first-level node and promote its heirs, as one transaction.

    Computed from the map as it stood at round start, applied in an order
    that cannot close a cycle: heirs rise to the base station first, the
    remaining former children re-home under their parent's nearest heir,
    and only then does each former first-level node (now childless) join its
    nearest host node. Deeper descendants keep their parents throughout.

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
    overlap = set(hosts) & set(former)
    if overlap:
        raise ValueError(f"host nodes may not be first-level nodes: {sorted(overlap)}")

    orphans = {f: tree.detach_subtree_root(f) for f in former}
    for f in former:
        for heir in heirs.get(f, ()):
            tree.attach(heir, BS_ID)
    for f in former:
        own_heirs = heirs.get(f, [])
        movers = [c for c in orphans[f] if c not in own_heirs]
        for child, (target, _) in zip(movers, net.nearest(own_heirs, movers)):
            tree.attach(child, target)
    for f, (host, _) in zip(former, net.nearest(hosts, former)):
        tree.attach(f, host)


def least_setup(net: Network, tree: RoutingTree | None, params: ProtocolParams,
                round_no: int, stream: RandomStream) -> SetupOutcome:
    """One tree-based setup phase; round one is plain cluster-head setup.

    For later rounds the existing map is transformed in place: host-node
    election, heir election, then relocation. The message log is the
    concatenation of the election messages in execution order; relocation
    adds none.
    """
    if round_no <= 1 or tree is None:
        return leach_setup(net, params, round_no, stream)
    first_level = tree.first_level()
    hosts, host_msgs = elect_host_nodes(net, tree, params, round_no, stream)
    heirs, heir_msgs = elect_heirs(net, tree, first_level, params, stream)
    relocate(net, tree, first_level, hosts, heirs)
    return SetupOutcome(tree, host_msgs + heir_msgs, set(hosts), heirs)
