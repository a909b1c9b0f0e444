"""Election, heir, and relocation contracts, checked against an independent
draw-by-draw interpreter plus frozen golden traces."""

import pytest

from least_sim import (
    BS_ID,
    ControlMessage,
    ProtocolParams,
    ProtocolStallError,
    RandomStream,
    RoutingTree,
    SimConfig,
    Simulation,
    elect_heirs,
    elect_host_nodes,
    leach_setup,
    least_setup,
    relocate,
    rotation_eligible,
)
from least_sim.protocols import election_threshold

from conftest import FIVE_POSITIONS, make_net
from trace_oracle import leach_trace, least_round_trace


def msg_tuples(messages):
    return [(m.kind, m.sender, pytest.approx(m.tx_distance), m.packets) for m in messages]


# -- rotation and threshold ------------------------------------------------

def test_rotation_window_five_rounds():
    window = ProtocolParams(p_hn=0.2).hn_rotation_window()  # floor(1/0.2) = 5
    blocked = [r for r in range(11, 20) if not rotation_eligible([1], [10], r, window)]
    assert blocked == [11, 12, 13, 14, 15]  # ineligible for exactly 5 rounds
    # one call filters a whole id list, keeping its order
    assert rotation_eligible([2, 1, 3], [10, None, 4], 12, window) == [1, 3]


def test_rotation_vacuous_history():
    params = ProtocolParams()
    for window in (params.ch_rotation_window(), params.hn_rotation_window()):
        assert rotation_eligible([1], [None], 1, window) == [1]


def test_threshold_cycle():
    # p = 0.2, window 5: rises through the cycle, forced at its last slot
    assert election_threshold(0.2, 5, 5) == pytest.approx(0.2)
    assert election_threshold(0.2, 6, 5) == pytest.approx(0.25)
    assert election_threshold(0.2, 9, 5) == pytest.approx(1.0)
    assert election_threshold(1.0, 1, 1) == 1.0
    assert election_threshold(0.0, 3, 0) == 0.0


def test_window_override():
    assert ProtocolParams(p_hn=0.2).hn_rotation_window() == 5
    assert ProtocolParams(p_hn=0.2, hn_window=9).hn_rotation_window() == 9
    assert ProtocolParams(p_ch=0.3).ch_rotation_window() == 3


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(p_ch=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(p_hn=1.5)


def test_control_message_contract():
    msg = ControlMessage("join_request", 3, 12.5)
    assert (msg.kind, msg.sender, msg.tx_distance) == ("join_request", 3, 12.5)
    assert (msg.packets, msg.receiver) == (1, None)  # one packet, broadcast
    msg = ControlMessage("heir_notify_parent", 4, 2.0, packets=0, receiver=7)
    assert (msg.packets, msg.receiver) == (0, 7)
    with pytest.raises(ValueError, match="unknown message kind"):
        ControlMessage("relocate_join", 1, 1.0)
    with pytest.raises(ValueError, match="negative tx_distance"):
        ControlMessage("ch_announce", 1, -0.5)
    with pytest.raises(ValueError, match="negative packet count"):
        ControlMessage("ch_announce", 1, 1.0, packets=-1)


# -- cluster-head setup ------------------------------------------------------

def test_leach_single_node_forced():
    net = make_net([(30.0, 30.0)])
    out = leach_setup(net, ProtocolParams(p_ch=1.0), 1, RandomStream(1))
    assert out.tree.first_level() == [1]
    kinds = [m.kind for m in out.messages]
    assert kinds == ["ch_announce"]
    assert out.messages[0].tx_distance == 0.0  # no other alive sensor


def test_leach_all_heads_at_p1():
    net = make_net([(10, 10), (20, 20), (30, 30)])
    out = leach_setup(net, ProtocolParams(p_ch=1.0), 1, RandomStream(3))
    assert out.tree.first_level() == [1, 2, 3]
    assert out.tree.max_depth() == 1
    assert all(m.kind == "ch_announce" for m in out.messages)


def test_leach_no_alive_nodes():
    net = make_net([(1, 1)], energy=0.0)
    with pytest.raises(ValueError):
        leach_setup(net, ProtocolParams(), 1, RandomStream(1))


def test_leach_golden_trace_line10(line10_net):
    """Ten sensors on a line, seed 42, p_ch = 0.3: frozen reference outcome."""
    params = ProtocolParams(p_ch=0.3)
    out = leach_setup(line10_net, params, 1, RandomStream(42))
    assert sorted(out.tree.first_level()) == [2, 3, 4, 5, 7, 9]
    assert out.tree.parent_map() == {
        1: 2, 2: 0, 3: 0, 4: 0, 5: 0, 6: 5, 7: 0, 8: 7, 9: 0, 10: 9,
    }
    assert out.tree.to_lines() == (
        "1 2\n2 0\n3 0\n4 0\n5 0\n6 5\n7 0\n8 7\n9 0\n10 9"
    )
    assert msg_tuples(out.messages) == [
        ("ch_announce", 2, pytest.approx(80.0), 1),
        ("ch_announce", 3, pytest.approx(70.0), 1),
        ("ch_announce", 4, pytest.approx(60.0), 1),
        ("ch_announce", 5, pytest.approx(50.0), 1),
        ("ch_announce", 7, pytest.approx(60.0), 1),
        ("ch_announce", 9, pytest.approx(80.0), 1),
        ("join_request", 1, pytest.approx(10.0), 1),
        ("join_request", 6, pytest.approx(10.0), 1),  # tie 5 vs 7 -> smaller id
        ("join_request", 8, pytest.approx(10.0), 1),
        ("join_request", 10, pytest.approx(10.0), 1),
    ]


def test_leach_matches_oracle_on_random_fields():
    import random as stdlib_random

    rng = stdlib_random.Random(2024)
    for trial in range(25):
        n = rng.randint(2, 14)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        net = make_net(coords)
        params = ProtocolParams(p_ch=rng.choice([0.1, 0.3, 0.5]))
        seed = rng.randrange(2**32)
        got = leach_setup(net, params, 1, RandomStream(seed))
        pos = {0: (50.0, 50.0), **{i + 1: c for i, c in enumerate(coords)}}
        want_parent, want_msgs, _ = leach_trace(
            pos, list(range(1, n + 1)), {}, params, 1, RandomStream(seed)
        )
        assert got.tree.parent_map() == want_parent
        assert [(m.kind, m.sender, m.packets) for m in got.messages] == [
            (k, s, p) for k, s, _, p in want_msgs
        ]
        for impl, ref in zip(got.messages, want_msgs):
            assert impl.tx_distance == pytest.approx(ref[2], rel=1e-12)


# -- host-node election -------------------------------------------------------

def test_hosts_all_at_p1(five_net):
    tree = RoutingTree()
    tree.attach(2, 0)
    for c in (1, 3, 4, 5):
        tree.attach(c, 2)
    hosts, msgs = elect_host_nodes(five_net, tree, ProtocolParams(p_hn=1.0), 2, RandomStream(1))
    assert hosts == [1, 3, 4, 5]  # every alive non-first-level sensor
    assert [m.kind for m in msgs] == ["hn_announce_to_bs"] * 4 + ["bs_notify_first_level"]
    assert msgs[-1].sender == BS_ID


def test_hosts_stall_when_no_candidate(five_net):
    tree = RoutingTree()
    for i in range(1, 6):
        tree.attach(i, 0)  # everyone is first-level
    with pytest.raises(ProtocolStallError):
        elect_host_nodes(five_net, tree, ProtocolParams(), 2, RandomStream(1))


def test_hosts_single_eligible_forced_by_fallback(five_net):
    # tiny p_hn: the lone eligible node wins by draw or by uniform fallback
    tree = RoutingTree()
    tree.attach(2, 0)
    for c in (1, 3, 4, 5):
        tree.attach(c, 2)
    for c in (1, 3, 4):
        five_net.node(c).last_hn_round = 1  # inside the huge rotation window
    hosts, _ = elect_host_nodes(five_net, tree, ProtocolParams(p_hn=0.001), 2, RandomStream(6))
    assert hosts == [5]


def test_hosts_respect_rotation_window(five_net):
    tree = RoutingTree()
    tree.attach(2, 0)
    for c in (1, 3, 4, 5):
        tree.attach(c, 2)
    for c in (1, 3, 4):
        five_net.node(c).last_hn_round = 1  # still inside the window at round 2
    hosts, _ = elect_host_nodes(five_net, tree, ProtocolParams(p_hn=1.0), 2, RandomStream(1))
    assert hosts == [5]


def test_hn_window_override_changes_eligibility(five_net):
    tree = RoutingTree()
    tree.attach(2, 0)
    for c in (1, 3, 4, 5):
        tree.attach(c, 2)
    for c in (1, 3, 4, 5):
        five_net.node(c).last_hn_round = 1
    # default window 5 blocks everyone at round 2; a zero window blocks nobody
    with pytest.raises(ProtocolStallError):
        elect_host_nodes(five_net, tree, ProtocolParams(p_hn=1.0), 2, RandomStream(1))
    hosts, _ = elect_host_nodes(
        five_net, tree, ProtocolParams(p_hn=1.0, hn_window=0), 2, RandomStream(1)
    )
    assert hosts == [1, 3, 4, 5]


def test_host_duty_equalizes_long_run():
    """Rotation spreads host duty: every node serves, counts stay in a narrow
    band (bound frozen from reference runs of this exact experiment)."""
    from collections import Counter

    cfg = SimConfig(protocol="least", seed=1, initial_energy=1e9, max_rounds=101)
    sim = Simulation(cfg)
    counts = Counter()
    while sim.round < 101:
        sim.run_round()
        if sim.round >= 2:
            for h in sim.last_outcome.host_nodes:
                counts[h] += 1
    per_node = [counts.get(i, 0) for i in range(1, 101)]
    assert min(per_node) >= 9  # nobody starves
    assert max(per_node) - min(per_node) <= 6


# -- heir election ------------------------------------------------------------

def heir_fixture(net):
    tree = RoutingTree()
    tree.attach(2, 0)
    for c in (1, 3, 4, 5):
        tree.attach(c, 2)
    return tree


def test_heirs_exactly_one_at_ph_zero(five_net):
    tree = heir_fixture(five_net)
    heirs, _ = elect_heirs(five_net, tree, [2], ProtocolParams(p_h=0.0), RandomStream(9))
    assert list(heirs) == [2]
    assert len(heirs[2]) == 1


def test_heirs_single_child_forced():
    net = make_net([(10, 10), (20, 20)])
    tree = RoutingTree()
    tree.attach(1, 0)
    tree.attach(2, 1)
    heirs, msgs = elect_heirs(net, tree, [1], ProtocolParams(p_h=0.0), RandomStream(4))
    assert heirs == {1: [2]}
    sib = [m for m in msgs if m.kind == "heir_announce_siblings"][0]
    assert sib.packets == 0  # no siblings to notify


def test_heirs_all_children_at_p1(five_net):
    tree = heir_fixture(five_net)
    heirs, msgs = elect_heirs(five_net, tree, [2], ProtocolParams(p_h=1.0), RandomStream(9))
    assert heirs == {2: [1, 3, 4, 5]}
    assert sum(1 for m in msgs if m.kind == "heir_relay_to_bs") == 4
    assert all(m.sender == 2 for m in msgs if m.kind == "heir_relay_to_bs")


def test_heirs_childless_first_level_skipped(five_net):
    tree = RoutingTree()
    tree.attach(1, 0)
    tree.attach(2, 0)
    for c in (3, 4, 5):
        tree.attach(c, 2)
    heirs, _ = elect_heirs(five_net, tree, [1, 2], ProtocolParams(p_h=0.0), RandomStream(2))
    assert 1 not in heirs and 2 in heirs


# -- relocation ----------------------------------------------------------------

def test_relocate_smallest_instance():
    # first-level v=1 with single child c=2 (forced heir); host h=3 elsewhere
    net = make_net([(40, 50), (45, 50), (70, 50)])
    tree = RoutingTree()
    tree.attach(1, 0)
    tree.attach(2, 1)
    tree.attach(3, 1)
    # moves are silent: relocation returns no message log to charge
    assert relocate(net, tree, [1], [3], {1: [2]}) is None
    assert tree.parent_of(2) == 0
    assert tree.parent_of(1) == 3
    assert tree.validate([1, 2, 3]) is None


def test_relocate_host_inside_own_cluster():
    """Host h is a child of first-level v, heir is sibling e: the ordering
    e->BS, h->e, v->h must produce a valid three-deep chain."""
    net = make_net([(30, 50), (35, 50), (36, 50)])  # v=1, e=2, h=3
    tree = RoutingTree()
    tree.attach(1, 0)
    tree.attach(2, 1)
    tree.attach(3, 1)
    relocate(net, tree, [1], [3], {1: [2]})
    assert tree.parent_of(2) == 0
    assert tree.parent_of(3) == 2
    assert tree.parent_of(1) == 3
    assert tree.level(1) == 3
    assert tree.validate([1, 2, 3]) is None


def test_relocate_shared_nearest_host():
    # two first-level nodes pick the same host independently
    net = make_net([(20, 50), (80, 50), (50, 52), (50, 48), (50, 60)])
    tree = RoutingTree()
    tree.attach(1, 0)
    tree.attach(2, 0)
    tree.attach(3, 1)
    tree.attach(4, 2)
    tree.attach(5, 1)
    relocate(net, tree, [1, 2], [5], {1: [3], 2: [4]})
    assert tree.parent_of(1) == 5 and tree.parent_of(2) == 5
    assert tree.validate([1, 2, 3, 4, 5]) is None


def test_relocate_rejects_host_overlap(five_net):
    tree = heir_fixture(five_net)
    with pytest.raises(ValueError):
        relocate(five_net, tree, [2], [2], {2: [1]})


# -- composed tree setup ---------------------------------------------------------

def test_least_round_one_equals_leach(five_net):
    params = ProtocolParams()
    a = least_setup(five_net, None, params, 1, RandomStream(7))
    b = leach_setup(make_net(FIVE_POSITIONS, energy=0.1), params, 1, RandomStream(7))
    assert a.tree.parent_map() == b.tree.parent_map()
    assert msg_tuples(a.messages) == msg_tuples(b.messages)
    assert a.host_nodes == set() and a.heirs == {}


def test_least_round_two_golden_trace(five_net):
    """Frozen two-round reference: seed 7, default parameters."""
    params = ProtocolParams()
    stream = RandomStream(7)
    out1 = least_setup(five_net, None, params, 1, stream)
    assert out1.tree.parent_map() == {1: 2, 2: 0, 3: 2, 4: 2, 5: 2}

    out2 = least_setup(five_net, out1.tree, params, 2, stream)
    assert sorted(out2.host_nodes) == [1, 4, 5]
    assert out2.heirs == {2: [1]}
    assert out2.tree.parent_map() == {1: 0, 2: 5, 3: 1, 4: 1, 5: 1}
    assert out2.tree.level(2) == 3
    assert msg_tuples(out2.messages) == [
        ("hn_announce_to_bs", 1, pytest.approx(56.568542, abs=1e-6), 1),
        ("hn_announce_to_bs", 4, pytest.approx(56.568542, abs=1e-6), 1),
        ("hn_announce_to_bs", 5, pytest.approx(7.071068, abs=1e-6), 1),
        ("bs_notify_first_level", 0, pytest.approx(42.426407, abs=1e-6), 1),
        ("heir_notify_parent", 1, pytest.approx(70.710678, abs=1e-6), 1),
        ("heir_relay_to_bs", 2, pytest.approx(42.426407, abs=1e-6), 1),
        ("heir_announce_siblings", 1, pytest.approx(113.137085, abs=1e-6), 1),
    ]


def test_least_matches_oracle_on_random_instances():
    """Implementation vs. independent interpreter over random two-round runs."""
    import random as stdlib_random

    rng = stdlib_random.Random(77)
    for trial in range(25):
        n = rng.randint(3, 12)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        net = make_net(coords)
        params = ProtocolParams(p_ch=0.3, p_hn=rng.choice([0.2, 0.5]), p_h=rng.choice([0.0, 0.2]))
        seed = rng.randrange(2**32)
        stream = RandomStream(seed)
        out1 = least_setup(net, None, params, 1, stream)
        out2 = least_setup(net, out1.tree, params, 2, stream)

        pos = {0: (50.0, 50.0), **{i + 1: c for i, c in enumerate(coords)}}
        ref = RandomStream(seed)
        want1, _, _ = leach_trace(pos, list(range(1, n + 1)), {}, params, 1, ref)
        want2, want_msgs, want_hosts, want_heirs = least_round_trace(
            pos, list(range(1, n + 1)), {}, want1, params, 2, ref
        )
        assert out2.tree.parent_map() == want2
        assert sorted(out2.host_nodes) == want_hosts
        assert {k: v for k, v in out2.heirs.items()} == want_heirs
        assert [(m.kind, m.sender) for m in out2.messages] == [
            (k, s) for k, s, _, _ in want_msgs
        ]


def test_least_degenerate_composition(five_net):
    """p_hn = 1, p_h = 0: every former first-level node moves under a host."""
    params = ProtocolParams(p_hn=1.0, p_h=0.0)
    stream = RandomStream(7)
    out1 = least_setup(five_net, None, params, 1, stream)
    before = set(out1.tree.first_level())
    out2 = least_setup(five_net, out1.tree, params, 2, stream)
    for f in before:
        assert out2.tree.parent_of(f) in out2.host_nodes
        assert f not in out2.tree.first_level()


# -- protocol invariants ----------------------------------------------------------

def walk_rounds(protocol, seed, rounds, n=30, energy=1e9, p_h=0.1):
    """Yield (first-level before, outcome, live sim) per round; checks must
    run inside the loop because later rounds mutate the same tree."""
    cfg = SimConfig(
        protocol=protocol, seed=seed, n=n, initial_energy=energy,
        max_rounds=rounds, params=ProtocolParams(p_h=p_h),
    )
    sim = Simulation(cfg)
    while sim.round < rounds:
        before = set(sim.tree.first_level()) if sim.tree is not None else set()
        sim.run_round()
        yield before, sim.last_outcome, sim


def test_tree_valid_after_every_setup():
    for _, _, sim in walk_rounds("least", 5, 60):
        assert sim.tree.validate(sim.net.alive_ids()) is None


def test_heir_guarantee_and_promotion():
    for before, outcome, sim in walk_rounds("least", 11, 40):
        if not outcome.host_nodes:
            continue  # round one or a stalled round
        for f in before:
            for heir in outcome.heirs.get(f, []):
                assert sim.tree.parent_of(heir) == BS_ID


def test_first_level_turnover():
    for before, outcome, sim in walk_rounds("least", 13, 40):
        if not outcome.host_nodes:
            continue
        assert before.isdisjoint(sim.tree.first_level())


def test_hn_rotation_never_violated():
    cfg = SimConfig(protocol="least", seed=3, n=40, initial_energy=1e9, max_rounds=80)
    sim = Simulation(cfg)
    last_served = {}
    window = cfg.params.hn_rotation_window()
    while sim.round < 80:
        sim.run_round()
        for h in sim.last_outcome.host_nodes:
            if h in last_served:
                assert sim.round - last_served[h] > window
            last_served[h] = sim.round


def test_minimum_first_level_width_at_ph_zero():
    # every first-level node with children contributes exactly one heir;
    # childless ones (heads nobody joined) contribute nothing
    for before, outcome, sim in walk_rounds("least", 21, 40, p_h=0.0):
        if not outcome.host_nodes:
            continue
        assert all(len(v) == 1 for v in outcome.heirs.values())
        assert len(sim.tree.first_level()) >= len(outcome.heirs)
        assert set(outcome.heirs) <= before


def test_setup_outcome_deterministic():
    def trail(seed):
        rows = []
        for _, out, sim in walk_rounds("least", seed, 12):
            rows.append(
                (
                    tuple(sorted(sim.tree.parent_map().items())),
                    tuple((m.kind, m.sender, m.tx_distance, m.packets, m.receiver) for m in out.messages),
                )
            )
        return rows

    assert trail(99) == trail(99)


def test_relocation_cycle_freedom_random_instances():
    """Randomized small fields never produce a parent cycle during relocation."""
    import random as stdlib_random

    rng = stdlib_random.Random(5150)
    for trial in range(400):
        n = rng.randint(3, 10)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        net = make_net(coords)
        params = ProtocolParams(p_ch=0.4, p_hn=0.5, p_h=0.3)
        stream = RandomStream(rng.randrange(2**32))
        out = least_setup(net, None, params, 1, stream)
        tree = out.tree
        for round_no in (2, 3, 4):
            try:
                out = least_setup(net, tree, params, round_no, stream)
            except ProtocolStallError:
                continue
            tree = out.tree
            assert tree.validate(net.alive_ids()) is None
