"""Election, heir, and relocation contracts, checked against an independent
draw-by-draw interpreter plus frozen golden traces."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import ProtocolParams, ProtocolStallError, RandomStream, SimConfig, Simulation
from least_sim.core import BS_ID, bernoulli_bound, uniform_choice
from least_sim.protocols import (
    _run_election,
    check_message,
    elect_heirs,
    elect_host_nodes,
    election_threshold,
    leach_setup,
    least_setup,
    relocate,
    rotation_eligible,
)

from conftest import FIVE_POSITIONS, checked, heirs_of, hosts_of, make_net, to_lines
from tree_reference import DictRoutingTree, level, parent_map, tree_of, validate
from trace_oracle import election, leach_trace, least_round_trace, threshold_of


def msg_tuples(messages):
    return [(m.kind, m.sender, pytest.approx(m.tx_distance), m.packets) for m in checked(messages)]


# -- rotation and threshold ------------------------------------------------

def test_rotation_window_five_rounds():
    window = ProtocolParams(p_hn=0.2).hn_rotation_window()  # floor(1/0.2) = 5
    blocked = [r for r in range(11, 20) if not rotation_eligible([1], [None, 10], r, window)]
    assert blocked == [11, 12, 13, 14, 15]  # ineligible for exactly 5 rounds
    # one call filters a whole id list, keeping its order; the history is per id
    assert rotation_eligible([2, 1, 3], [None, None, 10, 4], 12, window) == [1, 3]


def test_rotation_vacuous_history():
    params = ProtocolParams()
    for window in (params.ch_rotation_window(), params.hn_rotation_window()):
        assert rotation_eligible([1], [None, None], 1, window) == [1]


def test_threshold_cycle():
    # p = 0.2, window 5: rises through the cycle, forced at its last slot
    assert election_threshold(0.2, 5, 5) == pytest.approx(0.2)
    assert election_threshold(0.2, 6, 5) == pytest.approx(0.25)
    assert election_threshold(0.2, 9, 5) == pytest.approx(1.0)
    assert election_threshold(1.0, 1, 1) == 1.0
    assert election_threshold(0.0, 3, 0) == 0.0


@settings(max_examples=500, deadline=None)
@given(p=st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
       round_no=st.integers(0, 200), window=st.integers(0, 50))
def test_threshold_equals_oracle(p, round_no, window):
    """The formula needs no branch of its own for p = 0: it gives 0.0 there,
    and -0.0 (which ``ProtocolParams`` accepts) a bound of 0, as 0.0 does.
    Windows reach past 1/p, where the denominator falls to 0 and below."""
    got, want = election_threshold(p, round_no, window), threshold_of(p, round_no, window)
    assert got == want
    assert bernoulli_bound(got) == bernoulli_bound(want)


def test_empty_election_makes_one_draw_the_uniform_pick():
    """No eligible candidate: no Bernoulli rounds, straight to the fallback,
    which draws once and picks as ``uniform_choice`` does."""
    pool = [3, 5, 8, 13, 21]
    for seed in range(25):
        stream, one = RandomStream(seed), RandomStream(seed)
        want = uniform_choice(one, pool)
        assert _run_election(stream, [], 0.5, pool) == [want]
        assert stream._state == one._state  # exactly one draw


class ScriptedStream:
    """Hands out chosen raw values, in order, one per ``next_u64`` call."""

    def __init__(self, values):
        self.values, self.calls = values, 0

    def next_u64(self):
        self.calls += 1
        return self.values[self.calls - 1]

    def random(self):
        return (self.next_u64() >> 11) * 2.0**-53


def threshold_draws(threshold):
    """Raw draws around a threshold, found by float comparisons alone: the
    smallest draw whose float is not below it (a loss), the one below it
    (a win), and their neighbours a float step away."""
    k = int(threshold * 2**53)
    while k * 2.0**-53 < threshold:
        k += 1
    while k > 0 and (k - 1) * 2.0**-53 >= threshold:
        k -= 1
    loss = k << 11
    return [v for v in (loss - 2048, loss - 1, loss, loss + 1, loss + 2047, loss + 2048)
            if 0 <= v < 2**64]


CALL_SITE_THRESHOLDS = [5e-324, 0.1, 0.25, election_threshold(0.2, 7, 5),
                        1.0 - 2**-53, 1.0]


@pytest.mark.parametrize("threshold", CALL_SITE_THRESHOLDS)
def test_election_picks_what_the_oracle_picks_at_the_bound(threshold):
    """Raw draws at, below and above the threshold's bound win exactly when
    the interpreter's floats do, in every position of the draw order."""
    eligible = [2, 3, 5, 7, 8, 11, 13]
    edges = threshold_draws(threshold)
    for shift in range(len(edges)):
        values = [edges[(i + shift) % len(edges)] for i in range(100 * len(eligible) + 1)]
        got, want = ScriptedStream(values), ScriptedStream(values)
        assert _run_election(got, eligible, threshold, eligible) == election(
            want, eligible, threshold, eligible)
        assert got.calls == want.calls


@pytest.mark.parametrize("p_h", CALL_SITE_THRESHOLDS)
def test_heirs_pick_what_the_oracle_picks_at_the_bound(p_h):
    """Each child group spans a whole cycle of the scripted draws, so it has
    a winner and the interpreter's election draws once per child too."""
    net = make_net([(6.0 * i, 30.0 + i) for i in range(1, 16)])
    groups = {1: list(range(3, 9)), 2: list(range(9, 16))}
    tree = tree_of(net.n, [(1, 0), (2, 0), *[(c, f) for f, kids in groups.items() for c in kids]])
    edges = threshold_draws(p_h)
    for shift in range(len(edges)):
        values = [edges[(i + shift) % len(edges)] for i in range(13)]
        got, want = ScriptedStream(values), ScriptedStream(values)
        heirs, _ = elect_heirs(net, tree, [2, 1], ProtocolParams(p_h=p_h), got)
        assert heirs == {f: election(want, kids, p_h, kids) for f, kids in groups.items()}
        assert got.calls == want.calls == 13


def test_window_override():
    assert ProtocolParams(p_hn=0.2).hn_rotation_window() == 5
    assert ProtocolParams(p_hn=0.2, hn_window=9).hn_rotation_window() == 9
    assert ProtocolParams(p_ch=0.3).ch_rotation_window() == 3


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(p_ch=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(p_hn=1.5)


def test_check_message_contract():
    check_message("join_request", 12.5, 1)
    check_message("heir_notify_parent", 0.0, 0)  # a zero-packet sibling announcement
    with pytest.raises(ValueError, match="unknown message kind"):
        check_message("relocate_join", 1.0, 1)
    with pytest.raises(ValueError, match="negative tx_distance"):
        check_message("ch_announce", -0.5, 1)
    for distance in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite tx_distance"):
            check_message("ch_announce", distance, 1)
    with pytest.raises(ValueError, match="negative packet count"):
        check_message("ch_announce", 1.0, -1)
    for packets in (float("nan"), float("inf"), 1.5, 2.0, True, None):
        with pytest.raises(ValueError, match="packets must be an int"):
            check_message("ch_announce", 1.0, packets)


# -- cluster-head setup ------------------------------------------------------

def test_leach_single_node_forced():
    net = make_net([(30.0, 30.0)])
    out = leach_setup(net, ProtocolParams(p_ch=1.0), 1, RandomStream(1))
    assert out.tree.first_level() == [1]
    kinds = [m.kind for m in checked(out.messages)]
    assert kinds == ["ch_announce"]
    assert checked(out.messages)[0].tx_distance == 0.0  # no other alive sensor


def test_leach_all_heads_at_p1():
    net = make_net([(10, 10), (20, 20), (30, 30)])
    out = leach_setup(net, ProtocolParams(p_ch=1.0), 1, RandomStream(3))
    assert out.tree.first_level() == [1, 2, 3]
    assert out.tree.max_depth() == 1
    assert all(m.kind == "ch_announce" for m in checked(out.messages))


def test_leach_no_alive_nodes():
    net = make_net([(1, 1)], energy=0.0)
    with pytest.raises(ValueError):
        leach_setup(net, ProtocolParams(), 1, RandomStream(1))


def test_leach_golden_trace_line10(line10_net):
    """Ten sensors on a line, seed 42, p_ch = 0.3: frozen reference outcome."""
    params = ProtocolParams(p_ch=0.3)
    out = leach_setup(line10_net, params, 1, RandomStream(42))
    assert sorted(out.tree.first_level()) == [2, 3, 4, 5, 7, 9]
    assert parent_map(out.tree) == {
        1: 2, 2: 0, 3: 0, 4: 0, 5: 0, 6: 5, 7: 0, 8: 7, 9: 0, 10: 9,
    }
    assert to_lines(out.tree) == (
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
        assert parent_map(got.tree) == want_parent
        assert [(m.kind, m.sender, m.packets) for m in checked(got.messages)] == [
            (k, s, p) for k, s, _, p in want_msgs
        ]
        for impl, ref in zip(checked(got.messages), want_msgs):
            assert impl.tx_distance == pytest.approx(ref[2], rel=1e-12)


# -- host-node election -------------------------------------------------------

def heir_fixture(net):
    """Sensor 2 on the first level, with 1, 3, 4 and 5 below it."""
    return tree_of(net.n, [(2, 0), (1, 2), (3, 2), (4, 2), (5, 2)])


def test_hosts_all_at_p1(five_net):
    tree = heir_fixture(five_net)
    hosts, msgs = elect_host_nodes(five_net, tree, ProtocolParams(p_hn=1.0), 2, RandomStream(1))
    msgs = checked(msgs)
    assert hosts == [1, 3, 4, 5]  # every alive non-first-level sensor
    assert [m.kind for m in msgs] == ["hn_announce_to_bs"] * 4 + ["bs_notify_first_level"]
    assert msgs[-1].sender == BS_ID


def test_hosts_stall_when_no_candidate(five_net):
    tree = tree_of(five_net.n, [(i, 0) for i in range(1, 6)])  # everyone is first-level
    with pytest.raises(ProtocolStallError):
        elect_host_nodes(five_net, tree, ProtocolParams(), 2, RandomStream(1))


def test_hosts_single_eligible_forced_by_fallback(five_net):
    # tiny p_hn: the lone eligible node wins by draw or by uniform fallback
    tree = heir_fixture(five_net)
    for c in (1, 3, 4):
        five_net.last_hn[c] = 1  # inside the huge rotation window
    hosts, _ = elect_host_nodes(five_net, tree, ProtocolParams(p_hn=0.001), 2, RandomStream(6))
    assert hosts == [5]


def test_hosts_respect_rotation_window(five_net):
    tree = heir_fixture(five_net)
    for c in (1, 3, 4):
        five_net.last_hn[c] = 1  # still inside the window at round 2
    hosts, _ = elect_host_nodes(five_net, tree, ProtocolParams(p_hn=1.0), 2, RandomStream(1))
    assert hosts == [5]


def test_hn_window_override_changes_eligibility(five_net):
    tree = heir_fixture(five_net)
    for c in (1, 3, 4, 5):
        five_net.last_hn[c] = 1
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
            for h in hosts_of(sim.last_outcome):
                counts[h] += 1
    per_node = [counts.get(i, 0) for i in range(1, 101)]
    assert min(per_node) >= 9  # nobody starves
    assert max(per_node) - min(per_node) <= 6


# -- heir election ------------------------------------------------------------

def test_heirs_exactly_one_at_ph_zero(five_net):
    tree = heir_fixture(five_net)
    heirs, _ = elect_heirs(five_net, tree, [2], ProtocolParams(p_h=0.0), RandomStream(9))
    assert list(heirs) == [2]
    assert len(heirs[2]) == 1


def test_heirs_single_child_forced():
    net = make_net([(10, 10), (20, 20)])
    tree = tree_of(net.n, [(1, 0), (2, 1)])
    heirs, msgs = elect_heirs(net, tree, [1], ProtocolParams(p_h=0.0), RandomStream(4))
    msgs = checked(msgs)
    assert heirs == {1: [2]}
    sib = [m for m in msgs if m.kind == "heir_announce_siblings"][0]
    assert sib.packets == 0  # no siblings to notify


def test_heirs_all_children_at_p1(five_net):
    tree = heir_fixture(five_net)
    heirs, msgs = elect_heirs(five_net, tree, [2], ProtocolParams(p_h=1.0), RandomStream(9))
    msgs = checked(msgs)
    assert heirs == {2: [1, 3, 4, 5]}
    assert sum(1 for m in msgs if m.kind == "heir_relay_to_bs") == 4
    assert all(m.sender == 2 for m in msgs if m.kind == "heir_relay_to_bs")


def test_heirs_childless_first_level_skipped(five_net):
    tree = tree_of(five_net.n, [(1, 0), (2, 0), (3, 2), (4, 2), (5, 2)])
    heirs, _ = elect_heirs(five_net, tree, [1, 2], ProtocolParams(p_h=0.0), RandomStream(2))
    assert 1 not in heirs and 2 in heirs


# -- relocation ----------------------------------------------------------------

def test_relocate_smallest_instance():
    # first-level v=1 with single child c=2 (forced heir); host h=3 elsewhere
    net = make_net([(40, 50), (45, 50), (70, 50)])
    tree = tree_of(net.n, [(1, 0), (2, 1), (3, 1)])
    # moves are silent: relocation returns no message log to charge
    assert relocate(net, tree, [1], [3], {1: [2]}) is None
    assert tree.parent[2] == 0
    assert tree.parent[1] == 3
    assert validate(tree, [1, 2, 3]) is None


def test_relocate_host_inside_own_cluster():
    """Host h is a child of first-level v, heir is sibling e: the ordering
    e->BS, h->e, v->h must produce a valid three-deep chain."""
    net = make_net([(30, 50), (35, 50), (36, 50)])  # v=1, e=2, h=3
    tree = tree_of(net.n, [(1, 0), (2, 1), (3, 1)])
    relocate(net, tree, [1], [3], {1: [2]})
    assert tree.parent[2] == 0
    assert tree.parent[3] == 2
    assert tree.parent[1] == 3
    assert level(tree, 1) == 3
    assert validate(tree, [1, 2, 3]) is None


def test_relocate_shared_nearest_host():
    # two first-level nodes pick the same host independently
    net = make_net([(20, 50), (80, 50), (50, 52), (50, 48), (50, 60)])
    tree = tree_of(net.n, [(1, 0), (2, 0), (3, 1), (4, 2), (5, 1)])
    relocate(net, tree, [1, 2], [5], {1: [3], 2: [4]})
    assert tree.parent[1] == 5 and tree.parent[2] == 5
    assert validate(tree, [1, 2, 3, 4, 5]) is None


def test_relocate_rejects_host_overlap(five_net):
    tree = heir_fixture(five_net)
    with pytest.raises(ValueError):
        relocate(five_net, tree, [2], [2], {2: [1]})


def test_relocate_leaves_the_heir_lists_unchanged():
    # former 1 has one heir (no search), former 2 has two (nearest)
    net = make_net([(30, 50), (70, 50), (25, 40), (35, 40), (30, 30), (65, 40), (75, 40), (73, 30)])
    tree = tree_of(net.n, [(1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (6, 2), (7, 2), (8, 2)])
    heirs = {1: [4], 2: [6, 7]}
    given = copy.deepcopy(heirs)
    relocate(net, tree, [1, 2], [5, 8], heirs)
    assert heirs == given
    assert parent_map(tree) == {1: 5, 2: 8, 3: 4, 4: 0, 5: 4, 6: 0, 7: 0, 8: 7}


# -- composed tree setup ---------------------------------------------------------

def test_least_round_one_equals_leach(five_net):
    params = ProtocolParams()
    a = least_setup(five_net, None, params, 1, RandomStream(7))
    b = leach_setup(make_net(FIVE_POSITIONS, energy=0.1), params, 1, RandomStream(7))
    assert parent_map(a.tree) == parent_map(b.tree)
    assert msg_tuples(a.messages) == msg_tuples(b.messages)
    assert hosts_of(a) == set() and heirs_of(a) == {}


def test_least_round_two_golden_trace(five_net):
    """Frozen two-round reference: seed 7, default parameters."""
    params = ProtocolParams()
    stream = RandomStream(7)
    out1 = least_setup(five_net, None, params, 1, stream)
    assert parent_map(out1.tree) == {1: 2, 2: 0, 3: 2, 4: 2, 5: 2}

    out2 = least_setup(five_net, out1.tree, params, 2, stream)
    assert sorted(hosts_of(out2)) == [1, 4, 5]
    assert heirs_of(out2) == {2: [1]}
    assert parent_map(out2.tree) == {1: 0, 2: 5, 3: 1, 4: 1, 5: 1}
    assert level(out2.tree, 2) == 3
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
        assert parent_map(out2.tree) == want2
        assert sorted(hosts_of(out2)) == want_hosts
        assert heirs_of(out2) == want_heirs
        assert [(m.kind, m.sender) for m in checked(out2.messages)] == [
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
        assert out2.tree.parent[f] in hosts_of(out2)
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
        assert validate(sim.tree, sim.net.alive_ids()) is None


def test_heir_guarantee_and_promotion():
    for before, outcome, sim in walk_rounds("least", 11, 40):
        if not hosts_of(outcome):
            continue  # round one or a stalled round
        for f in before:
            for heir in heirs_of(outcome).get(f, []):
                assert sim.tree.parent[heir] == BS_ID


def test_first_level_turnover():
    for before, outcome, sim in walk_rounds("least", 13, 40):
        if not hosts_of(outcome):
            continue
        assert before.isdisjoint(sim.tree.first_level())


def test_hn_rotation_never_violated():
    cfg = SimConfig(protocol="least", seed=3, n=40, initial_energy=1e9, max_rounds=80)
    sim = Simulation(cfg)
    last_served = {}
    window = cfg.params.hn_rotation_window()
    while sim.round < 80:
        sim.run_round()
        for h in hosts_of(sim.last_outcome):
            if h in last_served:
                assert sim.round - last_served[h] > window
            last_served[h] = sim.round


def test_minimum_first_level_width_at_ph_zero():
    # every first-level node with children contributes exactly one heir;
    # childless ones (heads nobody joined) contribute nothing
    for before, outcome, sim in walk_rounds("least", 21, 40, p_h=0.0):
        if not hosts_of(outcome):
            continue
        assert all(len(v) == 1 for v in heirs_of(outcome).values())
        assert len(sim.tree.first_level()) >= len(heirs_of(outcome))
        assert set(heirs_of(outcome)) <= before


def test_setup_outcome_deterministic():
    def trail(seed):
        rows = []
        for _, out, sim in walk_rounds("least", seed, 12):
            rows.append(
                (
                    tuple(sorted(parent_map(sim.tree).items())),
                    tuple((m.kind, m.sender, m.tx_distance, m.packets, m.receiver)
                          for m in checked(out.messages)),
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
            assert validate(tree, net.alive_ids()) is None


# -- one-pass maps against the edge-by-edge reference -------------------------------

def as_lists(ref: DictRoutingTree, n: int):
    """The reference map's parent and child lists, shaped like ``RoutingTree``'s."""
    return [ref.parent_of(i) for i in range(n + 1)], [ref.children_of(i) for i in range(n + 1)]


def assert_same_map(tree, ref, alive_ids, whole):
    """Equal lists, and the same verdict from the invariant check; a map with
    no floating subtree (``whole``) must pass it."""
    assert (tree.parent, [list(kids) for kids in tree.children]) == as_lists(ref, tree.n)
    verdict = validate(tree, alive_ids)
    assert verdict == ref.validate(alive_ids)
    if whole:
        assert verdict is None


def reference_prune(ref: DictRoutingTree, alive) -> None:
    """``pruned`` as edge moves. Every detached node first hangs under an
    anchor node past the last id; then each dead node, ascending, hands its
    children to its parent; cutting the anchor last leaves floating what
    had no kept ancestor."""
    anchor = len(alive)
    ref.attach(anchor, BS_ID)
    ref.attach_all([(i, anchor) for i in range(1, anchor) if ref.parent_of(i) is None])
    for d in range(1, anchor):
        if not alive[d]:
            up = ref.parent_of(d)
            ref.attach_all([(o, up) for o in ref.detach_subtree_root(d)])
    ref.detach_subtree_root(anchor)


def reference_relocate(ref: DictRoutingTree, net, former, hosts, heirs) -> None:
    """The relocation order that keeps every step a legal edge: detach the
    first level, raise the heirs, re-home the other children, then the former
    first-level nodes."""
    orphans = [ref.detach_subtree_root(f) for f in former]
    ref.attach_all([(heir, BS_ID) for f in former for heir in heirs.get(f, ())])
    for f, kids in zip(former, orphans):
        own = heirs.get(f, [])
        movers = [c for c in kids if c not in own]
        ref.attach_all([(c, t) for c, (t, _) in zip(movers, net.nearest(own, movers))])
    ref.attach_all([(f, h) for f, (h, _) in zip(former, net.nearest(sorted(hosts), former))])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_maps_equal_edge_by_edge_replay(data):
    """``pruned``, ``relocate`` and ``leach_setup`` write parent lists and
    derive child lists in one pass; the same edges sent one by one through
    the checked dict-backed map give the same lists."""
    n = data.draw(st.integers(min_value=2, max_value=30), label="n")
    coord = st.integers(min_value=0, max_value=20)  # a small grid, so nearest-id ties occur
    net = make_net(data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))

    # a random map, built and cut edge by edge on the reference, and the
    # list-backed map over its parent list
    ref, placed = DictRoutingTree(), [BS_ID]
    for node in data.draw(st.permutations(range(1, n + 1))):
        ref.attach(node, data.draw(st.sampled_from(placed)))
        placed.append(node)
    cuts = data.draw(st.lists(st.integers(min_value=1, max_value=n), max_size=3, unique=True))
    for node in cuts:  # orphans float with their subtrees
        if ref.parent_of(node) not in (None, BS_ID):
            ref.detach_subtree_root(node)
    tree = tree_of(n, ref.parent_map().items())
    assert_same_map(tree, ref, [], False)
    whole = all(tree.parent[i] is not None for i in range(1, n + 1))

    alive = [False, *data.draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    alive_ids = [i for i in range(1, n + 1) if alive[i]]
    tree = tree.pruned(alive)
    reference_prune(ref, alive)
    assert_same_map(tree, ref, alive_ids, whole)

    former = tree.first_level()
    spots = [i for i in alive_ids if tree.parent[i] not in (None, BS_ID)]
    if former and spots:
        hosts = data.draw(st.lists(st.sampled_from(spots), min_size=1, unique=True))
        heirs = {f: data.draw(st.lists(st.sampled_from(tree.children[f]), min_size=1, unique=True)
                              .map(sorted))
                 for f in former if tree.children[f]}
        relocate(net, tree, former, hosts, heirs)
        reference_relocate(ref, net, former, hosts, heirs)
        assert_same_map(tree, ref, alive_ids, whole)

    if alive_ids:
        for i in range(1, n + 1):
            if not alive[i]:
                net.energy[i] = 0.0
                net.mark_dead(i)
        p_ch = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
        out = leach_setup(net, ProtocolParams(p_ch=p_ch), 1, RandomStream(data.draw(st.integers(0, 99))))
        ref = DictRoutingTree()
        msgs = checked(out.messages)
        ref.attach_all([(m.sender, BS_ID) for m in msgs if m.kind == "ch_announce"])
        ref.attach_all([(m.sender, m.receiver) for m in msgs if m.kind == "join_request"])
        assert_same_map(out.tree, ref, alive_ids, True)
