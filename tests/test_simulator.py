"""Round driver: placement, phases, metrics, lifetime summaries."""

import copy
import hashlib
import json
import math
import pickle
import re
import sys
from dataclasses import astuple, replace
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import (
    EnergyParams,
    Network,
    ProtocolParams,
    RandomStream,
    SimConfig,
    Simulation,
    run,
)
from least_sim import core
from least_sim.cli import parse_config, sweep_phn
from least_sim.protocols import SetupOutcome
from least_sim.simulator import (METRICS_HEADER, PROTOCOLS, RoundLog, RoundMetrics, metrics_csv,
                                 place_nodes)

from conftest import (FIVE_POSITIONS, charge, checked, dying_configs, heirs_of, hosts_of, make_net,
                      reference_metrics_csv, small_configs, tally_add, tx_cost)
from tree_reference import attached, nodes, parent_map, path_to_root, tree_of, validate
from trace_oracle import steady_trace


def five_sim(protocol="leach", **overrides):
    cfg = SimConfig(n=5, protocol=protocol, seed=7, initial_energy=0.1, **overrides)
    return Simulation(cfg, net=make_net(FIVE_POSITIONS, energy=0.1))


# -- placement -----------------------------------------------------------

def test_place_single_node():
    cfg = SimConfig(n=1, initial_energy=0.25)
    positions = place_nodes(cfg, RandomStream(1))
    assert len(positions) == 1
    sim = Simulation(cfg)
    assert sim.net.energy[1] == 0.25
    assert sim.net.alive_ids() == [1]


def test_place_is_deterministic_and_in_bounds():
    cfg = SimConfig(n=50, area_w=80.0, area_h=60.0)
    a = place_nodes(cfg, RandomStream(42))
    b = place_nodes(cfg, RandomStream(42))
    assert a == b
    assert all(0 <= x <= 80 and 0 <= y <= 60 for x, y in a)


def test_place_draw_order_x_then_y():
    cfg = SimConfig(n=2, area_w=100.0, area_h=100.0)
    positions = place_nodes(cfg, RandomStream(8))
    s = RandomStream(8)
    want = [s.uniform(0, 100) for _ in range(4)]
    assert [*positions[0], *positions[1]] == want


def test_place_moment_oracle():
    """Coordinate means of a large placement sit at the area center."""
    cfg = SimConfig(n=10_000)
    positions = place_nodes(cfg, RandomStream(99))
    mx = sum(x for x, _ in positions) / len(positions)
    my = sum(y for _, y in positions) / len(positions)
    assert abs(mx - 50.0) < 1.0 and abs(my - 50.0) < 1.0


# -- single rounds ---------------------------------------------------------

def test_round_no_traffic_means_no_steady_energy():
    sim = five_sim(traffic_fraction=0.0)
    m = sim.run_round()
    assert m.steady_energy == 0.0
    assert m.setup_energy > 0.0


def test_round_single_node_one_hop():
    cfg = SimConfig(n=1, seed=3, initial_energy=0.1, protocol="leach")
    sim = Simulation(cfg, net=make_net([(50.0, 30.0)], energy=0.1))
    m = sim.run_round()
    # announcement reaches nobody (distance 0); steady is one 20 m hop to the BS
    assert m.setup_energy == 0.0
    assert m.steady_energy == pytest.approx(cfg.energy.epsilon_amp * 400.0)
    assert sim.last_delivered == 1


def test_round_metrics_golden_five_nodes():
    """Frozen two-round reference for the five-node fixture, seed 7."""
    sim = five_sim(protocol="least")
    m1 = sim.run_round()
    assert m1.dead_count == 0
    assert m1.setup_energy == pytest.approx(0.0013425, rel=1e-12)
    assert m1.steady_energy == pytest.approx(0.0014325, rel=1e-12)
    assert m1.total_energy == pytest.approx(0.497225, rel=1e-12)
    assert (m1.first_level_width, m1.max_depth) == (1, 2)
    assert sim.last_delivered == 5

    m2 = sim.run_round()
    # round 2 sends only the election messages (26050 m^2); relocation is silent
    assert m2.setup_energy == pytest.approx(0.0013025, rel=1e-9)
    assert m2.steady_energy == pytest.approx(0.0021375, rel=1e-9)
    assert m2.total_energy == pytest.approx(0.493785, rel=1e-9)
    assert (m2.first_level_width, m2.max_depth) == (1, 3)


def test_round_traffic_fraction_selects_floor():
    sim = five_sim(traffic_fraction=0.5)
    sim.run_round()
    assert sim.last_attempted == 2  # floor(0.5 * 5)


def test_round_charges_match_recorded_paths():
    sim = five_sim(protocol="leach")
    sim.run_round()
    eps = sim.config.energy.epsilon_amp
    want = 0.0
    for sender in sim.net.alive_ids():
        path = path_to_root(sim.tree, sender)
        want += sum(
            eps * sim.net.rows[path[i]][path[i + 1]] ** 2 for i in range(len(path) - 1)
        )
    assert sim.steady.round == pytest.approx(want, rel=1e-12)


# -- steady phase --------------------------------------------------------------

def reference_steady(sim):
    """The steady phase as a loop of public calls: a shuffle of a copy of the
    alive ids, then per sender its path up the parent list
    (``tree_reference.path_to_root``), ``tx_cost`` and one ``charge`` per hop."""
    cfg, net = sim.config, sim.net
    alive = net.alive_ids()
    if cfg.traffic_fraction >= 1.0:
        senders = list(alive)
    else:
        k = int(cfg.traffic_fraction * len(alive))
        pool = list(alive)
        for i in range(k):
            j = i + sim.stream.next_u64() % (len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        senders = pool[:k]
    packets = cfg.packets_per_sender
    if packets == 0:
        return 0, 0
    delivered = attempted = 0
    for sender in senders:
        attempted += packets
        if net.energy[sender] == 0.0:
            continue
        path = path_to_root(sim.tree, sender)
        for fwd, nxt in zip(path, path[1:]):
            if net.energy[fwd] == 0.0:
                break
            cost = tx_cost(net.rows[fwd][nxt], packets, cfg.energy)
            spent = charge(net, fwd, cost)
            tally_add(sim.steady, [spent])
            if spent < cost:
                break
        else:
            delivered += packets
    return delivered, attempted


def sim_state(sim):
    """Everything the steady phase may touch, for ``==`` comparison."""
    ids = range(1, sim.config.n + 1)
    return {
        "energy": [sim.net.energy[i] for i in ids],
        "alive": [sim.net.energy[i] > 0 for i in ids],
        "alive_ids": sim.net.alive_ids(),
        "stream": sim.stream._state,
        "tallies": (sim.setup.round, sim.setup.total, sim.steady.round, sim.steady.total),
    }


@st.composite
def steady_cases(draw):
    """A simulation a few rounds in (small first batteries leave dead
    forwarders in the map), then given random batteries: some tiny, some
    exactly the cost of the node's own hop, so that deaths happen partway,
    mid-path and at exactly zero energy."""
    cfg = SimConfig(
        n=draw(st.integers(1, 12)), protocol=draw(st.sampled_from(["leach", "least"])),
        seed=draw(st.integers(0, 999)), initial_energy=draw(st.sampled_from([0.1, 1e-4])),
        traffic_fraction=draw(st.sampled_from([0.0, 0.3, 0.5, 0.75, 1.0])),
        packets_per_sender=draw(st.integers(0, 3)),
        energy=EnergyParams(epsilon_amp=draw(st.sampled_from([0.0, 2.0**-30, 50e-9, 1e-6]))),
    )
    sim = Simulation(cfg)
    for _ in range(draw(st.integers(1, 3))):
        if sim.net.alive_count():
            sim.run_round()
    eps, packets, parent = cfg.energy.epsilon_amp, cfg.packets_per_sender, parent_map(sim.tree)
    for i in sim.net.alive_ids():
        d = sim.net.rows[i][parent[i]] if i in parent else 0.0
        exact = eps * d * d * packets
        choice = draw(st.sampled_from(["keep", "exact", "tiny", "float"]))
        if choice == "exact" and exact > 0:
            sim.net.energy[i] = exact
        elif choice == "tiny":
            sim.net.energy[i] = draw(st.sampled_from([2.0**-22, 1e-7, 3e-6, 1e-5]))
        elif choice == "float":
            sim.net.energy[i] = draw(st.floats(1e-9, 1e-3))
    return sim


@settings(max_examples=300, deadline=None)
@given(steady_cases())
def test_steady_phase_equals_reference_loop(sim):
    want_sim = copy.deepcopy(sim)
    got = sim._steady_phase()
    want = reference_steady(want_sim)
    assert got == want
    assert sim_state(sim) == sim_state(want_sim)


@settings(max_examples=200, deadline=None)
@given(steady_cases())
def test_steady_phase_matches_oracle(sim):
    """Forwarding against ``trace_oracle.steady_trace``, which shares no code
    with the package; the senders come from the package's own draw."""
    net = sim.net
    senders = copy.deepcopy(sim)._select_senders(net.alive_ids())
    pos = dict(enumerate(net.xy))  # the base station at 0, then sensors 1..n
    energy = {i: net.energy[i] for i in range(1, net.n + 1)}
    packets = sim.config.packets_per_sender
    total, delivered = steady_trace(pos, energy, parent_map(sim.tree), senders, packets,
                                    sim.config.energy.epsilon_amp)
    sim.steady.round = 0.0  # this phase's spend alone, as at the start of a round
    assert sim._steady_phase() == (delivered, packets * len(senders))
    assert [net.energy[i] for i in range(1, net.n + 1)] == list(energy.values())
    assert sim.steady.round == total


def chain_sim(energies):
    """Sensors 16 m apart on a vertical line below the BS, each routed through
    the one above it; with epsilon 2**-30 every hop costs exactly 2**-22 J."""
    cfg = SimConfig(n=len(energies), protocol="least", energy=EnergyParams(epsilon_amp=2.0**-30))
    positions = [(50.0, 50.0 - 16.0 * i) for i in range(1, len(energies) + 1)]
    sim = Simulation(cfg, net=make_net(positions, list(energies)))
    sim.tree = tree_of(len(energies), [(i, i - 1) for i in range(1, len(energies) + 1)])
    return sim


def test_forwarder_dying_at_exactly_zero_still_delivers(monkeypatch):
    hop = 2.0**-22
    sim = chain_sim([2 * hop, 1.0])
    monkeypatch.setattr(sim, "_run_setup", lambda: SetupOutcome(sim.tree))
    m = sim.run_round()
    # sensor 1 sends its own packet, then forwards sensor 2's with exactly hop left
    assert sim.net.energy[1] == 0.0 and sim.net.energy[1] == 0.0
    assert sim.net.alive_ids() == [2]
    assert sim.last_delivered == 2
    assert m.steady_energy == sim.steady.round == hop + hop + hop


def test_alive_sender_missing_from_map_raises():
    sim = chain_sim([1.0, 1.0, 1.0])
    sim.tree = tree_of(3, [(1, 0), (2, 1)])  # 3 is left out of the map
    start = sim.net.total_energy()
    with pytest.raises(ValueError, match="unknown node: 3"):
        sim._steady_phase()
    # senders 1 and 2 were charged and recorded; sensor 3 paid nothing
    hop = 2.0**-22
    assert [sim.net.energy[i] for i in (1, 2, 3)] == [1.0 - hop - hop, 1.0 - hop, 1.0]
    assert sim.setup.total + sim.steady.total == start - sim.net.total_energy() == 3 * hop


def test_parent_cycle_raises():
    sim = chain_sim([1.0, 1.0])
    sim.tree.parent[1] = 2  # 1 -> 2 -> 1; no setup writes such a list
    start = sim.net.total_energy()
    with pytest.raises(RuntimeError, match="parent cycle"):
        sim._steady_phase()
    assert sim.setup.total + sim.steady.total == start - sim.net.total_energy()


def test_steady_phase_needs_no_setup_ceremony():
    # every spend of the steady walk is steady energy, whoever calls it
    sim = chain_sim([1.0, 1.0, 1.0])
    assert sim._steady_phase() == (3, 3)
    assert sim.setup.total == 0.0
    assert sim.steady.total == sim.steady.round == 6 * 2.0**-22


def test_zero_packets_charge_nothing_but_draw_the_senders():
    cfg = SimConfig(n=10, seed=5, traffic_fraction=0.5, packets_per_sender=0)
    sim, alone = Simulation(cfg), Simulation(cfg)
    before = sim_state(sim)
    assert sim._steady_phase() == (0, 0)
    assert len(alone._select_senders(alone.net.alive_ids())) == 5
    after = sim_state(sim)
    assert after.pop("stream") == alone.stream._state != before.pop("stream")
    assert after == before


def test_dead_nodes_prune_to_first_alive_ancestor():
    sim = five_sim(protocol="least")
    sim.run_round()  # tree: 2 under BS, others under 2
    charge(sim.net, 2, 1.0)  # kill the only first-level node
    sim.run_round()
    tree = sim.tree
    assert not attached(tree, 2)
    assert validate(tree, sim.net.alive_ids()) is None


def test_sensor_killed_between_rounds_is_pruned():
    cfg = SimConfig(n=20, protocol="least", seed=3, traffic_fraction=0.0)
    sim = Simulation(cfg)
    for _ in range(4):  # deathless rounds: the prune runs once, then is skipped
        sim.run_round()
    assert sim.net.alive_count() == 20
    victim = next(i for i in nodes(sim.tree) if sim.tree.children[i])
    orphans = list(sim.tree.children[victim])
    charge(sim.net, victim, 1.0)
    sim.run_round()
    assert not attached(sim.tree, victim)
    assert all(attached(sim.tree, o) for o in orphans)
    assert validate(sim.tree, sim.net.alive_ids()) is None


def test_leach_runs_match_golden_digests():
    """LEACH skips the dead-node prune, since its setup replaces the map;
    its metrics files stay the frozen bytes on profiles where sensors die."""
    from test_golden import DIGESTS, PROFILES

    digests = json.loads(DIGESTS.read_text())
    for name in ("traffic_full", "tiny_extinction", "deep_trees"):
        cfg = parse_config(PROFILES[name])
        for seed in (1, 2, 3, 4):
            rows, summary = run(replace(cfg, protocol="leach", seed=seed))
            assert summary.first_death_round is not None
            got = hashlib.sha256(metrics_csv(rows).encode()).hexdigest()
            assert got == digests[f"{name}/simulate/leach_seed{seed}.csv"], (name, seed)


def test_injected_network_must_match_config_n():
    # at n = 5 a 3-sensor network would report 2 dead sensors while all live
    with pytest.raises(ValueError, match="3 sensors but the config has n = 5"):
        Simulation(SimConfig(n=5), net=make_net(FIVE_POSITIONS[:3]))


@pytest.mark.parametrize("config", ["x", None, {"n": 5}, ProtocolParams()])
def test_simulation_and_run_reject_a_config_that_is_not_a_simconfig(config):
    for call in (Simulation, run):
        with pytest.raises(ValueError, match=re.escape(f"config must be a SimConfig: {config!r}")):
            call(config)


@pytest.mark.parametrize("net", [object(), "x", FIVE_POSITIONS])
def test_simulation_rejects_a_net_that_is_not_a_network(net):
    with pytest.raises(ValueError, match=re.escape(f"net must be a Network: {net!r}")):
        Simulation(SimConfig(n=5), net=net)


@settings(max_examples=150, deadline=None)
@given(dying_configs())
def test_alive_list_agrees_with_energy_through_whole_runs(cfg):
    sim = Simulation(cfg)
    net, ids = sim.net, range(1, cfg.n + 1)
    before = list(net.energy)
    while net.alive_count() and sim.round < cfg.max_rounds:
        m = sim.run_round()
        assert net.alive_ids() == [i for i in ids if net.energy[i] > 0]
        assert all(math.isfinite(e) and e >= 0 for e in net.energy)
        assert all(e <= was for e, was in zip(net.energy, before))
        assert m.dead_count == cfg.n - len(net.alive_ids())
        before = list(net.energy)


@settings(max_examples=200, deadline=None)
@given(dying_configs(max_n=30))
def test_every_charged_record_passes_the_boundary_checks(cfg):
    """The simulator charges each round's setup log without checking it, so
    every record it charges must pass the checks ``apply_messages`` makes:
    ``check_message``, and a sender and a receiver (or None) in 0..n. The
    runs go through deaths and, for the tree protocol, stalled rounds."""
    sim, ids = Simulation(cfg), range(cfg.n + 1)
    while sim.net.alive_count() and sim.round < cfg.max_rounds:
        sim.run_round()
        for m in checked(sim.last_outcome.messages):
            assert m.sender in ids and (m.receiver is None or m.receiver in ids)


def slot_fold(net):
    """The reference total: every slot of ``net.energy`` folded left from 0.0,
    the base station's and the dead sensors' included."""
    return reduce(add, net.energy, 0.0)


@settings(max_examples=150, deadline=None)
@given(dying_configs(max_n=30), st.data())
def test_total_energy_equals_the_fold_over_every_slot(cfg, data):
    """``total_energy`` folds only the alive sensors, in id order; after every
    round of whole runs it is the fold over every slot, bit for bit. Some
    runs start with sensors that hold 0.0 or -0.0, dead from the start."""
    net = None
    if data.draw(st.booleans(), label="injected"):
        energies = data.draw(st.lists(st.sampled_from([cfg.initial_energy, 0.0, -0.0]),
                                      min_size=cfg.n, max_size=cfg.n), label="energies")
        net = Network(place_nodes(cfg, RandomStream(cfg.seed)), cfg.bs_pos, energies)
    sim = Simulation(cfg, net=net)
    net = sim.net
    assert net.total_energy().hex() == slot_fold(net).hex()
    while net.alive_count() and sim.round < cfg.max_rounds:
        m = sim.run_round()
        assert m.total_energy.hex() == net.total_energy().hex() == slot_fold(net).hex()


def test_round_requires_alive_nodes():
    from least_sim.simulator import SimulationError

    sim = five_sim()
    for i in range(1, 6):
        charge(sim.net, i, 1.0)
    with pytest.raises(SimulationError):
        sim.run_round()


def test_dead_first_level_orphans_become_first_level():
    # killing the only first-level node re-homes its children to the BS;
    # with every alive node then at level one, the tree round stalls there
    sim = five_sim(protocol="least")
    sim.run_round()  # tree: 2 under BS, {1,3,4,5} under 2
    charge(sim.net, 2, 1.0)
    m = sim.run_round()
    assert sim.tree.first_level() == [1, 3, 4, 5]
    assert m.setup_energy == 0.0  # no host candidates: stalled round
    assert validate(sim.tree, sim.net.alive_ids()) is None


def test_least_stall_keeps_map():
    # a lone sensor can never elect a host node; rounds must still complete
    cfg = SimConfig(n=1, seed=5, initial_energy=0.1, protocol="least")
    sim = Simulation(cfg, net=make_net([(30.0, 50.0)], energy=0.1))
    m1 = sim.run_round()
    m2 = sim.run_round()
    assert m2.setup_energy == 0.0  # stalled: no control traffic
    assert sim.tree.first_level() == [1]
    assert m2.steady_energy > 0.0


def test_first_level_equals_flattened_heirs():
    """Each round's log names its hosts and heirs: the host announcements'
    senders are the sensors whose ``last_hn`` is this round, and the heirs
    notifying their parents are the new first level. The two draining runs
    go through deaths and stalled rounds."""
    for n, seed, energy, rounds in ((10, 19, 1e9, 30), (25, 4, 0.02, 150), (25, 19, 0.02, 150)):
        cfg = SimConfig(n=n, seed=seed, initial_energy=energy, protocol="least", max_rounds=rounds)
        sim = Simulation(cfg)
        stalled = 0
        while sim.net.alive_count() and sim.round < rounds:
            sim.run_round()
            hosts = hosts_of(sim.last_outcome)
            assert hosts == {i for i in range(1, n + 1) if sim.net.last_hn[i] == sim.round}
            if hosts:
                heirs = [h for group in heirs_of(sim.last_outcome).values() for h in group]
                assert sorted(heirs) == sim.tree.first_level()
            else:
                stalled += sim.round > 1
        if energy < 1:  # the draining runs reached deaths and stalls
            assert sim.net.alive_count() < n and stalled


def test_leach_depth_exactly_two_with_members():
    cfg = SimConfig(n=40, seed=2, initial_energy=1e9, protocol="leach", max_rounds=20)
    sim = Simulation(cfg)
    while sim.round < 20:
        m = sim.run_round()
        assert m.max_depth <= 2
        if m.first_level_width < sim.net.alive_count():
            assert m.max_depth == 2


def test_least_depth_exceeds_two_eventually():
    cfg = SimConfig(n=100, seed=1, initial_energy=1e9, protocol="least", max_rounds=50)
    sim = Simulation(cfg)
    depths = [sim.run_round().max_depth for _ in range(50)]
    assert max(depths) > 2


# -- full runs ----------------------------------------------------------------

def test_run_bounded_by_max_rounds():
    rows, summary = run(SimConfig(n=10, seed=4, initial_energy=1e9, max_rounds=10))
    assert len(rows) == 10
    assert rows[-1].dead_count == 0
    assert summary.first_death_round is None
    assert summary.half_life_round is None


def test_run_all_dead_at_start():
    rows, summary = run(SimConfig(n=4, seed=1, initial_energy=0.0, max_rounds=5))
    assert rows == [] and len(rows) == 0 and list(rows) == [] and rows[:] == []
    assert metrics_csv(rows) == METRICS_HEADER + "\n"
    assert summary.first_death_round == 0
    assert summary.half_life_round == 0
    assert summary.all_dead_round == 0
    assert summary.avg_energy_per_packet == 0.0


def scan_lifetime(n, rows, alive_at_start):
    """Reference lifetime rounds: first death, half-life and extinction, read
    off the rows of every round so far (None until each holds), all 0 when no
    sensor was alive before round one."""
    if not alive_at_start:
        return 0, 0, 0
    first = half = dead = None
    half_target = math.ceil(n / 2)
    for row in rows:
        if first is None and row.dead_count > 0:
            first = row.round
        if half is None and row.dead_count >= half_target:
            half = row.round
        if dead is None and row.dead_count == n:
            dead = row.round
    return first, half, dead


def test_summary_covers_rounds_stepped_before_run():
    """``run``'s summary counts the rounds ``run_round`` stepped before it:
    a run resumed 5 rounds past its first death still reports that death."""
    cfg = SimConfig(n=30, seed=3, initial_energy=0.02, max_rounds=3000)
    sim = Simulation(cfg)
    while sim.run_round().dead_count == 0:
        pass
    for _ in range(5):
        sim.run_round()
    whole = run(cfg)[1]
    assert whole.first_death_round == 31
    assert sim.run()[1] == whole


def lifetime(sim):
    return sim.first_death, sim.half_life, sim.all_dead


@st.composite
def lifetime_runs(draw):
    """A small draining config, sometimes with an injected network whose
    sensors start on uneven batteries: some empty, or all of them."""
    levels = st.sampled_from([0.0, 2e-5, 2e-4, 1e-3])
    cfg = SimConfig(
        n=draw(st.integers(1, 10)), protocol=draw(st.sampled_from(["leach", "least"])),
        seed=draw(st.integers(0, 999)), initial_energy=draw(levels),
        traffic_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        max_rounds=draw(st.integers(1, 80)),
    )
    energies = draw(st.none() | st.lists(levels, min_size=cfg.n, max_size=cfg.n))
    return cfg, energies


@settings(max_examples=150, deadline=None)
@given(lifetime_runs(), st.integers(0, 80))
def test_lifetime_rounds_equal_a_scan_of_every_round_so_far(case, stepped):
    """After every round the three lifetime attributes equal the reference
    scan; ``run`` after ``stepped`` rounds gives the uninterrupted summary."""
    cfg, energies = case

    def fresh():
        if energies is None:
            return Simulation(cfg)
        return Simulation(cfg, net=make_net(place_nodes(cfg, RandomStream(cfg.seed)), energies))

    sim, rows = fresh(), []
    alive_at_start = sim.net.alive_count() > 0
    assert lifetime(sim) == scan_lifetime(cfg.n, rows, alive_at_start)
    while sim.net.alive_count() and sim.round < min(stepped, cfg.max_rounds):
        rows.append(sim.run_round())
        assert lifetime(sim) == scan_lifetime(cfg.n, rows, alive_at_start)
    rest, summary = sim.run()
    assert lifetime(sim) == scan_lifetime(cfg.n, rows + list(rest), alive_at_start)
    assert astuple(summary)[:3] == lifetime(sim)
    assert (rows + list(rest), summary) == fresh().run()


def test_run_monotone_metrics_and_conservation():
    for protocol in ("leach", "least"):
        cfg = SimConfig(n=20, seed=9, initial_energy=0.01, protocol=protocol, max_rounds=400)
        rows, summary = run(cfg)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.dead_count >= prev.dead_count
            assert cur.total_energy <= prev.total_energy + 1e-15
        for prev, cur in zip(rows, rows[1:]):
            drop = prev.total_energy - cur.total_energy
            assert drop == pytest.approx(cur.setup_energy + cur.steady_energy, rel=1e-9, abs=1e-15)
        initial = 20 * 0.01
        drop0 = initial - rows[0].total_energy
        assert drop0 == pytest.approx(rows[0].setup_energy + rows[0].steady_energy, rel=1e-9)
        if summary.all_dead_round is not None:
            assert rows[-1].total_energy == 0.0
        assert summary.first_death_round <= summary.half_life_round


def test_run_delivered_bounded_by_senders():
    cfg = SimConfig(n=12, seed=31, initial_energy=0.005, max_rounds=100,
                    traffic_fraction=0.5, packets_per_sender=3)
    sim = Simulation(cfg)
    while sim.net.alive_count() > 0 and sim.round < 100:
        alive_before = sim.net.alive_count()  # alive never grows within a round
        sim.run_round()
        assert sim.last_delivered <= sim.last_attempted
        assert sim.last_attempted <= 3 * math.floor(0.5 * alive_before)
        assert sim.last_attempted % 3 == 0


def test_run_byte_identical_per_seed():
    cfg = SimConfig(n=15, seed=77, initial_energy=0.01, protocol="least", max_rounds=200)
    a = metrics_csv(run(cfg)[0])
    b = metrics_csv(run(cfg)[0])
    assert a == b


# -- distance table reuse -------------------------------------------------------

def test_table_shared_only_for_equal_positions():
    ones = [1.0] * len(FIVE_POSITIONS)
    a = Network(FIVE_POSITIONS, (50.0, 50.0), ones)
    b = Network(FIVE_POSITIONS, (50.0, 50.0), ones, a)
    assert b.rows is a.rows and b.xy is a.xy
    moved = FIVE_POSITIONS[:-1] + [(55.0, 45.5)]
    for positions, bs in ((moved, (50.0, 50.0)), (FIVE_POSITIONS, (0.0, 50.0))):
        net = Network(positions, bs, ones, a)
        fresh = Network(positions, bs, ones)
        assert net.rows is not a.rows and net.rows == fresh.rows


def test_table_reused_across_runs_of_one_placement():
    cfg = SimConfig(n=12, seed=3, initial_energy=0.002, protocol="least", max_rounds=300)
    first = Simulation(cfg)
    first.run()
    assert first.net.alive_count() < cfg.n  # the run killed sensors
    assert first.net.rows == Simulation(cfg).net.rows  # and left the table as built
    second = Simulation(replace(cfg, protocol="leach"), table=first.net)
    assert second.net.rows is first.net.rows
    assert second.net.alive_count() == cfg.n  # per-run state is never shared
    for name in ("energy", "last_ch", "last_hn", "_alive_ids", "_farthest"):
        assert getattr(second.net, name) is not getattr(first.net, name), name
    assert second.run() == Simulation(replace(cfg, protocol="leach")).run()
    for other in (replace(cfg, seed=4), replace(cfg, bs_pos=(0.0, 0.0))):
        sim = Simulation(other, table=first.net)
        assert sim.net.rows is not first.net.rows
        assert sim.net.rows == Simulation(other).net.rows


def test_runs_of_one_seed_share_the_first_runs_rows(monkeypatch):
    from least_sim import cli

    nets = []

    class RecordingSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self.net)

    monkeypatch.setattr(cli, "Simulation", RecordingSimulation)
    base = SimConfig(n=12, seed=3, initial_energy=0.002, max_rounds=50)
    cli._run_placement([replace(base, protocol=p) for p in ("leach", "least", "leach")])
    assert len(nets) == 3 and all(net.rows is nets[0].rows for net in nets)
    assert len({id(net.energy) for net in nets}) == 3


# an (xy, rows) pair whose points are those of Network([(1.0, 1.0)], (0.0, 0.0), ...)
# but whose rows put the two 1.414 apart at 5.0
FORGED = ([(0.0, 0.0), (1.0, 1.0)], [[0.0, 5.0], [5.0, 0.0]])


@pytest.mark.parametrize("table", [FORGED, list(FORGED), FORGED[1], "x"],
                         ids=["pair", "list", "rows", "str"])
def test_network_takes_rows_only_from_an_earlier_network(table):
    with pytest.raises(ValueError, match="table must be an earlier Network or None, not "):
        Network([(1.0, 1.0)], (0.0, 0.0), [1.0], table)


def test_simulation_takes_rows_only_from_an_earlier_network():
    cfg = SimConfig(n=3)
    net = Simulation(cfg).net
    zero_rows = [[0.0] * 4 for _ in range(4)]  # would price every hop at distance 0
    for table in ((net.xy, zero_rows), (net.xy, net.rows), [net.xy, net.rows]):
        with pytest.raises(ValueError, match="table must be an earlier Network or None, not "):
            Simulation(cfg, table=table)


def test_simulation_rejects_net_and_table_together():
    net = make_net(FIVE_POSITIONS)
    for table in (net, make_net(FIVE_POSITIONS), FORGED):
        with pytest.raises(ValueError, match="net and table cannot both be given"):
            Simulation(SimConfig(n=5), net=net, table=table)


@pytest.mark.parametrize("protocol", ["leach", "least"])
def test_run_above_the_table_size_equals_a_table_run(protocol, monkeypatch):
    """One sensor above ``core._TABLE_MAX`` a run computes its distances on
    demand; with the table size raised to n, the same placement's run builds
    a table and is the same run."""
    cfg = SimConfig(n=core._TABLE_MAX + 1, seed=6, initial_energy=0.001,
                    traffic_fraction=0.5, protocol=protocol, max_rounds=20)
    on_demand = Simulation(cfg)
    monkeypatch.setattr(core, "_TABLE_MAX", cfg.n)
    table = Simulation(cfg)
    assert type(on_demand.net.rows[0]) is not list and type(table.net.rows[0]) is list
    assert on_demand.run() == table.run()
    assert on_demand.net.alive_count() < cfg.n  # sensors died, so rescans ran
    assert on_demand.last_outcome.messages == table.last_outcome.messages
    assert on_demand.stream._state == table.stream._state


# -- sweep ---------------------------------------------------------------------

def test_sweep_single_cell_matches_run():
    base = SimConfig(n=12, seed=0, initial_energy=0.005, protocol="least", max_rounds=300)
    rows = sweep_phn(base, [0.3], [4])
    cfg = replace(base, seed=4, params=replace(base.params, p_hn=0.3))
    _, summary = run(cfg)
    assert rows == [(0.3, float(summary.half_life_round))]


def test_sweep_duplicate_values_identical():
    base = SimConfig(n=10, seed=0, initial_energy=0.005, protocol="least", max_rounds=300)
    rows = sweep_phn(base, [0.2, 0.2], [1, 2, 3])
    assert rows[0][1] == rows[1][1]


def test_sweep_requires_values():
    with pytest.raises(ValueError):
        sweep_phn(SimConfig(), [], [1])


def test_sweep_runs_a_repeated_value_once_per_seed(monkeypatch):
    from least_sim import cli

    made = []

    class CountingSimulation(Simulation):
        def __init__(self, config, *args, **kwargs):
            made.append(config.params.p_hn)
            super().__init__(config, *args, **kwargs)

    monkeypatch.delenv("LEAST_SIM_THREADS", raising=False)
    monkeypatch.setattr(cli, "Simulation", CountingSimulation)
    base = SimConfig(n=10, seed=0, initial_energy=0.005, protocol="least", max_rounds=300)
    rows = sweep_phn(base, [0.2, 0.2], [1, 2, 3])
    assert made == [0.2] * 3
    assert rows == [(0.2, rows[0][1])] * 2
    made.clear()
    rows = sweep_phn(base, [0.3, 0.2, 0.3], [1, 2, 3])
    assert made == [0.3, 0.2] * 3
    assert rows == [sweep_phn(base, [0.3], [1, 2, 3])[0], sweep_phn(base, [0.2], [1, 2, 3])[0],
                    sweep_phn(base, [0.3], [1, 2, 3])[0]]


def test_sweep_run_stops_at_its_half_life_or_the_cap(monkeypatch):
    """A sweep run steps only to its half-life round; one that never gets
    there runs to the round cap and reports it; one with no round reports 0."""
    from least_sim import cli

    made = []

    class RecordingSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.delenv("LEAST_SIM_THREADS", raising=False)
    monkeypatch.setattr(cli, "Simulation", RecordingSimulation)
    base = SimConfig(n=12, seed=4, initial_energy=0.005, protocol="least", max_rounds=300,
                     params=replace(SimConfig().params, p_hn=0.3))
    full, summary = run(base)
    assert sweep_phn(base, [0.3], [4]) == [(0.3, float(summary.half_life_round))]
    assert made[0].round == summary.half_life_round < len(full)
    made.clear()
    assert sweep_phn(replace(base, initial_energy=1000.0, max_rounds=7), [0.3], [4]) == [(0.3, 7.0)]
    assert made[0].round == 7 and made[0].net.alive_count() == 12
    made.clear()
    assert sweep_phn(replace(base, initial_energy=0.0), [0.3], [4]) == [(0.3, 0.0)]
    assert made[0].round == 0


# -- CSV emission ----------------------------------------------------------------

def test_metrics_csv_schema():
    rows, _ = run(SimConfig(n=5, seed=2, initial_energy=0.01, max_rounds=3))
    text = metrics_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == METRICS_HEADER
    assert lines[0] == "round,dead,total_energy_j,setup_energy_j,steady_energy_j,first_level_width,max_depth"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[2])  # parsable floats


# -- the round log ---------------------------------------------------------------

def stepped_records(cfg):
    """The records ``run_round`` returns, stepped as ``run`` steps a fresh run."""
    sim, records = Simulation(cfg), []
    while sim.net.alive_count() and sim.round < cfg.max_rounds:
        records.append(sim.run_round())
    return records


def hexed(record):
    return [v.hex() if isinstance(v, float) else v for v in astuple(record)]


def log_of(records):
    log = RoundLog()
    for r in records:
        log.append(r)
    return log


@settings(max_examples=150, deadline=None)
@given(small_configs() | dying_configs(), st.data())
def test_round_log_reads_back_the_records_run_round_returned(cfg, data):
    """A run's log holds every record bit for bit: iterated, indexed, sliced,
    compared, pickled and written as CSV."""
    records = stepped_records(cfg)
    log = Simulation(cfg).run()[0]
    assert isinstance(log, RoundLog) and len(log) == len(records)
    assert list(log) == records
    assert list(map(hexed, log)) == list(map(hexed, records))
    assert log == records and records == log and not log != records
    assert log == log_of(records) and not log != log_of(records)
    shorter = records[:-1]
    assert (log != shorter) == bool(records) and (log != log_of(shorter)) == bool(records)
    copied = pickle.loads(pickle.dumps(log))
    assert copied == log and list(map(hexed, copied)) == list(map(hexed, records))
    assert metrics_csv(log) == reference_metrics_csv(records)
    if records:
        assert hexed(log[-1]) == hexed(records[-1])
        i = data.draw(st.integers(-len(records), len(records) - 1))
        assert hexed(log[i]) == hexed(records[i])
    bounds = st.none() | st.integers(-len(records) - 2, len(records) + 2)
    cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.none() | st.sampled_from([1, 2, -1, -3])))
    assert isinstance(log[cut], list) and log[cut] == records[cut]


def test_round_log_keeps_exact_doubles_and_64_bit_ints():
    """Negative zero, the subnormals, the extremes and NaN come back as the same bits."""
    records = [
        RoundMetrics(2**63 - 1, -2**63, -0.0, 5e-324, float("inf"), 0, 1),
        RoundMetrics(1, 0, 0.1, sys.float_info.max, -0.0, 2**40, 3),
        RoundMetrics(2, 1, float("nan"), 2.2250738585072014e-308, 1e-300, 7, 2),
    ]
    log = log_of(records)
    assert list(map(hexed, log)) == list(map(hexed, records))
    assert metrics_csv(log) == reference_metrics_csv(records)
    with pytest.raises(IndexError):
        log[3]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_steps_through_run_round_once_per_row(monkeypatch, protocol):
    """``run`` calls ``Simulation.run_round`` as looked up on the class, once
    per row it returns, so a wrapper there (as the bench traces it) sees every round."""
    real, seen = Simulation.run_round, []

    def counted(self):
        seen.append(self.round + 1)
        return real(self)

    monkeypatch.setattr(Simulation, "run_round", counted)
    rows, summary = run(SimConfig(n=20, seed=5, initial_energy=0.005, protocol=protocol, max_rounds=400))
    assert summary.all_dead_round is not None
    assert seen == [r.round for r in rows] == list(range(1, len(rows) + 1))


def test_round_log_costs_at_most_64_bytes_a_round():
    """A 3,000-round run on the reference field with control traffic only
    (the bench's lifetime profile) keeps its columns within 64 B a round;
    the arrays' own size, so the bound does not depend on the machine's load."""
    log = run(SimConfig(traffic_fraction=0.0, max_rounds=3000))[0]
    assert len(log) == 3000
    assert sum(sys.getsizeof(c) for c in log.columns) / len(log) <= 64
