"""Round driver: placement, phases, metrics, lifetime summaries."""

import copy
import hashlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import (
    EnergyParams,
    Network,
    ProtocolParams,
    RandomStream,
    SetupOutcome,
    SimConfig,
    Simulation,
    place_nodes,
    run,
)
from least_sim import core
from least_sim.cli import parse_config, sweep_phn
from least_sim.simulator import METRICS_HEADER, metrics_csv

from conftest import FIVE_POSITIONS, charge, heirs_of, hosts_of, make_net, tx_cost
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
            eps * sim.net.dist(path[i], path[i + 1]) ** 2 for i in range(len(path) - 1)
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
            cost = tx_cost(net.dist(fwd, nxt), packets, cfg.energy)
            spent = charge(net, fwd, cost)
            sim.steady.add([spent])
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
        d = sim.net.dist(i, parent[i]) if i in parent else 0.0
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
    pos = dict(enumerate(net.table[0]))  # the base station at 0, then sensors 1..n
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
    with pytest.raises(ValueError, match="unknown node: 3"):
        sim._steady_phase()
    # senders 1 and 2 were charged and recorded; sensor 3 paid nothing
    hop = 2.0**-22
    assert [sim.net.energy[i] for i in (1, 2, 3)] == [1.0 - hop - hop, 1.0 - hop, 1.0]
    assert sim.setup.total + sim.steady.total == sim.initial_total - sim.net.total_energy() == 3 * hop


def test_parent_cycle_raises():
    sim = chain_sim([1.0, 1.0])
    sim.tree.parent[1] = 2  # 1 -> 2 -> 1; no setup writes such a list
    with pytest.raises(RuntimeError, match="parent cycle"):
        sim._steady_phase()
    assert sim.setup.total + sim.steady.total == sim.initial_total - sim.net.total_energy()


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


@st.composite
def dying_configs(draw):
    """Small fields on low batteries: sensors die sending setup messages, on
    their steady-phase hops and, with reception priced, on receiving."""
    return SimConfig(
        n=draw(st.integers(1, 10)), protocol=draw(st.sampled_from(["leach", "least"])),
        seed=draw(st.integers(0, 999)),
        area_w=draw(st.sampled_from([30.0, 100.0])), area_h=draw(st.sampled_from([30.0, 100.0])),
        initial_energy=draw(st.sampled_from([2e-5, 2e-4, 1e-3])),
        traffic_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        energy=EnergyParams(rx_cost=draw(st.sampled_from([0.0, 1e-6, 2e-5]))),
        max_rounds=80,
    )


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
    assert rows == []
    assert summary.first_death_round == 0
    assert summary.half_life_round == 0
    assert summary.all_dead_round == 0
    assert summary.avg_energy_per_packet == 0.0


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
    b = Network(FIVE_POSITIONS, (50.0, 50.0), ones, a.table)
    assert b.table[1] is a.table[1] and b.table is a.table
    moved = FIVE_POSITIONS[:-1] + [(55.0, 45.5)]
    for positions, bs in ((moved, (50.0, 50.0)), (FIVE_POSITIONS, (0.0, 50.0))):
        net = Network(positions, bs, ones, a.table)
        fresh = Network(positions, bs, ones)
        assert net.table[1] is not a.table[1] and net.table[1] == fresh.table[1]


def test_table_reused_across_runs_of_one_placement():
    cfg = SimConfig(n=12, seed=3, initial_energy=0.002, protocol="least", max_rounds=300)
    first = Simulation(cfg)
    first.run()
    assert first.net.alive_count() < cfg.n  # the run killed sensors
    assert first.net.table[1] == Simulation(cfg).net.table[1]  # and left the table as built
    second = Simulation(replace(cfg, protocol="leach"), table=first.net.table)
    assert second.net.table[1] is first.net.table[1]
    assert second.net.alive_count() == cfg.n  # per-run state is never shared
    assert second.net._farthest is not first.net._farthest
    assert second.run() == Simulation(replace(cfg, protocol="leach")).run()
    for other in (replace(cfg, seed=4), replace(cfg, bs_pos=(0.0, 0.0))):
        sim = Simulation(other, table=first.net.table)
        assert sim.net.table[1] is not first.net.table[1]
        assert sim.net.table[1] == Simulation(other).net.table[1]


@pytest.mark.parametrize("protocol", ["leach", "least"])
def test_run_above_the_table_size_equals_a_table_run(protocol):
    """One sensor above ``core._TABLE_MAX`` a run computes its distances on
    demand; handed the full table of the same placement, it is the same run."""
    cfg = SimConfig(n=core._TABLE_MAX + 1, seed=6, initial_energy=0.001,
                    traffic_fraction=0.5, protocol=protocol, max_rounds=20)
    on_demand = Simulation(cfg)
    xy = on_demand.net.table[0]
    table = Simulation(cfg, table=(xy, [[math.dist(p, q) for q in xy] for p in xy]))
    assert type(on_demand.net.table[1][0]) is not list and type(table.net.table[1][0]) is list
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
