"""Round driver: placement, phases, metrics, lifetime summaries."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from least_sim import (
    EnergyParams,
    Point,
    ProtocolParams,
    RandomStream,
    SensorNode,
    SimConfig,
    Simulation,
    charge,
    place_nodes,
    run,
)
from least_sim.cli import parse_config, sweep_phn
from least_sim.simulator import METRICS_HEADER, metrics_csv

from conftest import FIVE_POSITIONS, make_nodes


def five_sim(protocol="leach", **overrides):
    cfg = SimConfig(n=5, protocol=protocol, seed=7, initial_energy=0.1, **overrides)
    return Simulation(cfg, nodes=make_nodes(FIVE_POSITIONS, energy=0.1))


# -- placement -----------------------------------------------------------

def test_place_single_node():
    cfg = SimConfig(n=1, initial_energy=0.25)
    nodes = place_nodes(cfg, RandomStream(1))
    assert len(nodes) == 1
    assert nodes[0].id == 1
    assert nodes[0].energy == 0.25
    assert nodes[0].alive


def test_place_is_deterministic_and_in_bounds():
    cfg = SimConfig(n=50, area_w=80.0, area_h=60.0)
    a = place_nodes(cfg, RandomStream(42))
    b = place_nodes(cfg, RandomStream(42))
    assert [(n.pos.x, n.pos.y) for n in a] == [(n.pos.x, n.pos.y) for n in b]
    assert all(0 <= n.pos.x <= 80 and 0 <= n.pos.y <= 60 for n in a)


def test_place_draw_order_x_then_y():
    cfg = SimConfig(n=2, area_w=100.0, area_h=100.0)
    nodes = place_nodes(cfg, RandomStream(8))
    s = RandomStream(8)
    want = [s.uniform(0, 100) for _ in range(4)]
    assert [nodes[0].pos.x, nodes[0].pos.y, nodes[1].pos.x, nodes[1].pos.y] == want


def test_place_moment_oracle():
    """Coordinate means of a large placement sit at the area center."""
    cfg = SimConfig(n=10_000)
    nodes = place_nodes(cfg, RandomStream(99))
    mx = sum(n.pos.x for n in nodes) / len(nodes)
    my = sum(n.pos.y for n in nodes) / len(nodes)
    assert abs(mx - 50.0) < 1.0 and abs(my - 50.0) < 1.0


# -- single rounds ---------------------------------------------------------

def test_round_no_traffic_means_no_steady_energy():
    sim = five_sim(traffic_fraction=0.0)
    m = sim.run_round()
    assert m.steady_energy == 0.0
    assert m.setup_energy > 0.0


def test_round_single_node_one_hop():
    cfg = SimConfig(n=1, seed=3, initial_energy=0.1, protocol="leach")
    nodes = [SensorNode(id=1, pos=Point(50.0, 30.0), energy=0.1)]
    sim = Simulation(cfg, nodes=nodes)
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
        path = sim.tree.path_to_root(sender)
        want += sum(
            eps * sim.net.dist(path[i], path[i + 1]) ** 2 for i in range(len(path) - 1)
        )
    assert sim.ledger.round_steady == pytest.approx(want, rel=1e-12)


def test_dead_nodes_prune_to_first_alive_ancestor():
    sim = five_sim(protocol="least")
    sim.run_round()  # tree: 2 under BS, others under 2
    charge(sim.net, 2, 1.0)  # kill the only first-level node
    sim.run_round()
    tree = sim.tree
    assert 2 not in tree
    assert tree.validate(sim.net.alive_ids()) is None


def test_sensor_killed_between_rounds_is_pruned():
    cfg = SimConfig(n=20, protocol="least", seed=3, traffic_fraction=0.0)
    sim = Simulation(cfg)
    for _ in range(4):  # deathless rounds: the prune runs once, then is skipped
        sim.run_round()
    assert sim.net.alive_count() == 20
    victim = next(i for i in sim.tree.nodes() if sim.tree.children_of(i))
    orphans = sim.tree.children_of(victim)
    charge(sim.net, victim, 1.0)
    sim.run_round()
    assert victim not in sim.tree
    assert all(o in sim.tree for o in orphans)
    assert sim.tree.validate(sim.net.alive_ids()) is None


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
    assert sim.tree.validate(sim.net.alive_ids()) is None


def test_least_stall_keeps_map():
    # a lone sensor can never elect a host node; rounds must still complete
    cfg = SimConfig(n=1, seed=5, initial_energy=0.1, protocol="least")
    sim = Simulation(cfg, nodes=[SensorNode(id=1, pos=Point(30.0, 50.0), energy=0.1)])
    m1 = sim.run_round()
    m2 = sim.run_round()
    assert m2.setup_energy == 0.0  # stalled: no control traffic
    assert sim.tree.first_level() == [1]
    assert m2.steady_energy > 0.0


def test_first_level_equals_flattened_heirs():
    cfg = SimConfig(n=10, seed=19, initial_energy=1e9, protocol="least", max_rounds=30)
    sim = Simulation(cfg)
    while sim.round < 30:
        sim.run_round()
        out = sim.last_outcome
        if sim.round >= 2 and out.host_nodes:
            want = sorted(e for heirs in out.heirs.values() for e in heirs)
            assert sim.tree.first_level() == want


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
