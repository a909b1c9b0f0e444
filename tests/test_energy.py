"""Transmission pricing, charging semantics, and ledger bookkeeping."""

import pytest

from least_sim import (
    ControlMessage,
    EnergyLedger,
    EnergyParams,
    Point,
    ProtocolParams,
    RandomStream,
    apply_messages,
    charge,
    leach_setup,
    tx_cost,
)
from least_sim.energy import DeadNodeError

from conftest import make_net


def test_tx_cost_formula():
    p = EnergyParams(epsilon_amp=1e-6)
    assert tx_cost(0.0, 1, p) == 0.0
    assert tx_cost(10.0, 1, p) == pytest.approx(1e-4)
    assert tx_cost(20.0, 1, p) == pytest.approx(4 * tx_cost(10.0, 1, p))  # quadratic
    assert tx_cost(10.0, 3, p) == pytest.approx(3e-4)
    assert tx_cost(5.0, 0, p) == 0.0


def test_tx_cost_rejects_negative():
    p = EnergyParams()
    with pytest.raises(ValueError):
        tx_cost(-1.0, 1, p)
    with pytest.raises(ValueError):
        tx_cost(1.0, -1, p)


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(epsilon_amp=-1.0)


def test_charge_basic_arithmetic():
    net = make_net([(0, 0)], energy=0.1)
    assert charge(net, 1, 0.04) == pytest.approx(0.04)
    assert net.node(1).energy == pytest.approx(0.06)
    assert net.node(1).alive


def test_charge_clamps_and_kills():
    net = make_net([(0, 0)], energy=0.03)
    ledger = EnergyLedger()
    spent = charge(net, 1, 0.05, ledger)
    assert spent == pytest.approx(0.03)
    assert net.node(1).energy == 0.0
    assert not net.node(1).alive
    assert net.alive_count() == 0
    assert ledger.total() == pytest.approx(0.03)


def test_charge_zero_is_identity():
    net = make_net([(0, 0)], energy=0.5)
    assert charge(net, 1, 0.0) == 0.0
    assert net.node(1).energy == 0.5


def test_charge_dead_node_is_an_error():
    net = make_net([(0, 0)], energy=0.01)
    charge(net, 1, 1.0)
    with pytest.raises(DeadNodeError):
        charge(net, 1, 0.001)


def test_apply_empty_log_is_identity(five_net):
    before = five_net.total_energy()
    apply_messages(five_net, [], EnergyParams())
    assert five_net.total_energy() == before


def test_apply_single_announcement():
    net = make_net([(0, 0)], energy=1.0)
    msg = ControlMessage("ch_announce", 1, 20.0)
    apply_messages(net, [msg], EnergyParams(epsilon_amp=1e-6))
    assert net.node(1).energy == pytest.approx(1.0 - 4e-4)


def test_bs_messages_are_free(five_net):
    before = five_net.total_energy()
    msg = ControlMessage("bs_notify_first_level", 0, 70.0)
    apply_messages(five_net, [msg], EnergyParams())
    assert five_net.total_energy() == before


def test_apply_skips_senders_dead_earlier_in_log():
    net = make_net([(0, 0), (3, 4)], energy=1e-9)
    msgs = [
        ControlMessage("ch_announce", 1, 100.0),  # kills node 1
        ControlMessage("join_request", 1, 100.0, receiver=2),  # never transmitted
    ]
    apply_messages(net, msgs, EnergyParams(epsilon_amp=1.0))
    assert not net.node(1).alive
    assert net.node(2).alive


def test_ledger_matches_brute_force_sum(line10_net):
    """Full setup log on a ten-node fixture: ledger equals the direct sum."""
    params = EnergyParams()
    out = leach_setup(line10_net, ProtocolParams(p_ch=0.3), 1, RandomStream(42))
    ledger = EnergyLedger()
    before = line10_net.total_energy()
    apply_messages(line10_net, out.messages, params, ledger)
    want = sum(tx_cost(m.tx_distance, m.packets, params) for m in out.messages if m.sender != 0)
    assert ledger.total() == pytest.approx(want, rel=1e-12)
    assert before - line10_net.total_energy() == pytest.approx(want, rel=1e-9)


def test_conservation_and_monotonicity_across_rounds():
    from least_sim import SimConfig, Simulation

    cfg = SimConfig(protocol="least", seed=6, n=25, initial_energy=0.01, max_rounds=60)
    sim = Simulation(cfg)
    initial = sim.net.total_energy()
    last_per_node = {i: sim.net.node(i).energy for i in range(1, 26)}
    while sim.net.alive_count() > 0 and sim.round < 60:
        sim.run_round()
        for i in range(1, 26):
            e = sim.net.node(i).energy
            assert e <= last_per_node[i] + 1e-15  # never increases
            last_per_node[i] = e
        drop = initial - sim.net.total_energy()
        assert drop == pytest.approx(sim.ledger.total(), rel=1e-9)


def test_total_spend_reorder_invariant(line10_net):
    params = EnergyParams()
    out = leach_setup(line10_net, ProtocolParams(p_ch=0.3), 1, RandomStream(42))
    ledger_fwd = EnergyLedger()
    apply_messages(line10_net, out.messages, params, ledger_fwd)

    net2 = make_net([(10.0 * i - 5.0, 50.0) for i in range(1, 11)])
    ledger_rev = EnergyLedger()
    apply_messages(net2, list(reversed(out.messages)), params, ledger_rev)
    assert ledger_fwd.total() == pytest.approx(ledger_rev.total(), rel=1e-12)


def test_rx_pricing_point_to_point():
    net = make_net([(0, 0), (3, 4)], energy=1.0)
    params = EnergyParams(epsilon_amp=0.0, rx_cost=0.01)
    msg = ControlMessage("join_request", 1, 5.0, receiver=2)
    apply_messages(net, [msg], params)
    assert net.node(1).energy == 1.0
    assert net.node(2).energy == pytest.approx(0.99)


def test_rx_pricing_broadcast_radius():
    # nodes at distance 5 and 50 from the sender; broadcast reaches 10
    net = make_net([(0, 0), (5, 0), (50, 0)], energy=1.0)
    params = EnergyParams(epsilon_amp=0.0, rx_cost=0.01)
    msg = ControlMessage("ch_announce", 1, 10.0)
    apply_messages(net, [msg], params)
    assert net.node(2).energy == pytest.approx(0.99)
    assert net.node(3).energy == 1.0


def test_ledger_setup_steady_split():
    ledger = EnergyLedger()
    ledger.start_round()
    ledger.record(1, 0.5)
    ledger.bucket = "steady"
    ledger.record(2, 0.25)
    assert ledger.round_setup == pytest.approx(0.5)
    assert ledger.round_steady == pytest.approx(0.25)
    assert ledger.setup_total == pytest.approx(0.5)
    assert ledger.steady_total == pytest.approx(0.25)
    assert ledger.total() == pytest.approx(0.75)
