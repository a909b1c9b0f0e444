"""Transmission pricing, charging semantics, and per-phase energy tallies."""

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import EnergyParams, EnergyTally, ProtocolParams, RandomStream, apply_messages
from least_sim.energy import _charge_log
from least_sim.protocols import MESSAGE_KINDS, leach_setup

from conftest import DeadNodeError, charge, checked, make_net, tally_add, tx_cost


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
    assert net.energy[1] == pytest.approx(0.06)
    assert net.energy[1] > 0


def test_charge_clamps_and_kills():
    net = make_net([(0, 0)], energy=0.03)
    spent = charge(net, 1, 0.05)
    assert spent == pytest.approx(0.03)
    assert net.energy[1] == 0.0
    assert net.alive_count() == 0


def test_charge_zero_is_identity():
    net = make_net([(0, 0)], energy=0.5)
    assert charge(net, 1, 0.0) == 0.0
    assert net.energy[1] == 0.5


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
    msg = ("ch_announce", 1, 20.0, 1, None)
    apply_messages(net, [msg], EnergyParams(epsilon_amp=1e-6))
    assert net.energy[1] == pytest.approx(1.0 - 4e-4)


def test_bs_messages_are_free(five_net):
    before = five_net.total_energy()
    msg = ("bs_notify_first_level", 0, 70.0, 1, None)
    apply_messages(five_net, [msg], EnergyParams())
    assert five_net.total_energy() == before


def test_apply_skips_senders_dead_earlier_in_log():
    net = make_net([(0, 0), (3, 4)], energy=1e-9)
    msgs = [
        ("ch_announce", 1, 100.0, 1, None),  # kills node 1
        ("join_request", 1, 100.0, 1, 2),  # never transmitted
    ]
    apply_messages(net, msgs, EnergyParams(epsilon_amp=1.0))
    assert net.energy[1] == 0.0
    assert net.energy[2] > 0


def test_ledger_matches_brute_force_sum(line10_net):
    """Full setup log on a ten-node fixture: the tally equals the direct sum."""
    params = EnergyParams()
    out = leach_setup(line10_net, ProtocolParams(p_ch=0.3), 1, RandomStream(42))
    tally = EnergyTally()
    before = line10_net.total_energy()
    apply_messages(line10_net, out.messages, params, tally)
    want = sum(tx_cost(m.tx_distance, m.packets, params) for m in checked(out.messages) if m.sender != 0)
    assert tally.total == pytest.approx(want, rel=1e-12)
    assert before - line10_net.total_energy() == pytest.approx(want, rel=1e-9)


def test_conservation_and_monotonicity_across_rounds():
    from least_sim import SimConfig, Simulation

    cfg = SimConfig(protocol="least", seed=6, n=25, initial_energy=0.01, max_rounds=60)
    sim = Simulation(cfg)
    initial = sim.net.total_energy()
    last_per_node = {i: sim.net.energy[i] for i in range(1, 26)}
    while sim.net.alive_count() > 0 and sim.round < 60:
        sim.run_round()
        for i in range(1, 26):
            e = sim.net.energy[i]
            assert e <= last_per_node[i] + 1e-15  # never increases
            last_per_node[i] = e
        drop = initial - sim.net.total_energy()
        assert drop == pytest.approx(sim.setup.total + sim.steady.total, rel=1e-9)


def test_total_spend_reorder_invariant(line10_net):
    params = EnergyParams()
    out = leach_setup(line10_net, ProtocolParams(p_ch=0.3), 1, RandomStream(42))
    tally_fwd = EnergyTally()
    apply_messages(line10_net, out.messages, params, tally_fwd)

    net2 = make_net([(10.0 * i - 5.0, 50.0) for i in range(1, 11)])
    tally_rev = EnergyTally()
    apply_messages(net2, list(reversed(out.messages)), params, tally_rev)
    assert tally_fwd.total == pytest.approx(tally_rev.total, rel=1e-12)


def test_rx_pricing_point_to_point():
    net = make_net([(0, 0), (3, 4)], energy=1.0)
    params = EnergyParams(epsilon_amp=0.0, rx_cost=0.01)
    msg = ("join_request", 1, 5.0, 1, 2)
    apply_messages(net, [msg], params)
    assert net.energy[1] == 1.0
    assert net.energy[2] == pytest.approx(0.99)


def test_rx_pricing_broadcast_radius():
    # nodes at distance 5 and 50 from the sender; broadcast reaches 10
    net = make_net([(0, 0), (5, 0), (50, 0)], energy=1.0)
    params = EnergyParams(epsilon_amp=0.0, rx_cost=0.01)
    msg = ("ch_announce", 1, 10.0, 1, None)
    apply_messages(net, [msg], params)
    assert net.energy[2] == pytest.approx(0.99)
    assert net.energy[3] == 1.0


def test_setup_message_is_received_when_its_sender_dies_sending_it():
    """A setup sender with less than the cost spends what it had and dies,
    and its message is still received, unlike a steady-phase packet: the
    addressee, or every alive sensor in a broadcast's reach, pays rx_cost."""
    params = EnergyParams(epsilon_amp=1.0, rx_cost=0.01)  # a 5 m send costs 25 J
    for record, payers, spent in [(("join_request", 1, 5.0, 1, 2), [2], 1e-9 + 0.01),
                                  (("ch_announce", 1, 10.0, 1, None), [2, 3], 1e-9 + 0.01 + 0.01)]:
        net = make_net([(0, 0), (3, 4), (6, 8)], energy=[1e-9, 1.0, 1.0])
        tally = EnergyTally()
        apply_messages(net, [record], params, tally)
        assert net.energy[1] == 0.0 and net.alive_ids() == [2, 3]
        assert [net.energy[i] for i in (2, 3)] == [1.0 - 0.01 if i in payers else 1.0
                                                   for i in (2, 3)]
        assert tally.total == spent  # the sender's last 1e-9 J, then each receiver


def test_ledger_setup_steady_split():
    """Each phase's spends go to its own tally, added to its ``round`` and ``total``."""
    setup, steady = EnergyTally(), EnergyTally()
    tally_add(setup, [0.5])
    tally_add(steady, [0.25, 0.125])
    assert (setup.round, setup.total) == (0.5, 0.5)
    assert (steady.round, steady.total) == (0.375, 0.375)
    steady.round = 0.0  # a new round
    tally_add(steady, [0.25])
    assert (steady.round, steady.total) == (0.25, 0.625)
    assert (setup.round, setup.total) == (0.5, 0.5)


# -- inline charging against a loop of charge calls ---------------------------

KINDS = sorted(MESSAGE_KINDS)


def reference_apply(net, messages, params, tally):
    """``apply_messages`` written as one ``charge`` call per payment."""
    eps, rx_cost = params.epsilon_amp, params.rx_cost
    for _, sender, d, packets, receiver in messages:
        if sender != 0:
            if net.energy[sender] == 0.0:
                continue
            tally_add(tally, [charge(net, sender, eps * d * d * packets)])
        if rx_cost > 0.0 and packets > 0:
            if receiver is not None:
                if receiver != 0 and net.energy[receiver] > 0:
                    tally_add(tally, [charge(net, receiver, rx_cost * packets)])
            else:
                for nid in net.alive_ids():
                    if nid != sender and net.rows[sender][nid] <= d:
                        tally_add(tally, [charge(net, nid, rx_cost * packets)])


@st.composite
def charging_cases(draw):
    n = draw(st.integers(1, 6))
    coord = st.floats(0.0, 100.0)
    positions = [(draw(coord), draw(coord)) for _ in range(n)]
    # small batteries, so that senders die partway through the log; with
    # epsilon 2**-30, d = 32 and d = 16 at 4 packets cost exactly 2**-20
    energies = [draw(st.sampled_from([2.0**-20, 2.0**-19, 1e-6, 5e-6, 1e-5])) for _ in range(n)]
    record = st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, n),  # 0 is the base station
        st.one_of(st.sampled_from([0.0, 16.0, 32.0]), st.floats(0.0, 150.0)),
        st.integers(0, 3),
        st.one_of(st.none(), st.integers(0, n)),
    )
    log = draw(st.lists(record, max_size=25))
    rx_cost = draw(st.sampled_from([0.0, 1e-7, 1e-6]))
    return positions, energies, log, rx_cost


def used_tally():
    """A tally that already holds an earlier round's spend and this round's."""
    tally = EnergyTally()
    tally_add(tally, [3e-7])
    tally.round = 0.0
    tally_add(tally, [1e-7])
    return tally


def charged_state(net, tally):
    """Everything charging may touch, for ``==`` comparison."""
    ids = range(1, net.n + 1)
    return ([net.energy[i] for i in ids], [net.energy[i] > 0 for i in ids], net.alive_ids(),
            (tally.round, tally.total))


@settings(max_examples=300, deadline=None)
@given(charging_cases())
def test_inline_charging_equals_charge_calls(case):
    """The public entry point, which checks each record, and the unchecked
    loop the simulator calls both equal a loop of ``charge`` calls."""
    positions, energies, log, rx_cost = case
    params = EnergyParams(epsilon_amp=2.0**-30, rx_cost=rx_cost)
    want_net, want_tally = make_net(positions, energies), used_tally()
    reference_apply(want_net, log, params, want_tally)
    for apply in (apply_messages, _charge_log):
        got_net, got_tally = make_net(positions, energies), used_tally()
        apply(got_net, log, params, got_tally)
        assert charged_state(got_net, got_tally) == charged_state(want_net, want_tally), apply


BAD_RECORDS = [("relocate_join", 1, 1.0, 1, None), ("ch_announce", 1, -0.5, 1, None),
               ("ch_announce", 1, float("nan"), 1, None), ("join_request", 1, 1.0, 1.5, 0),
               ("join_request", 1, 1.0, -1, 0), ("join_request", 1, 1.0, 1, -1),
               ("join_request", 0, 1.0, 1, 99), ("join_request", -1, 1.0, 1, 0),
               ("ch_announce", 99, 1.0, 1, None)]


@settings(max_examples=200, deadline=None)
@given(charging_cases(), st.sampled_from(BAD_RECORDS), st.data())
def test_bad_record_raises_after_charging_the_records_before_it(case, bad, data):
    """``apply_messages`` over a log whose record k is bad leaves the energies
    and the tally that the unchecked loop leaves over the first k records."""
    positions, energies, log, rx_cost = case
    k = data.draw(st.integers(0, len(log)))
    params = EnergyParams(epsilon_amp=2.0**-30, rx_cost=rx_cost)
    got_net, want_net = make_net(positions, energies), make_net(positions, energies)
    got_tally, want_tally = used_tally(), used_tally()
    with pytest.raises((ValueError, KeyError)):
        apply_messages(got_net, log[:k] + [bad] + log[k:], params, got_tally)
    _charge_log(want_net, log[:k], params, want_tally)
    assert charged_state(got_net, got_tally) == charged_state(want_net, want_tally)


def test_apply_rejects_malformed_records():
    params = EnergyParams()
    for record in [("relocate_join", 1, 1.0, 1, None),
                   ("ch_announce", 1, -0.5, 1, None),
                   ("ch_announce", 1, float("nan"), 1, None),
                   ("ch_announce", 1, float("inf"), 1, None),
                   ("join_request", 1, 1.0, -1, 2),
                   *[("ch_announce", 1, 1.0, packets, None)
                     for packets in (float("nan"), float("inf"), 1.5, True)]]:
        net = make_net([(0, 0), (3, 4)])
        tally = EnergyTally()
        first = ("ch_announce", 2, 10.0, 1, None)
        with pytest.raises(ValueError):
            apply_messages(net, [first, record], params, tally)
        # the record before the bad one was charged and is in the tally
        spent = params.epsilon_amp * 10.0 * 10.0
        assert (net.energy[1], net.energy[2]) == (1.0, 1.0 - spent)
        assert tally.total == spent


def test_apply_rejects_unknown_senders():
    net = make_net([(0, 0), (3, 4)])
    for sender in (-1, 3):
        with pytest.raises(KeyError, match="unknown sensor id"):
            apply_messages(net, [("ch_announce", sender, 1.0, 1, None)], EnergyParams())
    assert [net.energy[i] for i in (1, 2)] == [1.0, 1.0]


def test_charge_rejects_ids_outside_the_sensors():
    # a bare list index would charge the base station's slot or wrap -1 to sensor n
    net = make_net([(0, 0), (3, 4)])
    for node_id in (0, -1, 3):
        with pytest.raises(KeyError, match="unknown sensor id"):
            charge(net, node_id, 0.1)
    assert net.energy == [0.0, 1.0, 1.0]


def test_apply_rejects_unknown_receivers():
    # on every record: with reception priced or free, from a live, a dead or
    # the base-station sender, and before the sender is charged
    for params in (EnergyParams(epsilon_amp=0.0, rx_cost=0.01), EnergyParams()):
        for sender, energy in ((1, 1.0), (1, 0.0), (0, 1.0)):
            for receiver in (-1, 3):
                net = make_net([(0, 0), (3, 4)], energy=[energy, 1.0])
                tally = EnergyTally()
                with pytest.raises(KeyError, match="unknown sensor id"):
                    apply_messages(net, [("join_request", sender, 5.0, 1, receiver)], params, tally)
                assert net.energy == [0.0, energy, 1.0]
                assert tally.total == 0.0
