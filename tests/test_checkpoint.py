"""A run restored from a round checkpoint equals the uninterrupted run."""

import json

import pytest

from least_sim import SimConfig, Simulation

from checkpoint import restore, snapshot

#: Criterion 1's profile (n=100, 0.1 J, no data traffic) with a 20,000-round cap:
#: LEAST seed 1 locks into a star from round 6,174 on, and every later host election stalls.
STAR_LOCK = SimConfig(protocol="least", seed=1, traffic_fraction=0.0, max_rounds=20_000)


@pytest.mark.parametrize("config, at", [
    (STAR_LOCK, 6_100),
    (SimConfig(protocol="least", seed=3), 700),
    (SimConfig(protocol="leach", seed=3), 700),
], ids=["least_star_lock", "least_full_traffic", "leach_full_traffic"])
def test_restored_run_equals_uninterrupted(config, at):
    sim = Simulation(config)
    for _ in range(at):
        sim.run_round()
    snap = json.loads(json.dumps(snapshot(sim)))
    resumed = restore(config, snap)
    assert snapshot(resumed) == snap
    for _ in range(300):
        assert resumed.run_round() == sim.run_round()
    assert snapshot(resumed) == snapshot(sim)
