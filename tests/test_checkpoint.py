"""A run restored from a round checkpoint equals the uninterrupted run, and the
saved checkpoints are the states the simulator reaches."""

import json

import pytest

from least_sim import SimConfig, Simulation

from checkpoint import CHECKPOINT_DIR, CHECKPOINTS, STAR_LOCK, restore, snapshot


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


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_saved_checkpoint_is_reached_and_resumes(name):
    """The simulator reaches the saved state bit for bit, no earlier round shows
    what the next one first shows, and a run restored from the file shows it
    and then equals the uninterrupted run for 300 rounds."""
    config, at, shows = CHECKPOINTS[name]
    saved = json.loads((CHECKPOINT_DIR / f"{name}.json").read_text())
    sim = Simulation(config)
    for _ in range(at - 1):
        sim.run_round()
        assert not shows(sim), sim.round
    assert snapshot(sim) == saved
    resumed = restore(config, saved)
    assert snapshot(resumed) == saved
    assert resumed.run_round() == sim.run_round() and shows(resumed)
    for _ in range(299):
        assert resumed.run_round() == sim.run_round()
    assert snapshot(resumed) == snapshot(sim)
