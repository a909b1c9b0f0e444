"""Metamorphic relations over whole runs: changes to a config that must
leave every float of a run as it was, checked with no reference model.

Scaling by a power of two: multiply ``area_w``, ``area_h`` and ``bs_pos`` by
2**k and ``epsilon_amp`` by 4**-k. Placement draws, every ``math.dist``, every
distance comparison and every eps*d*d price scale exactly (no rounding
changes while nothing overflows or turns subnormal), so every election,
map, death and spend is the same float. The ``k`` drawn here lie in -8..8,
which keeps the field's span far inside ``check_span`` and every distance
and price far above the subnormals.

Mirroring x: negate every x, the base station's too, in an injected
``Network``. Every distance is the same float, so every run is too, while
the x-walks over rows that compute on demand run in the opposite direction
and meet their ties from the other side. Both runs are injected, so both
streams start at the elections.

``network_stats`` obeys both: its pair sum scales exactly, and its farthest
distances are maxima, whichever way the walk meets them. Scaling also holds
for runs restored from the saved round checkpoints, deep in long runs, and
for ``analyze``'s estimates, which price eps*d*d from those statistics.
"""

import json
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings, strategies as st

from least_sim import Network, RandomStream, SimConfig, Simulation, network_stats
from least_sim.cli import cmd_analyze
from least_sim.simulator import place_nodes

from checkpoint import CHECKPOINT_DIR, CHECKPOINTS, restore
from conftest import small_configs


def hexed(values) -> list:
    return [v.hex() if isinstance(v, float) else v for v in values]


def run_state(config: SimConfig, net: Network | None = None) -> list:
    """Every round's ``RoundMetrics``, then the summary, the last map and the
    end state of the run's stream and tallies; floats as ``float.hex``."""
    sim = Simulation(config, net)
    rows, summary = sim.run()
    return [*map(hexed, map(astuple, rows)), hexed(astuple(summary)), sim.tree.parent,
            sim.stream._state, sim.delivered_total, sim.setup.total.hex(), sim.steady.total.hex()]


def scaled(config: SimConfig, k: int) -> SimConfig:
    (x, y), s = config.bs_pos, 2.0 ** k
    return replace(config, area_w=config.area_w * s, area_h=config.area_h * s, bs_pos=(x * s, y * s),
                   energy=replace(config.energy, epsilon_amp=config.energy.epsilon_amp * 4.0 ** -k))


@settings(max_examples=200, deadline=None)
@given(small_configs(), st.integers(-8, 8).filter(bool))
def test_power_of_two_scaling_leaves_every_run_bit_for_bit(config, k):
    assert run_state(scaled(config, k)) == run_state(config)


def resumed_rounds(config: SimConfig, snap: dict) -> list:
    """Each round's ``RoundMetrics`` (floats as ``float.hex``), stream state and
    parent list, for 300 rounds of a run restored from ``snap``."""
    sim = restore(config, snap)
    return [(hexed(astuple(sim.run_round())), sim.stream._state, list(sim.tree.parent))
            for _ in range(300)]


@pytest.mark.parametrize("k", [-3, 5])
@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_power_of_two_scaling_leaves_a_run_from_each_checkpoint_bit_for_bit(name, k):
    config, saved = CHECKPOINTS[name][0], json.loads((CHECKPOINT_DIR / f"{name}.json").read_text())
    s = 2.0 ** k
    moved = {**saved, "positions": [[(float.fromhex(c) * s).hex() for c in p] for p in saved["positions"]]}
    assert resumed_rounds(scaled(config, k), moved) == resumed_rounds(config, saved)


@pytest.mark.parametrize("k", [-8, -3, -1, 1, 2, 5, 8])
def test_power_of_two_scaling_leaves_analyze_output_byte_for_byte(k):
    config = SimConfig(n=60)
    assert cmd_analyze(scaled(config, k), [1, 2, 3]) == cmd_analyze(config, [1, 2, 3])


def mirrored_runs(config: SimConfig) -> tuple[list, list]:
    """The run on the config's placement, injected, and on its mirror image."""
    positions = place_nodes(config, RandomStream(config.seed))
    energies = [config.initial_energy] * config.n
    x, y = config.bs_pos
    mirror = Network([(-px, py) for px, py in positions], (-x, y), energies)
    return run_state(config, Network(positions, config.bs_pos, energies)), run_state(config, mirror)


@settings(max_examples=100, deadline=None)
@given(small_configs())
def test_mirroring_x_leaves_every_run_bit_for_bit(config):
    original, mirrored = mirrored_runs(config)
    assert mirrored == original


@pytest.mark.parametrize("protocol", ["leach", "least"])
def test_mirroring_x_leaves_an_on_demand_run_bit_for_bit(protocol):
    """At n=800 the rows compute on demand, and both walks run mirrored; on
    0.005 J about a tenth of the sensors die in 20 rounds, so rescans follow."""
    config = SimConfig(n=800, protocol=protocol, seed=3, initial_energy=0.005, max_rounds=20)
    original, mirrored = mirrored_runs(config)
    assert mirrored == original


def stats(positions) -> tuple[float, float]:
    s = network_stats(positions)
    return s.d_bar, s.d_bar_max


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 150), st.integers(0, 999), st.integers(-8, 8).filter(bool))
def test_network_stats_scale_by_powers_of_two_and_ignore_mirroring(n, seed, k):
    positions, s = place_nodes(SimConfig(n=n), RandomStream(seed)), 2.0 ** k
    d_bar, d_bar_max = stats(positions)
    assert stats([(x * s, y * s) for x, y in positions]) == (d_bar * s, d_bar_max * s)
    assert stats([(-x, y) for x, y in positions]) == (d_bar, d_bar_max)
