"""Round checkpoints: a run's whole state as a JSON-ready dict, and a
``Simulation`` rebuilt from one that goes on as the uninterrupted run would.

Floats are stored as ``float.hex``, so a restore is bit-exact. Only public
attributes are read and written. The farthest-sensor cache is an exact
shortcut (README, "Determinism"), so it is not kept, and neither is the
alive count of the last prune: pruning a map again that no death has
changed since gives the same parent list.
"""

import json
from pathlib import Path

from least_sim import Network, RandomStream, SimConfig, Simulation
from least_sim.core import BS_ID
from least_sim.tree import RoutingTree

CHECKPOINT_DIR = Path(__file__).parent / "golden" / "checkpoints"

#: Criterion 1's profile (n=100, 0.1 J, no data traffic) with a 20,000-round cap:
#: LEAST seed 1 locks into a star at round 6,174, and 2,648 host elections stall by the cap.
STAR_LOCK = SimConfig(protocol="least", seed=1, traffic_fraction=0.0, max_rounds=20_000)

#: Saved states deep in long runs: name -> (config, round k, what round k is the
#: first to show). ``golden/checkpoints/<name>.json`` holds the state after round k - 1.
CHECKPOINTS = {
    # the star lock's onset: the first stalled host election
    "star_lock_onset": (STAR_LOCK, 6_174, lambda sim: not sim.last_outcome.messages),
    # the golden traffic_full profile: every alive sensor at level one
    "all_level_one": (
        SimConfig(protocol="least", seed=1, n=30, initial_energy=0.002, max_rounds=400), 34,
        lambda sim: all(sim.tree.parent[i] == BS_ID for i in sim.net.alive_ids())),
    # the first death at full traffic and the defaults
    "first_death": (SimConfig(protocol="least", seed=3), 270,
                    lambda sim: sim.first_death is not None),
    # a lone survivor at partial traffic, which then idles to the round cap
    "lone_survivor": (SimConfig(protocol="least", seed=5, n=30, traffic_fraction=0.5), 1_758,
                      lambda sim: sim.net.alive_count() == 1),
}


def snapshot(sim: Simulation) -> dict:
    net = sim.net
    return {
        "positions": [list(map(float.hex, p)) for p in net.xy[1:]],
        "energy": list(map(float.hex, net.energy[1:])),
        "last_ch": list(net.last_ch),
        "last_hn": list(net.last_hn),
        "parent": None if sim.tree is None else list(sim.tree.parent),
        "stream": sim.stream._state,
        "setup_total": sim.setup.total.hex(),
        "steady_total": sim.steady.total.hex(),
        "delivered_total": sim.delivered_total,
        "round": sim.round,
        "first_death": sim.first_death,
        "half_life": sim.half_life,
        "all_dead": sim.all_dead,
    }


def restore(config: SimConfig, snap: dict) -> Simulation:
    """A ``Simulation`` of ``config`` in the state ``snap`` holds. The injected
    ``Network`` gets the saved energies, so its alive lists follow them."""
    positions = [tuple(map(float.fromhex, p)) for p in snap["positions"]]
    net = Network(positions, config.bs_pos, list(map(float.fromhex, snap["energy"])))
    net.last_ch[:], net.last_hn[:] = snap["last_ch"], snap["last_hn"]
    sim = Simulation(config, net=net)
    sim.stream = RandomStream(snap["stream"])
    sim.tree = None if snap["parent"] is None else RoutingTree(list(snap["parent"]))
    sim.setup.total = float.fromhex(snap["setup_total"])
    sim.steady.total = float.fromhex(snap["steady_total"])
    sim.delivered_total, sim.round = snap["delivered_total"], snap["round"]
    sim.first_death, sim.half_life, sim.all_dead = (
        snap["first_death"], snap["half_life"], snap["all_dead"])
    return sim


def write_checkpoints() -> None:
    """Run every checkpoint's config to its round and save the state."""
    CHECKPOINT_DIR.mkdir(parents=True, exist_ok=True)
    for name, (config, at, _) in CHECKPOINTS.items():
        sim = Simulation(config)
        for _ in range(at - 1):
            sim.run_round()
        (CHECKPOINT_DIR / f"{name}.json").write_text(json.dumps(snapshot(sim), indent=1) + "\n")
