"""Round checkpoints: a run's whole state as a JSON-ready dict, and a
``Simulation`` rebuilt from one that goes on as the uninterrupted run would.

Floats are stored as ``float.hex``, so a restore is bit-exact. Only public
attributes are read and written. The farthest-sensor cache is an exact
shortcut (README, "Determinism"), so it is not kept, and neither is the
alive count of the last prune: pruning a map again that no death has
changed since gives the same parent list.
"""

from least_sim import Network, RandomStream, RoutingTree, SimConfig, Simulation


def snapshot(sim: Simulation) -> dict:
    net = sim.net
    return {
        "positions": [list(map(float.hex, p)) for p in net.table[0][1:]],
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
