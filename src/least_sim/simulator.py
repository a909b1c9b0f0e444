"""Round driver: setup, steady-state traffic, death bookkeeping, metrics.

One Simulation owns one Network, one RandomStream and one EnergyLedger; a
round is setup (elections, relocation, charged control traffic) followed by
steady state (every selected sender pushes its packets hop by hop to the
base station). Dead nodes are pruned at the next round boundary, their
orphans re-homed to the first alive ancestor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BS_ID, Network, Point, RandomStream, SensorNode
from .energy import EnergyLedger, EnergyParams, apply_messages, charge, tx_cost
from .protocols import (
    ProtocolParams,
    ProtocolStallError,
    SetupOutcome,
    leach_setup,
    least_setup,
)
from .tree import RoutingTree

PROTOCOLS = ("leach", "least")


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """One reproducible experiment: field, protocol, probabilities, seed."""

    n: int = 100
    area_w: float = 100.0
    area_h: float = 100.0
    bs_pos: Point = Point(50.0, 50.0)
    initial_energy: float = 0.1
    params: ProtocolParams = ProtocolParams()
    energy: EnergyParams = EnergyParams()
    protocol: str = "least"
    seed: int = 1
    traffic_fraction: float = 1.0
    packets_per_sender: int = 1
    max_rounds: int = 20000

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1: {self.n}")
        for name in ("area_w", "area_h", "initial_energy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if self.area_w <= 0 or self.area_h <= 0:
            raise ValueError("area dimensions must be positive")
        if self.initial_energy < 0:
            raise ValueError(f"initial_energy must be >= 0: {self.initial_energy}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}: {self.protocol!r}")
        if not 0.0 <= self.traffic_fraction <= 1.0:
            raise ValueError(f"traffic_fraction out of [0,1]: {self.traffic_fraction}")
        if self.packets_per_sender < 0:
            raise ValueError("packets_per_sender must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    dead_count: int
    total_energy: float
    setup_energy: float
    steady_energy: float
    first_level_width: int
    max_depth: int


@dataclass(frozen=True)
class LifetimeSummary:
    first_death_round: int | None
    half_life_round: int | None
    all_dead_round: int | None
    avg_energy_per_packet: float


def place_nodes(config: SimConfig, stream: RandomStream) -> list[SensorNode]:
    """Uniform i.i.d. placement; ids 1..n in draw order (x then y per node)."""
    nodes = []
    for i in range(1, config.n + 1):
        x = stream.uniform(0.0, config.area_w)
        y = stream.uniform(0.0, config.area_h)
        nodes.append(SensorNode(id=i, pos=Point(x, y), energy=config.initial_energy))
    return nodes


class Simulation:
    """Drives rounds for one (config, seed) pair.

    ``nodes`` may be injected for fixture-based tests, in which case the
    placement draws are skipped and the stream starts at the elections.
    """

    def __init__(self, config: SimConfig, nodes: list[SensorNode] | None = None):
        self.config = config
        self.stream = RandomStream(config.seed)
        if nodes is None:
            nodes = place_nodes(config, self.stream)
        self.net = Network(nodes, config.bs_pos)
        self.ledger = EnergyLedger()
        self.tree: RoutingTree | None = None
        self.round = 0
        self.initial_total = self.net.total_energy()
        self.delivered_total = 0
        self.attempted_total = 0
        self.last_outcome: SetupOutcome | None = None
        self.last_delivered = 0
        self.last_attempted = 0

    # -- round phases -------------------------------------------------

    def _prune_dead(self) -> None:
        """Drop dead nodes from the map; orphans climb to the first alive ancestor."""
        tree = self.tree
        if tree is None:
            return
        nodes = self.net.nodes
        dead = [i for i in tree.nodes() if not nodes[i].alive]
        if not dead:
            return
        old_parent = tree.parent_map()

        def resolve(p: int) -> int:
            while p != BS_ID and not nodes[p].alive:
                p = old_parent[p]
            return p

        alive_in_tree = [i for i in tree.nodes() if nodes[i].alive]
        # attach parents before children: order by old depth
        depth = {}
        for i in alive_in_tree:
            d, cur = 0, i
            while cur != BS_ID:
                cur = old_parent[cur]
                d += 1
            depth[i] = d
        rebuilt = RoutingTree()
        for i in sorted(alive_in_tree, key=lambda v: (depth[v], v)):
            rebuilt.attach(i, resolve(old_parent[i]))
        self.tree = rebuilt

    def _run_setup(self) -> SetupOutcome:
        cfg = self.config
        try:
            if cfg.protocol == "leach":
                outcome = leach_setup(self.net, cfg.params, self.round, self.stream)
            else:
                outcome = least_setup(self.net, self.tree, cfg.params, self.round, self.stream)
        except ProtocolStallError:
            # No legal host node this round: keep the repaired map as is.
            outcome = SetupOutcome(self.tree)
        self.tree = outcome.tree
        return outcome

    def _select_senders(self, alive: list[int]) -> list[int]:
        frac = self.config.traffic_fraction
        if frac >= 1.0:
            return list(alive)
        k = int(frac * len(alive))
        if k == 0:
            return []
        pool = list(alive)
        for i in range(k):
            j = i + self.stream.next_u64() % (len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def _steady_phase(self) -> tuple[int, int]:
        cfg = self.config
        packets = cfg.packets_per_sender
        senders = self._select_senders(self.net.alive_ids())
        delivered = attempted = 0
        if packets == 0:
            return 0, 0
        nodes = self.net.nodes
        tree = self.tree
        for sender in senders:
            attempted += packets
            if not nodes[sender].alive:
                continue  # killed forwarding someone else's traffic
            path = tree.path_to_root(sender)
            ok = True
            for hop in range(len(path) - 1):
                fwd = path[hop]
                if not nodes[fwd].alive:
                    ok = False
                    break
                cost = tx_cost(self.net.dist(fwd, path[hop + 1]), packets, cfg.energy)
                if charge(self.net, fwd, cost, self.ledger) < cost:
                    ok = False  # died mid-transmission: packet lost
                    break
            if ok:
                delivered += packets
        return delivered, attempted

    def run_round(self) -> RoundMetrics:
        if self.net.alive_count() == 0:
            raise SimulationError("no alive sensors")
        self.round += 1
        self.ledger.start_round()
        self._prune_dead()
        outcome = self.last_outcome = self._run_setup()
        apply_messages(self.net, outcome.messages, self.config.energy, self.ledger)
        width = len(self.tree.first_level())
        depth = self.tree.max_depth()
        self.ledger.bucket = "steady"
        delivered, attempted = self._steady_phase()
        self.last_delivered, self.last_attempted = delivered, attempted
        self.delivered_total += delivered
        self.attempted_total += attempted
        return RoundMetrics(
            round=self.round,
            dead_count=self.config.n - self.net.alive_count(),
            total_energy=self.net.total_energy(),
            setup_energy=self.ledger.round_setup,
            steady_energy=self.ledger.round_steady,
            first_level_width=width,
            max_depth=depth,
        )

    def run(self) -> tuple[list[RoundMetrics], LifetimeSummary]:
        rows = []
        while self.net.alive_count() > 0 and self.round < self.config.max_rounds:
            rows.append(self.run_round())
        return rows, self._summarize(rows)

    def _summarize(self, rows: list[RoundMetrics]) -> LifetimeSummary:
        n = self.config.n
        if not rows:  # every sensor was dead before round one
            return LifetimeSummary(0, 0, 0, 0.0)
        first = half = dead = None
        half_target = math.ceil(n / 2)
        for row in rows:
            if first is None and row.dead_count > 0:
                first = row.round
            if half is None and row.dead_count >= half_target:
                half = row.round
            if dead is None and row.dead_count == n:
                dead = row.round
        per_packet = (
            self.ledger.steady_total / self.delivered_total if self.delivered_total else 0.0
        )
        return LifetimeSummary(first, half, dead, per_packet)


def run(config: SimConfig) -> tuple[list[RoundMetrics], LifetimeSummary]:
    """Run one simulation to extinction or the round cap."""
    return Simulation(config).run()


METRICS_HEADER = "round,dead,total_energy_j,setup_energy_j,steady_energy_j,first_level_width,max_depth"


def fmt_float(x: float) -> str:
    """Fixed CSV float formatting: nine significant digits."""
    return f"{x:.9g}"


def metrics_csv(rows: list[RoundMetrics]) -> str:
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(
            f"{r.round},{r.dead_count},{fmt_float(r.total_energy)},"
            f"{fmt_float(r.setup_energy)},{fmt_float(r.steady_energy)},"
            f"{r.first_level_width},{r.max_depth}"
        )
    return "\n".join(lines) + "\n"
