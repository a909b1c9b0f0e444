"""Round driver: setup, steady-state traffic, death bookkeeping, metrics.

One Simulation owns one Network, one RandomStream and two EnergyTally
objects, ``setup`` and ``steady``; a round is setup (elections, relocation,
charged control traffic, added to ``setup``) followed by steady state (every
selected sender pushes its packets hop by hop to the base station, each hop
added to ``steady``). Dead nodes are pruned at the next round boundary, their
orphans re-homed to the first alive ancestor.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .core import BS_ID, Network, RandomStream, check_span, finite_xy
from .energy import EnergyParams, EnergyTally, _charge_log
from .protocols import (
    ProtocolParams,
    ProtocolStallError,
    SetupOutcome,
    leach_setup,
    least_setup,
)
from .tree import RoutingTree

PROTOCOLS = ("leach", "least")

#: Largest sensor count: ``analyze`` measures all n(n-1)/2 pairs, and runs slow as n grows.
MAX_N = 10_000


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """One reproducible experiment: field, protocol, probabilities, seed."""

    n: int = 100
    area_w: float = 100.0
    area_h: float = 100.0
    bs_pos: tuple[float, float] = (50.0, 50.0)
    initial_energy: float = 0.1
    params: ProtocolParams = ProtocolParams()
    energy: EnergyParams = EnergyParams()
    protocol: str = "least"
    seed: int = 1
    traffic_fraction: float = 1.0
    packets_per_sender: int = 1
    max_rounds: int = 20000

    def __post_init__(self):
        for name in ("n", "seed", "packets_per_sender", "max_rounds"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer: {value!r}")
        for name, kind in (("params", ProtocolParams), ("energy", EnergyParams)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}: {getattr(self, name)!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1: {self.n}")
        if self.n > MAX_N:
            pairs = self.n * (self.n - 1) // 2
            raise ValueError(f"n must be <= {MAX_N}: {self.n} (analyze would measure "
                             f"{pairs:,} sensor pairs, and runs slow as n grows)")
        bs = self.bs_pos
        if not (isinstance(bs, tuple) and finite_xy([bs])):
            raise ValueError(f"bs_pos must be an (x, y) tuple of finite numbers: {bs!r}")
        for name in ("area_w", "area_h", "initial_energy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        for name in ("area_w", "area_h"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive: {getattr(self, name)}")
        # sensors are placed inside the field, so its corners and the BS bound their spread
        check_span([(0.0, 0.0), (self.area_w, self.area_h), bs], "area_w, area_h and bs_pos")
        if self.initial_energy < 0:
            raise ValueError(f"initial_energy must be >= 0: {self.initial_energy}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}: {self.protocol!r}")
        if not 0.0 <= self.traffic_fraction <= 1.0:
            raise ValueError(f"traffic_fraction out of [0,1]: {self.traffic_fraction}")
        if self.packets_per_sender < 0:
            raise ValueError(f"packets_per_sender must be >= 0: {self.packets_per_sender}")
        if self.packets_per_sender > sys.float_info.max:  # each hop prices eps * d * d * packets
            raise ValueError(f"packets_per_sender must be at most {sys.float_info.max:.6g}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1: {self.max_rounds}")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    dead_count: int
    total_energy: float
    setup_energy: float
    steady_energy: float
    first_level_width: int
    max_depth: int


class RoundLog(Sequence):
    """A run's ``RoundMetrics``, one typed array per field in field order:
    64-bit ints and IEEE doubles, 56 B a round. Indexing or iterating rebuilds
    the records and a slice is a list of them; ``run`` appends, callers only read.
    Equal to a ``RoundLog`` with equal columns, or to a list of equal records."""

    def __init__(self):
        self.columns = tuple(array(code) for code in "qqdddqq")

    def append(self, r: RoundMetrics) -> None:
        rnd, dead, total, setup, steady, width, depth = self.columns
        rnd.append(r.round)
        dead.append(r.dead_count)
        total.append(r.total_energy)
        setup.append(r.setup_energy)
        steady.append(r.steady_energy)
        width.append(r.first_level_width)
        depth.append(r.max_depth)

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        return map(RoundMetrics, *self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(RoundMetrics, *(c[index] for c in self.columns)))
        return RoundMetrics(*(c[index] for c in self.columns))

    def __eq__(self, other):
        if isinstance(other, RoundLog):
            return self.columns == other.columns
        return list(self) == other if isinstance(other, list) else NotImplemented


@dataclass(frozen=True)
class LifetimeSummary:
    first_death_round: int | None
    half_life_round: int | None
    all_dead_round: int | None
    avg_energy_per_packet: float


def place_nodes(config: SimConfig, stream: RandomStream) -> list[tuple[float, float]]:
    """Uniform i.i.d. ``(x, y)`` positions of sensors 1..n, drawn x then y per sensor."""
    uniform, w, h = stream.uniform, config.area_w, config.area_h
    return [(uniform(0.0, w), uniform(0.0, h)) for _ in range(config.n)]


class Simulation:
    """Drives rounds for one (config, seed) pair.

    ``net`` may be injected for fixture-based tests, in which case the
    placement draws are skipped and the stream starts at the elections.
    Otherwise the placement's ``Network`` takes the rows of ``table``, an earlier ``Network``, if equal.
    """

    def __init__(self, config: SimConfig, net: Network | None = None, table: Network | None = None):
        if not isinstance(config, SimConfig):
            raise ValueError(f"config must be a SimConfig: {config!r}")
        self.config = config
        self.stream = RandomStream(config.seed)
        if net is None:
            net = Network(place_nodes(config, self.stream), config.bs_pos,
                          [config.initial_energy] * config.n, table)
        elif table is not None:
            raise ValueError("net and table cannot both be given: net brings its own rows")
        elif not isinstance(net, Network):
            raise ValueError(f"net must be a Network: {net!r}")
        elif net.n != config.n:
            raise ValueError(f"the network has {net.n} sensors but the config has n = {config.n}")
        self.net = net
        self.setup, self.steady = EnergyTally(), EnergyTally()
        self.tree: RoutingTree | None = None
        self._pruned_alive: int | None = None  # alive count at the last prune
        self.round = 0
        self.delivered_total = 0
        self.last_outcome: SetupOutcome | None = None
        self.last_delivered = 0
        self.last_attempted = 0
        # lifetime rounds, each set in the round it first holds; 0 if no sensor starts alive
        self.first_death = self.half_life = self.all_dead = None if self.net.alive_count() else 0

    # -- round phases -------------------------------------------------

    def _prune_dead(self) -> None:
        """Drop dead nodes from the map; orphans climb to the first alive ancestor.

        Skipped for LEACH, whose setup builds a fresh map, and when no sensor
        has died since the last prune (alive sets only shrink).
        """
        tree, alive_count = self.tree, self.net.alive_count()
        if tree is None or self.config.protocol == "leach" or alive_count == self._pruned_alive:
            return
        self._pruned_alive = alive_count
        self.tree = tree.pruned([e > 0 for e in self.net.energy])

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
        """The round's senders, drawn from ``alive`` (a fresh copy, shuffled in place)."""
        frac = self.config.traffic_fraction
        if frac >= 1.0:
            return alive
        k = int(frac * len(alive))
        for i in range(k):
            j = i + self.stream.next_u64() % (len(alive) - i)
            alive[i], alive[j] = alive[j], alive[i]
        return alive[:k]

    def _steady_phase(self) -> tuple[int, int]:
        """Senders' packets climb the map, each forwarder charged inline in
        sender-then-hop order, tallied as charged and clamped as ``_charge_log``
        clamps a payer: one left at exactly zero dies but still sends it on."""
        packets = self.config.packets_per_sender
        senders = self._select_senders(self.net.alive_ids())
        if not senders or packets == 0:
            return 0, 0
        eps, energy, rows = self.config.energy.epsilon_amp, self.net.energy, self.net.rows
        each = float(packets)  # the float an int operand of a float product becomes
        parent = self.tree.parent  # read in place: the walk never changes the map
        hops = range(len(parent))  # more passes than any acyclic path has hops
        part, whole, delivered = self.steady.round, self.steady.total, 0  # stored even on an error
        try:
            for sender in senders:
                if parent[sender] is None and energy[sender] > 0.0:
                    raise ValueError(f"unknown node: {sender}")
                fwd = sender
                for _ in hops:
                    left = energy[fwd]
                    if not left > 0.0:
                        break  # a dead sender sends nothing; a dead forwarder drops it
                    nxt = parent[fwd]
                    d = rows[fwd][nxt]
                    amount = eps * d * d * each
                    if amount < left:
                        energy[fwd] = left - amount
                        part, whole = part + amount, whole + amount
                    else:  # dies transmitting: spends what it had left
                        energy[fwd] = 0.0
                        self.net.mark_dead(fwd)
                        part, whole = part + left, whole + left
                        if left < amount:
                            break  # died mid-transmission: packet lost
                    if nxt == BS_ID:
                        delivered += packets
                        break
                    fwd = nxt
                else:
                    raise RuntimeError(f"parent cycle reached from node {sender}")
        finally:
            self.steady.round, self.steady.total = part, whole
        return delivered, packets * len(senders)

    def run_round(self) -> RoundMetrics:
        if self.net.alive_count() == 0:
            raise SimulationError("no alive sensors")
        self.round += 1
        self.setup.round = self.steady.round = 0.0
        self._prune_dead()
        outcome = self.last_outcome = self._run_setup()
        _charge_log(self.net, outcome.messages, self.config.energy, self.setup)  # valid by construction
        width = len(self.tree.children[BS_ID])
        depth = self.tree.max_depth()
        delivered, attempted = self._steady_phase()
        self.last_delivered, self.last_attempted = delivered, attempted
        self.delivered_total += delivered
        n, dead = self.config.n, self.config.n - self.net.alive_count()
        if self.first_death is None and dead:
            self.first_death = self.round
        if self.half_life is None and dead >= math.ceil(n / 2):
            self.half_life = self.round
        if dead == n:
            self.all_dead = self.round
        return RoundMetrics(self.round, dead, self.net.total_energy(), self.setup.round,
                            self.steady.round, width, depth)

    def run(self) -> tuple[RoundLog, LifetimeSummary]:
        """Step to extinction or the round cap; the rows are this call's, the
        summary covers every round since construction."""
        rows = RoundLog()
        while self.net.alive_count() > 0 and self.round < self.config.max_rounds:
            rows.append(self.run_round())
        per_packet = self.steady.total / self.delivered_total if self.delivered_total else 0.0
        return rows, LifetimeSummary(self.first_death, self.half_life, self.all_dead, per_packet)


def run(config: SimConfig) -> tuple[RoundLog, LifetimeSummary]:
    """Run one simulation to extinction or the round cap."""
    return Simulation(config).run()


METRICS_HEADER = "round,dead,total_energy_j,setup_energy_j,steady_energy_j,first_level_width,max_depth"


def fmt_float(x: float) -> str:
    """Fixed CSV float formatting: nine significant digits."""
    return f"{x:.9g}"


def metrics_csv(rows: RoundLog) -> str:
    """One line a round, read from the columns; the floats as ``fmt_float`` writes them."""
    lines = [METRICS_HEADER, *map("{},{},{:.9g},{:.9g},{:.9g},{},{}".format, *rows.columns)]
    return "\n".join(lines) + "\n"
