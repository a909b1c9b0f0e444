"""Geometry, node state, network statistics, and the seeded random stream.

Every stochastic decision in a simulation draws from a single RandomStream
in a documented order, so one (config, seed) pair replays bit-exactly on any
platform Python runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

#: Reserved id of the base station, the root of every routing tree.
BS_ID = 0

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Deterministic 64-bit generator (splitmix64).

    The internal state advances by a fixed odd constant per draw and the
    output is a bijective mix of that counter, so equal seeds give equal
    draw sequences everywhere; no dependence on platform or library RNGs.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit value; the single primitive every draw uses."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi)."""
        return lo + (hi - lo) * self.random()


def uniform_choice(stream: RandomStream, items):
    """Pick one item uniformly; consumes exactly one draw.

    Callers pass items in ascending-id order so a given seed always lands on
    the same element.
    """
    if not items:
        raise ValueError("cannot choose from an empty list")
    return items[stream.next_u64() % len(items)]


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y})")


@dataclass
class SensorNode:
    """One battery-powered sensor.

    ``alive`` is false exactly when ``energy`` is zero; the simulator never
    lets energy increase. ``last_ch_round`` / ``last_hn_round`` record the
    most recent round the node held each elected role, for rotation checks.
    """

    id: int
    pos: Point
    energy: float
    alive: bool = True
    last_ch_round: int | None = None
    last_hn_round: int | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"sensor ids start at 1 (0 is the base station): {self.id}")
        if self.energy < 0:
            raise ValueError(f"negative energy: {self.energy}")
        if self.energy == 0:
            self.alive = False


@dataclass(frozen=True)
class NetworkStats:
    d_bar: float      # mean distance over unordered sensor pairs
    d_bar_max: float  # mean over sensors of the distance to their farthest peer


def network_stats(nodes, alive_only: bool = True) -> NetworkStats:
    """Pairwise distance statistics over sensors; the base station is excluded.

    With ``alive_only`` (the default) dead sensors are ignored, since the
    statistics price sensor-to-sensor control traffic.
    """
    pts = [(n.pos.x, n.pos.y) for n in nodes if n.alive or not alive_only]
    m = len(pts)
    if m < 2:
        raise ValueError("network statistics need at least two qualifying nodes")
    dist = math.dist
    pair_sum = 0.0
    far = [0.0] * m
    for i in range(m):
        pi = pts[i]
        for j in range(i + 1, m):
            d = dist(pi, pts[j])
            pair_sum += d
            if d > far[i]:
                far[i] = d
            if d > far[j]:
                far[j] = d
    return NetworkStats(d_bar=pair_sum / (m * (m - 1) / 2), d_bar_max=sum(far) / m)


class Network:
    """Sensor field: nodes indexed by id, plus the base station position.

    Pairwise distances are precomputed once (positions never change), which
    keeps the per-round protocol loops cheap. Memory: (n+1)^2 floats at about
    32 bytes each (123 MiB at n=2000); ``SimConfig`` caps n at 10,000. An
    earlier network's ``table`` (its ``(x, y)`` list, then its rows) is
    reused when the positions are equal: the rows are never written.
    """

    def __init__(self, nodes: list[SensorNode], bs_pos: Point, table: tuple | None = None):
        if [n.id for n in nodes] != list(range(1, len(nodes) + 1)):
            raise ValueError("sensor ids must be exactly 1..n, in order")
        self.bs_pos = bs_pos
        self.n = len(nodes)
        self.nodes: list = [None] + list(nodes)  # slot 0 reserved for the BS
        xy = [(bs_pos.x, bs_pos.y)] + [(n.pos.x, n.pos.y) for n in nodes]
        if table is None or table[0] != xy:
            table = (xy, [list(map(math.dist, repeat(p), xy)) for p in xy])
        self.table, self._dist = table, table[1]
        # deaths must flow through energy.charge so this stays consistent
        self._alive_ids = [n.id for n in nodes if n.alive]
        self._farthest: list = [None] * (self.n + 1)  # per source: farthest alive id

    def node(self, node_id: int) -> SensorNode:
        if node_id < 1 or node_id > self.n:
            raise KeyError(f"unknown sensor id: {node_id}")
        return self.nodes[node_id]

    def mark_dead(self, node_id: int) -> None:
        """Bookkeeping hook for the energy model when a node hits zero."""
        self._alive_ids.remove(node_id)

    def alive_ids(self) -> list[int]:
        return list(self._alive_ids)

    def alive_count(self) -> int:
        return len(self._alive_ids)

    def dist(self, a: int, b: int) -> float:
        """Distance between node ids; id 0 is the base station."""
        return self._dist[a][b]

    def nearest(self, candidates: list[int], sources: list[int]) -> list[tuple[int, float]]:
        """The nearest candidate to each source, as ``(id, distance)`` pairs.

        ``candidates`` come in ascending id order and only a strictly
        closer one replaces the best so far, so a tie goes to the smaller id.
        """
        if not sources:
            return []
        if not candidates:
            raise ValueError("empty candidate set")
        first, rest = candidates[0], candidates[1:]
        out = []
        for src in sources:
            row = self._dist[src]
            target, best = first, row[first]
            for cand in rest:
                d = row[cand]
                if d < best:
                    target, best = cand, d
            out.append((target, best))
        return out

    def farthest(self, src: int, ids) -> float:
        """Largest distance from ``src`` to any of ``ids`` (``src`` itself is at 0); 0 if none."""
        row = self._dist[src]
        best = 0.0
        for i in ids:
            d = row[i]
            if d > best:
                best = d
        return best

    def farthest_alive_distance(self, from_id: int) -> float:
        """Distance to the farthest other alive sensor; 0 when there is none.

        Cached per source: alive sets only shrink, so the farthest sensor
        stays the farthest while it lives, and the float is the same."""
        row, far = self._dist[from_id], self._farthest[from_id]
        if far is not None and self.nodes[far].alive:
            return row[far]
        best, far = 0.0, None
        for i in self._alive_ids:
            d = row[i]
            if d > best:
                best, far = d, i
        self._farthest[from_id] = far
        return best

    def total_energy(self) -> float:
        # dead nodes hold exactly 0.0, so summing the alive ones suffices
        nodes = self.nodes
        return sum([nodes[i].energy for i in self._alive_ids])
