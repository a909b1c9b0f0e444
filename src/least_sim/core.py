"""Geometry, sensor state, network statistics, and the seeded random stream.

Every stochastic decision in a simulation draws from a single RandomStream
in a documented order, so one (config, seed) pair replays bit-exactly on any
platform Python runs on.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import add

#: Reserved id of the base station, the root of every routing tree.
BS_ID = 0

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter step per draw

# A block packs _LANES lanes into one int, lane k at bits 128k .. 128k+127: a
# 64-bit low word times a 64-bit constant stays inside its own lane.
_LANES = 512
_ONES = sum(1 << (128 * k) for k in range(_LANES))  # 1 in every lane
_STEPS = sum(((k + 1) * _GAMMA) << (128 * k) for k in range(_LANES))
_LOW_WORDS = _MASK64 * _ONES
_BIG_ENDIAN = sys.byteorder == "big"

_SLACK = 1.0 + 2.0**-40  # far wider than the ulp (2**-52) math.dist may be off by
_TABLE_MAX = 700  # above this many sensors rows compute distances on demand (README, "Why 700")


def _mix_block(state: int) -> list[int]:
    """splitmix64's outputs for the ``_LANES`` counters after ``state``, the
    first one last (``list.pop`` hands them out in order). Every lane is cut
    to its low word before each multiply, which also drops the bits a right
    shift brought down from the lane above."""
    z = (state * _ONES + _STEPS) & _LOW_WORDS
    z = ((z ^ (z >> 30)) & _LOW_WORDS) * 0xBF58476D1CE4E5B9 & _LOW_WORDS
    z = ((z ^ (z >> 27)) & _LOW_WORDS) * 0x94D049BB133111EB & _LOW_WORDS
    words = array("Q", (z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))
    if words.itemsize != 8:
        raise RuntimeError(f"array('Q') items are {words.itemsize} bytes on this "
                           "platform; the packed splitmix64 lanes need 8")
    if _BIG_ENDIAN:
        words.byteswap()
    return words[-2::-2].tolist()  # every lane's low word, last lane first


class RandomStream:
    """Deterministic 64-bit generator (splitmix64).

    The internal state advances by a fixed odd constant per draw and the
    output is a bijective mix of that counter, so equal seeds give equal
    draw sequences everywhere; no dependence on platform or library RNGs.
    Since an output depends on its counter alone, the next 512 are mixed at
    once (``_mix_block``) and handed out one per ``next_u64``: the same
    values in the same order as one at a time.
    """

    __slots__ = ("_end", "_lanes")

    def __init__(self, seed: int):
        self._end = seed & _MASK64  # the state after the last buffered output
        self._lanes: list[int] = []  # buffered outputs, the next one last

    @property
    def _state(self) -> int:
        """The state after the draws made so far, as splitmix64 keeps it."""
        return (self._end - len(self._lanes) * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit value; the single primitive every draw uses."""
        try:
            return self._lanes.pop()
        except IndexError:
            self._lanes = _mix_block(self._end)
            self._end = (self._end + _LANES * _GAMMA) & _MASK64
            return self._lanes.pop()

    def random(self) -> float:
        """Uniform float in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi)."""
        return lo + (hi - lo) * self.random()


def bernoulli_bound(p: float) -> int:
    """The raw-draw bound of probability ``p``: for every ``next_u64`` value
    ``v``, ``v < bernoulli_bound(p)`` exactly when ``random``'s float
    ``(v >> 11) * 2.0**-53`` is below ``p`` (README, "Determinism")."""
    return math.ceil(p * 2.0**53) << 11


def uniform_choice(stream: RandomStream, items):
    """Pick one item uniformly; consumes exactly one draw.

    Callers pass items in ascending-id order so a given seed always lands on
    the same element.
    """
    if not items:
        raise ValueError("cannot choose from an empty list")
    return items[stream.next_u64() % len(items)]


def finite_xy(points) -> bool:
    """Whether every point is an ``(x, y)`` pair of finite numbers."""
    return set(map(len, points)) <= {2} and all(map(math.isfinite, chain.from_iterable(points)))


def check_span(points, what: str) -> None:
    """Reject finite ``(x, y)`` points spread too wide for squared distances:
    the searches' bounds need finite distances and every price eps*d*d a
    finite d*d."""
    span = max(chain.from_iterable(points)) - min(chain.from_iterable(points))
    if math.isinf(2.0 * span * span):
        raise ValueError(f"{what} span {span}: squared distances would overflow")


@dataclass(frozen=True)
class NetworkStats:
    d_bar: float      # mean distance over unordered sensor pairs
    d_bar_max: float  # mean over sensors of the distance to their farthest peer


def network_stats(positions) -> NetworkStats:
    """Pairwise distance statistics over sensor ``(x, y)`` positions; the
    base station is excluded. The pair sum adds every pair's ``math.dist``
    in row-major order. Each sensor's farthest distance, the largest of its
    pairs' floats, comes from ``_farthest_by_x`` over the sensors sorted by
    x, and their mean folds them in id order (README, "Determinism")."""
    pts = list(positions)
    m = len(pts)
    if m < 2:
        raise ValueError("network statistics need at least two sensors")
    if not finite_xy(pts):
        raise ValueError("network statistics need finite (x, y) positions")
    dist, pair_sum = math.dist, 0.0
    for i, p in enumerate(pts, 1):
        for q in islice(pts, i, None):
            pair_sum += dist(p, q)
    xs, ys = zip(*pts)  # by x alone: list and tuple points do not compare
    by_x, y_lo, y_hi = sorted(range(m), key=xs.__getitem__), min(ys), max(ys)
    far = [_farthest_by_x(p, pts, by_x, y_lo, y_hi)[0] for p in pts]
    return NetworkStats(d_bar=pair_sum / (m * (m - 1) / 2), d_bar_max=reduce(add, far, 0.0) / m)


def _farthest_by_x(p, xy, by_x, y_lo, y_hi) -> tuple[float, int | None]:
    """``(distance, id)`` of the id in ``by_x``, ids of ``xy`` sorted by x,
    farthest from point ``p``; ``(0.0, None)`` if none lies beyond 0. Chunks
    of isqrt(len) ids are read from both ends inward, at the end with the
    larger x-gap, until ``hypot(x-gap, y-gap) * _SLACK``, which bounds every
    distance left, is below the best (README, "Determinism", sixth shortcut)."""
    dist, (x, y), step = math.dist, p, math.isqrt(len(by_x))  # looked up per call: a patch reaches it
    y_gap, best, far, lo, hi = max(y - y_lo, y_hi - y), 0.0, None, 0, len(by_x)
    while lo < hi:
        gap_lo, gap_hi = x - xy[by_x[lo]][0], xy[by_x[hi - 1]][0] - x
        if gap_lo >= gap_hi:
            gap, ids = gap_lo, by_x[lo:min(lo + step, hi)]
            lo += len(ids)
        else:
            gap, ids = gap_hi, by_x[max(hi - step, lo):hi]
            hi -= len(ids)
        if math.hypot(gap, y_gap) * _SLACK < best:
            break
        ds = list(map(dist, repeat(p), map(xy.__getitem__, ids)))
        d = max(ds)
        if d > best:
            best, far = d, ids[ds.index(d)]
    return best, far


class _Row:
    """``row[j]`` computes ``math.dist(p, xy[j])`` on demand: the float a table row holds.
    The x-walks in ``Network`` make that call themselves; every other reader indexes."""

    __slots__ = ("p", "xy")

    def __init__(self, p, xy):
        self.p, self.xy = p, xy

    def __getitem__(self, j):
        return math.dist(self.p, self.xy[j])


class Network:
    """Sensor field: per-id run state; the base station is at id 0.

    ``energy``, ``last_ch`` and ``last_hn`` are lists indexed by sensor id
    (1..n; slot 0, the mains-powered base station's, holds 0.0 and None). A
    sensor is alive exactly when its energy is above zero: energy never
    rises, and whoever drops a sensor to 0.0 calls ``mark_dead`` so that the
    alive lists agree. ``last_ch`` / ``last_hn`` hold the last round a
    sensor was cluster head / host node, None if never.

    Up to ``_TABLE_MAX`` sensors the pairwise distances are precomputed
    once into list rows, (n+1)^2 floats at about 32 bytes each (15 MiB at
    n=700). Above it each row is a ``_Row`` that computes the same
    ``math.dist`` when read, and memory grows as n (README, "Determinism").
    The searches scan list rows; over ``_Row``s they walk the points by x.
    ``xy`` holds the points by id and ``rows[a][b]`` is the distance between
    ids a and b. ``table``, an earlier ``Network`` or None, lends its ``xy``
    and ``rows`` when its points are equal: the rows are never written.
    """

    def __init__(self, positions, bs_pos: tuple, energies, table: Network | None = None):
        if len(positions) != len(energies):
            raise ValueError(f"{len(positions)} positions but {len(energies)} energies")
        xy = [bs_pos, *positions]
        if not finite_xy(xy):
            raise ValueError("sensor and base-station coordinates must be finite (x, y) pairs")
        if not all(map(math.isfinite, energies)) or min(energies, default=0.0) < 0:
            raise ValueError("initial energies must be finite and >= 0")
        self.n = n = len(positions)
        if not isinstance(table, Network | None):
            raise ValueError(f"table must be an earlier Network or None, not {type(table).__name__}")
        if table is not None and table.xy == xy:
            self.xy, self.rows = table.xy, table.rows
        else:
            check_span(xy, "sensor coordinates")
            self.xy, self.rows = xy, [list(map(math.dist, repeat(p), xy)) if n <= _TABLE_MAX
                                      else _Row(p, xy) for p in xy]
        self.energy = [0.0, *energies]
        self.last_ch: list = [None] * (n + 1)
        self.last_hn: list = [None] * (n + 1)
        self._alive_ids = [i for i, e in enumerate(self.energy) if e > 0]
        self._farthest: list = [None] * (n + 1)  # per source: farthest alive id
        self._by_x = None  # (alive ids by x, lowest y, highest y), built on first rescan

    def mark_dead(self, node_id: int) -> None:
        """Drop a sensor whose energy was just set to zero from the alive lists."""
        self._alive_ids.remove(node_id)
        if self._by_x is not None:
            self._by_x[0].remove(node_id)

    def alive_ids(self) -> list[int]:
        return list(self._alive_ids)

    def alive_count(self) -> int:
        return len(self._alive_ids)

    def nearest(self, candidates: list[int], sources: list[int]) -> list[tuple[int, float]]:
        """The nearest candidate to each source, as ``(id, distance)`` pairs.

        ``candidates`` come in ascending id order; a tie goes to the smaller id.
        List rows are scanned in that order. Over ``_Row``s each source walks the
        candidates by x, outward until both x-gaps pass ``best * _SLACK``."""
        if not sources:
            return []
        if not candidates:
            raise ValueError("empty candidate set")
        out, xy, rows = [], self.xy, self.rows
        if type(rows[0]) is list:
            first, rest = candidates[0], candidates[1:]
            for src in sources:
                row = rows[src]
                target, best = first, row[first]
                for cand in rest:
                    d = row[cand]
                    if d < best:
                        target, best = cand, d
                out.append((target, best))
            return out
        order = [0, *sorted(candidates, key=xy.__getitem__), 0]
        pts = [xy[c] for c in order]  # the points of order, index for index
        xs = [-math.inf, *[x for x, _ in pts[1:-1]], math.inf]  # ends no walk passes
        dist = math.dist  # a _Row's call, without its __getitem__
        for src in sources:
            p, x = xy[src], xy[src][0]
            hi = bisect(xs, x)
            lo, gap_lo, gap_hi = hi - 1, x - xs[hi - 1], xs[hi] - x
            target, best, reach = 0, math.inf, math.inf
            while True:  # the side with the smaller x-gap steps next
                if gap_lo < gap_hi:
                    if gap_lo > reach:
                        break
                    i, lo = lo, lo - 1
                    gap_lo = x - xs[lo]
                else:
                    if gap_hi > reach:
                        break
                    i, hi = hi, hi + 1
                    gap_hi = xs[hi] - x
                cand = order[i]
                d = dist(p, pts[i])
                if d < best or d == best and cand < target:
                    target, best, reach = cand, d, d * _SLACK
            out.append((target, best))
        return out

    def farthest(self, src: int, ids) -> tuple[float, int | None]:
        """``(distance, id)`` of the first of ``ids`` farthest from ``src``
        (``src`` itself is at 0); ``(0.0, None)`` if none lies beyond 0."""
        row = self.rows[src]
        best, far = 0.0, None
        for i in ids:
            d = row[i]
            if d > best:
                best, far = d, i
        return best, far

    def farthest_alive_distance(self, from_id: int) -> float:
        """Distance to the farthest other alive sensor; 0 when there is none.

        Cached per source: alive sets only shrink, so the farthest sensor
        stays the farthest while it lives, and the float is the same. A rescan
        scans list rows, and over ``_Row``s reads the alive sensors by x with
        ``_farthest_by_x``, which may cache another of several tied sensors
        (README, "Determinism")."""
        row, far = self.rows[from_id], self._farthest[from_id]
        if far is not None and self.energy[far] > 0.0:
            return row[far]
        if type(row) is list:
            best, far = self.farthest(from_id, self._alive_ids)
        else:
            if self._by_x is None:
                ys = [y for _, y in self.xy]
                self._by_x = sorted(self._alive_ids, key=self.xy.__getitem__), min(ys), max(ys)
            best, far = _farthest_by_x(self.xy[from_id], self.xy, *self._by_x)
        self._farthest[from_id] = far
        return best

    def total_energy(self) -> float:
        # the alive sensors' left fold by id (``sum`` compensates from 3.12); dead sensors
        # and slot 0 hold zero, which changes no partial sum: the fold over every slot
        energy, total = self.energy, 0.0
        for i in self._alive_ids:
            total += energy[i]
        return total
