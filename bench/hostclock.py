"""Host time scaled to a reference host speed.

The benchmark runs on a shared host whose speed drifts by up to 40% over
stretches of ten seconds or more: a fixed pure-Python loop takes 7 ms in
one stretch and 11 ms in the next, in CPU time as much as in wall time,
and the same simulator run swings with it. Seconds read off the clock then
say as much about the host as about the program. ``HostClock`` therefore
times a fixed calibration kernel, which belongs to the benchmark and never
changes with the program, at every boundary it is told of. It scales each
interval between two boundaries by the ratio of ``REFERENCE_KERNEL_S`` to
the mean kernel time at the interval's two ends, raised to ``EXPONENT``.
The kernels' own time is left out of every interval.

The program slows less than the kernel when the host slows. Least-squares
fits of log program time on log kernel time, over groups of runs made
back to back, gave slopes of 0.88 (``lifetime`` runs), 0.91 (``traffic``)
and 0.68 (``scale``, n=2000). Scaling by the full ratio would over-correct,
so the ratio is raised to 0.85. At the reference speed a scaled second is
a host second.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

# Median time of one kernel on the reference host (a 2-core VM,
# Python 3.11.7). Only the ratio to it matters; any fixed value would do.
REFERENCE_KERNEL_S = 0.0055
EXPONENT = 0.85  # fitted; see above
SAMPLES = 3  # timed kernels per mark


class _Node:
    __slots__ = ("parent", "energy", "x", "y")

    def __init__(self, parent, energy, x, y):
        self.parent, self.energy, self.x, self.y = parent, energy, x, y


class _Sensor:
    __slots__ = ("id", "x", "y", "energy", "alive", "dist2_head")

    def __init__(self, i, x, y):
        self.id, self.x, self.y = i, x, y
        self.energy, self.alive, self.dist2_head = 0.1, True, 0.0

    def dist2(self, other):
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def spend(self, joules):
        self.energy -= joules
        if self.energy <= 0.0:
            self.alive = False
        return self.alive


def _draws(count: int):
    state = 12345
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def _nodes(size: int = 2048) -> tuple[dict, list[int]]:
    """Nodes with a parent each, and a visiting order."""
    nodes, order = {}, []
    for i, state in enumerate(_draws(size)):
        nodes[i] = _Node(state % size, 0.1, (state % 1000) * 0.1, (state // 1000 % 1000) * 0.1)
        order.append(state >> 8 & (size - 1))
    return nodes, order


def _sensors(size: int = 300) -> tuple[list, list, dict]:
    """Sensors, an empty head list and an empty member list per sensor."""
    sensors = [_Sensor(i, (state % 1000) * 0.1, (state // 1000 % 1000) * 0.1)
               for i, state in enumerate(_draws(size))]
    return sensors, [], {i: [] for i in range(size)}


_NODES, _ORDER = _nodes()
_SENSORS, _HEADS, _MEMBERS = _sensors()


def kernel() -> float:
    """Fixed pure-Python work of the kinds the simulator does.

    A loop over a few thousand objects (dict lookups, attribute reads and
    writes, float arithmetic), then two clustering rounds over 300 sensors
    (heads by rule, a nearest-head search with a method as key, member
    lists sorted and charged through method calls). It works on data made
    at import and leaves the garbage collector's counts as it found them, so
    it neither triggers a collection nor shifts the program's.
    """
    nodes = _NODES
    acc = 0.0
    for _ in range(3):
        for i in _ORDER:
            node = nodes[i]
            parent = nodes[node.parent]
            dx, dy = node.x - parent.x, node.y - parent.y
            energy = node.energy - (5e-8 * (dx * dx + dy * dy) + 1e-9)
            node.energy = energy if energy > 0.0 else 0.1
            acc += energy
    sensors, heads, members = _SENSORS, _HEADS, _MEMBERS
    for r in range(2):
        heads.clear()
        for s in sensors:
            if (s.id * 7 + r * 13) % 10 == 0:
                heads.append(s)
        for s in sensors:
            best = min(heads, key=s.dist2)
            s.dist2_head = s.dist2(best)
            members[best.id].append(s.id)
        for h in heads:
            group = members[h.id]
            group.sort(key=lambda i: sensors[i].dist2_head)
            for i in group:
                sensors[i].spend(5e-17 * sensors[i].dist2_head)
            acc += len(group)
            group.clear()
        for s in sensors:
            s.energy, s.alive = 0.1, True
    return acc


class HostClock:
    """Scaled time per label, over intervals cut by ``mark``."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.kernel_times: list[float] = []
        self._label = None
        self._kernel_s = 0.0
        self._t = 0.0

    def calibrate(self) -> float:
        """Median kernel time over a few kernels run now. One untimed kernel
        goes first: it brings the kernel's data back into the caches the
        program just used, so that a program with a smaller footprint does
        not make the kernel look faster."""
        kernel()
        times = []
        for _ in range(SAMPLES):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        kernel_s = median(times)
        self.kernel_times.append(kernel_s)
        return kernel_s

    def start(self, label: str) -> None:
        self.raw.clear()
        self.scaled.clear()
        self._kernel_s = self.calibrate()
        self._label = label
        self._t = perf_counter()

    def mark(self, label: str | None) -> None:
        """Close the current interval and open one under ``label``
        (None: stop)."""
        raw = perf_counter() - self._t
        kernel_s = self.calibrate()
        factor = (REFERENCE_KERNEL_S / ((self._kernel_s + kernel_s) / 2)) ** EXPONENT
        self.raw[self._label] = self.raw.get(self._label, 0.0) + raw
        self.scaled[self._label] = self.scaled.get(self._label, 0.0) + raw * factor
        self._kernel_s = kernel_s
        self._label = label
        self._t = perf_counter()
