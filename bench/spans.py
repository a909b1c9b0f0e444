"""Spans and counters recorded around the package's public functions.

Nothing in ``least_sim`` knows about this module. ``Tracer.install`` swaps
each target function for a wrapper, in its defining module or class and in
every ``least_sim`` module that imported it by name, and ``uninstall`` puts
the originals back.

Two kinds of target:

* *span* targets (commands, rounds, setup phases, message charging, ...)
  store one span per call: name, start, end and the span that caused it.
  Spans stay in memory, in flat arrays, until the run ends.
* *leaf* targets are the hot inner calls (``attach``, ``charge``,
  ``path_to_root``, ...), millions per workload. Storing a span for each
  would take gigabytes, so a leaf call adds its count and duration to its
  name and its duration to the enclosing span's child time. Leaves call no
  other target, so a leaf's self time is its duration.

A span's self time is its duration minus the time its direct children
(spans and leaves) cover; children of one span never overlap, since the
program runs on one thread.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

# (layer metric prefix, module, owner attribute path, kind)
# kind: "span" stores a span per call, "leaf" aggregates, "count" only counts.
TARGETS = (
    ("cli.cmd_simulate", "cli", "cmd_simulate", "span"),
    ("cli.cmd_compare", "cli", "cmd_compare", "span"),
    ("cli.cmd_analyze", "cli", "cmd_analyze", "span"),
    ("cli.run_many", "cli", "run_many", "span"),
    ("cli.compare_table", "cli", "compare_table", "span"),
    ("simulator.Simulation", "simulator", "Simulation.__init__", "span"),
    ("simulator.Simulation.run", "simulator", "Simulation.run", "span"),
    ("simulator.Simulation.run_round", "simulator", "Simulation.run_round", "span"),
    ("simulator.place_nodes", "simulator", "place_nodes", "span"),
    ("simulator.metrics_csv", "simulator", "metrics_csv", "span"),
    ("core.Network", "core", "Network.__init__", "span"),
    ("core.network_stats", "core", "network_stats", "span"),
    ("core.Network.farthest_alive_distance", "core", "Network.farthest_alive_distance", "leaf"),
    ("core.RandomStream.draws", "core", "RandomStream.next_u64", "count"),
    ("protocols.leach_setup", "protocols", "leach_setup", "span"),
    ("protocols.least_setup", "protocols", "least_setup", "span"),
    ("protocols.elect_host_nodes", "protocols", "elect_host_nodes", "span"),
    ("protocols.elect_heirs", "protocols", "elect_heirs", "span"),
    ("protocols.relocate", "protocols", "relocate", "span"),
    ("energy.apply_messages", "energy", "apply_messages", "span"),
    ("energy.charge", "energy", "charge", "leaf"),
    ("tree.RoutingTree.attach", "tree", "RoutingTree.attach", "leaf"),
    ("tree.RoutingTree.detach_subtree_root", "tree", "RoutingTree.detach_subtree_root", "leaf"),
    ("tree.RoutingTree.path_to_root", "tree", "RoutingTree.path_to_root", "leaf"),
    ("tree.RoutingTree.max_depth", "tree", "RoutingTree.max_depth", "span"),
)

_ROOT = -1


@dataclass(frozen=True)
class Hook:
    """Extra counting at one target's boundary.

    ``before(tracer, args)`` returns a token that ``after(tracer, args,
    result, token)`` receives; ``error(tracer, exc)`` sees an exception on
    its way out. Every part is optional.
    """

    before: object = None
    after: object = None
    error: object = None


_NO_HOOK = Hook()


class Tracer:
    """Records spans and counters for one traced iteration after another."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_child = array("q")
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = self.busy_ns[name] = self.self_ns[name] = 0
        return idx

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def current(self) -> str | None:
        """Name of the innermost open span, None outside every span."""
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def reset_totals(self) -> None:
        """Zero the per-name totals and counters; stored spans are kept."""
        for table in (self.calls, self.busy_ns, self.self_ns):
            for key in table:
                table[key] = 0
        self.counters.clear()

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        name_id = self._name_id(name)
        before, after, error = hook.before, hook.after, hook.error
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, child = self.span_start, self.span_end, self.span_child
        calls, busy, own = self.calls, self.busy_ns, self.self_ns

        def wrapper(*args, **kwargs):
            token = before(self, args) if before is not None else None
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else _ROOT)
            ends.append(0)
            child.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(self, exc)
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[name] += 1
                busy[name] += dur
                own[name] += dur - child[idx]
                if stack:
                    child[stack[-1]] += dur
            if after is not None:
                after(self, args, result, token)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn, hook):
        self._name_id(name)
        after = hook.after
        stack, child = self._stack, self.span_child
        calls, busy, own = self.calls, self.busy_ns, self.self_ns

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dur = perf_counter_ns() - t0
            calls[name] += 1
            busy[name] += dur
            own[name] += dur
            if stack:
                child[stack[-1]] += dur
            if after is not None:
                after(self, args, result, None)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, package: str = "least_sim", hooks=None, only=None) -> None:
        """Wrap every target (or those named in ``only``) that exists;
        record the missing ones as absent.

        ``hooks`` maps a target name to its ``Hook``; a leaf honours only
        ``after``, a count target none.
        """
        hooks = hooks or {}
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for name, module_name, path, kind in TARGETS:
            if only is not None and name not in only:
                continue
            module = sys.modules.get(f"{package}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            if kind == "span":
                wrapped = self._span_wrapper(name, fn, hooks.get(name, _NO_HOOK))
            elif kind == "leaf":
                wrapped = self._leaf_wrapper(name, fn, hooks.get(name, _NO_HOOK))
            else:
                wrapped = self._count_wrapper(name, fn)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, fn))
            if owner is module:  # re-bind names other modules imported
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
                            self._restore.append((other, key, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, parent id, start and
        end in ns, self time in ns."""
        names, parents = self.span_name, self.span_parent
        starts, ends, child = self.span_start, self.span_end, self.span_child
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tparent\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(names)):
                dur = ends[i] - starts[i]
                out.write(f"{i}\t{self.names[names[i]]}\t{parents[i]}\t"
                          f"{starts[i]}\t{ends[i]}\t{dur - child[i]}\n")
