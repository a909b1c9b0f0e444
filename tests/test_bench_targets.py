"""Every function that the bench harness traces still exists in the package.

``bench/spans.py`` names each target by module and attribute path, and its
tracer records a target it cannot find as absent instead of failing. So a
function renamed, moved or inlined without moving its target would drop out
of the per-layer figures unnoticed. The harness is read here, not changed.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Targets whose functions the package no longer has. The benchmark's next
# change moves or drops them (ROADMAP direction 1), and this set empties then;
# an entry no longer in ``TARGETS`` is harmless.
REMOVED = {
    "tree.RoutingTree.attach",
    "tree.RoutingTree.detach_subtree_root",
    "tree.RoutingTree.path_to_root",
    "energy.charge",
}


def bench_targets():
    """``TARGETS`` from the harness source, read without running the harness."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def resolve(module_name: str, path: str):
    """The target's function, found as the tracer finds it, or None."""
    owner = importlib.import_module(f"least_sim.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_bench_target_resolves():
    targets = bench_targets()
    assert targets
    missing = {name for name, module_name, path, _ in targets if resolve(module_name, path) is None}
    assert sorted(missing - REMOVED) == []
