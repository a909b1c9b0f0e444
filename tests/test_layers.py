"""The package's import layers: each module imports only from the modules
before it in ``core -> tree -> protocols -> energy -> simulator -> cli``, so
the imports stay acyclic. ``__init__`` re-exports and is exempt; importing
it counts as importing the last layer it imports.

The re-exports are the checked surface: each exported callable rejects bad
input, and the rest are plain records and the stall exception."""

import ast
import math
import types
from pathlib import Path

import pytest

import least_sim

SRC = Path(__file__).parent.parent / "src" / "least_sim"
LAYERS = ("core", "tree", "protocols", "energy", "simulator", "cli")


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports, anywhere in it; ``__init__``
    for the package itself."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["least_sim" if node.level else "", node.module]))
            dotted += [base] if node.module else [f"{base}.{a.name}" for a in node.names]
    found = set()
    for name in dotted:
        top, _, rest = name.partition(".")
        if top == "least_sim":
            module = rest.partition(".")[0]
            found.add(module if module in LAYERS else "__init__")
    return found


@pytest.mark.parametrize("source, modules", [
    ("from .simulator import fmt_float\n", {"simulator"}),
    ("def f():\n    from .core import BS_ID\n", {"core"}),
    ("from . import __version__\n", {"__init__"}),
    ("from . import tree\n", {"tree"}),
    ("import least_sim.energy\nfrom least_sim import Network\n", {"energy", "__init__"}),
    ("import math\nfrom dataclasses import field\n", set()),
])
def test_package_imports(source, modules):
    assert package_imports(source) == modules


def test_each_module_imports_only_layers_before_it():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert set(sources) == {*LAYERS, "__init__"}
    rank = {module: i for i, module in enumerate(LAYERS)}
    rank["__init__"] = max(rank[m] for m in package_imports(sources["__init__"]))
    upward = [f"{module} imports {dep}" for module in LAYERS
              for dep in sorted(package_imports(sources[module])) if rank[dep] >= rank[module]]
    assert upward == []


#: One bad input per exported callable; each must be rejected, not run.
BAD_INPUT = {
    "EnergyParams": lambda: least_sim.EnergyParams(epsilon_amp=math.nan),
    "Network": lambda: least_sim.Network([(math.nan, 1.0)], (0.0, 0.0), [1.0]),
    "ProtocolParams": lambda: least_sim.ProtocolParams(p_hn=math.nan),
    "RandomStream": lambda: least_sim.RandomStream("x"),
    "SimConfig": lambda: least_sim.SimConfig(n=0),
    "Simulation": lambda: least_sim.Simulation("x"),
    "apply_messages": lambda: least_sim.apply_messages(
        least_sim.Network([(1.0, 1.0)], (0.0, 0.0), [1.0]),
        [("no_such_kind", 1, 1.0, 1, None)], least_sim.EnergyParams()),
    "network_stats": lambda: least_sim.network_stats([(1.0, 1.0)]),
    "run": lambda: least_sim.run("x"),
}
#: Exported names with nothing to check: records, the tally and the stall exception.
PLAIN = ("EnergyTally", "LifetimeSummary", "ProtocolStallError", "RoundMetrics")


def test_every_export_is_checked_or_plain():
    assert sorted([*BAD_INPUT, *PLAIN]) == sorted(least_sim.__all__)
    public = {name for name, value in vars(least_sim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(least_sim.__all__)) == []


@pytest.mark.parametrize("name", sorted(BAD_INPUT))
def test_exported_callable_rejects_bad_input(name):
    with pytest.raises((ValueError, KeyError, TypeError)):
        BAD_INPUT[name]()
