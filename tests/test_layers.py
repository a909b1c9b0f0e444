"""The package's import layers: each module imports only from the modules
before it in ``core -> tree -> protocols -> energy -> simulator -> cli``, so
the imports stay acyclic. ``__init__`` re-exports and is exempt; importing
it counts as importing the last layer it imports."""

import ast
from pathlib import Path

import pytest

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
