"""What the bit-exact digests rest on, apart from the package's own order of
operations: the float kernels of the Python release, pinned on known answers,
a lint that keeps ``src/`` off the constructs that would make its bits
depend on the release, the process or an unseeded generator, and the
README's command that checks the corpus on an interpreter without pytest.

On another interpreter a changed kernel fails here by name, before the 48
opaque digests of ``golden/bits.json``. The answers were made on Python 3.11.7.
"""

import ast
import math
import os
import shlex
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from statistics import median

import pytest

from least_sim import RandomStream
from least_sim.cli import parse_config
from least_sim.simulator import fmt_float, place_nodes
from test_golden import PROFILES

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "least_sim"

# -- lint -----------------------------------------------------------------------

#: Built-in names whose result depends on the Python release or the process:
#: ``sum`` compensates float rounding from 3.12 on, and ``hash`` of a str is
#: salted per process.
FORBIDDEN_NAMES = {"sum", "hash"}
#: Module attributes that sum floats in an order or a precision of their own.
FORBIDDEN_ATTRS = {"math": {"fsum"}, "statistics": {"mean", "fmean"}}
#: Modules whose numbers are not the package's seeded stream's, or whose
#: kernels round differently (``np.hypot`` against ``math.dist``).
FORBIDDEN_MODULES = {"random", "numpy"}

#: (module, the top-level name or qualified function it sits in, construct): why it is safe.
ALLOWED = {
    ("core.py", "_ONES", "sum"): "an integer sum of lane bits, exact on every release",
    ("core.py", "_STEPS", "sum"): "an integer sum of lane increments, exact on every release",
}


class _Lint(ast.NodeVisitor):
    """Each forbidden construct in one module, with the name it sits in; a
    forbidden name is one of ``names``."""

    def __init__(self, names=FORBIDDEN_NAMES):
        self.names, self.where, self.found = names, [], []

    def _scoped(self, name, node):
        self.where.append(name)
        self.generic_visit(node)
        self.where.pop()

    def visit_ClassDef(self, node):
        self._scoped(node.name, node)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Assign(self, node):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        self._scoped(names[0] if names and not self.where else None, node)

    def _add(self, node, what):
        where = ".".join(w for w in self.where if w) or "<module>"
        self.found.append((where, what, node.lineno))

    def visit_Name(self, node):
        if node.id in self.names:
            self._add(node, node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.attr in FORBIDDEN_ATTRS.get(node.value.id, ()):
            self._add(node, f"{node.value.id}.{node.attr}")
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] in FORBIDDEN_MODULES:
                self._add(node, f"import {alias.name}")

    def visit_ImportFrom(self, node):
        module = (node.module or "").split(".")[0]
        if node.level == 0 and module in FORBIDDEN_MODULES:
            self._add(node, f"from {node.module} import")
        for alias in node.names:
            if node.level == 0 and alias.name in FORBIDDEN_ATTRS.get(node.module, ()):
                self._add(node, f"{node.module}.{alias.name}")


def lint(source: str, names=FORBIDDEN_NAMES) -> list[tuple[str, str, int]]:
    visitor = _Lint(names)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_src_uses_no_release_dependent_construct():
    found, allowed_hits = [], set()
    for path in sorted(SRC.glob("*.py")):
        for where, what, line in lint(path.read_text()):
            key = (path.name, where, what)
            if key in ALLOWED:
                allowed_hits.add(key)
            else:
                found.append(f"{path.name}:{line} {what} in {where}")
    assert found == []
    assert allowed_hits == set(ALLOWED)  # no entry outlives its use


def test_only_the_network_constructor_reads_the_table_size():
    """Whether a network holds a table is decided once, when its rows are
    built; every search reads it off the row kind (README, "Determinism")."""
    found = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where, what, _ in lint(path.read_text(), {"_TABLE_MAX"}) if what == "_TABLE_MAX"}
    assert found == {("core.py", "_TABLE_MAX"), ("core.py", "Network.__init__")}  # set, then read


@pytest.mark.parametrize("source, what", [
    ("class Network:\n    def total_energy(self):\n        return sum(self.energy)\n",
     ("Network.total_energy", "sum")),
    ("import math\nx = math.fsum([0.1, 0.2])\n", ("x", "math.fsum")),
    ("from statistics import fmean\n", ("<module>", "statistics.fmean")),
    ("import statistics\ndef f(v):\n    return statistics.mean(v)\n", ("f", "statistics.mean")),
    ("import random\n", ("<module>", "import random")),
    ("import numpy as np\n", ("<module>", "import numpy")),
    ("from numpy.linalg import norm\n", ("<module>", "from numpy.linalg import")),
    ("def key(s):\n    return hash(s)\n", ("key", "hash")),
    ("_ONES = 1\ndef f():\n    _ONES = sum([1])\n", ("f", "sum")),
])
def test_lint_names_each_forbidden_construct(source, what):
    assert [found[:2] for found in lint(source)] == [what]


# -- math.dist ------------------------------------------------------------------

#: Sensor pairs of the ``deep_trees`` golden placements (0 is the base
#: station) whose exact distance lies nearest a rounding midpoint, found by
#: scanning all 4 x 5,050 pairs: (seed, i, j) -> ``math.dist`` as float.hex.
DIST_PINS = {
    (4, 7, 60): "0x1.85ea2fb06c1a2p+5",
    (1, 58, 77): "0x1.1b8cb386c003dp+6",
    (2, 11, 84): "0x1.8cea810950867p+4",
    (4, 35, 45): "0x1.21955de5f9cd9p+6",
}


@pytest.mark.parametrize("seed, i, j", list(DIST_PINS))
def test_dist_rounds_golden_pairs_near_a_midpoint_correctly(seed, i, j):
    cfg = parse_config(PROFILES["deep_trees"])
    points = [cfg.bs_pos, *place_nodes(cfg, RandomStream(seed))]
    (px, py), (qx, qy) = points[i], points[j]
    dx, dy = px - qx, py - qy  # math.dist squares the float differences
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(dx) ** 2 + Decimal(dy) ** 2).sqrt()
        nearest = float(exact)  # correctly rounded
        ulps = (exact - Decimal(nearest)) / Decimal(math.ulp(nearest))
    assert 0.4998 < abs(ulps) < 0.5  # a hair from the midpoint
    assert math.dist(points[i], points[j]).hex() == nearest.hex() == DIST_PINS[seed, i, j]


# -- statistics.median ----------------------------------------------------------

@pytest.mark.parametrize("values, want", [
    ([2, 4, 1, 3], 2.5),  # sorted first; the two middle values' mean
    ([7, 3], 5.0),  # ints give a float
    ([0.2, 0.1], float.fromhex("0x1.3333333333334p-3")),  # (a + b) / 2 = 0.15000000000000002
    ([0.0123456789, 0.0987654321, 1.0, 0.0], float.fromhex("0x1.c71c71bf79c1dp-5")),  # not a + (b - a) / 2
    ([5e-324, 5e-324], 5e-324),  # not a / 2 + b / 2, which is 0
    ([1e308, 1e308], math.inf),  # the sum overflows before the halving
])
def test_median_of_an_even_count_halves_the_middle_sum(values, want):
    got = median(values)
    assert type(got) is float and got.hex() == want.hex()


# -- format(x, ".9g") -----------------------------------------------------------

@pytest.mark.parametrize("x, want", [
    # within 1e-16 relative of a ten-digit tie: rounded on the binary value,
    # not on the shortest repr (which would round half to even)
    (float.fromhex("0x1.f9add1b4e9006p-4"), "0.123456783"),  # above 0.1234567825
    (float.fromhex("0x1.f9add30c81ee8p-4"), "0.123456787"),  # below 0.1234567875
    (float.fromhex("0x1.9e4094a7ec044p-17"), "1.23456797e-05"),  # above 1.234567965e-05
    # exact ties round half to even
    (1234567.125, "1234567.12"),
    (1234567.375, "1234567.38"),
    (123456789.5, "123456790"),
    (1000000005.0, "1e+09"),
    (1000000015.0, "1.00000002e+09"),
    # the exponent form below 1e-4; trailing zeros dropped
    (0.0001, "0.0001"),
    (1e-05, "1e-05"),
    (0.5, "0.5"),
])
def test_nine_digit_format_near_ties(x, want):
    assert format(x, ".9g") == fmt_float(x) == want


# -- the stdlib-only golden command ---------------------------------------------

def test_readme_golden_command_runs_without_the_test_dependencies():
    """README "Determinism" checks the corpus on other interpreters with one
    command, which imports ``test_golden.py`` and ``checkpoint.py``; it must
    run where pytest, hypothesis and numpy are not installed."""
    line, = [line for line in (ROOT / "README.md").read_text().splitlines()
             if "import test_golden" in line]
    env_path, python, flag, code = shlex.split(line)
    assert (env_path, python, flag) == ("PYTHONPATH=src:tests", "python", "-c")
    blocked = "import sys; sys.modules.update(dict.fromkeys(['pytest', 'hypothesis', 'numpy'])); "
    env = {k: v for k, v in os.environ.items() if k != "LEAST_SIM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(["src", "tests"])
    done = subprocess.run([sys.executable, "-c", blocked + code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (0, "True True\n"), done.stderr
