"""The benchmark's workloads: which commands run, on which configs and seeds.

Every workload drives ``least_sim.cli.main`` in-process, one command after
another, with the process fan-out left at one worker. A workload's inputs
are fixed by its config overrides and its simulation seeds; the seeds come
from the benchmark's ``--seed`` unless ``--sim-seeds`` names them.
"""

from __future__ import annotations

from dataclasses import dataclass

# The reference profile the package documents (README, "Config files");
# the output checks read their parameters from here, not from the program.
REFERENCE = {
    "n": 100,
    "area_w": 100.0,
    "area_h": 100.0,
    "bs_x": 50.0,
    "bs_y": 50.0,
    "initial_energy_j": 0.1,
    "p_ch": 0.1,
    "p_hn": 0.2,
    "p_h": 0.1,
    "hn_window": None,
    "epsilon_amp": 5e-8,
    "rx_cost_j": 0.0,
    "traffic_fraction": 1.0,
    "packets_per_sender": 1,
    "max_rounds": 20000,
}

PROTOCOLS = ("leach", "least")


@dataclass(frozen=True)
class Part:
    """One config file and the commands run on it."""

    label: str
    overrides: tuple[tuple[str, object], ...]
    commands: tuple[str, ...]  # "compare", "simulate" (both protocols), "analyze"

    def profile(self) -> dict:
        prof = dict(REFERENCE)
        prof.update(self.overrides)
        return prof

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.overrides)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeds_per_run: int
    parts: tuple[Part, ...]

    def seeds_for(self, bench_seed: int) -> list[int]:
        """Consecutive simulation seeds; distinct bench seeds never share one."""
        k = self.seeds_per_run
        return [bench_seed * k + j + 1 for j in range(k)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lifetime",
            "compare on the reference profile with control traffic only: "
            "setup-phase elections, relocation and message charging dominate",
            3,
            (Part("ref", (("traffic_fraction", 0.0), ("max_rounds", 3000)), ("compare",)),),
        ),
        Workload(
            "traffic",
            "simulate with every alive sensor sending each round: path walks, "
            "per-hop charges, deaths and pruning, and a tail of few survivors",
            6,
            (Part("ref", (("max_rounds", 3000),), ("simulate",)),),
        ),
        Workload(
            "scale",
            "simulate and analyze at n=1000 and n=2000 for 10 rounds: the O(n^2) "
            "distance table, head announcements and placement statistics",
            2,
            (
                Part("n1000", (("n", 1000), ("max_rounds", 10)), ("simulate", "analyze")),
                Part("n2000", (("n", 2000), ("max_rounds", 10)), ("simulate", "analyze")),
            ),
        ),
    )
}
