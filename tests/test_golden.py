"""Frozen golden corpus: SHA-256 digests of every file the CLI writes, and
of every run's exact floats.

Each profile below runs ``simulate`` (both protocols), ``compare``,
``sweep`` and ``analyze`` over four seeds on one worker, and every output
file (``manifest.json`` included, ``analyze``'s stdout as ``analyze.csv``)
is hashed into ``golden/digests.json``. The files print nine significant
digits, so ``golden/bits.json`` also hashes, per profile, protocol and
seed, each run's state to the last bit: every ``RoundMetrics`` field (floats
as ``float.hex``), the ``LifetimeSummary``, the random stream's state, the
delivered packet count and both energy tallies' totals. A refactor must
leave every digest unchanged. A change to the model on purpose regenerates
the corpus, in a commit of its own, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import astuple, replace
from pathlib import Path

from least_sim import Simulation
from least_sim.cli import main, parse_config, parse_seeds
from least_sim.simulator import PROTOCOLS

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
BITS = Path(__file__).parent / "golden" / "bits.json"

SEEDS = "1..4"
SWEEP_GRID = "0.1,0.6"

# Small fields with small batteries, so that every run stops within a few
# hundred rounds; together they cover partial and full traffic, reception
# pricing, an overridden host-node window and a tiny field that dies out.
# One field is above ``core._TABLE_MAX``: its rows compute distances on
# demand, and its digests were made while every size built a table.
PROFILES = {
    "traffic_full": "n = 30\ninitial_energy_j = 0.002\ntraffic_fraction = 1.0\nmax_rounds = 400\n",
    "traffic_half_rx": (
        "n = 25\ninitial_energy_j = 0.002\ntraffic_fraction = 0.5\n"
        "rx_cost_j = 2e-6\nmax_rounds = 300\n"
    ),
    "control_only_window": (
        "n = 20\ninitial_energy_j = 0.001\ntraffic_fraction = 0.0\n"
        "p_h = 0.5\nhn_window = 2\nmax_rounds = 300\n"
    ),
    "tiny_extinction": "n = 3\ninitial_energy_j = 0.003\nmax_rounds = 2000\n",
    # the reference field size: tree-protocol maps several levels deep and
    # first-level nodes with more than one heir
    "deep_trees": "n = 100\ninitial_energy_j = 0.004\ntraffic_fraction = 1.0\nmax_rounds = 120\n",
    "above_table": "n = 800\ninitial_energy_j = 0.001\ntraffic_fraction = 0.5\nmax_rounds = 15\n",
}


def compute_digests(workdir: Path) -> dict[str, str]:
    """Run every command of every profile under ``workdir``; digest each file."""
    digests = {}
    for name, text in PROFILES.items():
        cfg = workdir / f"{name}.cfg"
        cfg.write_text(text)
        out = workdir / name
        common = ["--config", str(cfg), "--seeds", SEEDS]
        runs = [
            ["simulate", *common, "--protocol", "both", "--out", str(out / "simulate")],
            ["compare", *common, "--out", str(out / "compare")],
            ["sweep", *common, "--p-hn", SWEEP_GRID, "--out", str(out / "sweep")],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["analyze", *common]) == 0
        (out / "analyze").mkdir()
        (out / "analyze" / "analyze.csv").write_text(stdout.getvalue())
        for path in sorted(out.rglob("*")):
            if path.is_file():
                key = path.relative_to(workdir).as_posix()
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _exact(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def compute_bits() -> dict[str, str]:
    """Run each profile's config per protocol and seed; digest its exact state."""
    bits = {}
    for name, text in PROFILES.items():
        config = parse_config(text)
        for protocol in PROTOCOLS:
            for seed in parse_seeds(SEEDS):
                sim = Simulation(replace(config, protocol=protocol, seed=seed))
                rows, summary = sim.run()
                lines = [",".join(map(_exact, astuple(row))) for row in rows]
                lines.append(",".join(map(_exact, astuple(summary))))
                lines.append(",".join(map(_exact, (sim.stream._state, sim.delivered_total,
                                                   sim.setup.total, sim.steady.total))))
                record = "\n".join(lines) + "\n"
                bits[f"{name}/{protocol}_seed{seed}"] = hashlib.sha256(record.encode()).hexdigest()
    return bits


def test_golden_bits_identical():
    want = json.loads(BITS.read_text())
    got = compute_bits()
    assert sorted(got) == sorted(want)
    changed = [key for key in sorted(want) if got[key] != want[key]]
    assert not changed, f"runs differ from the golden bits: {changed}"


def test_golden_corpus_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("LEAST_SIM_THREADS", raising=False)
    want = json.loads(DIGESTS.read_text())
    got = compute_digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [key for key in sorted(want) if got[key] != want[key]]
    assert not changed, f"outputs differ from the golden corpus: {changed}"


if __name__ == "__main__":
    import tempfile

    os.environ.pop("LEAST_SIM_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    bits = compute_bits()
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    BITS.write_text(json.dumps(bits, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS} and {len(bits)} to {BITS}", file=sys.stderr)
