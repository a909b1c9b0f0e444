"""Output checks: every command output against a computation made apart
from the program, or against a property the method must have.

* Rounds 1 and 2 of every run are replayed by the independent interpreter
  in ``tests/trace_oracle.py`` from a placement drawn here; the rows' setup
  and steady energy and the delivered packets must match the replay.
* Every row conserves energy, energy never rises and deaths never fall;
  round 1 is the same for both protocols on one seed.
* ``summary.csv``, ``compare.csv`` and the ``analyze`` estimates are
  recomputed from the rows and from the placement (with numpy).
* Every file a command writes is byte-identical from one iteration to the
  next.

Each check is one operation, attempted and failed or not.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from workloads import PROTOCOLS

REL_TOL = 1e-9


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)


def g9(x: float) -> str:
    """The CSV float format the package documents: nine significant digits."""
    return f"{x:.9g}"


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


# -- expectations computed apart from the program ----------------------

def placement(prof: dict, seed: int, stream_cls):
    """Positions by id (0 is the base station) from the documented draw
    order: x then y per sensor, ascending id, uniform over the field."""
    stream = stream_cls(seed)
    pos = {0: (prof["bs_x"], prof["bs_y"])}
    for i in range(1, prof["n"] + 1):
        x = prof["area_w"] * stream.random()
        y = prof["area_h"] * stream.random()
        pos[i] = (x, y)
    return pos, stream


def replay_two_rounds(prof: dict, protocol: str, seed: int, oracle, stream_cls):
    """(setup J, steady J, delivered packets) for rounds 1 and 2.

    Round 2 is replayed only when nobody died in round 1, since the
    interpreter has no pruning step.
    """
    frac = prof["traffic_fraction"]
    if frac not in (0.0, 1.0):
        raise ValueError("the replay covers full or zero traffic only")
    pos, stream = placement(prof, seed, stream_cls)
    params = SimpleNamespace(p_ch=prof["p_ch"], p_hn=prof["p_hn"],
                             p_h=prof["p_h"], hn_window=prof["hn_window"])
    eps, packets = prof["epsilon_amp"], prof["packets_per_sender"]
    alive = list(range(1, prof["n"] + 1))
    energy = {i: prof["initial_energy_j"] for i in alive}
    last_ch: dict[int, int] = {}

    def finish(parent, messages):
        setup = oracle.charge_trace(pos, energy, messages, eps)
        senders = [i for i in alive if energy[i] > 0.0] if frac == 1.0 else []
        steady, delivered = oracle.steady_trace(pos, energy, parent, senders, packets, eps)
        return setup, steady, delivered

    parent, messages, _ = oracle.leach_trace(pos, alive, last_ch, params, 1, stream)
    rounds = [finish(parent, messages)]
    if all(energy[i] > 0.0 for i in alive):
        if protocol == "leach":
            parent, messages, _ = oracle.leach_trace(pos, alive, last_ch, params, 2, stream)
        else:
            parent, messages, _, _ = oracle.least_round_trace(
                pos, alive, {}, parent, params, 2, stream)
        rounds.append(finish(parent, messages))
    return rounds


def placement_stats(prof: dict, seeds, stream_cls):
    """Mean pair distance and mean farthest-peer distance over the seeds."""
    import numpy as np  # imported late: numpy must not count in the workload's peak memory

    d_bar = d_bar_max = 0.0
    m = prof["n"]
    for seed in seeds:
        pos, _ = placement(prof, seed, stream_cls)
        pts = np.array([pos[i] for i in range(1, m + 1)])
        dist = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        d_bar += float(dist.sum()) / (m * (m - 1))
        d_bar_max += float(dist.max(axis=1).mean())
    return d_bar / len(seeds), d_bar_max / len(seeds)


def estimates(prof: dict, d_bar: float, d_bar_max: float):
    """Closed-form per-round setup power, as ``analysis`` documents it."""
    eps, n = prof["epsilon_amp"], prof["n"]
    p_ch, p_hn = prof["p_ch"], prof["p_hn"]
    least = eps * n * (p_hn * d_bar_max**2 + 3.0 * p_ch * d_bar**2)
    leach = eps * n * (p_ch * d_bar_max**2 + (1.0 - p_ch) * d_bar**2)
    return least, leach, leach - least


# -- checks on one iteration's outputs ----------------------------------

def row_line(r) -> str:
    return (f"{r.round},{r.dead_count},{g9(r.total_energy)},{g9(r.setup_energy)},"
            f"{g9(r.steady_energy)},{r.first_level_width},{r.max_depth}")


def check_rows(chk: Checker, tag: str, prof: dict, rows) -> None:
    """Energy conservation, monotonicity and the run's end, on full-precision rows."""
    n = prof["n"]
    prev = sum([prof["initial_energy_j"]] * n)
    conserved = monotone = numbered = True
    detail = ""
    last_dead = 0
    for idx, r in enumerate(rows, start=1):
        spent = r.setup_energy + r.steady_energy
        drop = prev - r.total_energy
        # each total is a float sum over up to n sensors
        if conserved and not math.isclose(drop, spent, rel_tol=REL_TOL,
                                          abs_tol=n * math.ulp(prev)):
            conserved, detail = False, f"round {r.round}: drop {drop!r} vs spent {spent!r}"
        if r.total_energy > prev or r.dead_count < last_dead:
            monotone = False
        if r.round != idx:
            numbered = False
        prev, last_dead = r.total_energy, r.dead_count
    chk.check(f"{tag} energy drop equals setup + steady", conserved, detail)
    chk.check(f"{tag} energy never rises, deaths never fall", monotone)
    chk.check(f"{tag} rounds numbered 1..{len(rows)}", numbered)
    ended = bool(rows) and (len(rows) == prof["max_rounds"] or rows[-1].dead_count == n)
    extinct_once = sum(1 for r in rows if r.dead_count == n) <= 1
    chk.check(f"{tag} run ends at extinction or at the round cap", ended and extinct_once,
              f"{len(rows)} rows, last dead {rows[-1].dead_count if rows else None}")


def check_replay(chk: Checker, tag: str, rows, expected, replayed) -> None:
    """Rows 1-2 against the interpreter; ``replayed`` is (rows, delivered)
    from a fresh two-round Simulation of the same config."""
    sim_rows, delivered = replayed
    for k, (setup, steady, packets) in enumerate(expected):
        if k >= len(rows):
            chk.check(f"{tag} round {k + 1} exists", False)
            continue
        r = rows[k]
        chk.check(f"{tag} round {k + 1} setup energy matches the replay",
                  math.isclose(r.setup_energy, setup, rel_tol=REL_TOL, abs_tol=0.0),
                  f"{r.setup_energy!r} vs {setup!r}")
        chk.check(f"{tag} round {k + 1} steady energy matches the replay",
                  math.isclose(r.steady_energy, steady, rel_tol=REL_TOL, abs_tol=0.0),
                  f"{r.steady_energy!r} vs {steady!r}")
        chk.check(f"{tag} round {k + 1} delivered packets match the replay",
                  k < len(delivered) and delivered[k] == packets,
                  f"{delivered[k] if k < len(delivered) else None} vs {packets}")
        chk.check(f"{tag} round {k + 1} repeats in a fresh simulation",
                  k < len(sim_rows) and sim_rows[k] == r)


def check_metrics_file(chk: Checker, tag: str, path: Path, rows) -> None:
    want = ["round,dead,total_energy_j,setup_energy_j,steady_energy_j,first_level_width,max_depth"]
    want += [row_line(r) for r in rows]
    got = path.read_text().split("\n") if path.is_file() else []
    chk.check(f"{tag} {path.name} holds every row", got == want + [""])


def check_summary(chk: Checker, path: Path, n: int, results, seeds) -> None:
    lines = path.read_text().splitlines() if path.is_file() else []
    fields = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    half = math.ceil(n / 2)

    def first(rows, pred):
        return next((str(r.round) for r in rows if pred(r)), "")

    for protocol in PROTOCOLS:
        for seed in seeds:
            rows = results[(protocol, seed)][0]
            want = [first(rows, lambda r: r.dead_count > 0),
                    first(rows, lambda r: r.dead_count >= half),
                    first(rows, lambda r: r.dead_count == n)]
            got = fields.get((protocol, str(seed)), [None] * 6)[2:5]
            chk.check(f"summary {protocol} seed {seed} first death, half-life, extinction",
                      got == want, f"{got} vs {want}")


def compare_lines(results, seeds) -> list[str]:
    """compare.csv recomputed with statistics.median, finished runs padded
    with their final row until every run of the protocol has ended."""
    cols = []
    for protocol in PROTOCOLS:
        series = [results[(protocol, s)][0] for s in seeds]
        length = max(len(rows) for rows in series)
        dead, energy = [], []
        for idx in range(length):
            picked = [rows[min(idx, len(rows) - 1)] for rows in series]
            dead.append(median(r.dead_count for r in picked))
            energy.append(median(r.total_energy for r in picked))
        cols.append((dead, energy))
    (leach_dead, leach_energy), (least_dead, least_energy) = cols
    lines = ["round,leach_dead_median,least_dead_median,leach_energy_median,least_energy_median"]

    def cell(vals, idx):
        return g9(vals[idx]) if idx < len(vals) else ""

    for idx in range(max(len(leach_dead), len(least_dead))):
        lines.append(f"{idx + 1},{cell(leach_dead, idx)},{cell(least_dead, idx)},"
                     f"{cell(leach_energy, idx)},{cell(least_energy, idx)}")
    return lines


def check_analyze(chk: Checker, tag: str, path: Path, want) -> None:
    lines = path.read_text().splitlines() if path.is_file() else []
    ok = len(lines) == 2 and lines[0] == "least_estimate,leach_estimate,difference"
    detail = ""
    if ok:
        got = [float(v) for v in lines[1].split(",")]
        scale = max(abs(want[0]), abs(want[1]))
        ok = all(math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-7 * scale)
                 for a, b in zip(got, want))
        detail = f"{got} vs {list(want)}"
    chk.check(f"{tag} analyze estimates match numpy placement statistics", ok, detail)


def check_manifest(chk: Checker, tag: str, path: Path, command: str, seeds) -> None:
    try:
        manifest = json.loads(path.read_text())
        ok = manifest.get("command") == command and manifest.get("seeds") == list(seeds)
    except (OSError, ValueError):
        ok = False
    chk.check(f"{tag} manifest names the command and the seeds", ok)
