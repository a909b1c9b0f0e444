"""Command-line front end: config files, experiment drivers, CSV emission.

Config files are flat ``key = value`` text; every key has a default matching
the shipped reference profile, so an empty file is a valid config and
experiments are expressed as small overrides. All outputs are plain CSV;
plotting happens out of process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent import futures
from dataclasses import replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from statistics import median

from . import __version__
from .analysis import estimate_leach, estimate_least
from .core import NetworkStats, RandomStream, network_stats
from .energy import EnergyParams
from .protocols import ProtocolParams
from .simulator import (
    PROTOCOLS,
    LifetimeSummary,
    RoundMetrics,
    SimConfig,
    Simulation,
    fmt_float,
    metrics_csv,
    place_nodes,
)

DEFAULT_SWEEP_GRID = (0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9)

SUMMARY_HEADER = "protocol,seed,first_death,half_life,all_dead,avg_energy_per_packet"
COMPARE_HEADER = "round,leach_dead_median,least_dead_median,leach_energy_median,least_energy_median"
SWEEP_HEADER = "p_hn,half_life_median"
ANALYZE_HEADER = "least_estimate,leach_estimate,difference"


class ConfigError(Exception):
    pass


# -- config files -----------------------------------------------------

def _parse_value(key, raw, line_no):
    """``raw`` as the type of ``key``'s default; ``hn_window``'s None default also takes ``auto``."""
    default = _DEFAULTS[key]
    if isinstance(default, str):
        return raw
    if default is None and raw == "auto":
        return None
    number = float if isinstance(default, float) else int
    try:
        value = number(raw)
    except ValueError:
        kind = "a number" if number is float else "an integer"
        raise ConfigError(f"line {line_no}: {key} must be {kind}, got {raw!r}") from None
    if number is float and not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} must be finite, got {raw!r}")
    return value


def parse_config(text: str) -> SimConfig:
    """Parse flat key=value text into a validated config.

    Unknown keys are rejected; omitted keys take the reference profile
    defaults, so the empty string parses to the default config.
    """
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, line_no)

    v = {**_DEFAULTS, **values}
    try:
        return SimConfig(
            n=v["n"], area_w=v["area_w"], area_h=v["area_h"],
            bs_pos=(v["bs_x"], v["bs_y"]), initial_energy=v["initial_energy_j"],
            params=ProtocolParams(p_ch=v["p_ch"], p_hn=v["p_hn"], p_h=v["p_h"],
                                  hn_window=v["hn_window"]),
            energy=EnergyParams(epsilon_amp=v["epsilon_amp"], rx_cost=v["rx_cost_j"]),
            protocol=v["protocol"], seed=v["seed"], traffic_fraction=v["traffic_fraction"],
            packets_per_sender=v["packets_per_sender"], max_rounds=v["max_rounds"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> SimConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _config_values(config: SimConfig) -> dict:
    """Every config-file key with its value in ``config``, in file order."""
    p, e = config.params, config.energy
    return {
        "n": config.n, "area_w": config.area_w, "area_h": config.area_h,
        "bs_x": config.bs_pos[0], "bs_y": config.bs_pos[1], "initial_energy_j": config.initial_energy,
        "p_ch": p.p_ch, "p_hn": p.p_hn, "p_h": p.p_h, "hn_window": p.hn_window,
        "epsilon_amp": e.epsilon_amp, "rx_cost_j": e.rx_cost, "protocol": config.protocol,
        "seed": config.seed, "traffic_fraction": config.traffic_fraction,
        "packets_per_sender": config.packets_per_sender, "max_rounds": config.max_rounds,
    }


_DEFAULTS = _config_values(SimConfig())


def format_config(config: SimConfig) -> str:
    """Render a config as config-file text; parse(format(c)) == c."""
    def text(value):
        return "auto" if value is None else value if isinstance(value, str) else repr(value)

    return "".join(f"{key} = {text(value)}\n" for key, value in _config_values(config).items())


def parse_seeds(spec: str) -> list[int]:
    """Seed list syntax: '7', '1,2,5', or an inclusive range '1..30'; no seed twice."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        seeds = [int(part) for part in spec.split(",")]
    except ValueError:
        raise ConfigError(f"bad seed spec {spec!r}; use N, a,b,c or a..b") from None
    if len(set(seeds)) < len(seeds):
        twice = next(seed for seed in seeds if seeds.count(seed) > 1)
        raise ConfigError(f"seed {twice} is repeated in {spec!r}")
    return seeds


# -- run orchestration -------------------------------------------------

def _worker_count() -> int:
    """Worker processes from LEAST_SIM_THREADS: unset means 1."""
    raw = os.environ.get("LEAST_SIM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"LEAST_SIM_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _fan_out(fn, items) -> list:
    """``[fn(item) for item in items]``, over the configured worker processes.

    ``pool.map`` returns results in input order, so the output never depends
    on scheduling.
    """
    items = list(items)
    workers = min(_worker_count(), len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_placement(configs, finish=None) -> list:
    """Run configs of one seed in turn; later runs reuse the first one's distance table.

    A run's result is ``sim.run()``, or ``finish(sim)`` when given."""
    out, table = [], None
    for config in configs:
        sim = Simulation(config, table=table)
        table = sim.net.table
        out.append(sim.run() if finish is None else finish(sim))
        del sim  # between runs hold only the table, not the finished run
    return out


def run_many(config: SimConfig, protocols, seeds):
    """Run every (protocol, seed) pair; results keyed by that pair."""
    groups = [[replace(config, protocol=p, seed=s) for p in protocols] for s in seeds]
    results = dict(zip(seeds, _fan_out(_run_placement, groups)))
    return {(p, s): results[s][i] for i, p in enumerate(protocols) for s in seeds}


def _half_life(sim: Simulation) -> int:
    """Step a run only until half its sensors are dead, and return that round:
    ``Simulation.run``'s half-life, or the round cap, a lower bound, if never
    reached (0 if no round ran)."""
    target, cap = math.ceil(sim.config.n / 2), sim.config.max_rounds
    while sim.net.alive_count() > 0 and sim.round < cap:
        if sim.run_round().dead_count >= target:
            return sim.round
    return cap if sim.round else 0


def sweep_phn(base_config: SimConfig, values, seeds) -> list[tuple[float, float]]:
    """Median half-life per host-node probability, over the given seeds."""
    if not values:
        raise ValueError("sweep needs at least one value")
    distinct = list(dict.fromkeys(values))  # a repeated value is run once per seed
    groups = [
        [replace(base_config, seed=s, params=replace(base_config.params, p_hn=v)) for v in distinct]
        for s in seeds
    ]
    halves = _fan_out(partial(_run_placement, finish=_half_life), groups)
    medians = {v: float(median(h[i] for h in halves)) for i, v in enumerate(distinct)}
    return [(v, medians[v]) for v in values]


def write_manifest(out_dir: Path, command: str, config: SimConfig,
                   seeds, protocols, extra=None) -> None:
    """Record everything needed to reproduce the outputs, before writing them."""
    manifest = {
        "tool": "least-sim",
        "version": __version__,
        "command": command,
        "config": format_config(config),
        "seeds": list(seeds),
        "protocols": list(protocols),
    }
    if extra:
        manifest.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _summary_line(protocol, seed, s: LifetimeSummary) -> str:
    def opt(v):
        return "" if v is None else str(v)

    return (
        f"{protocol},{seed},{opt(s.first_death_round)},{opt(s.half_life_round)},"
        f"{opt(s.all_dead_round)},{fmt_float(s.avg_energy_per_packet)}"
    )


def cmd_simulate(config: SimConfig, seeds, protocols, out_dir) -> list[Path]:
    """One metrics CSV per (protocol, seed) plus a summary CSV."""
    out = Path(out_dir)
    write_manifest(out, "simulate", config, seeds, protocols)
    results = run_many(config, protocols, seeds)
    written = []
    lines = [SUMMARY_HEADER]
    for protocol in protocols:
        for seed in seeds:
            rows, summary = results[(protocol, seed)]
            path = out / f"{protocol}_seed{seed}.csv"
            path.write_text(metrics_csv(rows))
            written.append(path)
            lines.append(_summary_line(protocol, seed, summary))
    summary_path = out / "summary.csv"
    summary_path.write_text("\n".join(lines) + "\n")
    written.append(summary_path)
    return written


def median_by_round(series: list[list[RoundMetrics]], getter):
    """Per-round medians across runs, padding finished runs with their final value."""
    if not series:
        return []
    length = max(len(rows) for rows in series)
    out = []
    for idx in range(length):
        vals = [getter(rows[idx] if idx < len(rows) else rows[-1]) for rows in series if rows]
        out.append(median(vals))
    return out


def compare_table(results, seeds) -> list[str]:
    """Per-round median deaths, then energy, of each protocol, as ``COMPARE_HEADER`` orders them."""
    columns = [median_by_round([results[(p, s)][0] for s in seeds], attrgetter(field))
               for field in ("dead_count", "total_energy") for p in PROTOCOLS]
    lines = [COMPARE_HEADER]
    for idx in range(max(map(len, columns))):
        cells = (fmt_float(col[idx]) if idx < len(col) else "" for col in columns)
        lines.append(",".join([str(idx + 1), *cells]))
    return lines


def cmd_compare(config: SimConfig, seeds, out_dir) -> Path:
    """Merged per-round median curves for both protocols."""
    out = Path(out_dir)
    write_manifest(out, "compare", config, seeds, PROTOCOLS)
    results = run_many(config, PROTOCOLS, seeds)
    path = out / "compare.csv"
    path.write_text("\n".join(compare_table(results, seeds)) + "\n")
    return path


def cmd_sweep(config: SimConfig, values, seeds, out_dir) -> Path:
    """Half-life medians across a host-node probability grid."""
    rows = sweep_phn(config, values, seeds)
    out = Path(out_dir)
    write_manifest(out, "sweep", config, seeds, [config.protocol], extra={"p_hn": list(values)})
    lines = [SWEEP_HEADER]
    for value, half in rows:
        lines.append(f"{fmt_float(value)},{fmt_float(half)}")
    path = out / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def cmd_analyze(config: SimConfig, seeds) -> str:
    """Analytical per-round power estimates from measured placement statistics.

    Distance statistics are averaged over one placement per seed.
    """
    if config.n < 2:
        raise ConfigError(f"analyze needs n >= 2 to measure pair distances: n = {config.n}")
    if config.initial_energy == 0:
        raise ConfigError("analyze needs initial_energy_j > 0, since the estimates price "
                          f"traffic between alive sensors: initial_energy_j = {config.initial_energy}")
    d_bar = d_bar_max = 0.0
    for seed in seeds:
        stats = network_stats(place_nodes(replace(config, seed=seed), RandomStream(seed)))
        d_bar += stats.d_bar
        d_bar_max += stats.d_bar_max
    stats = NetworkStats(d_bar / len(seeds), d_bar_max / len(seeds))
    eps = config.energy.epsilon_amp
    least = estimate_least(config.n, config.params, stats, eps)
    leach = estimate_leach(config.n, config.params, stats, eps)
    cells = (least, leach, leach - least)
    return f"{ANALYZE_HEADER}\n{','.join(map(fmt_float, cells))}\n"


# -- argparse front end ------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="least-sim",
        description="Deterministic tree-based WSN routing simulator (LEAST vs. LEACH)",
    )
    parser.add_argument("--version", action="version", version=f"least-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--seeds", default="1", help="N, a,b,c or a..b (default: 1)")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="per-round metrics CSVs plus a lifetime summary")
    common(p_sim)
    p_sim.add_argument(
        "--protocol",
        choices=[*PROTOCOLS, "both"],
        default=None,
        help="default: the config's protocol",
    )

    p_cmp = sub.add_parser("compare", help="per-round median curves for both protocols")
    common(p_cmp)

    p_swp = sub.add_parser("sweep", help="half-life medians over a p_hn grid")
    common(p_swp)
    p_swp.add_argument(
        "--p-hn",
        default=",".join(str(v) for v in DEFAULT_SWEEP_GRID),
        help="comma-separated probabilities",
    )

    p_ana = sub.add_parser("analyze", help="closed-form power estimates (stdout CSV)")
    common(p_ana, out_required=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _worker_count()  # reject a malformed LEAST_SIM_THREADS before any output
        config = load_config(args.config) if args.config else SimConfig()
        seeds = parse_seeds(args.seeds)
        if args.command == "simulate":
            choice = args.protocol or config.protocol
            protocols = list(PROTOCOLS) if choice == "both" else [choice]
            cmd_simulate(config, seeds, protocols, args.out)
        elif args.command == "compare":
            cmd_compare(config, seeds, args.out)
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.p_hn.split(",")]
                for v in values:  # ProtocolParams holds the range rule
                    replace(config.params, p_hn=v)
            except ValueError as exc:
                raise ConfigError(f"bad --p-hn list {args.p_hn!r}: {exc}") from None
            cmd_sweep(config, values, seeds, args.out)
        elif args.command == "analyze":
            sys.stdout.write(cmd_analyze(config, seeds))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
