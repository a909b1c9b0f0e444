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
from pathlib import Path
from statistics import median

from . import __version__
from .analysis import compare_estimates
from .core import NetworkStats, Point, RandomStream, network_stats
from .energy import EnergyParams
from .protocols import ProtocolParams
from .simulator import (
    LifetimeSummary,
    RoundMetrics,
    SimConfig,
    fmt_float,
    metrics_csv,
    place_nodes,
    run,
)

DEFAULT_SWEEP_GRID = (0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9)

SUMMARY_HEADER = "protocol,seed,first_death,half_life,all_dead,avg_energy_per_packet"
COMPARE_HEADER = "round,leach_dead_median,least_dead_median,leach_energy_median,least_energy_median"
SWEEP_HEADER = "p_hn,half_life_median"
ANALYZE_HEADER = "least_estimate,leach_estimate,difference"


class ConfigError(Exception):
    pass


# -- config files -----------------------------------------------------

_CONFIG_KEYS = (
    "n",
    "area_w",
    "area_h",
    "bs_x",
    "bs_y",
    "initial_energy_j",
    "p_ch",
    "p_hn",
    "p_h",
    "hn_window",
    "epsilon_amp",
    "rx_cost_j",
    "protocol",
    "seed",
    "traffic_fraction",
    "packets_per_sender",
    "max_rounds",
)


def _parse_int(key, raw, line_no):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be an integer, got {raw!r}") from None


def _parse_float(key, raw, line_no):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if key in ("n", "seed", "packets_per_sender", "max_rounds"):
            values[key] = _parse_int(key, raw, line_no)
        elif key == "hn_window":
            values[key] = None if raw == "auto" else _parse_int(key, raw, line_no)
        elif key == "protocol":
            values[key] = raw
        else:
            values[key] = _parse_float(key, raw, line_no)

    base = SimConfig()
    for prob in ("p_ch", "p_hn", "p_h"):
        if prob in values and not 0.0 <= values[prob] <= 1.0:
            raise ConfigError(f"{prob} out of [0,1]: {values[prob]}")
    try:
        return SimConfig(
            n=values.get("n", base.n),
            area_w=values.get("area_w", base.area_w),
            area_h=values.get("area_h", base.area_h),
            bs_pos=Point(
                values.get("bs_x", base.bs_pos.x), values.get("bs_y", base.bs_pos.y)
            ),
            initial_energy=values.get("initial_energy_j", base.initial_energy),
            params=ProtocolParams(
                p_ch=values.get("p_ch", base.params.p_ch),
                p_hn=values.get("p_hn", base.params.p_hn),
                p_h=values.get("p_h", base.params.p_h),
                hn_window=values.get("hn_window", base.params.hn_window),
            ),
            energy=EnergyParams(
                epsilon_amp=values.get("epsilon_amp", base.energy.epsilon_amp),
                rx_cost=values.get("rx_cost_j", base.energy.rx_cost),
            ),
            protocol=values.get("protocol", base.protocol),
            seed=values.get("seed", base.seed),
            traffic_fraction=values.get("traffic_fraction", base.traffic_fraction),
            packets_per_sender=values.get("packets_per_sender", base.packets_per_sender),
            max_rounds=values.get("max_rounds", base.max_rounds),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> SimConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def format_config(config: SimConfig) -> str:
    """Render a config as config-file text; parse(format(c)) == c."""
    window = config.params.hn_window
    lines = [
        f"n = {config.n}",
        f"area_w = {config.area_w!r}",
        f"area_h = {config.area_h!r}",
        f"bs_x = {config.bs_pos.x!r}",
        f"bs_y = {config.bs_pos.y!r}",
        f"initial_energy_j = {config.initial_energy!r}",
        f"p_ch = {config.params.p_ch!r}",
        f"p_hn = {config.params.p_hn!r}",
        f"p_h = {config.params.p_h!r}",
        f"hn_window = {'auto' if window is None else window}",
        f"epsilon_amp = {config.energy.epsilon_amp!r}",
        f"rx_cost_j = {config.energy.rx_cost!r}",
        f"protocol = {config.protocol}",
        f"seed = {config.seed}",
        f"traffic_fraction = {config.traffic_fraction!r}",
        f"packets_per_sender = {config.packets_per_sender}",
        f"max_rounds = {config.max_rounds}",
    ]
    return "\n".join(lines) + "\n"


def parse_seeds(spec: str) -> list[int]:
    """Seed list syntax: '7', '1,2,5', or an inclusive range '1..30'."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in spec.split(",")]
    except ValueError:
        raise ConfigError(f"bad seed spec {spec!r}; use N, a,b,c or a..b") from None


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
    workers = min(_worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_many(config: SimConfig, protocols, seeds):
    """Run every (protocol, seed) pair; results keyed by that pair."""
    keys = [(p, s) for p in protocols for s in seeds]
    configs = [replace(config, protocol=p, seed=s) for p, s in keys]
    return dict(zip(keys, _fan_out(run, configs)))


def _half_life(config: SimConfig) -> int:
    """Half-life of one run; the round cap, a lower bound, if never reached."""
    half = run(config)[1].half_life_round
    return config.max_rounds if half is None else half


def sweep_phn(base_config: SimConfig, values, seeds) -> list[tuple[float, float]]:
    """Median half-life per host-node probability, over the given seeds."""
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [
        replace(base_config, seed=s, params=replace(base_config.params, p_hn=v))
        for v in values for s in seeds
    ]
    halves = _fan_out(_half_life, configs)
    k = len(seeds)
    return [(v, float(median(halves[i * k:(i + 1) * k]))) for i, v in enumerate(values)]


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
    leach_rows = [results[("leach", s)][0] for s in seeds]
    least_rows = [results[("least", s)][0] for s in seeds]
    leach_dead = median_by_round(leach_rows, lambda r: r.dead_count)
    least_dead = median_by_round(least_rows, lambda r: r.dead_count)
    leach_energy = median_by_round(leach_rows, lambda r: r.total_energy)
    least_energy = median_by_round(least_rows, lambda r: r.total_energy)
    length = max(len(leach_dead), len(least_dead))

    def cell(vals, idx):
        return fmt_float(vals[idx]) if idx < len(vals) else ""

    lines = [COMPARE_HEADER]
    for idx in range(length):
        lines.append(
            f"{idx + 1},{cell(leach_dead, idx)},{cell(least_dead, idx)},"
            f"{cell(leach_energy, idx)},{cell(least_energy, idx)}"
        )
    return lines


def cmd_compare(config: SimConfig, seeds, out_dir) -> Path:
    """Merged per-round median curves for both protocols."""
    out = Path(out_dir)
    write_manifest(out, "compare", config, seeds, ["leach", "least"])
    results = run_many(config, ["leach", "least"], seeds)
    path = out / "compare.csv"
    path.write_text("\n".join(compare_table(results, seeds)) + "\n")
    return path


def cmd_sweep(config: SimConfig, values, seeds, out_dir) -> Path:
    """Half-life medians across a host-node probability grid."""
    if not values:
        raise ValueError("sweep needs at least one value")
    out = Path(out_dir)
    write_manifest(out, "sweep", config, seeds, [config.protocol], extra={"p_hn": list(values)})
    rows = sweep_phn(config, values, seeds)
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
    d_bar = d_bar_max = 0.0
    for seed in seeds:
        cfg = replace(config, seed=seed)
        nodes = place_nodes(cfg, RandomStream(seed))
        stats = network_stats(nodes)
        d_bar += stats.d_bar
        d_bar_max += stats.d_bar_max
    stats = NetworkStats(d_bar / len(seeds), d_bar_max / len(seeds))
    est = compare_estimates(config.n, config.params, stats, config.energy.epsilon_amp)
    return (
        ANALYZE_HEADER
        + "\n"
        + f"{fmt_float(est.least_estimate)},{fmt_float(est.leach_estimate)},{fmt_float(est.difference)}"
        + "\n"
    )


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
        choices=["leach", "least", "both"],
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
            protocols = ["leach", "least"] if choice == "both" else [choice]
            cmd_simulate(config, seeds, protocols, args.out)
        elif args.command == "compare":
            cmd_compare(config, seeds, args.out)
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.p_hn.split(",")]
            except ValueError:
                raise ConfigError(f"bad --p-hn list: {args.p_hn!r}") from None
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise ConfigError(f"p_hn out of [0,1]: {v}")
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
