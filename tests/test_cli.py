"""Config files, experiment commands, CSV outputs, reproducibility."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from statistics import median

import pytest
from hypothesis import example, given, settings, strategies as st

import least_sim
from least_sim import EnergyParams, ProtocolParams, SimConfig, cli, run
from least_sim.cli import (
    ANALYZE_HEADER,
    COMPARE_HEADER,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    ConfigError,
    cmd_analyze,
    cmd_compare,
    cmd_simulate,
    cmd_sweep,
    format_config,
    load_config,
    main,
    parse_config,
    parse_seeds,
)
from least_sim.simulator import PROTOCOLS


SMALL = "n = 8\ninitial_energy_j = 0.005\nmax_rounds = 120\n"


def test_empty_config_is_reference_profile():
    cfg = parse_config("")
    assert cfg == SimConfig()
    assert cfg.n == 100
    assert cfg.bs_pos == (50.0, 50.0)
    assert cfg.params.p_ch == 0.1
    assert cfg.energy.epsilon_amp == pytest.approx(50e-9)


def test_parse_overrides_and_comments():
    cfg = parse_config("# comment\nn = 30\np_hn = 0.5  # inline\nprotocol = leach\n")
    assert cfg.n == 30
    assert cfg.params.p_hn == 0.5
    assert cfg.protocol == "leach"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bogus = 3\n")


def test_parse_rejects_out_of_range_probability():
    with pytest.raises(ConfigError, match=r"p_ch out of \[0,1\]"):
        parse_config("p_ch = 1.5\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("n = 5\nn 5\n")


def test_parse_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n = 5\nn = 6\n")


def _floats(lo=None, hi=None, exclude_lo=False):
    return st.floats(lo, hi, exclude_min=exclude_lo, allow_nan=False, allow_infinity=False)


WIDE = 1e150  # the field's corners and the BS within it keep every squared distance finite

VALID_CONFIGS = st.builds(
    SimConfig,
    n=st.integers(1, 10_000),
    area_w=_floats(0.0, WIDE, exclude_lo=True),
    area_h=_floats(0.0, WIDE, exclude_lo=True),
    bs_pos=st.tuples(_floats(-WIDE, WIDE), _floats(-WIDE, WIDE)),
    initial_energy=_floats(0.0),
    params=st.builds(ProtocolParams, p_ch=_floats(0.0, 1.0, exclude_lo=True), p_hn=_floats(0.0, 1.0),
                     p_h=_floats(0.0, 1.0), hn_window=st.none() | st.integers(min_value=0)),
    energy=st.builds(EnergyParams, epsilon_amp=_floats(0.0), rx_cost=_floats(0.0)),
    protocol=st.sampled_from(PROTOCOLS),
    seed=st.integers(-(2**64), 2**64),
    traffic_fraction=_floats(0.0, 1.0),
    packets_per_sender=st.integers(0, int(sys.float_info.max)),
    max_rounds=st.integers(min_value=1),
)


@settings(max_examples=200, deadline=None)
@given(VALID_CONFIGS)
@example(SimConfig())
@example(SimConfig(area_w=WIDE, area_h=WIDE, bs_pos=(-WIDE, WIDE),
                   packets_per_sender=int(sys.float_info.max)))  # the widest accepted
def test_config_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_parse_seeds_forms():
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,2,5") == [1, 2, 5]
    assert parse_seeds("3..6") == [3, 4, 5, 6]
    with pytest.raises(ConfigError):
        parse_seeds("x")
    with pytest.raises(ConfigError, match="seed 2 is repeated"):
        parse_seeds("2,3,2")


def test_simulate_writes_metrics_and_summary(tmp_path):
    cfg = parse_config(SMALL)
    cmd_simulate(cfg, [1], ["leach"], tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["leach_seed1.csv", "manifest.json", "summary.csv"]
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == SUMMARY_HEADER
    assert summary[1].startswith("leach,1,")


def test_simulate_both_protocols_many_seeds(tmp_path):
    cfg = parse_config(SMALL)
    cmd_simulate(cfg, [1, 2], ["leach", "least"], tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert {"leach_seed1.csv", "leach_seed2.csv", "least_seed1.csv", "least_seed2.csv"} <= names
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 5


def test_manifest_written_with_config_snapshot(tmp_path):
    cfg = parse_config(SMALL)
    cmd_simulate(cfg, [3], ["least"], tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == [3]
    assert parse_config(manifest["config"]) == cfg


def test_outputs_reproduce_byte_identically(tmp_path):
    cfg = parse_config(SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_simulate(cfg, [1, 2], ["least"], a)
    cmd_simulate(cfg, [1, 2], ["least"], b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_worker_fanout_matches_serial(tmp_path, monkeypatch):
    cfg = parse_config(SMALL)
    serial, fanned = tmp_path / "serial", tmp_path / "fanned"
    cmd_simulate(cfg, [1, 2], ["leach", "least"], serial)
    monkeypatch.setenv("LEAST_SIM_THREADS", "2")
    cmd_simulate(cfg, [1, 2], ["leach", "least"], fanned)
    for path in sorted(serial.iterdir()):
        assert path.read_bytes() == (fanned / path.name).read_bytes()


# A profile where sensors die within the cap, so grouped runs go through deaths.
DYING = "n = 12\ninitial_energy_j = 0.002\nmax_rounds = 300\n"


@pytest.mark.parametrize("protocols", [["leach", "least"], ["least", "leach"]])
def test_run_many_equals_independent_runs(protocols):
    cfg = parse_config(DYING)
    results = cli.run_many(cfg, protocols, [2, 1, 5])
    assert list(results) == [(p, s) for p in protocols for s in [2, 1, 5]]
    for (protocol, seed), result in results.items():
        assert result == run(replace(cfg, protocol=protocol, seed=seed))
        assert result[0][-1].dead_count > 0


def test_sweep_equals_independent_runs():
    cfg = parse_config(DYING)
    values, seeds = [0.05, 0.5, 0.2], [3, 1]
    got = cli.sweep_phn(cfg, values, seeds)
    halves = {}
    for v in values:
        for s in seeds:
            summary = run(replace(cfg, seed=s, params=replace(cfg.params, p_hn=v)))[1]
            assert summary.half_life_round is not None
            halves.setdefault(v, []).append(summary.half_life_round)
    assert got == [(v, float(median(halves[v]))) for v in values]


def test_compare_table_schema(tmp_path):
    cfg = parse_config("n = 8\ninitial_energy_j = 1000000\nmax_rounds = 2\n")
    path = cmd_compare(cfg, [1], tmp_path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == COMPARE_HEADER
    assert len(lines) == 3  # two rounds, huge energy: nobody dies
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[1] == "0" and cells[2] == "0"  # dead medians all zero


def test_compare_single_sensor_identical_curves(tmp_path):
    cfg = parse_config("n = 1\ninitial_energy_j = 0.001\nmax_rounds = 50\n")
    path = cmd_compare(cfg, [1], tmp_path)
    for row in path.read_text().strip().split("\n")[1:]:
        _, leach_dead, least_dead, leach_e, least_e = row.split(",")
        assert leach_dead == least_dead
        assert leach_e == least_e


def test_sweep_csv(tmp_path):
    cfg = parse_config("n = 8\ninitial_energy_j = 0.002\nmax_rounds = 200\n")
    path = cmd_sweep(cfg, [0.2], [1, 2, 3], tmp_path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("0.2,")


def test_sweep_empty_list_raises_before_manifest(tmp_path):
    with pytest.raises(ValueError, match="at least one value"):
        cmd_sweep(parse_config(SMALL), [], [1], tmp_path / "o")
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_sweep_reproducible(tmp_path):
    cfg = parse_config("n = 6\ninitial_energy_j = 0.002\nmax_rounds = 200\n")
    p1 = cmd_sweep(cfg, [0.1, 0.4], [1, 2], tmp_path / "x")
    p2 = cmd_sweep(cfg, [0.1, 0.4], [1, 2], tmp_path / "y")
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_fanout_matches_serial(tmp_path, monkeypatch):
    cfg = parse_config("n = 6\ninitial_energy_j = 0.002\nmax_rounds = 200\n")
    serial = cmd_sweep(cfg, [0.1, 0.4], [1, 2], tmp_path / "serial")
    monkeypatch.setenv("LEAST_SIM_THREADS", "3")
    fanned = cmd_sweep(cfg, [0.1, 0.4], [1, 2], tmp_path / "fanned")
    assert serial.read_bytes() == fanned.read_bytes()


def test_analyze_output_schema():
    cfg = parse_config("n = 20\n")
    out = cmd_analyze(cfg, [1, 2])
    lines = out.strip().split("\n")
    assert lines[0] == ANALYZE_HEADER
    least_est, leach_est, diff = (float(v) for v in lines[1].split(","))
    assert diff == pytest.approx(leach_est - least_est, rel=1e-9)


# -- argparse front end ----------------------------------------------------

def test_main_simulate_exit_zero(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL)
    code = main([
        "simulate", "--config", str(cfg_path), "--seeds", "1",
        "--protocol", "leach", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_main_simulate_protocol_defaults_to_config(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL + "protocol = leach\n")
    code = main(["simulate", "--config", str(cfg_path), "--seeds", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert "leach_seed1.csv" in names and "least_seed1.csv" not in names


def test_compare_pads_then_leaves_cells_empty(tmp_path):
    # protocols end at different rounds: rows extend to the longer one and
    # the shorter protocol's cells go empty past its last run
    cfg = parse_config("n = 6\ninitial_energy_j = 0.003\nmax_rounds = 400\n")
    path = cmd_compare(cfg, [1, 2, 3], tmp_path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    last = rows[-1]
    assert ("" in last[1:]) and any(cell != "" for cell in last[1:])
    for row in rows:
        assert len(row) == 5


def test_main_config_error_exit_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p_ch = 2.0\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("key", [
    "area_w", "area_h", "bs_x", "bs_y", "initial_energy_j", "p_ch", "p_hn", "p_h",
    "epsilon_amp", "rx_cost_j", "traffic_fraction",
])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_main_non_finite_value_exit_one(tmp_path, capsys, key, raw):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = {raw}\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("args, key", [
    *[(["simulate", "--config", line], key) for line, key in [
        ("area_w = 0", "area_w"), ("area_h = -5", "area_h"),
        ("epsilon_amp = -1", "epsilon_amp"), ("rx_cost_j = -1e-6", "rx_cost"),
        ("initial_energy_j = -1", "initial_energy"), ("n = 0", "n"), ("n = abc", "n"),
        ("p_ch = x", "p_ch"), ("max_rounds = 0", "max_rounds"),
        ("packets_per_sender = -1", "packets_per_sender"),
        ("traffic_fraction = 2", "traffic_fraction"), ("protocol = LEACH", "protocol"),
        ("hn_window = -1", "hn_window"), ("bs_x = nan", "bs_x"),
    ]],
    (["sweep", "--p-hn", "0.1,x"], "p-hn"),
    (["sweep", "--p-hn", "1.5"], "p_hn"),
    (["sweep", "--p-hn", "nan"], "p_hn"),
    (["sweep", "--p-hn", "-0.1"], "p_hn"),
    (["simulate", "--config", "n = 5\narea_w = 1e308\narea_h = 1e308"], "area_w"),
    (["simulate", "--config", "packets_per_sender = 1" + "0" * 400], "packets_per_sender"),
])
def test_main_rejection_names_the_key(tmp_path, capsys, args, key):
    if args[1] == "--config":  # the config line goes into a file
        bad = tmp_path / "bad.cfg"
        bad.write_text(args[2] + "\n")
        args = [args[0], "--config", str(bad)]
    code = main([*args, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(rf"\b{re.escape(key)}\b", err), err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("key", ["n", "seed", "packets_per_sender", "max_rounds", "hn_window"])
@pytest.mark.parametrize("raw", ["2.0", "1e3"])
def test_main_non_integer_value_exit_one(tmp_path, capsys, key, raw):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = {raw}\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_non_finite_values_rejected_in_constructors():
    for field in ("area_w", "area_h", "initial_energy"):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: float("nan")})
    with pytest.raises(ValueError, match="finite"):
        EnergyParams(epsilon_amp=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        EnergyParams(rx_cost=float("nan"))


@pytest.mark.parametrize("make, field, value", [
    (SimConfig, "n", 5.5), (SimConfig, "seed", 1.5), (SimConfig, "packets_per_sender", 1.0),
    (SimConfig, "max_rounds", 2.5), (ProtocolParams, "hn_window", 3.0),
    # a bool is an int to isinstance, yet n=True would run a one-sensor field
    (SimConfig, "n", True), (SimConfig, "seed", False), (SimConfig, "packets_per_sender", True),
    (SimConfig, "max_rounds", True), (ProtocolParams, "hn_window", True),
])
def test_non_integer_values_rejected_in_constructors(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make(**{field: value})


@pytest.mark.parametrize("fields, message", [
    ({"packets_per_sender": 10**400}, "packets_per_sender must be at most"),
    ({"area_w": 1e308, "area_h": 1e308}, "area_w, area_h and bs_pos span"),
    # a field that fits on its own, widened by the base station
    ({"area_w": 6e153, "bs_pos": (-6e153, 50.0)}, "area_w, area_h and bs_pos span"),
])
def test_values_too_large_for_a_float_rejected_in_constructors(fields, message):
    """Each hop prices eps * d * d * packets as floats, so both the packet
    count and the field's squared spread must fit in one; placements lie
    between the field's corners, so the field and the BS bound the spread."""
    with pytest.raises(ValueError, match=message):
        SimConfig(**fields)


@pytest.mark.parametrize("field, kind", [("params", "ProtocolParams"), ("energy", "EnergyParams")])
@pytest.mark.parametrize("value", [None, {}])
def test_parameter_objects_rejected_unless_their_type(field, kind, value):
    with pytest.raises(ValueError, match=f"{field} must be a {kind}"):
        SimConfig(**{field: value})


def test_main_n_above_table_cap_exit_one(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("n = 10001\n")
    code = main(["simulate", "--config", str(big), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "n must be <= 10000: 10001" in err and "sensor pairs" in err
    assert not (tmp_path / "o").exists()  # rejected before the manifest
    assert SimConfig(n=10_000).n == 10_000  # the cap itself is allowed; no Network is built


def test_main_analyze_single_sensor_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text("n = 1\n")
    code = main(["analyze", "--config", str(cfg_path), "--seeds", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "n = 1" in captured.err
    assert captured.out == ""


def test_main_analyze_zero_energy_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "dead.cfg"
    cfg_path.write_text("initial_energy_j = 0\n")
    code = main(["analyze", "--config", str(cfg_path), "--seeds", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "initial_energy_j" in captured.err
    assert captured.out == ""


def test_main_bad_seed_spec_exit_one(tmp_path):
    code = main(["simulate", "--seeds", "oops", "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "analyze"])
def test_main_repeated_seed_exit_one(tmp_path, capsys, command):
    # a repeated seed would run its placement twice and count it twice in medians
    argv = [command, "--seeds", "4,1,4"]
    if command != "analyze":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "seed 4 is repeated" in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()  # rejected before the manifest


def test_main_runtime_error_exit_two(tmp_path):
    target = tmp_path / "collide"
    target.write_text("not a directory")
    code = main(["sweep", "--seeds", "1", "--p-hn", "0.2", "--out", str(target)])
    assert code == 2


@pytest.mark.parametrize("raw", ["two", "1.5", "0", "-3", ""])
def test_main_bad_thread_count_exit_one(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("LEAST_SIM_THREADS", raw)
    code = main(["simulate", "--seeds", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "LEAST_SIM_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before the manifest


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, cores, items, started", [
    ("1000", 4, 9, [4]),     # clamped to the cores
    ("1000", 64, 3, [3]),    # clamped to the items
    ("3", 64, 9, [3]),       # as asked
    ("1000", None, 9, []),   # core count unknown: one, in-process
    ("1000", 1, 9, []),
])
def test_fan_out_at_most_one_worker_per_core(monkeypatch, threads, cores, items, started):
    monkeypatch.setenv("LEAST_SIM_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert cli._fan_out(abs, range(-items, 0)) == list(range(items, 0, -1))
    assert RecordingPool.sizes == started


def test_module_entry_point_runs_cli():
    src = str(Path(least_sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "least_sim.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"least-sim {least_sim.__version__}"
    assert proc.stderr == ""


def test_public_names_match_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    api = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    listing = api.split("exports these names, and only these:", 1)[1].split("\n\n", 1)[0]
    assert least_sim.__all__ == re.findall(r"`(\w+)`", listing)


def test_main_analyze_prints_csv(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("n = 12\n")
    code = main(["analyze", "--config", str(cfg_path), "--seeds", "1..3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(ANALYZE_HEADER)
