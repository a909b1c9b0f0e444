"""Config files, experiment commands, CSV outputs, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import least_sim
from least_sim import EnergyParams, SimConfig
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


SMALL = "n = 8\ninitial_energy_j = 0.005\nmax_rounds = 120\n"


def test_empty_config_is_reference_profile():
    cfg = parse_config("")
    assert cfg == SimConfig()
    assert cfg.n == 100
    assert cfg.bs_pos.x == 50.0
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


def test_config_round_trip():
    cfg = parse_config("n = 17\np_h = 0.25\nhn_window = 3\nseed = 9\n")
    assert parse_config(format_config(cfg)) == cfg
    assert parse_config(format_config(SimConfig())) == SimConfig()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_parse_seeds_forms():
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,2,5") == [1, 2, 5]
    assert parse_seeds("3..6") == [3, 4, 5, 6]
    with pytest.raises(ConfigError):
        parse_seeds("x")


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


def test_non_finite_values_rejected_in_constructors():
    for field in ("area_w", "area_h", "initial_energy"):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: float("nan")})
    with pytest.raises(ValueError, match="finite"):
        EnergyParams(epsilon_amp=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        EnergyParams(rx_cost=float("nan"))


def test_main_bad_seed_spec_exit_one(tmp_path):
    code = main(["simulate", "--seeds", "oops", "--out", str(tmp_path / "o")])
    assert code == 1


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


def test_main_analyze_prints_csv(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("n = 12\n")
    code = main(["analyze", "--config", str(cfg_path), "--seeds", "1..3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(ANALYZE_HEADER)
