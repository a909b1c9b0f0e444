"""least-sim benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload lifetime|traffic|scale [--seed N]
                         [--sim-seeds a,b,...] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/`` and
the setup-phase interpreter from ``tests/trace_oracle.py``. The workload's
commands (``least_sim.cli.main``, in-process, one worker) are repeated as
whole iterations, at least two, while the next one is expected to end
within ``--seconds``, and every iteration's outputs are checked. Times are
scaled to a reference host speed (``hostclock.py``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-module ones).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from hostclock import REFERENCE_KERNEL_S, HostClock  # noqa: E402
from spans import Hook, Tracer  # noqa: E402
from workloads import PROTOCOLS, WORKLOADS  # noqa: E402

# End-to-end runs install only these boundaries: the runs' rows are read at
# the first, and the host clock is marked around the other two.
STOPWATCH = {"cli.run_many", "simulator.Simulation", "simulator.Simulation.run"}


def import_program():
    """Import least_sim from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    oracle = ROOT / "tests" / "trace_oracle.py"
    if not (src / "least_sim" / "__init__.py").is_file() or not oracle.is_file():
        raise SystemExit(f"bench: no least_sim sources under {ROOT}; run from a checkout")
    sys.path[:0] = [str(src), str(oracle.parent)]
    import least_sim
    import least_sim.cli
    import trace_oracle

    if Path(least_sim.__file__).resolve().parent != (src / "least_sim").resolve():
        raise SystemExit(f"bench: least_sim imported from {least_sim.__file__}, not {src}")
    return least_sim, trace_oracle


class Capture:
    """What the hooks see: run results per command and per-module counts."""

    def __init__(self):
        self.results: list[tuple[str, dict]] = []
        self.part = ""
        self.rounds = 0

    def hooks(self, stall_error):
        draws = "core.RandomStream.draws"

        def results(tracer, args, result, token):
            self.results.append((self.part, result))

        def rounds(tracer, args, result, token):
            self.rounds += len(result[0])

        def draws_before(tracer, args):
            return tracer.counters.get(draws, 0)

        def heads(tracer, args, result, token):
            tracer.count("winners", len(result.tree.first_level()))
            tracer.count("election_draws", tracer.counters.get(draws, 0) - token)
            if tracer.current() != "protocols.least_setup":
                tracer.count("messages", len(result.messages))

        def hosts(tracer, args, result, token):
            tracer.count("winners", len(result[0]))
            tracer.count("election_draws", tracer.counters.get(draws, 0) - token)

        def least(tracer, args, result, token):
            if result is None:
                tracer.count("stalls")
            else:
                tracer.count("messages", len(result.messages))

        def stall(tracer, exc):
            if isinstance(exc, stall_error):
                tracer.count("stalls")

        def hops(tracer, args, result, token):
            tracer.count("hops", len(result) - 1)

        return {
            "cli.run_many": Hook(after=results),
            "simulator.Simulation.run": Hook(after=rounds),
            "protocols.leach_setup": Hook(before=draws_before, after=heads),
            "protocols.elect_host_nodes": Hook(before=draws_before, after=hosts),
            "protocols.least_setup": Hook(after=least, error=stall),
            "tree.RoutingTree.path_to_root": Hook(after=hops),
        }


# -- one iteration -------------------------------------------------------

def clock_hooks(clock: HostClock, hooks: dict) -> dict:
    """``hooks`` plus a clock mark on entry to and exit from every
    ``Simulation`` construction and run, so that set-up and run time are
    scaled interval by interval."""

    def between(name, inside):
        hook = hooks.get(name, Hook())

        def before(tracer, args):
            clock.mark(inside)
            return hook.before(tracer, args) if hook.before else None

        def after(tracer, args, result, token):
            clock.mark("other")
            if hook.after:
                hook.after(tracer, args, result, token)

        return Hook(before=before, after=after, error=hook.error)

    return {**hooks,
            "simulator.Simulation": between("simulator.Simulation", "setup"),
            "simulator.Simulation.run": between("simulator.Simulation.run", "run")}


def run_commands(cli, workload, seeds, configs, out: Path, capture: Capture):
    """Run every command of the workload into ``out``; returns each
    command's exit code."""
    seed_arg = ",".join(str(s) for s in seeds)
    codes = []
    for part in workload.parts:
        capture.part = part.label
        cfg = str(configs[part.label])
        part_out = out / part.label
        for command in part.commands:
            argv = [command, "--config", cfg, "--seeds", seed_arg]
            if command == "analyze":
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = cli.main(argv)
                part_out.mkdir(parents=True, exist_ok=True)
                (part_out / "analyze.csv").write_text(text.getvalue())
            else:
                if command == "simulate":
                    argv += ["--protocol", "both"]
                code = cli.main(argv + ["--out", str(part_out / command)])
            codes.append((f"{part.label} {command}", code))
    return codes


class Expectations:
    """Independent computations, made once per benchmark run from the inputs."""

    def __init__(self, workload, seeds, lib, oracle):
        stream_cls = lib.RandomStream
        self.replay = {}
        self.stats = {}
        for part in workload.parts:
            prof = part.profile()
            for protocol in PROTOCOLS:
                for seed in seeds:
                    self.replay[(part.label, protocol, seed)] = checks.replay_two_rounds(
                        prof, protocol, seed, oracle, stream_cls)
            if "analyze" in part.commands:
                self.stats[part.label] = checks.estimates(
                    prof, *checks.placement_stats(prof, seeds, stream_cls))


def check_iteration(chk, workload, seeds, configs, out, capture, codes, expect,
                    first_digests, lib):
    for label, code in codes:
        chk.check(f"{label} exited with 0", code == 0, f"exit code {code}")
    want_runs = {(p, s) for p in PROTOCOLS for s in seeds}
    by_part = {}
    for label, results in capture.results:
        by_part.setdefault(label, []).append(results)
    for part in workload.parts:
        prof = part.profile()
        part_out = out / part.label
        runs = by_part.get(part.label, [])
        complete = (len(runs) == sum(c != "analyze" for c in part.commands)
                    and all(set(r) == want_runs for r in runs))
        chk.check(f"{part.label} commands returned the runs of both protocols", complete)
        if not complete:
            continue
        for command, results in zip([c for c in part.commands if c != "analyze"], runs):
            cmd_out = part_out / command
            cfg = lib.cli.load_config(configs[part.label])
            for seed in seeds:
                for protocol in PROTOCOLS:
                    tag = f"{part.label} {command} {protocol} seed {seed}"
                    rows = results[(protocol, seed)][0]
                    checks.check_rows(chk, tag, prof, rows)
                    sim = lib.Simulation(replace(cfg, protocol=protocol, seed=seed))
                    sim_rows, delivered = [], []
                    for _ in range(min(2, len(rows))):
                        sim_rows.append(sim.run_round())
                        delivered.append(sim.last_delivered)
                    checks.check_replay(chk, tag, rows, expect.replay[(part.label, protocol, seed)],
                                        (sim_rows, delivered))
                    if command == "simulate":
                        checks.check_metrics_file(
                            chk, tag, cmd_out / f"{protocol}_seed{seed}.csv", rows)
                leach, least = results[("leach", seed)][0], results[("least", seed)][0]
                chk.check(f"{part.label} {command} seed {seed} round 1 is protocol-independent",
                          bool(leach) and bool(least) and leach[0] == least[0])
            if command == "simulate":
                checks.check_summary(chk, cmd_out / "summary.csv", prof["n"], results, seeds)
            else:
                path = cmd_out / "compare.csv"
                got = path.read_text().split("\n") if path.is_file() else []
                chk.check(f"{part.label} compare.csv equals medians recomputed from the rows",
                          got == checks.compare_lines(results, seeds) + [""])
            checks.check_manifest(chk, f"{part.label} {command}", cmd_out / "manifest.json",
                                  command, seeds)
            if workload.name == "lifetime":
                chk.check(f"{part.label} every lifetime run has exactly {prof['max_rounds']} rows",
                          all(len(r[0]) == prof["max_rounds"] for r in results.values()))
        if "analyze" in part.commands:
            checks.check_analyze(chk, part.label, part_out / "analyze.csv",
                                 expect.stats[part.label])
    digests = checks.file_digests(out)
    if first_digests is None:
        chk.check("iteration wrote output files", bool(digests))
    else:
        chk.check("outputs are byte-identical to the first iteration", digests == first_digests,
                  f"{sorted(k for k in digests if digests.get(k) != first_digests.get(k))}")
    return digests


# -- per-module metrics ----------------------------------------------------

LAYER_METRICS = (
    ("core.Network.calls", "count", "lower"),
    ("core.Network.busy_s", "s", "lower"),
    ("core.Network.farthest_alive_distance.calls", "count", "lower"),
    ("core.Network.farthest_alive_distance.self_s", "s", "lower"),
    ("core.network_stats.self_s", "s", "lower"),
    ("core.RandomStream.draws", "count", "lower"),
    ("tree.RoutingTree.attach.calls", "count", "lower"),
    ("tree.RoutingTree.attach.self_s", "s", "lower"),
    ("tree.RoutingTree.detach_subtree_root.calls", "count", "lower"),
    ("tree.RoutingTree.detach_subtree_root.self_s", "s", "lower"),
    ("tree.RoutingTree.max_depth.calls", "count", "lower"),
    ("tree.RoutingTree.max_depth.self_s", "s", "lower"),
    ("tree.RoutingTree.path_to_root.calls", "count", "lower"),
    ("tree.RoutingTree.path_to_root.hops", "count", "lower"),
    ("tree.RoutingTree.path_to_root.self_s", "s", "lower"),
    ("protocols.leach_setup.calls", "count", "lower"),
    ("protocols.leach_setup.self_s", "s", "lower"),
    ("protocols.least_setup.calls", "count", "lower"),
    ("protocols.least_setup.self_s", "s", "lower"),
    ("protocols.elect_host_nodes.calls", "count", "lower"),
    ("protocols.elect_host_nodes.self_s", "s", "lower"),
    ("protocols.elect_heirs.calls", "count", "lower"),
    ("protocols.elect_heirs.self_s", "s", "lower"),
    ("protocols.relocate.calls", "count", "lower"),
    ("protocols.relocate.self_s", "s", "lower"),
    ("protocols.messages", "count", "lower"),
    ("protocols.stalls", "count", "lower"),
    ("protocols.winners_per_draw", "ratio", "higher"),
    ("energy.apply_messages.calls", "count", "lower"),
    ("energy.apply_messages.self_s", "s", "lower"),
    ("energy.charge.calls", "count", "lower"),
    ("energy.charge.self_s", "s", "lower"),
    ("simulator.place_nodes.self_s", "s", "lower"),
    ("simulator.Simulation.run_round.calls", "count", "lower"),
    ("simulator.Simulation.run_round.self_s", "s", "lower"),
    ("simulator.metrics_csv.self_s", "s", "lower"),
    ("cli.compare_table.self_s", "s", "lower"),
    ("cli.cmd_compare.self_s", "s", "lower"),
    ("cli.cmd_simulate.self_s", "s", "lower"),
    ("cli.cmd_analyze.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent", "count", "lower"),
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("peak_mem_mb", "MB"),
)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-module figures of the traced iteration that just ended."""
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_ns[name] / 1e9
        values[f"{name}.busy_s"] = tracer.busy_ns[name] / 1e9
    counters = tracer.counters
    values["core.RandomStream.draws"] = counters.get("core.RandomStream.draws", 0)
    values["tree.RoutingTree.path_to_root.hops"] = counters.get("hops", 0)
    values["protocols.messages"] = counters.get("messages", 0)
    values["protocols.stalls"] = counters.get("stalls", 0)
    draws = counters.get("election_draws", 0)
    values["protocols.winners_per_draw"] = counters.get("winners", 0) / draws if draws else 0.0
    return values


# -- main --------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed (>= 0); picks the simulation seeds")
    parser.add_argument("--sim-seeds", default=None,
                        help="comma-separated simulation seeds, overriding --seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    lib, oracle = import_program()
    os.environ["LEAST_SIM_THREADS"] = "1"  # no process fan-out
    workload = WORKLOADS[args.workload]
    if args.sim_seeds:
        seeds = [int(s) for s in args.sim_seeds.split(",")]
    else:
        seeds = workload.seeds_for(args.seed)

    work_dir = OUT_DIR / workload.name
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    configs = {}
    for part in workload.parts:
        configs[part.label] = work_dir / f"{part.label}.cfg"
        configs[part.label].write_text(part.config_text())
    out = work_dir / "run"

    capture = Capture()
    clock = HostClock()
    traced_hooks = capture.hooks(lib.ProtocolStallError)
    untraced_hooks = clock_hooks(clock, traced_hooks)
    stopwatch, tracer = Tracer(), Tracer()
    chk = checks.Checker()
    expect = None
    first_digests = None
    walls, setups, rates, traced_walls, layers = [], [], [], [], []
    raw_walls = []
    peak_mb = 0.0

    start = perf_counter()
    passes = []  # host seconds of each pass, checks included
    iteration = 0
    # stop before a pass that would end past --seconds, so a run's length
    # does not depend on how long its last iteration is
    while iteration < 2 or perf_counter() - start + max(passes[-2:]) <= args.seconds:
        pass_start = perf_counter()
        traced = args.trace == 1 and iteration % 2 == 1
        active = tracer if traced else stopwatch
        active.reset_totals()
        active.install(hooks=traced_hooks if traced else untraced_hooks,
                       only=None if traced else STOPWATCH)
        capture.results.clear()
        capture.rounds = 0
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        try:
            # a traced iteration is marked only at its ends, outside every span
            clock.start("other")
            codes = run_commands(lib.cli, workload, seeds, configs, out, capture)
            clock.mark(None)
        finally:
            active.uninstall()
        wall = sum(clock.scaled.values())
        if traced:
            traced_walls.append(wall)
            layers.append(layer_values(tracer))
        else:
            walls.append(wall)
            raw_walls.append(sum(clock.raw.values()))
            setups.append(clock.scaled.get("setup", 0.0))
            run_s = clock.scaled.get("run", 0.0)
            rates.append(capture.rounds / run_s if run_s else 0.0)
        if iteration == 0:
            # ru_maxrss is in KiB on Linux; nothing but the program has run yet
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            expect_start = perf_counter()
            expect = Expectations(workload, seeds, lib, oracle)
            pass_start += perf_counter() - expect_start  # made once, not per pass
        digests = check_iteration(chk, workload, seeds, configs, out, capture, codes, expect,
                                  first_digests, lib)
        if first_digests is None:
            first_digests = digests
        passes.append(perf_counter() - pass_start)
        iteration += 1

    digests = checks.file_digests(out)
    print(f"workload {workload.name}: seeds {','.join(map(str, seeds))}, "
          f"{iteration} iterations in {perf_counter() - start:.1f} s")
    print(f"cores {os.cpu_count()}, Python {platform.python_version()}")
    print("untraced iterations, wall_s (scaled / host seconds): "
          + " ".join(f"{w:.3f}/{r:.3f}" for w, r in zip(walls, raw_walls)))
    print(f"calibration kernel: median {median(clock.kernel_times) * 1e3:.3f} ms "
          f"over {len(clock.kernel_times)} marks (reference "
          f"{REFERENCE_KERNEL_S * 1e3:.3f} ms)")
    print(f"operations attempted {chk.attempted}, failed {chk.failed}")
    for failure in chk.failures[:20]:
        print(f"FAILED {failure}")

    if args.trace == 1:
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            metrics[name] = {"value": median(it.get(name, 0) for it in layers), "unit": unit}
        metrics["trace.overhead_s"]["value"] = median(traced_walls) - median(walls)
        metrics["trace.spans"]["value"] = len(tracer.span_name)
        metrics["trace.absent"]["value"] = len(tracer.absent)
        for name in tracer.absent:
            print(f"ABSENT {name}: the program no longer has this function")
        print(f"untraced wall_s {median(walls):.4f}, traced {median(traced_walls):.4f}")
        spans_path = work_dir / "spans.tsv.gz"
        tracer.write_spans(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "rounds_per_s": median(rates),
            "peak_mem_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for path, digest in digests.items():
        print(f"sha256 {digest}  {path}")
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }
    (work_dir / f"result_trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
