"""Acceptance gate: the comparative experiments, invariants, and oracle checks
this package commits to, one test per criterion with a printed verdict line.

Criteria 1, 2, 5 run the lifetime experiments with control traffic only
(traffic_fraction = 0): the reference lifetime and energy-curve results are
defined over the routing overhead, with data traffic studied separately by
criterion 3's per-packet experiment.

One criterion is known to fail under the cost model this package pins
down, by a measured and reproducible margin (see its verdict line and the
README): criterion 3 (steady-state per-packet parity within 25%). It is
implemented faithfully rather than loosened.
"""

import random
import time
from dataclasses import replace
from statistics import correlation, mean, median

import pytest

from least_sim import (
    ProtocolParams,
    ProtocolStallError,
    RandomStream,
    SimConfig,
    Simulation,
    leach_setup,
    least_setup,
    network_stats,
    place_nodes,
    run,
)
from least_sim.analysis import estimate_leach, estimate_least
from least_sim.cli import sweep_phn
from least_sim.core import NetworkStats
from least_sim.simulator import metrics_csv

from conftest import FIVE_POSITIONS, checked, heirs_of, hosts_of, make_net
from tree_reference import parent_map, validate
from trace_oracle import leach_trace, least_round_trace

SEEDS = list(range(1, 31))

PAPER_CONFIG = SimConfig(
    n=100,
    area_w=100.0,
    area_h=100.0,
    bs_pos=(50.0, 50.0),
    initial_energy=0.1,
    params=ProtocolParams(p_ch=0.1, p_hn=0.2, p_h=0.1),
    protocol="least",
)


def verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def lifetime_runs():
    """Reference setup-phase lifetime experiment: both protocols, 30 seeds."""
    t0 = time.perf_counter()
    runs = {}
    for protocol in ("leach", "least"):
        for seed in SEEDS:
            cfg = replace(
                PAPER_CONFIG, protocol=protocol, seed=seed,
                traffic_fraction=0.0, max_rounds=3000,
            )
            runs[(protocol, seed)] = run(cfg)
    return runs, time.perf_counter() - t0


def median_curve(runs, protocol, getter):
    series = [runs[(protocol, s)][0] for s in SEEDS]
    length = max(len(rows) for rows in series)
    return [
        median(getter(rows[i] if i < len(rows) else rows[-1]) for rows in series)
        for i in range(length)
    ]


def test_criterion_1_lifetime_ordering(lifetime_runs):
    runs, elapsed = lifetime_runs

    def capped_median(protocol, field):
        # a run that never reaches the event contributes the round cap,
        # a lower bound on the true value
        values = [getattr(runs[(protocol, s)][1], field) for s in SEEDS]
        return median(3000 if v is None else v for v in values)

    def shown(value):
        return f">={value}" if value == 3000 else f"{value}"

    fd = {p: capped_median(p, "first_death_round") for p in ("leach", "least")}
    hl = {p: capped_median(p, "half_life_round") for p in ("leach", "least")}
    ok = fd["least"] > fd["leach"] and hl["least"] > hl["leach"] and elapsed < 60.0
    verdict(
        1, ok,
        f"first death median least={shown(fd['least'])} vs leach={shown(fd['leach'])}, "
        f"half-life median least={shown(hl['least'])} vs leach={shown(hl['leach'])} "
        f"(runs that never reach an event count as the 3000-round cap), "
        f"runtime {elapsed:.1f}s",
    )
    assert fd["least"] > fd["leach"]
    assert hl["least"] > hl["leach"]
    assert elapsed < 60.0


def test_criterion_2_energy_curve_dominance(lifetime_runs):
    runs, _ = lifetime_runs
    extinction = median(
        (runs[("leach", s)][1].all_dead_round or 3000) for s in SEEDS
    )
    leach_curve = median_curve(runs, "leach", lambda r: r.total_energy)
    least_curve = median_curve(runs, "least", lambda r: r.total_energy)
    horizon = int(min(extinction, len(leach_curve), len(least_curve)))
    wins = sum(1 for i in range(horizon) if least_curve[i] >= leach_curve[i])
    fraction = wins / horizon
    ok = fraction >= 0.90
    verdict(2, ok, f"tree-protocol median energy dominates {fraction:.1%} of rounds 1..{horizon}")
    assert fraction >= 0.90


def test_criterion_3_steady_state_parity():
    """Per-packet steady energy within 25% across protocols (n=30, half send).

    Known to fail: the measured gap is about +49% against the tree protocol.
    Its multi-hop paths are longer (about 2.7 hops against 1.85, with about
    30% more summed d^2 per path), so hop-by-hop d^2 pricing costs more per
    delivered packet than two-hop clustering. Lost packets (under 1% for
    both) do not explain the gap, and the package's documents do not say how
    the paper moves steady-state data, so the band stays as committed.
    """
    per_packet = {}
    for protocol in ("leach", "least"):
        vals = []
        for seed in SEEDS:
            cfg = replace(
                PAPER_CONFIG, protocol=protocol, seed=seed, n=30,
                traffic_fraction=0.5, max_rounds=3000,
            )
            vals.append(run(cfg)[1].avg_energy_per_packet)
        per_packet[protocol] = mean(vals)
    rel = (per_packet["least"] - per_packet["leach"]) / per_packet["leach"]
    ok = abs(rel) <= 0.25
    verdict(
        3, ok,
        f"per-packet energy least={per_packet['least']:.4e} leach={per_packet['leach']:.4e} "
        f"relative difference {rel:+.1%} (band: 25%)",
    )
    assert abs(rel) <= 0.25


def spearman(xs, ys):
    """Spearman's rho: the Pearson correlation of the two rank vectors, where
    tied values share the average of the ranks they span."""
    def ranks(values):
        # count of smaller values, plus the mean position among v's ties
        return [
            sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2.0
            for v in values
        ]

    return correlation(ranks(xs), ranks(ys))


def test_criterion_4_host_probability_sweep():
    """Lower host probability should lengthen half-life (ordinal + rank check).

    Fewer hosts mean fewer host announcements, and relocation toward a
    distant host is silent, so setup overhead falls with p_hn. A run that
    never reaches half-life contributes the round cap.
    """
    base = replace(
        PAPER_CONFIG, protocol="least", initial_energy=0.005,
        traffic_fraction=0.0, max_rounds=2000,
    )
    grid = [0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9]
    rows = sweep_phn(base, grid, SEEDS)
    by_value = dict(rows)
    rho = spearman([r[0] for r in rows], [r[1] for r in rows])
    ok = by_value[0.05] > by_value[0.9] and rho <= 0.0
    verdict(
        4, ok,
        f"half-life medians {rows}; spearman(p_hn, half-life)={rho:+.3f}",
    )
    assert by_value[0.05] > by_value[0.9]
    assert rho <= 0.0


def test_criterion_5_analytical_consistency(lifetime_runs):
    runs, _ = lifetime_runs
    stats_accum = [0.0, 0.0]
    for seed in SEEDS:
        cfg = replace(PAPER_CONFIG, seed=seed)
        stats = network_stats(place_nodes(cfg, RandomStream(seed)))
        stats_accum[0] += stats.d_bar
        stats_accum[1] += stats.d_bar_max
    stats = NetworkStats(stats_accum[0] / len(SEEDS), stats_accum[1] / len(SEEDS))
    eps = PAPER_CONFIG.energy.epsilon_amp
    least = estimate_least(100, PAPER_CONFIG.params, stats, eps)
    difference = estimate_leach(100, PAPER_CONFIG.params, stats, eps) - least

    setup = {
        p: mean(mean(r.setup_energy for r in runs[(p, s)][0][1:20]) for s in SEEDS)
        for p in ("leach", "least")
    }
    ratio = least / setup["least"]
    ok = difference > 0 and setup["least"] < setup["leach"] and 0.2 <= ratio <= 5.0
    verdict(
        5, ok,
        f"estimate difference {difference:+.3e} J, measured setup "
        f"least={setup['least']:.3e} < leach={setup['leach']:.3e}, "
        f"estimate/measured={ratio:.2f} (band [0.2, 5])",
    )
    assert difference > 0
    assert setup["least"] < setup["leach"]
    assert 0.2 <= ratio <= 5.0


def test_criterion_6_invariant_suite():
    # 10^4 randomized setup phases stay structurally valid and cycle-free
    rng = random.Random(60601)
    phases = 0
    stalls = 0
    trials = 0
    while phases < 10_000:
        trials += 1
        n = rng.randint(3, 10)
        coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        net = make_net(coords)
        params = ProtocolParams(
            p_ch=rng.choice([0.2, 0.4]), p_hn=rng.choice([0.3, 0.6]), p_h=rng.choice([0.0, 0.3])
        )
        stream = RandomStream(rng.randrange(2**32))
        tree = None
        for round_no in (1, 2, 3, 4):
            try:
                out = least_setup(net, tree, params, round_no, stream)
            except ProtocolStallError:
                stalls += 1
                continue
            tree = out.tree
            assert validate(tree, net.alive_ids()) is None
            phases += 1
            if round_no >= 2 and hosts_of(out):
                for f, heirs in heirs_of(out).items():
                    assert heirs, "heir guarantee"
                    for heir in heirs:
                        assert tree.parent[heir] == 0

    # rotation window, turnover, conservation, determinism on a medium run
    cfg = replace(PAPER_CONFIG, n=40, seed=8, initial_energy=0.02, max_rounds=120)
    sim = Simulation(cfg)
    last_hn = {}
    window = cfg.params.hn_rotation_window()
    initial = sim.net.total_energy()
    while sim.net.alive_count() > 0 and sim.round < 120:
        before = set(sim.tree.first_level()) if sim.tree is not None else set()
        sim.run_round()
        out = sim.last_outcome
        for h in hosts_of(out):
            if h in last_hn:
                assert sim.round - last_hn[h] > window, "rotation window"
            last_hn[h] = sim.round
        if sim.round >= 2 and hosts_of(out):
            assert before.isdisjoint(sim.tree.first_level()), "first-level turnover"
        drop = initial - sim.net.total_energy()
        assert drop == pytest.approx(sim.setup.total + sim.steady.total, rel=1e-9)

    csv_a = metrics_csv(run(replace(PAPER_CONFIG, n=30, seed=5, initial_energy=0.01, max_rounds=200))[0])
    csv_b = metrics_csv(run(replace(PAPER_CONFIG, n=30, seed=5, initial_energy=0.01, max_rounds=200))[0])
    assert csv_a == csv_b, "bit-exact determinism"

    verdict(6, True, f"{phases} setup phases valid ({stalls} legitimate stalls), "
                     "rotation/turnover/conservation/determinism clean")


def test_criterion_7_oracle_equivalence():
    # frozen small-fixture traces, re-derived by the independent interpreter
    failures = []

    params = ProtocolParams(p_ch=0.3)
    net = make_net([(10.0 * i - 5.0, 50.0) for i in range(1, 11)])
    got = leach_setup(net, params, 1, RandomStream(42))
    pos = {0: (50.0, 50.0), **{i: (10.0 * i - 5.0, 50.0) for i in range(1, 11)}}
    want_parent, want_msgs, _ = leach_trace(pos, list(range(1, 11)), {}, params, 1, RandomStream(42))
    if parent_map(got.tree) != want_parent:
        failures.append("leach-setup trace")
    if [(m.kind, m.sender) for m in checked(got.messages)] != [(k, s) for k, s, _, _ in want_msgs]:
        failures.append("leach-setup message order")

    params = ProtocolParams()
    net = make_net(FIVE_POSITIONS, energy=0.1)
    stream = RandomStream(7)
    out1 = least_setup(net, None, params, 1, stream)
    out2 = least_setup(net, out1.tree, params, 2, stream)
    pos = {0: (50.0, 50.0), **{i + 1: p for i, p in enumerate(FIVE_POSITIONS)}}
    ref = RandomStream(7)
    w1, _, _ = leach_trace(pos, [1, 2, 3, 4, 5], {}, params, 1, ref)
    w2, w2_msgs, _, _ = least_round_trace(pos, [1, 2, 3, 4, 5], {}, w1, params, 2, ref)
    if parent_map(out2.tree) != w2:
        failures.append("tree-setup trace")
    got_msgs = [(m.kind, m.sender, round(m.tx_distance, 9), m.packets) for m in checked(out2.messages)]
    ref_msgs = [(k, s, round(d, 9), p) for k, s, d, p in w2_msgs]
    if got_msgs != ref_msgs:
        failures.append("tree-setup messages")

    sim = Simulation(
        replace(PAPER_CONFIG, n=5, seed=7, protocol="least"),
        net=make_net(FIVE_POSITIONS, energy=0.1),
    )
    m1 = sim.run_round()
    if abs(m1.setup_energy - 0.0013425) > 1e-12 or abs(m1.steady_energy - 0.0014325) > 1e-12:
        failures.append("round metrics")

    rng = random.Random(2)
    for _ in range(10):
        xy = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(30)]
        got_stats = network_stats(xy)
        import math

        pair_sum, count = 0.0, 0
        far = [0.0] * 30
        for i in range(30):
            for j in range(i + 1, 30):
                d = math.dist(xy[i], xy[j])
                pair_sum += d
                count += 1
                far[i] = max(far[i], d)
                far[j] = max(far[j], d)
        if abs(got_stats.d_bar - pair_sum / count) > 1e-12 * pair_sum:
            failures.append("pairwise statistics")
        if abs(got_stats.d_bar_max - sum(far) / 30) > 1e-12 * sum(far):
            failures.append("farthest statistics")

    verdict(7, not failures, "golden traces and brute-force statistics match"
            if not failures else f"mismatches: {failures}")
    assert not failures
