"""Geometry, statistics, and random-stream contracts."""

import builtins
import contextlib
import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from least_sim import Network, RandomStream, SimConfig, Simulation, network_stats
from least_sim import core
from least_sim.core import bernoulli_bound, uniform_choice
from least_sim.simulator import place_nodes
from conftest import DeadNodeError, charge, make_net


def bernoulli(stream, p):
    """True with probability p; consumes exactly one draw, even for p in {0, 1}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0,1]: {p!r}")
    return stream.random() < p


def distance(a, b):
    """Euclidean distance between two ``(x, y)`` points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


# -- random stream ------------------------------------------------------

def reference_splitmix64(seed, count):
    """Straight transcription of the published splitmix64 algorithm."""
    mask = 2**64 - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) & mask)
    return out


def test_stream_matches_reference_algorithm():
    for seed in (0, 1, 42, 1234567, 2**64 - 1):
        s = RandomStream(seed)
        assert [s.next_u64() for _ in range(50)] == reference_splitmix64(seed, 50)


def test_stream_known_answer():
    # frozen from the reference transcription above
    assert reference_splitmix64(1234567, 3) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    s = RandomStream(1234567)
    assert s.next_u64() == 6457827717110365317


def test_stream_replay_one_million_draws():
    a, b = RandomStream(987654321), RandomStream(987654321)
    assert all(a.next_u64() == b.next_u64() for _ in range(10**6))


def test_random_in_unit_interval():
    s = RandomStream(5)
    vals = [s.random() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.02


def test_bernoulli_degenerate_probabilities():
    s = RandomStream(1)
    assert not any(bernoulli(s, 0.0) for _ in range(1000))
    assert all(bernoulli(s, 1.0) for _ in range(1000))


def test_bernoulli_law_of_large_numbers():
    s = RandomStream(11)
    hits = sum(bernoulli(s, 0.3) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.30) < 0.01


def test_bernoulli_consumes_one_draw():
    a, b = RandomStream(3), RandomStream(3)
    bernoulli(a, 0.5)
    b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_bernoulli_rejects_bad_probability():
    s = RandomStream(1)
    with pytest.raises(ValueError):
        bernoulli(s, 1.5)
    with pytest.raises(ValueError):
        bernoulli(s, -0.1)


def raw_float(v):
    """``RandomStream.random``'s float for the raw draw ``v``."""
    return (v >> 11) * 2.0**-53


def edge_probabilities():
    """0, 1, the least subnormal, multiples of 2**-53 near the ends and the
    protocols' defaults, and the float on each side of each."""
    ks = [0, 1, 2, 3, 2047, 2048, 2049, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1, 2**53]
    grid = [k * 2.0**-53 for k in ks] + [5e-324, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.9]
    near = [math.nextafter(p, side) for p in grid for side in (-math.inf, math.inf)]
    return sorted({p for p in grid + near if 0.0 <= p <= 1.0})


def edge_draws(bound):
    """Raw draws at, just below and a float step below the bound, and the
    ends of the 64-bit range."""
    return [v for v in (0, bound - 2048, bound - 1, bound, 2**64 - 1) if 0 <= v < 2**64]


def test_bernoulli_bound_equals_the_float_comparison_at_the_edges():
    for p in edge_probabilities():
        for v in edge_draws(bernoulli_bound(p)):
            assert (v < bernoulli_bound(p)) == (raw_float(v) < p), (p, v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(edge_probabilities()), st.floats(0.0, 1.0)), st.data())
def test_bernoulli_bound_equals_the_float_comparison(p, data):
    bound = bernoulli_bound(p)
    v = data.draw(st.one_of(st.sampled_from(edge_draws(bound)),
                            st.integers(min_value=0, max_value=2**64 - 1)), label="v")
    assert (v < bound) == (raw_float(v) < p)


def test_uniform_choice_single_and_empty():
    s = RandomStream(1)
    assert uniform_choice(s, ["only"]) == "only"
    with pytest.raises(ValueError):
        uniform_choice(s, [])


def test_uniform_choice_frequencies():
    s = RandomStream(17)
    counts = {"a": 0, "b": 0}
    for _ in range(100_000):
        counts[uniform_choice(s, ["a", "b"])] += 1
    assert abs(counts["a"] / 100_000 - 0.5) < 0.01


def test_uniform_choice_deterministic_per_seed():
    items = list(range(7))
    assert uniform_choice(RandomStream(99), items) == uniform_choice(RandomStream(99), items)


MASK64, GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15

# seeds at the edges of the 64-bit range and beyond it, which the stream masks
stream_seeds = st.one_of(
    st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**64 + 5, -1, -(2**64), -12345]),
    st.integers(min_value=-(2**80), max_value=2**80),
)
# counts on both sides of the 512-draw block edges
draw_counts = st.one_of(st.sampled_from([0, 1, 511, 512, 513, 1024, 1025, 1537]),
                        st.integers(min_value=0, max_value=1100))


@settings(max_examples=60, deadline=None)
@given(stream_seeds, draw_counts)
def test_stream_blocks_equal_reference_and_state(seed, count):
    s = RandomStream(seed)
    assert s._state == seed & MASK64
    assert [s.next_u64() for _ in range(count)] == reference_splitmix64(seed, count)
    assert s._state == (seed + count * GAMMA) & MASK64  # the state after k draws


stream_calls = st.lists(st.one_of(
    st.tuples(st.just("raw"), st.integers(min_value=0, max_value=600)),
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.tuples(st.just("choice"), st.integers(min_value=1, max_value=40)),
), max_size=12)


@settings(max_examples=80, deadline=None)
@given(stream_seeds, stream_calls)
def test_stream_interleaved_calls_equal_reference(seed, calls):
    s = RandomStream(seed)
    total = sum(call[1] if call[0] == "raw" else 1 for call in calls)
    want = iter(reference_splitmix64(seed, total))
    for kind, *args in calls:
        if kind == "raw":
            assert [s.next_u64() for _ in range(args[0])] == [next(want) for _ in range(args[0])]
        elif kind == "random":
            assert s.random() == (next(want) >> 11) * 2.0**-53
        elif kind == "uniform":
            lo, hi = args
            assert s.uniform(lo, hi) == lo + (hi - lo) * ((next(want) >> 11) * 2.0**-53)
        else:
            items = list(range(args[0]))
            assert uniform_choice(s, items) == items[next(want) % args[0]]
    assert s._state == (seed + total * GAMMA) & MASK64


def test_stream_lanes_are_byte_swapped_on_a_big_endian_host(monkeypatch):
    from least_sim import core

    def big_endian_array(typecode, data):
        words = array(typecode, data)
        words.byteswap()  # what a big-endian host reads from the same bytes
        return words

    monkeypatch.setattr(core, "array", big_endian_array)
    monkeypatch.setattr(core, "_BIG_ENDIAN", True)
    s = RandomStream(77)
    assert [s.next_u64() for _ in range(600)] == reference_splitmix64(77, 600)
    monkeypatch.setattr(core, "_BIG_ENDIAN", False)  # the swap is what mends it
    assert RandomStream(77).next_u64() != reference_splitmix64(77, 1)[0]


def test_stream_refuses_array_items_that_are_not_8_bytes(monkeypatch):
    from least_sim import core

    monkeypatch.setattr(core, "array", lambda typecode, data: array("B", data))
    with pytest.raises(RuntimeError, match=r"array\('Q'\) items are 1 bytes"):
        RandomStream(1).next_u64()


def test_class_level_patch_of_next_u64_counts_every_draw(monkeypatch):
    """A wrapper set on the class, as a tracing harness installs one, sees
    every draw of a run: nothing binds ``next_u64`` per instance or takes
    outputs past it. The count is checked against the counter state."""
    calls = 0
    original = RandomStream.next_u64

    def counted(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(RandomStream, "next_u64", counted)
    for protocol in ("leach", "least"):
        calls = 0
        cfg = SimConfig(n=15, seed=3, protocol=protocol, initial_energy=0.002,
                        traffic_fraction=0.5, max_rounds=80)
        sim = Simulation(cfg)
        rows, _ = sim.run()
        assert rows[-1].dead_count > 0
        made = (sim.stream._state - cfg.seed) * pow(GAMMA, -1, 2**64) % 2**64
        assert calls == made > 2 * cfg.n  # placement, elections and sender picks


# -- geometry -----------------------------------------------------------

def test_distance_examples():
    assert distance((0, 0), (3, 4)) == 5.0
    assert distance((50, 50), (50, 50)) == 0.0
    assert distance((0, 0), (100, 100)) == pytest.approx(141.4214, abs=1e-4)


def test_bs_pos_must_be_a_finite_pair():
    for bad in [(float("nan"), 0.0), (0.0, float("inf")), (1.0,), (1.0, 2.0, 3.0)]:
        with pytest.raises(ValueError, match="bs_pos"):
            SimConfig(bs_pos=bad)
        # Network checks the base station as it checks every sensor
        with pytest.raises(ValueError, match="finite \\(x, y\\) pairs"):
            Network([(1.0, 1.0)], bad, [1.0])
    with pytest.raises(ValueError, match="bs_pos"):
        SimConfig(bs_pos=[50.0, 50.0])  # a list would leave the config unhashable


finite_coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(finite_coord, finite_coord, finite_coord, finite_coord, finite_coord, finite_coord)
def test_distance_metric_axioms(ax, ay, bx, by, cx, cy):
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    assert distance(a, b) >= 0.0
    assert distance(a, b) == distance(b, a)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


any_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None)
@given(any_finite, any_finite, any_finite, any_finite)
def test_dist_equals_hypot_bit_for_bit(a, b, c, d):
    # the distance kernels use math.dist over tuples; every tie-break and
    # output byte rests on it computing exactly what math.hypot does
    assert math.dist((a, b), (c, d)) == math.hypot(a - c, b - d)


# -- node state ---------------------------------------------------------

def test_node_born_dead_at_zero_energy():
    net = make_net([(0, 0), (1, 1), (2, 2)], energy=[1.0, 0.0, 1.0])
    assert net.energy[2] == 0.0
    assert net.alive_ids() == [1, 3]
    with pytest.raises(DeadNodeError):
        charge(net, 2, 0.0)


def test_node_rejects_bad_ids_and_energy():
    with pytest.raises(ValueError, match="finite and >= 0"):
        make_net([(0, 0), (1, 1)], energy=[1.0, -1.0])


# -- network statistics --------------------------------------------------

def test_stats_single_pair():
    s = network_stats([(0, 0), (3, 4)])
    assert s.d_bar == 5.0
    assert s.d_bar_max == 5.0


def test_stats_three_collinear():
    s = network_stats([(0, 0), (1, 0), (2, 0)])
    assert s.d_bar == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert s.d_bar_max == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_stats_needs_two_nodes():
    with pytest.raises(ValueError):
        network_stats([(1, 1)])


@pytest.mark.parametrize("positions", [
    [(0, 0), (math.nan, 4)], [(0, 0), (3, math.inf)], [(0, 0, 0), (3, 4, 0)], [(0, 0), (3, 4, 0)],
])
def test_stats_reject_non_finite_and_3d_positions(positions):
    with pytest.raises(ValueError, match=r"finite \(x, y\) positions"):
        network_stats(positions)


def test_stats_match_numpy_brute_force():
    """Independent pairwise enumeration via numpy, exact to 1e-12."""
    rng = np.random.default_rng(7)
    for size in (3, 10, 50):
        xy = rng.uniform(0, 100, size=(size, 2))
        got = network_stats([tuple(row) for row in xy])
        diff = xy[:, None, :] - xy[None, :, :]
        dmat = np.sqrt((diff**2).sum(axis=2))
        iu = np.triu_indices(size, k=1)
        assert got.d_bar == pytest.approx(dmat[iu].mean(), rel=1e-12)
        assert got.d_bar_max == pytest.approx(dmat.max(axis=1).mean(), rel=1e-12)


def test_stats_uniform_square_monte_carlo():
    """Mean pair distance on a uniform square approaches 0.5214 * side.

    Oracle route: numpy placements and numpy pairwise means, averaged over
    many seeds; the implementation must land on the same constant.
    """
    rng = np.random.default_rng(123)
    total = 0.0
    seeds = 1000
    for _ in range(seeds):
        xy = rng.uniform(0, 100, size=(100, 2))
        total += network_stats([tuple(row) for row in xy]).d_bar
    assert abs(total / seeds - 52.14) < 2.0


def fold(values):
    """Floats added left to right, as ``sum`` adds them before Python 3.12 (3.12 compensates)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_stats(positions, ulp_low=False):
    """The pair loop over coordinate differences and math.hypot, kept as an
    oracle; with ``ulp_low`` every distance an ulp low (see ``dist_ulp_low``)."""
    pts = list(positions)
    m = len(pts)
    pair_sum = 0.0
    far = [0.0] * m
    for i in range(m):
        xi, yi = pts[i]
        for j in range(i + 1, m):
            d = math.hypot(xi - pts[j][0], yi - pts[j][1])
            if ulp_low:
                d = math.nextafter(d, 0.0)
            pair_sum += d
            if d > far[i]:
                far[i] = d
            if d > far[j]:
                far[j] = d
    return pair_sum / (m * (m - 1) / 2), fold(far) / m


def test_stats_equal_hypot_reference_exactly():
    positions = place_nodes(SimConfig(n=300), RandomStream(17))
    s = network_stats(positions)
    assert (s.d_bar, s.d_bar_max) == reference_stats(positions)
    # one rounding step in a pair is lost in a field-wide sum, but a lone
    # pair's statistics are its distance itself
    for pair in zip(positions, positions[1:]):
        s = network_stats(pair)
        assert (s.d_bar, s.d_bar_max) == reference_stats(pair)


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    """``sum`` as Python 3.12 has it (compensated, like ``math.fsum``) must
    not move a total energy or a mean farthest distance."""
    positions = place_nodes(SimConfig(n=300), RandomStream(17))
    far = [max(math.dist(p, q) for q in positions) for p in positions]
    assert math.fsum(far) != fold(far) and math.fsum([0.1] * 10) != fold([0.1] * 10)
    monkeypatch.setattr(builtins, "sum", math.fsum)
    assert network_stats(positions).d_bar_max == fold(far) / len(far)
    net = make_net([(float(i), 0.0) for i in range(10)], energy=0.1)
    assert net.total_energy() == fold([0.1] * 10) == 0.9999999999999999


def test_stats_bounds_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xy = rng.uniform(0, 50, size=(12, 2))
        s = network_stats([tuple(row) for row in xy])
        assert 0 <= s.d_bar <= s.d_bar_max


# -- Network container ----------------------------------------------------

def test_network_requires_contiguous_ids():
    # ids are list positions, so one energy per position is the whole rule
    with pytest.raises(ValueError, match="2 positions but 3 energies"):
        Network([(0, 0), (1, 1)], (0, 0), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="2 positions but 1 energies"):
        Network([(0, 0), (1, 1)], (0, 0), [1.0])


@pytest.mark.parametrize("n", [5, core._TABLE_MAX + 1])
@pytest.mark.parametrize("bad", [(1.0, 2.0, 3.0), (1.0,)])
def test_network_rejects_positions_that_are_not_pairs(n, bad):
    """Above the table size no distance is read at construction, so only
    the check can catch a malformed position before the run reads it."""
    positions = place_nodes(SimConfig(n=n), RandomStream(1))
    positions[n // 2] = bad
    with pytest.raises(ValueError, match="finite \\(x, y\\) pairs"):
        Network(positions, (50.0, 50.0), [1.0] * n)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_network_rejects_non_finite_coordinates(bad):
    for positions in ([(bad, 0.0), (1.0, 1.0)], [(0.0, 0.0), (1.0, bad)]):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Network(positions, (0, 0), [1.0, 1.0])


def test_network_rejects_distances_that_overflow():
    with pytest.raises(ValueError, match="distances would overflow"):
        Network([(-1e308, 0.0), (1e308, 0.0)], (0, 0), [1.0, 1.0])
    # finite distances whose squares overflow: every sender would die pricing one message
    for positions in ([(-1e307, 0.0), (1e307, 0.0)], [(0.0, 0.0), (1e154, 1e154)]):
        with pytest.raises(ValueError, match="squared distances would overflow"):
            Network(positions, (0, 0), [1.0, 1.0])
    assert Network([(-1e153, 0.0), (1e153, 0.0)], (0, 0), [1.0, 1.0]).rows[1][2] == 2e153


def test_simulation_rejects_a_field_whose_costs_overflow():
    with pytest.raises(ValueError, match="squared distances would overflow"):
        Simulation(SimConfig(area_w=1e308, area_h=1e308))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, -1e-300])
def test_network_rejects_bad_energies(bad):
    # a NaN would be neither alive (> 0) nor dead (== 0.0)
    for energies in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            Network([(0.0, 0.0), (1.0, 1.0)], (0, 0), energies)


def test_network_distance_table(five_net):
    assert five_net.rows[1][1] == 0.0
    assert five_net.rows[1][2] == pytest.approx(distance((10, 10), (20, 80)))
    assert five_net.rows[0][5] == pytest.approx(distance((50, 50), (55, 45)))


def test_network_table_equals_hypot_reference():
    cfg = SimConfig(n=300)
    positions = place_nodes(cfg, RandomStream(17))
    net = Network(positions, cfg.bs_pos, [1.0] * cfg.n)
    pts = [cfg.bs_pos, *positions]
    ids = range(len(pts))
    for a, (px, py) in enumerate(pts):
        expected = [math.hypot(px - qx, py - qy) for qx, qy in pts]
        assert [net.rows[a][b] for b in ids] == expected, a


def test_network_farthest_alive(five_net):
    expected = max(five_net.rows[1][j] for j in range(2, 6))
    assert five_net.farthest_alive_distance(1) == pytest.approx(expected)


def test_network_nearest_rules():
    net = make_net([(1, 0), (2, 0), (0, 1)], bs=(0.0, 0.0))
    assert net.nearest([2], [0]) == [(2, 2.0)]
    assert net.nearest([2, 3], [0]) == [(3, 1.0)]  # strictly closer wins
    assert net.nearest([1, 3], [0]) == [(1, 1.0)]  # tie broken by smaller id
    assert net.nearest([2, 3], [0, 1]) == [(3, 1.0), (2, 1.0)]  # one pair per source
    assert net.nearest([2], []) == []
    with pytest.raises(ValueError):
        net.nearest([], [0])


def test_network_farthest_alone():
    net = make_net([(10, 10)])
    assert net.farthest_alive_distance(1) == 0.0


# A coarse grid, so that equal x, equal distances and shared farthest sensors
# occur; base stations on it and off the field, outside the sensors' range.
grid = st.integers(0, 8).map(lambda k: 12.5 * k)
bs_spots = st.sampled_from([(50.0, 50.0), (0.0, 100.0), (-40.0, 50.0), (150.0, -20.0)])


def grid_field(data, max_n):
    """1..max_n sensor positions on ``grid``, a base station spot, and
    whether distances should read an ulp low (see ``both_row_kinds``)."""
    n = data.draw(st.integers(1, max_n))
    positions = [(data.draw(grid), data.draw(grid)) for _ in range(n)]
    return positions, data.draw(bs_spots), data.draw(st.booleans())


def on_demand_net(positions, bs=(50.0, 50.0)):
    """A ``Network`` whose rows compute distances on demand: the size
    constant is patched to 0 while it is built, and only then."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TABLE_MAX", 0)
        return make_net(positions, bs=bs)


@contextlib.contextmanager
def dist_ulp_low(ulp_low):
    """With ``ulp_low`` math.dist gives every distance an ulp low, as a
    rounding within the ulp it promises may give."""
    dist = math.dist
    with pytest.MonkeyPatch.context() as mp:
        if ulp_low:
            mp.setattr(math, "dist", lambda p, q: math.nextafter(dist(p, q), 0.0))
        yield


@contextlib.contextmanager
def both_row_kinds(positions, bs, ulp_low):
    """The field's ``Network`` with a table, and one with rows that compute
    on demand, built and used under ``dist_ulp_low(ulp_low)``: the table
    holds those floats, and the rows and the walks over them compute them."""
    with dist_ulp_low(ulp_low):
        yield make_net(positions, bs=bs), on_demand_net(positions, bs)


def scan_nearest(net, candidates, sources):
    """Ascending candidates, and only a strictly closer one replaces the best."""
    out = []
    for src in sources:
        target = candidates[0]
        for cand in candidates[1:]:
            if net.rows[src][cand] < net.rows[src][target]:
                target = cand
        out.append((target, net.rows[src][target]))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nearest_equals_scan_over_tables_and_on_demand_rows(data):
    """A table is scanned and on-demand rows are walked by x; both give the scan's answer."""
    positions, bs, ulp_low = grid_field(data, 100)
    n = len(positions)
    size = data.draw(st.integers(1, n))
    candidates = sorted(data.draw(st.permutations(range(1, n + 1)))[:size])
    sources = data.draw(st.lists(st.integers(0, n), max_size=20))  # 0: the base station
    with both_row_kinds(positions, bs, ulp_low) as nets:
        for net in nets:
            assert net.nearest(candidates, sources) == scan_nearest(net, candidates, sources)


def test_nearest_walk_gives_ties_to_the_smaller_id():
    """Over on-demand rows, where candidates are walked by x from the
    source, the smaller id still wins a tie met second: at distance 0 (two
    sensors on the base station, met larger id first), and at an x-gap equal
    to a distance already found, also with every distance an ulp low."""
    positions = [(25.0, 50.0), (50.0, 75.0), (50.0, 50.0), (50.0, 50.0)]
    for ulp_low in (False, True):
        with both_row_kinds(positions, (50.0, 50.0), ulp_low) as (_, net):
            assert net.rows[0][1] == net.rows[0][2]
            assert net.nearest([1, 2], [0]) == [(1, net.rows[0][1])]
            assert net.nearest([1, 2, 3, 4], [0]) == [(3, 0.0)]


def test_farthest_alive_rescan_skips_the_dead():
    positions = [(0.0, 50.0), (90.0, 50.0), (60.0, 50.0)]  # the base station at (50, 50)
    for net in (make_net(positions), on_demand_net(positions)):  # the scan, then the walk
        assert net.farthest_alive_distance(0) == 50.0
        charge(net, 1, 2.0)
        assert net.farthest_alive_distance(0) == 40.0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_farthest_alive_equals_brute_force_through_kills(data):
    """The per-source cache and the rescan, scanned over the field's table
    and walked over its on-demand rows, answer exactly like a brute-force
    scan, while deaths come through ``charge`` between queries."""
    (positions, bs, ulp_low), seed = grid_field(data, 60), data.draw(st.integers(0, 2**32 - 1))
    with both_row_kinds(positions, bs, ulp_low) as nets:
        for net in nets:
            ids = list(range(0, net.n + 1))  # the base station too
            rng = random.Random(seed)

            def brute(i):
                return max([net.rows[i][j] for j in net.alive_ids() if j != i], default=0.0)

            while True:
                rng.shuffle(ids)
                for i in ids:
                    assert net.farthest_alive_distance(i) == brute(i), i
                if not net.alive_count():
                    break
                for victim in rng.sample(net.alive_ids(), min(rng.randint(1, 3), net.alive_count())):
                    charge(net, victim, 2.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_on_demand_rows_answer_like_table_rows_through_kills(data):
    """Over rows that compute distances on demand ``nearest`` and the
    rescans walk, and every search gives the floats and ids it gives over
    the same field's table, as sensors die."""
    n = data.draw(st.integers(1, 100))
    positions = [(data.draw(grid), data.draw(grid)) for _ in range(n)]
    bs = data.draw(bs_spots)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))  # st.randoms() took most of the time
    table, rows = make_net(positions, bs=bs), on_demand_net(positions, bs)
    assert type(table.rows[0]) is list and type(rows.rows[0]) is not list
    ids = list(range(n + 1))
    assert [[rows.rows[a][b] for b in ids] for a in ids] == table.rows

    def answers(net, candidates, sources, order):
        searches = [net.nearest(candidates, sources), [net.farthest(s, candidates) for s in sources]]
        return searches, [net.farthest_alive_distance(i) for i in order]

    while table.alive_count():
        alive = table.alive_ids()
        assert rows.alive_ids() == alive
        candidates = sorted(rng.sample(alive, rng.randint(1, len(alive))))
        sources = [rng.randint(0, n) for _ in range(rng.randint(0, 10))]
        rng.shuffle(ids)
        assert answers(rows, candidates, sources, ids) == answers(table, candidates, sources, ids)
        for victim in rng.sample(alive, min(rng.randint(1, 8), len(alive))):
            charge(table, victim, 2.0)
            charge(rows, victim, 2.0)


def test_walks_over_on_demand_rows_make_no_row_object_call(monkeypatch):
    """Over rows that compute on demand, ``nearest``, for long and short
    candidate lists, and a ``farthest_alive_distance`` rescan walk, calling
    ``math.dist`` on the points themselves: no row object is read, and the
    answers are the table's."""
    positions = place_nodes(SimConfig(n=200), RandomStream(5))
    table, rows = make_net(positions), on_demand_net(positions)
    reads = []
    row_read = core._Row.__getitem__
    monkeypatch.setattr(core._Row, "__getitem__", lambda row, j: reads.append(j) or row_read(row, j))
    assert rows.rows[1][2] == table.rows[1][2] and reads == [2]  # the counter counts
    reads.clear()
    lists, sources = [list(range(1, 201, 3)), [7, 9]], [0, *range(2, 201, 7)]
    ids = [0, *range(1, 201, 11)]
    got = [rows.nearest(c, sources) for c in lists], [rows.farthest_alive_distance(i) for i in ids]
    assert reads == []
    assert got == ([table.nearest(c, sources) for c in lists],
                   [table.farthest_alive_distance(i) for i in ids])


# -- the farthest x-walk ----------------------------------------------------

SQUARES = [k * k for k in range(2, 15)]  # the sizes at which isqrt, the walk's chunk size, steps up


@st.composite
def stats_fields(draw):
    """Fields for ``network_stats``: a coarse grid (equal x, duplicate and
    collinear points), one point repeated, or uniform points; 2..200 of them,
    also one below, at and one above a size where the chunk size steps up.
    With ``mixed`` about half the points are lists, the others tuples."""
    kind, mixed = draw(st.sampled_from(["grid", "same", "uniform"])), draw(st.booleans())
    n = draw(st.integers(2, 200) | st.sampled_from(SQUARES).flatmap(lambda s: st.sampled_from([s - 1, s, s + 1])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        positions = [(12.5 * rng.randint(0, 8), 12.5 * rng.randint(0, 8)) for _ in range(n)]
    elif kind == "same":
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100))] * n
    else:
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    return [list(p) if mixed and rng.random() < 0.5 else p for p in positions]


@settings(max_examples=150, deadline=None)
@given(stats_fields(), st.booleans())
def test_stats_walk_equals_the_pair_loop(positions, ulp_low):
    """Each sensor's farthest distance, found by the chunked x-walk, is the
    pair loop's, so both statistics equal the oracle's floats."""
    with dist_ulp_low(ulp_low):
        s = network_stats(positions)
    assert (s.d_bar, s.d_bar_max) == reference_stats(positions, ulp_low)


def test_farthest_walk_stops_only_past_the_slack(monkeypatch):
    """Distances read 2**-44 above math.dist's, far more than its ulp and
    less than the slack, still leave no sensor past a stop. From (0, 0),
    (3, -4) and (3, -4 + 2**-48) share the highest x, and both walks read
    the second, the nearer, first; the bound they then meet, hypot(3, 4) = 5,
    is below its raised distance but not once multiplied by ``_SLACK``."""
    dist = math.dist
    monkeypatch.setattr(math, "dist", lambda p, q: dist(p, q) * (1 + 2.0**-44))
    positions = [(0.0, 0.0), (3.0, -4.0), (3.0, -4.0 + 2.0**-48)]
    far = [max(math.dist(p, q) for q in positions) for p in positions]
    assert far[0] > math.dist(positions[0], positions[2]) > 5.0
    assert network_stats(positions).d_bar_max == fold(far) / 3
    assert on_demand_net(positions, bs=(0.0, 0.0)).farthest_alive_distance(0) == far[0]


def test_stats_walk_reads_few_distances_beyond_the_pairs(monkeypatch):
    """A cost guard that machine load cannot move: beyond the pair sum's
    n(n-1)/2 calls, the farthest walks at n=2000 made 148,016 and 130,416
    ``math.dist`` calls (placement seeds 3 and 4), 65 to 74 a sensor, where
    reading every pair would make about 2,000 a sensor. Twice that passes."""
    dist, calls = math.dist, [0]

    def counted(p, q):
        calls[0] += 1
        return dist(p, q)

    monkeypatch.setattr(math, "dist", counted)
    for seed, measured in ((3, 148_016), (4, 130_416)):
        calls[0] = 0
        network_stats(place_nodes(SimConfig(n=2000), RandomStream(seed)))
        assert calls[0] - 2000 * 1999 // 2 <= 2 * measured, seed


def test_network_above_the_table_size_builds_no_table():
    """At n=2000 a table would hold 2001**2 floats, about 128 MB; the rows
    that compute on demand take a few hundred kB."""
    positions = place_nodes(SimConfig(n=2000), RandomStream(1))
    tracemalloc.start()
    try:
        net = Network(positions, (50.0, 50.0), [0.1] * 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n > core._TABLE_MAX
    assert peak < 4_000_000, peak
