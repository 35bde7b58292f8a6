import json
import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heislab import dimension
from heislab.constructions import (
    ResourceLimitError,
    WeightedCloud,
    cantor_cloud,
    hsquare_cloud,
    product_cloud,
    segment_cloud,
)
from heislab.dimension import (
    NetCount,
    check_dimension_inequalities,
    compare_on_pairs,
    estimate_dimension,
    estimate_from_dict,
    estimate_to_dict,
    fit_metric_comparison,
    greedy_net,
    net_counts,
    seeded_generator,
)
from heislab.hgeom import MetricKind, dist_many, row_dist

E = MetricKind.EUCLIDEAN
H = MetricKind.HEISENBERG


def _cloud_from_points(pts):
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    return WeightedCloud(points=pts, weights=np.full(n, 1.0 / n), total_mass=1.0,
                         source={"kind": "raw"})


def test_single_point_net():
    cloud = _cloud_from_points([[0.2, 0.3, -0.1]])
    for delta in (0.01, 1.0, 10.0):
        nc, centers = greedy_net(cloud, delta, E)
        assert nc.count == 1 and list(centers) == [0]


def test_two_point_net_boundary_semantics():
    cloud = _cloud_from_points([[0, 0, 0], [1, 0, 0]])
    assert greedy_net(cloud, 0.5, E)[0].count == 2
    assert greedy_net(cloud, 2.0, E)[0].count == 1
    # a point exactly at distance delta is covered, not a new center
    assert greedy_net(cloud, 1.0, E)[0].count == 1


def test_segment_net_bracketed_by_interval_oracle():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    pts = np.zeros((10_000, 3))
    pts[:, 0] = rng.random(10_000)
    cloud = _cloud_from_points(pts)
    nc, _ = greedy_net(cloud, 0.1, E)
    # radius-delta covering of [0,1] needs at least 1/(2 delta) balls; a set
    # pairwise more than delta apart has at most 1/delta + 1 points
    assert 5 <= nc.count <= 11


def test_empty_cloud_and_bad_delta():
    cloud = _cloud_from_points([[0, 0, 0]])
    with pytest.raises(ValueError):
        greedy_net(cloud, -1.0, E)
    with pytest.raises(ValueError):
        greedy_net(cloud, 0.0, E)


def test_net_validity_invariant():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    pts = rng.uniform(-1, 1, size=(500, 3))
    cloud = _cloud_from_points(pts)
    for metric in (E, H):
        for delta in (0.8, 0.4, 0.2):
            _, centers = greedy_net(cloud, delta, metric)
            centers_pts = pts[centers]
            # every point within delta of some center
            for i in range(len(pts)):
                d = dist_many(centers_pts, _pt(pts[i]), metric)
                assert d.min() <= delta
            # centers pairwise > delta apart
            for i, c in enumerate(centers_pts):
                d = dist_many(centers_pts, _pt(c), metric)
                d[i] = np.inf
                assert (d > delta).all()


def _pt(row):
    from heislab.hgeom import Point

    return Point(float(row[0]), float(row[1]), float(row[2]))


def _brute_net(points, delta, metric):
    """Shrinking sweep: the first uncovered point in stored order becomes a
    center and covers everything within delta."""
    alive = np.arange(points.shape[0])
    centers = []
    while alive.size:
        c = alive[0]
        centers.append(int(c))
        d = row_dist(points[alive], points[c], metric)
        alive = alive[d > delta]
    return np.asarray(centers, dtype=np.int64)


def _assert_oracle_centers(cloud, deltas):
    for metric in (E, H):
        for delta in deltas:
            _, centers = greedy_net(cloud, delta, metric)
            assert np.array_equal(centers, _brute_net(cloud.points, delta, metric)), (metric, delta)


def test_lattice_net_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(21)))
    # the last cloud is wide: its horizontal bound is far above every delta
    for n, spread in ((400, 1.0), (800, 0.2), (600, 5.0)):
        pts = rng.uniform(-spread, spread, size=(n, 3))
        _assert_oracle_centers(_cloud_from_points(pts), (0.5, 0.21, 0.09))
    _assert_oracle_centers(segment_cloud("t", 0.0, 1.0, 500), (0.5, 0.21, 0.09))
    _assert_oracle_centers(_cloud_from_points([[0.5, -0.25, 0.5]] * 9), (1.0, 0.09))
    dyadic = [2.0**-j for j in range(1, 8)]
    _assert_oracle_centers(segment_cloud("x", 0.0, 1.0, 1025), dyadic)
    _assert_oracle_centers(cantor_cloud(0.5, 7), dyadic)
    # a product set repeats each (x, y) over a Cantor fibre, so neighbouring
    # centers' windows overlap heavily and most candidates are already covered
    _assert_oracle_centers(product_cloud(hsquare_cloud(3), cantor_cloud(0.5, 3)), (0.6, 0.15))


def test_lattice_net_matches_the_oracle_across_measured_parts():
    # above 2**15 rows at coarse deltas a center's windows are measured in several slices
    rng = np.random.Generator(np.random.Philox(key=np.uint64(30)))
    cube = _cloud_from_points(rng.uniform(-0.5, 0.5, size=(40_000, 3)))
    segment = segment_cloud("t", 0.0, 1.0, 40_000)
    for cloud, metric, delta in ((cube, E, 0.5), (cube, H, 1.0), (segment, E, 0.5),
                                 (segment, H, 1.0)):
        _, centers = greedy_net(cloud, delta, metric)
        assert np.array_equal(centers, _brute_net(cloud.points, delta, metric)), (metric, delta)


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_lattice_net_matches_the_oracle_with_tiny_parts(monkeypatch, rows):
    # parts and the lattice's gather blocks of a few rows put their boundaries everywhere
    monkeypatch.setattr(dimension, "_MEASURE", rows)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    _assert_oracle_centers(_cloud_from_points(rng.uniform(-1.0, 1.0, size=(300, 3))),
                           (1.0, 0.5, 0.21))
    _assert_oracle_centers(product_cloud(hsquare_cloud(3), cantor_cloud(0.5, 3)), (0.6, 0.15))


def _ladder_clouds():
    """The product cloud of the oracle test and its dyadic xseg and cantor
    clouds, each with a ladder of deltas."""
    dyadic = [2.0**-j for j in range(1, 8)]
    return [(product_cloud(hsquare_cloud(3), cantor_cloud(0.5, 3)), [0.6, 0.3, 0.15, 0.075]),
            (segment_cloud("x", 0.0, 1.0, 1025), dyadic), (cantor_cloud(0.5, 7), dyadic)]


def test_net_counts_do_not_depend_on_the_worker_count(monkeypatch):
    for cloud, deltas in _ladder_clouds():
        for metric in (E, H):
            counts = {}
            for threads in ("1", "2"):
                monkeypatch.setenv("HEISLAB_THREADS", threads)
                counts[threads] = net_counts(cloud, deltas, metric)
            assert counts["1"] == counts["2"], (cloud.source, metric)


def test_net_counts_trims_the_heap_once_per_ladder(monkeypatch):
    calls = []
    monkeypatch.setattr(dimension, "_malloc_trim", lambda pad: calls.append(pad) or 0)
    cloud, deltas = _ladder_clouds()[0]
    counts = net_counts(cloud, deltas, H)
    assert calls == [0]
    assert counts == [greedy_net(cloud, d, H)[0] for d in deltas]


def test_worker_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    # os.cpu_count counts the machine's CPUs, not the ones the affinity mask allows
    monkeypatch.delenv("HEISLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert dimension.worker_count() == 1
    monkeypatch.setenv("HEISLAB_THREADS", "3")  # the variable still wins
    assert dimension.worker_count() == 3


def test_pooled_nets_match_serial_nets():
    # the sweeps take turns, each whole, so concurrent calls give the serial centers; more
    # threads than cores and a short switch interval make the lattice builds interleave
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    clouds = [c for c, _ in _ladder_clouds()] + [_cloud_from_points(rng.uniform(-1, 1, (1000, 3)))]
    jobs = [(cloud, delta, metric) for cloud in clouds for metric in (E, H)
            for delta in (0.5, 0.2, 0.08, 0.03)]
    interval, pool = sys.getswitchinterval(), ThreadPoolExecutor(max_workers=4)
    sys.setswitchinterval(1e-5)
    try:
        futures = [pool.submit(greedy_net, *job) for job in jobs]
        pooled = [future.result(timeout=120) for future in futures]
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        sys.setswitchinterval(interval)
    for job, (nc, centers) in zip(jobs, pooled):
        serial_nc, serial_centers = greedy_net(*job)
        assert nc == serial_nc and np.array_equal(centers, serial_centers), job[1:]


def test_failed_sweep_releases_the_lock(monkeypatch):
    cloud = segment_cloud("x", 0.0, 1.0, 1025)
    calls = []

    def fail_once(points, q, metric):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("sweep failed")
        return row_dist(points, q, metric)

    monkeypatch.setattr(dimension, "row_dist", fail_once)
    with pytest.raises(RuntimeError, match="sweep failed"):
        greedy_net(cloud, 0.1, E)
    assert not dimension._SWEEP.locked()
    nc, centers = greedy_net(cloud, 0.1, E)
    assert nc.count == len(centers) == _brute_net(cloud.points, 0.1, E).size


def test_lattice_net_survives_large_spans():
    # column indices span about 2e13 here: a product of per-axis spans
    # would wrap int64, so columns are ranked per axis instead
    delta = 1e-7
    pts = [[3e6 * delta + 0.2 * delta, 0.3, 0.3], [3e6 * delta - 0.2 * delta, 0.3, 0.3],
           [1e6, 1e6, 1e6], [-1e6, -1e6, -1e6]]
    cloud = _cloud_from_points(pts)
    assert greedy_net(cloud, delta, E)[0].count == 3
    assert greedy_net(cloud, delta, H)[0].count == 4


def test_lattice_net_rounding_edges():
    # 0.15 / 0.05 rounds below 3 and 0.25 / 0.05 to 5, so floor puts the
    # first and last point three columns of width delta/2 apart (with a point
    # in each column between), yet they are delta apart
    cloud = _cloud_from_points([[0.15, 0, 0], [0.175, 0, 0], [0.225, 0, 0], [0.25, 0, 0]])
    assert _brute_net(cloud.points, 0.1, H).size == 1
    assert greedy_net(cloud, 0.1, H)[0].count == 1
    # keys taken relative to t = -1e6 round the first two points' t-gap up past delta
    cloud = _cloud_from_points([[0, 0, 1000000.2697867138], [0, 0, 1000000.2697868136],
                                [0, 0, -1e6]])
    assert _brute_net(cloud.points, 1e-7, E).size == 2
    assert greedy_net(cloud, 1e-7, E)[0].count == 2


def _check_lattice(points, delta, metric):
    """_lattice's invariants against brute force: each row in the one column that holds
    its slabs, keys ascending column by column, and each column's neighbour list the
    columns whose slabs lie within the lattice's reach on both axes."""
    gauge = metric is H
    w = delta / 2.0 if gauge else delta
    key, order, col, nbrs, ptr, base, X, Y, smin, span, half = dimension._lattice(
        points, delta, gauge)
    x, y, t = points.T
    # every row lies in exactly one column: columns hold distinct slab pairs, and a row's
    # column holds its own; a corner is its slab's least coordinate
    slabs = np.floor(points[:, :2] / w)
    corner = np.floor(np.column_stack([X, Y]) / w)
    assert len(np.unique(corner, axis=0)) == len(corner)
    assert np.array_equal(corner[col], slabs)
    for axis, corners in ((0, X), (1, Y)):
        least = {}
        for s, v in zip(slabs[:, axis], points[:, axis]):
            least[s] = min(least.get(s, v), v)
        assert [least[s] for s in corner[:, axis]] == corners.tolist()
    # the sorted keys ascend column by column, each in [base, base + span] of its column
    assert np.array_equal(np.sort(order), np.arange(len(points)))
    c = col[order].astype(np.int64)
    assert (np.diff(key) >= 0).all() and (np.diff(c) >= 0).all()
    assert np.array_equal(np.unique(c), np.arange(len(corner)))
    s = t - 2.0 * (X[col] * y - Y[col] * x) if gauge else t
    assert np.array_equal(key, (s[order] - smin) + base[c])
    assert ((key >= base[c]) & (key <= base[c] + span)).all()
    # neighbours: per axis, the slab pairs whose extents lie within reach, in exact arithmetic
    bound = np.abs(points[:, :2]).max()
    reach = Fraction(delta * (1.0 + 1e-9) + 8.0 * np.finfo(float).eps * bound)
    near = []
    for axis in (0, 1):
        ext = {}
        for s, v in zip(slabs[:, axis], points[:, axis]):
            lo, hi = ext.get(s, (v, v))
            ext[s] = (min(lo, v), max(hi, v))
        near.append({(a, b) for a, (alo, ahi) in ext.items() for b, (blo, bhi) in ext.items()
                     if max(Fraction(blo) - Fraction(ahi), Fraction(alo) - Fraction(bhi)) <= reach})
    for j, (a, b) in enumerate(corner):
        want = [k for k, (p, q) in enumerate(corner) if (a, p) in near[0] and (b, q) in near[1]]
        assert nbrs[ptr[j]:ptr[j + 1]].tolist() == want, (metric, delta, j)
    # which holds every pair of rows within delta, so the sweep's windows can reach it
    linked = np.zeros((len(corner), len(corner)), dtype=bool)
    linked[np.repeat(np.arange(len(corner)), np.diff(ptr)), nbrs] = True
    for i, p in enumerate(points):
        close = row_dist(points, p, metric) <= delta
        assert linked[col[i], col[close]].all(), (metric, delta, i)


def test_lattice_invariants_on_seeded_clouds():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(32)))
    clouds = [rng.uniform(-spread, spread, size=(n, 3)) for n, spread in ((300, 1.0), (200, 5.0))]
    clouds += [product_cloud(hsquare_cloud(3), cantor_cloud(0.5, 3)).points,
               segment_cloud("x", 0.0, 1.0, 257).points]
    for points in clouds:
        for metric in (E, H):
            for delta in (0.5, 0.21, 0.09):
                _check_lattice(points, delta, metric)


def test_lattice_invariants_at_slab_rounding_edges():
    # x and y near 1e6 sit one ulp either side of slab edges k w, so floor(coord / w) rounds
    # some of them across the edge and slab extents lie a few ulps from delta apart
    rng = np.random.Generator(np.random.Philox(key=np.uint64(33)))
    delta = 0.1
    for metric in (E, H):
        w = delta / 2.0 if metric is H else delta
        k = np.arange(round(1e6 / w), round(1e6 / w) + 12)
        edges = np.concatenate([np.nextafter(k * w, -np.inf), k * w, np.nextafter(k * w, np.inf)])
        pts = np.column_stack([rng.choice(edges, 400), rng.choice(edges, 400),
                               rng.uniform(-0.1, 0.1, 400)])
        _check_lattice(pts, delta, metric)
        cloud = _cloud_from_points(pts)
        assert np.array_equal(greedy_net(cloud, delta, metric)[1],
                              _brute_net(pts, delta, metric)), metric


def _traced_net_peak(cloud, delta, metric):
    """Traced peak bytes of one net; an untraced net first keeps one-time allocations out."""
    greedy_net(cloud, delta, metric)
    tracemalloc.start()
    try:
        greedy_net(cloud, delta, metric)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metric, delta", [(E, 0.3), (E, 0.05), (H, 0.8), (H, 0.2)])
def test_greedy_net_memory_per_row(metric, delta):
    # the lattice sweeps with 14-15 bytes a row (float64 keys, int32 order, bool coverage and
    # columns in the smallest unsigned type, 1 or 2 bytes here), and a coarse net's windows
    # (nearly the whole cloud) are gathered and measured in parts of 2**15 rows; the finest
    # deltas are left out because tracemalloc slows their many small allocations
    cloud = product_cloud(hsquare_cloud(6), cantor_cloud(0.5, 5))
    assert len(cloud) == 131072
    peak = _traced_net_peak(cloud, delta, metric)
    assert peak <= 45 * len(cloud), peak / len(cloud)


def test_greedy_net_memory_per_row_on_the_nets_cloud():
    # on the 524 288-row nets cloud the fixed 2**15-row parts are diluted, so the peak is
    # the lattice's key sort, about 20 bytes a row (the float64 keys and argsort's int64
    # order with its int32 copy); every column rank and window is gathered without an
    # n-length temporary, even a coarse gauge net's first window, which spans the cloud
    cloud = product_cloud(hsquare_cloud(7), cantor_cloud(0.5, 5))
    assert len(cloud) == 524288
    peak = _traced_net_peak(cloud, 0.8, H)
    assert peak <= 23 * len(cloud), peak / len(cloud)


def test_greedy_net_refuses_rows_past_int32():
    # the lattice indexes rows in int32; a zero-stride view stands in for the cloud, so
    # nothing is allocated, and the limit is checked before the coordinates are scanned
    class Huge:
        points = np.broadcast_to(np.zeros(3), (2**31, 3))

        def __len__(self):
            return len(self.points)

    for metric in (E, H):
        with pytest.raises(ResourceLimitError, match="2147483648 points"):
            greedy_net(Huge(), 0.1, metric)


def test_greedy_net_rejects_bad_coordinates():
    cloud = _cloud_from_points([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    cloud.points[1, 2] = np.nan
    with pytest.raises(ValueError):
        greedy_net(cloud, 0.5, E)
    far = _cloud_from_points([[0.0, 0.0, 0.0], [1e10, 0.0, 0.0]])
    for metric in (E, H):
        with pytest.raises(ResourceLimitError):
            greedy_net(far, 1e-7, metric)


def test_net_counts_validation_and_monotonicity():
    cloud = segment_cloud("x", 0, 1, 2000)
    with pytest.raises(ValueError):
        net_counts(cloud, [0.1, 0.2], E)
    with pytest.raises(ValueError):
        net_counts(cloud, [0.1, -0.2], E)
    deltas = [2.0**-j for j in range(1, 8)]
    for metric in (E, H):
        counts = [c.count for c in net_counts(cloud, deltas, metric)]
        assert counts == sorted(counts)


def test_constant_cloud_counts_one():
    cloud = _cloud_from_points([[0.5, 0.5, 0.5]] * 7)
    counts = net_counts(cloud, [1.0, 0.1, 0.01], E)
    assert [c.count for c in counts] == [1, 1, 1]


def test_xseg_dyadic_count_ladder():
    cloud = segment_cloud("x", 0, 1, 30_000)
    for c in net_counts(cloud, [2.0**-j for j in range(2, 9)], E):
        target = 1.0 / c.delta
        assert target / 2.2 <= c.count <= 2.2 * target


def test_tseg_gauge_counts_scale_quadratically():
    cloud = segment_cloud("t", 0, 1, 30_000)
    for delta in (0.5, 0.25, 0.125):
        nc, _ = greedy_net(cloud, delta, H)
        target = delta**-2
        assert target / 4 <= nc.count <= 4 * target


def test_estimate_dimension_exact_lines():
    counts = [NetCount(2.0**-j, 2**j) for j in range(1, 7)]
    est = estimate_dimension(counts)
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    counts = [NetCount(2.0**-j, 4**j) for j in range(1, 7)]
    est = estimate_dimension(counts)
    assert est.slope == pytest.approx(2.0, abs=1e-12)
    assert len(est.dropped) == 2
    est = estimate_dimension(counts[:4])
    assert est.slope == pytest.approx(2.0, abs=1e-12)
    assert est.dropped == []
    assert len(est.counts) == 4


def test_estimate_dimension_needs_three_scales():
    with pytest.raises(ValueError):
        estimate_dimension([NetCount(0.5, 2), NetCount(0.25, 4)])


def test_cantor_euclidean_slope():
    cloud = cantor_cloud(0.5, 7)
    counts = net_counts(cloud, [4.0**-j for j in range(1, 6)], E)
    est = estimate_dimension(counts, metric=E)
    assert 0.4 <= est.slope <= 0.6


def test_comparison_on_axis_pairs():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2)))
    t = rng.uniform(-2, 2, size=(3000, 1))
    zeros = np.zeros((3000, 2))
    P = np.hstack([zeros, t])
    Q = np.hstack([zeros, rng.uniform(-2, 2, size=(3000, 1))])
    _, upper = compare_on_pairs(P, Q)
    assert abs(upper - 1.0) <= 1e-9

    x = rng.uniform(-2, 2, size=(3000, 1))
    P = np.hstack([x, np.zeros((3000, 2))])
    Q = np.hstack([rng.uniform(-2, 2, size=(3000, 1)), np.zeros((3000, 2))])
    lower, _ = compare_on_pairs(P, Q)
    assert abs(lower - 1.0) <= 1e-9
    with pytest.raises(ValueError, match="no distinct pairs"):
        compare_on_pairs(P, P)


def test_fit_metric_comparison_bounded():
    rep = fit_metric_comparison(R=2.0, samples=20_000, seed=9)
    assert 0 < rep.sup_ratio_lower <= 9.0
    assert 0 < rep.sup_ratio_upper <= 9.0
    again = fit_metric_comparison(R=2.0, samples=20_000, seed=9)
    assert again == rep


# past 2^20 the twist no longer resolves pairs a unit apart; at 1e100 the
# quartic horizontal term overflowed to inf
@pytest.mark.parametrize("R", [0.0, math.inf, math.nan, 2.0**20 + 1.0, 1e100])
def test_fit_metric_comparison_needs_finite_positive_R(R):
    with pytest.raises(ValueError, match="finite and positive"):
        fit_metric_comparison(R=R, samples=10, seed=0)


@pytest.mark.parametrize("seed, lower, upper", [
    (1, 3.1197722838520834, 1.9842590998455087),
    (2**64 - 1, 3.1646498600130317, 1.9995852752879224),
])
def test_fit_metric_comparison_draws_as_recorded(seed, lower, upper):
    # recorded while the generator was keyed on np.uint64(seed), which draws as (seed, 0)
    rep = fit_metric_comparison(R=2.0, samples=5000, seed=seed)
    assert (rep.sup_ratio_lower, rep.sup_ratio_upper) == (lower, upper)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeded_generator_refuses_a_seed_past_64_bits(seed):
    with pytest.raises(ValueError, match="seed must lie in"):
        seeded_generator(seed)
    with pytest.raises(ValueError, match="seed must lie in"):
        fit_metric_comparison(R=2.0, samples=10, seed=seed)


def test_sample_and_scale_counts_past_the_limit_raise_before_allocating():
    with pytest.raises(ResourceLimitError, match="10000000"):
        fit_metric_comparison(R=2.0, samples=10**7 + 1, seed=0)
    with pytest.raises(ResourceLimitError, match="10000000"):
        dimension.delta_ladder(1.0, 0.5, 10**7 + 1)


def test_estimate_from_dict_reads_every_number_through_one_rule():
    good = estimate_to_dict(estimate_dimension([NetCount(2.0**-j, 2**j) for j in range(1, 6)]))
    assert estimate_from_dict(good).slope == 1.0
    for edit in ({"slope": "1.0"}, {"intercept": True}, {"r_squared": None},
                 {"slope": math.inf}, {"scales": [{"delta": "0.5", "count": 2}]},
                 {"scales": [{"delta": 0.5, "count": 2.0}]},
                 {"dropped_scales": [{"delta": 0.5, "count": True}]}):
        with pytest.raises(ValueError, match="must be"):
            estimate_from_dict({**good, **edit})


def test_check_dimension_inequalities():
    assert check_dimension_inequalities(1.0, 1.0, 0.0).ok
    assert check_dimension_inequalities(2.5, 3.0, 0.0).ok
    assert not check_dimension_inequalities(1.0, 2.5, 0.0).ok
    v = check_dimension_inequalities(1.0, 2.05, 0.1)
    assert v.ok and v.upper_margin == pytest.approx(-0.05)


def test_estimate_serialization_round_trip():
    counts = [NetCount(2.0**-j, 2**j) for j in range(1, 7)]
    est = estimate_dimension(counts, metric=H)
    blob = json.dumps(estimate_to_dict(est))
    back = estimate_from_dict(json.loads(blob))
    assert back.slope == est.slope
    assert back.metric is H
    assert [c.delta for c in back.counts] == [c.delta for c in est.counts]
    assert [c.delta for c in back.dropped] == [c.delta for c in est.dropped]


def test_local_slopes_on_the_golden_fs_counts():
    # neighbouring-scale slopes, dropped scales included, of the criterion-5 fs ladders
    golden = json.loads((Path(__file__).parent / "golden_net_counts.json").read_text())["fs"]
    expected = {E: ("E", (0.3, 0.02), [2.21, 2.43, 2.26, 2.29, 2.42, 2.37, 2.19]),
                H: ("H", (0.8, 0.1), [2.91, 2.98, 2.81, 2.99, 2.45, 3.41, 2.75])}
    for metric, (key, (hi, lo), slopes) in expected.items():
        counts = [NetCount(float(d), n) for d, n in zip(np.geomspace(hi, lo, 8), golden[key])]
        est = estimate_dimension(counts, metric=metric)
        blob = json.loads(json.dumps(estimate_to_dict(est)))
        assert [round(v, 2) for v in blob["local_slopes"]] == slopes
        assert estimate_from_dict(blob) == est  # readers ignore the key


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
def test_package_cloud_net_monotone(depth, seed):
    cloud = cantor_cloud(0.5, depth)
    deltas = sorted({float(x) for x in np.geomspace(1.0, 0.01, 6 + seed)}, reverse=True)
    for metric in (E, H):
        counts = [c.count for c in net_counts(cloud, deltas, metric)]
        assert counts == sorted(counts)


def test_euclidean_counts_below_gauge_counts_on_vertical_plane_cloud():
    # pairwise d_E <= d_H holds on {y=0} clouds with Euclidean diameter <= 1/2
    from heislab.constructions import Example1, build_family, family_cloud
    from heislab.hgeom import dist_pairs

    fam = build_family(Example1(), 2)
    sub = fam.rects[fam.rects[:, 0] < 0.25]
    fam_small = type(fam)(level=fam.level, rects=sub, h=fam.h, v=fam.v)
    cloud = family_cloud(fam_small, 2, kind="ex1")
    cloud = WeightedCloud(points=cloud.points, weights=cloud.weights,
                          total_mass=cloud.total_mass, source=cloud.source)
    idx = np.random.default_rng(0).integers(0, len(cloud), size=(400, 2))
    dE = dist_pairs(cloud.points[idx[:, 0]], cloud.points[idx[:, 1]], E)
    dH = dist_pairs(cloud.points[idx[:, 0]], cloud.points[idx[:, 1]], H)
    assert (dE <= dH + 1e-15).all()
    for delta in (0.05, 0.02, 0.01):
        ce = greedy_net(cloud, delta, E)[0].count
        ch = greedy_net(cloud, delta, H)[0].count
        assert ce <= ch
