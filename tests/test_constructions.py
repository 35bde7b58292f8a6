import csv
import json
import math
import shutil
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heislab.constructions import (
    MAX_POINTS,
    SAVE_BLOCK_ROWS,
    WeightedCloud,
    Example1,
    Example2,
    RectFamily,
    ResourceLimitError,
    build_family,
    cantor_cloud,
    cantor_ifs,
    expected_dims,
    family_cloud,
    hsquare_cloud,
    hsquare_ifs,
    ifs_cloud,
    json_number,
    level_sides,
    load_cloud,
    product_cloud,
    rows_path,
    save_cloud,
    segment_cloud,
    subdivide_rect,
    write_json,
    write_text,
)
from heislab.hgeom import MetricKind, Point
from heislab.probes import ex2_probe
from oracle import ORIGIN, dist, ex2_switch_level, load_both_ways, same_bits

H = MetricKind.HEISENBERG


UNIT = np.array([[0.0, 1.0, 0.0, 1.0]])


def _contains(outer, inner):
    """Row-wise [a, b] x [c, d] containment of inner in outer."""
    return ((outer[..., 0] <= inner[..., 0]) & (inner[..., 1] <= outer[..., 1])
            & (outer[..., 2] <= inner[..., 2]) & (inner[..., 3] <= outer[..., 3]))


def test_subdivide_unit_square_single():
    got = subdivide_rect(UNIT, 1, 0.5)
    assert np.array_equal(got, [[0, 0.5, 0, 0.5], [0.5, 1, 0.5, 1]])


def test_subdivide_unit_square_two_columns():
    got = subdivide_rect(UNIT, 2, 0.25)
    assert np.array_equal(got, [
        [0, 0.25, 0, 0.25],
        [0.5, 0.75, 0, 0.25],
        [0.25, 0.5, 0.75, 1],
        [0.75, 1, 0.75, 1],
    ])


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.01, max_value=0.5))
def test_subdivide_counts_and_widths(n, lam):
    children = subdivide_rect(UNIT, n, lam)
    assert children.shape == (2 * n, 4)
    for ch in children:
        assert math.isclose(ch[1] - ch[0], 1.0 / (2 * n), rel_tol=1e-12)
        assert math.isclose(ch[3] - ch[2], lam, rel_tol=1e-12)
        assert _contains(UNIT[0], ch)


def test_subdivide_splits_every_row_in_order():
    rects = np.array([[0.0, 1.0, 0.0, 1.0], [2.0, 4.0, -1.0, 3.0]])
    got = subdivide_rect(rects, 2, 0.25)
    for i, rect in enumerate(rects):
        assert np.array_equal(got[4 * i:4 * i + 4], subdivide_rect(rect, 2, 0.25))


def test_subdivide_rejects_tall_children():
    with pytest.raises(ValueError):
        subdivide_rect([0, 10, 0, 1], 1, 0.5)  # lam*(b-a) = 5 > 1


def _off_axis_cantor():
    return WeightedCloud(np.array([[0.5, 0.0, 0.0]]), np.ones(1), 1.0, {"kind": "cantor"})


@pytest.mark.parametrize("build, error, match", [
    (lambda: subdivide_rect(UNIT, 0, 0.5), ValueError, "n must be a positive integer"),
    (lambda: subdivide_rect(UNIT, 1.5, 0.25), ValueError, "n must be a positive integer"),
    (lambda: subdivide_rect(UNIT, 1, 0.0), ValueError, r"lambda must lie in \(0, 1/2\]"),
    (lambda: subdivide_rect(UNIT, 1, 0.75), ValueError, r"lambda must lie in \(0, 1/2\]"),
    (lambda: build_family(Example1(), -1), ValueError, "level must be >= 0"),
    (lambda: family_cloud(build_family(Example1(), 0), 0, kind="ex1"), ValueError,
     "samples_per_rect must be >= 1"),
    # two rectangles at level 0, so the limit is passed before any row is made
    (lambda: family_cloud(build_family(Example1(), 0), MAX_POINTS, kind="ex1"),
     ResourceLimitError, "exceed the 10000000 limit"),
    (lambda: ifs_cloud(hsquare_ifs(), -1, source={"kind": "hsquare", "depth": -1}), ValueError,
     "depth must be >= 0"),
    (lambda: product_cloud(hsquare_cloud(1), _off_axis_cantor()), ValueError,
     "second factor must lie on the t-axis"),
    # 4^7 * 2^10 = 2^24 pairs
    (lambda: product_cloud(hsquare_cloud(7), cantor_cloud(0.5, 10)), ResourceLimitError,
     "product needs 16777216 points"),
], ids=["n-zero", "n-fraction", "lambda-zero", "lambda-past-half", "negative-level",
        "no-samples", "samples-past-limit", "negative-depth", "off-axis-factor",
        "product-past-limit"])
def test_builders_refuse_bad_input(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_rect_validation():
    with pytest.raises(ValueError):
        RectFamily(level=0, rects=[[1, 0, 0, 1]], h=-1.0, v=1.0)
    with pytest.raises(ValueError):
        RectFamily(level=0, rects=[[0, 1, 1, 1]], h=1.0, v=0.0)
    with pytest.raises(ValueError):
        RectFamily(level=0, rects=[[0, 1, 0, 1], [0, 1, 0, 0.5]], h=1.0, v=1.0)


def test_alternating_family_closed_forms():
    params = Example1()
    fam0 = build_family(params, 0)
    assert fam0.rects.shape == (2, 4) and fam0.h == 0.5 and fam0.v == 0.5
    for k in (1, 2, 3):
        h, v = level_sides(params, k)
        assert h == 2.0 ** -(2**k)
        assert v == 2.0 ** -(2 ** (k + 1))
        assert v == h * h
    # child width equals parent height from level 1 on
    for k in (1, 2, 3):
        assert level_sides(params, k + 1)[0] == level_sides(params, k)[1]


def test_alternating_family_counts():
    fam = build_family(Example1(), 3)
    assert fam.rects.shape == (256, 4)
    assert build_family(Example1(), 1).rects.shape == (4, 4)


def test_family_nesting_and_disjointness():
    parent = build_family(Example1(), 2)
    child = build_family(Example1(), 3)
    for ch in child.rects[:64]:
        assert _contains(parent.rects, ch).sum() == 1
    # pairwise disjoint interiors at level 2
    rects = parent.rects
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            overlap_x = min(a[1], b[1]) - max(a[0], b[0])
            overlap_t = min(a[3], b[3]) - max(a[2], b[2])
            assert overlap_x <= 0 or overlap_t <= 0


def test_flat_family_closed_forms():
    M = 2.0
    params = Example2(M)
    switch = params.switch_level()
    assert 2**switch > 34 * M and 2 ** (switch - 1) <= 34 * M
    for k in (switch, switch + 1, switch + 2):
        h, v = level_sides(params, k)
        assert h == 2.0**-k
        assert v == 34 * M * 4.0**-k
        assert v == 34 * M * h * h
    # square regime before the switch
    h, v = level_sides(params, switch - 1)
    assert h == v == 2.0 ** -(switch - 1)


def test_flat_family_children_gap():
    M = 2.0
    params = Example2(M)
    k = params.switch_level() + 1
    parent_fam = build_family(params, k)
    child_fam = build_family(params, k + 1)
    parent = parent_fam.rects[0]
    kids = child_fam.rects[_contains(parent, child_fam.rects)]
    assert len(kids) == 2
    low, high = sorted(kids, key=lambda r: r[2])
    gap = high[2] - low[3]
    assert gap == 17 * M * 4.0**-k


@pytest.mark.parametrize("M", [1.1, 7.3])
def test_flat_family_sides_within_rounding(M):
    # past the switch, (c + v) - c misses v by up to half an ulp of c for
    # these M; the families must still build, as deep as the ex2 probe needs
    params = Example2(M)
    for k in range(13):
        fam = build_family(params, k)
        assert (fam.h, fam.v) == level_sides(params, k)
        assert fam.rects.shape == (2**k, 4)
        heights = fam.rects[:, 3] - fam.rects[:, 2]
        assert np.abs(heights - fam.v).max() <= 0.5 * np.spacing(1.0)
    assert ex2_probe(M, 11).summary["min_ratio"] > 0


def test_flat_family_m_must_exceed_one():
    with pytest.raises(ValueError):
        Example2(1.0)
    with pytest.raises(ValueError):  # 34M overflows: no exponent to read the switch off
        Example2(1e308)


def test_switch_level_matches_the_counting_loop():
    # 2^j / 34 and both its float neighbours for every j with M > 1 and 34M finite,
    # and log-uniform values of M; schedule halves exactly before the switch
    bounds = [2.0**j / 34.0 for j in range(6, 1024)]
    ms = [float(m) for b in bounds for m in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(19)))
    ms += np.exp2(rng.uniform(0.0, 64.0, 20_000)).tolist()
    for M in ms:
        params = Example2(M)
        k = params.switch_level()
        assert k == ex2_switch_level(M), M
        assert [params.schedule(j)[1] == 0.5 for j in (k - 1, k)] == [True, False], M


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        build_family(Example1(), 5)


def test_family_cloud_masses():
    fam = build_family(Example1(), 0)
    cloud = family_cloud(fam, 1, kind="ex1")
    assert len(cloud) == 2
    assert np.allclose(cloud.weights, 0.5)
    assert cloud.total_mass == 1.0

    for level in (1, 2, 3):
        c = family_cloud(build_family(Example1(), level), 3, kind="ex1")
        assert c.total_mass == pytest.approx(1.0, rel=1e-12)
        assert (c.points[:, 1] == 0.0).all()


def test_family_cloud_metadata():
    fam = build_family(Example1(), 2)
    cloud = family_cloud(fam, 4, kind="ex1")
    assert cloud.source == {"kind": "ex1", "level": 2, "samples_per_rect": 4}
    assert cloud.err_t == fam.v / 2
    assert cloud.err_xy == fam.h / 8


def apply(m, p: Point) -> Point:
    """One map of an IFS applied to a single point."""
    return Point.from_array(m(p.as_array().reshape(1, 3))[0])


def test_hsquare_maps():
    maps = hsquare_ifs()
    assert len(maps) == 4
    p = Point(0.3, -0.8, 0.5)
    f1 = apply(maps[0], p)
    assert f1 == Point(0.15, -0.4, 0.125)
    assert apply(maps[1], ORIGIN) == Point(0.5, 0.0, 0.0)


@settings(max_examples=200)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_hsquare_lift_commutes_with_projection(x, y, t):
    p = Point(x, y, t)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    for m, (vx, vy) in zip(hsquare_ifs(), corners):
        q = apply(m, p)
        assert math.isclose(q.x, (p.x + vx) / 2, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(q.y, (p.y + vy) / 2, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=200)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_hsquare_similarity_ratio(x1, y1, t1, x2, y2, t2):
    p, q = Point(x1, y1, t1), Point(x2, y2, t2)
    d0 = dist(p, q, H)
    # twist cancellation floors absolute gauge accuracy near coincident pairs
    for m in hsquare_ifs():
        d1 = dist(apply(m, p), apply(m, q), H)
        assert abs(d1 - 0.5 * d0) <= 1e-12 * (1.0 + d0) + 1e-7


def test_hsquare_similarity_ratio_bulk():
    from heislab.hgeom import dist_pairs

    rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    P = rng.uniform(-2, 2, size=(10_000, 3))
    Q = rng.uniform(-2, 2, size=(10_000, 3))
    d0 = dist_pairs(P, Q, H)
    for m in hsquare_ifs():
        d1 = dist_pairs(m(P), m(Q), H)
        assert np.all(np.abs(d1 - 0.5 * d0) <= 1e-9 * (1.0 + d0))


def test_cantor_maps():
    ratio, (g1, g2) = cantor_ifs(0.5)
    assert ratio == 0.25
    assert apply(g1, Point(0, 0, 1.0)).t == 0.25
    assert apply(g2, Point(0, 0, 0.0)).t == 0.75
    # fixed points
    assert apply(g1, Point(0, 0, 0.0)).t == 0.0
    assert apply(g2, Point(0, 0, 1.0)).t == 1.0
    with pytest.raises(ValueError):
        cantor_ifs(1.5)


@given(st.floats(min_value=0.15, max_value=0.85),
       st.floats(-1, 1), st.floats(-1, 1))
def test_cantor_gauge_contraction(d, t1, t2):
    _, maps = cantor_ifs(d)
    p, q = Point(0, 0, t1), Point(0, 0, t2)
    d0 = dist(p, q, H)
    expect = 2.0 ** (-1.0 / (2.0 * d))
    for m in maps:
        d1 = dist(apply(m, p), apply(m, q), H)
        assert abs(d1 - expect * d0) <= 1e-12 * (1.0 + d0) + 1e-7


def test_ifs_cloud_depth_zero():
    cloud = ifs_cloud(hsquare_ifs(), 0, source={"kind": "hsquare", "depth": 0})
    assert len(cloud) == 1
    assert Point.from_array(cloud.points[0]) == ORIGIN
    assert cloud.weights[0] == 1.0


def test_hsquare_cloud_projects_into_unit_square():
    cloud = hsquare_cloud(5)
    assert len(cloud) == 4**5
    assert (cloud.points[:, 0] >= 0).all() and (cloud.points[:, 0] <= 1).all()
    assert (cloud.points[:, 1] >= 0).all() and (cloud.points[:, 1] <= 1).all()
    assert cloud.total_mass == pytest.approx(1.0, rel=1e-12)


def test_cantor_cloud_depth_two_values():
    cloud = cantor_cloud(0.5, 2)
    got = sorted(cloud.points[:, 2])
    assert got == [0.0, 3 / 16, 3 / 4, 15 / 16]
    assert (cloud.points[:, :2] == 0).all()


def test_ifs_cloud_resource_limit():
    with pytest.raises(ResourceLimitError):
        ifs_cloud(hsquare_ifs(), 13, source={"kind": "hsquare", "depth": 13})


def test_product_cloud():
    qh = hsquare_cloud(2)
    cantor = cantor_cloud(0.5, 3)
    fs = product_cloud(qh, cantor)
    assert len(fs) == len(qh) * len(cantor)
    assert fs.total_mass == pytest.approx(1.0, rel=1e-12)
    # t extent adds the unit interval of the second factor
    assert fs.points[:, 2].min() == pytest.approx(qh.points[:, 2].min(), abs=1e-12)
    assert fs.points[:, 2].max() == pytest.approx(qh.points[:, 2].max() + 63 / 64, abs=1e-12)


def test_product_identity_factor():
    qh = hsquare_cloud(2)
    unit = ifs_cloud([], 0, source={"kind": "cantor", "d": 0.5, "depth": 0})
    fs = product_cloud(qh, unit)
    assert np.array_equal(fs.points, qh.points)
    assert np.allclose(fs.weights, qh.weights)


def test_product_rejects_off_axis():
    qh = hsquare_cloud(2)
    with pytest.raises(ValueError):
        product_cloud(qh, qh)


def test_ifs_cloud_needs_a_source():
    # the cloud's source is the one record of what it is: no generic "ifs" default
    with pytest.raises(TypeError, match="source"):
        ifs_cloud(hsquare_ifs(), 2)


@pytest.mark.parametrize("factors", [
    lambda: (segment_cloud("x", 0.0, 1.0, 8), cantor_cloud(0.5, 3)),
    lambda: (hsquare_cloud(2), segment_cloud("t", 0.0, 1.0, 8)),
    lambda: (cantor_cloud(0.5, 3), hsquare_cloud(2)),
], ids=["xseg-x-cantor", "hsquare-x-tseg", "swapped"])
def test_product_is_only_hsquare_times_cantor(factors):
    # the product is always labelled fs, so any other pair would pass as fs
    with pytest.raises(ValueError, match="hsquare and a cantor"):
        product_cloud(*factors())


def test_expected_dims_table():
    assert expected_dims({"kind": "cantor", "d": 0.5}) == (0.5, 1.0)
    assert expected_dims({"kind": "fs", "d": 0.5}) == (2.5, 3.0)
    assert expected_dims({"kind": "ex1"}) == (1.0, 1.0)
    assert expected_dims({"kind": "ex2"}) == (1.0, 1.0)
    assert expected_dims({"kind": "tseg"}) == (1.0, 2.0)
    assert expected_dims({"kind": "xseg"}) == (1.0, 1.0)
    assert expected_dims({"kind": "hsquare"}) == (None, 2.0)
    with pytest.raises(ValueError):
        expected_dims({"kind": "mystery"})


def test_segment_clouds():
    xs = segment_cloud("x", 0, 1, 100)
    assert xs.total_mass == pytest.approx(1.0)
    assert (xs.points[:, 1:] == 0).all()
    ts = segment_cloud("t", -1, 1, 100)
    assert ts.total_mass == pytest.approx(2.0)
    assert (ts.points[:, :2] == 0).all()


def test_segment_cloud_limits():
    # past the point limit is a resource limit, like every other builder
    with pytest.raises(ResourceLimitError):
        segment_cloud("x", 0, 1, MAX_POINTS + 1)
    with pytest.raises(ValueError, match="bad point count"):
        segment_cloud("t", -1, 1, 0)
    with pytest.raises(ValueError, match="axis must be 'x' or 't'"):
        segment_cloud("y", -1, 1, 10)
    for lo, hi in ((1, 1), (1, -1)):
        with pytest.raises(ValueError, match="need lo < hi"):
            segment_cloud("t", lo, hi, 10)


def test_cloud_weight_mass_consistency_enforced():
    from heislab.constructions import WeightedCloud

    for points in (np.zeros((2, 2)), np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match="points must be"):
            WeightedCloud(points=points, weights=np.array([0.5, 0.5]), total_mass=1.0, source={})
    for weights in (np.array([1.0]), np.full((2, 1), 0.5)):
        with pytest.raises(ValueError, match="one weight per point"):
            WeightedCloud(points=np.zeros((2, 3)), weights=weights, total_mass=1.0, source={})
    with pytest.raises(ValueError):
        WeightedCloud(points=np.zeros((2, 3)), weights=np.array([0.5, 0.5]),
                      total_mass=2.0, source={})
    with pytest.raises(ValueError):
        WeightedCloud(points=np.zeros((2, 3)), weights=np.array([0.5, -0.5]),
                      total_mass=0.0, source={})
    # the density scan prunes rows by placement error, so it must be a finite bound
    for err in ({"err_xy": math.nan}, {"err_t": math.inf}, {"err_t": -0.1}):
        with pytest.raises(ValueError, match="placement errors"):
            WeightedCloud(points=np.zeros((2, 3)), weights=np.array([0.5, 0.5]),
                          total_mass=1.0, source={}, **err)


def test_csv_round_trip_exact(tmp_path):
    cloud = family_cloud(build_family(Example1(), 2), 3, kind="ex1")
    path = tmp_path / "c.csv"
    save_cloud(cloud, path)
    assert rows_path(path) == tmp_path / "c.rows"
    assert rows_path(path).stat().st_size == 40 + 32 * len(cloud)
    for again in load_both_ways(path):
        assert np.array_equal(cloud.points, again.points)
        assert np.array_equal(cloud.weights, again.weights)
        assert again.total_mass == cloud.total_mass
        assert again.source == cloud.source
        assert (again.err_xy, again.err_t) == (cloud.err_xy, cloud.err_t)
    meta = json.loads((tmp_path / "c.meta.json").read_text())
    assert sorted(meta) == ["err_t", "err_xy", "source", "total_mass"]


def _save_ref(cloud, path):
    """The csv-module writer: one writerow of repr fields per point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "t", "weight"])
        for (x, y, t), w in zip(cloud.points, cloud.weights):
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(t)), repr(float(w))])


def test_save_cloud_bytes_and_bits(tmp_path):
    # two full row blocks and a partial third; every magnitude repr can take
    n = 2 * SAVE_BLOCK_ROWS + 3
    rng = np.random.default_rng(7)
    points = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    weights = rng.random(n)
    special = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 3.0, -7.0, 2.0**53]
    points[:len(special)] = np.array(special)[:, None]
    points[-len(special):, 1] = special
    weights[:6] = [-0.0, 5e-324, 1e-300, 0.1, 3.0, 0.0]
    cloud = WeightedCloud(points=points, weights=weights, total_mass=float(weights.sum()),
                          source={"kind": "unknown"})
    path, ref = tmp_path / "c.csv", tmp_path / "ref.csv"
    save_cloud(cloud, path)
    _save_ref(cloud, ref)
    assert path.read_bytes() == ref.read_bytes()
    for again in load_both_ways(path):
        # array_equal cannot tell -0.0 from 0.0; the bit patterns can
        assert np.array_equal(again.points.view(np.int64), cloud.points.view(np.int64))
        assert np.array_equal(again.weights.view(np.int64), cloud.weights.view(np.int64))


def test_save_cloud_repeated_values_keep_their_bits(tmp_path):
    # a product cloud repeats every coordinate many times, and its weights
    # column mixes 0.0 and -0.0, which compare equal but print apart
    cloud = product_cloud(hsquare_cloud(3), cantor_cloud(0.5, 3))
    rng = np.random.default_rng(12)
    signs = rng.random(len(cloud)) < 0.5
    weights = np.where(signs, 0.0, -0.0)
    assert signs.sum() > 100 and (~signs).sum() > 100
    cloud = WeightedCloud(points=cloud.points, weights=weights, total_mass=0.0,
                          source=cloud.source)
    path, ref = tmp_path / "c.csv", tmp_path / "ref.csv"
    save_cloud(cloud, path)
    _save_ref(cloud, ref)
    assert path.read_bytes() == ref.read_bytes()
    for again in load_both_ways(path):
        assert np.array_equal(again.points.view(np.int64), cloud.points.view(np.int64))
        assert np.array_equal(again.weights.view(np.int64), cloud.weights.view(np.int64))


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# -0.0, the smallest and largest subnormals, the smallest normal and +-max
_EDGES = [0.0, -0.0, 5e-324, -5e-324, _float(0x000F_FFFF_FFFF_FFFF), sys.float_info.min,
          sys.float_info.max, -sys.float_info.max]
_COORDS = st.one_of(st.sampled_from(_EDGES),
                    st.integers(0, 2**64 - 1).map(_float).filter(math.isfinite))
# nonnegative (or -0.0) and below 1, so the total mass stays finite
_WEIGHTS = st.one_of(st.sampled_from([w for w in _EDGES if 0.0 <= w < 1.0]),
                     st.integers(0, 0x3FEF_FFFF_FFFF_FFFF).map(_float))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_COORDS, _COORDS, _COORDS, _WEIGHTS), min_size=1, max_size=12))
def test_both_read_paths_give_back_every_bit(rows):
    rows = np.array(rows, dtype=np.float64)
    cloud = WeightedCloud(points=rows[:, :3], weights=rows[:, 3],
                          total_mass=float(rows[:, 3].sum()), source={"kind": "unknown"})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        save_cloud(cloud, path)
        for again in load_both_ways(path):
            assert same_bits(again.points, cloud.points)
            assert same_bits(again.weights, cloud.weights)


def _spoil(path, how):
    rows = rows_path(path)
    if how == "csv-byte-changed":
        # 0.03125 -> 0.04125 in the first row's x; the weights, and so the mass, stay
        path.write_bytes(path.read_bytes().replace(b"\r\n0.03125,", b"\r\n0.04125,", 1))
    elif how == "companion-truncated":
        rows.write_bytes(rows.read_bytes()[:-8])
    elif how == "companion-header-cut":
        rows.write_bytes(rows.read_bytes()[:39])
    elif how == "companion-extended":
        rows.write_bytes(rows.read_bytes() + bytes(32))
    elif how == "foreign-companion":
        # the same row count, so only the digest tells it apart
        other = path.with_name("other.csv")
        save_cloud(segment_cloud("t", 0.0, 1.0, 16), other)
        shutil.copyfile(rows_path(other), rows)
    else:
        rows.unlink()
        rows.mkdir()


@pytest.mark.parametrize("how", ["csv-byte-changed", "companion-truncated",
                                 "companion-header-cut", "companion-extended",
                                 "foreign-companion", "companion-unreadable"])
def test_load_ignores_a_companion_that_does_not_match(tmp_path, how):
    # each gives the CSV parse's result, from one parse
    path = tmp_path / "c.csv"
    cloud = segment_cloud("x", 0.0, 1.0, 16)
    save_cloud(cloud, path)
    _spoil(path, how)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parse:
        again = load_cloud(path)
    assert parse.call_count == 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert same_bits(again.points, data[:, :3]) and same_bits(again.weights, data[:, 3])
    assert same_bits(again.points, cloud.points) is (how != "csv-byte-changed")


def test_save_cloud_memory_per_row(tmp_path):
    # each column is deduped on its own, so no cloud-sized field array exists, and each
    # column's inverse is held in the narrowest unsigned type that ranks its distinct values
    cloud = product_cloud(hsquare_cloud(6), cantor_cloud(0.5, 5))
    assert len(cloud) == 131072
    tracemalloc.start()
    try:
        save_cloud(cloud, tmp_path / "c.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * len(cloud), peak / len(cloud)


def test_write_text_failure_removes_temp_and_keeps_target(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def chunks():
        yield "new "
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        write_text(chunks(), path)
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_write_text_takes_strings_and_bytes_chunks(tmp_path):
    path = tmp_path / "out.bin"
    write_text(["a,\r\n", b"\x00\xff", memoryview(np.array([1.5, -0.0]))], path)
    assert path.read_bytes() == b"a,\r\n\x00\xff" + np.array([1.5, -0.0]).tobytes()
    write_text(b"raw", path)
    assert path.read_bytes() == b"raw"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    # strict JSON has no NaN or Infinity
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json({"x": value}, path)
    assert list(tmp_path.iterdir()) == []


def test_load_cloud_line_ends_and_empty_lines(tmp_path):
    # np.loadtxt would decompress a path with a compression suffix; these are plain text
    for name in ("c.csv", "c.gz", "c.csv.bz2", "c.xz", "c.lzma"):
        _check_line_ends_and_empty_lines(tmp_path / name)


def _check_line_ends_and_empty_lines(path):
    rows = ["0.5,-0.0,1e-300,0.25", "1.0,2.0,3.0,0.75"]
    for text in ["x,y,t,weight\n" + "\n".join(rows) + "\n",
                 "x,y,t,weight\r\n" + "\r\n".join(rows) + "\r\n",
                 "x,y,t,weight\n" + "\n".join(rows),
                 "x,y,t,weight\r\n" + rows[0] + "\r\n\r\n\n" + rows[1] + "\r\n\n"]:
        path.write_bytes(text.encode())
        cloud = load_cloud(path)
        assert cloud.points.tolist() == [[0.5, -0.0, 1e-300], [1.0, 2.0, 3.0]]
        assert math.copysign(1.0, cloud.points[0, 1]) == -1.0
        assert cloud.weights.tolist() == [0.25, 0.75] and cloud.total_mass == 1.0
    for text in ["x,y,t,weight\n0.5,0,1,0.25\n", "x,y,t,weight\r\n0.5,0,1,0.25"]:
        path.write_bytes(text.encode())
        cloud = load_cloud(path)
        assert cloud.points.shape == (1, 3) and cloud.weights.tolist() == [0.25]
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        load_cloud(path)


def test_json_number_is_one_rule_for_file_numbers():
    assert json_number(3, "x") == 3.0 and type(json_number(3, "x")) is float
    assert json_number(-2.5, "x") == -2.5
    assert json_number(10**308, "x") == 1e308
    assert json_number(7, "x", integer=True) == 7 and type(json_number(7, "x", True)) is int
    for value in (True, False, None, "1", "1.0", [], {}, math.nan, math.inf, -math.inf,
                  10**400, -(10**400)):
        with pytest.raises(ValueError, match="^bad$"):
            json_number(value, "bad")
    for value in (True, 2.0, 2.5, "2", None, 10**400):
        with pytest.raises(ValueError, match="^bad$"):
            json_number(value, "bad", integer=True)
