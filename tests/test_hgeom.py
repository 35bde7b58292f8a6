import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heislab.hgeom import (
    MetricKind,
    Point,
    as_points_array,
    beta_minus,
    beta_plus,
    dilate_many,
    dist_many,
    dist_pairs,
    plane_dist_many,
)
from oracle import (
    ORIGIN,
    dilate,
    dist,
    dist_to_plane,
    group_inv,
    group_mul,
    in_neighborhood,
    plane_residual,
)

E = MetricKind.EUCLIDEAN
H = MetricKind.HEISENBERG

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coord, coord, coord)

# squaring twice in the gauge formula underflows below ~1e-154, so the
# zero-iff-equal property is only claimed away from the subnormal range
solid_coord = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-1e-6),
)
solid_points = st.builds(Point, solid_coord, solid_coord, solid_coord)


def test_group_identity():
    p = Point(0.3, -1.2, 0.7)
    assert group_mul(ORIGIN, p) == p
    assert group_mul(p, ORIGIN) == p


def test_group_products_show_noncommutativity():
    # the twist picks up +2 for (1,0,0)*(0,1,0) and -2 with the factors swapped
    assert group_mul(Point(1, 0, 0), Point(0, 1, 0)) == Point(1, 1, 2)
    assert group_mul(Point(0, 1, 0), Point(1, 0, 0)) == Point(1, 1, -2)


def test_group_inverse():
    assert group_inv(ORIGIN) == ORIGIN
    assert group_inv(Point(1, 0, 0)) == Point(-1, 0, 0)
    p = Point(1, 2, 3)
    assert group_inv(p) == Point(-1, -2, -3)
    assert group_mul(p, group_inv(p)) == ORIGIN
    assert group_mul(group_inv(p), p) == ORIGIN


@given(points)
def test_inverse_cancels_exactly(p):
    q = group_mul(p, group_inv(p))
    assert q.x == 0.0 and q.y == 0.0 and q.t == 0.0


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Point(0, float("inf"), 0)


def test_dilate():
    assert dilate(Point(1, 1, 1), 1.0) == Point(1, 1, 1)
    assert dilate(Point(1, 0, 1), 0.5) == Point(0.5, 0.0, 0.25)
    with pytest.raises(ValueError):
        dilate(ORIGIN, 0.0)
    with pytest.raises(ValueError):
        dilate(ORIGIN, -1.0)


@given(points, st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.1, max_value=2.0))
def test_dilate_semigroup(p, a, b):
    lhs = dilate(dilate(p, a), b)
    rhs = dilate(p, a * b)
    assert math.isclose(lhs.x, rhs.x, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(lhs.y, rhs.y, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(lhs.t, rhs.t, rel_tol=1e-12, abs_tol=1e-15)


def test_dist_examples():
    p = Point(0.4, -0.3, 1.1)
    assert dist(p, p, E) == 0.0
    assert dist(p, p, H) == 0.0
    assert dist(Point(1, 0, 0), Point(0, 1, 0), H) == pytest.approx(8 ** 0.25, rel=1e-12)
    assert dist(ORIGIN, Point(0, 0, 1), H) == pytest.approx(1.0, rel=1e-12)
    assert dist(ORIGIN, Point(0, 0, 1), E) == pytest.approx(1.0, rel=1e-12)


@given(points, points)
def test_dist_symmetric_bitwise(p, q):
    assert dist(p, q, H) == dist(q, p, H)
    assert dist(p, q, E) == dist(q, p, E)


@given(solid_points, solid_points)
def test_dist_positive_on_distinct(p, q):
    if p != q:
        assert dist(p, q, H) > 0.0
        assert dist(p, q, E) > 0.0


# cancellation in the twist term floors the absolute accuracy of the gauge
# distance near coincident pairs at ~sqrt(ulp of the coordinate products)
GAUGE_FLOOR = 1e-7


@settings(max_examples=300)
@given(points, points, points)
def test_left_invariance(g, p, q):
    d0 = dist(p, q, H)
    d1 = dist(group_mul(g, p), group_mul(g, q), H)
    assert abs(d1 - d0) <= 1e-9 * (1.0 + d0) + GAUGE_FLOOR


@settings(max_examples=300)
@given(points, points, st.floats(min_value=0.1, max_value=2.0))
def test_homogeneity(p, q, lam):
    d0 = dist(p, q, H)
    d1 = dist(dilate(p, lam), dilate(q, lam), H)
    assert abs(d1 - lam * d0) <= 1e-9 * (1.0 + lam * d0) + GAUGE_FLOOR


@settings(max_examples=300)
@given(points, points, points)
def test_triangle_inequality(p, o, q):
    assert dist(p, q, H) <= (dist(p, o, H) + dist(o, q, H)) * (1.0 + 1e-9) + 1e-12


def test_plane_residual_examples():
    base = Point(1, 0, 0)
    assert plane_residual(base, base) == 0.0
    assert plane_residual(Point(0.7, -0.2, 1.3), ORIGIN) == -1.3
    assert plane_residual(Point(0, 1, 0), base) == 2.0


def test_dist_to_plane_examples():
    assert dist_to_plane(Point(0.3, 0.8, -0.4), ORIGIN) == 0.4
    got = dist_to_plane(Point(0, 1, 0), Point(1, 0, 0))
    assert got == pytest.approx(2 / math.sqrt(5), rel=1e-12)


@given(points, coord, coord)
def test_plane_contains_its_translated_horizontals(base, a, b):
    # q = base * (a, b, 0) lies on the plane through base
    q = group_mul(base, Point(a, b, 0.0))
    scale = max(1.0, abs(q.t))
    assert abs(plane_residual(q, base)) <= 1e-9 * scale
    assert dist_to_plane(q, base) <= 1e-9 * scale


def test_in_neighborhood():
    assert in_neighborhood(ORIGIN, ORIGIN, 0.0)
    assert not in_neighborhood(Point(0, 0, 0.5), ORIGIN, 0.4)
    assert in_neighborhood(Point(0, 1, 0), Point(1, 0, 0), 0.9)
    with pytest.raises(ValueError):
        in_neighborhood(ORIGIN, ORIGIN, -0.1)


def test_beta_bounds():
    assert beta_minus(1.0) == 1.0
    assert beta_plus(1.0) == 2.0
    assert beta_minus(0.0) == 0.0
    assert beta_plus(0.0) == 0.0
    assert beta_minus(2.5) == 3.0
    assert beta_plus(2.5) == 3.5
    with pytest.raises(ValueError):
        beta_minus(-0.5)
    with pytest.raises(ValueError):
        beta_plus(-0.5)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_beta_bounds_refuse_non_finite_exponents(s):
    for bound in (beta_minus, beta_plus):
        with pytest.raises(ValueError, match="finite"):
            bound(s)


@given(st.floats(min_value=0.0, max_value=3.0))
def test_beta_sandwich(s):
    lo, hi = beta_minus(s), beta_plus(s)
    assert lo <= hi
    if 0.0 < s < 3.0:
        assert lo < hi


def test_metric_comparison_constant_frozen():
    # on B_E(0, R) with R = 2 the frozen constant c = 3(1+R) = 9 bounds both ratios
    rng = np.random.Generator(np.random.Philox(key=np.uint64(123)))
    P = rng.uniform(-2, 2, size=(40000, 3))
    Q = rng.uniform(-2, 2, size=(40000, 3))
    keep = (np.linalg.norm(P, axis=1) <= 2) & (np.linalg.norm(Q, axis=1) <= 2)
    P, Q = P[keep], Q[keep]
    dE = dist_pairs(P, Q, E)
    dH = dist_pairs(P, Q, H)
    nz = dE > 0
    c = 3 * (1 + 2)
    assert (dE[nz] <= c * dH[nz]).all()
    assert (dH[nz] <= c * np.sqrt(dE[nz])).all()


def test_ball_sandwich_inner_and_plane_parts():
    # sampled check of the true parts of the lens comparison at R = 2:
    # the slim inner lens sits inside the ball, and ball membership bounds the
    # plane distance by r^2
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    R = 2.0
    inner_scale = 1.0 / math.sqrt(2.0 * (1.0 + 4.0 * R * R))
    for r in (1.0, 0.3, 0.1):
        for _ in range(400):
            ang = rng.uniform(0, 2 * math.pi)
            rad = R * math.sqrt(rng.random())
            p = Point(rad * math.cos(ang), rad * math.sin(ang), rng.uniform(-1, 1))
            a = (r / 2) * math.sqrt(rng.random())
            phi = rng.uniform(0, 2 * math.pi)
            du = (a * math.cos(phi), a * math.sin(phi))
            w = 2.0 * (p.x * du[1] - p.y * du[0])
            q = Point(p.x + du[0], p.y + du[1], p.t + w + rng.uniform(-r * r, r * r))
            if dist(q, p, E) <= r / 2 and dist_to_plane(q, p) <= r * r * inner_scale:
                assert dist(q, p, H) <= r
            if dist(q, p, H) <= r:
                assert dist_to_plane(q, p) <= r * r


def test_vectorized_forms_match_scalar():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(64, 3))
    p = Point(0.3, -0.6, 0.9)
    dm_e = dist_many(pts, p, E)
    dm_h = dist_many(pts, p, H)
    for i in range(64):
        q = Point.from_array(pts[i])
        assert dm_e[i] == dist(q, p, E) or math.isclose(dm_e[i], dist(q, p, E), rel_tol=1e-15)
        assert math.isclose(dm_h[i], dist(q, p, H), rel_tol=1e-12)
    others = rng.uniform(-2, 2, size=(64, 3))
    dp_e = dist_pairs(pts, others, E)
    dp_h = dist_pairs(pts, others, H)
    for i in range(64):
        q, o = Point.from_array(pts[i]), Point.from_array(others[i])
        assert dp_e[i] == dist(q, o, E) or math.isclose(dp_e[i], dist(q, o, E), rel_tol=1e-15)
        assert math.isclose(dp_h[i], dist(q, o, H), rel_tol=1e-12)
    for base in (p, ORIGIN, Point(-1.7, 1.1, -0.4)):
        pd = plane_dist_many(pts, base)
        for i in range(64):
            assert pd[i] == dist_to_plane(Point.from_array(pts[i]), base)


@pytest.mark.parametrize("call, match", [
    # one point is a (1, 3) array: a bare (3,) row is refused like any other shape
    (lambda: as_points_array(np.zeros(3)), r"expected an \(n, 3\) array.*\(3,\)"),
    (lambda: as_points_array(np.zeros((2, 2))), r"expected an \(n, 3\) array"),
    (lambda: as_points_array(np.zeros((2, 3, 1))), r"expected an \(n, 3\) array"),
    (lambda: dist_many([0.0, 0.0, 1.0], ORIGIN, E), r"expected an \(n, 3\) array"),
    (lambda: dilate_many(np.zeros((1, 3)), 0.0), "dilation factor must be positive"),
    (lambda: dilate_many(np.zeros((1, 3)), -2.0), "dilation factor must be positive"),
    (lambda: dilate_many(np.zeros((1, 3)), math.nan), "dilation factor must be positive"),
], ids=["one-row", "two-columns", "three-dims", "dist-many-one-row", "lambda-zero",
        "lambda-negative", "lambda-nan"])
def test_row_kernels_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
