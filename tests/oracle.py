"""Scalar reference forms of the group law, the two metrics, the plane distance,
the one-point mass split, the ex2 switch level and the annulus constants, which
the tests compare the package's array and closed-form code to, and a loader that
reads a saved cloud on both of load_cloud's paths."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from heislab.constructions import WeightedCloud, load_cloud, rows_path
from heislab.hgeom import MetricKind, Point, dist_many, normal_scale, plane_dist_many
from heislab.probes import _strided

ORIGIN = Point(0.0, 0.0, 0.0)


def group_mul(p: Point, q: Point) -> Point:
    """Group product p * q (non-commutative)."""
    return Point(p.x + q.x, p.y + q.y, p.t + q.t + 2.0 * (p.x * q.y - q.x * p.y))


def group_inv(p: Point) -> Point:
    """Group inverse; coordinate negation, since the twist vanishes on (p, p^-1)."""
    return Point(-p.x, -p.y, -p.t)


def dilate(p: Point, lam: float) -> Point:
    """Anisotropic dilation (lx, ly, l^2 t). Requires lam > 0."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"dilation factor must be positive and finite, got {lam}")
    return Point(lam * p.x, lam * p.y, lam * lam * p.t)


def dist(p: Point, q: Point, metric: MetricKind) -> float:
    """Distance between p and q in the requested metric."""
    if metric is MetricKind.EUCLIDEAN:
        return math.hypot(p.x - q.x, p.y - q.y, p.t - q.t)
    dx = p.x - q.x
    dy = p.y - q.y
    horiz = dx * dx + dy * dy
    tw = plane_residual(q, p)
    return (horiz * horiz + tw * tw) ** 0.25


def plane_residual(q: Point, base: Point) -> float:
    """t0 - t - 2(x*y0 - y*x0); zero iff q lies on the horizontal plane through base."""
    return base.t - q.t - 2.0 * (q.x * base.y - q.y * base.x)


def dist_to_plane(q: Point, base: Point) -> float:
    """Euclidean distance from q to the horizontal plane through base."""
    return abs(plane_residual(q, base)) / normal_scale(base.x, base.y)


def in_neighborhood(q: Point, base: Point, rho: float) -> bool:
    """Membership in the closed rho-neighborhood of the horizontal plane through base."""
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"neighborhood radius must be >= 0, got {rho}")
    return dist_to_plane(q, base) <= rho


def _split(weights: np.ndarray, ball: np.ndarray, near: np.ndarray) -> tuple[float, float]:
    """Weight in the ball, split into (near the plane, clear of it)."""
    return float(weights[ball & near].sum()), float(weights[ball & ~near].sum())


def mass_split(cloud: WeightedCloud, p: Point, r: float, rho: float) -> tuple[float, float]:
    """Weight of cloud points in the Euclidean r-ball around p, split by whether
    their distance to the horizontal plane through p is <= rho."""
    if not r > 0:
        raise ValueError("r must be positive")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    dE = dist_many(cloud.points, p, MetricKind.EUCLIDEAN)
    pd = plane_dist_many(cloud.points, p)
    return _split(cloud.weights, dE <= r, pd <= rho)


def density_ratio(cloud: WeightedCloud, p: Point, r: float, rho: float, s: float) -> float:
    """Off-plane mass in the r-ball over (2r)^s."""
    _, outside = mass_split(cloud, p, r, rho)
    return outside / (2.0 * r) ** s


def ex2_switch_level(M: float) -> int:
    """First level k with 2^k > 34M, counted up from k = 1."""
    k = 1
    while 2**k <= 34 * M:
        k += 1
    return k


def annulus_constants(cantor: WeightedCloud, radii, d: float) -> tuple[float, float]:
    """estimate_annulus_constants as a loop over c0 candidates, centers and radii,
    with one |t - tc| pass per center and candidate."""
    radii = [r for r in radii if 0.0 < r < 1.0]
    t_values = cantor.points[:, 2]
    centers = t_values[_strided(len(t_values), 24)]
    for c0 in (0.25 * 2.0**-j for j in range(11)):
        worst = math.inf
        for tc in centers:
            delta_t = np.abs(t_values - tc)
            for r in radii:
                m = float(cantor.weights[(delta_t >= c0 * r) & (delta_t <= r / 4.0)].sum())
                worst = min(worst, m / r**d)
        if worst > 0.0:
            return c0, worst
    return 0.0, 0.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-exact equality of two float arrays (tells -0.0 from 0.0, unlike ==)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def load_both_ways(path) -> list[WeightedCloud]:
    """load_cloud(path) from the binary companion that save_cloud wrote, with
    np.loadtxt made to fail so that only the companion can supply the rows; then,
    with the companion deleted, from the CSV parse. Both clouds must hold the same
    bits and metadata; returns them in that order."""
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("the CSV was parsed")):
        kept = load_cloud(path)
    rows_path(path).unlink()
    parsed = load_cloud(path)
    assert same_bits(kept.points, parsed.points) and same_bits(kept.weights, parsed.weights)
    assert ((kept.total_mass, kept.source, kept.err_xy, kept.err_t)
            == (parsed.total_mass, parsed.source, parsed.err_xy, parsed.err_t))
    return [kept, parsed]
