"""Scalar reference forms of the group law, the two metrics, the plane distance,
the one-point mass split and the ex2 switch level, which the tests compare the
package's array and closed-form code to."""

from __future__ import annotations

import math

import numpy as np

from heislab.constructions import WeightedCloud
from heislab.hgeom import MetricKind, Point, dist_many, normal_scale, plane_dist_many

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
