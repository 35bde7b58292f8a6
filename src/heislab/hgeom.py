"""Heisenberg group arithmetic on R^3 and the two metrics used everywhere else.

Points are triples (x, y, t). The group product twists the vertical
coordinate by twice the signed area of the horizontal parallelogram:

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + 2(x y' - x' y))

and the homogeneous metric is the fourth-root gauge

    d_H(p, q)^4 = ((x - x')^2 + (y - y')^2)^2 + (t - t' - 2(x' y - x y'))^2

with p = (x, y, t) unprimed and q primed.  With this pairing d_H is exactly
the gauge norm of q^{-1} * p, so left invariance and scaling under the
anisotropic dilation (x, y, t) -> (lx, ly, l^2 t) hold to machine precision.

The horizontal plane through p = (x0, y0, t0) is the affine plane

    t0 - t - 2(x y0 - y x0) = 0

whose Euclidean point-plane distance carries the normalization
1 / sqrt(1 + 4(x0^2 + y0^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MetricKind(Enum):
    EUCLIDEAN = "euclidean"
    HEISENBERG = "heisenberg"


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the group, coordinates (x, y, t). Coordinates must be finite."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)):
            raise ValueError(f"non-finite point coordinates: ({self.x}, {self.y}, {self.t})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t], dtype=float)

    @staticmethod
    def from_array(a) -> "Point":
        return Point(float(a[0]), float(a[1]), float(a[2]))


def beta_minus(s: float) -> float:
    """Lower dimension-comparison bound max{s, 2s - 2}."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"exponent must be finite and >= 0, got {s}")
    return max(s, 2.0 * s - 2.0)


def beta_plus(s: float) -> float:
    """Upper dimension-comparison bound min{2s, s + 1}."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"exponent must be finite and >= 0, got {s}")
    return min(2.0 * s, s + 1.0)


# ---------------------------------------------------------------------------
# vectorized forms; these are the single source of the same formulas for the
# array-heavy modules (covering counts, density probes)

def as_points_array(points) -> np.ndarray:
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of points, got shape {a.shape}")
    return a


def row_twist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """t - t' - 2(x'y - xy') for each row p = (x, y, t) of P against q = (x', y', t'):
    the one point Q (shape (3,)) or the matching row of Q (shape (n, 3)). It is the
    vertical coordinate of q^{-1} * p and, up to sign, the residual of p against the
    horizontal plane through q."""
    x, y, t = P[:, 0], P[:, 1], P[:, 2]
    qx, qy, qt = Q[..., 0], Q[..., 1], Q[..., 2]
    return t - qt - 2.0 * (qx * y - x * qy)


def row_dist(P: np.ndarray, Q: np.ndarray, metric: MetricKind) -> np.ndarray:
    """Distances from each row of P to Q, one point or the matching rows (as row_twist)."""
    x, y, t = P[:, 0], P[:, 1], P[:, 2]
    qx, qy, qt = Q[..., 0], Q[..., 1], Q[..., 2]
    dx = x - qx
    dy = y - qy
    if metric is MetricKind.EUCLIDEAN:
        dt = t - qt
        return np.sqrt(dx * dx + dy * dy + dt * dt)
    horiz = dx * dx + dy * dy
    tw = row_twist(P, Q)
    return (horiz * horiz + tw * tw) ** 0.25


def dist_many(points, p: Point, metric: MetricKind) -> np.ndarray:
    """Distances from each row of `points` to the single point p."""
    return row_dist(as_points_array(points), p.as_array(), metric)


def dist_pairs(P, Q, metric: MetricKind) -> np.ndarray:
    """Row-wise distances between two (n, 3) arrays."""
    return row_dist(as_points_array(P), as_points_array(Q), metric)


def normal_scale(x0, y0):
    """sqrt(1 + 4(x0^2 + y0^2)), the norm of the normal of the horizontal plane
    through a point (x0, y0, t0); floats or arrays of them."""
    return np.sqrt(1.0 + 4.0 * (x0 * x0 + y0 * y0))


def plane_dist_many(points, p: Point) -> np.ndarray:
    """Euclidean distances from each row of `points` to the horizontal plane through p."""
    return np.abs(row_twist(as_points_array(points), p.as_array())) / normal_scale(p.x, p.y)


def group_mul_many(p: Point, points) -> np.ndarray:
    """Left translation p * q for each row q of `points`."""
    a = as_points_array(points)
    out = np.empty_like(a)
    out[:, 0] = p.x + a[:, 0]
    out[:, 1] = p.y + a[:, 1]
    out[:, 2] = p.t + a[:, 2] + 2.0 * (p.x * a[:, 1] - a[:, 0] * p.y)
    return out


def dilate_many(points, lam: float) -> np.ndarray:
    if not lam > 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    a = as_points_array(points)
    out = np.empty_like(a)
    out[:, 0] = lam * a[:, 0]
    out[:, 1] = lam * a[:, 1]
    out[:, 2] = (lam * lam) * a[:, 2]
    return out
