"""Metric-generic covering counts, log-log scaling-exponent fits, and the
numerical two-metric comparison.

Covering uses greedy nets in the metric itself rather than axis-aligned boxes:
equal-size boxes are not uniformly comparable to anisotropic balls away from
the t-axis, because left translation shears the vertical coordinate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constructions import ResourceLimitError, WeightedCloud
from .hgeom import MetricKind, beta_minus, beta_plus, dist_pairs, row_dist

_CHUNK = 4096  # covered flags read per step while the cursor seeks the next center
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, slots=True)
class NetCount:
    delta: float
    count: int


@dataclass(slots=True)
class DimensionEstimate:
    slope: float
    intercept: float
    r_squared: float
    counts: list[NetCount]
    metric: MetricKind
    dropped: list[NetCount] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    R: float
    sup_ratio_lower: float   # max of d_E / d_H
    sup_ratio_upper: float   # max of d_H / sqrt(d_E)
    samples: int
    seed: int


def worker_count() -> int:
    env = os.environ.get("HEISLAB_THREADS")
    if env and not (env.strip().isdecimal() and int(env) >= 1):
        raise ValueError(f"HEISLAB_THREADS must be a positive integer, got {env!r}")
    return int(env) if env else os.cpu_count() or 1


def greedy_net(cloud: WeightedCloud, delta: float, metric: MetricKind) -> tuple[NetCount, np.ndarray]:
    """Greedy net of the cloud support at scale delta: returns the count and
    the center indices. In stored order, the first uncovered point becomes a
    center and covers every point within delta.

    Candidates come from (x, y) columns of width w = delta (Euclidean) or
    delta/2 (gauge) sorted by s = t, or for the gauge metric s = t - 2(X y - x Y),
    t seen from the column's corner (X, Y). By left invariance a center's
    candidates in a neighbouring column are one s-interval of half-width delta,
    or at most delta^2 + 4(delta + w)w however wide the cloud; padding makes
    rounding only add candidates, and exact distance decides coverage."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive, got {delta}")
    points, n = cloud.points, len(cloud)
    if n == 0 or not np.isfinite(points).all():
        raise ValueError("the cloud must be non-empty with finite coordinates")
    gauge = metric is MetricKind.HEISENBERG
    w = delta / 2.0 if gauge else delta
    x, y, t = points.T
    # per axis: slabs floor(coord / w), ranked so that indices stay small, and the first and
    # last slab within delta of each, from the points' extents so that rounding hides none
    axes, bound = [], 0.0
    for coord in (x, y):
        srt = np.sort(coord)
        if max(-srt[0], srt[-1]) / w > 2.0**52:
            raise ResourceLimitError(f"lattice column index beyond 2**52 at delta={delta}")
        new = np.flatnonzero(np.diff(np.floor(srt / w)))
        lo, hi = srt[np.r_[0, new + 1]], srt[np.r_[new, n - 1]]
        bound = max(bound, -srt[0], srt[-1])
        reach = delta * (1.0 + 1e-9) + 8.0 * _EPS * bound
        axes.append((lo.searchsorted(coord, "right") - 1, lo,
                     hi.searchsorted(lo - reach), lo.searchsorted(hi + reach, "right") - 1))
    (rx, X, xfirst, xlast), (ry, Y, yfirst, ylast) = axes
    codes, col = np.unique(rx * Y.size + ry, return_inverse=True)
    # neighbour table in CSR form: the columns within reach of each column
    cx, cy = np.divmod(codes, Y.size)
    ix = xfirst[cx, None] + np.arange((xlast - xfirst).max() + 1)
    iy = yfirst[cy, None] + np.arange((ylast - yfirst).max() + 1)
    want = np.where((ix <= xlast[cx, None])[:, :, None] & (iy <= ylast[cy, None])[:, None, :],
                    ix[:, :, None] * Y.size + iy[:, None, :], -1).reshape(codes.size, -1)
    pos = codes.searchsorted(want).clip(max=codes.size - 1)
    hit = codes[pos] == want
    nbrs, ptr = pos[hit], np.r_[0, hit.sum(1).cumsum()]
    s, half, slack = ((t - 2.0 * (X[rx] * y - x * Y[ry]), delta * delta, 4.0 * (delta + w) * w)
                      if gauge else (t, delta, 0.0))
    # s, window centers and distances round by a few ulps of this scale
    scale = max(-t.min(), t.max()) + (4.0 * bound * (bound + w) if gauge else 0.0)
    half += 1e-9 * (half + slack) + 64.0 * _EPS * scale
    smin, span = s.min(), s.max() - s.min()
    base = np.arange(codes.size) * (2.0 * span if span > 0.0 else 1.0)
    key = base[col] + (s - smin)
    del axes, rx, ry, s, srt, want, pos, hit
    order = key.argsort()
    key, X, Y = key[order], X[cx], Y[cy]
    covered, centers, c = np.zeros(n, dtype=bool), [], 0
    while c < n:
        if covered[c]:
            c += int(covered[c:c + _CHUNK].argmin()) or _CHUNK
            continue
        centers.append(c)
        q = points[c]
        nb = nbrs[ptr[col[c]]:ptr[col[c] + 1]]
        off = q[2] - smin
        if gauge:
            # from corner (X', Y') q's key is off + 2(qy u - qx v), (u, v) = q - (X', Y'); a point
            # p's adds tw + 2(b u - a v), |tw| <= delta^2, (a, b) = p - (X', Y') in [0, w]^2
            u, v = q[0] - X[nb], q[1] - Y[nb]
            off = off + 2.0 * (q[1] * u - q[0] * v)
            lo = (off - half + 2.0 * w * (u.clip(max=0.0) - v.clip(min=0.0))).clip(0.0, span)
            hi = (off + half + 2.0 * w * (u.clip(min=0.0) - v.clip(max=0.0))).clip(0.0, span)
        else:
            lo, hi = max(off - half, 0.0), min(off + half, span)
        b = base[nb]
        first, last = key.searchsorted(b + lo).tolist(), key.searchsorted(b + hi, "right").tolist()
        idx = np.concatenate([order[a:e] for a, e in zip(first, last)])
        covered[idx[row_dist(points.take(idx, axis=0), q, metric) <= delta]] = True
        covered[c] = True  # the sweep advances even if rounding ever left c out of its window
    return NetCount(delta=delta, count=len(centers)), np.asarray(centers, dtype=np.int64)


def net_counts(cloud: WeightedCloud, deltas, metric: MetricKind) -> list[NetCount]:
    """One net per delta; deltas must be strictly positive and strictly decreasing."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be strictly positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    workers = min(worker_count(), len(deltas))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda d: greedy_net(cloud, d, metric)[0], deltas))
    return [greedy_net(cloud, d, metric)[0] for d in deltas]


def estimate_dimension(counts: list[NetCount],
                       metric: MetricKind = MetricKind.EUCLIDEAN) -> DimensionEstimate:
    """Least-squares slope of log(count) against log(1/delta). The largest and
    smallest delta are dropped as plateau and saturation guards whenever at
    least five scales are available."""
    if len(counts) < 3:
        raise ValueError(f"need at least 3 scales, got {len(counts)}")
    ordered = sorted(counts, key=lambda c: -c.delta)
    if len(ordered) >= 5:
        dropped, used = [ordered[0], ordered[-1]], ordered[1:-1]
    else:
        dropped, used = [], ordered
    x = np.log(1.0 / np.array([c.delta for c in used]))
    y = np.log(np.array([c.count for c in used], dtype=float))
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    syy = float(((y - ym) ** 2).sum())
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return DimensionEstimate(slope=slope, intercept=intercept, r_squared=r2,
                             counts=used, metric=metric, dropped=dropped)


def delta_ladder(hi: float, lo: float, count: int | None = None) -> list[float]:
    """Log-uniform descending scales from hi to lo: count of them, or by
    default about 8 per decade and at least 3."""
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"a log ladder needs 0 < lo < hi < inf, got lo={lo}, hi={hi}")
    if count is None:
        count = max(3, int(round(8 * math.log10(hi / lo))) + 1)
    return list(np.geomspace(hi, lo, count))


def compare_on_pairs(P, Q) -> tuple[float, float]:
    """Observed sup of d_E/d_H and of d_H/sqrt(d_E) over row-wise pairs."""
    dE = dist_pairs(P, Q, MetricKind.EUCLIDEAN)
    dH = dist_pairs(P, Q, MetricKind.HEISENBERG)
    nz = (dE > 0) & (dH > 0)
    if not nz.any():
        raise ValueError("no distinct pairs supplied")
    return float((dE[nz] / dH[nz]).max()), float((dH[nz] / np.sqrt(dE[nz])).max())


def _ball_samples(rng: np.random.Generator, R: float, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rad = R * rng.random(n) ** (1.0 / 3.0)
    return v * rad[:, None]


def fit_metric_comparison(R: float, samples: int, seed: int) -> ComparisonReport:
    """Draw seeded uniform pairs in the Euclidean R-ball and report the two
    observed comparison ratios."""
    if not R > 0:
        raise ValueError("R must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    P = _ball_samples(rng, R, samples)
    Q = _ball_samples(rng, R, samples)
    lower, upper = compare_on_pairs(P, Q)
    return ComparisonReport(R=R, sup_ratio_lower=lower, sup_ratio_upper=upper,
                            samples=samples, seed=seed)


@dataclass(frozen=True, slots=True)
class InequalityVerdict:
    ok: bool
    lower_margin: float   # dimH - beta_minus(dimE); negative means below the band
    upper_margin: float   # beta_plus(dimE) - dimH; negative means above the band
    beta_lower: float
    beta_upper: float
    tol: float


def check_dimension_inequalities(dimE: float, dimH: float, tol: float) -> InequalityVerdict:
    """Whether the estimated pair sits inside the comparison band
    [beta_minus(dimE), beta_plus(dimE)] up to tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    lo = beta_minus(dimE)
    hi = beta_plus(dimE)
    lower_margin = dimH - lo
    upper_margin = hi - dimH
    ok = (lower_margin >= -tol) and (upper_margin >= -tol)
    return InequalityVerdict(ok=ok, lower_margin=lower_margin, upper_margin=upper_margin,
                             beta_lower=lo, beta_upper=hi, tol=tol)


def estimate_to_dict(est: DimensionEstimate) -> dict:
    return {
        "metric": est.metric.value,
        "slope": est.slope,
        "intercept": est.intercept,
        "r_squared": est.r_squared,
        "scales": [{"delta": c.delta, "count": c.count} for c in est.counts],
        "dropped_scales": [{"delta": c.delta, "count": c.count} for c in est.dropped],
    }


def estimate_from_dict(d: dict) -> DimensionEstimate:
    return DimensionEstimate(
        slope=float(d["slope"]),
        intercept=float(d["intercept"]),
        r_squared=float(d["r_squared"]),
        counts=[NetCount(s["delta"], int(s["count"])) for s in d["scales"]],
        metric=MetricKind(d["metric"]),
        dropped=[NetCount(s["delta"], int(s["count"])) for s in d.get("dropped_scales", [])],
    )
