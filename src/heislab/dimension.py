"""Metric-generic covering counts, log-log scaling-exponent fits, and the
numerical two-metric comparison.

Covering uses greedy nets in the metric itself rather than axis-aligned boxes:
equal-size boxes are not uniformly comparable to anisotropic balls away from
the t-axis, because left translation shears the vertical coordinate.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constructions import MAX_POINTS, ResourceLimitError, WeightedCloud, json_number
from .hgeom import MetricKind, beta_minus, beta_plus, dist_pairs, row_dist

_CHUNK = 4096  # covered flags read per step while the cursor seeks the next center
_MEASURE = 2**15  # rows per candidate part and lattice gather: a coarse net's window is the cloud
_EPS = float(np.finfo(float).eps)
# one greedy-net sweep at a time: a sweep is tens of thousands of short numpy calls that
# hold the GIL, so two of them thrash it, while a lattice build (long sorts that release
# the GIL) overlaps the other worker's sweep; whole sweeps are ordered, so no net changes
_SWEEP = threading.Lock()
MIN_SCALES = 3  # a log-log fit needs this many net counts


def _find_malloc_trim():
    """glibc's malloc_trim, or a no-op where there is no glibc."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_malloc_trim = _find_malloc_trim()


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
    if not env and hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
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
    if n > np.iinfo(np.int32).max:  # every n-length index array below is int32
        raise ResourceLimitError(f"{n} points exceed the 2**31 - 1 rows a net lattice indexes")
    if n == 0 or not np.isfinite(points).all():
        raise ValueError("the cloud must be non-empty with finite coordinates")
    gauge = metric is MetricKind.HEISENBERG
    w = delta / 2.0 if gauge else delta
    x, y, t = points.T
    # per axis: slabs floor(coord / w), ranked so that indices stay small, and the first and
    # last slab within delta of each, from the points' extents so that rounding hides none;
    # n-length temporaries are built in place and dropped after their last use, and both
    # axes' slabs are found before either axis ranks its points
    axes, bound = [], 0.0
    for coord in (x, y):
        srt = np.sort(coord)
        if max(-srt[0], srt[-1]) / w > 2.0**52:
            raise ResourceLimitError(f"lattice column index beyond 2**52 at delta={delta}")
        f = srt / w
        np.floor(f, out=f)
        new = np.flatnonzero(f[1:] != f[:-1])
        del f
        lo, hi = srt[np.r_[0, new + 1]], srt[np.r_[new, n - 1]]
        bound = max(bound, -srt[0], srt[-1])
        del srt
        reach = delta * (1.0 + 1e-9) + 8.0 * _EPS * bound
        axes.append((lo, hi.searchsorted(lo - reach), lo.searchsorted(hi + reach, "right") - 1))
    (X, xfirst, xlast), (Y, yfirst, ylast) = axes
    del axes
    rx = X.searchsorted(x, "right").astype(np.int32)
    rx -= 1
    ry = Y.searchsorted(y, "right").astype(np.int32)
    ry -= 1
    code = np.multiply(rx, Y.size, dtype=np.int64)  # |X| |Y| may pass 2**31
    del rx
    code += ry
    del ry
    codes, rows = np.unique(code, return_counts=True)  # rows: each column's row count
    # the dense rank of each point's column, in the smallest unsigned type that holds it
    col = codes.searchsorted(code).astype(np.min_scalar_type(codes.size - 1))
    del code
    # neighbour table in CSR form: the columns within reach of each column
    cx, cy = np.divmod(codes, Y.size)
    ix = xfirst[cx, None] + np.arange((xlast - xfirst).max() + 1)
    iy = yfirst[cy, None] + np.arange((ylast - yfirst).max() + 1)
    want = np.where((ix <= xlast[cx, None])[:, :, None] & (iy <= ylast[cy, None])[:, None, :],
                    ix[:, :, None] * Y.size + iy[:, None, :], -1).reshape(codes.size, -1)
    pos = codes.searchsorted(want).clip(max=codes.size - 1)
    hit = codes[pos] == want
    nbrs, ptr = pos[hit], np.r_[0, hit.sum(1).cumsum()]
    del want, pos, hit
    X, Y = X[cx], Y[cy]  # each column's corner
    # per-row gathers by column run in blocks, so that none makes an n-length float array
    blocks = [slice(a, a + _MEASURE) for a in range(0, n, _MEASURE)]
    if gauge:  # s = t - 2(X y - x Y), in that order
        s = np.empty(n)
        for sl in blocks:
            np.multiply(X[col[sl]], y[sl], out=s[sl])
            s[sl] -= Y[col[sl]] * x[sl]
        s *= 2.0
        np.subtract(t, s, out=s)
        half, slack = delta * delta, 4.0 * (delta + w) * w
    else:
        s, half, slack = t, delta, 0.0
    # s, window centers and distances round by a few ulps of this scale
    scale = max(-t.min(), t.max()) + (4.0 * bound * (bound + w) if gauge else 0.0)
    half += 1e-9 * (half + slack) + 64.0 * _EPS * scale
    smin, span = s.min(), s.max() - s.min()
    base = np.arange(codes.size) * (2.0 * span if span > 0.0 else 1.0)
    key = np.subtract(s, smin, out=s if gauge else None)  # s's own buffer, never t's
    del s
    for sl in blocks:
        key[sl] += base[col[sl]]
    # each column's keys lie in [base, base + span], below the next column's, so the
    # sorted keys run column by column: col is dropped across the sort and rebuilt from
    # the row counts
    narrow = col.dtype
    del col
    order = key.argsort().astype(np.int32)
    key.sort()
    col = np.empty(n, dtype=narrow)
    col[order] = np.repeat(np.arange(codes.size, dtype=narrow), rows)
    covered, centers, c = np.zeros(n, dtype=bool), [], 0
    with _SWEEP:
        while c < n:
            if covered[c]:
                c += int(covered[c:c + _CHUNK].argmin()) or _CHUNK
                continue
            centers.append(c)
            q = points[c]
            j = int(col[c])  # as a numpy uint8 or uint16, j + 1 could wrap
            nb = nbrs[ptr[j]:ptr[j + 1]]
            off = q[2] - smin
            if gauge:
                # from corner (X', Y') q's key is off + 2(qy u - qx v), (u, v) = q - (X', Y');
                # a point p's adds tw + 2(b u - a v), |tw| <= delta^2, (a, b) = p - (X', Y')
                # in [0, w]^2
                u, v = q[0] - X[nb], q[1] - Y[nb]
                off = off + 2.0 * (q[1] * u - q[0] * v)
                lo = (off - half + 2.0 * w * (u.clip(max=0.0) - v.clip(min=0.0))).clip(0.0, span)
                hi = (off + half + 2.0 * w * (u.clip(min=0.0) - v.clip(max=0.0))).clip(0.0, span)
            else:
                lo, hi = max(off - half, 0.0), min(off + half, span)
            b = base[nb]
            first = key.searchsorted(b + lo).tolist()
            last = key.searchsorted(b + hi, "right").tolist()
            if sum(last) - sum(first) <= _MEASURE:  # every fine-scale center: one part
                parts = [np.concatenate([order[a:e] for a, e in zip(first, last)], dtype=np.intp)]
            else:  # a coarse net's first window is nearly the cloud
                parts = _parts(order, first, last)
            for part in parts:
                part = part[~covered[part]]  # covered rows stay covered: measure only the rest
                covered[part[row_dist(points.take(part, axis=0), q, metric) <= delta]] = True
            covered[c] = True  # the sweep advances even if rounding ever left c out of its window
    return NetCount(delta=delta, count=len(centers)), np.asarray(centers, dtype=np.int64)


def _parts(order, first, last):
    """The rows order[a:e] of the windows (a, e) in first and last, gathered
    in parts of at most _MEASURE rows, as intp (numpy indexes slower by int32)."""
    held, size = [], 0
    for a, e in zip(first, last):
        while a < e:
            take = min(e - a, _MEASURE - size)
            held.append(order[a:a + take])
            size += take
            a += take
            if size == _MEASURE:
                yield np.concatenate(held, dtype=np.intp)
                held, size = [], 0
    if held:
        yield np.concatenate(held, dtype=np.intp)


def net_counts(cloud: WeightedCloud, deltas, metric: MetricKind) -> list[NetCount]:
    """One net per delta; deltas must be strictly positive and strictly decreasing.
    The workers build their lattices in parallel but sweep one net at a time."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be strictly positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    with ThreadPoolExecutor(max_workers=max(1, min(worker_count(), len(deltas)))) as pool:
        counts = list(pool.map(lambda d: greedy_net(cloud, d, metric)[0], deltas))
    # each worker's heap keeps its lattices' freed pages: hand them back once per ladder
    _malloc_trim(0)
    return counts


def estimate_dimension(counts: list[NetCount],
                       metric: MetricKind = MetricKind.EUCLIDEAN) -> DimensionEstimate:
    """Least-squares slope of log(count) against log(1/delta). The largest and
    smallest delta are dropped as plateau and saturation guards whenever at
    least five scales are available."""
    if len(counts) < MIN_SCALES:
        raise ValueError(f"need at least {MIN_SCALES} scales, got {len(counts)}")
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


def local_slopes(counts: list[NetCount]) -> list[float]:
    """log(N_{k+1}/N_k) / log(delta_k/delta_{k+1}) for each pair of neighbouring
    scales, largest delta first: the fitted slope's spread along the ladder."""
    ordered = sorted(counts, key=lambda c: -c.delta)
    return [math.log(b.count / a.count) / math.log(a.delta / b.delta)
            for a, b in zip(ordered, ordered[1:])]


def delta_ladder(hi: float, lo: float, count: int | None = None) -> list[float]:
    """Log-uniform descending scales from hi to lo: count of them, or by
    default about 8 per decade and at least MIN_SCALES."""
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"a log ladder needs 0 < lo < hi < inf, got lo={lo}, hi={hi}")
    if count is None:
        count = max(MIN_SCALES, int(round(8 * math.log10(hi / lo))) + 1)
    if count > MAX_POINTS:
        raise ResourceLimitError(f"a log ladder of {count} values exceeds the {MAX_POINTS} limit")
    return list(np.geomspace(hi, lo, count))


def compare_on_pairs(P, Q) -> tuple[float, float]:
    """Observed sup of d_E/d_H and of d_H/sqrt(d_E) over row-wise pairs."""
    dE = dist_pairs(P, Q, MetricKind.EUCLIDEAN)
    dH = dist_pairs(P, Q, MetricKind.HEISENBERG)
    nz = (dE > 0) & (dH > 0)
    if not nz.any():
        raise ValueError("no distinct pairs supplied")
    return float((dE[nz] / dH[nz]).max()), float((dH[nz] / np.sqrt(dE[nz])).max())


def seeded_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """The counter-based generator of stream `stream` under `seed`, which must
    lie in [0, 2**64): the Philox key is the pair (seed, stream)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def check_samples(samples: int) -> None:
    """A sampler draws at least one and at most MAX_POINTS samples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_POINTS:
        raise ResourceLimitError(f"{samples} samples exceed the {MAX_POINTS} limit")


def check_R(R: float, r: float = 1.0) -> None:
    """A sampler's R must lie in (0, 2^20 r], r its smallest test radius. The twist
    of points about R from the t-axis rounds at about R^2 2^-52, which at R = 2^20 r
    is 2^-12 r^2, and the tests compare it with r^2. fit_metric_comparison has no
    test radius and reads pairs at the unit scale, r = 1."""
    if not 0.0 < R <= 2.0**20 * r:
        raise ValueError(f"R must be finite and positive and at most 2^20 * {r:g} "
                         f"= {2.0**20 * r:g}, got {R}")


def _ball_samples(rng: np.random.Generator, R: float, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rad = R * rng.random(n) ** (1.0 / 3.0)
    return v * rad[:, None]


def fit_metric_comparison(R: float, samples: int, seed: int) -> ComparisonReport:
    """Draw seeded uniform pairs in the Euclidean R-ball and report the two
    observed comparison ratios."""
    check_R(R)
    check_samples(samples)
    rng = seeded_generator(seed)
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
    beta_minus: float
    beta_plus: float
    tol: float


def check_dimension_inequalities(dimE: float, dimH: float, tol: float) -> InequalityVerdict:
    """Whether the estimated pair sits inside the comparison band
    [beta_minus(dimE), beta_plus(dimE)] up to tol."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    lo = beta_minus(dimE)
    hi = beta_plus(dimE)
    lower_margin = dimH - lo
    upper_margin = hi - dimH
    ok = (lower_margin >= -tol) and (upper_margin >= -tol)
    return InequalityVerdict(ok=ok, lower_margin=lower_margin, upper_margin=upper_margin,
                             beta_minus=lo, beta_plus=hi, tol=tol)


def estimate_to_dict(est: DimensionEstimate) -> dict:
    return {
        "metric": est.metric.value,
        "slope": est.slope,
        "intercept": est.intercept,
        "r_squared": est.r_squared,
        "scales": [{"delta": c.delta, "count": c.count} for c in est.counts],
        "dropped_scales": [{"delta": c.delta, "count": c.count} for c in est.dropped],
        "local_slopes": local_slopes(est.counts + est.dropped),
    }


def estimate_from_dict(d: dict) -> DimensionEstimate:
    """Read back an estimate_to_dict record, every number through json_number."""
    def scales(rows) -> list[NetCount]:
        return [NetCount(json_number(s["delta"], "a delta must be a finite number"),
                         json_number(s["count"], "a count must be an integer", integer=True))
                for s in rows]

    fit = [json_number(d[key], f"{key} must be a finite number")
           for key in ("slope", "intercept", "r_squared")]
    return DimensionEstimate(*fit, scales(d["scales"]), MetricKind(d["metric"]),
                             scales(d.get("dropped_scales", [])))
