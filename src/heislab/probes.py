"""Finite-scale density scans: how much cloud mass inside a Euclidean ball
sits outside a neighborhood of the horizontal plane through the base point,
normalized by a power of the radius.

Each probe hard-codes its own denominator convention (r^s, (2r)^s, or 2r) and
records it in the output, since the conventions differ between the scans and
silently mixing them shifts results by powers of two.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .constructions import (
    Example1,
    Example2,
    WeightedCloud,
    build_family,
    cantor_cloud,
    example_cloud,
    hsquare_cloud,
    level_sides,
    product_cloud,
)
from .dimension import _EPS, check_R, check_samples, delta_ladder, seeded_generator
from .hgeom import (
    MetricKind,
    Point,
    dist_many,
    normal_scale,
    plane_dist_many,
    row_dist,
    row_twist,
)

# rows per block of a density scan: a block's distances, masks and row indices
# stay in cache while its radius loop runs
_BLOCK = 2**15


# ---------------------------------------------------------------------------
# neighborhood width rules

# rule: (parameter, range check, what the range needs, rho(value, r))
_RULES = {
    "power_law": ("epsilon", lambda v: 0.0 < v < 1.0, "lie in (0, 1)",
                  lambda epsilon, r: r ** (1.0 + epsilon)),
    "linear": ("delta", lambda v: 0.0 < v < math.inf, "be finite and positive",
               lambda delta, r: delta * r),
    "quadratic": ("M", lambda v: v > 1.0, "be > 1", lambda M, r: M * r * r),
    "fixed": ("fraction", lambda v: v >= 0.0, "be >= 0", lambda fraction, r: fraction * r),
}


@dataclass(frozen=True, slots=True)
class RhoRule:
    """A neighborhood width rho(r): power_law r^(1 + epsilon) shrinks faster than
    the ball, linear delta * r and fixed fraction * r are fractions of it, and
    quadratic M r^2 is comparable to the vertical thickness of anisotropic balls."""

    rule: str
    value: float

    def __post_init__(self):
        name, ok, need, _ = _RULES[self.rule]
        if not ok(self.value):
            raise ValueError(f"{name} must {need}, got {self.value}")

    def rho(self, r: float) -> float:
        return _RULES[self.rule][3](self.value, r)

    def describe(self) -> dict:
        return {"rule": self.rule, _RULES[self.rule][0]: self.value}


@dataclass(slots=True)
class SeriesEntry:
    r: float
    inside: float
    outside: float
    ratio: float
    # sphere-plus-slab band mass over the denominator; error_bound is its maximum
    band: float = 0.0


@dataclass(slots=True)
class PointSeries:
    p: Point
    series: list[SeriesEntry]


@dataclass(slots=True)
class ProbeResult:
    probe: str
    convention: str
    rho_rule: RhoRule
    s: float
    points: list[PointSeries]
    summary: dict
    error_bound: float
    extra: dict = field(default_factory=dict)


def _mass(weights: np.ndarray, parts: list[tuple]) -> float:
    """Weight of the cloud rows that `parts` selects, summed as one array; an
    empty list weighs 0.0. A part is a block's start and the uint16 offsets of its
    selected rows, at least one; each is gathered with np.take straight into one
    buffer, which then holds weights[indices] in cloud order without a
    cloud-sized index array. The offsets lie in their block by construction, and
    "clip" spares the copy of `out` that take's default "raise" mode buffers."""
    buf = np.empty(sum(offsets.size for _, offsets in parts))
    pos = 0
    for start, offsets in parts:
        np.take(weights[start:start + _BLOCK], offsets, out=buf[pos:pos + offsets.size],
                mode="clip")
        pos += offsets.size
    return float(buf.sum())


def _denominator(kind: str, r: float, s: float) -> float:
    """The convention's denominator (c r)^s at r, which must come out finite and
    > 0; it is NaN for a non-finite s, where 1.0 ** nan == 1.0 ** inf == 1.0. "2r"
    is (2r)^s at the s = 1 that ex1 and ex2 pass, and since 1.0 * r == r and
    (2.0 * r) ** 1.0 == 2.0 * r, every bit is as spelled."""
    c = {"r^s": 1.0, "(2r)^s": 2.0, "2r": 2.0}[kind]
    try:
        denom = (c * r) ** s if math.isfinite(s) else math.nan
    except OverflowError:
        denom = math.inf
    if not 0.0 < denom < math.inf:
        raise ValueError(f"denominator {kind} at r={r}, s={s} is {denom}, "
                         "not a finite positive number")
    return denom


def _checked_radii(radii) -> list[float]:
    """The radii as floats in descending order, each finite and > 0."""
    radii = sorted((float(r) for r in radii), reverse=True)
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ValueError(f"radii must be a nonempty list of finite positive numbers, got {radii}")
    return radii


def _block_rows(points: np.ndarray, start: int) -> np.ndarray:
    """The _BLOCK <= 2^16 rows at `start` as a column-major copy, so that the
    kernels' elementwise passes run on unit-stride columns."""
    return np.asfortranarray(points[start:start + _BLOCK])


_TOP = 0x7FF0_0000_0000_0000  # the rank of +inf; -inf ranks -_TOP


def _rank(x: float) -> int:
    """x's rank among the doubles; both zeros rank 0, a NaN past its sign's infinity."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _double(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -k - 2**63))[0]


def _last(holds, x: float) -> float:
    """The largest double v with holds(v), or NaN if none, so that v <= _last(holds, x)
    is holds(v) for every double v; holds must fail at NaN and, where it holds, hold
    at every smaller double. Gallops from the guess x (a NaN from its infinity),
    then bisects the ranks: at most 128 calls of holds."""
    k = min(max(_rank(x), -_TOP), _TOP)
    # holds at rank lo and not at hi; -_TOP - 1 and _TOP + 1 lie past the infinities
    lo, hi = (k, _TOP + 1) if holds(_double(k)) else (-_TOP - 1, k)
    step = 1
    while hi - lo > 1:
        # gallop while an end lies past an infinity, then bisect
        mid = (min(lo + step, _TOP) if hi > _TOP else max(hi - step, -_TOP) if lo < -_TOP
               else (lo + hi) // 2)
        step *= 2
        lo, hi = (mid, hi) if holds(_double(mid)) else (lo, mid)
    return _double(lo) if lo >= -_TOP else math.nan


def _first(holds, x: float) -> float:
    """The smallest double v with holds(v), or NaN: _last through negation."""
    return -_last(lambda v: holds(-v), -x)


def _band(c: float, e: float) -> tuple[float, float]:
    """(lo, hi) such that lo <= v <= hi is abs(v - c) <= e for every double v, with
    c in [0, inf]. At c = inf, v - c is NaN at v = inf, which hi excludes; lo's
    predicate holds there, as it must to hold upwards, so it is not v - c >= -e."""
    return _first(lambda v: not v - c < -e, c - e), _last(lambda v: v - c <= e, c + e)


def _radius_masks(rows: np.ndarray, p: Point, cuts: list[tuple], idx: np.ndarray | None = None):
    """One block's radius loop at base point p, on scan_density's thresholds
    `cuts`, one tuple per radius in descending order. Per radius, while the
    block's working set holds rows, yields the radius's index, the working set's
    row offsets (the rows of `idx` it keeps, None without `idx`), its ball and
    plane-neighborhood masks, and its sphere and slab error band masks (none
    when both errors are 0)."""
    dE = dist_many(rows, p, MetricKind.EUCLIDEAN)
    pd = plane_dist_many(rows, p)
    for i, (r, rho, last, band) in enumerate(cuts):
        keep = dE <= last
        if not keep.all():
            dE, pd = dE[keep], pd[keep]
            if not dE.size:
                return
            if idx is not None:
                idx = idx[keep]
        bands = []
        if band:
            # sphere-boundary points already clear of the slab, and slab-boundary
            # points already inside the ball
            s_lo, s_hi, clear, p_lo, p_hi, r_hi = band
            bands = [(dE >= s_lo) & (dE <= s_hi) & (pd > clear),
                     (pd >= p_lo) & (pd <= p_hi) & (dE <= r_hi)]
        yield i, idx, dE <= r, pd <= rho, bands


def _block_runs(points: np.ndarray, starts: np.ndarray, reached: np.ndarray, base_points,
                cuts: list[list[tuple]], offsets: bool = False):
    """Every radius loop of a scan, blocks outer: each block at `starts` that
    some base point reaches (`reached`, bases x blocks) is copied once, and each
    base point that reaches it runs _radius_masks on the copy with its row of
    `cuts`, and with its uint16 row offsets if `offsets`. Yields the base index,
    the block start and that tuple."""
    for b in np.flatnonzero(reached.any(axis=0)):
        rows = _block_rows(points, starts[b])
        idx = np.arange(len(rows), dtype=np.uint16) if offsets else None
        for j in np.flatnonzero(reached[:, b]):
            for run in _radius_masks(rows, base_points[j], cuts[j], idx):
                yield j, starts[b], run


def _counted_masses(runs, bases: int, radii: int, w: float) -> list[list[tuple]]:
    """Per base point and radius, the masses (near, clear, sphere, slab) of a
    cloud whose every weight is w: the rows of each mask in `runs` are counted,
    the clear count is the ball's less the near one, and a count k weighs k * w."""
    tally = [[[0, 0, 0, 0] for _ in range(radii)] for _ in range(bases)]
    for j, _, (i, _, ball, close, bands) in runs:
        counts = tally[j][i]
        near = np.count_nonzero(ball & close)
        counts[0] += near
        counts[1] += np.count_nonzero(ball) - near
        for k, band in enumerate(bands, 2):
            counts[k] += np.count_nonzero(band)
    return [[tuple(float(k) * w for k in counts) for counts in row] for row in tally]


def _gathered_masses(runs, weights: np.ndarray, radii: int) -> list[tuple]:
    """Per radius, the masses (near, clear, sphere, slab) of one base point's
    `runs`, which carry offsets. A mask's rows are kept as a (block start, uint16
    offsets) pair per block where it selects any (2 bytes a row) and summed by
    _mass, smallest radius first; each radius's pairs are dropped once summed,
    so the largest gather runs with little else alive."""
    picks = [([], [], [], []) for _ in range(radii)]
    for _, start, (i, idx, ball, close, bands) in runs:
        for parts, mask in zip(picks[i], (ball & close, ball & ~close, *bands)):
            if (offsets := idx[mask]).size:
                parts.append((start, offsets))
    masses = [()] * radii
    for i in reversed(range(radii)):
        masses[i] = tuple(_mass(weights, parts) for parts in picks[i])
        picks[i] = ()
    return masses


def scan_density(cloud: WeightedCloud, base_points, radii, rho_rule: RhoRule,
                 s: float, convention: str, probe: str,
                 extra: dict | None = None) -> ProbeResult:
    """Evaluate the density ratio on a grid of radii at each base point.

    The cloud is read in blocks of _BLOCK rows, each copied column-major. A
    block whose bounding box lies farther than the largest radius (plus the
    placement error and a rounding pad) from a base point is skipped unread for
    that base point.

    One traversal, _block_runs, goes blocks outer: each block that the given
    base points reach is copied once, and each of them that reaches it runs
    its whole radius loop on that copy while the block's distances and masks
    stay in cache. When every weight is one power of two (see below), one
    traversal takes every base point and counts rows. Otherwise each base
    point takes a traversal of its own and sums its selections, so that only
    one base point's selections are alive at a time.

    Every mask compares dE or pd with thresholds made per radius and base
    point before any block is read: rounding is monotone and abs is exact, so
    each float expression a mask stands for, such as fl(|pd - rho|) <= e_plane,
    holds on an interval of doubles, and comparing with its end doubles (found
    by _last and _first) selects the same rows. Within a block the radii go in
    descending order, and the block's working set of rows shrinks to the ball
    as r descends: before radius r it keeps the rows with fl(dE - r) <= e_ball
    or dE <= fl(r + e_ball), the only rows that a mask at r or, by monotone
    rounding, at a smaller radius can select. So the working sets are nested
    and never lose a row a later radius needs; an empty one ends the block.

    A gathered mask records the rows it selects as uint16 offsets in its
    block, and its sums run smallest radius first, dropping each radius's
    offsets once summed. The distance kernels are elementwise, so a block's
    values are bit-for-bit those of a whole-cloud pass; and the rows of each
    sum, gathered block after block, are the weights that a mask on the whole
    cloud selects, in the same cloud order. So every sum adds the same numbers
    in the same order as on the whole cloud, and the results are bit-identical.
    When every weight is one power of two w, a mask records only its row count
    k (the clear count is the ball's less the near one), and its mass is k * w:
    every partial sum of k copies of w is exact (k < 2^53), so that too is the
    whole-cloud sum. An entry whose ratio or band over the denominator is not
    finite (a subnormal radius) is refused.
    """
    radii = _checked_radii(radii)
    denoms = [_denominator(convention, r, s) for r in radii]
    rhos = [rho_rule.rho(r) for r in radii]
    base_points = list(base_points)
    if not base_points:
        raise ValueError("the density scan needs at least one base point")
    e_ball = cloud.placement_error
    points, weights = cloud.points, cloud.weights
    w = float(weights[0]) if len(weights) else 0.0
    count = math.frexp(w)[0] == 0.5 and bool((weights == w).all())
    starts = np.arange(0, len(cloud), _BLOCK)
    box_lo, box_hi = np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)
    # A block's box distance takes dist_many's float steps on gaps no larger than
    # any row's, so it never exceeds a row's dE. Every row a mask selects has
    # dE <= fl(r_max + e_ball) or fl(dE - r_max) <= e_ball; the relative pad covers
    # the rounding of the latter, and the absolute one, as in greedy_net's reach,
    # a gap rounded at the scale of the coordinates.
    bound = max(np.abs(box_lo).max(initial=0.0), np.abs(box_hi).max(initial=0.0))
    reach = (radii[0] + e_ball) * (1.0 + 1e-9) + 8.0 * _EPS * bound
    # per radius: the keep threshold, the sphere band's ends and fl(r + e_ball)
    balls = [(_last(lambda v: v - r <= e_ball or v <= r + e_ball, r + e_ball),
              *_band(r, e_ball), r + e_ball) for r in radii]
    reached, cuts = [], []
    for p in base_points:
        q = p.as_array()
        gap = np.maximum(np.maximum(box_lo - q, q - box_hi), 0.0)
        reached.append(row_dist(gap, np.zeros(3), MetricKind.EUCLIDEAN) <= reach)
        # plane distance is insensitive to horizontal placement except through
        # the 2*y0 slope term, so the plane band uses the anisotropic bound
        e_plane = float((2.0 * abs(p.y) * cloud.err_xy + cloud.err_t) / normal_scale(p.x, p.y))
        cuts.append([(r, rho, keep, (s_lo, s_hi, rho - e_plane, *_band(rho, e_plane), r_hi)
                      if e_ball > 0.0 or e_plane > 0.0 else None)
                     for r, rho, (keep, s_lo, s_hi, r_hi) in zip(radii, rhos, balls)])
    reached = np.array(reached)
    if count:
        masses = _counted_masses(_block_runs(points, starts, reached, base_points, cuts),
                                 len(base_points), len(radii), w)
    else:
        # one base point's offsets at a time, made as the loop below reaches it
        masses = (_gathered_masses(_block_runs(points, starts, reached[j:j + 1], [p], cuts[j:j + 1],
                                               offsets=True), weights, len(radii))
                  for j, p in enumerate(base_points))
    point_series: list[PointSeries] = []
    for p, by_r in zip(base_points, masses):
        # sphere + slab: mass whose classification flip could change the outside term
        series = [SeriesEntry(r=r, inside=near, outside=clear, ratio=clear / denom,
                              band=(sphere + slab) / denom)
                  for r, denom, (near, clear, sphere, slab) in zip(radii, denoms, by_r)]
        # smallest radius first, the one nearest the subnormal edge
        for e, denom in zip(series[::-1], denoms[::-1]):
            if not (math.isfinite(e.ratio) and math.isfinite(e.band)):
                raise ValueError(f"the density ratio or its error band at r={e.r} is not "
                                 f"finite over the denominator {convention} = {denom}")
        point_series.append(PointSeries(p=p, series=series))
    # min and max return the first extreme entry in scan order
    entries = [e for ps in point_series for e in ps.series]
    lo = min(entries, key=lambda e: e.ratio)
    hi = max(entries, key=lambda e: e.ratio)
    summary = {"min_ratio": lo.ratio, "max_ratio": hi.ratio, "argmin_r": lo.r, "argmax_r": hi.r}
    return ProbeResult(probe=probe, convention=convention, rho_rule=rho_rule, s=s,
                       points=point_series, summary=summary,
                       error_bound=max(e.band for e in entries), extra=extra or {})


def thm1_scan(cloud: WeightedCloud, base_points, epsilon: float, radii,
              s: float = 1.0) -> ProbeResult:
    """Shrinking-neighborhood scan, rho = r^(1+epsilon), denominator r^s.
    The quantity of interest is the minimum over the radius grid."""
    return scan_density(cloud, base_points, radii, RhoRule("power_law", epsilon), s, "r^s",
                        probe="thm1")


def thm2_scan(cloud: WeightedCloud, base_points, delta: float, radii,
              s: float) -> ProbeResult:
    """Linear-neighborhood scan, rho = delta * r, denominator (2r)^s.
    The quantity of interest is the maximum over the radius grid."""
    return scan_density(cloud, base_points, radii, RhoRule("linear", delta), s, "(2r)^s",
                        probe="thm2")


# ---------------------------------------------------------------------------
# base-point panels

def _strided(n: int, count: int) -> np.ndarray:
    """At most count distinct indices, evenly strided through range(n)."""
    return np.unique(np.linspace(0, n - 1, min(count, n)).round().astype(int))


def panel_from_rects(family, count: int, x_max: float | None = None) -> list[Point]:
    """Deterministic panel of rectangle centers, evenly strided through the
    family, optionally keeping only centers with x <= x_max."""
    a, b, c, d = family.rects.T
    x, t = 0.5 * (a + b), 0.5 * (c + d)
    if x_max is not None:
        x, t = x[x <= x_max], t[x <= x_max]
    if not x.size:
        raise ValueError("no admissible base points")
    return [Point(float(x[i]), 0.0, float(t[i])) for i in _strided(x.size, count)]


def panel_from_cloud(cloud: WeightedCloud, count: int) -> list[Point]:
    return [Point.from_array(cloud.points[i]) for i in _strided(len(cloud), count)]


# ---------------------------------------------------------------------------
# construction-specific probes

# Largest base-point |x| for which a sibling rectangle at vertical offset v_k
# clears a plane neighborhood of width (r/8) * sqrt(1 + 4 x^2): needs
# sqrt(1 + 4 x^2) < 2, i.e. x < sqrt(3)/2; 0.75 leaves margin.
EX1_PANEL_X_MAX = 0.75


def ex1_scan(cloud: WeightedCloud, h_by_level: dict[int, float], ks,
             base_points) -> ProbeResult:
    """Alternating-family probe at the level-tied radii r_k = 4 h_{k+1} with
    rho = r/8 and denominator 2r; at these radii the ball always captures a
    sibling rectangle clear of the plane neighborhood."""
    radii, by_r = [], {}
    for k in ks:
        if k + 1 not in h_by_level:
            raise ValueError(f"no side length known for level {k + 1}")
        r = 4.0 * h_by_level[k + 1]
        radii.append(r)
        by_r[r] = k
    if not radii:
        raise ValueError("no admissible k: the ex1 probe needs level >= 2")
    return scan_density(cloud, base_points, radii, RhoRule("fixed", 1.0 / 8.0), 1.0, "2r",
                        probe="ex1", extra={"k_by_radius": by_r})


def ex1_probe(level: int, samples_per_rect: int = 4, base_count: int = 12,
              cloud: WeightedCloud | None = None, base_points=None) -> ProbeResult:
    """Probe the doubly exponential family at `level` at every admissible
    k < level, on `cloud` or else on a cloud built from the family. Base points
    default to deepest-level rectangle centers with x <= EX1_PANEL_X_MAX."""
    params = Example1()
    family = build_family(params, level)
    if cloud is None:
        cloud = example_cloud(params, level, samples_per_rect)
    h_by_level = {k: level_sides(params, k)[0] for k in range(level + 1)}
    if base_points is None:
        base_points = panel_from_rects(family, base_count, x_max=EX1_PANEL_X_MAX)
    return ex1_scan(cloud, h_by_level, range(1, level), base_points)


def ex2_window_level(r: float) -> int:
    """The unique k with 2^(1-k) <= r < 2^(2-k), read off the exponent of r."""
    return 2 - math.frexp(r)[1]


def ex2_windows(M: float, level: int) -> range:
    """Window levels k at which a level-`level` ex2 cloud can be probed: 2^k > 68M
    (past the switch level, exactly, as doubling is exact) and k + 1 <= level."""
    k0 = Example2(M).switch_level() + 1
    if level <= k0:
        raise ValueError(f"level {level} has no valid probing window: need a level k with "
                         f"2^k > 68M (k >= {k0}) and its children built (level >= {k0 + 1})")
    return range(k0, level)


def ex2_default_radii(M: float, level: int) -> list[float]:
    """Four radii in the lower part [2^(1-k), 1.3 * 2^(1-k)] of each valid window;
    there the sibling rectangle clears the quadratic neighborhood for every
    base point, including the plane-distance normalization up to sqrt(5)."""
    out = []
    for k in ex2_windows(M, level):
        out.extend(np.geomspace(2.0 ** (1 - k), 1.3 * 2.0 ** (1 - k), 4))
    return sorted(out, reverse=True)


def ex2_scan(cloud: WeightedCloud, M: float, level: int, radii, base_points) -> ProbeResult:
    """Quadratic-neighborhood probe, rho = M r^2, denominator 2r; every radius
    must lie in a window 2^(1-k) <= r < 2^(2-k) with k in ex2_windows(M, level)."""
    rule = RhoRule("quadratic", M)  # rejects a bad M before any window check
    windows = ex2_windows(M, level)
    radii = _checked_radii(radii)  # ex2_window_level needs finite radii > 0
    for r in radii:
        k = ex2_window_level(r)
        if k not in windows:
            raise ValueError(f"radius {r} falls in window [2^{1 - k}, 2^{2 - k}) for k={k}; "
                             f"validity needs 2^k > 68M (k >= {windows.start}) and "
                             f"k+1 <= level = {level}")
    return scan_density(cloud, base_points, radii, rule, 1.0, "2r", probe="ex2",
                        extra={"window_levels": sorted({ex2_window_level(r) for r in radii})})


def ex2_probe(M: float, level: int, radii=None, samples_per_rect: int = 4,
              base_count: int = 12, cloud: WeightedCloud | None = None,
              base_points=None) -> ProbeResult:
    """Probe the flat-rectangle family inside the valid radius windows, on `cloud`
    or else on a cloud built from the family, by default at its rectangle centers."""
    ex2_windows(M, level)  # refuse a level without a window before building it
    family = build_family(Example2(M), level)
    if cloud is None:
        cloud = example_cloud(Example2(M), level, samples_per_rect)
    if radii is None:
        radii = ex2_default_radii(M, level)
    if base_points is None:
        base_points = panel_from_rects(family, base_count)
    return ex2_scan(cloud, M, level, radii, base_points)


def _annulus_min_ratio(t_values: np.ndarray, weights: np.ndarray, centers: np.ndarray,
                       radii, c0: float, d: float) -> float:
    worst = math.inf
    for tc in centers:
        delta_t = np.abs(t_values - tc)
        for r in radii:
            m = float(weights[(delta_t >= c0 * r) & (delta_t <= r / 4.0)].sum())
            worst = min(worst, m / r**d)
    return worst


def estimate_annulus_constants(cantor: WeightedCloud, radii, d: float) -> tuple[float, float]:
    """Largest c0 from the grid {2^-j / 4 : j = 0..10} such that the annulus
    c0*r <= |t'' - t'| <= r/4 carries mass at least c_d * r^d for every radius
    and for 24 centers strided through the cloud, together with that observed
    c_d. Returns (0, 0) when no candidate works."""
    radii = [r for r in radii if 0.0 < r < 1.0]
    if not radii:
        raise ValueError("annulus estimation needs radii inside (0, 1)")
    t_values = cantor.points[:, 2]
    centers = t_values[_strided(len(t_values), 24)]
    for c0 in (0.25 * 2.0**-j for j in range(11)):
        cd = _annulus_min_ratio(t_values, cantor.weights, centers, radii, c0, d)
        if cd > 0.0:
            return c0, cd
    return 0.0, 0.0


def ex3_probe(d: float, qh_depth: int, cantor_depth: int, radii=None,
              base_count: int = 12, fs_cloud: WeightedCloud | None = None,
              cantor_cloud_in: WeightedCloud | None = None) -> ProbeResult:
    """Vertical-product probe: estimate the annulus constants (c0, c_d) on the
    Cantor cloud, then scan the product set with rho = (c0/6) * r and
    denominator r^s at s = 2 + d. The radii default to 17 log-spaced ones
    from 5 down to 0.05. When no c0 fits the radii, the scan runs at c0 = 0
    and its status reads "degenerate"."""
    if not (0.0 < d < 1.0):
        raise ValueError(f"d must lie in (0, 1), got {d}")
    radii = _checked_radii(delta_ladder(5.0, 0.05, 17) if radii is None else radii)
    cantor = cantor_cloud_in if cantor_cloud_in is not None else cantor_cloud(d, cantor_depth)
    fs = fs_cloud if fs_cloud is not None else product_cloud(hsquare_cloud(qh_depth), cantor)
    c0, cd = estimate_annulus_constants(cantor, radii, d)
    bases = panel_from_cloud(fs, base_count)
    return scan_density(fs, bases, radii, RhoRule("fixed", c0 / 6.0), 2.0 + d, "r^s", probe="ex3",
                        extra={"c0": c0, "c_d": cd, "status": "ok" if c0 > 0.0 else "degenerate"})


# ---------------------------------------------------------------------------
# ball sandwich sampler

@dataclass(slots=True)
class SandwichReport:
    samples: int
    inner_violations: int
    outer_violations: int
    R: float
    seed: int
    r_values: tuple[float, ...] = ()
    inner_hits: int = 0
    outer_hits: int = 0
    outer_plane_violations: int = 0
    outer_ball_violations: int = 0


def sandwich_sample(R: float, r_values, samples: int, seed: int) -> SandwichReport:
    """Sample the two-sided comparison between anisotropic balls and plane-slab
    lens sets. Per trial, around a random base point p with x0^2 + y0^2 <= R^2:

    * an inner candidate concentrated near the lens
      V(p)(r^2 / sqrt(2(1+4R^2))) intersected with B_E(p, r/2); membership there
      must imply membership in B_H(p, r);
    * an outer candidate drawn to cover B_H(p, r); a member of B_H(p, r) is
      checked against V(p)(r^2) (the plane half, which holds) and against
      B_E(p, r) at the literal radius r (the Euclidean half, a defect witness
      expected to be nonzero off the t-axis: the true Euclidean radius is
      c_R * r with the comparison constant c_R = 3(1+R)).

    Violation counts for each direction are returned, with the outer count also
    split into its plane and Euclidean-ball components.
    """
    r_values = tuple(float(r) for r in r_values)
    if not r_values or any(not (0.0 < r <= 1.0) for r in r_values):
        raise ValueError("each r must lie in (0, 1]")
    check_R(R, min(r_values))
    check_samples(samples)
    E, H = MetricKind.EUCLIDEAN, MetricKind.HEISENBERG
    inner_scale = 1.0 / math.sqrt(2.0 * (1.0 + 4.0 * R * R))
    per = [samples // len(r_values)] * len(r_values)
    for i in range(samples - sum(per)):
        per[i] += 1
    rep = SandwichReport(samples=samples, inner_violations=0, outer_violations=0,
                         R=R, seed=seed, r_values=r_values)
    for stream, (r, n) in enumerate(zip(r_values, per)):
        rng = seeded_generator(seed, stream)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        rad = R * np.sqrt(rng.random(n))
        px, py = rad * np.cos(theta), rad * np.sin(theta)
        pt = rng.uniform(-1.0, 1.0, n)
        P = np.column_stack([px, py, pt])
        nscale = normal_scale(px, py)

        # inner candidates: horizontal offset within r/2, vertical offset near the plane
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        a = (r / 2.0) * np.sqrt(rng.random(n))
        ax, ay = a * np.cos(phi), a * np.sin(phi)
        nu = rng.uniform(-r * r, r * r, n)
        Q = np.column_stack([px + ax, py + ay, pt + 2.0 * (px * ay - py * ax) + nu])
        pdist = np.abs(row_twist(P, Q)) / nscale
        in_inner = (row_dist(Q, P, E) <= r / 2.0) & (pdist <= r * r * inner_scale)
        rep.inner_hits += int(in_inner.sum())
        rep.inner_violations += int((in_inner & (row_dist(Q, P, H) > r)).sum())

        # outer candidates: p * (disc of radius r, vertical within r^2), covers B_H(p, r)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        a = r * np.sqrt(rng.random(n))
        ux, uy = a * np.cos(phi), a * np.sin(phi)
        tau = rng.uniform(-r * r, r * r, n)
        Q = np.column_stack([px + ux, py + uy, pt + tau + 2.0 * (px * uy - ux * py)])
        in_ball = row_dist(Q, P, H) <= r
        plane_bad = in_ball & (np.abs(row_twist(P, Q)) / nscale > r * r)
        ball_bad = in_ball & (row_dist(Q, P, E) > r)
        rep.outer_hits += int(in_ball.sum())
        rep.outer_plane_violations += int(plane_bad.sum())
        rep.outer_ball_violations += int(ball_bad.sum())
        rep.outer_violations += int((plane_bad | ball_bad).sum())
    return rep


# ---------------------------------------------------------------------------
# serialization

def probe_result_to_dict(res: ProbeResult) -> dict:
    return {
        "probe": res.probe,
        "convention": res.convention,
        "rho_rule": res.rho_rule.describe(),
        "s": res.s,
        "points": [
            {
                "p": [ps.p.x, ps.p.y, ps.p.t],
                "series": [
                    {"r": e.r, "inside": e.inside, "outside": e.outside, "ratio": e.ratio}
                    for e in ps.series
                ],
            }
            for ps in res.points
        ],
        "summary": res.summary,
        "error_bound": res.error_bound,
        # no probe draws random numbers; the key stays because digests pin it
        "seed": 0,
        **({"extra": res.extra} if res.extra else {}),
    }


def sandwich_report_to_dict(rep: SandwichReport) -> dict:
    return asdict(rep)
