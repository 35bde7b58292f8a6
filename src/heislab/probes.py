"""Finite-scale density scans: how much cloud mass inside a Euclidean ball
sits outside a neighborhood of the horizontal plane through the base point,
normalized by a power of the radius.

Each probe hard-codes its own denominator convention (r^s, (2r)^s, or 2r) and
records it in the output, since the conventions differ between the scans and
silently mixing them shifts results by powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import (
    Example1,
    Example2,
    WeightedCloud,
    build_family,
    cantor_cloud,
    family_cloud,
    hsquare_cloud,
    level_sides,
    product_cloud,
)
from .hgeom import (
    HorizontalPlane,
    MetricKind,
    Point,
    dist_many,
    plane_dist_many,
    row_dist,
    row_twist,
)


# ---------------------------------------------------------------------------
# neighborhood width rules

@dataclass(frozen=True, slots=True)
class PowerLaw:
    """rho = r^(1 + epsilon); shrinks faster than the ball."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    def rho(self, r: float) -> float:
        return r ** (1.0 + self.epsilon)

    def describe(self) -> dict:
        return {"rule": "power_law", "epsilon": self.epsilon}


@dataclass(frozen=True, slots=True)
class Linear:
    """rho = delta * r; a fixed fraction of the ball."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    def rho(self, r: float) -> float:
        return self.delta * r

    def describe(self) -> dict:
        return {"rule": "linear", "delta": self.delta}


@dataclass(frozen=True, slots=True)
class Quadratic:
    """rho = M * r^2; comparable to the vertical thickness of anisotropic balls."""

    M: float

    def __post_init__(self):
        if not self.M > 1.0:
            raise ValueError(f"M must be > 1, got {self.M}")

    def rho(self, r: float) -> float:
        return self.M * r * r

    def describe(self) -> dict:
        return {"rule": "quadratic", "M": self.M}


@dataclass(frozen=True, slots=True)
class Fixed:
    """rho = fraction * r."""

    fraction: float

    def __post_init__(self):
        if not self.fraction >= 0.0:
            raise ValueError(f"fraction must be >= 0, got {self.fraction}")

    def rho(self, r: float) -> float:
        return self.fraction * r

    def describe(self) -> dict:
        return {"rule": "fixed", "fraction": self.fraction}


RhoRule = PowerLaw | Linear | Quadratic | Fixed


@dataclass(slots=True)
class SeriesEntry:
    r: float
    inside: float
    outside: float
    ratio: float


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
    pd = plane_dist_many(cloud.points, HorizontalPlane(p))
    return _split(cloud.weights, dE <= r, pd <= rho)


def density_ratio(cloud: WeightedCloud, p: Point, r: float, rho: float, s: float) -> float:
    """Off-plane mass in the r-ball over (2r)^s."""
    _, outside = mass_split(cloud, p, r, rho)
    return outside / (2.0 * r) ** s


def _denominator(kind: str, r: float, s: float) -> float:
    if kind == "r^s":
        return r**s
    if kind == "(2r)^s":
        return (2.0 * r) ** s
    if kind == "2r":
        return 2.0 * r
    raise ValueError(f"unknown denominator convention {kind!r}")


def scan_density(cloud: WeightedCloud, base_points, radii, rho_rule: RhoRule,
                 s: float, convention: str, probe: str,
                 extra: dict | None = None) -> ProbeResult:
    """Evaluate the density ratio on a grid of radii at each base point.

    The radii are visited in descending order, and each base point keeps a
    working set of rows that shrinks to the ball as r descends: before radius
    r it drops every row with both fl(dE - r) > e_ball and dE > fl(r + e_ball).
    Those are the rows no mask at r can select (the ball dE <= r and the two
    band terms), and by monotone rounding no mask at a smaller radius either,
    so the working sets are nested and never lose a row a later radius needs.
    Kept rows stay in cloud order, so every sum adds the same numbers in the
    same order as on the whole cloud and the results are bit-identical; the
    mask passes cost about the ball's share of the cloud, not all of it.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if not radii or radii[-1] <= 0:
        raise ValueError("radii must be a nonempty list of positive numbers")
    e_ball = cloud.placement_error
    point_series: list[PointSeries] = []
    best_min = (math.inf, None, None)
    best_max = (-math.inf, None, None)
    err = 0.0
    for p in base_points:
        plane = HorizontalPlane(p)
        dE = dist_many(cloud.points, p, MetricKind.EUCLIDEAN)
        pd = plane_dist_many(cloud.points, plane)
        w = cloud.weights
        # plane distance is insensitive to horizontal placement except through
        # the 2*y0 slope term, so the plane band uses the anisotropic bound
        e_plane = (2.0 * abs(p.y) * cloud.err_xy + cloud.err_t) / plane.normal_scale()
        series = []
        for r in radii:
            # both halves: the two float expressions disagree at the edge
            keep = (dE - r <= e_ball) | (dE <= r + e_ball)
            dE, pd, w = dE[keep], pd[keep], w[keep]
            rho = rho_rule.rho(r)
            denom = _denominator(convention, r, s)
            inside, outside = _split(w, dE <= r, pd <= rho)
            ratio = outside / denom
            series.append(SeriesEntry(r=r, inside=inside, outside=outside, ratio=ratio))
            if ratio < best_min[0]:
                best_min = (ratio, r, p)
            if ratio > best_max[0]:
                best_max = (ratio, r, p)
            if e_ball > 0.0 or e_plane > 0.0:
                # mass whose classification flip could change the outside term:
                # sphere-boundary points already clear of the slab, and
                # slab-boundary points already inside the ball
                band = float(w[(np.abs(dE - r) <= e_ball) & (pd > rho - e_plane)].sum())
                band += float(w[(np.abs(pd - rho) <= e_plane) & (dE <= r + e_ball)].sum())
                err = max(err, band / denom)
        point_series.append(PointSeries(p=p, series=series))
    summary = {
        "min_ratio": best_min[0],
        "max_ratio": best_max[0],
        "argmin_r": best_min[1],
        "argmax_r": best_max[1],
    }
    return ProbeResult(probe=probe, convention=convention, rho_rule=rho_rule, s=s,
                       points=point_series, summary=summary, error_bound=err,
                       extra=extra or {})


def thm1_scan(cloud: WeightedCloud, base_points, epsilon: float, radii,
              s: float = 1.0) -> ProbeResult:
    """Shrinking-neighborhood scan, rho = r^(1+epsilon), denominator r^s.
    The quantity of interest is the minimum over the radius grid."""
    return scan_density(cloud, base_points, radii, PowerLaw(epsilon), s, "r^s", probe="thm1")


def thm2_scan(cloud: WeightedCloud, base_points, delta: float, radii,
              s: float) -> ProbeResult:
    """Linear-neighborhood scan, rho = delta * r, denominator (2r)^s.
    The quantity of interest is the maximum over the radius grid."""
    return scan_density(cloud, base_points, radii, Linear(delta), s, "(2r)^s", probe="thm2")


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
    return scan_density(cloud, base_points, radii, Fixed(1.0 / 8.0), 1.0, "2r",
                        probe="ex1", extra={"k_by_radius": by_r})


def ex1_probe(level: int, samples_per_rect: int = 4, base_count: int = 12) -> ProbeResult:
    """Build the doubly exponential family at `level` and probe every admissible
    k < level. Base points are deepest-level rectangle centers with
    x <= EX1_PANEL_X_MAX."""
    params = Example1()
    family = build_family(params, level)
    cloud = family_cloud(family, samples_per_rect, kind="ex1")
    h_by_level = {k: level_sides(params, k)[0] for k in range(level + 1)}
    bases = panel_from_rects(family, base_count, x_max=EX1_PANEL_X_MAX)
    return ex1_scan(cloud, h_by_level, range(1, level), bases)


def ex2_window_level(r: float) -> int:
    """The unique k with 2^(1-k) <= r < 2^(2-k)."""
    return math.ceil(1.0 - math.log2(r))


def ex2_windows(M: float, level: int) -> range:
    """Window levels k at which a level-`level` ex2 cloud can be probed: 2^k > 68M
    (past the switch level, exactly, as doubling is exact) and k + 1 <= level."""
    k0 = Example2(M).switch_level() + 1
    if level <= k0:
        raise ValueError(f"level {level} has no valid probing window: need a level k with "
                         f"2^k > 68M = {68 * M} and its children built (level >= {k0 + 1})")
    return range(k0, level)


def ex2_default_radii(M: float, level: int, per_window: int = 4) -> list[float]:
    """Radii in the lower part [2^(1-k), 1.3 * 2^(1-k)] of each valid window;
    there the sibling rectangle clears the quadratic neighborhood for every
    base point, including the plane-distance normalization up to sqrt(5)."""
    out = []
    for k in ex2_windows(M, level):
        out.extend(np.geomspace(2.0 ** (1 - k), 1.3 * 2.0 ** (1 - k), per_window))
    return sorted(out, reverse=True)


def ex2_scan(cloud: WeightedCloud, M: float, level: int, radii, base_points) -> ProbeResult:
    """Quadratic-neighborhood probe, rho = M r^2, denominator 2r; every radius
    must lie in a window 2^(1-k) <= r < 2^(2-k) with k in ex2_windows(M, level)."""
    rule = Quadratic(M)  # rejects a bad M before any window check
    windows = ex2_windows(M, level)
    for r in radii:
        k = ex2_window_level(r)
        if k not in windows:
            raise ValueError(f"radius {r} falls in window [2^{1 - k}, 2^{2 - k}) for k={k}; "
                             f"validity needs 2^k > 68M = {68 * M} and k+1 <= level = {level}")
    return scan_density(cloud, base_points, radii, rule, 1.0, "2r", probe="ex2",
                        extra={"window_levels": sorted({ex2_window_level(r) for r in radii})})


def ex2_probe(M: float, level: int, radii=None, samples_per_rect: int = 4,
              base_count: int = 12) -> ProbeResult:
    """Build the flat-rectangle family and probe inside the valid radius windows."""
    ex2_windows(M, level)  # refuse a level without a window before building it
    family = build_family(Example2(M), level)
    cloud = family_cloud(family, samples_per_rect, kind="ex2", extra_source={"M": M})
    if radii is None:
        radii = ex2_default_radii(M, level)
    bases = panel_from_rects(family, base_count)
    return ex2_scan(cloud, M, level, radii, bases)


def _annulus_min_ratio(t_values: np.ndarray, weights: np.ndarray, centers: np.ndarray,
                       radii, c0: float, d: float) -> float:
    worst = math.inf
    for tc in centers:
        delta_t = np.abs(t_values - tc)
        for r in radii:
            m = float(weights[(delta_t >= c0 * r) & (delta_t <= r / 4.0)].sum())
            worst = min(worst, m / r**d)
    return worst


def estimate_annulus_constants(cantor: WeightedCloud, radii, d: float,
                               c0_grid=None, panel: int = 24) -> tuple[float, float]:
    """Largest c0 from the grid {2^-j / 4} such that the annulus
    c0*r <= |t'' - t'| <= r/4 carries mass at least c_d * r^d for every probed
    center and radius, together with that observed c_d. Returns (0, 0) when no
    candidate works."""
    if c0_grid is None:
        c0_grid = [0.25 * 2.0**-j for j in range(11)]
    radii = [r for r in radii if 0.0 < r < 1.0]
    if not radii:
        raise ValueError("annulus estimation needs radii inside (0, 1)")
    t_values = cantor.points[:, 2]
    centers = t_values[_strided(len(t_values), panel)]
    for c0 in sorted(c0_grid, reverse=True):
        cd = _annulus_min_ratio(t_values, cantor.weights, centers, radii, c0, d)
        if cd > 0.0:
            return c0, cd
    return 0.0, 0.0


def ex3_probe(d: float, qh_depth: int, cantor_depth: int, radii,
              base_count: int = 12, fs_cloud: WeightedCloud | None = None,
              cantor_cloud_in: WeightedCloud | None = None) -> ProbeResult:
    """Vertical-product probe: estimate the annulus constants (c0, c_d) on the
    Cantor cloud, then scan the product set with rho = (c0/6) * r and
    denominator r^s at s = 2 + d."""
    if not (0.0 < d < 1.0):
        raise ValueError(f"d must lie in (0, 1), got {d}")
    cantor = cantor_cloud_in if cantor_cloud_in is not None else cantor_cloud(d, cantor_depth)
    fs = fs_cloud if fs_cloud is not None else product_cloud(hsquare_cloud(qh_depth), cantor)
    c0, cd = estimate_annulus_constants(cantor, radii, d)
    s = 2.0 + d
    if c0 <= 0.0:
        return ProbeResult(probe="ex3", convention="r^s", rho_rule=Fixed(0.0), s=s,
                           points=[], summary={"min_ratio": math.nan, "max_ratio": math.nan,
                                               "argmin_r": None, "argmax_r": None},
                           error_bound=math.inf,
                           extra={"c0": 0.0, "c_d": 0.0, "status": "degenerate"})
    bases = panel_from_cloud(fs, base_count)
    return scan_density(fs, bases, radii, Fixed(c0 / 6.0), s, "r^s", probe="ex3",
                        extra={"c0": c0, "c_d": cd, "status": "ok"})


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
    if not R > 0:
        raise ValueError("R must be positive")
    r_values = tuple(float(r) for r in r_values)
    if not r_values or any(not (0.0 < r <= 1.0) for r in r_values):
        raise ValueError("each r must lie in (0, 1]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    E, H = MetricKind.EUCLIDEAN, MetricKind.HEISENBERG
    inner_scale = 1.0 / math.sqrt(2.0 * (1.0 + 4.0 * R * R))
    per = [samples // len(r_values)] * len(r_values)
    for i in range(samples - sum(per)):
        per[i] += 1
    rep = SandwichReport(samples=samples, inner_violations=0, outer_violations=0,
                         R=R, seed=seed, r_values=r_values)
    for stream, (r, n) in enumerate(zip(r_values, per)):
        if n == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        rad = R * np.sqrt(rng.random(n))
        px, py = rad * np.cos(theta), rad * np.sin(theta)
        pt = rng.uniform(-1.0, 1.0, n)
        P = np.column_stack([px, py, pt])
        nscale = np.sqrt(1.0 + 4.0 * (px * px + py * py))

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
    return {
        "samples": rep.samples,
        "inner_violations": rep.inner_violations,
        "outer_violations": rep.outer_violations,
        "R": rep.R,
        "seed": rep.seed,
        "r_values": list(rep.r_values),
        "inner_hits": rep.inner_hits,
        "outer_hits": rep.outer_hits,
        "outer_plane_violations": rep.outer_plane_violations,
        "outer_ball_violations": rep.outer_ball_violations,
    }
