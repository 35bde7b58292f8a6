import math

import numpy as np
import pytest

from heislab.constructions import (
    Example1,
    WeightedCloud,
    build_family,
    cantor_cloud,
    family_cloud,
    hsquare_cloud,
    load_cloud,
    product_cloud,
    save_cloud,
    segment_cloud,
    sidecar_path,
)
from heislab.hgeom import (
    HorizontalPlane,
    MetricKind,
    Point,
    dist,
    dist_many,
    dist_pairs,
    dist_to_plane,
    group_mul,
    plane_dist_many,
)
from heislab.probes import (
    Fixed,
    Linear,
    PointSeries,
    PowerLaw,
    ProbeResult,
    Quadratic,
    SeriesEntry,
    _denominator,
    _split,
    density_ratio,
    estimate_annulus_constants,
    ex1_probe,
    ex2_default_radii,
    ex2_probe,
    ex2_window_level,
    ex2_windows,
    ex3_probe,
    mass_split,
    panel_from_cloud,
    panel_from_rects,
    probe_result_to_dict,
    sandwich_report_to_dict,
    sandwich_sample,
    scan_density,
    thm1_scan,
    thm2_scan,
)

E = MetricKind.EUCLIDEAN
H = MetricKind.HEISENBERG
O = Point(0, 0, 0)


@pytest.fixture(scope="module")
def tseg():
    return segment_cloud("t", -1.0, 1.0, 4000)


@pytest.fixture(scope="module")
def xseg():
    return segment_cloud("x", 0.0, 1.0, 4000)


def test_mass_split_x_axis_is_horizontal(xseg):
    for rho in (0.0, 0.01, 0.5):
        inside, outside = mass_split(xseg, O, 0.3, rho)
        assert outside == 0.0
        assert inside == pytest.approx(0.3, abs=1e-3)


def test_mass_split_t_axis_oracle(tseg):
    # 1-D length oracle: the plane through 0 cuts |t| <= rho out of [-r, r]
    inside, outside = mass_split(tseg, O, 0.1, 0.025)
    assert inside == pytest.approx(0.05, abs=1e-12)
    assert outside == pytest.approx(0.15, abs=1e-12)


def test_mass_split_wide_slab_swallows_ball(tseg):
    inside, outside = mass_split(tseg, O, 0.1, 0.1)
    assert outside == 0.0


def test_mass_partition(tseg):
    p = Point(0, 0, 0.3)
    r = 0.2
    inside, outside = mass_split(tseg, p, r, 0.04)
    from heislab.hgeom import dist_many

    ball_mass = float(tseg.weights[dist_many(tseg.points, p, E) <= r].sum())
    assert inside + outside == pytest.approx(ball_mass, abs=1e-12 * tseg.total_mass)


def test_outside_mass_monotone_in_rho(tseg):
    prev = math.inf
    for rho in (0.0, 0.01, 0.02, 0.05, 0.1):
        _, outside = mass_split(tseg, O, 0.1, rho)
        assert outside <= prev + 1e-15
        prev = outside


def test_density_ratio_t_axis(tseg):
    assert density_ratio(tseg, O, 0.1, 0.025, 1.0) == pytest.approx(0.75, abs=1e-3)
    assert density_ratio(tseg, O, 0.1, 0.2, 1.0) == 0.0


def test_thm1_t_axis_oracle(tseg):
    # outside mass 2(r - r^(3/2)) over denominator r gives 2 - 2 sqrt(r)
    res = thm1_scan(tseg, [O], 0.5, [0.01])
    assert res.convention == "r^s"
    assert res.summary["min_ratio"] == pytest.approx(2 - 2 * math.sqrt(0.01), abs=2e-3)


def test_thm1_x_axis_zero(xseg):
    res = thm1_scan(xseg, [Point(0.4, 0, 0)], 0.3, np.geomspace(0.2, 0.01, 6))
    assert res.summary["min_ratio"] == 0.0
    assert res.summary["max_ratio"] == 0.0


def test_thm2_t_axis_oracle(tseg):
    res = thm2_scan(tseg, [O], 0.25, np.geomspace(0.2, 0.02, 9), s=1.0)
    assert res.convention == "(2r)^s"
    assert res.summary["max_ratio"] == pytest.approx(0.75, abs=5e-3)
    assert res.summary["max_ratio"] > 0.25


def test_thm2_x_axis_zero(xseg):
    res = thm2_scan(xseg, [Point(0.5, 0, 0)], 0.25, [0.2, 0.1], s=2.0)
    assert res.summary["max_ratio"] == 0.0


def test_thm2_cantor_positive():
    cloud = cantor_cloud(0.5, 8)
    p = Point.from_array(cloud.points[0])
    res = thm2_scan(cloud, [p], 0.05, np.geomspace(0.5, 0.05, 9), s=0.5)
    assert res.summary["max_ratio"] > 0.0


def test_ex1_probe_bound_and_cap():
    res = ex1_probe(3, samples_per_rect=16, base_count=8)
    assert res.convention == "2r"
    ratios = [e.ratio for ps in res.points for e in ps.series]
    assert min(ratios) >= 0.125 - 1e-9
    # total-mass cap: ratio <= mass(ball)/(2r) <= 3r/(2r)
    assert max(ratios) <= 1.5
    assert res.error_bound <= 0.02


def test_ex1_probe_rejects_shallow_level():
    with pytest.raises(ValueError):
        ex1_probe(1)


def test_ex1_contrast_on_shared_panel():
    # the same base points show a large fixed-fraction ratio at the tied radii
    # and a vanishing minimum under the shrinking power-law neighborhood
    from heislab.constructions import level_sides

    level = 4
    fam = build_family(Example1(), level)
    cloud = family_cloud(fam, 4, kind="ex1")
    bases = panel_from_rects(fam, 8, x_max=0.75)
    h_by = {k: level_sides(Example1(), k)[0] for k in range(level + 1)}
    from heislab.probes import ex1_scan

    res1 = ex1_scan(cloud, h_by, range(1, level), bases)
    assert res1.summary["min_ratio"] >= 0.125 - 0.02
    h2, h4 = h_by[2], h_by[4]
    res2 = thm1_scan(cloud, bases, 0.5, np.geomspace(h2, h4, 24))
    per_point_min = [min(e.ratio for e in ps.series) for ps in res2.points]
    assert all(m <= 0.05 for m in per_point_min)


def test_ex2_window_level():
    assert ex2_window_level(2.0**-7) == 8
    assert ex2_window_level(1.5 * 2.0**-7) == 8
    assert ex2_window_level(2.0**-6) == 7


def test_ex2_windows_match_the_inline_rule():
    # both float neighbours of every 2^j / 68 with M > 1, the boundary itself,
    # and a few off-dyadic values
    bounds = [2.0**j / 68.0 for j in range(7, 60)]
    ms = [m for b in bounds for m in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]
    for M in ms + [1.1, 2.0, 7.3, 1e6]:
        k0 = ex2_windows(M, 100).start
        for level in (k0 + 1, k0 + 2, k0 + 5):
            windows = ex2_windows(M, level)
            for k in range(-3, level + 3):
                # the window rule as ex2_scan used to spell it inline
                assert (k in windows) == (not (2**k <= 68 * M or k + 1 > level)), (M, level, k)
        for level in (k0, k0 - 1, 1):
            with pytest.raises(ValueError, match="no valid probing window.*68M"):
                ex2_windows(M, level)


def test_ex2_probe_min_ratio():
    res = ex2_probe(2.0, 9, base_count=8)
    assert res.summary["min_ratio"] >= 0.0625 - 1e-9
    assert res.convention == "2r"


def test_ex2_probe_validations():
    with pytest.raises(ValueError):
        ex2_probe(2.0, 3)  # no level with 2^k > 136 built
    with pytest.raises(ValueError):
        ex2_probe(2.0, 9, radii=[0.3])  # outside every valid window
    with pytest.raises(ValueError):
        ex2_default_radii(2.0, 5)
    with pytest.raises(ValueError):
        ex2_default_radii(math.inf, 5)  # 2^k <= 68M for every k
    with pytest.raises(ValueError):
        ex2_default_radii(math.nan, 5)  # every comparison with NaN is false


def test_ex3_probe_positive_and_annulus():
    radii = list(np.geomspace(2.0, 0.05, 12))
    res = ex3_probe(0.5, 4, 5, radii, base_count=6)
    assert res.extra["status"] == "ok"
    assert res.extra["c0"] > 0.0
    assert res.extra["c_d"] > 0.0
    ratios = [e.ratio for ps in res.points for e in ps.series]
    assert min(ratios) > 0.0
    assert res.s == 2.5


def test_ex3_annulus_oracle():
    # direct Cantor measure check of the annulus mass at the estimated constants
    cloud = cantor_cloud(0.5, 7)
    radii = [r for r in np.geomspace(1.0, 0.05, 8) if r < 1]
    c0, cd = estimate_annulus_constants(cloud, radii, 0.5)
    assert 0 < c0 < 0.25
    t = cloud.points[:, 2]
    for tc in t[:: len(t) // 16]:
        for r in radii:
            m = cloud.weights[(np.abs(t - tc) >= c0 * r) & (np.abs(t - tc) <= r / 4)].sum()
            assert m >= cd * r**0.5 - 1e-12


def test_ex3_control_horizontal_input_zero(xseg):
    radii = list(np.geomspace(0.5, 0.05, 6))
    res = ex3_probe(0.5, 2, 5, radii, base_count=4, fs_cloud=xseg)
    ratios = [e.ratio for ps in res.points for e in ps.series]
    assert all(r == 0.0 for r in ratios)


def test_scan_density_summary_args():
    tseg = segment_cloud("t", -1.0, 1.0, 1000)
    res = scan_density(tseg, [O], [0.2, 0.1], Linear(0.25), 1.0, "(2r)^s", probe="thm2")
    assert set(res.summary) == {"min_ratio", "max_ratio", "argmin_r", "argmax_r"}
    assert res.summary["argmax_r"] in (0.2, 0.1)


def _scan_ref(cloud, base_points, radii, rho_rule, s, convention, probe, extra=None):
    """The unpruned radius loop: every mask runs on the whole cloud."""
    radii = sorted((float(r) for r in radii), reverse=True)
    if not radii or radii[-1] <= 0:
        raise ValueError("radii must be a nonempty list of positive numbers")
    e_ball = cloud.placement_error
    w = cloud.weights
    point_series: list[PointSeries] = []
    best_min = (math.inf, None, None)
    best_max = (-math.inf, None, None)
    err = 0.0
    for p in base_points:
        plane = HorizontalPlane(p)
        dE = dist_many(cloud.points, p, MetricKind.EUCLIDEAN)
        pd = plane_dist_many(cloud.points, plane)
        # plane distance is insensitive to horizontal placement except through
        # the 2*y0 slope term, so the plane band uses the anisotropic bound
        e_plane = (2.0 * abs(p.y) * cloud.err_xy + cloud.err_t) / plane.normal_scale()
        series = []
        for r in radii:
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


def _assert_scan_matches_ref(*args):
    got = probe_result_to_dict(scan_density(*args))
    assert got == probe_result_to_dict(_scan_ref(*args))
    return got


@pytest.fixture(scope="module")
def oracle_clouds(tmp_path_factory):
    ex1 = family_cloud(build_family(Example1(), 3), 4, kind="ex1")
    fs = product_cloud(hsquare_cloud(3), cantor_cloud(0.5, 4))
    # a CSV without its sidecar loads with no placement error
    path = tmp_path_factory.mktemp("bare") / "cantor.csv"
    save_cloud(product_cloud(hsquare_cloud(2), cantor_cloud(0.5, 5)), path)
    sidecar_path(path).unlink()
    bare = load_cloud(path)
    assert ex1.placement_error > 0 and fs.placement_error > 0 and bare.placement_error == 0
    return {"ex1": ex1, "fs": fs, "bare": bare}


@pytest.mark.parametrize("name", ["ex1", "fs", "bare"])
@pytest.mark.parametrize("rule, s, convention", [
    (PowerLaw(0.5), 1.0, "r^s"),
    (Linear(0.25), 1.5, "(2r)^s"),
    (Quadratic(2.0), 1.0, "2r"),
    (Fixed(0.125), 2.5, "r^s"),
], ids=["power_law", "linear", "quadratic", "fixed"])
def test_pruned_scan_matches_unpruned_reference(oracle_clouds, name, rule, s, convention):
    cloud = oracle_clouds[name]
    bases = panel_from_cloud(cloud, 5)
    # unsorted, with duplicates
    radii = [0.3, 0.05, 0.3, 0.12, 1.1, 0.05, 0.02, 0.7]
    got = _assert_scan_matches_ref(cloud, bases, radii, rule, s, convention, "oracle")
    assert any(e["outside"] > 0 for ps in got["points"] for e in ps["series"])
    # radii equal to rows' own distances put those rows on the sphere
    dE = dist_many(cloud.points, bases[0], E)
    ties = [float(v) for v in np.unique(dE[dE > 0])[[0, 3, -40, -1]]]
    _assert_scan_matches_ref(cloud, bases, ties + radii[:3], rule, s, convention, "oracle")


def test_pruned_scan_rounding_edges():
    # on the t-axis through the origin dE = pd = |t| exactly; the two halves of
    # the keep filter, fl(dE - r) <= e and dE <= fl(r + e), disagree at each row
    e = 0.25909202707367274
    r_a, d_a = 0.039265546881084884, 0.29835757395475765
    r_b, d_b = 0.2745175275197104, 0.5336095545933832
    assert d_a - r_a <= e and not d_a <= r_a + e
    assert not d_b - r_b <= e and d_b <= r_b + e
    t = np.concatenate([np.linspace(-1.0, 1.0, 201), [d_a, -d_b]])
    points = np.column_stack([np.zeros_like(t), np.zeros_like(t), t])
    weights = np.full(len(t), 1.0 / len(t))
    cloud = WeightedCloud(points, weights, float(weights.sum()), 0, {"kind": "edge"}, err_t=e)
    assert cloud.placement_error == e
    assert dist_many(cloud.points, O, E)[-2] == d_a
    # row a counts in the sphere band at r_a, row b in the slab band at r_b
    # (rho = 2 r_b, e_plane = e)
    for radii in ([r_a], [r_b], [r_b, r_a]):
        _assert_scan_matches_ref(cloud, [O], radii, Fixed(2.0), 1.0, "2r", "edge")

def test_rho_rules():
    assert PowerLaw(0.5).rho(0.04) == 0.04**1.5
    assert Linear(0.25).rho(0.2) == 0.05
    assert Quadratic(2.0).rho(0.1) == pytest.approx(0.02)
    assert Fixed(0.125).rho(0.4) == 0.05
    with pytest.raises(ValueError):
        PowerLaw(1.5)
    with pytest.raises(ValueError):
        Quadratic(0.5)


def test_sandwich_direct_examples():
    # direct membership evaluations of the two-sided comparison
    p, r = O, 1.0
    q = Point(0.5, 0, 0)
    assert dist(q, p, E) <= r / 2
    assert dist_to_plane(q, HorizontalPlane(p)) == 0.0
    assert dist(q, p, H) == 0.5 <= r

    q = Point(0, 0, 0.9)
    assert dist(q, p, H) == pytest.approx(0.81**0.25)
    assert dist(q, p, H) <= r
    assert dist_to_plane(q, HorizontalPlane(p)) == 0.9 <= r * r
    assert dist(q, p, E) == 0.9 <= r


def test_sandwich_sampler_inner_and_plane_clean():
    rep = sandwich_sample(2.0, (1.0, 0.3, 0.1), 30_000, seed=1)
    assert rep.inner_violations == 0
    assert rep.outer_plane_violations == 0
    # exact seed-1 counts: a change to the draw order or to a distance formula moves them
    assert (rep.inner_hits, rep.outer_hits, rep.outer_ball_violations) == (5203, 23666, 13337)
    # deterministic for a fixed seed
    again = sandwich_sample(2.0, (1.0, 0.3, 0.1), 30_000, seed=1)
    assert sandwich_report_to_dict(again) == sandwich_report_to_dict(rep)


def test_sandwich_outer_ball_defect_witness():
    # the Euclidean-ball half of the outer inclusion fails off the t-axis:
    # q = p * (0, a, 0) keeps the gauge distance a but grows Euclidean distance
    # with the tilt 2|x0| a
    p = Point(2.0, 0.0, 0.0)
    q = Point(2.0, 0.29, 1.16)
    assert dist(q, p, H) <= 0.3
    assert dist(q, p, E) > 0.3
    assert dist_to_plane(q, HorizontalPlane(p)) <= 0.3**2
    rep = sandwich_sample(2.0, (1.0, 0.3, 0.1), 30_000, seed=1)
    assert rep.outer_ball_violations > 0
    assert rep.outer_violations == rep.outer_ball_violations


def test_sandwich_corrected_outer_radius_clean():
    # with the comparison-constant radius c_R * r = 3(1+R) r the Euclidean half
    # holds on the same samples
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    R = 2.0
    P, Q, radius = [], [], []
    for r in (1.0, 0.3, 0.1):
        for _ in range(3000):
            ang = rng.uniform(0, 2 * math.pi)
            rad = R * math.sqrt(rng.random())
            p = Point(rad * math.cos(ang), rad * math.sin(ang), rng.uniform(-1, 1))
            a = r * math.sqrt(rng.random())
            phi = rng.uniform(0, 2 * math.pi)
            u = Point(a * math.cos(phi), a * math.sin(phi), rng.uniform(-r * r, r * r))
            P.append(p.as_array())
            Q.append(group_mul(p, u).as_array())
            radius.append(r)
    P, Q, radius = np.array(P), np.array(Q), np.array(radius)
    member = dist_pairs(Q, P, H) <= radius
    assert (dist_pairs(Q, P, E)[member] <= 3 * (1 + R) * radius[member]).all()


def test_sandwich_validations():
    with pytest.raises(ValueError):
        sandwich_sample(0.0, (0.5,), 10, 0)
    with pytest.raises(ValueError):
        sandwich_sample(1.0, (1.5,), 10, 0)
    with pytest.raises(ValueError):
        sandwich_sample(1.0, (0.5,), 0, 0)


def test_probe_result_serialization(tseg):
    res = thm2_scan(tseg, [O], 0.25, [0.1], s=1.0)
    d = probe_result_to_dict(res)
    assert d["probe"] == "thm2"
    assert d["convention"] == "(2r)^s"
    assert d["rho_rule"] == {"rule": "linear", "delta": 0.25}
    assert d["points"][0]["p"] == [0.0, 0.0, 0.0]
    entry = d["points"][0]["series"][0]
    assert set(entry) == {"r", "inside", "outside", "ratio"}
    assert "error_bound" in d
    assert d["seed"] == 0
