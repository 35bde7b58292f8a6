import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from heislab import dimension, probes
from heislab.constructions import (
    Example1,
    Example2,
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
from heislab.dimension import delta_ladder
from heislab.hgeom import (
    MetricKind,
    Point,
    dist_many,
    dist_pairs,
    normal_scale,
    plane_dist_many,
)
from heislab.probes import (
    PointSeries,
    ProbeResult,
    RhoRule,
    SeriesEntry,
    _denominator,
    estimate_annulus_constants,
    ex1_probe,
    ex1_scan,
    ex2_default_radii,
    ex2_probe,
    ex2_window_level,
    ex2_windows,
    ex3_probe,
    panel_from_cloud,
    panel_from_rects,
    probe_result_to_dict,
    sandwich_report_to_dict,
    sandwich_sample,
    scan_density,
    thm1_scan,
    thm2_scan,
)
from oracle import (
    _split,
    annulus_constants,
    density_ratio,
    dist,
    dist_to_plane,
    group_mul,
    mass_split,
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


def test_probes_on_a_given_cloud_match_their_own_build():
    # the CLI hands the probes the loaded cloud; on the cloud a probe would
    # build itself the result is the same, and a given panel is used as is
    ex1 = family_cloud(build_family(Example1(), 3), 4, kind="ex1")
    assert (probe_result_to_dict(ex1_probe(3, cloud=ex1))
            == probe_result_to_dict(ex1_probe(3)))
    ex2 = family_cloud(build_family(Example2(2.0), 9), 4, kind="ex2", extra_source={"M": 2.0})
    assert (probe_result_to_dict(ex2_probe(2.0, 9, cloud=ex2))
            == probe_result_to_dict(ex2_probe(2.0, 9)))
    p = Point(0.5, 0.0, 0.1)
    assert [ps.p for ps in ex1_probe(3, cloud=ex1, base_points=[p]).points] == [p]
    for probe in (lambda: ex1_probe(3, cloud=ex1, base_points=[]),
                  lambda: ex2_probe(2.0, 9, cloud=ex2, base_points=[])):
        with pytest.raises(ValueError, match="at least one base point"):
            probe()


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


def test_ex2_window_level_at_the_window_edges():
    # each window's bottom, both its float neighbours, and the float just below its top
    for k in range(-60, 61):
        low, top = 2.0 ** (1 - k), 2.0 ** (2 - k)
        below_top = float(np.nextafter(top, 0.0))
        for r in (float(np.nextafter(low, 0.0)), low, float(np.nextafter(low, np.inf)), below_top):
            j = ex2_window_level(r)
            assert 2.0 ** (1 - j) <= r < 2.0 ** (2 - j), (r, j)
        assert ex2_window_level(low) == ex2_window_level(below_top) == k


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
    for radii in ([math.inf], [math.nan], [0.0], []):  # before the window rule
        with pytest.raises(ValueError, match="finite positive"):
            ex2_probe(2.0, 9, radii=radii)
    with pytest.raises(ValueError):
        ex2_default_radii(2.0, 5)
    with pytest.raises(ValueError):
        ex2_default_radii(math.inf, 5)  # 2^k <= 68M for every k
    with pytest.raises(ValueError):
        ex2_default_radii(math.nan, 5)  # every comparison with NaN is false


@pytest.mark.parametrize("call, match", [
    (lambda: panel_from_rects(build_family(Example1(), 1), 4, x_max=-1.0),
     "no admissible base points"),
    # ks = [1] needs the side length of level 2
    (lambda: ex1_scan(segment_cloud("t", -1.0, 1.0, 10), {0: 0.5, 1: 0.25}, [1], [O]),
     "no side length known for level 2"),
    (lambda: estimate_annulus_constants(cantor_cloud(0.5, 3), [1.0, 2.0, 0.0], 0.5),
     r"needs radii inside \(0, 1\)"),
    (lambda: ex3_probe(0.0, 1, 2), r"d must lie in \(0, 1\)"),
    (lambda: ex3_probe(1.0, 1, 2), r"d must lie in \(0, 1\)"),
    (lambda: ex3_probe(math.nan, 1, 2), r"d must lie in \(0, 1\)"),
    # on its own, not only behind ex3_probe's check: at d = NaN it once gave (0, 0)
    *[(lambda d=d: estimate_annulus_constants(cantor_cloud(0.5, 5), [0.5, 0.2], d),
       r"d must lie in \(0, 1\)") for d in (math.nan, 0.0, 1.0, -0.5, math.inf)],
], ids=["no-admissible-center", "no-side-length", "no-annulus-radius", "d-zero", "d-one",
        "d-nan", "annulus-d-nan", "annulus-d-zero", "annulus-d-one", "annulus-d-negative",
        "annulus-d-inf"])
def test_probes_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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


@pytest.mark.parametrize("d, depth, radii, c0", [
    (0.5, 5, list(np.geomspace(5.0, 0.05, 17)), 0.0625),
    (0.5, 7, list(np.geomspace(1.0, 0.05, 8)), 0.0625),
    (0.3, 6, list(np.geomspace(1.0, 0.05, 8)), 0.03125),
    (0.7, 8, [0.9, 0.5, 0.3, 0.1], 0.125),
    (0.5, 3, list(np.geomspace(1.0, 0.05, 8)), 0.0),
    (0.5, 6, [1e-9], 0.0),
], ids=["d0.5-depth5", "d0.5-depth7", "d0.3-depth6", "d0.7-depth8", "coarse-no-fit",
        "tiny-radius-no-fit"])
def test_annulus_constants_match_the_loop_oracle(d, depth, radii, c0):
    # one |t - tc| pass per center gives the double loop's c0 and c_d, bit for bit
    cloud = cantor_cloud(d, depth)
    got, want = estimate_annulus_constants(cloud, radii, d), annulus_constants(cloud, radii, d)
    assert got[0] == c0 < 0.25
    assert [(type(v), float(v).hex()) for v in got] == [(type(v), float(v).hex()) for v in want]


def test_ex3_control_horizontal_input_zero(xseg):
    radii = list(np.geomspace(0.5, 0.05, 6))
    res = ex3_probe(0.5, 2, 5, radii, base_count=4, fs_cloud=xseg)
    ratios = [e.ratio for ps in res.points for e in ps.series]
    assert all(r == 0.0 for r in ratios)


def test_scan_density_summary_args():
    tseg = segment_cloud("t", -1.0, 1.0, 1000)
    res = scan_density(tseg, [O], [0.2, 0.1], RhoRule("linear", 0.25), 1.0, "(2r)^s", probe="thm2")
    assert set(res.summary) == {"min_ratio", "max_ratio", "argmin_r", "argmax_r"}
    assert res.summary["argmax_r"] in (0.2, 0.1)


@pytest.mark.parametrize("radii", [[], [0.2, 0.0], [-0.1], [math.inf, 0.1], [math.nan, 0.1]])
def test_scan_density_rejects_bad_radii(radii):
    # a NaN radius used to scan and report a max ratio of 0.0
    tseg = segment_cloud("t", -1.0, 1.0, 100)
    with pytest.raises(ValueError, match="finite positive"):
        scan_density(tseg, [O], radii, RhoRule("linear", 0.25), 1.0, "(2r)^s", probe="thm2")
    with pytest.raises(ValueError, match="finite positive"):
        ex3_probe(0.5, 1, 2, radii)  # before the annulus estimate


@pytest.mark.parametrize("convention, r, s", [
    ("(2r)^s", 0.1, math.nan), ("(2r)^s", 0.1, math.inf), ("(2r)^s", 0.1, 1000.0),
    ("r^s", 10.0, 1000.0), ("r^s", 0.5, -math.inf),
    # 1.0 ** s is 1 for every non-finite s, so only the check on s refuses these
    ("r^s", 1.0, math.nan), ("r^s", 1.0, math.inf), ("r^s", 1.0, -math.inf),
], ids=["nan", "inf", "underflow", "overflow", "inf-denominator", "nan-at-1", "inf-at-1",
        "minus-inf-at-1"])
def test_scan_density_rejects_bad_denominator(convention, r, s):
    # checked for every radius before the first base point, so an empty panel
    # is not reached; NaN ratios or a ZeroDivisionError came out before
    tseg = segment_cloud("t", -1.0, 1.0, 100)
    with pytest.raises(ValueError, match="not a finite positive number"):
        scan_density(tseg, [], [1.0, r], RhoRule("linear", 0.25), s, convention, probe="thm2")


def test_scan_density_rejects_a_ratio_past_the_float_range(tseg):
    # the denominator 1e-320 is finite and positive, but the band over it is not:
    # error_bound came out inf
    with pytest.raises(ValueError, match=r"at r=1e-320 is not finite"):
        thm1_scan(tseg, [Point(0, 0, 0.001)], 0.5, [1e-320], s=1.0)


def test_scan_density_refusal_names_the_smallest_bad_radius(tseg):
    # the band overflows at both radii; the smallest lies nearest the subnormal edge
    with pytest.raises(ValueError, match=r"at r=1e-320 is not finite"):
        thm1_scan(tseg, [Point(0, 0, 0.001)], 0.5, [1e-320, 2e-320], s=1.0)


def test_ex3_degenerate_scans_at_c0_zero():
    # no annulus constant fits r = 1e-9: the probe still scans, at c0 = 0
    cantor = cantor_cloud(0.5, 3)
    fs = product_cloud(hsquare_cloud(2), cantor)
    res = ex3_probe(0.5, 0, 0, [1e-9], base_count=12, fs_cloud=fs, cantor_cloud_in=cantor)
    extra = {"c0": 0.0, "c_d": 0.0, "status": "degenerate"}
    assert res.extra == extra and res.points
    assert probe_result_to_dict(res) == _assert_scan_matches_ref(
        fs, panel_from_cloud(fs, 12), [1e-9], RhoRule("fixed", 0.0), 2.5, "r^s", "ex3", extra)


def test_ex3_probe_owns_its_default_radii():
    cantor = cantor_cloud(0.5, 4)
    fs = product_cloud(hsquare_cloud(2), cantor)
    own = ex3_probe(0.5, 0, 0, base_count=4, fs_cloud=fs, cantor_cloud_in=cantor)
    ladder = ex3_probe(0.5, 0, 0, delta_ladder(5.0, 0.05, 17), base_count=4, fs_cloud=fs,
                       cantor_cloud_in=cantor)
    assert own.extra["status"] == "ok"
    assert probe_result_to_dict(own) == probe_result_to_dict(ladder)


def test_scan_density_rejects_empty_panel():
    # an empty panel used to report min_ratio inf and max_ratio -inf
    tseg = segment_cloud("t", -1.0, 1.0, 100)
    with pytest.raises(ValueError, match="at least one base point"):
        scan_density(tseg, [], [0.1], RhoRule("linear", 0.25), 1.0, "(2r)^s", probe="thm2")
    with pytest.raises(ValueError, match="at least one base point"):
        ex1_probe(3, base_count=0)


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
        dE = dist_many(cloud.points, p, MetricKind.EUCLIDEAN)
        pd = plane_dist_many(cloud.points, p)
        # plane distance is insensitive to horizontal placement except through
        # the 2*y0 slope term, so the plane band uses the anisotropic bound
        e_plane = (2.0 * abs(p.y) * cloud.err_xy + cloud.err_t) / normal_scale(p.x, p.y)
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


def _reweighted(cloud, weights):
    """The cloud with its rows and placement errors and other weights."""
    return WeightedCloud(cloud.points, weights, float(weights.sum()), cloud.source,
                         cloud.err_xy, cloud.err_t)


def _no_gather(weights, parts):
    raise AssertionError("a cloud of one power-of-two weight gathered its weights")


def _assert_scan_matches_ref(*args):
    res = scan_density(*args)
    got = probe_result_to_dict(res)
    assert got == probe_result_to_dict(_scan_ref(*args))
    # the JSON carries no band, and error_bound is the largest one
    assert res.error_bound == max(e.band for ps in res.points for e in ps.series)
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
    clouds = {"ex1": ex1, "fs": fs, "bare": bare}
    # every construction weighs its rows uniformly, by one power of two
    assert all(math.frexp(c.weights[0])[0] == 0.5 and (c.weights == c.weights[0]).all()
               for c in clouds.values())
    return clouds


@pytest.fixture(scope="module")
def distinct_clouds(oracle_clouds):
    """The oracle clouds with distinct weights, so that their scans gather them."""
    return {name: _reweighted(c, np.linspace(1.0, 3.0, len(c)) ** 2)
            for name, c in oracle_clouds.items()}


SCAN_CASES = [
    (RhoRule("power_law", 0.5), 1.0, "r^s"),
    (RhoRule("linear", 0.25), 1.5, "(2r)^s"),
    (RhoRule("quadratic", 2.0), 1.0, "2r"),
    (RhoRule("fixed", 0.125), 2.5, "r^s"),
]
SCAN_RULES = pytest.mark.parametrize("rule, s, convention", SCAN_CASES,
                                     ids=["power_law", "linear", "quadratic", "fixed"])


@pytest.mark.parametrize("name", ["ex1", "fs", "bare"])
@SCAN_RULES
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
    cloud = WeightedCloud(points, weights, float(weights.sum()), {"kind": "edge"}, err_t=e)
    assert cloud.placement_error == e
    assert dist_many(cloud.points, O, E)[-2] == d_a
    # row a counts in the sphere band at r_a, row b in the slab band at r_b
    # (rho = 2 r_b, e_plane = e)
    for radii in ([r_a], [r_b], [r_b, r_a]):
        _assert_scan_matches_ref(cloud, [O], radii, RhoRule("fixed", 2.0), 1.0, "2r", "edge")


# the test clouds fit in one block of the real size; these split them into many

@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("name", ["ex1", "fs", "bare"])
@SCAN_RULES
def test_block_scan_matches_unpruned_reference(monkeypatch, oracle_clouds, block, name, rule,
                                               s, convention):
    monkeypatch.setattr(probes, "_BLOCK", block)
    test_pruned_scan_matches_unpruned_reference(oracle_clouds, name, rule, s, convention)


@pytest.mark.parametrize("name", ["ex1", "fs", "bare"])
@SCAN_RULES
def test_no_empty_part_reaches_mass(monkeypatch, distinct_clouds, name, rule, s, convention):
    # a block records nothing for a selection with no rows; distinct weights,
    # since a cloud of one power-of-two weight counts rows and gathers none
    sizes = []
    mass = probes._mass

    def spy(weights, parts):
        sizes.extend(offsets.size for _, offsets in parts)
        return mass(weights, parts)

    monkeypatch.setattr(probes, "_mass", spy)
    monkeypatch.setattr(probes, "_BLOCK", 7)
    test_pruned_scan_matches_unpruned_reference(distinct_clouds, name, rule, s, convention)
    assert sizes and min(sizes) > 0


# weights of the oracle clouds' rows: only "uniform" keeps one power of two
WEIGHT_CASES = {
    "uniform": lambda w: w,
    "distinct": lambda w: np.linspace(1.0, 3.0, w.size) ** 2,
    "third": lambda w: np.full(w.size, 1.0 / 3.0),
    "one-changed": lambda w: np.where(np.arange(w.size) == w.size // 2, 2.0 * w, w),
    "zero": np.zeros_like,
}


@pytest.mark.parametrize("case", list(WEIGHT_CASES))
@pytest.mark.parametrize("name", ["ex1", "fs", "bare"])
def test_scan_gathers_unless_every_weight_is_one_power_of_two(monkeypatch, oracle_clouds, name,
                                                              case):
    cloud = oracle_clouds[name]
    cloud = _reweighted(cloud, WEIGHT_CASES[case](cloud.weights))
    calls = []
    mass = probes._mass

    def spy(weights, parts):
        calls.append(len(parts))
        return mass(weights, parts)

    monkeypatch.setattr(probes, "_mass", spy)
    monkeypatch.setattr(probes, "_BLOCK", 7)
    bases = panel_from_cloud(cloud, 5)
    for rule, s, convention in SCAN_CASES[1::2]:
        got = _assert_scan_matches_ref(cloud, bases, [1.1, 0.3, 0.12, 0.05, 0.02], rule, s,
                                       convention, "weights")
    assert bool(calls) == (case != "uniform")
    assert any(e["outside"] > 0 for ps in got["points"] for e in ps["series"]) == (case != "zero")


@settings(max_examples=60, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 40), st.just(3)), elements=st.floats(-1.0, 1.0)),
       st.integers(-1074, 900), st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5),
       st.sampled_from(SCAN_CASES), st.sampled_from([1, 7, 64]), st.floats(0.0, 0.05),
       st.floats(0.0, 0.05))
def test_counted_scan_matches_unpruned_reference(points, k, radii, case, block, err_xy, err_t):
    weights = np.full(len(points), 2.0**k)
    cloud = WeightedCloud(points, weights, float(weights.sum()), {"kind": "random"}, err_xy, err_t)
    bases = [O, Point.from_array(points[0]), Point.from_array(points[-1])]
    # a radius at a row's own distance puts that row on the sphere
    if (far := float(dist_many(points, O, E).max())) > 0:
        radii = radii + [far]
    args = (cloud, bases, radii, *case, "counted")
    # a tiny radius can take (c r)^s, or a ratio or band over it, past the
    # float range; the scan refuses exactly where the reference leaves it
    try:
        ref = _scan_ref(*args)
    except ValueError as exc:
        assert "not a finite positive number" in str(exc)
        refusal = "not a finite positive number"
    else:
        entries = [e.ratio for ps in ref.points for e in ps.series] + [ref.error_bound]
        refusal = None if all(map(math.isfinite, entries)) else "is not finite over the denominator"
    with mock.patch.object(probes, "_BLOCK", block), mock.patch.object(probes, "_mass", _no_gather):
        if refusal is None:
            _assert_scan_matches_ref(*args)
        else:
            with pytest.raises(ValueError, match=refusal):
                scan_density(*args)


def test_scan_of_an_empty_cloud_reads_zero():
    # no row, so no weight to test for one power of two
    cloud = WeightedCloud(np.zeros((0, 3)), np.zeros(0), 0.0, {"kind": "empty"})
    got = _assert_scan_matches_ref(cloud, [O], [0.5, 0.1], RhoRule("linear", 0.25), 1.0, "2r",
                                   "empty")
    assert got["summary"]["max_ratio"] == 0.0


def test_counted_scan_at_the_real_block_size(monkeypatch):
    # a uniform 2^17-row cloud, with balls across its three 2^15-row block edges
    seg = segment_cloud("t", -1.0, 1.0, 2**17)
    assert (seg.weights == 2.0**-16).all()
    monkeypatch.setattr(probes, "_mass", _no_gather)
    t = seg.points[:, 2]
    edge = probes._BLOCK
    assert len(seg) == 4 * edge
    bases = [Point(0.0, 0.0, 0.5 * (t[k * edge - 1] + t[k * edge])) for k in (1, 2, 3)]
    for rule, s, convention in ((RhoRule("linear", 0.25), 1.0, "(2r)^s"),
                                (RhoRule("fixed", 0.125), 1.0, "r^s")):
        got = _assert_scan_matches_ref(seg, bases + [Point(0.001, 0.0, t[-100])],
                                       [0.02, 0.005, 1e-4], rule, s, convention, "counted")
        assert all(e["outside"] > 0 for ps in got["points"] for e in ps["series"][:2])


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_scan_rounding_edges(monkeypatch, block):
    monkeypatch.setattr(probes, "_BLOCK", block)
    test_pruned_scan_rounding_edges()


def _ulps(x, n):
    """x and the n doubles on either side of it (held at the infinities)."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], -math.inf)))
        above.append(float(np.nextafter(above[-1], math.inf)))
    return below[:0:-1] + above


def _keep(r, e):
    return max(probes._band(r, e)[1], r + e)


# 0, subnormals, and 1e-300 to 1e300
MAGNITUDES = st.one_of(st.just(0.0), st.floats(5e-324, 2.0**-1022, exclude_max=True),
                       st.floats(1e-300, 1e300))


@settings(max_examples=300, deadline=None)
@given(MAGNITUDES, MAGNITUDES)
def test_thresholds_select_what_the_float_expressions_select(c, e):
    # the keep threshold at radius c and the band ends around c, each with the
    # doubles up to 4 ulps either side; the masks are the ones the scan replaced
    keep, (lo, hi) = _keep(c, e), probes._band(c, e)
    x = np.array([v for t in (keep, lo, hi, c, c + e, c - e) for v in _ulps(t, 4)])
    assert np.array_equal(x <= keep, (x - c <= e) | (x <= c + e))
    assert np.array_equal((x >= lo) & (x <= hi), np.abs(x - c) <= e)


def test_threshold_intervals_empty_and_full():
    big = RhoRule("quadratic", 2.0).rho(1e200)
    assert big == math.inf
    cases = [(big, 0.1), (big, math.inf), (big, 0.0), (0.5, 0.0), (0.0, 0.0), (0.5, math.inf),
             (0.5, 1e300), (math.inf, math.inf), (0.5, math.nan)]
    x = np.array([0.0, 5e-324, 1e-300, 0.4, 0.5, 0.6, 1e300, sys.float_info.max, math.inf,
                  math.nan] + _ulps(0.5, 2))
    for c, e in cases:
        lo, hi = probes._band(c, e)
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.abs(x - c) <= e
        assert np.array_equal((x >= lo) & (x <= hi), want), (c, e)
    # an infinite rho: no slab band, or every finite pd when the error is infinite
    assert probes._band(big, 0.1) == (math.inf, sys.float_info.max)
    assert probes._band(big, math.inf) == (-math.inf, sys.float_info.max)
    assert probes._band(0.5, 0.0) == (0.5, 0.5)
    assert probes._band(0.5, math.inf) == (-math.inf, math.inf)
    assert math.isnan(probes._band(0.5, math.nan)[1])
    assert _keep(0.5, 0.0) == 0.5 and _keep(0.5, math.inf) == math.inf


def test_threshold_search_asks_a_bounded_number_of_times():
    ends = [-math.inf, -sys.float_info.max, -1.0, -5e-324, 0.0, 5e-324, 1.0, 1e300,
            sys.float_info.max, math.inf]
    guesses = ends + [math.nan, -math.nan]
    for end in ends + [None]:
        for guess in guesses:
            calls = []

            def below(v):
                calls.append(v)
                return end is not None and v <= end

            got = probes._last(below, guess)
            assert got == end if end is not None else math.isnan(got)
            assert len(calls) <= 128, (end, guess)


def test_scan_with_empty_and_full_bands():
    # a huge radius under a quadratic rule has rho = inf; an err_t of 0 at base
    # points with y = 0 makes the slab band pd == rho, which rows at the fixed
    # rule's rho from O meet; an err_t of 1e300 puts every row in both bands
    t = np.concatenate([np.linspace(-1.0, 1.0, 41), [0.25, -0.125, 0.025]])
    points = np.concatenate([np.column_stack([t, 0.0 * t, 0.0 * t]),
                             np.column_stack([0.0 * t, 0.0 * t, t])])
    weights = np.linspace(1.0, 3.0, len(points)) ** 2
    bases = [O, Point(0.0, 0.0, 0.25), Point(0.5, 0.0, 0.0)]
    for err_xy, err_t in ((0.01, 0.0), (0.01, 0.02), (0.0, 1e300)):
        cloud = WeightedCloud(points, weights, float(weights.sum()), {"kind": "axes"}, err_xy,
                              err_t)
        for c in (cloud, _reweighted(cloud, np.full(len(points), 0.25))):
            for rule, radii in ((RhoRule("quadratic", 2.0), [1e200, 0.5, 0.25]),
                                (RhoRule("fixed", 0.5), [0.5, 0.25, 0.05])):
                got = _assert_scan_matches_ref(c, bases, radii, rule, 1.0, "2r", "bands")
                assert got["error_bound"] > 0.0


def _edge_rows(r, e, rho):
    """Doubles within 48 ulps of the scan's float edges at radius r, placement
    error e and width rho, each checked to hold a flip of its expression."""
    edges = [(r + e, lambda x: (x - r <= e) | (x <= r + e)), (r + e, lambda x: x - r <= e),
             (r - e, lambda x: x - r >= -e), (rho + e, lambda x: x - rho <= e),
             (rho - e, lambda x: x - rho >= -e), (r, lambda x: x <= r), (rho, lambda x: x <= rho)]
    rows = []
    for guess, flips in edges:
        x = np.array(_ulps(guess, 48))
        if x[-1] > 0.0:
            assert len(set(flips(x))) == 2
            rows.extend(x[x >= 0.0])
    return rows


# the placement error and the two radii of test_pruned_scan_rounding_edges: at
# r_a the keep threshold is the sphere band's upper end, at r_b it is fl(r + e)
EDGE_E, EDGE_RADII = 0.25909202707367274, (0.039265546881084884, 0.2745175275197104)
EDGE_RULES = [RhoRule("fixed", 2.0), RhoRule("fixed", 0.125)]


def _edge_cloud(distinct):
    """Rows on the t-axis (dE = pd = |t|) and on the x-axis (dE = |x|, pd = 0)
    at every double near each mask's edge at EDGE_RADII, placement error EDGE_E."""
    d = np.unique([x for r in EDGE_RADII for rule in EDGE_RULES
                   for x in _edge_rows(r, EDGE_E, rule.rho(r))])
    zero = np.zeros_like(d)
    points = np.concatenate([np.column_stack([zero, zero, d]), np.column_stack([d, zero, zero])])
    assert np.array_equal(dist_many(points, O, E), np.concatenate([d, d]))
    assert np.array_equal(plane_dist_many(points, O), np.concatenate([d, zero]))
    w = np.linspace(1.0, 3.0, len(points)) ** 2 if distinct else np.full(len(points), 2.0**-9)
    return WeightedCloud(points, w, float(w.sum()), {"kind": "edge"}, err_t=EDGE_E)


@pytest.mark.parametrize("distinct", [False, True], ids=["uniform", "distinct"])
def test_scan_threshold_rounding_edges(monkeypatch, distinct):
    cloud = _edge_cloud(distinct)
    if not distinct:
        monkeypatch.setattr(probes, "_mass", _no_gather)
    r_a, r_b = EDGE_RADII
    for rule in EDGE_RULES:
        for radii in ([r_a], [r_b], [r_b, r_a]):
            _assert_scan_matches_ref(cloud, [O], radii, rule, 1.0, "2r", "edge")


def test_scan_working_set_is_what_the_keep_expressions_keep(monkeypatch):
    # a row that no mask selects may stay in the working set without changing
    # any output, so the offsets themselves are checked: before radius r the
    # set holds the rows with fl(dE - r) <= e or dE <= fl(r + e) at r and at
    # every larger radius
    cloud = _edge_cloud(distinct=True)
    assert len(cloud) <= probes._BLOCK
    kept = {}
    radius_masks = probes._radius_masks

    def spy(*args):
        for run in radius_masks(*args):
            kept[run[0]] = run[1].copy()
            yield run

    monkeypatch.setattr(probes, "_radius_masks", spy)
    dE, e = dist_many(cloud.points, O, E), EDGE_E
    radii = sorted(EDGE_RADII + (0.5, 0.02), reverse=True)
    scan_density(cloud, [O], radii, EDGE_RULES[0], 1.0, "2r", "edge")
    want = np.ones(len(dE), dtype=bool)
    for i, r in enumerate(radii):
        want &= (dE - r <= e) | (dE <= r + e)
        assert np.array_equal(kept.get(i, []), np.flatnonzero(want)), r


def _line_cloud(x, e=0.0):
    """Equal weights summing to 1 on points of the x-axis, vertical placement error e."""
    points = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    return WeightedCloud(points, np.full(len(x), 1.0 / len(x)), 1.0, {"kind": "line"}, err_t=e)


def test_block_cull_keeps_a_row_at_the_reach(monkeypatch):
    # block 0 is one row at dE = fl(r + e) on the plane, where the slab band of
    # rho = 0 counts it, and three rows far away; block 1 is all far away
    monkeypatch.setattr(probes, "_BLOCK", 4)
    r, e = 0.3, 0.1
    cloud = _line_cloud(np.array([r + e, 10.0, 11.0, 12.0, 20.0, 21.0, 22.0, 23.0]), e)
    assert cloud.placement_error == e and dist_many(cloud.points[:1], O, E)[0] == r + e
    got = _assert_scan_matches_ref(cloud, [O], [r, 0.5 * r], RhoRule("fixed", 0.0), 1.0, "2r",
                                   "cull")
    assert got["error_bound"] == 0.125 / (2.0 * r)


def test_block_cull_far_base_point(monkeypatch):
    monkeypatch.setattr(probes, "_BLOCK", 7)
    cloud = _line_cloud(np.linspace(0.0, 1.0, 50), 0.01)
    far = Point(100.0, 0.0, 0.0)
    got = _assert_scan_matches_ref(cloud, [far], [2.0, 0.5],
                                   RhoRule("linear", 0.25), 1.0, "(2r)^s", "far")
    assert got["error_bound"] == 0.0
    assert all(e["inside"] == e["outside"] == e["ratio"] == 0.0
               for ps in got["points"] for e in ps["series"])

    # scanned together, each base point keeps its own cull; spies count the
    # block copies and each base point's block runs
    copies, runs = [], []
    block_rows, radius_masks = probes._block_rows, probes._radius_masks

    def copy_spy(points, start):
        copies.append(int(start))
        return block_rows(points, start)

    def run_spy(rows, p, *args):
        runs.append(p)
        return radius_masks(rows, p, *args)

    monkeypatch.setattr(probes, "_block_rows", copy_spy)
    monkeypatch.setattr(probes, "_radius_masks", run_spy)
    line = _line_cloud(np.linspace(0.0, 1.0, 64), 0.01)
    assert (line.weights == 2.0**-6).all()
    bases = [far, O, Point(0.1, 0.0, 0.0)]
    for cloud in (line, _reweighted(line, np.linspace(1.0, 3.0, 64) ** 2)):
        counted = cloud is line
        copies.clear()
        runs.clear()
        with monkeypatch.context() as m:
            if counted:
                m.setattr(probes, "_mass", _no_gather)
            got = _assert_scan_matches_ref(cloud, bases, [0.3, 0.1], RhoRule("linear", 0.25),
                                           1.0, "(2r)^s", "cull")
        # rows lie at x = i/63 and the reach is 0.31: O reaches blocks 0-2 and
        # (0.1, 0, 0) blocks 0-3
        assert [runs.count(p) for p in bases] == [0, 3, 4]
        # a counted scan copies each reached block once, a gathered one once
        # per base point that reaches it
        assert sorted(copies) == ([0, 7, 14, 21] if counted else [0, 0, 7, 7, 14, 14, 21])
        assert all(e["inside"] == e["outside"] == 0.0 for e in got["points"][0]["series"])
        assert all(e["inside"] > 0.0 for ps in got["points"][1:] for e in ps["series"])


def test_block_scan_with_a_short_last_block(monkeypatch, tseg):
    monkeypatch.setattr(probes, "_BLOCK", 64)
    assert len(tseg) % 64 == 32
    # distinct weights, so that a row index off by a block reads another weight
    cloud = _reweighted(tseg, np.linspace(1.0, 3.0, len(tseg)) ** 2)
    bases = [O, Point(0.0, 0.0, 1.0), Point(0.01, 0.0, -0.5)]
    for rule, s, convention in ((RhoRule("linear", 0.25), 1.0, "(2r)^s"),
                                (RhoRule("fixed", 0.125), 1.0, "r^s")):
        got = _assert_scan_matches_ref(cloud, bases, [1.5, 0.2, 0.01], rule, s, convention, "short")
        # at r = 0.01 the second base point's ball lies in the short last block,
        # which holds t in (0.984, 1]
        assert got["points"][1]["series"][-1]["outside"] > 0


def test_block_offsets_at_the_real_block_size():
    # offsets are uint16 inside 2^15-row blocks; distinct weights, so that an
    # offset read against the wrong block start reads another weight
    assert probes._BLOCK <= 2**16
    seg = segment_cloud("t", -1.0, 1.0, 70_000)
    cloud = _reweighted(seg, np.linspace(1.0, 3.0, len(seg)) ** 2)
    t = cloud.points[:, 2]
    edge = probes._BLOCK
    assert 2 * edge < len(cloud) < 3 * edge
    # balls inside the first block, across rows 32 767/32 768, and in the short last block
    bases = [Point(0.0, 0.0, t[10_000]), Point(0.0, 0.0, 0.5 * (t[edge - 1] + t[edge])),
             Point(0.001, 0.0, t[-100])]
    for rule, s, convention in ((RhoRule("linear", 0.25), 1.0, "(2r)^s"),
                                (RhoRule("fixed", 0.125), 1.0, "r^s")):
        got = _assert_scan_matches_ref(cloud, bases, [0.02, 0.005, 1e-4], rule, s, convention,
                                       "offsets")
        assert all(e["outside"] > 0 for ps in got["points"] for e in ps["series"][:2])


@pytest.mark.parametrize("radii, weights, per_row", [
    (None, "uniform", 20),
    (list(np.geomspace(1.2, 0.012, 17)), "uniform", 20),
    (None, "distinct", 48),
    (list(np.geomspace(1.2, 0.012, 17)), "distinct", 32),
], ids=["default", "criterion8", "default-distinct", "criterion8-distinct"])
def test_ex3_scan_memory_per_row(radii, weights, per_row):
    # a cloud of one power-of-two weight keeps only each selection's row count;
    # distinct weights keep a 2-byte block offset per selected row, and each
    # radius's offsets are dropped once summed
    cantor = cantor_cloud(0.5, 5)
    fs = product_cloud(hsquare_cloud(6), cantor)
    assert len(fs) == 131072
    if weights == "distinct":
        fs = _reweighted(fs, np.linspace(1.0, 3.0, len(fs)) ** 2)
    # an untraced run first, so that the peak leaves out one-time allocations
    ex3_probe(0.5, 6, 5, radii, base_count=12, fs_cloud=fs, cantor_cloud_in=cantor)
    tracemalloc.start()
    try:
        res = ex3_probe(0.5, 6, 5, radii, base_count=12, fs_cloud=fs, cantor_cloud_in=cantor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.extra["status"] == "ok"
    assert peak <= per_row * len(fs), peak / len(fs)


@pytest.mark.parametrize("libc", [None, object()], ids=["no-dlopen", "no-malloc-trim"])
def test_heap_trim_is_a_no_op_without_glibc(monkeypatch, libc):
    def cdll(name):
        if libc is None:
            raise OSError("cannot open the program's own symbols")
        return libc
    monkeypatch.setattr(dimension.ctypes, "CDLL", cdll)
    assert dimension._find_malloc_trim()(0) == 0


def test_rho_rules():
    assert RhoRule("power_law", 0.5).rho(0.04) == 0.04**1.5
    assert RhoRule("linear", 0.25).rho(0.2) == 0.05
    assert RhoRule("quadratic", 2.0).rho(0.1) == pytest.approx(0.02)
    assert RhoRule("fixed", 0.125).rho(0.4) == 0.05
    # the labels every probe JSON pins
    assert [RhoRule(rule, value).describe() for rule, value in (
        ("power_law", 0.5), ("linear", 0.25), ("quadratic", 2.0), ("fixed", 0.125))] == [
        {"rule": "power_law", "epsilon": 0.5}, {"rule": "linear", "delta": 0.25},
        {"rule": "quadratic", "M": 2.0}, {"rule": "fixed", "fraction": 0.125}]


def test_sandwich_direct_examples():
    # direct membership evaluations of the two-sided comparison
    p, r = O, 1.0
    q = Point(0.5, 0, 0)
    assert dist(q, p, E) <= r / 2
    assert dist_to_plane(q, p) == 0.0
    assert dist(q, p, H) == 0.5 <= r

    q = Point(0, 0, 0.9)
    assert dist(q, p, H) == pytest.approx(0.81**0.25)
    assert dist(q, p, H) <= r
    assert dist_to_plane(q, p) == 0.9 <= r * r
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


def test_sandwich_stream_without_samples():
    # 2 samples over 3 radii: the stream of r = 0.1 draws none and adds 0
    rep = sandwich_sample(2.0, (1.0, 0.3, 0.1), 2, 0)
    assert rep.samples == 2
    assert rep.inner_hits <= 2 and rep.outer_hits <= 2
    again = sandwich_sample(2.0, (1.0, 0.3, 0.1), 2, 0)
    assert sandwich_report_to_dict(again) == sandwich_report_to_dict(rep)


def test_sandwich_outer_ball_defect_witness():
    # the Euclidean-ball half of the outer inclusion fails off the t-axis:
    # q = p * (0, a, 0) keeps the gauge distance a but grows Euclidean distance
    # with the tilt 2|x0| a
    p = Point(2.0, 0.0, 0.0)
    q = Point(2.0, 0.29, 1.16)
    assert dist(q, p, H) <= 0.3
    assert dist(q, p, E) > 0.3
    assert dist_to_plane(q, p) <= 0.3**2
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


def test_sandwich_R_bound_follows_the_smallest_r():
    # R may reach 2^20 r for the smallest r, where the twist still resolves r^2
    assert sandwich_sample(2.0**20 * 0.25, (1.0, 0.25), 10, 0).outer_hits > 0
    with pytest.raises(ValueError, match="at most 2\\^20"):
        sandwich_sample(2.0**20 * 0.25 * (1 + 2**-52), (1.0, 0.25), 10, 0)


RANGE_CASES = [
    ("power_law", 0.0, "epsilon must lie in (0, 1), got 0.0"),
    ("power_law", 1.0, "epsilon must lie in (0, 1), got 1.0"),
    ("power_law", math.nan, "epsilon must lie in (0, 1), got nan"),
    ("linear", 0.0, "delta must be finite and positive, got 0.0"),
    ("linear", math.inf, "delta must be finite and positive, got inf"),
    ("linear", math.nan, "delta must be finite and positive, got nan"),
    ("quadratic", 1.0, "M must be > 1, got 1.0"),
    ("quadratic", math.nan, "M must be > 1, got nan"),
    ("fixed", -0.1, "fraction must be >= 0, got -0.1"),
    ("fixed", math.nan, "fraction must be >= 0, got nan"),
]


@pytest.mark.parametrize("rule, value, message", RANGE_CASES,
                         ids=[f"{rule}-{value}" for rule, value, _ in RANGE_CASES])
def test_rho_rule_range(rule, value, message):
    with pytest.raises(ValueError) as exc:
        RhoRule(rule, value)
    assert str(exc.value) == message
    if rule == "linear":  # thm2_scan checks delta before it scans
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            thm2_scan(segment_cloud("t", -1.0, 1.0, 16), [O], value, [0.5], s=1.0)


def test_sandwich_validations():
    for R in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            sandwich_sample(R, (0.5,), 10, 0)
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
