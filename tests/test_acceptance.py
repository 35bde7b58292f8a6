"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 (two-sided ball sandwich) carries the comparison constant
c_R = 3(1+R) on its Euclidean half. Write q = p*u with rho = |p_h| <= R and
|u|_H <= r <= 1; then |u_h| <= r, |u_t| <= r^2 and the tilt is at most 2*rho*r,
so d_E(p, q) <= r*sqrt(1 + (r + 2*rho)^2) <= 2(1+R)*r <= c_R*r.
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from heislab.constructions import (
    Example1,
    build_family,
    cantor_cloud,
    family_cloud,
    hsquare_cloud,
    level_sides,
    product_cloud,
    segment_cloud,
)
from heislab.dimension import (
    check_dimension_inequalities,
    estimate_dimension,
    fit_metric_comparison,
    net_counts,
)
from heislab.hgeom import MetricKind, Point, dist_pairs
from heislab.probes import (
    ex1_scan,
    ex2_probe,
    ex3_probe,
    panel_from_rects,
    sandwich_sample,
    thm1_scan,
    thm2_scan,
)

E = MetricKind.EUCLIDEAN
H = MetricKind.HEISENBERG


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ex1_level4():
    family = build_family(Example1(), 4)
    cloud = family_cloud(family, 4, kind="ex1")
    return family, cloud


@pytest.fixture(scope="module")
def fs_clouds():
    cantor = cantor_cloud(0.5, 6)
    fs = product_cloud(hsquare_cloud(8), cantor)
    return fs, cantor


def test_criterion_1_ex1_fixed_fraction_bound(ex1_level4):
    t0 = time.perf_counter()
    family, cloud = ex1_level4
    h_by = {k: level_sides(Example1(), k)[0] for k in range(5)}
    bases = panel_from_rects(family, 12, x_max=0.75)
    res = ex1_scan(cloud, h_by, (1, 2, 3), bases)
    elapsed = time.perf_counter() - t0
    worst = min(e.ratio for ps in res.points for e in ps.series)
    ok = worst >= 0.125 - 0.02 and res.error_bound <= 0.02 and elapsed <= 60
    report(1, ok, f"ex1 min ratio {worst:.4f} >= 0.105, "
                  f"error bound {res.error_bound:.2e} <= 0.02, {elapsed:.1f}s")
    assert worst >= 0.125 - 0.02
    assert res.error_bound <= 0.02
    assert elapsed <= 60


def test_criterion_2_ex1_liminf_contrast(ex1_level4):
    t0 = time.perf_counter()
    family, cloud = ex1_level4
    h2 = level_sides(Example1(), 2)[0]
    h4 = level_sides(Example1(), 4)[0]
    bases = panel_from_rects(family, 20)
    decades = math.log10(h2 / h4)
    radii = np.geomspace(h2, h4, max(3, int(round(8 * decades)) + 1))
    res = thm1_scan(cloud, bases, 0.5, radii, s=1.0)
    elapsed = time.perf_counter() - t0
    mins = [min(e.ratio for e in ps.series) for ps in res.points]
    frac = sum(1 for m in mins if m <= 0.05) / len(mins)
    ok = frac >= 0.9 and elapsed <= 60
    report(2, ok, f"thm1 min <= 0.05 at {frac:.0%} of base points "
                  f"(need >= 90%), {elapsed:.1f}s")
    assert frac >= 0.9
    assert elapsed <= 60


def test_criterion_3_ex2_quadratic_neighborhood_bound():
    t0 = time.perf_counter()
    res = ex2_probe(2.0, 10, samples_per_rect=4, base_count=12)
    elapsed = time.perf_counter() - t0
    worst = res.summary["min_ratio"]
    ok = worst >= 0.0625 - 0.01 and elapsed <= 60
    report(3, ok, f"ex2 min ratio {worst:.4f} >= 0.0525 over windows "
                  f"k={res.extra['window_levels']}, {elapsed:.1f}s")
    assert worst >= 0.0625 - 0.01
    assert elapsed <= 60


def test_criterion_4_vertical_linear_neighborhood():
    t0 = time.perf_counter()
    tseg = segment_cloud("t", -1.0, 1.0, 16384)
    bases = [Point(0, 0, 0), Point(0, 0, 0.3), Point(0, 0, -0.3)]
    res = thm2_scan(tseg, bases, 0.25, np.geomspace(0.2, 0.02, 9), s=1.0)
    elapsed = time.perf_counter() - t0
    top = res.summary["max_ratio"]
    ok = 0.70 <= top <= 0.80 and top > 0.25 and elapsed <= 10
    report(4, ok, f"t-segment max ratio {top:.4f} in [0.70, 0.80] "
                  f"(oracle 0.75), {elapsed:.1f}s")
    assert 0.70 <= top <= 0.80
    assert top > 2.0 ** -(1 + 1)
    assert elapsed <= 10


def test_criterion_5_dimension_estimates(fs_clouds):
    t0 = time.perf_counter()
    fs, _ = fs_clouds
    xseg = segment_cloud("x", 0.0, 1.0, 4096)
    tseg = segment_cloud("t", -1.0, 1.0, 16384)
    cantor = cantor_cloud(0.5, 7)
    qh = hsquare_cloud(7)

    dyadic = [2.0**-j for j in range(2, 9)]
    counts = {
        "xseg": (net_counts(xseg, dyadic, E), net_counts(xseg, dyadic, H)),
        "tseg": (net_counts(tseg, dyadic, E), net_counts(tseg, np.geomspace(0.5, 0.0625, 8), H)),
        "cantor": (net_counts(cantor, [4.0**-j for j in range(1, 6)], E),
                   net_counts(cantor, [2.0**-j for j in range(1, 6)], H)),
        "fs": (net_counts(fs, np.geomspace(0.3, 0.02, 8), E),
               net_counts(fs, np.geomspace(0.8, 0.1, 8), H)),
    }
    est = {name: (estimate_dimension(ce, metric=E), estimate_dimension(ch, metric=H))
           for name, (ce, ch) in counts.items()}
    qh_counts = net_counts(qh, np.geomspace(0.64, 0.08, 8), H)
    qh_h = estimate_dimension(qh_counts, metric=H)
    elapsed = time.perf_counter() - t0

    targets = {
        "xseg": ((1.0, 0.05), (1.0, 0.10)),
        "tseg": ((1.0, 0.05), (2.0, 0.15)),
        "cantor": ((0.5, 0.10), (1.0, 0.15)),
        "fs": ((2.5, 0.25), (3.0, 0.30)),
    }
    lines = []
    all_ok = True
    for name, (ee, eh) in est.items():
        (te, tole), (th, tolh) = targets[name]
        ok_e = abs(ee.slope - te) <= tole
        ok_h = abs(eh.slope - th) <= tolh
        verdict = check_dimension_inequalities(ee.slope, eh.slope, tol=0.1)
        all_ok &= ok_e and ok_h and verdict.ok
        lines.append(f"{name} E {ee.slope:.3f}/{te} H {eh.slope:.3f}/{th} band={verdict.ok}")
    ok_qh = abs(qh_h.slope - 2.0) <= 0.2
    all_ok &= ok_qh and elapsed <= 600
    lines.append(f"hsquare H {qh_h.slope:.3f}/2.0")
    report(5, all_ok, "; ".join(lines) + f"; {elapsed:.0f}s")

    for name, (ee, eh) in est.items():
        (te, tole), (th, tolh) = targets[name]
        assert abs(ee.slope - te) <= tole, (name, ee.slope)
        assert abs(eh.slope - th) <= tolh, (name, eh.slope)
        assert check_dimension_inequalities(ee.slope, eh.slope, tol=0.1).ok, name
    assert abs(qh_h.slope - 2.0) <= 0.2
    assert elapsed <= 600
    # exact net counts, recorded once and never regenerated to absorb a change
    golden = json.loads((Path(__file__).parent / "golden_net_counts.json").read_text())
    observed = {name: {"E": [c.count for c in ce], "H": [c.count for c in ch]}
                for name, (ce, ch) in counts.items()}
    observed["hsquare"] = {"H": [c.count for c in qh_counts]}
    assert observed == golden


def test_criterion_6_ball_sandwich_as_stated():
    t0 = time.perf_counter()
    R, r_values, n = 2.0, (1.0, 0.3, 0.1), 100_000
    rep = sandwich_sample(R, r_values, n, seed=1)
    # Euclidean half at the comparison radius c_R * r (derivation in the module
    # docstring); sandwich_sample counts it at the literal radius r, where it is
    # false off the t-axis (witness: tests/test_probes.py)
    c_R = 3.0 * (1.0 + R)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(1)))
    members = ball_bad = 0
    worst = 0.0
    for i, r in enumerate(r_values):
        m = n // len(r_values) + (i < n % len(r_values))
        theta = rng.uniform(0.0, 2.0 * math.pi, m)
        rad = R * np.sqrt(rng.random(m))
        P = np.column_stack([rad * np.cos(theta), rad * np.sin(theta), rng.uniform(-1.0, 1.0, m)])
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        a = r * np.sqrt(rng.random(m))
        ux, uy = a * np.cos(phi), a * np.sin(phi)
        ut = rng.uniform(-r * r, r * r, m)
        Q = np.column_stack([P[:, 0] + ux, P[:, 1] + uy,
                             P[:, 2] + ut + 2.0 * (P[:, 0] * uy - ux * P[:, 1])])
        in_ball = dist_pairs(P, Q, H) <= r
        dE = dist_pairs(P, Q, E)[in_ball]
        members += int(in_ball.sum())
        ball_bad += int((dE > c_R * r).sum())
        worst = max(worst, float(dE.max()) / r)
    elapsed = time.perf_counter() - t0
    ok = (rep.inner_violations == 0 and rep.outer_plane_violations == 0
          and ball_bad == 0 and elapsed <= 30)
    report(6, ok, f"inner violations {rep.inner_violations}, plane-half violations "
                  f"{rep.outer_plane_violations}, euclidean-half violations at c_R*r "
                  f"{ball_bad} of {members} (max dE/r {worst:.3f} <= c_R = {c_R:g}), "
                  f"{elapsed:.1f}s")
    assert elapsed <= 30
    assert rep.inner_violations == 0
    assert rep.outer_plane_violations == 0
    assert ball_bad == 0, (
        f"{ball_bad} of {members} sampled gauge-ball members exceeded "
        f"Euclidean distance c_R*r = {c_R:g}r"
    )


def test_criterion_7_metric_comparison():
    t0 = time.perf_counter()
    rep = fit_metric_comparison(R=2.0, samples=100_000, seed=7)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(77)))
    t1 = rng.uniform(-2, 2, 100_000)
    t2 = rng.uniform(-2, 2, 100_000)
    keep = t1 != t2
    dt = np.abs(t1[keep] - t2[keep])
    ratio = (dt * dt) ** 0.25 / np.sqrt(dt)
    sup_axis = float(ratio.max())
    lo_axis = float(ratio.min())
    elapsed = time.perf_counter() - t0
    ok = (
        0 < rep.sup_ratio_lower <= 9.0
        and 0 < rep.sup_ratio_upper <= 9.0
        and abs(sup_axis - 1.0) <= 1e-9
        and abs(lo_axis - 1.0) <= 1e-9
        and elapsed <= 30
    )
    report(7, ok, f"sup dE/dH {rep.sup_ratio_lower:.3f} <= 9, "
                  f"sup dH/sqrt(dE) {rep.sup_ratio_upper:.3f} <= 9, "
                  f"t-axis sup {sup_axis:.12f}, {elapsed:.1f}s")
    assert 0 < rep.sup_ratio_lower <= 9.0
    assert 0 < rep.sup_ratio_upper <= 9.0
    assert abs(sup_axis - 1.0) <= 1e-9
    assert elapsed <= 30


def test_criterion_8_product_set_positivity(fs_clouds):
    t0 = time.perf_counter()
    fs, cantor = fs_clouds
    radii = list(np.geomspace(1.2, 0.012, 17))  # two decades
    res = ex3_probe(0.5, 8, 6, radii, base_count=12, fs_cloud=fs, cantor_cloud_in=cantor)
    elapsed = time.perf_counter() - t0
    assert res.extra["status"] == "ok"
    c0, cd = res.extra["c0"], res.extra["c_d"]
    by_r = {}
    for ps in res.points:
        for e in ps.series:
            by_r.setdefault(e.r, []).append(e.ratio)
    envelope = [min(v) for _, v in sorted(by_r.items())]
    floor = min(envelope)
    med = statistics.median(envelope)
    # direct recheck of the annulus lower bound on the Cantor cloud
    t = cantor.points[:, 2]
    annulus_ok = True
    for tc in t[:: max(1, len(t) // 24)]:
        for r in (rr for rr in radii if rr < 1):
            m = float(cantor.weights[(np.abs(t - tc) >= c0 * r) & (np.abs(t - tc) <= r / 4)].sum())
            annulus_ok &= m >= cd * r**0.5 - 1e-12
    ok = floor > 0 and floor >= 0.5 * med and c0 > 0 and cd > 0 and annulus_ok and elapsed <= 300
    report(8, ok, f"uniform lower envelope min {floor:.4f} >= 0.5 x median {med:.4f}, "
                  f"c0 {c0}, c_d {cd:.4f}, annulus bound {annulus_ok}, {elapsed:.0f}s")
    assert floor > 0
    assert floor >= 0.5 * med
    assert c0 > 0 and cd > 0
    assert annulus_ok
    assert elapsed <= 300


def test_criterion_9_metric_axioms():
    t0 = time.perf_counter()
    n = 100_000
    rng = np.random.Generator(np.random.Philox(key=np.uint64(99)))

    def ball(count):
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * (2.0 * rng.random(count) ** (1 / 3))[:, None]

    P, O, Q, G = ball(n), ball(n), ball(n), ball(n)

    def dh(A, B):
        dx = A[:, 0] - B[:, 0]
        dy = A[:, 1] - B[:, 1]
        horiz = dx * dx + dy * dy
        tw = A[:, 2] - B[:, 2] - 2.0 * (B[:, 0] * A[:, 1] - A[:, 0] * B[:, 1])
        return (horiz * horiz + tw * tw) ** 0.25

    sym = float(np.max(np.abs(dh(P, Q) - dh(Q, P))))
    ident = float(np.max(dh(P, P)))
    d_pq, d_po, d_oq = dh(P, Q), dh(P, O), dh(O, Q)
    tri_bad = int((d_pq > (d_po + d_oq) * (1 + 1e-9)).sum())

    def lmul(g, a):
        out = np.empty_like(a)
        out[:, 0] = g[:, 0] + a[:, 0]
        out[:, 1] = g[:, 1] + a[:, 1]
        out[:, 2] = g[:, 2] + a[:, 2] + 2.0 * (g[:, 0] * a[:, 1] - a[:, 0] * g[:, 1])
        return out

    d_t = dh(lmul(G, P), lmul(G, Q))
    left_bad = int((np.abs(d_t - d_pq) > 1e-9 * (1.0 + d_pq)).sum())

    lam = rng.uniform(0.1, 2.0, n)
    def dil(a):
        out = a * lam[:, None]
        out[:, 2] = a[:, 2] * lam * lam
        return out
    d_s = dh(dil(P), dil(Q))
    hom_bad = int((np.abs(d_s - lam * d_pq) > 1e-9 * (1.0 + lam * d_pq)).sum())

    elapsed = time.perf_counter() - t0
    ok = (sym == 0.0 and ident == 0.0 and tri_bad == 0 and left_bad == 0
          and hom_bad == 0 and elapsed <= 30)
    report(9, ok, f"symmetry max dev {sym}, identity max {ident}, triangle "
                  f"violations {tri_bad}, left-invariance violations {left_bad}, "
                  f"homogeneity violations {hom_bad}, {elapsed:.1f}s")
    assert sym == 0.0
    assert ident == 0.0
    assert tri_bad == 0
    assert left_bad == 0
    assert hom_bad == 0
    assert elapsed <= 30
