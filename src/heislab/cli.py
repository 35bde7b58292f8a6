"""Command-line frontend: construct clouds, estimate dimensions, run density
probes and the sandwich sampler, check the dimension-comparison band.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 assertion gate failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import _svg
from .constructions import (
    Example1,
    Example2,
    ResourceLimitError,
    build_family,
    cantor_cloud,
    example_cloud,
    hsquare_cloud,
    level_sides,
    load_cloud,
    product_cloud,
    save_cloud,
    segment_cloud,
    write_json,
)
from .dimension import (
    check_dimension_inequalities,
    delta_ladder,
    estimate_dimension,
    estimate_from_dict,
    estimate_to_dict,
    net_counts,
)
from .hgeom import MetricKind, Point
from .probes import (
    EX1_PANEL_X_MAX,
    ex1_scan,
    ex2_default_radii,
    ex2_scan,
    ex2_windows,
    ex3_probe,
    panel_from_cloud,
    panel_from_rects,
    probe_result_to_dict,
    sandwich_report_to_dict,
    sandwich_sample,
    thm1_scan,
    thm2_scan,
)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
ASSERT_ERROR = 4


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _radii_from_args(args) -> list[float] | None:
    if args.radii:
        return sorted(_parse_floats(args.radii), reverse=True)
    if args.r_min is not None and args.r_max is not None:
        return delta_ladder(args.r_max, args.r_min, args.r_count)
    return None


def _source_param(cloud, probe: str, key: str) -> float:
    try:
        return float(cloud.source[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"probe {probe} needs a number {key} in the sidecar source") from None


def _base_points(args, cloud, family=None, x_max=None) -> list[Point]:
    if args.base_point:
        return [Point(*_parse_floats(s)) for s in args.base_point]
    if family is not None:
        return panel_from_rects(family, args.base_count, x_max=x_max)
    return panel_from_cloud(cloud, args.base_count)


def cmd_construct(args) -> int:
    kind = args.set
    if kind == "ex1":
        cloud = example_cloud(Example1(), args.level, args.samples_per_rect)
    elif kind == "ex2":
        ex2_windows(args.M, args.level)  # the ex2 probe needs a window at this level
        cloud = example_cloud(Example2(args.M), args.level, args.samples_per_rect)
    elif kind == "hsquare":
        cloud = hsquare_cloud(args.depth)
    elif kind == "cantor":
        cloud = cantor_cloud(args.d, args.depth)
    elif kind == "fs":
        cloud = product_cloud(hsquare_cloud(args.depth), cantor_cloud(args.d, args.cantor_depth))
    elif kind == "xseg":
        cloud = segment_cloud("x", 0.0, 1.0, args.points)
    elif kind == "tseg":
        cloud = segment_cloud("t", -1.0, 1.0, args.points)
    else:
        raise ValueError(f"unknown set {kind!r}")
    save_cloud(cloud, args.out)
    if args.svg:
        vertical = kind in ("ex1", "ex2", "cantor", "xseg", "tseg", "fs")
        xs = cloud.points[:, 0]
        ys = cloud.points[:, 2] if vertical else cloud.points[:, 1]
        _svg.svg_scatter(xs, ys, args.svg)
    print(f"wrote {len(cloud)} points, total mass {cloud.total_mass}")
    return 0


def cmd_dimension(args) -> int:
    cloud = load_cloud(args.infile)
    metric = MetricKind(args.metric)
    deltas = delta_ladder(args.delta_max, args.delta_min, args.scales)
    counts = net_counts(cloud, deltas, metric)
    est = estimate_dimension(counts, metric=metric)
    write_json(estimate_to_dict(est), args.out)
    if args.svg:
        xs = np.log10([1.0 / c.delta for c in est.counts])
        ys = np.log10([c.count for c in est.counts])
        _svg.svg_polyline(xs, ys, args.svg)
    print(f"slope {est.slope:.4f} (r^2 {est.r_squared:.4f})")
    return 0


def _probe_gate(result, probe: str) -> bool:
    s = result.summary
    if probe == "ex1":
        return s["min_ratio"] >= 0.125 - 0.02
    if probe == "ex2":
        return s["min_ratio"] >= 0.0625 - 0.01
    if probe == "thm1":
        mins = [min(e.ratio for e in ps.series) for ps in result.points]
        ok = sum(1 for m in mins if m <= 0.05)
        return ok >= 0.9 * len(mins)
    if probe == "thm2":
        return s["max_ratio"] > 2.0 ** (-(result.s + 1.0))
    if probe == "ex3":
        # worst-over-panel ratio at each radius: the empirical uniform lower
        # envelope must stay positive and stable across the radius decades
        by_r: dict[float, list[float]] = {}
        for ps in result.points:
            for e in ps.series:
                by_r.setdefault(e.r, []).append(e.ratio)
        envelope = [min(v) for _, v in sorted(by_r.items())]
        if not envelope or min(envelope) <= 0:
            return False
        return min(envelope) >= 0.5 * float(np.median(envelope))
    raise ValueError(f"no gate for probe {probe!r}")


def cmd_density(args) -> int:
    cloud = load_cloud(args.infile)
    probe, kind = args.probe, cloud.source.get("kind")
    radii = _radii_from_args(args)
    need = {"ex1": "ex1", "ex2": "ex2", "ex3": "fs"}.get(probe, kind)  # thm1, thm2: any cloud
    if need != kind:
        raise ValueError(f"probe {probe} needs a {need!r} cloud, got {kind!r}")
    if probe in ("thm1", "thm2") and radii is None:
        raise ValueError(f"probe {probe} needs radii (--radii or --r-min/--r-max)")
    if probe == "ex1":
        params = Example1()
        family = build_family(params, cloud.level)
        h_by_level = {k: level_sides(params, k)[0] for k in range(cloud.level + 1)}
        bases = _base_points(args, cloud, family, x_max=EX1_PANEL_X_MAX)
        result = ex1_scan(cloud, h_by_level, range(1, cloud.level), bases)
    elif probe == "ex2":
        M = _source_param(cloud, probe, "M")
        family = build_family(Example2(M), cloud.level)
        bases = _base_points(args, cloud, family)
        if radii is None:
            radii = ex2_default_radii(M, cloud.level)
        result = ex2_scan(cloud, M, cloud.level, radii, bases)
    elif probe == "ex3":
        d = _source_param(cloud, probe, "d")
        if not args.cantor_in:
            raise ValueError("probe ex3 needs --cantor-in")
        cantor = load_cloud(args.cantor_in)
        if cantor.source.get("kind") != "cantor" or cantor.source.get("d") != d:
            raise ValueError(f"--cantor-in needs a cantor cloud with d={d}, got {cantor.source}")
        if radii is None:
            radii = delta_ladder(5.0, 0.05, 17)
        result = ex3_probe(d, 0, 0, radii, base_count=args.base_count,
                           fs_cloud=cloud, cantor_cloud_in=cantor)
    elif probe == "thm1":
        result = thm1_scan(cloud, _base_points(args, cloud), args.epsilon, radii, s=args.s)
    else:
        result = thm2_scan(cloud, _base_points(args, cloud), args.delta, radii, s=args.s)
    write_json(probe_result_to_dict(result), args.out)
    print(f"min ratio {result.summary['min_ratio']:.6g}, "
          f"max ratio {result.summary['max_ratio']:.6g}")
    if args.do_assert and not _probe_gate(result, probe):
        print("assertion gate failed", file=sys.stderr)
        return ASSERT_ERROR
    return 0


def cmd_sandwich(args) -> int:
    rep = sandwich_sample(args.R, _parse_floats(args.r_values), args.samples, args.seed)
    write_json(sandwich_report_to_dict(rep), args.out)
    print(f"inner violations {rep.inner_violations}, outer violations {rep.outer_violations}")
    if args.do_assert and (rep.inner_violations or rep.outer_violations):
        print("assertion gate failed", file=sys.stderr)
        return ASSERT_ERROR
    return 0


def _load_estimate(path: str):
    try:
        return estimate_from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path} is not a dimension estimate: {exc!r}") from None


def cmd_compare(args) -> int:
    dE, dH = _load_estimate(args.dimE), _load_estimate(args.dimH)
    verdict = check_dimension_inequalities(dE.slope, dH.slope, args.tol)
    out = {
        "ok": verdict.ok,
        "dimE": dE.slope,
        "dimH": dH.slope,
        "beta_minus": verdict.beta_lower,
        "beta_plus": verdict.beta_upper,
        "lower_margin": verdict.lower_margin,
        "upper_margin": verdict.upper_margin,
        "tol": verdict.tol,
    }
    if args.out:
        write_json(out, args.out)
    print(f"ok: {str(verdict.ok).lower()}")
    if args.do_assert and not verdict.ok:
        return ASSERT_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heislab")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a point cloud and write CSV + sidecar")
    c.add_argument("--set", required=True,
                   choices=["ex1", "ex2", "hsquare", "cantor", "fs", "xseg", "tseg"])
    c.add_argument("--level", type=int, default=3)
    c.add_argument("--M", type=float, default=2.0)
    c.add_argument("--d", type=float, default=0.5)
    c.add_argument("--depth", type=int, default=6)
    c.add_argument("--cantor-depth", type=int, default=6)
    c.add_argument("--samples-per-rect", type=int, default=1)
    c.add_argument("--points", type=int, default=4096)
    c.add_argument("--out", required=True)
    c.add_argument("--svg")
    c.set_defaults(func=cmd_construct)

    d = sub.add_parser("dimension", help="net counts and log-log slope")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--metric", required=True, choices=["euclidean", "heisenberg"])
    d.add_argument("--delta-min", type=float, required=True)
    d.add_argument("--delta-max", type=float, required=True)
    d.add_argument("--scales", type=int)
    d.add_argument("--out", required=True)
    d.add_argument("--svg")
    d.set_defaults(func=cmd_dimension)

    p = sub.add_parser("density", help="plane-neighborhood density probes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probe", required=True, choices=["thm1", "thm2", "ex1", "ex2", "ex3"])
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--radii")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--r-count", type=int)
    p.add_argument("--base-count", type=int, default=12)
    p.add_argument("--base-point", action="append")
    p.add_argument("--cantor-in")
    p.add_argument("--out", required=True)
    p.add_argument("--assert", dest="do_assert", action="store_true")
    p.set_defaults(func=cmd_density)

    s = sub.add_parser("sandwich", help="two-sided ball vs plane-slab lens sampler")
    s.add_argument("--R", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--r-values", default="1,0.3,0.1")
    s.add_argument("--out", required=True)
    s.add_argument("--assert", dest="do_assert", action="store_true")
    s.set_defaults(func=cmd_sandwich)

    m = sub.add_parser("compare", help="dimension-comparison band verdict")
    m.add_argument("--dimE", required=True)
    m.add_argument("--dimH", required=True)
    m.add_argument("--tol", type=float, default=0.1)
    m.add_argument("--out")
    m.add_argument("--assert", dest="do_assert", action="store_true")
    m.set_defaults(func=cmd_compare)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
