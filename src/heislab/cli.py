"""Command-line frontend: construct clouds, estimate dimensions, run density
probes and the sandwich sampler, check the dimension-comparison band.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 assertion gate failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import _svg
from .constructions import (
    Example1,
    Example2,
    ResourceLimitError,
    cantor_cloud,
    example_cloud,
    hsquare_cloud,
    json_number,
    load_cloud,
    product_cloud,
    save_cloud,
    segment_cloud,
    write_json,
    write_text,
)
from .dimension import (
    MIN_SCALES,
    check_dimension_inequalities,
    delta_ladder,
    estimate_dimension,
    estimate_from_dict,
    estimate_to_dict,
    net_counts,
)
from .hgeom import MetricKind, Point
from .probes import (
    ex1_probe,
    ex2_probe,
    ex2_windows,
    ex3_probe,
    panel_from_cloud,
    probe_result_to_dict,
    sandwich_report_to_dict,
    sandwich_sample,
    thm1_scan,
    thm2_scan,
)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
ASSERT_ERROR = 4


def _ex2_cloud(o):
    ex2_windows(o.M, o.level)  # the ex2 probe needs a window at this level
    return example_cloud(Example2(o.M), o.level, o.samples_per_rect)


# each set construct builds: the options it reads with their defaults, which also
# give each option its type, and its builder, called on the filled-in options
_SETS = {
    "ex1": ({"level": 3, "samples_per_rect": 1},
            lambda o: example_cloud(Example1(), o.level, o.samples_per_rect)),
    "ex2": ({"M": 2.0, "level": 9, "samples_per_rect": 1}, _ex2_cloud),
    "hsquare": ({"depth": 6}, lambda o: hsquare_cloud(o.depth)),
    "cantor": ({"d": 0.5, "depth": 6}, lambda o: cantor_cloud(o.d, o.depth)),
    "fs": ({"d": 0.5, "depth": 6, "cantor_depth": 6},
           lambda o: product_cloud(hsquare_cloud(o.depth), cantor_cloud(o.d, o.cantor_depth))),
    "xseg": ({"points": 4096}, lambda o: segment_cloud("x", 0.0, 1.0, o.points)),
    "tseg": ({"points": 4096}, lambda o: segment_cloud("t", -1.0, 1.0, o.points)),
}
_SET_OPTIONS = {kind: options for kind, (options, _) in _SETS.items()}

# the options each probe reads, with their defaults; a default of ... is none, the
# option must be given. ex1's radii are tied to the cloud's levels, ex2 and ex3 have
# their own, and ex3 strides its own panel
_RADII = dict.fromkeys(("radii", "r_min", "r_max", "r_count"))
_PANEL = {"base_count": 12, "base_point": None}
_DENSITY_OPTIONS = {
    "thm1": {"epsilon": 0.5, "s": 1.0, **_RADII, "radii": ..., **_PANEL},
    "thm2": {"delta": 0.25, "s": 1.0, **_RADII, "radii": ..., **_PANEL},
    "ex1": _PANEL,
    "ex2": {**_RADII, **_PANEL},
    "ex3": {"cantor_in": ..., **_RADII, "base_count": 12},
}


def _numbers(text: str) -> list[float]:
    """A comma-separated list of numbers; empty fields are skipped."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


def _count(text: str) -> int:
    """A whole number >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _point(text: str) -> Point:
    """x,y,t: three finite numbers."""
    try:
        return Point(*_numbers(text))
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not three finite numbers x,y,t: {text!r}") from None


def _read_options(args, table: dict, choice: str, what: str, fold=None) -> None:
    """Fill in the defaults of the options of `table` that `choice` reads. One
    that is given but not read is a usage error, and so is one left out whose
    default is `...`; `fold(args)` runs between the two checks."""
    reads = table[choice]
    options = dict.fromkeys(key for row in table.values() for key in row)
    unread = [f"--{key.replace('_', '-')}" for key in options
              if key not in reads and getattr(args, key) is not None]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")
    if fold:
        fold(args)
    for key, default in reads.items():
        if getattr(args, key) is None:
            if default is ...:
                hint = " or --r-min/--r-max" if key == "radii" else ""
                raise ValueError(f"{what} needs --{key.replace('_', '-')}{hint}")
            setattr(args, key, default)


def _fold_radii(args) -> None:
    """Fold --r-min/--r-max/--r-count into --radii. The pair comes together and
    makes a log ladder; the probes check the radii."""
    if (args.r_min is None) != (args.r_max is None):
        raise ValueError("--r-min and --r-max go together")
    if args.r_min is None and args.r_count is not None:
        raise ValueError("--r-count needs --r-min and --r-max")
    if args.r_min is not None and args.radii is not None:
        raise ValueError("--radii excludes --r-min/--r-max")
    if args.r_min is not None:
        args.radii = delta_ladder(args.r_max, args.r_min, args.r_count)


def _source_param(cloud, probe: str, key: str):
    """The construction parameter `key` from the cloud's sidecar source: the
    family level as an integer, M and d as floats."""
    need = "an integer" if key == "level" else "a number"
    return json_number(cloud.source.get(key), f"probe {probe} needs {need} {key} in the "
                       "sidecar source", integer=key == "level")


def cmd_construct(args) -> int:
    _read_options(args, _SET_OPTIONS, args.set, f"set {args.set}")
    cloud = _SETS[args.set][1](args)
    save_cloud(cloud, args.out)
    if args.svg:
        ys = cloud.points[:, 1 if args.set == "hsquare" else 2]
        write_text(_svg.svg_scatter(cloud.points[:, 0], ys), args.svg)
    print(f"wrote {len(cloud)} points, total mass {cloud.total_mass}")
    return 0


def cmd_dimension(args) -> int:
    metric = MetricKind(args.metric)
    deltas = delta_ladder(args.delta_max, args.delta_min, args.scales)
    if len(deltas) < MIN_SCALES:
        raise ValueError(f"--scales {args.scales}: a fit needs at least {MIN_SCALES} scales")
    counts = net_counts(load_cloud(args.infile), deltas, metric)
    est = estimate_dimension(counts, metric=metric)
    write_json(estimate_to_dict(est), args.out)
    if args.svg:
        xs = np.log10([1.0 / c.delta for c in est.counts])
        ys = np.log10([c.count for c in est.counts])
        write_text(_svg.svg_polyline(xs, ys), args.svg)
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
    # ex3: the worst-over-panel ratio at each radius, the empirical uniform lower
    # envelope, must stay positive and stable across the radius decades. Every base
    # point scans the same radii in the same order; a degenerate probe fails
    if result.extra["status"] != "ok":
        return False
    envelope = np.min([[e.ratio for e in ps.series] for ps in result.points], axis=0)
    worst = envelope.min()
    return worst > 0 and worst >= 0.5 * np.median(envelope)


def cmd_density(args) -> int:
    probe = args.probe
    if args.base_count is not None and args.base_point:
        raise ValueError("--base-count sizes the panel that --base-point replaces; "
                         "give one of them")
    _read_options(args, _DENSITY_OPTIONS, probe, f"probe {probe}", fold=_fold_radii)
    if args.base_count < 1:
        raise ValueError(f"--base-count {args.base_count}: a probe needs at least one base point")
    cloud = load_cloud(args.infile)
    kind = cloud.source.get("kind")
    need = {"ex1": "ex1", "ex2": "ex2", "ex3": "fs"}.get(probe, kind)  # thm1, thm2: any cloud
    if need != kind:
        raise ValueError(f"probe {probe} needs a {need!r} cloud, got {kind!r}")
    if probe == "ex1":
        result = ex1_probe(_source_param(cloud, probe, "level"), base_count=args.base_count,
                           cloud=cloud, base_points=args.base_point)
    elif probe == "ex2":
        M, level = _source_param(cloud, probe, "M"), _source_param(cloud, probe, "level")
        result = ex2_probe(M, level, args.radii, base_count=args.base_count,
                           cloud=cloud, base_points=args.base_point)
    elif probe == "ex3":
        d = _source_param(cloud, probe, "d")
        cantor = load_cloud(args.cantor_in)
        if cantor.source.get("kind") != "cantor" or cantor.source.get("d") != d:
            raise ValueError(f"--cantor-in needs a cantor cloud with d={d}, got {cantor.source}")
        result = ex3_probe(d, 0, 0, args.radii, base_count=args.base_count,
                           fs_cloud=cloud, cantor_cloud_in=cantor)
    else:
        bases = args.base_point or panel_from_cloud(cloud, args.base_count)
        scan, width = (thm1_scan, args.epsilon) if probe == "thm1" else (thm2_scan, args.delta)
        result = scan(cloud, bases, width, args.radii, s=args.s)
    write_json(probe_result_to_dict(result), args.out)
    print(f"min ratio {result.summary['min_ratio']:.6g}, "
          f"max ratio {result.summary['max_ratio']:.6g}")
    if args.do_assert and not _probe_gate(result, probe):
        print("assertion gate failed", file=sys.stderr)
        return ASSERT_ERROR
    return 0


def cmd_sandwich(args) -> int:
    rep = sandwich_sample(args.R, args.r_values, args.samples, args.seed)
    write_json(sandwich_report_to_dict(rep), args.out)
    print(f"inner violations {rep.inner_violations} of {rep.inner_hits} hits, "
          f"outer violations {rep.outer_violations} of {rep.outer_hits} hits")
    # the literal-r Euclidean half of outer_violations is false off the t-axis
    # (it needs c_R * r), so the gate checks the inner and plane halves only; a
    # half without a hit checked nothing and fails
    if args.do_assert and (rep.inner_violations or rep.outer_plane_violations
                           or not (rep.inner_hits and rep.outer_hits)):
        print("assertion gate failed", file=sys.stderr)
        return ASSERT_ERROR
    return 0


def _load_estimate(path: str, metric: str):
    try:
        est = estimate_from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is not a dimension estimate: {exc!r}") from None
    if est.metric.value != metric:
        raise ValueError(f"{path} holds a {est.metric.value} dimension estimate, not {metric}")
    return est


def cmd_compare(args) -> int:
    dE, dH = _load_estimate(args.dimE, "euclidean"), _load_estimate(args.dimH, "heisenberg")
    verdict = check_dimension_inequalities(dE.slope, dH.slope, args.tol)
    if args.out:
        write_json({**asdict(verdict), "dimE": dE.slope, "dimH": dH.slope}, args.out)
    print(f"ok: {str(verdict.ok).lower()}")
    if args.do_assert and not verdict.ok:
        return ASSERT_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heislab")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a point cloud and write CSV + sidecar")
    c.add_argument("--set", required=True, choices=list(_SETS))
    types = {key: type(default) for row in _SET_OPTIONS.values() for key, default in row.items()}
    for key, kind in types.items():
        c.add_argument(f"--{key.replace('_', '-')}", type=kind)
    c.add_argument("--out", required=True)
    c.add_argument("--svg")
    c.set_defaults(func=cmd_construct)

    d = sub.add_parser("dimension", help="net counts and log-log slope")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--metric", required=True, choices=["euclidean", "heisenberg"])
    d.add_argument("--delta-min", type=float, required=True)
    d.add_argument("--delta-max", type=float, required=True)
    d.add_argument("--scales", type=_count)
    d.add_argument("--out", required=True)
    d.add_argument("--svg")
    d.set_defaults(func=cmd_dimension)

    p = sub.add_parser("density", help="plane-neighborhood density probes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probe", required=True, choices=list(_DENSITY_OPTIONS))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--radii", type=_numbers)
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--r-count", type=_count)
    p.add_argument("--base-count", type=int)
    p.add_argument("--base-point", action="append", type=_point)
    p.add_argument("--cantor-in")
    p.add_argument("--out", required=True)
    p.add_argument("--assert", dest="do_assert", action="store_true")
    p.set_defaults(func=cmd_density)

    s = sub.add_parser("sandwich", help="two-sided ball vs plane-slab lens sampler")
    s.add_argument("--R", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--r-values", type=_numbers, default="1,0.3,0.1")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
