#!/usr/bin/env python3
"""Run the four density panels: the fixed-fraction and shrinking-neighborhood
scans on the alternating rectangle family, the quadratic-neighborhood scan on
the flat family, and the linear-neighborhood scan on a vertical segment."""

import argparse

import numpy as np

from heislab.constructions import (
    Example1,
    Example2,
    build_family,
    example_cloud,
    level_sides,
    segment_cloud,
)
from heislab.hgeom import Point
from heislab.probes import ex1_probe, ex2_probe, panel_from_rects, thm1_scan, thm2_scan


def resolved(res) -> str:
    """How many of the scan's radii are resolved: at every base point the
    entry's error band over the denominator is below its ratio."""
    by_radius = list(zip(*(ps.series for ps in res.points)))
    count = sum(all(e.band < e.ratio for e in entries) for entries in by_radius)
    return f"; resolved radii {count}/{len(by_radius)}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", type=int, default=4, help="alternating-family level")
    ap.add_argument("--M", type=float, default=2.0)
    args = ap.parse_args()

    family = build_family(Example1(), args.level)
    cloud = example_cloud(Example1(), args.level, 4)
    h_by = {k: level_sides(Example1(), k)[0] for k in range(args.level + 1)}

    res = ex1_probe(args.level, cloud=cloud)
    print(f"ex1 fixed-fraction rho=r/8: min ratio {res.summary['min_ratio']:.4f} "
          f"(target >= 1/8), max {res.summary['max_ratio']:.4f}, "
          f"error bound {res.error_bound:.2e}{resolved(res)}")

    h2, hL = h_by[2], h_by[args.level]
    wide = panel_from_rects(family, 20)
    res = thm1_scan(cloud, wide, 0.5, np.geomspace(h2, hL, 30))
    mins = [min(e.ratio for e in ps.series) for ps in res.points]
    frac = sum(1 for m in mins if m <= 0.05) / len(mins)
    print(f"ex1 shrinking rho=r^1.5:   min ratio <= 0.05 at {frac:.0%} of points "
          f"(liminf contrast){resolved(res)}")

    # level 10, or the first level with a probing window when M puts it higher
    res = ex2_probe(args.M, max(10, Example2(args.M).switch_level() + 2), base_count=12)
    print(f"ex2 quadratic rho=Mr^2:    min ratio {res.summary['min_ratio']:.4f} "
          f"(target >= 1/16) over windows k={res.extra['window_levels']}{resolved(res)}")

    tseg = segment_cloud("t", -1.0, 1.0, 16384)
    res = thm2_scan(tseg, [Point(0, 0, 0)], 0.25, np.geomspace(0.2, 0.02, 9), s=1.0)
    print(f"tseg linear rho=r/4:       max ratio {res.summary['max_ratio']:.4f} "
          f"(oracle 3/4, bound > 1/4){resolved(res)}")


if __name__ == "__main__":
    main()
