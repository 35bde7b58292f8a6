"""Wrappers installed around heislab's public functions from outside the
package.

Every run installs the result captures the correctness checks need: the
center indices of each greedy net (``net_counts`` only returns counts) and a
bit-exact comparison of each CSV load against the cloud that was saved.
A traced run also records a ``perf_counter`` span per call, with the counts
the per-layer metrics are made of. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("hgeom", "constructions", "dimension", "probes", "cli")

# Public functions wrapped in a traced run. Scalar helpers that run once per
# point or rectangle (dist, group_mul, subdivide_rect, ...) are left out: a
# span per call would cost more than the call.
TRACED = {
    "hgeom": ("dist_many", "plane_dist_many", "dist_pairs", "group_mul_many", "dilate_many"),
    "constructions": ("hsquare_cloud", "cantor_cloud", "product_cloud", "segment_cloud",
                      "ifs_cloud", "build_family", "family_cloud", "example_cloud",
                      "save_cloud", "load_cloud"),
    "dimension": ("greedy_net", "net_counts", "estimate_dimension",
                  "check_dimension_inequalities", "fit_metric_comparison", "compare_on_pairs"),
    "probes": ("scan_density", "ex1_scan", "thm1_scan", "thm2_scan", "ex2_scan", "ex1_probe",
               "ex2_probe", "ex3_probe", "estimate_annulus_constants", "sandwich_sample",
               "panel_from_rects", "panel_from_cloud"),
    "cli": ("main", "cmd_construct", "cmd_dimension", "cmd_density", "cmd_compare",
            "cmd_sandwich"),
}

# Always wrapped, traced or not, because the checks read what they capture.
CAPTURED = (("dimension", "greedy_net"), ("constructions", "load_cloud"))

BUILDERS = frozenset(f"constructions.{f}" for f in (
    "hsquare_cloud", "cantor_cloud", "product_cloud", "segment_cloud", "ifs_cloud",
    "build_family", "family_cloud", "example_cloud"))
KERNEL_ROWS = ("hgeom.dist_many", "hgeom.plane_dist_many", "hgeom.dist_pairs")
ROW_BYTES = 24  # one (x, y, t) float64 row
METRIC_TAG = {"euclidean": "E", "heisenberg": "H"}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    cpu_start: float = 0.0    # CPU time of the calling thread
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class NetCapture:
    kind: str
    metric: str
    delta: float
    count: int
    centers_sha256: str


def digest_centers(centers) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(centers, dtype=np.int64).tobytes()).hexdigest()


def same_cloud(a, b) -> bool:
    """Bit-exact equality of two clouds' points and weights (tells -0.0 from
    0.0, unlike ==)."""
    import numpy as np

    def same(x, y):
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        return x.shape == y.shape and bool(np.array_equal(x.view(np.uint64), y.view(np.uint64)))

    return same(a.points, b.points) and same(a.weights, b.weights)


class Instrument:
    """Installs the wrappers on enter and restores the originals on exit.

    ``expected_clouds`` maps a CSV file name to the in-memory cloud that was
    saved under it; every load of that file is compared with it bit for bit.
    """

    def __init__(self, trace: bool, expected_clouds: dict | None = None):
        self.trace = trace
        self.expected_clouds = expected_clouds or {}
        self.nets: list[NetCapture] = []
        self.loads: list[tuple[str, bool]] = []
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self.body_start = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "heislab" or n.startswith("heislab.")]
        names = ([(layer, f) for layer in LAYERS for f in TRACED[layer]]
                 if self.trace else list(CAPTURED))
        for layer, fname in names:
            home = sys.modules[f"heislab.{layer}"]
            orig = getattr(home, fname)
            wrapper = self._wrap(f"{layer}.{fname}", orig)
            # rebind every module-level reference, so `from .x import f` callers
            # inside the package reach the wrapper too
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self._local.stack = self._main_stack
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        after = _AFTER.get(name)
        capture = _CAPTURE.get(name)
        traced = self.trace

        def wrapper(*args, **kwargs):
            if not traced:
                result = fn(*args, **kwargs)
                capture(self, sig.bind(*args, **kwargs).arguments, result)
                return result
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            bound = sig.bind(*args, **kwargs).arguments
            if after is not None:
                after(self.spans[idx], bound, result)
            if capture is not None:
                capture(self, bound, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            # a worker thread's first span belongs to the span that was open
            # in the main thread when it started (net_counts' pool)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent,
                                   cpu_start=time.thread_time()))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu_start
        self._stack().pop()


# -- per-call counters (traced runs) -----------------------------------------

def _rows(key):
    def after(span, bound, result):
        span.attrs["rows"] = len(bound[key])
    return after


def _after_greedy(span, bound, result):
    cloud = bound["cloud"]
    span.attrs.update(kind=str(cloud.source.get("kind")), metric=METRIC_TAG[bound["metric"].value],
                      points=len(cloud), centers=int(result[0].count))


def _after_net_counts(span, bound, result):
    from heislab.dimension import worker_count
    span.attrs["workers"] = min(worker_count(), len(result))


def _after_scan(span, bound, result):
    bases = len(result.points)
    radii = len(result.points[0].series) if result.points else 0
    span.attrs.update(series=bases * radii, rows=bases * len(bound["cloud"]))


def _after_save(span, bound, result):
    span.attrs.update(rows=len(bound["cloud"]), bytes=os.path.getsize(bound["path"]))


def _after_load(span, bound, result):
    span.attrs["rows"] = len(result)


_AFTER = {
    "hgeom.dist_many": _rows("points"),
    "hgeom.plane_dist_many": _rows("points"),
    "hgeom.dist_pairs": _rows("P"),
    "dimension.greedy_net": _after_greedy,
    "dimension.net_counts": _after_net_counts,
    "probes.scan_density": _after_scan,
    "constructions.save_cloud": _after_save,
    "constructions.load_cloud": _after_load,
}


# -- captures (every run) -----------------------------------------------------

def _capture_greedy(inst: Instrument, bound, result):
    count, centers = result
    cloud = bound["cloud"]
    cap = NetCapture(kind=str(cloud.source.get("kind")), metric=METRIC_TAG[bound["metric"].value],
                     delta=float(bound["delta"]), count=int(count.count),
                     centers_sha256=digest_centers(centers))
    with inst._lock:
        inst.nets.append(cap)


def _capture_load(inst: Instrument, bound, result):
    name = Path(bound["path"]).name
    expected = inst.expected_clouds.get(name)
    if expected is None:
        return
    inst.loads.append((name, same_cloud(result, expected)))


_CAPTURE = {
    "dimension.greedy_net": _capture_greedy,
    "constructions.load_cloud": _capture_load,
}


# -- per-layer metrics --------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def _per_second(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], body_start: int, body_wall: float,
                  net_tags: list[str]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Spans from ``body_start`` on belong to the timed body, the ones before it
    to set-up. Every metric covers the body only, except
    ``constructions.build.s``, which also covers set-up. ``net_tags`` lists
    the ``<cloud>.<E|H>`` pairs reported for greedy nets; an absent pair
    reads 0.
    """
    own = self_times(spans)
    dur = [s.end - s.start for s in spans]
    names = [s.name for s in spans]
    body = range(body_start, len(spans))

    def pick(name):
        return [i for i in body if names[i] == name]

    def total(name, key=None):
        return sum(spans[i].attrs.get(key, 0) if key else dur[i] for i in pick(name))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[i] for i in body if names[i].startswith(layer + "."))

    for k in ("dist_many", "plane_dist_many"):
        m[f"hgeom.{k}.s"] = total(f"hgeom.{k}")
        m[f"hgeom.{k}.rows"] = total(f"hgeom.{k}", "rows")
    m["hgeom.dist_pairs.s"] = total("hgeom.dist_pairs")
    m["hgeom.bytes_computed"] = ROW_BYTES * sum(total(k, "rows") for k in KERNEL_ROWS)

    def outer_build(i):
        p = spans[i].parent
        while p is not None:
            if names[p] in BUILDERS:
                return False
            p = spans[p].parent
        return True
    m["constructions.build.s"] = sum(dur[i] for i, n in enumerate(names)
                                     if n in BUILDERS and outer_build(i))
    for k in ("save_cloud", "load_cloud"):
        seconds = total(f"constructions.{k}")
        m[f"constructions.{k}.s"] = seconds
        m[f"constructions.{k}.rows_per_s"] = _per_second(total(f"constructions.{k}", "rows"),
                                                         seconds)
    m["constructions.csv_bytes"] = total("constructions.save_cloud", "bytes")

    greedy = pick("dimension.greedy_net")
    for tag in net_tags:
        kind, metric = tag.split(".")
        mine = [i for i in greedy
                if spans[i].attrs["kind"] == kind and spans[i].attrs["metric"] == metric]
        m[f"dimension.greedy_net.s.{tag}"] = sum(dur[i] for i in mine)
        m[f"dimension.centers.{tag}"] = sum(spans[i].attrs["centers"] for i in mine)
    m["dimension.greedy_net.calls"] = len(greedy)
    m["dimension.greedy_net.pts_per_s"] = _per_second(
        sum(spans[i].attrs["points"] for i in greedy), sum(dur[i] for i in greedy))
    m["dimension.net_counts.s"] = total("dimension.net_counts")
    # busy time is the CPU time of the calling thread: a worker waiting for
    # the interpreter lock is not busy
    pooled = sum(spans[i].cpu for i in greedy if spans[i].parent is not None
                 and names[spans[i].parent] == "dimension.net_counts")
    capacity = sum(dur[i] * spans[i].attrs["workers"] for i in pick("dimension.net_counts"))
    m["dimension.net_counts.parallel_eff"] = _per_second(pooled, capacity)

    scan_s = total("probes.scan_density")
    m["probes.scan_density.s"] = scan_s
    m["probes.scan_density.series"] = total("probes.scan_density", "series")
    m["probes.scan_density.rows_per_s"] = _per_second(total("probes.scan_density", "rows"), scan_s)
    m["probes.estimate_annulus_constants.s"] = total("probes.estimate_annulus_constants")
    m["probes.sandwich_sample.s"] = total("probes.sandwich_sample")
    m["probes.ex3_probe.self_s"] = sum(own[i] for i in pick("probes.ex3_probe"))

    for cmd in ("construct", "dimension", "compare", "density"):
        m[f"cli.{cmd}.s"] = total(f"cli.cmd_{cmd}")

    top = [(spans[i].start, spans[i].end) for i in body if spans[i].parent is None]
    m["trace.coverage"] = _per_second(_covered(top, -math.inf, math.inf), body_wall)
    return m

