"""Constructions of the fractal point clouds: alternating rectangle families in
the vertical plane {y=0}, the Heisenberg square and Cantor iterated function
systems, and the vertical product set, all with exact per-piece measure weights.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .hgeom import Point, dilate_many, group_mul_many

MAX_POINTS = 10**7


class ResourceLimitError(Exception):
    """A construction would exceed the point / rectangle budget, or a net
    lattice would need column indices beyond 2**52."""


@dataclass(slots=True)
class RectFamily:
    """One generation of the rectangle construction: an (n, 4) array of rows
    [a, b, c, d], the rectangles [a, b] x [c, d] in the (x, t) chart of {y = 0},
    all with side lengths h x v."""

    level: int
    rects: np.ndarray
    h: float
    v: float

    def __post_init__(self):
        self.rects = np.asarray(self.rects, dtype=float).reshape(-1, 4)
        a, b, c, d = self.rects.T
        if not ((a < b) & (c < d)).all():
            raise ValueError("degenerate rectangle in the family")
        # a side computed as (c + v) - c is v up to half an ulp of the coordinates
        for lo, hi, side in ((a, b, self.h), (c, d, self.v)):
            if (np.abs(hi - lo - side) > 4.0 * np.spacing(np.maximum(abs(lo), abs(hi)))).any():
                raise ValueError("rectangle side lengths disagree with the family's h, v")


@dataclass(frozen=True, slots=True)
class Example1:
    """Alternating-rows recipe with doubly exponential side shrinking:
    n_k = 2^(2^(k-1) - 1), lambda_k = 2^(-3 * 2^(k-1)); level 0 is the
    half-split of the unit square, giving h_k = 2^(-2^k)."""

    def base(self) -> np.ndarray:
        return subdivide_rect([0.0, 1.0, 0.0, 1.0], 1, 0.5)

    def schedule(self, k: int) -> tuple[int, float]:
        return 2 ** (2 ** (k - 1) - 1), 2.0 ** (-3 * 2 ** (k - 1))

    def kind(self) -> str:
        return "ex1"


@dataclass(frozen=True, slots=True)
class Example2:
    """Single-split recipe with quadratically flat rectangles past the switch:
    n_k = 1, lambda_k = 1/2 while 2^k <= 34M, then lambda_k = 34M * 2^(-k-1).
    Levels count subdivisions of the unit square, so h_k = 2^(-k) and,
    once 2^k > 34M, v_k = 34M * 4^(-k)."""

    M: float

    def __post_init__(self):
        if not (self.M > 1.0 and math.isfinite(34.0 * self.M)):
            raise ValueError(f"M must be > 1 with 34M finite, got {self.M}")

    def base(self) -> np.ndarray:
        return np.array([[0.0, 1.0, 0.0, 1.0]])

    def schedule(self, k: int) -> tuple[int, float]:
        return 1, 0.5 if k < self.switch_level() else 34.0 * self.M * 2.0 ** (-k - 1)

    def kind(self) -> str:
        return "ex2"

    def switch_level(self) -> int:
        """First level k with 2^k > 34M, the exponent of 34M (flat closed forms hold from here)."""
        return math.frexp(34.0 * self.M)[1]


ExampleParams = Example1 | Example2


def subdivide_rect(rects: np.ndarray, n: int, lam: float) -> np.ndarray:
    """Split each row [a, b, c, d] of rects into 2n children of width (b-a)/(2n)
    and height lam*(b-a): n along the bottom edge at even offsets, then n along
    the top edge at odd offsets. Children stay grouped by parent, in row order."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (0.0 < lam <= 0.5):
        raise ValueError(f"lambda must lie in (0, 1/2], got {lam}")
    rects = np.asarray(rects, dtype=float).reshape(-1, 4)
    a, b, c, d = rects.T
    w = b - a
    child_h = lam * w
    tall = child_h > d - c
    if tall.any():
        i = int(tall.argmax())
        raise ValueError(f"children of height {child_h[i]} do not fit inside "
                         f"a rectangle of height {d[i] - c[i]}")
    step = (w / (2 * n))[:, None]
    x0 = a[:, None] + np.r_[0:2 * n:2, 1:2 * n:2] * step
    low = np.arange(2 * n) < n
    out = np.empty((rects.shape[0], 2 * n, 4))
    out[:, :, 0] = x0
    out[:, :, 1] = x0 + step
    out[:, :, 2] = np.where(low, c[:, None], (d - child_h)[:, None])
    out[:, :, 3] = np.where(low, (c + child_h)[:, None], d[:, None])
    return out.reshape(-1, 4)


def _family_size(params: ExampleParams, k: int) -> int:
    """The level-k rectangle count, or the first partial count past MAX_POINTS."""
    count = len(params.base())
    for j in range(1, k + 1):
        if count > MAX_POINTS:
            break
        count *= 2 * params.schedule(j)[0]
    return count


def build_family(params: ExampleParams, k: int) -> RectFamily:
    """Apply the recipe's subdivision schedule k times starting from its base family."""
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    if _family_size(params, k) > MAX_POINTS:
        raise ResourceLimitError(f"level {k} would need more than {MAX_POINTS} rectangles")
    rects = params.base()
    for j in range(1, k + 1):
        n, lam = params.schedule(j)
        rects = subdivide_rect(rects, n, lam)
    h, v = level_sides(params, k)
    return RectFamily(level=k, rects=rects, h=h, v=v)


def level_sides(params: ExampleParams, k: int) -> tuple[float, float]:
    """Side lengths (h, v) of the level-k family without building rectangles."""
    a, b, c, d = params.base()[0]
    h, v = float(b - a), float(d - c)
    for j in range(1, k + 1):
        n, lam = params.schedule(j)
        v = lam * h
        h = h / (2 * n)
    return h, v


@dataclass(slots=True)
class WeightedCloud:
    """Finite prefractal approximation: points, per-point measure weights, and
    the construction descriptor `source`, the one record of the parameters the
    cloud was built from. `err_xy` and `err_t` bound the horizontal and
    vertical distance from each point to the piece of the true set it
    represents; `placement_error` is the combined Euclidean bound."""

    points: np.ndarray
    weights: np.ndarray
    total_mass: float
    source: dict
    err_xy: float = 0.0
    err_t: float = 0.0

    @property
    def placement_error(self) -> float:
        return math.hypot(self.err_xy, self.err_t)

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        self.weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {self.points.shape}")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("one weight per point required")
        if not np.isfinite(self.points).all() or not np.isfinite(self.weights).all():
            raise ValueError("non-finite cloud data")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        if not (0.0 <= self.err_xy < math.inf and 0.0 <= self.err_t < math.inf):
            raise ValueError(f"placement errors must be finite and >= 0, got "
                             f"err_xy={self.err_xy}, err_t={self.err_t}")
        total = float(self.weights.sum())
        if abs(total - self.total_mass) > 1e-9 * max(abs(self.total_mass), 1e-300):
            raise ValueError(
                f"weights sum to {total}, declared total_mass {self.total_mass}"
            )

    def __len__(self) -> int:
        return self.points.shape[0]


def family_cloud(family: RectFamily, samples_per_rect: int, kind: str,
                 extra_source: dict | None = None) -> WeightedCloud:
    """One midline strip of points per rectangle: x on the midpoint grid of
    [a, b], t at the rectangle center, embedded as (x, 0, t), each carrying
    weight h / samples_per_rect so a rectangle's mass is exactly h."""
    if samples_per_rect < 1:
        raise ValueError(f"samples_per_rect must be >= 1, got {samples_per_rect}")
    arr = family.rects
    n = arr.shape[0]
    m = samples_per_rect
    if n * m > MAX_POINTS:
        raise ResourceLimitError(f"{n * m} cloud points exceed the {MAX_POINTS} limit")
    frac = (np.arange(m) + 0.5) / m
    x = arr[:, 0:1] + frac[None, :] * (arr[:, 1:2] - arr[:, 0:1])
    t = np.repeat(0.5 * (arr[:, 2] + arr[:, 3]), m)
    pts = np.column_stack([x.reshape(-1), np.zeros(n * m), t])
    w = np.full(n * m, family.h / m)
    source = {"kind": kind, "level": family.level, "samples_per_rect": m}
    if extra_source:
        source.update(extra_source)
    spacing = family.h / m
    return WeightedCloud(
        points=pts,
        weights=w,
        total_mass=n * family.h,
        source=source,
        err_xy=0.5 * spacing,
        err_t=0.5 * family.v,
    )


def example_cloud(params: ExampleParams, level: int, samples_per_rect: int = 1) -> WeightedCloud:
    family = build_family(params, level)
    extra = {"M": params.M} if isinstance(params, Example2) else None
    return family_cloud(family, samples_per_rect, kind=params.kind(), extra_source=extra)


def segment_cloud(axis: str, lo: float, hi: float, n: int) -> WeightedCloud:
    """Uniform mass on an axis-aligned segment, midpoint grid, density one."""
    if axis not in ("x", "t"):
        raise ValueError(f"axis must be 'x' or 't', got {axis!r}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if n < 1:
        raise ValueError(f"bad point count {n}")
    if n > MAX_POINTS:
        raise ResourceLimitError(f"{n} points exceed the {MAX_POINTS} limit")
    grid = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    pts = np.zeros((n, 3))
    pts[:, 0 if axis == "x" else 2] = grid
    length = hi - lo
    spacing = 0.5 * length / n
    return WeightedCloud(
        points=pts,
        weights=np.full(n, length / n),
        total_mass=length,
        source={"kind": f"{axis}seg", "lo": lo, "hi": hi, "n": n},
        err_xy=spacing if axis == "x" else 0.0,
        err_t=spacing if axis == "t" else 0.0,
    )


# ---------------------------------------------------------------------------
# iterated function systems

def hsquare_ifs() -> list:
    """The four ratio-1/2 similarities whose attractor projects onto [0,1]^2, as
    functions on (n, 3) arrays: horizontal lifts of (x, y) -> ((x, y) + v_j) / 2
    with v_j the unit-square corners, lift constants chosen zero."""
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    return [lambda P, c=Point(cx / 2.0, cy / 2.0, 0.0): group_mul_many(c, dilate_many(P, 0.5))
            for cx, cy in corners]


def cantor_ifs(d: float) -> tuple[float, tuple]:
    """The ratio r = 2^(-1/d), so that 2 r^d = 1, and the maps t -> r t and
    t -> r t + (1 - r) on the t column of (n, 3) arrays; the attractor is the
    symmetric Cantor set in [0, 1] on the t-axis."""
    if not (0.0 < d < 1.0):
        raise ValueError(f"d must lie in (0, 1), got {d}")
    r = 2.0 ** (-1.0 / d)
    return r, tuple(lambda P, b=b: np.column_stack((P[:, :2], r * P[:, 2] + b))
                    for b in (0.0, 1.0 - r))


def ifs_cloud(maps, depth: int, *, source: dict, err_t: float = 0.0) -> WeightedCloud:
    """Full address enumeration from the origin to the given depth: one point per
    length-`depth` word, uniform weights (len(maps))^(-depth). Point order is
    word-lexicographic with the outermost map as the most significant digit."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    count = 1
    for _ in range(depth):
        count *= len(maps)
        if count > MAX_POINTS:
            raise ResourceLimitError(f"depth {depth} needs more than {MAX_POINTS} points")
    pts = np.zeros((1, 3))
    for _ in range(depth):
        pts = np.vstack([m(pts) for m in maps])
    w = np.full(count, float(len(maps)) ** (-depth))
    return WeightedCloud(
        points=pts,
        weights=w,
        total_mass=1.0,
        source=source,
        err_t=err_t,
    )


def _hsquare_cell_extents(depth: int, hull_xy: float, hull_t: float) -> tuple[float, float]:
    # per ratio-1/2 lift step the t-extent obeys T -> T/4 + 2*|q|_max*X, X -> X/2
    X, T = hull_xy, hull_t
    for _ in range(depth):
        T = 0.25 * T + 2.0 * 0.5 * math.sqrt(2.0) * X
        X = 0.5 * X
    return X, T


def hsquare_cloud(depth: int) -> WeightedCloud:
    """Depth-`depth` address cloud of the Heisenberg square attractor."""
    cloud = ifs_cloud(hsquare_ifs(), depth, source={"kind": "hsquare", "depth": depth})
    t_span = float(cloud.points[:, 2].max() - cloud.points[:, 2].min()) if len(cloud) > 1 else 1.0
    X, T = _hsquare_cell_extents(depth, math.sqrt(2.0), t_span + 1.0)
    return replace(cloud, err_xy=0.5 * X, err_t=0.5 * T)


def cantor_cloud(d: float, depth: int) -> WeightedCloud:
    """Depth-`depth` address cloud of the t-axis Cantor set with dimension d."""
    r, maps = cantor_ifs(d)
    return ifs_cloud(maps, depth, source={"kind": "cantor", "d": d, "depth": depth},
                     err_t=0.5 * r**depth)


def product_cloud(qh: WeightedCloud, cantor: WeightedCloud) -> WeightedCloud:
    """The set fs: the vertical product {(x, y, t + t')} of an hsquare cloud and a
    t-axis cantor cloud, every pair of points, with product weights."""
    kinds = (qh.source.get("kind"), cantor.source.get("kind"))
    if kinds != ("hsquare", "cantor"):
        raise ValueError(f"fs is the product of an hsquare and a cantor cloud, got {kinds}")
    if np.any(cantor.points[:, :2] != 0.0):
        raise ValueError("second factor must lie on the t-axis")
    n, m = len(qh), len(cantor)
    if n * m > MAX_POINTS:
        raise ResourceLimitError(f"product needs {n * m} points (limit {MAX_POINTS})")
    pts = np.repeat(qh.points, m, axis=0)
    pts[:, 2] += np.tile(cantor.points[:, 2], n)
    w = (qh.weights[:, None] * cantor.weights[None, :]).reshape(-1)
    return WeightedCloud(
        points=pts,
        weights=w,
        total_mass=qh.total_mass * cantor.total_mass,
        source={"kind": "fs", "d": cantor.source.get("d"), "qh_depth": qh.source.get("depth"),
                "cantor_depth": cantor.source.get("depth")},
        err_xy=qh.err_xy + cantor.err_xy,
        err_t=qh.err_t + cantor.err_t,
    )


def expected_dims(source: dict) -> tuple[float | None, float]:
    """Analytically known (Euclidean, Heisenberg) dimension targets for a
    construction descriptor; the Euclidean entry is None where not asserted."""
    kind = source.get("kind")
    if kind in ("ex1", "ex2"):
        return 1.0, 1.0
    if kind == "tseg":
        return 1.0, 2.0
    if kind == "xseg":
        return 1.0, 1.0
    if kind == "cantor":
        d = float(source["d"])
        return d, 2.0 * d
    if kind == "hsquare":
        return None, 2.0
    if kind == "fs":
        d = float(source["d"])
        return 2.0 + d, 2.0 + 2.0 * d
    raise ValueError(f"unknown construction descriptor {source!r}")


# ---------------------------------------------------------------------------
# serialization: CSV for points, JSON sidecar for metadata

# rows joined per write in save_cloud: a block's field strings and its line
# string (about 80 KB) fit in memory the allocator keeps, so the writer does not
# map and fault in fresh pages for every block (32768-row blocks touched about
# 170 MB of new pages per 524K-row save, and a varying amount from save to save)
SAVE_BLOCK_ROWS = 1024

def _beside(path, suffix: str) -> Path:
    path = Path(path)
    if path.suffix == ".csv":
        return path.with_suffix(suffix)
    return Path(str(path) + suffix)


def sidecar_path(path) -> Path:
    return _beside(path, ".meta.json")


def rows_path(path) -> Path:
    """The binary companion of a saved CSV: the sha256 of the CSV's bytes, the
    row count n as <u8, the points as row-major <f8 (n x 3), then the weights
    as <f8 (n), 40 + 32n bytes in all."""
    return _beside(path, ".rows")


def _sha256(path) -> bytes:
    """The sha256 of the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # blocks under glibc's 128 KiB mmap threshold: freeing a mapped 1 MiB block
        # raises that threshold, and the heap then kept 1.5 MB more of pipeline peak
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.digest()


def write_text(text, path) -> None:
    """Write text (a string or bytes, or an iterable of strings and bytes-like
    chunks written in turn, strings as UTF-8) to `name.tmp`, then rename it over
    path: no reader sees half a file. If anything raises, the temp file is
    removed and path is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in [text] if isinstance(text, (str, bytes)) else text:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path) -> None:
    """Write obj as sorted, indented JSON through write_text; NaN or inf raises ValueError."""
    write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def save_cloud(cloud: WeightedCloud, path) -> None:
    """Write the cloud as CSV rows x,y,t,weight (CRLF line ends, repr fields, so
    load_cloud gives back every bit), the JSON sidecar, and last the binary
    companion (rows_path) that load_cloud reads in place of parsing the CSV."""
    # one repr per distinct bit pattern of each column (a prefractal repeats its
    # coordinates; keyed on bits, not values, so -0.0 keeps its own text apart from 0.0)
    columns = []
    for col in (*cloud.points.T, cloud.weights):
        bits, inv = np.unique(col.view(np.int64), return_inverse=True)
        inv = inv.astype(np.min_scalar_type(bits.size - 1))  # 1-4 bytes a row, not 8
        columns.append((np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object),
                        inv))

    def chunks():
        yield "x,y,t,weight\r\n"
        # joined in row blocks: the whole file as one string costs its size again
        block = np.empty((SAVE_BLOCK_ROWS, 4), dtype=object)
        for start in range(0, len(cloud), SAVE_BLOCK_ROWS):
            rows = block[:min(SAVE_BLOCK_ROWS, len(cloud) - start)]
            for j, (text, inv) in enumerate(columns):
                rows[:, j] = text[inv[start:start + SAVE_BLOCK_ROWS]]
            yield ("%s,%s,%s,%s\r\n" * len(rows)) % tuple(rows.ravel().tolist())

    write_text(chunks(), path)
    meta = {"source": cloud.source, "total_mass": cloud.total_mass,
            "err_xy": cloud.err_xy, "err_t": cloud.err_t}
    write_json(meta, sidecar_path(path))
    # keyed by the CSV's bytes on disk and written last: a save cut short leaves a
    # companion whose digest does not match, so load_cloud parses the CSV
    write_text([_sha256(path), len(cloud).to_bytes(8, "little"),
                memoryview(np.ascontiguousarray(cloud.points, dtype="<f8")),
                memoryview(np.ascontiguousarray(cloud.weights, dtype="<f8"))], rows_path(path))


def json_number(value, message: str, integer: bool = False):
    """The rule for every number read from a sidecar or a dimension estimate: a
    JSON number finite as a float (never a bool, a string, NaN, an infinity or an
    integer past the float range, which compares with the largest float exactly)
    as a float, or with `integer` a JSON integer as an int; else ValueError(message)."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(message)
    return value if integer else float(value)


def _read_sidecar(mpath: Path) -> dict:
    """The sidecar's source, total_mass, err_xy and err_t; other keys (sidecars
    written by older versions also hold level, h, v and derived errors) are
    ignored."""
    try:
        meta = json.loads(mpath.read_text())
    except ValueError as exc:
        raise ValueError(f"{mpath}: sidecar is not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{mpath}: sidecar must be a JSON object")
    missing = [key for key in ("source", "total_mass") if key not in meta]
    if missing:
        raise ValueError(f"{mpath}: sidecar lacks {', '.join(missing)}")
    if not isinstance(meta["source"], dict):
        raise ValueError(f"{mpath}: sidecar source must be a JSON object")
    bad = f"{mpath}: sidecar total_mass, err_xy and err_t must be numbers"
    for key in ("total_mass", "err_xy", "err_t"):
        meta[key] = json_number(meta.get(key, 0.0), bad)  # only the error bounds may be absent
    return meta


def _companion_rows(path: Path):
    """The points and weights in path's binary companion, as views of one
    buffer, if it holds the sha256 of path's bytes and exactly 40 + 32n bytes;
    else None (no companion, one that cannot be read, a stale or a truncated one)."""
    try:
        buf = np.fromfile(rows_path(path), dtype=np.uint8)
    except OSError:
        return None
    if buf.size < 40:
        return None
    n = int(buf[32:40].view("<u8")[0])
    if buf.size != 40 + 32 * n or buf[:32].tobytes() != _sha256(path):
        return None
    return buf[40:40 + 24 * n].view("<f8").reshape(n, 3), buf[40 + 24 * n:].view("<f8")


def load_cloud(path) -> WeightedCloud:
    """Read a save_cloud CSV and its sidecar. Empty lines are skipped; anything
    else that is not 4 comma-separated floats per row is a ValueError naming
    the file. Past the header and no-rows checks, the rows come from the
    binary companion when it holds the digest of the CSV's bytes (the CSV is
    then what save_cloud wrote from them), and from parsing the CSV otherwise."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != ["x", "y", "t", "weight"]:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        # np.loadtxt warns on an input without rows, so look for a row first
        while (line := fh.readline()) and not line.rstrip("\r\n"):
            pass
        if not line:
            raise ValueError(f"{path}: no data rows")
        rows = _companion_rows(path)
        if rows is None:
            bad_rows = f"{path}: every row must have 4 fields, each a float"
            # np.loadtxt reads a path in chunks but a handle line by line; it would
            # decompress a path whose suffix names a compression, so such a file
            # is read through the handle
            fh.seek(0)
            source = fh if path.suffix in (".gz", ".bz2", ".xz", ".lzma") else path
            try:
                data = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=1)
            except ValueError:
                raise ValueError(bad_rows) from None
            if data.shape[1] != 4:
                raise ValueError(bad_rows)
            rows = data[:, :3], data[:, 3]
    points, weights = rows
    mpath = sidecar_path(path)
    if mpath.exists():
        meta = _read_sidecar(mpath)
    else:
        meta = {"source": {"kind": "unknown"}, "total_mass": float(weights.sum()),
                "err_xy": 0.0, "err_t": 0.0}
    try:
        return WeightedCloud(
            points=points,
            weights=weights,
            total_mass=meta["total_mass"],
            source=meta["source"],
            err_xy=meta["err_xy"],
            err_t=meta["err_t"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
