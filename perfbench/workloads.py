"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs its timed
``body`` against heislab's public API, and turns what the body returned into
``Group``s of operations in ``groups``. A group is the unit a check passes or
fails: its ``value`` is compared with the reference recorded from the seed
code, and its ``problems`` list the invariants it broke. Every operation of a
failed group counts as failed.

Why these workloads:

* ``nets``: greedy nets do almost all the work. The fs cloud takes the
  lattice path of ``greedy_net`` and the catalog clouds take the sweep path
  (below 50k points), so both sides of that threshold are covered.
* ``density``: the probes and the hgeom row kernels do the work; no net and
  no CSV. A change to nets or I/O should leave it unchanged.
* ``pipeline``: the CLI in-process over CSV files, the only workload where
  CSV writes and reads take a large share.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from heislab import cli, constructions, dimension, probes
from heislab.hgeom import MetricKind, Point

from instrument import Instrument, digest_centers, same_cloud

DEFAULT_SEED = 0
JITTER = 0.05          # relative jitter of each net ladder under other seeds
MASS_SLACK = 1e-9      # relative float slack when comparing summed weights

E = MetricKind.EUCLIDEAN
H = MetricKind.HEISENBERG
TAG = {E: "E", H: "H"}

# every (cloud kind, metric) pair a greedy-net metric is reported for
NET_TAGS = ["fs.E", "fs.H", "xseg.E", "xseg.H", "tseg.E", "tseg.H",
            "cantor.E", "cantor.H", "hsquare.H"]


@dataclass(slots=True)
class Group:
    name: str
    ops: int
    value: object = None
    problems: list[str] = field(default_factory=list)
    # True when the inputs do not depend on the seed, so the reference
    # applies under every seed
    fixed: bool = False


@dataclass(slots=True)
class Failure:
    """An exception raised by one step of a body."""

    error: str


def attempt(fn, *args, **kwargs):
    """Run one step of a body; an exception becomes a Failure, not an abort."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the workload must go on and count the failure
        return Failure(traceback.format_exc(limit=4))


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def jitter(rng: np.random.Generator, seed: int, deltas) -> list[float]:
    """The ladder itself under the default seed; otherwise each scale moved by
    up to JITTER of itself. Neighbouring scales of every ladder here are more
    than 2 * JITTER apart, so the ladder stays strictly decreasing."""
    deltas = [float(d) for d in deltas]
    if seed == DEFAULT_SEED:
        return deltas
    return [d * (1.0 + float(rng.uniform(-JITTER, JITTER))) for d in deltas]


def nondecreasing(counts) -> bool:
    return all(b >= a for a, b in zip(counts, counts[1:]))


def net_check(inst: Instrument, kind: str, metric: MetricKind, deltas, counts,
              cloud) -> tuple[list[str], list[str]]:
    """Center digests for one ladder and the problems found with it.

    The digests come from the nets captured inside the timed body; a net the
    body did not route through ``greedy_net`` is recomputed here."""
    caps = {c.delta: c for c in inst.nets if c.kind == kind and c.metric == TAG[metric]}
    problems, digests = [], []
    if not nondecreasing(counts):
        problems.append(f"{kind}.{TAG[metric]} counts decrease as delta shrinks: {counts}")
    for d, n in zip(deltas, counts):
        cap = caps.get(float(d))
        if cap is None:
            nc, centers = dimension.greedy_net(cloud, float(d), metric)
            cap_count, digest = nc.count, digest_centers(centers)
        else:
            cap_count, digest = cap.count, cap.centers_sha256
        if cap_count != n:
            problems.append(f"{kind}.{TAG[metric]} delta {d!r}: {cap_count} centers, count {n}")
        digests.append(digest)
    return digests, problems


def series_problems(res, total_mass: float) -> list[str]:
    bad = []
    for ps in res.points:
        for e in ps.series:
            if not (e.inside >= 0 and e.outside >= 0 and math.isfinite(e.ratio) and e.ratio >= 0):
                bad.append(f"{res.probe} at r={e.r!r}: bad entry {e}")
            elif e.inside + e.outside > total_mass * (1.0 + MASS_SLACK):
                bad.append(f"{res.probe} at r={e.r!r}: inside + outside "
                           f"{e.inside + e.outside!r} > total mass {total_mass!r}")
    return bad[:5]


def seeded_rows(rng: np.random.Generator, cloud, count: int, x_max: float | None = None):
    rows = np.arange(len(cloud))
    if x_max is not None:
        rows = rows[cloud.points[:, 0] <= x_max]
    pick = np.sort(rng.choice(rows, size=min(count, rows.size), replace=False))
    return [Point.from_array(cloud.points[i]) for i in pick]


# ---------------------------------------------------------------------------

class Nets:
    """Criterion-5 nets: the fs Euclidean and gauge ladders, then the small
    catalog, then the dimension fits and the comparison-band verdicts."""

    name = "nets"
    SIZES = {
        "full": dict(fs=(7, 5), xseg=4096, tseg=16384, cantor=7, hsquare=7),
        "tiny": dict(fs=(3, 2), xseg=64, tseg=128, cantor=4, hsquare=3),
    }

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int) -> dict:
        z = self.size
        rng = np.random.default_rng(seed)
        clouds = {
            "fs": constructions.product_cloud(constructions.hsquare_cloud(z["fs"][0]),
                                              constructions.cantor_cloud(0.5, z["fs"][1])),
            "xseg": constructions.segment_cloud("x", 0.0, 1.0, z["xseg"]),
            "tseg": constructions.segment_cloud("t", -1.0, 1.0, z["tseg"]),
            "cantor": constructions.cantor_cloud(0.5, z["cantor"]),
            "hsquare": constructions.hsquare_cloud(z["hsquare"]),
        }
        dyadic = [2.0**-j for j in range(2, 9)]
        ladders = [
            ("fs", E, np.geomspace(0.3, 0.02, 8)),
            ("fs", H, np.geomspace(0.8, 0.1, 8)),
            ("xseg", E, dyadic),
            ("xseg", H, dyadic),
            ("tseg", E, dyadic),
            ("tseg", H, np.geomspace(0.5, 0.0625, 8)),
            ("cantor", E, [4.0**-j for j in range(1, 6)]),
            ("cantor", H, [2.0**-j for j in range(1, 6)]),
            ("hsquare", H, np.geomspace(0.64, 0.08, 8)),
        ]
        ladders = [(k, m, jitter(rng, seed, lad)) for k, m, lad in ladders]
        return {"clouds": clouds, "ladders": ladders}

    def expected_clouds(self, inputs) -> dict:
        return {}

    def body(self, inputs, workdir: Path) -> dict:
        clouds = inputs["clouds"]
        counts = {(k, m): attempt(dimension.net_counts, clouds[k], deltas, m)
                  for k, m, deltas in inputs["ladders"]}
        est = {key: attempt(dimension.estimate_dimension, c, metric=key[1])
               for key, c in counts.items() if not isinstance(c, Failure)}
        verdicts = {}
        for k in clouds:
            pair = est.get((k, E)), est.get((k, H))
            if all(p is not None and not isinstance(p, Failure) for p in pair):
                verdicts[k] = attempt(dimension.check_dimension_inequalities,
                                      pair[0].slope, pair[1].slope, tol=0.1)
        return {"counts": counts, "est": est, "verdicts": verdicts}

    def groups(self, inputs, out: dict, inst: Instrument, workdir: Path) -> list[Group]:
        groups = []
        for kind, metric, deltas in inputs["ladders"]:
            key = (kind, metric)
            g = Group(name=f"{kind}.{TAG[metric]}", ops=len(deltas))
            groups.append(g)
            failures = [x for x in (out["counts"][key], out["est"].get(key),
                                    out["verdicts"].get(kind)) if isinstance(x, Failure)]
            if failures:
                g.problems.extend(f.error for f in failures)
                continue
            counts = [c.count for c in out["counts"][key]]
            digests, g.problems = net_check(inst, kind, metric, deltas, counts,
                                            inputs["clouds"][kind])
            slope = out["est"][key].slope
            if not math.isfinite(slope):
                g.problems.append(f"{g.name}: slope {slope!r}")
            g.value = {"deltas": [repr(d) for d in deltas], "counts": counts,
                       "centers_sha256": digests, "slope": repr(slope)}
            if metric is H and kind in out["verdicts"]:
                g.value["band_ok"] = bool(out["verdicts"][kind].ok)
        return groups

    def sizes(self, inputs) -> dict:
        return {f"points.{k}": len(c) for k, c in inputs["clouds"].items()}


# ---------------------------------------------------------------------------

class Density:
    """The density probes and the two samplers; no nets and no CSV."""

    name = "density"
    SIZES = {
        "full": dict(fs=(7, 6), ex1_level=4, ex2_level=10, tseg=16384, samples=100_000),
        "tiny": dict(fs=(2, 5), ex1_level=3, ex2_level=9, tseg=256, samples=2_000),
    }
    EX3_RADII = tuple(np.geomspace(1.2, 0.012, 17))
    THM2_RADII = tuple(np.geomspace(0.2, 0.02, 9))
    PANEL = 12             # base points ex3_probe and ex2_probe choose themselves
    SAMPLER_R = 2.0
    SANDWICH_R_VALUES = (1.0, 0.3, 0.1)

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int) -> dict:
        z = self.size
        rng = np.random.default_rng(seed)
        qh_depth, cantor_depth = z["fs"]
        cantor = constructions.cantor_cloud(0.5, cantor_depth)
        fs = constructions.product_cloud(constructions.hsquare_cloud(qh_depth), cantor)
        level = z["ex1_level"]
        params = constructions.Example1()
        family = constructions.build_family(params, level)
        ex1 = constructions.family_cloud(family, 4, kind="ex1")
        tseg = constructions.segment_cloud("t", -1.0, 1.0, z["tseg"])
        h_by = {k: constructions.level_sides(params, k)[0] for k in range(level + 1)}
        h2, hl = h_by[2], h_by[level]
        thm1_radii = np.geomspace(h2, hl, max(3, int(round(8 * math.log10(h2 / hl))) + 1))
        # the acceptance-criterion panels, built under every seed so that
        # set-up costs the same
        ex1_bases = probes.panel_from_rects(family, 12, x_max=probes.EX1_PANEL_X_MAX)
        thm1_bases = probes.panel_from_rects(family, 20)
        thm2_bases = [Point(0, 0, 0), Point(0, 0, 0.3), Point(0, 0, -0.3)]
        sampler_seeds = (1, 7)
        if seed != DEFAULT_SEED:
            ex1_bases = seeded_rows(rng, ex1, 12, x_max=probes.EX1_PANEL_X_MAX)
            thm1_bases = seeded_rows(rng, ex1, 20)
            thm2_bases = seeded_rows(rng, tseg, 3)
            sampler_seeds = tuple(int(s) for s in rng.integers(0, 2**32, size=2))
        return {"fs": fs, "cantor": cantor, "ex1": ex1, "tseg": tseg, "h_by": h_by,
                "qh_depth": qh_depth, "cantor_depth": cantor_depth,
                "ks": tuple(range(1, level)), "thm1_radii": list(thm1_radii),
                "ex1_bases": ex1_bases, "thm1_bases": thm1_bases, "thm2_bases": thm2_bases,
                "sampler_seeds": sampler_seeds}

    def expected_clouds(self, inputs) -> dict:
        return {}

    def body(self, inputs, workdir: Path) -> dict:
        z, i = self.size, inputs
        sandwich_seed, fit_seed = i["sampler_seeds"]
        return {
            "ex3": attempt(probes.ex3_probe, 0.5, i["qh_depth"], i["cantor_depth"],
                           list(self.EX3_RADII), base_count=self.PANEL,
                           fs_cloud=i["fs"], cantor_cloud_in=i["cantor"]),
            "ex1": attempt(probes.ex1_scan, i["ex1"], i["h_by"], i["ks"], i["ex1_bases"]),
            "thm1": attempt(probes.thm1_scan, i["ex1"], i["thm1_bases"], 0.5,
                            i["thm1_radii"], s=1.0),
            "ex2": attempt(probes.ex2_probe, 2.0, z["ex2_level"], samples_per_rect=4,
                           base_count=self.PANEL),
            "thm2": attempt(probes.thm2_scan, i["tseg"], i["thm2_bases"], 0.25,
                            list(self.THM2_RADII), s=1.0),
            "sandwich": attempt(probes.sandwich_sample, self.SAMPLER_R, self.SANDWICH_R_VALUES,
                                z["samples"], sandwich_seed),
            "fit": attempt(dimension.fit_metric_comparison, self.SAMPLER_R, z["samples"],
                           fit_seed),
        }

    def groups(self, inputs, out: dict, inst: Instrument, workdir: Path) -> list[Group]:
        i = inputs
        # (cloud, base points, seed-independent); ex2_probe builds its own
        # cloud, whose total mass (rectangle count times h) is at most 1
        probe_inputs = {
            "ex3": (i["fs"], self.PANEL, True),
            "ex1": (i["ex1"], len(i["ex1_bases"]), False),
            "thm1": (i["ex1"], len(i["thm1_bases"]), False),
            "ex2": (None, self.PANEL, True),
            "thm2": (i["tseg"], len(i["thm2_bases"]), False),
        }
        groups = []
        for name, (cloud, bases, fixed) in probe_inputs.items():
            res = out[name]
            g = Group(name, bases, fixed=fixed)
            groups.append(g)
            if isinstance(res, Failure):
                g.problems.append(res.error)
                continue
            g.value = sha256_json(probes.probe_result_to_dict(res))
            g.problems = series_problems(res, cloud.total_mass if cloud is not None else 1.0)
            if len(res.points) != bases:
                g.problems.append(f"{name}: {len(res.points)} series, expected {bases}")
            if name == "ex3" and res.extra.get("status") != "ok":
                g.problems.append(f"ex3 status {res.extra.get('status')!r}")

        rep = out["sandwich"]
        g = Group("sandwich", len(self.SANDWICH_R_VALUES))
        if isinstance(rep, Failure):
            g.problems.append(rep.error)
        else:
            g.value = sha256_json(probes.sandwich_report_to_dict(rep))
            if rep.inner_violations:
                g.problems.append(f"sandwich inner violations {rep.inner_violations}")
            if rep.samples != self.size["samples"]:
                g.problems.append(f"sandwich drew {rep.samples} samples")
        groups.append(g)

        rep = out["fit"]
        g = Group("fit", 1)
        if isinstance(rep, Failure):
            g.problems.append(rep.error)
        else:
            ratios = (rep.sup_ratio_lower, rep.sup_ratio_upper)
            g.value = sha256_json([repr(r) for r in ratios] + [rep.samples, rep.seed])
            if not all(math.isfinite(r) and r > 0 for r in ratios):
                g.problems.append(f"metric comparison ratios {ratios}")
        groups.append(g)
        return groups

    def sizes(self, inputs) -> dict:
        return {f"points.{k}": len(inputs[k]) for k in ("fs", "cantor", "ex1", "tseg")}


# ---------------------------------------------------------------------------

class Pipeline:
    """The CLI run in-process over CSV files in a temporary directory."""

    name = "pipeline"
    SIZES = {
        "full": dict(depth=7, cantor_depth=5),
        "tiny": dict(depth=3, cantor_depth=2),
    }

    def __init__(self, size: str):
        self.size = self.SIZES[size]
        self.csv_bytes: dict[str, int] = {}

    def setup(self, seed: int) -> dict:
        z = self.size
        rng = np.random.default_rng(seed)
        cantor = constructions.cantor_cloud(0.5, z["cantor_depth"])
        fs = constructions.product_cloud(constructions.hsquare_cloud(z["depth"]), cantor)
        de = jitter(rng, seed, (0.3, 0.05))
        dh = jitter(rng, seed, (0.8, 0.2))
        steps = [
            ("construct_fs", ["construct", "--set", "fs", "--d", "0.5", "--depth", str(z["depth"]),
                              "--cantor-depth", str(z["cantor_depth"]), "--out", "fs.csv"]),
            ("construct_cantor", ["construct", "--set", "cantor", "--d", "0.5",
                                  "--depth", str(z["cantor_depth"]), "--out", "cantor.csv"]),
            ("dimension_E", ["dimension", "--in", "fs.csv", "--metric", "euclidean",
                             "--delta-max", repr(de[0]), "--delta-min", repr(de[1]),
                             "--scales", "5", "--out", "dE.json"]),
            ("dimension_H", ["dimension", "--in", "fs.csv", "--metric", "heisenberg",
                             "--delta-max", repr(dh[0]), "--delta-min", repr(dh[1]),
                             "--scales", "5", "--out", "dH.json"]),
            ("compare", ["compare", "--dimE", "dE.json", "--dimH", "dH.json",
                         "--out", "compare.json"]),
            ("density", ["density", "--in", "fs.csv", "--probe", "ex3",
                         "--cantor-in", "cantor.csv", "--out", "ex3.json"]),
        ]
        return {"fs": fs, "cantor": cantor, "steps": steps}

    def expected_clouds(self, inputs) -> dict:
        return {"fs.csv": inputs["fs"], "cantor.csv": inputs["cantor"]}

    def body(self, inputs, workdir: Path) -> dict:
        out = {}
        for name, argv in inputs["steps"]:
            argv = [str(workdir / a) if a.endswith((".csv", ".json")) else a for a in argv]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = attempt(cli.main, argv)
            out[name] = (code, sink.getvalue())
        return out

    def groups(self, inputs, out: dict, inst: Instrument, workdir: Path) -> list[Group]:
        groups = []
        for name, _ in inputs["steps"]:
            code, log = out[name]
            g = Group(name, 1, fixed=name.startswith(("construct", "density")))
            groups.append(g)
            if isinstance(code, Failure):
                g.problems.append(code.error)
                continue
            g.value = {"exit": code}
            if code != 0:
                g.problems.append(f"{name} exited {code}: {log.strip()[-300:]}")
                continue
            try:
                self._check_step(name, g, inputs, inst, workdir)
            except (OSError, ValueError, KeyError) as exc:
                g.problems.append(f"{name} output unreadable: {exc!r}")
        return groups

    def _check_step(self, name, g, inputs, inst, workdir):
        if name.startswith("construct"):
            fname = name.split("_")[1] + ".csv"
            self.csv_bytes[fname] = (workdir / fname).stat().st_size
            loads = [ok for f, ok in inst.loads if f == fname]
            if not loads:
                # no step loaded it inside the body: load it here
                loads = [same_cloud(constructions.load_cloud(workdir / fname),
                                    inputs[fname[:-4]])]
            g.value["roundtrip"] = all(loads)
            if not all(loads):
                g.problems.append(f"{fname} does not load back bit-exact")
        elif name.startswith("dimension"):
            metric = E if name.endswith("E") else H
            est = json.loads((workdir / f"d{TAG[metric]}.json").read_text())
            scales = sorted(est["scales"] + est["dropped_scales"], key=lambda s: -s["delta"])
            deltas = [s["delta"] for s in scales]
            counts = [s["count"] for s in scales]
            digests, g.problems = net_check(inst, "fs", metric, deltas, counts, inputs["fs"])
            g.value.update(counts=counts, centers_sha256=digests, slope=repr(est["slope"]))
        elif name == "compare":
            g.value["ok"] = json.loads((workdir / "compare.json").read_text())["ok"]
        elif name == "density":
            res = json.loads((workdir / "ex3.json").read_text())
            g.value["sha256"] = sha256_json(res)
            total = inputs["fs"].total_mass
            for p in res["points"]:
                for e in p["series"]:
                    if e["inside"] + e["outside"] > total * (1.0 + MASS_SLACK):
                        g.problems.append(f"ex3 at r={e['r']!r}: inside + outside > total mass")
                        return

    def sizes(self, inputs) -> dict:
        return {"points.fs": len(inputs["fs"]), "points.cantor": len(inputs["cantor"]),
                **{f"csv_bytes.{k}": v for k, v in self.csv_bytes.items()}}


WORKLOADS = {w.name: w for w in (Nets, Density, Pipeline)}
