import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heislab.cli import main
from heislab.constructions import load_cloud


def run(*args):
    return main([str(a) for a in args])


def test_construct_ex1(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code = run("construct", "--set", "ex1", "--level", "3", "--samples-per-rect", "64",
               "--out", out)
    assert code == 0
    cloud = load_cloud(out)
    assert len(cloud) == 256 * 64
    assert cloud.total_mass == pytest.approx(1.0, rel=1e-12)
    assert (tmp_path / "ex1.meta.json").exists()


def test_construct_cantor(tmp_path):
    out = tmp_path / "c.csv"
    assert run("construct", "--set", "cantor", "--d", "0.5", "--depth", "7",
               "--out", out) == 0
    cloud = load_cloud(out)
    assert len(cloud) == 2**7
    t = cloud.points[:, 2]
    assert (t >= 0).all() and (t <= 1).all()
    assert (cloud.points[:, :2] == 0).all()


def test_construct_ex2_off_dyadic_M(tmp_path):
    # rectangle sides carry rounding of up to half an ulp of their coordinates
    for M, level in (("7.3", "12"), ("1.1", "9")):
        assert run("construct", "--set", "ex2", "--M", M, "--level", level,
                   "--out", tmp_path / "x.csv") == 0


def test_construct_ex2_rejects_shallow_level(tmp_path, capsys):
    code = run("construct", "--set", "ex2", "--level", "1", "--M", "2",
               "--out", tmp_path / "x.csv")
    assert code == 2
    err = capsys.readouterr().err
    assert "68M" in err


def test_construct_resource_limit(tmp_path):
    code = run("construct", "--set", "hsquare", "--depth", "13", "--out", tmp_path / "q.csv")
    assert code == 3


def test_dimension_command(tmp_path, capsys):
    cloud_path = tmp_path / "tseg.csv"
    run("construct", "--set", "tseg", "--points", "16384", "--out", cloud_path)
    est_path = tmp_path / "est.json"
    code = run("dimension", "--in", cloud_path, "--metric", "heisenberg",
               "--delta-min", "0.0625", "--delta-max", "0.5", "--scales", "8",
               "--out", est_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "slope" in out
    est = json.loads(est_path.read_text())
    assert abs(est["slope"] - 2.0) < 0.15
    assert est["metric"] == "heisenberg"
    assert "dropped_scales" in est and len(est["dropped_scales"]) == 2


def test_dimension_bad_scale_range(tmp_path):
    cloud_path = tmp_path / "xseg.csv"
    run("construct", "--set", "xseg", "--points", "512", "--out", cloud_path)
    code = run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.5", "--delta-max", "0.1", "--out", tmp_path / "e.json")
    assert code == 2


def test_dimension_default_ladder(tmp_path):
    # without --scales: about 8 scales per decade, the two ends dropped from the fit
    cloud_path = tmp_path / "xseg.csv"
    run("construct", "--set", "xseg", "--points", "2000", "--out", cloud_path)
    est_path = tmp_path / "e.json"
    assert run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.001", "--delta-max", "0.25", "--out", est_path) == 0
    est = json.loads(est_path.read_text())
    assert len(est["scales"]) == 18
    assert [s["delta"] for s in est["dropped_scales"]] == pytest.approx([0.25, 0.001])


@pytest.mark.parametrize("argv", [
    ("dimension", "--in", "c.csv", "--metric", "euclidean", "--delta-min", "0.05",
     "--delta-max", "0.4", "--per-decade", "8", "--out", "e.json"),
    ("density", "--in", "c.csv", "--probe", "ex2", "--M", "3", "--out", "p.json"),
], ids=["per-decade", "density-M"])
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("radii, message", [
    (("--r-min", "0", "--r-max", "0.2"), "0 < lo < hi"),
    (("--r-min", "0.2", "--r-max", "0.02"), "0 < lo < hi"),
    (("--r-min", "0.02", "--r-max", "0.2", "--r-count", "0"), "nonempty"),
], ids=["zero-r-min", "swapped", "zero-count"])
def test_bad_radius_range_exits_2(tmp_path, capsys, radii, message):
    tseg_path = tmp_path / "tseg.csv"
    run("construct", "--set", "tseg", "--points", "500", "--out", tseg_path)
    capsys.readouterr()
    code = run("density", "--in", tseg_path, "--probe", "thm2", *radii,
               "--base-point", "0,0,0", "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_density_ex1_needs_level_2(tmp_path, capsys):
    cloud_path = tmp_path / "ex1.csv"
    run("construct", "--set", "ex1", "--level", "1", "--out", cloud_path)
    capsys.readouterr()
    code = run("density", "--in", cloud_path, "--probe", "ex1", "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no admissible k" in err and "level >= 2" in err


@pytest.mark.parametrize("construct, probe, key", [
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", "M"),
    (("--set", "fs", "--d", "0.5", "--depth", "2", "--cantor-depth", "4"), "ex3", "d"),
], ids=["ex2-no-M", "fs-no-d"])
def test_density_sidecar_without_parameter_exits_2(tmp_path, capsys, construct, probe, key):
    cloud_path, cantor_path = tmp_path / "c.csv", tmp_path / "cantor.csv"
    run("construct", *construct, "--out", cloud_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "4", "--out", cantor_path)
    meta_path = tmp_path / "c.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["source"][key]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    code = run("density", "--in", cloud_path, "--probe", probe, "--cantor-in", cantor_path,
               "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"number {key}" in err


def test_density_ex1_assert_gate(tmp_path):
    cloud_path = tmp_path / "ex1.csv"
    run("construct", "--set", "ex1", "--level", "3", "--samples-per-rect", "8",
        "--out", cloud_path)
    out = tmp_path / "probe.json"
    code = run("density", "--in", cloud_path, "--probe", "ex1", "--out", out, "--assert")
    assert code == 0
    res = json.loads(out.read_text())
    assert res["summary"]["max_ratio"] >= 0.105
    assert res["convention"] == "2r"


def test_density_probe_set_mismatch(tmp_path, capsys):
    cloud_path = tmp_path / "xseg.csv"
    run("construct", "--set", "xseg", "--points", "256", "--out", cloud_path)
    code = run("density", "--in", cloud_path, "--probe", "ex1", "--out", tmp_path / "r.json")
    assert code == 2


def test_density_thm_scans(tmp_path):
    tseg_path = tmp_path / "tseg.csv"
    run("construct", "--set", "tseg", "--points", "4000", "--out", tseg_path)
    out = tmp_path / "thm2.json"
    code = run("density", "--in", tseg_path, "--probe", "thm2", "--delta", "0.25",
               "--s", "1", "--r-min", "0.02", "--r-max", "0.2",
               "--base-point", "0,0,0", "--out", out, "--assert")
    assert code == 0
    res = json.loads(out.read_text())
    assert abs(res["summary"]["max_ratio"] - 0.75) < 0.01
    assert res["seed"] == 0

    out1 = tmp_path / "thm1.json"
    code = run("density", "--in", tseg_path, "--probe", "thm1", "--epsilon", "0.5",
               "--radii", "0.01", "--base-point", "0,0,0", "--out", out1)
    assert code == 0
    res = json.loads(out1.read_text())
    assert res["convention"] == "r^s"

    # the density probes draw no random numbers, so they take no seed
    with pytest.raises(SystemExit) as exc:
        run("density", "--in", tseg_path, "--probe", "thm1", "--radii", "0.01",
            "--base-point", "0,0,0", "--seed", "1", "--out", out1)
    assert exc.value.code == 2


def test_density_ex2_reads_m_from_sidecar(tmp_path):
    cloud_path = tmp_path / "ex2.csv"
    assert run("construct", "--set", "ex2", "--level", "9", "--M", "2",
               "--samples-per-rect", "2", "--out", cloud_path) == 0
    out = tmp_path / "probe.json"
    code = run("density", "--in", cloud_path, "--probe", "ex2", "--out", out, "--assert")
    assert code == 0
    res = json.loads(out.read_text())
    assert res["summary"]["min_ratio"] >= 0.0625 - 0.01
    assert res["rho_rule"] == {"rule": "quadratic", "M": 2.0}


def test_compare_cantor_pair(tmp_path):
    cloud_path = tmp_path / "cantor.csv"
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "7", "--out", cloud_path)
    de, dh = tmp_path / "dE.json", tmp_path / "dH.json"
    run("dimension", "--in", cloud_path, "--metric", "euclidean",
        "--delta-min", str(4.0**-5), "--delta-max", "0.25", "--scales", "5", "--out", de)
    run("dimension", "--in", cloud_path, "--metric", "heisenberg",
        "--delta-min", str(2.0**-5), "--delta-max", "0.5", "--scales", "5", "--out", dh)
    assert abs(json.loads(de.read_text())["slope"] - 0.5) < 0.1
    assert abs(json.loads(dh.read_text())["slope"] - 1.0) < 0.15
    assert run("compare", "--dimE", de, "--dimH", dh, "--assert") == 0


@pytest.mark.parametrize("blob", [
    {"metric": "heisenberg", "intercept": 0.0, "r_squared": 1.0, "scales": []},
    [1, 2],
    {"metric": "heisenberg", "slope": "steep", "intercept": 0.0, "r_squared": 1.0,
     "scales": []},
], ids=["no-slope", "list", "string-slope"])
def test_compare_malformed_estimate_exits_2(tmp_path, capsys, blob):
    cloud_path = tmp_path / "xseg.csv"
    run("construct", "--set", "xseg", "--points", "512", "--out", cloud_path)
    de, dh = tmp_path / "dE.json", tmp_path / "dH.json"
    run("dimension", "--in", cloud_path, "--metric", "euclidean",
        "--delta-min", "0.05", "--delta-max", "0.4", "--out", de)
    dh.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run("compare", "--dimE", de, "--dimH", dh) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(dh) in err and "dimension estimate" in err


def test_density_ex3_with_cantor_input(tmp_path):
    fs_path = tmp_path / "fs.csv"
    cantor_path = tmp_path / "cantor.csv"
    run("construct", "--set", "fs", "--d", "0.5", "--depth", "4", "--cantor-depth", "5",
        "--out", fs_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "5", "--out", cantor_path)
    out = tmp_path / "probe.json"
    code = run("density", "--in", fs_path, "--probe", "ex3", "--cantor-in", cantor_path,
               "--r-min", "0.1", "--r-max", "2.0", "--out", out)
    assert code == 0
    res = json.loads(out.read_text())
    assert res["extra"]["c0"] > 0
    assert res["s"] == 2.5
    # mismatched inputs are refused
    assert run("density", "--in", cantor_path, "--probe", "ex3",
               "--cantor-in", cantor_path, "--out", out) == 2


@pytest.mark.parametrize("construct", [
    ("--set", "cantor", "--d", "0.3", "--depth", "5"),
    ("--set", "hsquare", "--depth", "3"),
])
def test_density_ex3_rejects_wrong_cantor_input(tmp_path, capsys, construct):
    fs_path, other = tmp_path / "fs.csv", tmp_path / "other.csv"
    run("construct", "--set", "fs", "--d", "0.5", "--depth", "3", "--cantor-depth", "4",
        "--out", fs_path)
    run("construct", *construct, "--out", other)
    capsys.readouterr()
    code = run("density", "--in", fs_path, "--probe", "ex3", "--cantor-in", other,
               "--out", tmp_path / "probe.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--cantor-in" in err


def test_sandwich_command_outer_defect(tmp_path):
    out = tmp_path / "s.json"
    code = run("sandwich", "--R", "2", "--samples", "20000", "--seed", "1", "--out", out)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["inner_violations"] == 0
    assert rep["outer_plane_violations"] == 0
    assert rep["outer_violations"] > 0
    # the gate reports the failure through the exit code
    assert run("sandwich", "--R", "2", "--samples", "20000", "--seed", "1",
               "--out", out, "--assert") == 4


def test_compare_command(tmp_path, capsys):
    xseg_path = tmp_path / "xseg.csv"
    tseg_path = tmp_path / "tseg.csv"
    run("construct", "--set", "xseg", "--points", "4096", "--out", xseg_path)
    run("construct", "--set", "tseg", "--points", "16384", "--out", tseg_path)
    de = tmp_path / "dE.json"
    dh = tmp_path / "dH.json"
    run("dimension", "--in", tseg_path, "--metric", "euclidean",
        "--delta-min", "0.01", "--delta-max", "0.25", "--out", de)
    run("dimension", "--in", tseg_path, "--metric", "heisenberg",
        "--delta-min", "0.0625", "--delta-max", "0.5", "--out", dh)
    verdict = tmp_path / "v.json"
    code = run("compare", "--dimE", de, "--dimH", dh, "--out", verdict, "--assert")
    assert code == 0
    v = json.loads(verdict.read_text())
    assert v["ok"] is True
    assert v["beta_plus"] == pytest.approx(min(2 * v["dimE"], v["dimE"] + 1), abs=1e-9)
    assert "ok: true" in capsys.readouterr().out


def test_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("sandwich", "--R", "1.5", "--samples", "5000", "--seed", "7", "--out", a)
    run("sandwich", "--R", "1.5", "--samples", "5000", "--seed", "7", "--out", b)
    assert a.read_bytes() == b.read_bytes()

    ca, cb = tmp_path / "ca.csv", tmp_path / "cb.csv"
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "6", "--out", ca)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "6", "--out", cb)
    assert ca.read_bytes() == cb.read_bytes()


def test_svg_outputs(tmp_path):
    cloud_path = tmp_path / "ex1.csv"
    svg = tmp_path / "ex1.svg"
    run("construct", "--set", "ex1", "--level", "2", "--out", cloud_path, "--svg", svg)
    body = svg.read_text()
    assert body.startswith("<svg") and "circle" in body

    est = tmp_path / "e.json"
    plot = tmp_path / "plot.svg"
    run("dimension", "--in", cloud_path, "--metric", "euclidean",
        "--delta-min", "0.02", "--delta-max", "0.2", "--out", est, "--svg", plot)
    assert "polyline" in plot.read_text()


def test_threads_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("HEISLAB_THREADS", "1")
    cloud_path = tmp_path / "xseg.csv"
    run("construct", "--set", "xseg", "--points", "1024", "--out", cloud_path)
    est = tmp_path / "e.json"
    assert run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.05", "--delta-max", "0.4", "--out", est) == 0


@pytest.mark.parametrize("rows, message", [
    ("", "no data rows"),
    ("0,0,0.5,0.5\n0,0,1\n", "4 fields"),
    ("0,0,0.5\n0,0,1\n", "4 fields"),
    ("0,0,0.5,0.5,9\n0,0,1,0.5,9\n", "4 fields"),
    ("0,0,nan,0.5\n0,0,1,0.5\n", "non-finite"),
], ids=["header-only", "ragged", "3-field", "5-field", "nan"])
def test_dimension_header_only_csv_exits_2(tmp_path, capsys, rows, message):
    cloud_path = tmp_path / "c.csv"
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "3", "--out", cloud_path)
    cloud_path.write_text("x,y,t,weight\n" + rows)
    capsys.readouterr()
    code = run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.05", "--delta-max", "0.4", "--out", tmp_path / "e.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_threads_env_exits_2(tmp_path, monkeypatch, capsys, value):
    cloud_path = tmp_path / "xseg.csv"
    run("construct", "--set", "xseg", "--points", "256", "--out", cloud_path)
    monkeypatch.setenv("HEISLAB_THREADS", value)
    capsys.readouterr()
    code = run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.05", "--delta-max", "0.4", "--out", tmp_path / "e.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "HEISLAB_THREADS" in err


def test_dimension_lattice_resource_limit_exits_3(tmp_path, capsys):
    cloud_path = tmp_path / "far.csv"
    cloud_path.write_text("x,y,t,weight\n0.0,0.0,0.0,0.5\n1e10,0.0,0.0,0.5\n")
    code = run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "1e-7", "--delta-max", "1e-6", "--out", tmp_path / "e.json")
    assert code == 3
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("sidecar, message", [
    ("{oops", "not valid JSON"),
    ("[1, 2]", "JSON object"),
    ('{"level": 3, "total_mass": 1.0}', "lacks source"),
    ('{"source": {"kind": "cantor"}, "total_mass": 1.0}', "lacks level"),
    ('{"source": {"kind": "cantor"}, "level": 3}', "lacks total_mass"),
    ('{"source": "cantor", "level": 3, "total_mass": 1.0}', "source must be"),
    ('{"source": {"kind": "cantor"}, "level": [3], "total_mass": 1.0}', "must be numbers"),
    ('{"source": {}, "level": 3, "total_mass": 1.0, "err_t": "x"}', "must be numbers"),
    ('{"source": {}, "level": 1e999, "total_mass": 1.0}', "must be numbers"),
], ids=["not-json", "list", "no-source", "no-level", "no-total-mass", "string-source",
        "list-level", "string-err", "infinite-level"])
def test_malformed_sidecar_exits_2(tmp_path, capsys, sidecar, message):
    cloud_path = tmp_path / "c.csv"
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "3", "--out", cloud_path)
    meta_path = tmp_path / "c.meta.json"
    meta_path.write_text(sidecar)
    capsys.readouterr()
    code = run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.05", "--delta-max", "0.4", "--out", tmp_path / "e.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and str(meta_path) in err


def test_missing_sidecar_loads_as_unknown(tmp_path, capsys):
    cloud_path = tmp_path / "ex1.csv"
    run("construct", "--set", "ex1", "--level", "3", "--samples-per-rect", "4",
        "--out", cloud_path)
    (tmp_path / "ex1.meta.json").unlink()
    cloud = load_cloud(cloud_path)
    assert cloud.source == {"kind": "unknown"} and cloud.placement_error == 0.0
    assert run("dimension", "--in", cloud_path, "--metric", "euclidean",
               "--delta-min", "0.05", "--delta-max", "0.4", "--out", tmp_path / "e.json") == 0
    capsys.readouterr()
    assert run("density", "--in", cloud_path, "--probe", "ex1",
               "--out", tmp_path / "r.json") == 2
    assert "'unknown'" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cloud_path = tmp_path / "tseg.csv"
    assert run("construct", "--set", "tseg", "--points", "1000", "--out", cloud_path) == 0
    out = tmp_path / "thm2.json"
    proc = subprocess.run(
        [sys.executable, "-m", "heislab", "density", "--in", str(cloud_path), "--probe", "thm2",
         "--radii", "0.1", "--base-point", "0,0,0", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "max ratio" in proc.stdout
    assert json.loads(out.read_text())["probe"] == "thm2"
