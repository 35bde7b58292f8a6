import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heislab.cli import main
from heislab.constructions import load_cloud
from heislab.probes import SandwichReport


def run(*args):
    return main([str(a) for a in args])


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every heislab line of the fenced block under "## CLI" in the README exits 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("heislab ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


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


def test_construct_ex2_defaults_build_a_probeable_cloud(tmp_path):
    # the default level is the first with a probing window at the default M = 2
    bare, spelled = tmp_path / "bare", tmp_path / "spelled"
    bare.mkdir()
    spelled.mkdir()
    assert run("construct", "--set", "ex2", "--out", bare / "ex2.csv", "--svg", bare / "ex2.svg") == 0
    assert run("construct", "--set", "ex2", "--M", "2", "--level", "9", "--samples-per-rect", "1",
               "--out", spelled / "ex2.csv", "--svg", spelled / "ex2.svg") == 0
    names = sorted(p.name for p in bare.iterdir())
    assert names == sorted(p.name for p in spelled.iterdir()) and len(names) == 3
    for name in names:
        assert (bare / name).read_bytes() == (spelled / name).read_bytes()


def test_construct_ex2_rejects_shallow_level(tmp_path, capsys):
    code = run("construct", "--set", "ex2", "--level", "1", "--M", "2",
               "--out", tmp_path / "x.csv")
    assert code == 2
    err = capsys.readouterr().err
    assert "68M" in err


def test_construct_resource_limit(tmp_path):
    code = run("construct", "--set", "hsquare", "--depth", "13", "--out", tmp_path / "q.csv")
    assert code == 3


def test_construct_segment_resource_limit_exits_3(tmp_path, capsys):
    # a segment past the point limit is a resource limit, like every other builder
    out = tmp_path / "x.csv"
    assert run("construct", "--set", "xseg", "--points", "20000000", "--out", out) == 3
    assert capsys.readouterr().err.startswith("resource limit: ")
    assert not out.exists()
    assert run("construct", "--set", "xseg", "--points", "0", "--out", out) == 2


@pytest.mark.parametrize("argv", [
    ("--set", "ex1", "--level", "14"),
    ("--set", "ex2", "--M", "2", "--level", "15000"),
    ("--set", "hsquare", "--depth", "7200"),
    ("--set", "cantor", "--d", "0.5", "--depth", "15000"),
    ("--set", "fs", "--d", "0.5", "--depth", "9000", "--cantor-depth", "2"),
], ids=["ex1", "ex2", "hsquare", "cantor", "fs"])
def test_construct_any_depth_exits_3(tmp_path, capsys, argv):
    # the size check stops counting past the limit, so no count is too long to print
    out = tmp_path / "c.csv"
    assert run("construct", *argv, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("resource limit: ")
    assert f"more than {10**7}" in err
    assert not out.exists()


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


@pytest.mark.parametrize("argv, option", [
    (("dimension", "--in", "c.csv", "--metric", "euclidean", "--delta-min", "0.05",
      "--delta-max", "0.4", "--per-decade", "8", "--out", "e.json"), "--per-decade"),
    (("density", "--in", "c.csv", "--probe", "ex2", "--M", "3", "--out", "p.json"), "--M"),
    (("density", "--in", "c.csv", "--probe", "thm2", "--radii", "abc", "--out", "p.json"),
     "argument --radii"),
    (("sandwich", "--R", "2", "--samples", "10", "--r-values", "x", "--out", "s.json"),
     "argument --r-values"),
    (("dimension", "--in", "c.csv", "--metric", "euclidean", "--delta-min", "0.05",
      "--delta-max", "0.4", "--scales", "-1", "--out", "e.json"), "argument --scales"),
    (("density", "--in", "c.csv", "--probe", "thm2", "--r-min", "0.02", "--r-max", "0.2",
      "--r-count", "-2", "--out", "p.json"), "argument --r-count"),
], ids=["per-decade", "density-M", "radii-not-numbers", "r-values-not-numbers",
        "negative-scales", "negative-r-count"])
def test_removed_options_are_usage_errors(capsys, argv, option):
    # argparse owns option syntax: it prints the usage, then one error line naming the option
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert " error: " in last and option in last


@pytest.mark.parametrize("radii, message", [
    (("--r-min", "0", "--r-max", "0.2"), "0 < lo < hi"),
    (("--r-min", "0.2", "--r-max", "0.02"), "0 < lo < hi"),
    (("--r-min", "0.02", "--r-max", "0.2", "--r-count", "0"), "nonempty"),
    (("--r-min", "0.02", "--r-max", "inf"), "0 < lo < hi"),
    (("--r-min", "0.02"), "go together"),
    (("--r-max", "0.2"), "go together"),
    (("--r-count", "5"), "--r-count needs"),
    (("--radii", "0.1", "--r-min", "0.02", "--r-max", "0.2"), "excludes"),
    (("--radii", "0.1,inf"), "finite positive"),
    (("--radii", "nan"), "finite positive"),
    (("--radii", "0.1,0"), "finite positive"),
    (("--radii", ""), "nonempty"),
], ids=["zero-r-min", "swapped", "zero-count", "inf-r-max", "lone-r-min", "lone-r-max",
        "lone-r-count", "radii-and-range", "inf-radius", "nan-radius", "zero-radius",
        "no-radii"])
def test_bad_radius_range_exits_2(tmp_path, capsys, radii, message):
    tseg_path = tmp_path / "tseg.csv"
    run("construct", "--set", "tseg", "--points", "500", "--out", tseg_path)
    capsys.readouterr()
    code = run("density", "--in", tseg_path, "--probe", "thm2", *radii,
               "--base-point", "0,0,0", "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("construct, probe, radii, message", [
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", ("--radii", "inf"),
     "finite positive"),
], ids=["ex2-inf"])
def test_density_probe_radius_rules_exit_2(tmp_path, capsys, construct, probe, radii, message):
    cloud_path = tmp_path / "c.csv"
    assert run("construct", *construct, "--out", cloud_path) == 0
    capsys.readouterr()
    code = run("density", "--in", cloud_path, "--probe", probe, *radii,
               "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv, unread", [
    (("--set", "ex1", "--M", "3"), "--M"),
    (("--set", "ex2", "--points", "500"), "--points"),
    (("--set", "hsquare", "--d", "0.7"), "--d"),
    (("--set", "cantor", "--cantor-depth", "3"), "--cantor-depth"),
    (("--set", "fs", "--samples-per-rect", "4"), "--samples-per-rect"),
    (("--set", "xseg", "--depth", "3"), "--depth"),
    (("--set", "tseg", "--points", "500", "--d", "0.7", "--level", "9"), "--level, --d"),
], ids=["ex1", "ex2", "hsquare", "cantor", "fs", "xseg", "tseg"])
def test_construct_unread_option_exits_2(tmp_path, capsys, argv, unread):
    # each set reads its own options: one it would ignore is refused before any work
    out = tmp_path / "c.csv"
    assert run("construct", *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"error: set {argv[1]} does not read {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("probe, argv, unread", [
    ("thm1", ("--radii", "0.1", "--delta", "0.3"), "--delta"),
    ("thm2", ("--radii", "0.1", "--base-count", "3", "--epsilon", "0.9",
              "--cantor-in", "nothere.csv"), "--epsilon, --cantor-in"),
    ("ex1", ("--s", "1"), "--s"),
    ("ex1", ("--radii", "0.5"), "--radii"),
    ("ex1", ("--r-min", "0.1", "--r-max", "0.2"), "--r-min, --r-max"),
    ("ex2", ("--cantor-in", "nothere.csv"), "--cantor-in"),
    ("ex3", ("--cantor-in", "nothere.csv", "--epsilon", "0.5"), "--epsilon"),
    ("ex3", ("--base-point", "0,0,0"), "--base-point"),
], ids=["thm1", "thm2", "ex1", "ex1-radii", "ex1-range", "ex2", "ex3", "ex3-base-point"])
def test_density_unread_option_exits_2(tmp_path, capsys, probe, argv, unread):
    # the option check comes before the cloud is read: no probe ignores an option;
    # ex1's radii are tied to the cloud's levels, and ex3 strides its own panel
    tseg_path, out = tmp_path / "tseg.csv", tmp_path / "p.json"
    run("construct", "--set", "tseg", "--points", "500", "--out", tseg_path)
    capsys.readouterr()
    assert run("density", "--in", tseg_path, "--probe", probe, *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"error: probe {probe} does not read {unread}\n"
    assert not out.exists()


def test_read_options_default_as_before(tmp_path):
    # an option left out takes the value it had as an argparse default
    for name, argv in (("a", ()), ("b", ("--points", "4096"))):
        assert run("construct", "--set", "tseg", *argv, "--out", tmp_path / f"{name}.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    for probe, explicit in (("thm1", ("--epsilon", "0.5", "--s", "1")),
                            ("thm2", ("--delta", "0.25", "--s", "1"))):
        outs = [tmp_path / f"{probe}{i}.json" for i in range(2)]
        for argv, out in zip(((), explicit), outs):
            assert run("density", "--in", tmp_path / "a.csv", "--probe", probe, "--radii",
                       "0.2,0.1", "--base-count", "3", *argv, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_density_ex1_needs_level_2(tmp_path, capsys):
    cloud_path = tmp_path / "ex1.csv"
    run("construct", "--set", "ex1", "--level", "1", "--out", cloud_path)
    capsys.readouterr()
    code = run("density", "--in", cloud_path, "--probe", "ex1", "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no admissible k" in err and "level >= 2" in err


@pytest.mark.parametrize("construct, probe, key, value", [
    (("--set", "ex1", "--level", "3"), "ex1", "level", None),
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", "level", None),
    (("--set", "ex1", "--level", "3"), "ex1", "level", 2.5),
    (("--set", "ex1", "--level", "3"), "ex1", "level", "3"),
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", "M", None),
    (("--set", "fs", "--d", "0.5", "--depth", "2", "--cantor-depth", "4"), "ex3", "d", None),
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", "M", "2"),
    (("--set", "fs", "--d", "0.5", "--depth", "2", "--cantor-depth", "4"), "ex3", "d", "0.5"),
    (("--set", "ex1", "--level", "3"), "ex1", "level", True),
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", "level", True),
], ids=["ex1-no-level", "ex2-no-level", "ex1-fractional-level", "ex1-string-level",
        "ex2-no-M", "fs-no-d", "ex2-string-M", "fs-string-d", "ex1-bool-level",
        "ex2-bool-level"])
def test_density_sidecar_without_parameter_exits_2(tmp_path, capsys, construct, probe, key,
                                                   value):
    # None deletes the key; the level counts subdivisions, so it must be a JSON integer, and
    # every value is a JSON number: "2" is not read as 2, nor true as 1
    cloud_path, cantor_path = tmp_path / "c.csv", tmp_path / "cantor.csv"
    run("construct", *construct, "--out", cloud_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "4", "--out", cantor_path)
    meta_path = tmp_path / "c.meta.json"
    meta = json.loads(meta_path.read_text())
    if value is None:
        del meta["source"][key]
    else:
        meta["source"][key] = value
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    cantor_in = ("--cantor-in", cantor_path) if probe == "ex3" else ()  # only ex3 reads it
    code = run("density", "--in", cloud_path, "--probe", probe, *cantor_in,
               "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f" {key} in the sidecar source" in err


@pytest.mark.parametrize("construct, probe, radii, count", [
    (("--set", "ex1", "--level", "3"), "ex1", (), "0"),
    (("--set", "ex2", "--level", "9", "--M", "2"), "ex2", (), "0"),
    (("--set", "tseg", "--points", "500"), "thm1", ("--radii", "0.1"), "0"),
    (("--set", "tseg", "--points", "500"), "thm2", ("--radii", "0.1"), "-2"),
], ids=["ex1", "ex2", "thm1", "thm2-negative"])
def test_density_empty_panel_exits_2(tmp_path, capsys, construct, probe, radii, count):
    # an empty panel used to pass every gate and write Infinity into the JSON
    cloud_path = tmp_path / "c.csv"
    assert run("construct", *construct, "--out", cloud_path) == 0
    capsys.readouterr()
    code = run("density", "--in", cloud_path, "--probe", probe, *radii, "--base-count", count,
               "--out", tmp_path / "p.json", "--assert")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--base-count" in err and "at least one base point" in err


@pytest.mark.parametrize("probe", ["thm1", "thm2", "ex1", "ex2", "ex3"])
def test_density_base_count_with_base_point_exits_2(tmp_path, capsys, probe):
    # the base points replace the panel, so a count given with them was ignored
    out = tmp_path / "p.json"
    assert run("density", "--in", tmp_path / "nothere.csv", "--probe", probe, "--base-point",
               "0,0,0", "--base-count", "7", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --base-count ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("density", "--probe", "thm1"), "probe thm1 needs --radii or --r-min/--r-max"),
    (("density", "--probe", "ex3"), "probe ex3 needs --cantor-in"),
    (("density", "--probe", "thm2", "--radii", "0.1", "--base-count", "0"),
     "--base-count 0: a probe needs at least one base point"),
    (("density", "--probe", "thm2", "--r-min", "0.1"), "--r-min and --r-max go together"),
    (("density", "--probe", "thm2", "--r-count", "5"), "--r-count needs --r-min and --r-max"),
    (("density", "--probe", "thm2", "--radii", "0.1", "--r-min", "0.02", "--r-max", "0.2"),
     "--radii excludes --r-min/--r-max"),
    (("density", "--probe", "thm2", "--r-min", "0.5", "--r-max", "0.1"), "0 < lo < hi"),
    (("dimension", "--metric", "euclidean", "--delta-min", "0.5", "--delta-max", "0.1"),
     "0 < lo < hi"),
    (("dimension", "--metric", "euclidean", "--delta-min", "0.1", "--delta-max", "0.5",
      "--scales", "2"), "--scales 2: a fit needs at least 3 scales"),
], ids=["thm1-no-radii", "ex3-no-cantor-in", "base-count-0", "lone-r-min", "lone-r-count",
        "radii-and-range", "swapped-range", "dimension-swapped", "dimension-2-scales"])
def test_usage_errors_come_before_the_cloud_is_read(tmp_path, capsys, argv, message):
    # the options alone decide these, so the missing input file is never opened
    out = tmp_path / "o.json"
    assert run(argv[0], "--in", tmp_path / "nothere.csv", *argv[1:], "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "nothere" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("dimension", "--in", "{dir}", "--metric", "euclidean", "--delta-min", "0.05",
     "--delta-max", "0.4", "--out", "{tmp}/e.json"),
    ("density", "--in", "{dir}", "--probe", "thm1", "--radii", "0.1", "--out", "{tmp}/p.json"),
    ("compare", "--dimE", "{dir}", "--dimH", "{dir}"),
    ("construct", "--set", "tseg", "--points", "256", "--out", "{dir}"),
    ("dimension", "--in", "{cloud}", "--metric", "euclidean", "--delta-min", "0.05",
     "--delta-max", "0.4", "--out", "{dir}"),
    ("construct", "--set", "tseg", "--points", "256", "--out", "{tmp}/s.csv", "--svg", "{dir}"),
], ids=["dimension-in", "density-in", "compare-dimE", "construct-out", "dimension-out",
        "construct-svg"])
def test_directory_path_exits_2(tmp_path, capsys, argv):
    # a file that cannot be read or written is a usage error: one line, and a
    # failed write leaves no temp file behind
    adir, cloud = tmp_path / "adir", tmp_path / "t.csv"
    adir.mkdir()
    assert run("construct", "--set", "tseg", "--points", "256", "--out", cloud) == 0
    capsys.readouterr()
    assert run(*(a.format(dir=adir, cloud=cloud, tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not list(tmp_path.rglob("*.tmp"))


def test_dimension_too_few_scales_computes_no_net(tmp_path, monkeypatch, capsys):
    cloud_path, out = tmp_path / "xseg.csv", tmp_path / "e.json"
    assert run("construct", "--set", "xseg", "--points", "500", "--out", cloud_path) == 0

    def no_nets(*args, **kwargs):
        raise AssertionError("net_counts called")

    monkeypatch.setattr("heislab.cli.net_counts", no_nets)
    assert run("dimension", "--in", cloud_path, "--metric", "heisenberg", "--delta-min", "0.1",
               "--delta-max", "0.5", "--scales", "2", "--out", out) == 2
    assert "at least 3 scales" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s", ["nan", "inf", "1000"])
def test_density_bad_denominator_exits_2(tmp_path, capsys, s):
    # (2r)^s at r = 0.1 is NaN or underflows to 0: NaN ratios, or a ZeroDivisionError
    tseg_path, out = tmp_path / "tseg.csv", tmp_path / "p.json"
    run("construct", "--set", "tseg", "--points", "500", "--out", tseg_path)
    capsys.readouterr()
    assert run("density", "--in", tseg_path, "--probe", "thm2", "--radii", "0.1",
               "--s", s, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a finite positive number" in err
    assert not out.exists()


def test_density_subnormal_radius_exits_2(tmp_path, capsys):
    # the denominator 2e-320 is finite and positive, but the band over it
    # overflowed and "error_bound": Infinity was written
    tseg_path, out = tmp_path / "tseg.csv", tmp_path / "o.json"
    run("construct", "--set", "tseg", "--points", "1000", "--out", tseg_path)
    capsys.readouterr()
    assert run("density", "--in", tseg_path, "--probe", "thm2", "--radii", "1e-320", "--delta",
               "0.25", "--s", "1", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "r=1e-320" in err
    assert not out.exists()


def test_density_thm1_assert_gate_fails(tmp_path, capsys):
    # a vertical segment keeps mass off every shrinking plane neighborhood
    tseg_path, out = tmp_path / "tseg.csv", tmp_path / "p.json"
    run("construct", "--set", "tseg", "--points", "2000", "--out", tseg_path)
    capsys.readouterr()
    assert run("density", "--in", tseg_path, "--probe", "thm1", "--radii", "0.2,0.1,0.05",
               "--out", out, "--assert") == 4
    assert capsys.readouterr().err == "assertion gate failed\n"
    assert json.loads(out.read_text())["probe"] == "thm1"


def test_density_ex3_degenerate(tmp_path):
    # no annulus constant fits radii this small: the probe reports, the gate fails
    fs_path, cantor_path = tmp_path / "fs.csv", tmp_path / "cantor.csv"
    run("construct", "--set", "fs", "--d", "0.5", "--depth", "2", "--cantor-depth", "3",
        "--out", fs_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "3", "--out", cantor_path)
    out = tmp_path / "p.json"
    argv = ("density", "--in", fs_path, "--probe", "ex3", "--cantor-in", cantor_path,
            "--radii", "1e-9", "--out", out)
    assert run(*argv) == 0
    assert json.loads(out.read_text())["extra"]["status"] == "degenerate"
    assert run(*argv, "--assert") == 4


def test_density_ex3_degenerate_json_is_strict(tmp_path):
    # the degenerate probe used to write NaN ratios and an Infinity error bound
    fs_path, cantor_path = tmp_path / "fs.csv", tmp_path / "cantor.csv"
    run("construct", "--set", "fs", "--d", "0.5", "--depth", "2", "--cantor-depth", "3",
        "--out", fs_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "3", "--out", cantor_path)
    out = tmp_path / "p.json"
    assert run("density", "--in", fs_path, "--probe", "ex3", "--cantor-in", cantor_path,
               "--radii", "1e-9", "--out", out) == 0

    def refuse(name):
        raise ValueError(f"{name} is not a JSON number")

    res = json.loads(out.read_text(), parse_constant=refuse)
    assert res["extra"]["status"] == "degenerate" and res["points"]


@pytest.mark.parametrize("radii, code", [
    ("0.5,0.2,0.1,0.05", 0),  # per-radius envelope 0.52, 0.71, 0.93, 3.49
    ("2,1,0.5,0.25", 4),  # envelope 0.16, 0.53, 0.52, 0.63: the least is under half the median
], ids=["stable", "unstable"])
def test_density_ex3_assert_gate(tmp_path, radii, code):
    fs_path, cantor_path = tmp_path / "fs.csv", tmp_path / "cantor.csv"
    run("construct", "--set", "fs", "--d", "0.5", "--depth", "3", "--cantor-depth", "4",
        "--out", fs_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "4", "--out", cantor_path)
    out = tmp_path / "p.json"
    assert run("density", "--in", fs_path, "--probe", "ex3", "--cantor-in", cantor_path,
               "--radii", radii, "--out", out, "--assert") == code
    assert json.loads(out.read_text())["extra"]["status"] == "ok"


@pytest.mark.parametrize("point", ["0,0", "0,0,0,1", "abc,0,0", "inf,0,0"])
def test_density_base_point_needs_three_fields(tmp_path, capsys, point):
    tseg_path = tmp_path / "tseg.csv"
    run("construct", "--set", "tseg", "--points", "500", "--out", tseg_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("density", "--in", tseg_path, "--probe", "thm2", "--radii", "0.1",
            "--base-point", point, "--out", tmp_path / "p.json")
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("heislab density: error: argument --base-point: ")


def test_density_ex3_rejects_base_point(tmp_path, capsys):
    # the ex3 probe picks its own panel, so a --base-point was silently ignored
    fs_path, cantor_path = tmp_path / "fs.csv", tmp_path / "cantor.csv"
    run("construct", "--set", "fs", "--d", "0.5", "--depth", "3", "--cantor-depth", "4",
        "--out", fs_path)
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "4", "--out", cantor_path)
    capsys.readouterr()
    code = run("density", "--in", fs_path, "--probe", "ex3", "--cantor-in", cantor_path,
               "--base-point", "0.3,0.3,0.1", "--out", tmp_path / "p.json")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--base-point" in err


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


@pytest.mark.parametrize("radius, code, levels", [
    ("0.0039062499999999996", 2, None),
    ("0.015624999999999998", 0, [8]),
], ids=["below-2^-8-window-10", "below-2^-6-window-8"])
def test_density_ex2_radius_just_below_a_power_of_two(tmp_path, capsys, radius, code, levels):
    # M = 2 at level 10 has the windows k = 8, 9; the float below 2^(2-k) lies in window k
    cloud_path, out = tmp_path / "ex2.csv", tmp_path / "p.json"
    assert run("construct", "--set", "ex2", "--level", "10", "--M", "2", "--out", cloud_path) == 0
    capsys.readouterr()
    assert run("density", "--in", cloud_path, "--probe", "ex2", "--radii", radius,
               "--out", out) == code
    if code:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "k=10" in err
    else:
        assert json.loads(out.read_text())["extra"]["window_levels"] == levels


def _cli_process(*args, address_space=None):
    """Run the CLI in a child process that must finish within two minutes, its
    address space capped at `address_space` bytes if given."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "heislab", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=cap if address_space else None)


def test_construct_ex2_huge_m_message_is_finite(tmp_path):
    # 34M is finite but 68M is not: the message states the threshold by levels
    proc = _cli_process("construct", "--set", "ex2", "--M", "3e306", "--level", "3",
                        "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "inf" not in proc.stderr
    assert "level >= 1026" in proc.stderr


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_sandwich_seed_out_of_range_exits_2(tmp_path, capsys, seed):
    # the generator's key is a 64-bit word, so neither seed has a key
    assert run("sandwich", "--R", "2", "--samples", "10", "--seed", seed,
               "--out", tmp_path / "s.json") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must lie in [0, 2**64)" in err


@pytest.mark.parametrize("argv", [
    ("sandwich", "--R", "2", "--samples", "10000000000"),
    ("dimension", "--in", "c.csv", "--metric", "euclidean", "--delta-min", "0.01",
     "--delta-max", "0.2", "--scales", "1000000000"),
    ("density", "--in", "c.csv", "--probe", "thm1", "--r-min", "0.01", "--r-max", "0.2",
     "--r-count", "1000000000"),
], ids=["sandwich-samples", "dimension-scales", "density-r-count"])
def test_huge_count_exits_3_before_allocating(tmp_path, argv):
    # each would need 7-25 GiB; under a 3 GB address space a missing check fails fast
    # with a MemoryError traceback instead of exhausting the host
    assert run("construct", "--set", "cantor", "--depth", "4", "--out", tmp_path / "c.csv") == 0
    argv = [str(tmp_path / a) if a == "c.csv" else a for a in argv]
    proc = _cli_process(*argv, "--out", tmp_path / "o.json", address_space=3 * 10**9)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1 and "exceed" in proc.stderr and "10000000" in proc.stderr
    assert not (tmp_path / "o.json").exists()


def test_construct_ex2_overflowing_m_exits_2(tmp_path):
    # 34M overflows to inf, and the switch level used to be counted up to it forever
    proc = _cli_process("construct", "--set", "ex2", "--M", "1e308", "--level", "3",
                        "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "34M finite" in proc.stderr


def test_density_ex2_overflowing_sidecar_m_exits_2(tmp_path):
    cloud_path = tmp_path / "ex2.csv"
    assert run("construct", "--set", "ex2", "--level", "9", "--M", "2", "--out", cloud_path) == 0
    meta_path = tmp_path / "ex2.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["source"]["M"] = 1e308
    meta_path.write_text(json.dumps(meta))
    proc = _cli_process("density", "--in", cloud_path, "--probe", "ex2",
                        "--out", tmp_path / "p.json")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "34M finite" in proc.stderr


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
    {"metric": "heisenberg", "slope": float("nan"), "intercept": 0.0, "r_squared": 1.0,
     "scales": []},
    {"metric": "heisenberg", "slope": "1.0", "intercept": 0.0, "r_squared": 1.0,
     "scales": []},
    {"metric": "heisenberg", "slope": True, "intercept": 0.0, "r_squared": 1.0,
     "scales": []},
    {"metric": "heisenberg", "slope": 1.0, "intercept": 0.0, "r_squared": 1.0,
     "scales": [{"delta": 0.5, "count": 2.5}]},
], ids=["no-slope", "list", "string-slope", "nan-slope", "numeric-string-slope", "bool-slope",
        "fractional-count"])
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


def test_compare_wrong_metric_exits_2(tmp_path, capsys):
    # a Euclidean estimate passed as the gauge one sits on the band's lower edge
    # and used to pass --assert; swapped files reached the band check too
    cloud_path = tmp_path / "cantor.csv"
    run("construct", "--set", "cantor", "--d", "0.5", "--depth", "7", "--out", cloud_path)
    de, dh = tmp_path / "dE.json", tmp_path / "dH.json"
    run("dimension", "--in", cloud_path, "--metric", "euclidean",
        "--delta-min", str(4.0**-5), "--delta-max", "0.25", "--scales", "5", "--out", de)
    run("dimension", "--in", cloud_path, "--metric", "heisenberg",
        "--delta-min", str(2.0**-5), "--delta-max", "0.5", "--scales", "5", "--out", dh)
    for dimE, dimH, bad in ((de, de, de), (dh, dh, dh), (dh, de, dh)):
        capsys.readouterr()
        assert run("compare", "--dimE", dimE, "--dimH", dimH, "--assert") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err and "dimension estimate" in err


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


def test_sandwich_infinite_R_exits_2(tmp_path, capsys):
    # with R = inf no candidate is ever a hit, and the gate used to pass on nothing
    out = tmp_path / "s.json"
    assert run("sandwich", "--R", "inf", "--samples", "100", "--out", out, "--assert") == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_sandwich_gate_fails_without_an_inner_hit(tmp_path, capsys):
    # at R = 1000 no inner candidate lands in the lens: that half checks nothing
    out = tmp_path / "s.json"
    assert run("sandwich", "--R", "1000", "--samples", "3000", "--seed", "0", "--out", out) == 0
    rep = json.loads(out.read_text())
    assert (rep["inner_hits"], rep["inner_violations"], rep["outer_plane_violations"]) == (0, 0, 0)
    assert rep["outer_hits"] > 0
    capsys.readouterr()
    assert run("sandwich", "--R", "1000", "--samples", "3000", "--seed", "0", "--out", out,
               "--assert") == 4
    assert capsys.readouterr().err == "assertion gate failed\n"


@pytest.mark.parametrize("R", ["1e200", "104858"])
def test_sandwich_R_past_the_twist_resolution_exits_2(tmp_path, capsys, R):
    # the bound is 2^20 times the smallest r (0.1 here): 104857.6
    # the suite turns warnings into errors, so a numpy overflow warning fails it
    out = tmp_path / "s.json"
    assert run("sandwich", "--R", R, "--samples", "3000", "--out", out, "--assert") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: R must be")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--probe", "thm2", "--delta", "inf", "--radii", "0.5"),
    ("--probe", "thm1", "--s", "inf", "--radii", "1"),
    ("--probe", "thm1", "--s", "nan", "--radii", "1"),
], ids=["delta-inf", "s-inf", "s-nan"])
def test_density_non_finite_parameter_exits_2(tmp_path, capsys, argv):
    # each wrote Infinity or NaN into the JSON (1.0 ** nan == 1.0) and exited 0
    cloud_path, out = tmp_path / "tseg.csv", tmp_path / "p.json"
    run("construct", "--set", "tseg", "--points", "200", "--out", cloud_path)
    capsys.readouterr()
    assert run("density", "--in", cloud_path, *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


def test_sandwich_command_outer_defect(tmp_path):
    out = tmp_path / "s.json"
    code = run("sandwich", "--R", "2", "--samples", "20000", "--seed", "1", "--out", out)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["inner_violations"] == 0
    assert rep["outer_plane_violations"] == 0
    assert rep["outer_violations"] > 0
    # the outer violations are all the literal-r Euclidean half, which is false
    # off the t-axis; the gate checks only the inner and plane halves
    assert run("sandwich", "--R", "2", "--samples", "20000", "--seed", "1",
               "--out", out, "--assert") == 0


@pytest.mark.parametrize("violations", [
    {"inner_violations": 1},
    {"outer_violations": 1, "outer_plane_violations": 1},
], ids=["inner", "plane"])
def test_sandwich_gate_fails_on_inner_or_plane_violation(tmp_path, monkeypatch, capsys,
                                                         violations):
    def one_violation(R, r_values, samples, seed):
        counts = {"inner_violations": 0, "outer_violations": 0} | violations
        return SandwichReport(samples=samples, R=R, seed=seed, r_values=tuple(r_values),
                              **counts)

    monkeypatch.setattr("heislab.cli.sandwich_sample", one_violation)
    assert run("sandwich", "--R", "2", "--samples", "10", "--out", tmp_path / "s.json",
               "--assert") == 4
    assert capsys.readouterr().err == "assertion gate failed\n"


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


def test_compare_assert_fails_outside_the_band(tmp_path, capsys):
    # dim_E = 1 bounds dim_H to [1, 2]; 3 is outside by more than the tolerance
    paths = []
    for metric, slope in (("euclidean", 1.0), ("heisenberg", 3.0)):
        paths.append(tmp_path / f"{metric}.json")
        paths[-1].write_text(json.dumps({"metric": metric, "slope": slope, "intercept": 0.0,
                                         "r_squared": 1.0, "scales": []}))
    assert run("compare", "--dimE", paths[0], "--dimH", paths[1], "--assert") == 4
    assert "ok: false" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_compare_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, tol):
    # a nan tolerance failed every pair and an infinite one passed every pair
    paths = []
    for metric, slope in (("euclidean", 1.0), ("heisenberg", 3.0)):
        paths.append(tmp_path / f"{metric}.json")
        paths[-1].write_text(json.dumps({"metric": metric, "slope": slope, "intercept": 0.0,
                                         "r_squared": 1.0, "scales": []}))
    assert run("compare", "--dimE", paths[0], "--dimH", paths[1], "--tol", tol, "--assert") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "tol must be finite and >= 0" in err


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
    ("0,0,0.5,0.5\n# 0,0,1,0.5\n", "c.csv: every row must have 4 fields"),
    ("0,0,0.5,0.5\n0,abc,1,0.5\n", "c.csv: every row must have 4 fields"),
    ("0,0,0.5,0.0\n" * 40_000 + "0,0,1\n", "c.csv: every row must have 4 fields"),
    ("\n\n", "c.csv: no data rows"),
], ids=["header-only", "ragged", "3-field", "5-field", "nan", "comment", "abc",
        "ragged-late", "blank-only"])
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
    ('{"total_mass": 1.0}', "lacks source"),
    ('{}', "lacks source, total_mass"),
    ('{"source": {"kind": "cantor"}}', "lacks total_mass"),
    ('{"source": "cantor", "total_mass": 1.0}', "source must be"),
    ('{"source": {"kind": "cantor"}, "total_mass": [1.0]}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_t": "x"}', "must be numbers"),
    ('{"source": {}, "total_mass": 1' + "0" * 400 + '}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_t": []}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_t": ""}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_t": null}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_t": false}', "must be numbers"),
    ('{"source": {}, "total_mass": true}', "must be numbers"),
    ('{"source": {}, "total_mass": "1.0"}', "must be numbers"),
    ('{"source": {}, "total_mass": NaN}', "must be numbers"),
    ('{"source": {}, "total_mass": Infinity}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_xy": 1e400}', "must be numbers"),
    ('{"source": {}, "total_mass": 1.0, "err_t": -Infinity}', "must be numbers"),
], ids=["not-json", "list", "no-source", "no-source-no-mass", "no-total-mass",
        "string-source", "list-mass", "string-err", "overflowing-mass", "list-err",
        "empty-string-err", "null-err", "false-err", "true-mass", "string-mass",
        "nan-mass", "infinite-mass", "overflowing-float-err", "minus-infinite-err"])
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


# the sidecar of `construct --set ex1 --level 3` in the format before level, h,
# v and the derived errors were dropped from it
OLD_EX1_SIDECAR = {
    "err_t": 7.62939453125e-06,
    "err_xy": 0.001953125,
    "h": 0.00390625,
    "level": 3,
    "placement_error": 0.001953139901104351,
    "source": {"kind": "ex1", "level": 3, "samples_per_rect": 1},
    "total_mass": 1.0,
    "v": 1.52587890625e-05,
    "vertical_placement_error": 7.62939453125e-06,
}


def test_old_format_sidecar_gives_the_same_ex1_probe(tmp_path, capsys):
    cloud_path = tmp_path / "ex1.csv"
    meta_path = tmp_path / "ex1.meta.json"
    assert run("construct", "--set", "ex1", "--level", "3", "--out", cloud_path) == 0
    assert run("density", "--in", cloud_path, "--probe", "ex1",
               "--out", tmp_path / "new.json") == 0
    # a top-level level that disagrees with the source is not read either
    for i, level in enumerate((3, 2)):
        meta_path.write_text(json.dumps(dict(OLD_EX1_SIDECAR, level=level)))
        out = tmp_path / f"old{i}.json"
        assert run("density", "--in", cloud_path, "--probe", "ex1", "--out", out) == 0
        assert out.read_bytes() == (tmp_path / "new.json").read_bytes()


def test_python_dash_m_runs_the_cli(tmp_path):
    cloud_path = tmp_path / "tseg.csv"
    assert run("construct", "--set", "tseg", "--points", "1000", "--out", cloud_path) == 0
    out = tmp_path / "thm2.json"
    proc = _cli_process("density", "--in", cloud_path, "--probe", "thm2",
                        "--radii", "0.1", "--base-point", "0,0,0", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "max ratio" in proc.stdout
    assert json.loads(out.read_text())["probe"] == "thm2"
