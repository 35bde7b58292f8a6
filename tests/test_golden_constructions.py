"""Golden digests: the IFS and product clouds must keep every bit, and the
ex1/ex2 `density` JSON every byte.

The cloud digests were recorded once, from the map-class implementation of the
iterated function systems, and are never regenerated: a change to how the maps
are written must leave the points, weights and placement errors unchanged.
The sha256 covers the native (little-endian float64) bytes of each array.

The density digests were recorded once, from the CLI that rebuilt each
rectangle family itself to choose its base points and default radii, before
`density` handed the loaded cloud to `ex1_probe` and `ex2_probe`.

The `dimension`, `compare` and `sandwich` digests were recorded once, from the
CLI that read estimates with `float` and `int` and keyed each sampler's
generator on its own, before every number read from a file went through one
rule and the samplers shared one generator helper.
"""

import hashlib

import pytest

from heislab.cli import main
from heislab.constructions import cantor_cloud, hsquare_cloud, product_cloud

GOLDEN = {
    "hsquare_cloud(6)": (
        lambda: hsquare_cloud(6),
        "1cbfb3d8fbfb423073ed42d9bfd56db22f451f0e29a0d5a87c5d49d140e08caf",
        "e10c380eb61db0a578df4851abb1fb37be07e34dacf8189b86eb2c171f049ea4",
        0.011048543456039806, 0.061792373657226576,
    ),
    "cantor_cloud(0.5, 7)": (
        lambda: cantor_cloud(0.5, 7),
        "446614db7dab527fbb514558bbb74637fa5f0989620881364d8305c2ad22071d",
        "07553244f129e952b911136dd4bcaf7caab0371a1bcac8f0a6a8bfe1a60ef9e8",
        0.0, 3.0517578125e-05,
    ),
    "cantor_cloud(0.3, 9)": (
        lambda: cantor_cloud(0.3, 9),
        "a49abda7b168e420278ebe87f2ae9f67e1f477a600607854d63a62a26ab7a866",
        "8c74246543874a35da372ef26ccdb31ce88d8366951703be4b70427ff681dc3e",
        0.0, 4.6566128730773895e-10,
    ),
    "product_cloud(hsquare_cloud(5), cantor_cloud(0.5, 4))": (
        lambda: product_cloud(hsquare_cloud(5), cantor_cloud(0.5, 4)),
        "689039c9451e939fe77b00a82f3ce7d8c164867264eafe4ab1635b965ffe0b15",
        "209772cf1ee481f357122a21034d5fab5c915f8d27853ad35aa84f63efb3b502",
        0.02209708691207961, 0.12409973144531253,
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_construction_is_bit_identical(name):
    build, points_sha, weights_sha, err_xy, err_t = GOLDEN[name]
    cloud = build()
    assert hashlib.sha256(cloud.points.tobytes()).hexdigest() == points_sha
    assert hashlib.sha256(cloud.weights.tobytes()).hexdigest() == weights_sha
    assert cloud.err_xy == err_xy
    assert cloud.err_t == err_t


EX1 = ("--set", "ex1", "--level", "4")
EX2 = ("--set", "ex2", "--M", "2", "--level", "10")
DENSITY_GOLDEN = {
    "ex1-panel": (EX1, (), "1ecfd651ea92c651d7f3780c1bf7f8730e2a248d75eca7f5b65c434542ade7f6"),
    "ex1-base-count": (
        EX1, ("--base-count", "5"),
        "18454728fe31176f96fef65bfeda969e48a2050350ba86342722ff9e1fcfbbc8",
    ),
    "ex1-base-points": (
        EX1, ("--base-point", "0.087890625,0,0.05860137939453125", "--base-point", "0.5,0,0.1"),
        "6242e7feaafb86c0c11c7b7ba5232dc5b33c83b3899b10c1e1dfb812afbcaa29",
    ),
    "ex2-M2": (EX2, (), "3ed8e5d03e1730683a59ea9e00cd880bd04931dcc86ad2f659ce903cecb8547f"),
    "ex2-M7.3": (
        ("--set", "ex2", "--M", "7.3", "--level", "11", "--samples-per-rect", "3"),
        ("--base-count", "7"),
        "4ee23e9cb1aa99a6b652bd8d7b6c1c9724d1c66001b5ef7d36d6e5cd35ed210a",
    ),
    "ex2-radii-base-point": (
        EX2, ("--radii", "0.0095,0.0045", "--base-point", "0.09130859375,0,0.09293937683105469"),
        "81e308e4780e934167334f30b9732385ba247184a8603ed5076d2ddf7363481e",
    ),
}


@pytest.mark.parametrize("name", list(DENSITY_GOLDEN))
def test_density_json_is_byte_identical(tmp_path, name):
    construct, density, sha = DENSITY_GOLDEN[name]
    cloud_path, out = tmp_path / "c.csv", tmp_path / "p.json"
    assert main(["construct", *construct, "--out", str(cloud_path)]) == 0
    assert main(["density", "--in", str(cloud_path), "--probe", construct[1], *density,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


# the README's cantor example: E and H dimension at its scales, then compare
README_CANTOR_GOLDEN = {
    "dE.json": (("--metric", "euclidean", "--delta-min", "0.0009765625", "--delta-max", "0.25"),
                "4e8a2c0a2b72d0ce4b97ed28a9381919063b1a5acd48f001703728556a40cad5"),
    "dH.json": (("--metric", "heisenberg", "--delta-min", "0.03125", "--delta-max", "0.5"),
                "1364edcb1b4410980511ac7c3375b92218541fd359f81edd6feaa7ec166ad5d7"),
}
COMPARE_SHA = "9463ba917b45c8370ba02cafeeb5202e2aa3a2b86f81fe57a3a194d78847fa27"
SANDWICH_SHA = "9a3356fa11c564f9e523121332b70cdb70ba5b4da15f92846b761387e5a8e420"


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_readme_cantor_dimension_and_compare_json_is_byte_identical(tmp_path):
    cloud_path = tmp_path / "cantor.csv"
    assert main(["construct", "--set", "cantor", "--d", "0.5", "--depth", "7",
                 "--out", str(cloud_path)]) == 0
    for name, (argv, sha) in README_CANTOR_GOLDEN.items():
        assert main(["dimension", "--in", str(cloud_path), *argv, "--scales", "5",
                     "--out", str(tmp_path / name)]) == 0
        assert _sha(tmp_path / name) == sha, name
    out = tmp_path / "compare.json"
    assert main(["compare", "--dimE", str(tmp_path / "dE.json"), "--dimH",
                 str(tmp_path / "dH.json"), "--assert", "--out", str(out)]) == 0
    assert _sha(out) == COMPARE_SHA


def test_sandwich_json_is_byte_identical(tmp_path):
    out = tmp_path / "sandwich.json"
    assert main(["sandwich", "--R", "2", "--samples", "2000", "--seed", "1",
                 "--out", str(out)]) == 0
    assert _sha(out) == SANDWICH_SHA
