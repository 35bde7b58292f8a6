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

The `construct` digests (CSV, sidecar and `--svg` plot of every set) were
recorded once, from the CLI that named each set in a table of options, an `if`
chain of builders and a tuple of plot axes, before one table of sets held all
three.
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


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# each set at a small size: the options given, then the sha256 of its CSV, its
# sidecar and its --svg plot, and the line construct prints
CONSTRUCT_GOLDEN = {
    "ex1": (("--set", "ex1"),
            "852672e08d50798d9a9398e268e240a0d99c9515d4ed36df3f5f2521f75c6593",
            "d8b783a403df6a9118d4ef9ae17df75fd5fee9e36d6bc9ca62ff3810538b80c8",
            "9efe20aad57a8e92b1f66e54db5449c1d995a85c265a09866df7e71b8699ed97",
            "wrote 256 points, total mass 1.0"),
    "ex2": (("--set", "ex2", "--M", "2", "--level", "9", "--samples-per-rect", "2"),
            "0edfc3547a824716d995a6aa657c127e3a8407ff82c79652797bc5b8bb22db0c",
            "e11d121a27fd42e1b42637c0e871d453fafece948157bcfa67d8bf4ce59006b3",
            "58439350f8c05388f4dbc1414c300dc2849234a6f0bce2f220ad41494d8b5df5",
            "wrote 1024 points, total mass 1.0"),
    "hsquare": (("--set", "hsquare", "--depth", "3"),
                "875eb7306de1d84498d327fe0a016fc35bcb9056e0f9f7927b70e54a93a7cc4c",
                "73c5476b55d100bcc3bdfcb7ce784eb413116602b35acff33c395ba349c77505",
                "9880bcfb8acbaff44723142cc75d07b85a33df6624c0ddb5b44a3564b13a3806",
                "wrote 64 points, total mass 1.0"),
    "cantor": (("--set", "cantor"),
               "280f4dd0dd3e698d17ee7001d6b3a7231d09978ca11ed96962807c055e577006",
               "2988f73eb92aac628fab4d939ab343a2a42c94724fae44fe25b0fe9a6e4bf48e",
               "508a797058258ff4976b8506078dd096de2097f2da313cb8256d4b761b68c630",
               "wrote 64 points, total mass 1.0"),
    "fs": (("--set", "fs", "--d", "0.3", "--depth", "2", "--cantor-depth", "3"),
           "f57529c2cf0345f723689c5f927d528339c292ff50b8f2b0e3beb971b447d126",
           "8b4efbe04466d4e99eaff9388f28d3d2bf110bade7c75d12a8e8157b79de5a5a",
           "8f847ec744d61911eebc0c2d4c5f3f1896c693ce48fe5b1cb86d72448f1ae6cf",
           "wrote 128 points, total mass 1.0"),
    "xseg": (("--set", "xseg", "--points", "100"),
             "087086c001f1929bfa48cb5e9203e9a595df85341e82929679993ae1abf176a5",
             "424901bf38384b83315963dfdd5d519be803e6148883f10d5e212d9cfb5f5497",
             "a8704d48510c052064dd9e14f31187f36daeaa4e9590ca40c628e072012cdbfe",
             "wrote 100 points, total mass 1.0"),
    "tseg": (("--set", "tseg", "--points", "100"),
             "c87aa7c6eefcde4fb71816744b3fb1d0b9660be060c0d1a395250cca3594a089",
             "16bfffabcb9ed0cda50823b289616d89251fdf029bdd9320bbac8a3be415588a",
             "d509bdb38855ac83a294229426fb84e332e13624398f924bfe4ab3973e994b5a",
             "wrote 100 points, total mass 2.0"),
}


@pytest.mark.parametrize("name", list(CONSTRUCT_GOLDEN))
def test_construct_output_is_byte_identical(tmp_path, capsys, name):
    argv, csv_sha, sidecar_sha, svg_sha, line = CONSTRUCT_GOLDEN[name]
    csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
    assert main(["construct", *argv, "--out", str(csv), "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == line + "\n"
    shas = [_sha(p) for p in (csv, tmp_path / "c.meta.json", svg)]
    assert shas == [csv_sha, sidecar_sha, svg_sha]


# the README's cantor example: E and H dimension at its scales, then compare
README_CANTOR_GOLDEN = {
    "dE.json": (("--metric", "euclidean", "--delta-min", "0.0009765625", "--delta-max", "0.25"),
                "4e8a2c0a2b72d0ce4b97ed28a9381919063b1a5acd48f001703728556a40cad5"),
    "dH.json": (("--metric", "heisenberg", "--delta-min", "0.03125", "--delta-max", "0.5"),
                "1364edcb1b4410980511ac7c3375b92218541fd359f81edd6feaa7ec166ad5d7"),
}
COMPARE_SHA = "9463ba917b45c8370ba02cafeeb5202e2aa3a2b86f81fe57a3a194d78847fa27"
SANDWICH_SHA = "9a3356fa11c564f9e523121332b70cdb70ba5b4da15f92846b761387e5a8e420"


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
