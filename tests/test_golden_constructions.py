"""Golden construction digests: the IFS and product clouds must keep every bit.

The digests were recorded once, from the map-class implementation of the
iterated function systems, and are never regenerated: a change to how the maps
are written must leave the points, weights and placement errors unchanged.
The sha256 covers the native (little-endian float64) bytes of each array.
"""

import hashlib

import pytest

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
