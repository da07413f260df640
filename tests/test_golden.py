"""Golden identity: generated window files, and the section files and one
orbit map of fixed windows.

Each hash is the sha256 of ``json.dumps(x.to_json(), sort_keys=True)``.
They pin every byte a change to the section's in-memory form could move:
the start, the letters, the origin index and positions, the witnesses and
the notes.  A change that means to alter a section updates them and says
why.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from flowtile.generators import GeneratorSpec, generate
from flowtile.loe import build_loe
from flowtile.pipeline import full_pipeline
from flowtile.quadratic import quad

# the window file `flowtile gen` writes for one spec of each kind, one of
# them with an irrational k0
WINDOWS = {
    "uniform": (
        GeneratorSpec("uniform", count=300, seed=1),
        "c21e9200db436eede1906608b8be7260523ff55654e3acd78e2510979dc51018"),
    "uniform_sqrt3": (
        GeneratorSpec("uniform", count=300, seed=2,
                      k0=quad(F(7, 3), F(1, 2), 3)),
        "b3a95ffed5b5b240b1003dc9ec603253cdf996dd1eb9729c0c12ebf64751327d"),
    "sparse_geometric": (
        GeneratorSpec("sparse_geometric", count=300, seed=1, ratio=3),
        "79182a3795d8d17855a5805afc1bcde6acdc6d927b4f6f306c3051440fb313cb"),
    "rotation_suspension": (
        GeneratorSpec("rotation_suspension", count=300,
                      angle=quad(0, 1) - 1 + quad(1) / 5),
        "6250c5a4d54e30be825e7a4d705b25042abf4dc603f065d3aa39a988648a6897"),
}

# (kind, key, depth): uniform windows take key as their seed, rotation
# windows the angle sqrt(2) - 1 + 1/key
SECTIONS = {
    ("uniform", 1, 2):
        "fd317c54a1359308a763f4488f9d208c893772027ad94035739b879564761929",
    ("uniform", 1, 4):
        "a24e3a977ecfdc57e7c8c21b1fb30d97ed9addc7513f896fb0e32cd247b4c65c",
    ("uniform", 2, 2):
        "e5cfe5c84bbc70ae912ad415f8c5a930b26dd65abd7ae92b758fa0735d64276c",
    ("uniform", 2, 4):
        "5b0bbb529fafc0579eb3d4074e29ef05e534b5ff13b496e29745c93fe8ea4712",
    ("uniform", 3, 2):
        "129143b52765154da1066f513a402c6a754f4b9960bbe38c93fb28a9c9bdfe6b",
    ("uniform", 3, 4):
        "37999e3365bb20113c3af5362687794f452733922fcdee29e4352fce4c37f077",
    ("rotation_suspension", 5, 2):
        "bd574f0a19d260d84cee8369f3ee24deb2804827691528b62c1da8938344b5e4",
    ("rotation_suspension", 7, 2):
        "4ab6372f219a068bc1443aee50c8eb72eb0eb16d69341028950b5560e239da87",
}

# build_loe from the depth-2 section of seed 1 onto that of seed 2
LOE = "1638e663415a86408822e34f9a99be8ae9b5a8a8afb94015e3a90bcef7097f9c"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj.to_json(), sort_keys=True)
                          .encode()).hexdigest()


def window(kind: str, key: int):
    if kind == "uniform":
        return generate(GeneratorSpec("uniform", count=300, seed=key))
    return generate(GeneratorSpec("rotation_suspension", count=300,
                                  angle=quad(0, 1) - 1 + quad(1) / key))


def section(kind, key, depth, schedule2, schedule4):
    sched = schedule2 if depth == 2 else schedule4
    return full_pipeline(window(kind, key), sched, seed=key)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_window_file_unchanged(name):
    spec, want = WINDOWS[name]
    assert digest(generate(spec)) == want


@pytest.mark.parametrize("kind,key,depth", sorted(SECTIONS))
def test_section_file_unchanged(kind, key, depth, schedule2, schedule4):
    t = section(kind, key, depth, schedule2, schedule4)
    assert digest(t) == SECTIONS[kind, key, depth]


def test_orbit_map_unchanged(schedule2, schedule4):
    t1 = section("uniform", 1, 2, schedule2, schedule4)
    t2 = section("uniform", 2, 2, schedule2, schedule4)
    assert digest(build_loe(t1, t2)) == LOE
