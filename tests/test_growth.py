"""Block growth's pair words on integers, against the ``QuadReal`` code
they replaced.

That code is ``oracles._pair_word_reference``, kept verbatim as the
oracle (renamed): one pair at a time, its menu filtered on ``QuadReal``
values and ranked by ``Fraction`` keys.  ``pipeline._pair_words`` must
choose the same word for every pair, leave the same notes and raise the
same error text.  Both call the library's ``enumerate_tileable``, which
``tests/test_tiles.py`` checks against ``oracles.brute_tileable``.
"""

import random
from fractions import Fraction as F

import pytest

from flowtile import pipeline
from flowtile.generators import GeneratorSpec, generate
from flowtile.pipeline import (BAND_MISSED, Schedule, TiledSection,
                               TilingError, build_rank_blocks, build_schedule)
from flowtile.quadratic import quad, sqrtD
from flowtile.tiles import (Params, TileVector, alpha_frequency,
                            enumerate_tileable)
from flowtile.windows import OrbitWindow
from oracles import _pair_word_reference

# -- the comparison -----------------------------------------------------------

# D in {2, 3}, rho in {1/2, 2/5, 1/7}, and an irrational alpha
GROWTH_PARAMS = [
    Params(quad(1), sqrtD(), F(1, 2)),
    Params(quad(1), sqrtD(), F(2, 5)),
    Params(quad(1), sqrtD(), F(1, 7)),
    Params(quad(1, 0, 3), sqrtD(3), F(1, 2)),
    Params(sqrtD(3) - 1, quad(3, 0, 3), F(2, 5)),
    Params(quad(1, 0, 3), sqrtD(3), F(1, 7)),
]


@pytest.fixture(scope="module", params=GROWTH_PARAMS, ids=str)
def schedule(request):
    return build_schedule(request.param, depth=2)


def windows(schedule: Schedule) -> dict[str, OrbitWindow]:
    """One window of each generator kind.  The rotation angles
    1/3 + sqrt(D)/5 and sqrt(D)/30 give the gaps 1 and 2, and two gaps
    above 16."""
    k0, d = schedule.K[0], schedule.params.d
    return {
        "uniform": generate(GeneratorSpec("uniform", count=120, seed=1,
                                          k0=k0)),
        "sparse_geometric": generate(GeneratorSpec(
            "sparse_geometric", count=40, seed=2, k0=k0)),
        "rotation_wide": generate(GeneratorSpec(
            "rotation_suspension", count=120,
            angle=quad(F(1, 3), F(1, 5), d))),
        "rotation_narrow": generate(GeneratorSpec(
            "rotation_suspension", count=120, angle=quad(0, F(1, 30), d))),
    }


def outcome(f, *args):
    """f(*args), or the text of the TilingError it raises."""
    try:
        return f(*args)
    except TilingError as e:
        return f"TilingError: {e}"


def compare(w: OrbitWindow, schedule: Schedule, pairs: list[int]):
    """The plan and the notes of ``_pair_words`` equal the reference's,
    pair by pair, or both raise the same text; returns the plan."""
    params = schedule.params
    got_t = TiledSection.from_window(params, w)
    want_t = TiledSection.from_window(params, w)
    got = outcome(pipeline._pair_words, got_t, pairs, schedule)
    want = outcome(lambda: {i: _pair_word_reference(want_t, i, schedule)
                            for i in pairs})
    assert got == want
    assert got_t.notes == want_t.notes
    if isinstance(got, dict):
        assert list(got) == list(pairs)
        assert all(type(v) is TileVector for v in got.values())
    return got


@pytest.mark.parametrize("kind", ["uniform", "sparse_geometric",
                                  "rotation_wide", "rotation_narrow"])
def test_every_gap_matches_reference(schedule, kind):
    w = windows(schedule)[kind]
    compare(w, schedule, list(range(len(w) - 1)))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["uniform", "sparse_geometric",
                                  "rotation_narrow"])
def test_growth_pairs_match_reference(schedule, kind, seed):
    w = windows(schedule)[kind]
    pairs = pipeline._select_pairs(len(w), pipeline.PAIR_SPACING,
                                   random.Random(seed))
    compare(w, schedule, pairs)


@pytest.mark.parametrize("kind", ["uniform", "rotation_narrow"])
def test_grown_section_matches_reference(schedule, kind, monkeypatch):
    w = windows(schedule)[kind]
    got = outcome(build_rank_blocks, w, schedule, 3)
    monkeypatch.setattr(pipeline, "_pair_words", lambda t, pairs, s: {
        i: _pair_word_reference(t, i, s) for i in pairs})
    want = outcome(build_rank_blocks, w, schedule, 3)
    if isinstance(got, str):
        assert got == want
    else:
        assert (got.c, got.xs, got.ys, got.letters, got.notes) == \
            (want.c, want.xs, want.ys, want.letters, want.notes)


@pytest.fixture(scope="module")
def schedule_rho17():
    return build_schedule(Params(quad(1), sqrtD(), F(1, 7)), depth=2)


def test_repeated_band_misses_note_once(schedule_rho17, monkeypatch):
    # six alpha tiles, of frequency 1, are the only tileable within
    # eps_1 = 1/6 of 6, outside the eta_1 = 1/7 band around 1/7; the gap
    # 9 has words in the band
    w = OrbitWindow([quad(x) for x in (0, 9, 15, 21, 30, 36, 42)])
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_tileable(*args)
    monkeypatch.setattr(pipeline, "enumerate_tileable", counting)
    plan = compare(w, schedule_rho17, list(range(6)))
    assert [plan[i] for i in (1, 2, 4, 5)] == [TileVector(6, 0)] * 4
    assert abs(alpha_frequency(plan[0]) - F(1, 7)) <= schedule_rho17.eta[1]
    assert plan[3] == plan[0]
    # one lookup per distinct gap: 9 and 6
    assert len(calls) == 2
    t = TiledSection.from_window(schedule_rho17.params, w)
    pipeline._pair_words(t, list(range(6)), schedule_rho17)
    assert t.notes == [BAND_MISSED]


@pytest.mark.parametrize("xs, pairs, where", [
    # no tileable lies within eps_1 = 1/6 of 1/2
    ((0, F(1, 2)), [0], "0..1"),
    # alpha = 1 lies exactly eps_1 from 5/6 and 7/6, which is not within
    ((0, F(5, 6)), [0], "0..1"),
    ((0, F(7, 6)), [0], "0..1"),
    ((0, 9, F(19, 2), 19, F(39, 2)), [0, 1, 2, 3], "1..2"),
    ((0, 9, F(19, 2), 19, F(39, 2)), [0, 3], "3..4"),
])
def test_no_candidate_names_the_first_pair(schedule2, xs, pairs, where):
    w = OrbitWindow([quad(x) for x in xs])
    assert compare(w, schedule2, pairs) == (
        f"TilingError: stage 1: no admissible composite shift between "
        f"blocks at points {where}")
