"""Finishing, the table lookup and the displacement check, against the
``QuadReal`` code they replaced.

That code is kept in ``tests/oracles.py`` as the oracle of each function:
``_finish_stage_plan_reference``, ``_apply_gap_plan_reference`` and what
they call, ``between_reference`` (the table's former bisection over its
``QuadReal`` values) and ``check_displacements_reference``; whole runs
also patch in ``chain_classes_reference``.  Plans, sections, notes and
error texts must be equal.
"""

import copy
import hashlib
import json
import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction as F
from functools import lru_cache
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtile import pipeline, quadratic
from flowtile.generators import GeneratorSpec, generate
from flowtile.pipeline import (Schedule, TileableTable, TiledSection,
                               TilingError, WitnessError, build_rank_blocks,
                               build_schedule, check_section, full_pipeline)
from flowtile.quadratic import qmin, quad, sqrtD
from flowtile.tiles import Params, TileVector, default_params
from flowtile.windows import OrbitWindow
from oracles import (_apply_gap_plan_reference, _choose_gap_word_reference,
                     _finish_stage_plan_reference, between_reference,
                     chain_classes_reference, check_displacements_reference,
                     is_fully_regular_reference, regular_runs_reference)


def reference_code() -> ExitStack:
    """A context in which the pipeline runs the replaced code."""
    stack = ExitStack()
    for owner, name, ref in (
            (pipeline, "_apply_gap_plan", _apply_gap_plan_reference),
            (pipeline, "_finish_stage_plan", _finish_stage_plan_reference),
            (pipeline, "chain_classes", chain_classes_reference),
            (TiledSection, "regular_runs", regular_runs_reference),
            (TiledSection, "is_fully_regular", is_fully_regular_reference)):
        stack.enter_context(mock.patch.object(owner, name, ref))
    return stack


def outcome(fn, *args):
    """fn(*args), or the type and text of the error it raised."""
    try:
        return "ok", fn(*args)
    except (TilingError, WitnessError) as e:
        return type(e).__name__, str(e)


def section_state(t):
    """The fields of a section, partly tiled or not: ``to_json`` stores
    neither ranks nor untiled gaps."""
    return (t.positions, t.letters, t.ranks, t.orig_ids, t.origin_pos,
            t.notes)


def section_outcome(w, sched, seed):
    kind, t = outcome(full_pipeline, w, sched, seed)
    return ((kind, section_state(t), t.witnesses) if kind == "ok"
            else (kind, t))


# -- parameter regimes --------------------------------------------------------

REGIMES = {
    "stock": (default_params(), 2),
    "d3": (Params(quad(1, 0, 3), sqrtD(3), F(1, 2)), 2),
    "d3_irrational_alpha": (Params(sqrtD(3) - 1, quad(3, 0, 3), F(2, 5)), 2),
    "rho_low": (Params(quad(1), sqrtD(), F(1, 7)), 2),
    "rho_high": (Params(quad(1), sqrtD(), F(6, 7)), 2),
    "irrational_alpha": (Params(sqrtD() - 1, quad(1), F(1, 3)), 2),
}


@lru_cache(maxsize=None)
def regime_schedule(name: str) -> Schedule:
    params, depth = REGIMES[name]
    return build_schedule(params, depth=depth)


@st.composite
def windows(draw):
    """A schedule and a uniform, rotation or sparse window at depth 2."""
    name = draw(st.sampled_from(sorted(REGIMES)))
    sched = regime_schedule(name)
    d = sched.params.d
    kind = draw(st.sampled_from(["uniform", "rotation_suspension",
                                 "sparse_geometric"]))
    count = draw(st.integers(2, 90))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "uniform":
        # gaps in [k0 + 1, k0 + 2], around K_0
        k0 = sched.K[0] - draw(st.integers(1, 3))
        spec = GeneratorSpec(kind, count, seed, k0=k0)
    elif kind == "sparse_geometric":
        spec = GeneratorSpec(kind, count, seed, k0=quad(7, 0, d))
    else:
        num = draw(st.integers(1, 255))
        angle = quad(F(draw(st.integers(64, 255)), 256), F(num, 256), d)
        angle = angle - angle.floor()
        if not quad(F(1, 8), 0, d) < angle:
            angle = angle + F(1, 4)
        spec = GeneratorSpec(kind, count, angle=angle)
    return sched, generate(spec), seed


# -- key widths ---------------------------------------------------------------
#
# The table lookup, the carry check and the displacement check decide on
# integer screens (``quadratic.screen_root``) and call ``sign_of`` only
# inside a screen's margin.  The carry and displacement checks read
# KEY_BITS at each call, and a table keeps the width it was built at.  The
# property tests of the planner, the carry walk and the displacement check
# draw a width from KEY_WIDTHS, and TestScreensAtEveryKeyWidth runs each
# screen's edge cases at every width, where only the exact test can
# decide: a value exactly on a bound or a table value, and one a hair off.

KEY_WIDTHS = [0, 5, 32]

# tiny positive u - w*sqrt(2): about 5e-3, 9e-4 and 3e-12
HAIRS = [quad(99, -70), quad(577, -408),
         quad(152139002499, -107578520350)]

# alpha = 2 - sqrt(2): every tileable with an alpha tile has y < 0
NEGATIVE_Y = Params(quad(2, -1), quad(1), F(1, 2))


@contextmanager
def key_bits(bits: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadratic, "KEY_BITS", bits)
        yield


_AT_WIDTH: dict[tuple[int, int], tuple[Schedule, Schedule]] = {}


def table_at(sched: Schedule, bits: int) -> Schedule:
    """A copy of a kept schedule with its table built at KEY_BITS = bits,
    made once per pair."""
    key = (id(sched), bits)
    if key not in _AT_WIDTH:
        copied = copy.copy(sched)
        with key_bits(bits):
            copied.table = TileableTable(sched.params, sched.table.top)
        _AT_WIDTH[key] = (sched, copied)
    return _AT_WIDTH[key][1]


# -- whole runs ---------------------------------------------------------------


class TestPipelineMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(windows())
    def test_sections_notes_and_errors_equal(self, case):
        sched, w, seed = case
        got = section_outcome(w, sched, seed)
        with reference_code():
            want = section_outcome(w, sched, seed)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(windows())
    def test_each_stage_plan_and_application_equal(self, case):
        sched, w, seed = case
        grown = outcome(build_rank_blocks, w, sched, seed)
        with reference_code():
            want = outcome(build_rank_blocks, w, sched, seed)
        if grown[0] != "ok":
            assert grown == want
            return
        t = grown[1]
        assert section_state(t) == section_state(want[1])
        for stage in range(1, sched.depth + 1):
            if t.is_fully_regular():
                break
            plan = outcome(pipeline._finish_stage_plan, t, sched, stage)
            assert plan == outcome(_finish_stage_plan_reference, t, sched,
                                   stage)
            if plan[0] != "ok":
                break
            ref = copy.copy(t)
            bound = sched.eps[stage]
            applied = outcome(pipeline._apply_gap_plan, t, plan[1], stage,
                              bound)
            assert applied == outcome(_apply_gap_plan_reference, ref, plan[1],
                                      stage, bound)
            if applied[0] != "ok":
                break
            assert section_state(t) == section_state(ref)

    @pytest.mark.parametrize("name,kind,depth", [
        ("stock", "uniform", 4), ("stock", "rotation_suspension", 2),
        ("rho_low", "uniform", 2), ("d3", "uniform", 2),
        ("stock", "sparse_geometric", 2), ("stock", "sparse_geometric", 4),
    ])
    def test_thousand_point_windows(self, name, kind, depth, schedule4):
        sched = schedule4 if depth == 4 else regime_schedule(name)
        d = sched.params.d
        for seed in range(2):
            if kind == "rotation_suspension":
                angle = quad(F(1, 3), F(1, 7 + seed), d)
                spec = GeneratorSpec(kind, 1000, angle=angle)
            else:
                count = 1000 if kind == "uniform" else 300
                spec = GeneratorSpec(kind, count, seed, k0=sched.K[0] - 1)
            w = generate(spec)
            got = section_outcome(w, sched, seed)
            with reference_code():
                assert got == section_outcome(w, sched, seed)


# -- hand cases ---------------------------------------------------------------


def two_points(schedule, gap, letters=(None,)):
    pos = [quad(0, 0, schedule.params.d), gap]
    t = TiledSection(schedule.params, pos, list(letters), [0, 0], [0, 1])
    t.origin_pos = {0: pos[0], 1: gap}
    return t


class TestHandCases:
    def test_gap_exactly_k_is_finished_at_its_stage(self, schedule2):
        for stage in (1, 2):
            k = schedule2.K[stage]
            t = two_points(schedule2, k)
            plan = pipeline._finish_stage_plan(t, schedule2, stage)
            assert list(plan) == [0]
            assert plan == _finish_stage_plan_reference(t, schedule2, stage)
            # a hair above K_n the gap is a class boundary
            t = two_points(schedule2, k + F(1, 10 ** 9))
            assert pipeline._finish_stage_plan(t, schedule2, stage) == {}
            assert _finish_stage_plan_reference(t, schedule2, stage) == {}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_carry_exactly_eps_exceeds_its_bound(self, schedule2, sign):
        # six alpha tiles on a gap of 6 -+ eps_1 move point 1 by +-eps_1
        eps = schedule2.eps[1]
        texts = []
        for apply in (pipeline._apply_gap_plan, _apply_gap_plan_reference):
            t = two_points(schedule2, 6 - eps * sign)
            with pytest.raises(TilingError, match="exceeds its bound") as e:
                apply(t, {0: TileVector(6, 0)}, 1, eps)
            texts.append(str(e.value))
        assert texts[0] == texts[1]
        assert texts[0] == (f"shift {eps * sign} at point 1 (rank 0) exceeds "
                            f"its bound {eps}")

    def test_carry_exactly_eps_after_a_block(self, schedule2):
        # the moved point sits behind a lettered gap: the block rides along
        eps = schedule2.eps[1]
        pos = [quad(0), 6 - eps, 6 - eps + schedule2.params.alpha]
        texts = []
        for apply in (pipeline._apply_gap_plan, _apply_gap_plan_reference):
            t = TiledSection(schedule2.params, pos, [None, "a"], [0, 1, 1],
                             [0, 1, 2])
            with pytest.raises(TilingError) as e:
                apply(t, {0: TileVector(6, 0)}, 1, eps)
            texts.append(str(e.value))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_corridor_end_on_a_table_value(self, schedule2, side):
        # gap 6 +- eps_1 puts a corridor end exactly on the value 6 of (6, 0)
        eps = schedule2.eps[1]
        gap = 6 + eps if side == "lo" else 6 - eps
        t = two_points(schedule2, gap)
        plan = pipeline._finish_stage_plan(t, schedule2, 1)
        assert plan == _finish_stage_plan_reference(t, schedule2, 1)
        assert plan[0] != TileVector(6, 0)
        table = schedule2.table
        assert table.between(gap - eps, gap + eps) == \
            between_reference(table, gap - eps, gap + eps)

    def test_corridor_ends_on_table_values(self, schedule2):
        table = schedule2.table
        vals = [v.value(table.params) for v in table.vectors]
        rng = random.Random(7)
        for _ in range(200):
            i, j = sorted(rng.sample(range(len(vals)), 2))
            for lo, hi in ((vals[i], vals[j]), (vals[i], vals[i]),
                           (vals[j], vals[i]),
                           (vals[i] - F(1, 2 ** 40), vals[j]),
                           (vals[i], vals[j] + F(1, 2 ** 40))):
                assert outcome(table.between, lo, hi) == \
                    outcome(between_reference, table, lo, hi)

    def test_no_tileable_text(self, schedule2):
        # a gap of 1/2 has no tileable within eps_1
        t = two_points(schedule2, quad(F(1, 2)))
        got = outcome(pipeline._finish_stage_plan, t, schedule2, 1)
        assert got[0] == "TilingError"
        assert got == outcome(_finish_stage_plan_reference, t, schedule2, 1)
        assert "no tileable in the corridor of gap 0" in got[1]


class TestChooseGapWord:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(REGIMES)), st.integers(0, 10 ** 6),
           st.integers(0, 40), st.integers(0, 40), st.integers(1, 30))
    def test_matches_reference(self, name, at, rp, rq, width):
        sched = regime_schedule(name)
        top = sched.table.top
        lo = top * F(at % 10 ** 6, 10 ** 6) - 1
        hi = qmin(lo + F(width, 10), top)
        running = TileVector(rp, rq)
        cands = sched.table.between(lo, hi)
        assert pipeline._choose_gap_word(cands, running, sched.params.rho) == \
            _choose_gap_word_reference(sched, lo, hi, running)

    def test_ties_keep_the_first(self):
        # (1, 1) and (2, 2) tie on the first three keys; fewer tiles win,
        # and of two equal candidates the first is taken
        rho = F(1, 2)
        a, b = TileVector(2, 2), TileVector(1, 1)
        assert pipeline._choose_gap_word([a, b], TileVector(0, 0), rho) is b
        c = TileVector(1, 1)
        assert pipeline._choose_gap_word([b, c], TileVector(0, 0), rho) is b
        assert pipeline._choose_gap_word([], TileVector(0, 0), rho) is None

    def test_each_key_decides_in_turn(self):
        rho = F(1, 2)
        # after one beta: (1, 0) and (2, 1) both give frequency 1/2, and
        # (2, 1) is nearer rho on its own, so it wins despite more tiles
        running = TileVector(0, 1)
        one, three = TileVector(1, 0), TileVector(2, 1)
        for cands in ([one, three], [three, one]):
            assert pipeline._choose_gap_word(cands, running, rho) == three
        # the side rule comes first: after one beta, alpha-rich words
        assert pipeline._choose_gap_word(
            [TileVector(0, 1), TileVector(1, 0)], running, rho) == (1, 0)
        # then the frequency after the word: from (0, 2), (2, 0) ends at 1/2
        assert pipeline._choose_gap_word(
            [TileVector(1, 0), TileVector(2, 0)], TileVector(0, 2),
            rho) == (2, 0)


# -- displacements ------------------------------------------------------------


class TestCheckDisplacements:
    # check_section on lettered sections, whose provenance is complete:
    # the displacements decide its verdict and text
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["stock", "d3_irrational_alpha",
                            "irrational_alpha"]),
           st.lists(st.tuples(st.integers(0, 11), st.sampled_from(
               [F(0), F(1, 3), F(-1, 3), F(1, 3) - F(1, 10 ** 9),
                F(1, 5), F(-1, 2)]), st.integers(-2, 2)), max_size=4),
           st.integers(-1, 11), st.sampled_from(KEY_WIDTHS))
    def test_matches_reference(self, name, moves, drop, bits):
        sched = regime_schedule(name)
        p = sched.params
        budget = qmin(p.alpha, quad(1, 0, p.d)) / 3
        letters = ["b" if i % 3 else "a" for i in range(11)]
        pos = [quad(0, 0, p.d)]
        for ch in letters:
            pos.append(pos[-1] + (p.alpha if ch == "a" else p.beta))
        t = TiledSection(p, pos, letters, [0] * 12, list(range(12)))
        t.origin_pos = dict(enumerate(pos))
        for i, frac, s in moves:
            # a shift of frac times the budget, plus s/7 sqrt(d) for s != 0,
            # made by moving the origin the other way
            t.origin_pos[i] = t.origin_pos[i] - budget * frac * 3 - \
                quad(0, F(s, 7), p.d)
        if drop >= 0:
            del t.origin_pos[drop]
        with key_bits(bits):
            assert outcome(check_section, t) == \
                outcome(check_displacements_reference, t)

    def test_budget_exactly_reached_fails(self, schedule2):
        alpha = schedule2.params.alpha
        budget = qmin(alpha, quad(1)) / 3
        for sign in (1, -1):
            t = two_points(schedule2, alpha, "a")
            t.origin_pos[1] = t.origin_pos[1] - budget * sign
            got = outcome(check_section, t)
            assert got == outcome(check_displacements_reference, t)
            assert got == ("TilingError", f"original point 1 displaced "
                           f"{budget * sign}, not strictly below the "
                           f"min(alpha,1)/3 budget")


class TestRegularRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", None]), max_size=30))
    def test_matches_reference(self, letters):
        n = len(letters) + 1
        t = TiledSection(default_params(), [quad(i) for i in range(n)],
                         letters, [0] * n, list(range(n)))
        assert t.regular_runs() == regular_runs_reference(t)
        assert t.is_fully_regular() == is_fully_regular_reference(t)


# -- more inputs for the planner and the carry walk ---------------------------
#
# Windows of several uniform blocks around different thresholds K_m, and
# stretched rotation windows, at depth 2 or 3 over D in {2, 3}; with a
# table cut short, later corridors reach above its top.  The planner keeps
# what the table returned for each distinct corridor during one call, and
# the carry walk passes over a bare gap reached with zero carry: both are
# compared with their oracles.


@lru_cache(maxsize=None)
def memo_schedule(name: str, depth: int, short: bool = False) -> Schedule:
    """The schedule; if short, with a table that stops at K_1 + 1, so that
    a later stage reads corridors above its top."""
    sched = build_schedule(MEMO_REGIMES[name], depth=depth)
    if short:
        sched = copy.copy(sched)
        sched.table = TileableTable(sched.params, sched.K[1] + 1)
    return sched


def section_of_gaps(schedule: Schedule, gaps) -> TiledSection:
    """A bare section of original points with the given gaps."""
    pos = [quad(0, 0, schedule.params.d)]
    for g in gaps:
        pos.append(pos[-1] + g)
    n = len(pos)
    t = TiledSection(schedule.params, pos, [None] * (n - 1), [0] * n,
                     list(range(n)))
    t.origin_pos = dict(enumerate(pos))
    return t


# D in {2, 3}, alpha rational or irrational, rho 1/2 or 1/7
MEMO_REGIMES = {
    f"d{d}_{kind}_rho{rho.denominator}": Params(alpha, beta, rho)
    for d in (2, 3)
    for kind, alpha, beta in (("alpha1", quad(1, 0, d), sqrtD(d)),
                              ("alpha_irrational", sqrtD(d) - 1,
                               quad(1, 0, d)))
    for rho in (F(1, 2), F(1, 7))
}


@st.composite
def staged_sections(draw):
    """A depth-2 or depth-3 schedule, its table cut short or not, and a
    bare or grown section of a uniform or rotation window whose gaps reach
    every stage."""
    name = draw(st.sampled_from(sorted(MEMO_REGIMES)))
    depth = draw(st.sampled_from([2, 3]))
    sched = memo_schedule(name, depth)
    d = sched.params.d
    count = draw(st.integers(2, 80))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        # uniform blocks of gaps in [k0 + 1, k0 + 2], around K_m: a stage
        # finishes some blocks and leaves the others bare
        gaps = []
        for block in range(draw(st.integers(1, 4))):
            m = draw(st.integers(0, sched.depth))
            k0 = sched.K[m] - F(draw(st.integers(2, 8)), 4)
            gaps += generate(GeneratorSpec("uniform", count, seed + block,
                                           k0=k0)).gaps()
        w = OrbitWindow(list(accumulate(gaps, initial=quad(0, 0, d))))
    else:
        # gaps floor(1/angle) and one more, stretched by scale
        num = draw(st.integers(1, 255))
        angle = quad(F(draw(st.integers(64, 255)), 256), F(num, 256), d)
        angle = angle - angle.floor()
        if not quad(F(1, 8), 0, d) < angle:
            angle = angle + F(1, 4)
        w = generate(GeneratorSpec("rotation_suspension", count, angle=angle))
        scale = draw(st.integers(1, 8))
        w = OrbitWindow([p * scale for p in w.positions])
    t = TiledSection.from_window(sched.params, w)
    if draw(st.booleans()):
        grown = outcome(build_rank_blocks, w, sched, seed)
        if grown[0] == "ok":
            t = grown[1]
    return memo_schedule(name, depth, draw(st.booleans())), t


class TestMoreInputsMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(staged_sections(), st.sampled_from(KEY_WIDTHS))
    def test_plans_and_sections_equal(self, case, bits):
        sched, t = case
        sched = table_at(sched, bits)
        with key_bits(bits):
            for stage in range(1, sched.depth + 1):
                plan = outcome(pipeline._finish_stage_plan, t, sched, stage)
                assert plan == outcome(_finish_stage_plan_reference, t, sched,
                                       stage)
                if plan[0] != "ok":
                    return
                ref = copy.copy(t)
                bound = sched.eps[stage]
                applied = outcome(pipeline._apply_gap_plan, t, plan[1], stage,
                                  bound)
                assert applied == outcome(_apply_gap_plan_reference, ref,
                                          plan[1], stage, bound)
                if applied[0] != "ok":
                    return
                assert section_state(t) == section_state(ref)
            if t.is_fully_regular():
                assert outcome(check_section, t) == \
                    outcome(check_displacements_reference, t)

    @settings(max_examples=100, deadline=None)
    @given(staged_sections(), st.randoms(use_true_random=False))
    def test_edited_plans_apply_alike(self, case, rng):
        # a dropped entry leaves a bare gap that absorbs the carry, or finds
        # none to absorb; a bumped entry moves its points past the bound
        sched, t = case
        stage = rng.randint(1, sched.depth)
        kind, plan = outcome(pipeline._finish_stage_plan, t, sched, stage)
        edited = {}
        for g, (p, q) in (plan.items() if kind == "ok" else ()):
            r = rng.random()
            if r < 0.3:
                continue
            if r < 0.35:
                p += 1
            elif r < 0.4:
                q += 1
            edited[g] = TileVector(p, q)
        ref = copy.copy(t)
        bound = sched.eps[stage]
        got = outcome(pipeline._apply_gap_plan, t, edited, stage, bound)
        assert got == outcome(_apply_gap_plan_reference, ref, edited, stage,
                              bound)
        if got[0] == "ok":
            assert section_state(t) == section_state(ref)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 60),
           st.integers(0, 60), st.sampled_from([F(1, 2), F(1, 7), F(2, 5)]))
    def test_single_candidate_is_its_own_best(self, p, q, rp, rq, rho):
        v = TileVector(p, q) if p or q else TileVector(1, 0)
        assert pipeline._choose_gap_word([v], TileVector(rp, rq), rho) is v


class TestRepeatedCorridorFailures:
    def test_corridor_above_the_table_top(self):
        # gap K_2 at stage 2, after two looked-up corridors of the same gap
        short = memo_schedule("d2_alpha1_rho2", 2, short=True)
        k1, k2 = short.K[1], short.K[2]
        t = section_of_gaps(short, [k1, k1, k2, k1, k2])
        got = outcome(pipeline._finish_stage_plan, t, short, 2)
        assert got == outcome(_finish_stage_plan_reference, t, short, 2)
        assert got[0] == "TilingError"
        assert got[1].startswith("stage 2, gap 2: corridor (")
        assert got[1].endswith(f"reaches above the tileable table's top "
                               f"{short.table.top}")

    def test_empty_corridor_after_repeated_corridors(self, schedule2):
        t = section_of_gaps(schedule2, [quad(7), quad(7), quad(F(1, 2)),
                                        quad(7), quad(F(1, 2))])
        got = outcome(pipeline._finish_stage_plan, t, schedule2, 1)
        assert got == outcome(_finish_stage_plan_reference, t, schedule2, 1)
        assert got[0] == "TilingError"
        assert got[1].startswith("stage 1: no tileable in the corridor of "
                                 "gap 2 (window (")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_shift_over_its_bound_after_carry_free_gaps(self, schedule2,
                                                        sign):
        # gaps 0 and 1 are bare and unplanned with zero carry; the shift
        # of gap 2's word is checked at point 3
        eps = schedule2.eps[1]
        gaps = [quad(30), quad(30), 6 - eps * sign, quad(30)]
        plan = {2: TileVector(6, 0)}
        texts = []
        for apply in (pipeline._apply_gap_plan, _apply_gap_plan_reference):
            texts.append(outcome(apply, section_of_gaps(schedule2, gaps),
                                 plan, 1, eps))
        assert texts[0] == texts[1]
        assert texts[0] == ("TilingError", f"shift {eps * sign} at point 3 "
                            f"(rank 0) exceeds its bound {eps}")

    @pytest.mark.parametrize("carry", ["rational", "irrational"])
    def test_absorbed_carry_then_carry_free_gaps(self, schedule2, carry):
        # a carry inside the bound, eps_1/2 or sqrt(2)/10 with no rational
        # part, is absorbed by gap 1; gaps 3 and 4 are bare with zero carry
        # and copied as they are
        eps = schedule2.eps[1]
        shift = eps / 2 if carry == "rational" else quad(0, F(1, 10))
        assert shift < eps
        gaps = [6 - shift, quad(30), quad(7), quad(30), quad(30), quad(7)]
        plan = {0: TileVector(6, 0), 2: TileVector(7, 0), 5: TileVector(7, 0)}
        t = section_of_gaps(schedule2, gaps)
        ref = section_of_gaps(schedule2, gaps)
        pipeline._apply_gap_plan(t, plan, 1, eps)
        _apply_gap_plan_reference(ref, plan, 1, eps)
        assert section_state(t) == section_state(ref)
        # point 2 stays where it was
        assert t.positions[7] == 6 - shift + 30


class TestNoLookupStateOutlivesACall:
    def test_table_unchanged_and_first_window_repeats(self, schedule4):
        table = schedule4.table
        assert TileableTable.__slots__ == ("params", "top", "vectors", "xs",
                                           "ys", "bits", "keys")
        before = {name: copy.copy(getattr(table, name))
                  for name in ("vectors", "xs", "ys", "bits", "keys")}
        params, top = table.params, table.top
        d = schedule4.params.d
        windows = [generate(GeneratorSpec("uniform", 300, s,
                                          k0=schedule4.K[0]))
                   for s in range(3)]
        windows.append(generate(GeneratorSpec(
            "rotation_suspension", 300, angle=quad(F(1, 3), F(1, 7), d))))

        def tiled(w):
            t = full_pipeline(w, schedule4)
            return json.dumps(t.to_json()), t.ranks, t.notes

        first = tiled(windows[0])
        for w in windows[1:]:
            tiled(w)
        assert table.params is params and table.top is top
        for name, value in before.items():
            assert getattr(table, name) == value, name
        assert tiled(windows[0]) == first


class TestScreensAtEveryKeyWidth:
    @pytest.mark.parametrize("bits", KEY_WIDTHS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_carry_exactly_eps_with_an_irrational_part(self, bits, sign):
        sched = regime_schedule("irrational_alpha")
        eps = sched.eps[1]
        assert not eps.is_rational()
        word = TileVector(6, 0)
        six = word.value(sched.params)
        with key_bits(bits):
            got = [outcome(apply, two_points(sched, six - eps * sign),
                           {0: word}, 1, eps)
                   for apply in (pipeline._apply_gap_plan,
                                 _apply_gap_plan_reference)]
            assert got[0] == got[1] == (
                "TilingError",
                f"shift {eps * sign} at point 1 (rank 0) exceeds its bound "
                f"{eps}")
            # a hair inside the bound is inside
            for hair in HAIRS:
                t = two_points(sched, six - (eps - hair) * sign)
                ref = copy.copy(t)
                pipeline._apply_gap_plan(t, {0: word}, 1, eps)
                _apply_gap_plan_reference(ref, {0: word}, 1, eps)
                assert section_state(t) == section_state(ref)

    @pytest.mark.parametrize("bits", KEY_WIDTHS)
    @pytest.mark.parametrize("name", ["stock", "irrational_alpha"])
    def test_displacement_exactly_the_budget(self, bits, name):
        sched = regime_schedule(name)
        alpha = sched.params.alpha
        budget = qmin(alpha, quad(1)) / 3
        with key_bits(bits):
            for sign in (1, -1):
                t = two_points(sched, alpha, "a")
                t.origin_pos[1] = t.origin_pos[1] - budget * sign
                got = outcome(check_section, t)
                assert got == outcome(check_displacements_reference, t)
                assert got == ("TilingError", f"original point 1 displaced "
                               f"{budget * sign}, not strictly below the "
                               f"min(alpha,1)/3 budget")
                for hair in HAIRS:
                    t = two_points(sched, alpha, "a")
                    t.origin_pos[1] = t.origin_pos[1] - (budget - hair) * sign
                    assert outcome(check_section, t) == ("ok", None)
                    assert outcome(check_displacements_reference, t) == \
                        ("ok", None)

    @pytest.mark.parametrize("bits", KEY_WIDTHS)
    def test_corridor_end_on_a_table_value_with_negative_y(self, bits):
        with key_bits(bits):
            table = TileableTable(NEGATIVE_Y, quad(6))
        values = [v.value(NEGATIVE_Y) for v in table.vectors]
        ends = [v for v in values if v.b < 0]
        assert len(ends) > 20
        for v in ends:
            for lo, hi in ((v - 1, v), (v, v + 1), (v, v), (v - F(1, 7), v),
                           (v, v + F(1, 7)), (v - HAIRS[2], v),
                           (v, v + HAIRS[2])):
                assert outcome(table.between, lo, hi) == \
                    outcome(between_reference, table, lo, hi)

    @pytest.mark.parametrize("bits", KEY_WIDTHS)
    @pytest.mark.parametrize("top", [quad(12), quad(10, 1)],
                             ids=["rational", "irrational"])
    def test_corridor_just_above_the_top(self, bits, top):
        with key_bits(bits):
            table = TileableTable(default_params(), top)
        offs = HAIRS + [(sqrtD() - 1) / n for n in (1, 2, 7, 1000)] + \
            [quad(F(1, 10 ** 12))]
        for hi in [top] + [top + off for off in offs] + \
                [top - off for off in offs]:
            lo = top - 2
            got = outcome(table.between, lo, hi)
            assert got == outcome(between_reference, table, lo, hi)
            assert (got[0] == "TilingError") == (top < hi)


# -- the bench's tiling pools at every key width ------------------------------


def bench_window_seeds(seed: int, count: int) -> list[int]:
    """The seeds of the bench's uniform windows (``bench/workloads.py``)."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 32) for _ in range(count)]


def bench_rotation_angles(seed: int, count: int) -> list:
    """The angles of the bench's rotation windows, in (1/4, 1)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = quad(F(rng.randrange(256), 256), F(rng.randrange(1, 256), 256))
        theta = x - x.floor()
        if quad(F(1, 4)) < theta:
            out.append(theta)
    return out


# the sha256 of the tiled states below at KEY_BITS 32, as the code before
# the integer screens tiled them
BENCH_POOLS = ("ec7335498162fcd72627bc9808026613"
               "317f434c4143ee5719d2cfee9b44a826")


class TestBenchPoolsAtEveryKeyWidth:
    def test_first_windows_tile_alike(self):
        # the first 12 windows of the bench's uniform pool (depth 4) and
        # rotation pool (depth 2), seed 1, tiled as the bench tiles them
        states = []
        for bits in KEY_WIDTHS:
            with key_bits(bits):
                s4 = build_schedule(default_params(), depth=4)
                s2 = build_schedule(default_params(), depth=2)
                jobs = [(generate(GeneratorSpec("uniform", 1000, s,
                                                k0=s4.K[0])), s4)
                        for s in bench_window_seeds(1, 12)]
                jobs += [(generate(GeneratorSpec("rotation_suspension", 1000,
                                                 angle=a)), s2)
                         for a in bench_rotation_angles(1, 12)]
                tiled = [full_pipeline(w, sched, seed=k % 12)
                         for k, (w, sched) in enumerate(jobs)]
            states.append([(json.dumps(t.to_json()), t.c, t.xs, t.ys, t.ranks,
                            t.orig_ids) for t in tiled])
        assert states[0] == states[1] == states[2]
        assert hashlib.sha256(repr(states[2]).encode()).hexdigest() == \
            BENCH_POOLS
