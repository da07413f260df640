"""Orbit windows, chain classes, markers, two-class blocks and block
insertion.  Chain classes are compared with
``oracles.chain_classes_reference``; the closed forms of
``marker_subsection``, ``two_class_block`` and ``_nested_runs_ok`` are
checked against the definitions in their docstrings, with the oracles in
``tests/oracles.py``."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtile.generators import GeneratorSpec, generate
from flowtile.quadratic import ConfigError, quad
from flowtile.windows import (OrbitWindow, SparsityError, _nested_runs_ok,
                              chain_classes, insert_blocks, is_sparse_window,
                              level_midpoints, marker_subsection, ruler_levels,
                              two_class_block)
from oracles import (brute_nested_runs_ok, chain_classes_reference,
                     marker_subsection_violations, two_class_block_violations)


def window_from_gaps(gaps):
    pos = [quad(0)]
    for g in gaps:
        pos.append(pos[-1] + g)
    return OrbitWindow(pos)


class TestOrbitWindow:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            OrbitWindow([quad(0), quad(0)])

    def test_json_round_trip(self):
        w = window_from_gaps([quad(3), quad(F(7, 2))])
        assert w.to_json() == {"positions": ["0", "3", "13/2"]}
        w2 = OrbitWindow.from_json(w.to_json())
        assert w2.positions == w.positions
        # files written before the boundary field was dropped
        w3 = OrbitWindow.from_json({"boundary": "open", **w.to_json()})
        assert w3.positions == w.positions

    @pytest.mark.parametrize("boundary", ["closed", 5, None])
    def test_other_boundaries_rejected(self, boundary):
        data = {"boundary": boundary, "circumference": "8",
                "positions": ["0", "3"]}
        with pytest.raises(ValueError, match="boundary"):
            OrbitWindow.from_json(data)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-3, 3)),
                    min_size=1, max_size=12), st.sampled_from([2, 3]))
    def test_window_order_check_matches_comparisons(self, coords, d):
        pos = [quad(F(r, 3), F(s, 7), d) for r, s in coords]
        increasing = all(a < b for a, b in zip(pos, pos[1:]))
        try:
            OrbitWindow(pos)
            accepted = True
        except ValueError as e:
            assert str(e) == "positions must be strictly increasing"
            accepted = False
        assert accepted == increasing


class TestChainClasses:
    def test_basic_partition(self):
        w = OrbitWindow([quad(0), quad(1), quad(5), quad(6)])
        assert chain_classes(w, quad(2)).classes == ((0, 1), (2, 3))

    def test_single_class_when_threshold_dominates(self):
        w = OrbitWindow([quad(0), quad(1), quad(5), quad(6)])
        assert chain_classes(w, quad(10)).classes == ((0, 1, 2, 3),)

    def test_brute_force_connected_components(self):
        rng = random.Random(4)
        for _ in range(50):
            gaps = [quad(F(rng.randint(1, 40), 4)) for _ in range(rng.randint(1, 15))]
            w = window_from_gaps(gaps)
            k = quad(F(rng.randint(1, 40), 4))
            assert chain_classes(w, k) == chain_classes_reference(w, k)

    def test_refinement(self):
        rng = random.Random(5)
        for _ in range(100):
            gaps = [quad(F(rng.randint(1, 64), 8)) for _ in range(rng.randint(1, 12))]
            w = window_from_gaps(gaps)
            k = quad(F(rng.randint(1, 32), 8))
            l = k + F(rng.randint(0, 32), 8)
            fine = chain_classes(w, k).classes
            coarse = chain_classes(w, l).classes
            # each fine class sits inside one coarse class
            owner = {}
            for ci, cls in enumerate(coarse):
                for i in cls:
                    owner[i] = ci
            for cls in fine:
                assert len({owner[i] for i in cls}) == 1


class TestMarkers:
    def test_proof_formula_split(self):
        w = OrbitWindow([quad(i) for i in range(11)])
        got = marker_subsection(w, 3)
        assert got.indices == (0, 3, 6, 10)
        assert not got.truncated

    def test_d_one_selects_everything(self):
        w = OrbitWindow([quad(i) for i in range(9)])
        got = marker_subsection(w, 1)
        assert got.indices == tuple(range(9))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 6))
    def test_gaps_are_two_valued(self, n, d):
        w = OrbitWindow([quad(i) for i in range(n + 1)])
        got = marker_subsection(w, d)
        gaps = [b - a for a, b in zip(got.indices, got.indices[1:])]
        assert all(g in (d, d + 1) for g in gaps)
        if not got.truncated and len(got.indices) > 1:
            assert got.indices[-1] == n

    def test_short_window_flagged(self):
        w = OrbitWindow([quad(i) for i in range(3)])
        got = marker_subsection(w, 4)  # 2 steps, not splittable by 4/5
        assert got.truncated and got.indices == (0,)


class TestTwoClassBlock:
    def test_pair(self):
        pts, b = two_class_block([quad(2), quad(4)])
        assert pts == [quad(0), quad(3)] and b == quad(3)

    def test_triple(self):
        pts, b = two_class_block([quad(2), quad(4), quad(8)])
        assert pts == [quad(0), quad(3), quad(9), quad(12)] and b == quad(12)
        gaps = [y - x for x, y in zip(pts, pts[1:])]
        assert gaps == [quad(3), quad(6), quad(3)]

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_exactly_two_subclasses(self, length):
        ks = [quad(2 * 2 ** i) for i in range(length)]
        pts, _ = two_class_block(ks)
        w = OrbitWindow(pts)
        for i in range(length - 1):
            for cls in chain_classes(w, ks[i + 1]).classes:
                sub = chain_classes(OrbitWindow([pts[j] for j in cls]), ks[i])
                assert len(sub.classes) == 2

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_gap_palindrome(self, length):
        ks = [quad(3 * 2 ** i) for i in range(length)]
        pts, _ = two_class_block(ks)
        gaps = [y - x for x, y in zip(pts, pts[1:])]
        assert gaps == gaps[::-1]

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            two_class_block([quad(4), quad(4)])


KS = [quad(2), quad(4), quad(8), quad(16)]
EPS = quad(1)


class TestInsertBlocks:
    def synthetic(self, seed, n=30, choices=(10, 100, 1000)):
        rng = random.Random(seed)
        return window_from_gaps([quad(rng.choice(choices)) for _ in range(n)])

    @staticmethod
    def check_posts(out, ks, eps):
        mids = level_midpoints(ks)
        levels = []
        for g in out.gaps():
            assert ks[0] < g  # (i)
            lev = next((i for i, m in enumerate(mids) if abs(g - m) < eps), None)
            assert lev is not None  # (iii)
            levels.append(lev)
        # (ii) interior classes at each threshold split in two or more
        assert brute_nested_runs_ok(levels)

    def test_synthetic_window_posts(self):
        w = self.synthetic(3)
        out = insert_blocks(w, KS, EPS)
        self.check_posts(out, KS, EPS)
        assert set(map(str, w.positions)) <= set(map(str, out.positions))

    def test_multiple_seeds(self):
        for seed in range(8):
            out = insert_blocks(self.synthetic(seed, n=20), KS, EPS)
            self.check_posts(out, KS, EPS)

    def test_idempotent_on_conforming_window(self):
        pts, _ = two_class_block([quad(2), quad(4), quad(8)])
        w = OrbitWindow(pts)
        out = insert_blocks(w, [quad(2), quad(4), quad(8)], EPS)
        assert out.positions == w.positions

    def test_eps_spacing_precondition(self):
        with pytest.raises(ValueError):
            insert_blocks(self.synthetic(1), [quad(2), quad(3)], EPS)

    def test_hopeless_gap_reported(self):
        w = window_from_gaps([quad(1000), quad(F(33, 8)), quad(1000)])
        with pytest.raises(SparsityError) as ei:
            insert_blocks(w, KS, quad(F(1, 4)))
        assert ei.value.gap_index is not None


class TestSparsePredicate:
    def test_uniform_window_not_sparse(self):
        w = window_from_gaps([quad(3)] * 10)
        assert not is_sparse_window(w, quad(4))

    def test_geometric_window_sparse(self):
        gaps = [quad(3 * 2 ** (i % 4)) for i in range(16)]
        w = window_from_gaps(gaps)
        assert is_sparse_window(w, quad(24))

    def test_single_point(self):
        assert not is_sparse_window(OrbitWindow([quad(0)]), quad(1))


class TestRulerLevels:
    def test_small_cases(self):
        assert ruler_levels(0) == [0]
        assert ruler_levels(1) == [0, 1, 0]
        assert ruler_levels(2) == [0, 1, 0, 2, 0, 1, 0]


# -- closed forms against their definitions ----------------------------------


def outcome(fn, *args):
    """What a call returned, or the type and text of what it raised."""
    try:
        return "returned", fn(*args)
    except (ValueError, AssertionError) as e:
        return "raised", type(e), str(e)


class TestClosedFormsMeetTheirDefinitions:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 30))
    def test_markers(self, n, d):
        w = OrbitWindow([quad(i) for i in range(n)])
        assert marker_subsection_violations(n, d, marker_subsection(w, d)) \
            == []

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=14))
    def test_nested_runs_ok(self, levels):
        assert _nested_runs_ok(levels) == brute_nested_runs_ok(levels)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]),
           st.lists(st.tuples(st.fractions(-20, 60, max_denominator=4),
                              st.fractions(-5, 5, max_denominator=3)),
                    min_size=1, max_size=6))
    def test_two_class_block(self, radicand, coeffs):
        ks = sorted({quad(r, s, radicand) for r, s in coeffs})
        pts, length = two_class_block(ks)
        assert two_class_block_violations(ks, pts, length) == []

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5),
           st.lists(st.sampled_from([10, 100, 1000]), min_size=1,
                    max_size=25))
    def test_insert_blocks(self, n_thresholds, gaps):
        # the acceptance-08 windows: a filled window keeps every original
        # point and meets the guarantees, or a gap is named as hopeless
        ks = [quad(2 ** i) for i in range(1, n_thresholds + 1)]
        w = window_from_gaps([quad(g) for g in gaps])
        got = outcome(insert_blocks, w, ks, EPS)
        if got[0] == "raised":
            assert got[1] is SparsityError and got[2].startswith("gap ")
            return
        TestInsertBlocks.check_posts(got[1], ks, EPS)
        assert set(w.positions) <= set(got[1].positions)


@st.composite
def chain_windows(draw):
    """A window of up to 40 points in sqrt(2) or sqrt(3): rational or
    irrational gaps over a denominator up to 12 from a rational start, or
    a rotation window, whose positions are integers."""
    d = draw(st.sampled_from([2, 3]))
    shape = draw(st.sampled_from(["rational", "irrational", "rotation"]))
    if shape == "rotation":
        angle = quad(F(draw(st.integers(1, 3)), 4),
                     F(draw(st.integers(1, 63)), 64), d)
        return generate(GeneratorSpec("rotation_suspension",
                                      draw(st.integers(1, 40)),
                                      angle=angle - angle.floor()))
    den = draw(st.integers(1, 12))
    pos = [quad(F(draw(st.integers(-50, 50)), den), 0, d)]
    for g in draw(st.lists(st.integers(1, 60), max_size=39)):
        s = draw(st.integers(-2, 2)) if shape == "irrational" else 0
        pos.append(pos[-1] + abs(quad(F(g, den), F(s, den), d)))
    return OrbitWindow(pos)


@st.composite
def chain_thresholds(draw, d):
    """A threshold of any sign: rational, or irrational in the window's
    radicand d or in another; its denominator up to 13 need not divide
    the window's."""
    shape = draw(st.sampled_from(["rational", "same", "other"]))
    r = F(draw(st.integers(-20, 200)), draw(st.integers(1, 13)))
    if shape == "rational":
        return quad(r, 0, d)
    s = F(draw(st.integers(-20, 20).filter(bool)), draw(st.integers(1, 7)))
    e = d if shape == "same" else draw(st.sampled_from(
        [x for x in (2, 3, 5) if x != d]))
    return quad(r, s, e)


class TestChainClassesMatchReference:
    """chain_classes on the window's coordinates against
    ``oracles.chain_classes_reference``, which compares every gap with k
    as a ``QuadReal``."""

    @settings(max_examples=400, deadline=None)
    @given(chain_windows(), st.data())
    def test_random_windows(self, w, data):
        # a drawn threshold, and thresholds exactly on a gap
        for k in [data.draw(chain_thresholds(w.d)), *w.gaps()[:3]]:
            assert (outcome(chain_classes, w, k)
                    == outcome(chain_classes_reference, w, k))

    def test_threshold_denominator_not_dividing_window(self):
        # positions over 4, thresholds over 3, 7 and 5
        w = window_from_gaps([quad(F(g, 4)) for g in (9, 10, 3, 11, 9, 2)])
        assert w.c == 4
        for k in (quad(F(7, 3)), quad(F(17, 7)), quad(F(5, 2), F(1, 5))):
            got = chain_classes(w, k)
            assert got == chain_classes_reference(w, k)
        assert chain_classes(w, quad(F(7, 3))).classes == (
            (0, 1), (2, 3), (4, 5, 6))

    def test_rotation_window_takes_the_threshold_radicand(self):
        # integer positions in sqrt(3); the threshold is in sqrt(2)
        w = generate(GeneratorSpec("rotation_suspension", 40,
                                   angle=quad(-1, 1, 3)))
        assert (w.c, w.d, set(w.ys)) == (1, 3, {0})
        k = quad(0, 1, 2)  # gaps of 1 join, gaps of 2 do not
        got = chain_classes(w, k)
        assert got == chain_classes_reference(w, k)
        gaps = w.gaps()
        assert len(got.classes) == 1 + sum(k < g for g in gaps) > 1

    def test_irrational_window_rejects_another_radicand(self):
        w = window_from_gaps([quad(1, 1), quad(2, 1)])
        k = quad(0, 2, 3)
        with pytest.raises(ConfigError) as want:
            chain_classes_reference(w, k)
        with pytest.raises(ConfigError) as got:
            chain_classes(w, k)
        assert str(got.value) == str(want.value) == \
            "mixed radicands: sqrt(2) vs sqrt(3)"
