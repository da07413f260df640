import random
from fractions import Fraction as F
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import compress, count, islice, repeat
from operator import gt, sub

from flowtile import windows
from flowtile.generators import GeneratorSpec, generate
from flowtile.quadratic import ConfigError, QuadReal, lattice, quad, sign_of
from flowtile.windows import (ChainClasses, MarkerResult, OrbitWindow,
                              SparsityError, _nested_runs_ok, chain_classes,
                              insert_blocks, is_sparse_window, level_midpoints,
                              marker_subsection, ruler_levels, two_class_block)


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
            got = chain_classes(w, k).classes
            # oracle: adjacency graph components
            comps, cur = [], [0]
            for i, g in enumerate(gaps):
                if k < g:
                    comps.append(tuple(cur))
                    cur = [i + 1]
                else:
                    cur.append(i + 1)
            comps.append(tuple(cur))
            assert got == tuple(comps)

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

    def check_posts(self, out, ks, eps):
        mids = level_midpoints(ks)
        gaps = out.gaps()
        levels = []
        for g in gaps:
            assert ks[0] < g  # (i)
            lev = next((i for i, m in enumerate(mids) if abs(g - m) < eps), None)
            assert lev is not None  # (iii)
            levels.append(lev)
        # (ii) interior classes at each realized threshold split in two+
        realized = sorted(set(levels))
        for n in realized:
            runs = []
            cur = None
            for j, lev in enumerate(levels):
                if lev <= n:
                    cur = [j, j] if cur is None else [cur[0], j]
                else:
                    if cur is not None:
                        runs.append(tuple(cur))
                    cur = None
            tail_open = cur is not None
            if cur is not None:
                runs.append(tuple(cur))
            for idx, (lo, hi) in enumerate(runs):
                interior = lo > 0 and not (idx == len(runs) - 1 and tail_open)
                if interior:
                    assert any(levels[j] == n for j in range(lo, hi + 1))

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


# -- closed forms against the loops they replaced ------------------------------


def marker_subsection_reference(w: OrbitWindow, d: int) -> MarkerResult:
    """Thin the window to markers whose index gaps are exactly d or d+1.

    Anchored at the leftmost index.  A final stretch too short to split as
    m*d + n*(d+1) is left unmarked and flagged as truncated.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    total = len(w) - 1
    if total == 0:
        return MarkerResult((0,), False)

    def split(base: int, length: int) -> list[int]:
        # length = (q - r)*d + r*(d+1) with q = length//d, r = length%d
        q, r = divmod(length, d)
        out = []
        pos = base
        for _ in range(q - r):
            pos += d
            out.append(pos)
        for _ in range(r):
            pos += d + 1
            out.append(pos)
        return out

    def splittable(length: int) -> bool:
        q, r = divmod(length, d)
        return q >= r

    dd = d * d
    segs = total // dd
    tail = total - segs * dd
    marks = [0]
    base = 0
    for s in range(segs):
        length = dd
        if s == segs - 1 and tail and splittable(dd + tail):
            length = dd + tail
            tail = 0
        marks.extend(split(base, length))
        base = marks[-1]
    truncated = False
    if tail:
        if splittable(tail):
            marks.extend(split(base, tail))
        else:
            truncated = True
    return MarkerResult(tuple(marks), truncated)


def two_class_block_reference(k_list: Sequence[QuadReal]) -> tuple[list[QuadReal], QuadReal]:
    """The nested block for an increasing threshold list, plus its length.

    One point for a single threshold; each further threshold doubles the
    block, the copy offset by the current length plus the midpoint of the
    two newest thresholds.  Every chain class at threshold k_{n+1} inside
    the block splits into exactly two classes at k_n.
    """
    if not k_list:
        raise ValueError("need at least one threshold")
    for x, y in zip(k_list, k_list[1:]):
        if not x < y:
            raise ValueError("thresholds must be strictly increasing")
    zero = quad(0, 0, k_list[0].d)
    pts = [zero]
    length = zero
    for prev, nxt in zip(k_list, k_list[1:]):
        shift = length + (prev + nxt) / 2
        pts = pts + [p + shift for p in pts]
        length = length + shift
    return pts, length


def nested_runs_ok_reference(levels: list[int]) -> bool:
    """Interior maximal runs of levels <= n must contain an n, and no two
    adjacent gaps may both exceed level 0 (no singleton interior classes)."""
    if not levels:
        return True
    for a, b in zip(levels, levels[1:]):
        if a >= 1 and b >= 1:
            return False
    top = max(levels)
    for n in range(top):
        runs = []
        cur = None
        for j, lev in enumerate(levels):
            if lev <= n:
                if cur is None:
                    cur = [j, j]
                cur[1] = j
            else:
                if cur is not None:
                    runs.append((cur, True))
                cur = None
        if cur is not None:
            runs.append((cur, False))  # touches right boundary
        for idx, ((lo, hi), closed_right) in enumerate(runs):
            interior = (lo > 0) and (closed_right or idx < len(runs) - 1)
            if not interior:
                continue  # boundary classes exempt in open windows
            if not any(levels[j] == n for j in range(lo, hi + 1)):
                return False
    return True


def outcome(fn, *args):
    """What a call returned, or the type and text of what it raised."""
    try:
        return "returned", fn(*args)
    except (ValueError, AssertionError) as e:
        return "raised", type(e), str(e)


class TestClosedFormsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 30))
    def test_markers(self, n, d):
        w = OrbitWindow([quad(i) for i in range(n)])
        assert marker_subsection(w, d) == marker_subsection_reference(w, d)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=14))
    def test_nested_runs_ok(self, levels):
        assert _nested_runs_ok(levels) == nested_runs_ok_reference(levels)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]),
           st.lists(st.tuples(st.fractions(-20, 60, max_denominator=4),
                              st.fractions(-5, 5, max_denominator=3)),
                    min_size=1, max_size=6))
    def test_two_class_block(self, radicand, coeffs):
        ks = sorted({quad(r, s, radicand) for r, s in coeffs})
        pts, length = two_class_block(ks)
        want_pts, want_length = two_class_block_reference(ks)
        assert [str(p) for p in pts] == [str(p) for p in want_pts]
        assert str(length) == str(want_length)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5),
           st.lists(st.sampled_from([10, 100, 1000]), min_size=1,
                    max_size=25))
    def test_insert_blocks(self, n_thresholds, gaps):
        # the acceptance-08 windows: the reference run swaps the two
        # rewritten helpers back in, insert_blocks itself is unchanged
        ks = [quad(2 ** i) for i in range(1, n_thresholds + 1)]
        w = window_from_gaps([quad(g) for g in gaps])
        got = outcome(insert_blocks, w, ks, EPS)
        with mock.patch.object(windows, "two_class_block",
                               two_class_block_reference), \
                mock.patch.object(windows, "_nested_runs_ok",
                                  nested_runs_ok_reference):
            want = outcome(insert_blocks, w, ks, EPS)
        if got[0] == "returned":
            got = got[0], [str(p) for p in got[1].positions]
        if want[0] == "returned":
            want = want[0], [str(p) for p in want[1].positions]
        assert got == want


def chain_classes_reference(w: OrbitWindow, k: QuadReal) -> ChainClasses:
    """Maximal runs of points joined by gaps of at most k.  Every gap is
    compared with k on lattice coordinates over one common denominator."""
    if k.sign() <= 0:
        raise ValueError("threshold must be positive")
    pos = w.positions
    _, d, [(xs, ys), ((kx,), (ky,))] = lattice(pos, [k])
    # gap i, from point i to point i + 1, above k starts a class at i + 1
    above = map(sign_of,
                map(sub, map(sub, islice(xs, 1, None), xs), repeat(kx)),
                map(sub, map(sub, islice(ys, 1, None), ys), repeat(ky)),
                repeat(d))
    starts = [0, *compress(count(1), map(gt, above, repeat(0))), len(pos)]
    return ChainClasses(k, tuple(tuple(range(a, b))
                                 for a, b in zip(starts, starts[1:])))


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
    """chain_classes on the window's coordinates against the version that
    put every position and k on one lattice."""

    @settings(max_examples=400, deadline=None)
    @given(chain_windows(), st.data())
    def test_random_windows(self, w, data):
        k = data.draw(chain_thresholds(w.d))
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
