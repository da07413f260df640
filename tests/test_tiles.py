"""Tile lengths, tileable enumeration, eps-density and density
witnesses.  ``enumerate_tileable`` is compared with
``oracles.brute_tileable``; ``eps_dense``, ``values_in``, ``dense_in`` and
``check_windows`` with their oracles in ``tests/oracles.py``."""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtile import build_schedule, quadratic, tiles
from flowtile.quadratic import ConfigError, qmax, quad, sqrtD
from flowtile.tiles import (DensityWitness, FreqBand, Params, TileVector,
                            alpha_frequency, balanced_word, default_params,
                            density_witness, enumerate_tileable, eps_dense,
                            frequency_stability_ratio)
from oracles import (brute_tileable, brute_values_in, check_windows_reference,
                     dense_in_reference, eps_dense_reference)

P = default_params()


# D in {2, 3}, rational and irrational alpha, common denominators above 1
# and negative sqrt coefficients
PARAM_SETS = [
    P,
    Params(quad(0, F(1, 2)), quad(1, 1), F(1, 3)),
    Params(quad(1, 0, 3), quad(0, 1, 3), F(2, 5)),
    Params(quad(-1, 1, 3), quad(3, 0, 3), F(1, 2)),
    Params(quad(F(1, 3)), quad(0, F(1, 2)), F(1, 3)),
    Params(quad(2, -1), quad(1), F(2, 5)),
]


class TestParams:
    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_value_matches_field_arithmetic(self, params):
        for p in range(0, 40, 3):
            for q in range(0, 40, 5):
                assert params.value(p, q) == params.alpha * p + params.beta * q

    def test_rational_dependence_rejected(self):
        with pytest.raises(ValueError):
            Params(quad(1), quad(2), F(1, 2))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Params(sqrtD(), quad(1), F(1, 2))

    def test_rho_interior(self):
        with pytest.raises(ValueError):
            Params(quad(1), sqrtD(), F(1))


class TestFrequency:
    def test_basic(self):
        assert alpha_frequency(TileVector(2, 3)) == F(2, 5)

    def test_boundary(self):
        assert alpha_frequency(TileVector(0, 7)) == 0

    def test_symmetric(self):
        assert alpha_frequency(TileVector(4, 4)) == F(1, 2)

    def test_zero_vector_undefined(self):
        with pytest.raises(ValueError):
            alpha_frequency(TileVector(0, 0))


class TestEnumerate:
    def test_zero_to_three(self):
        got = enumerate_tileable(P, quad(0), quad(3))
        assert got == brute_tileable(quad(0), quad(3))
        assert set(got) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                            (3, 0)}

    def test_degenerate_interval(self):
        assert enumerate_tileable(P, quad(1), quad(1)) == [TileVector(1, 0)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 14))
    def test_matches_brute_force(self, lo8, width8):
        lo = quad(F(lo8, 8))
        hi = lo + F(width8, 2)
        assert enumerate_tileable(P, lo, hi) == brute_tileable(lo, hi)

    @pytest.mark.parametrize("params", PARAM_SETS)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(-80, 400), st.integers(-4, 4),
           st.sampled_from([1, 3, 7]), st.integers(-24, 120),
           st.integers(-4, 4), st.sampled_from([0, 32]))
    def test_matches_brute_force_across_params(self, params, lo8, lo_s,
                                               lo_den, width8, width_s, bits):
        # hi below lo, lo below 0, and rational or irrational ends
        d = params.d
        lo = quad(F(lo8, 8), F(lo_s, lo_den), d)
        hi = lo + quad(F(width8, 8), F(width_s, 4), d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            got = enumerate_tileable(params, lo, hi)
        assert got == brute_tileable(lo, hi, params)
        assert all(type(v) is TileVector for v in got)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PARAM_SETS), st.integers(-40, 400),
           st.integers(-4, 4), st.integers(0, 120),
           st.sampled_from([0, 5, 32]))
    # alpha = sqrt(3) - 1 screens to (-1 << 0) + 1*isqrt(3) = 0 at k = 0:
    # each row's keys stand still as p grows
    @example(PARAM_SETS[3], 0, 0, 80, 0)
    def test_row_keys_screen_their_coordinates(self, params, lo8, lo_s,
                                               width8, bits):
        d = params.d
        lo = quad(F(lo8, 8), F(lo_s, 4), d)
        hi = lo + F(width8, 8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            ps, qs, xs, ys, keys, order = tiles._tileable_rows(params, lo, hi)
        r = quadratic.screen_root(d, bits)
        assert (xs, ys) == params.coords(list(zip(ps, qs)))
        assert keys == [(x << bits) + y * r for x, y in zip(xs, ys)]
        assert order == quadratic.lattice_order(xs, ys, d)

    def test_values_pairwise_distinct(self):
        vecs = enumerate_tileable(P, quad(0), quad(40))
        vals = {v.value(P) for v in vecs}
        assert len(vals) == len(vecs)


# convergents b/a of sqrt(2) and sqrt(3): |a*sqrt(d) - b| < 1/(2a)
HAIRS = {2: [(12, 17), (99, 140), (408, 577), (2378, 3363)],
         3: [(15, 26), (56, 97), (153, 265), (780, 1351)]}


# alpha = 1 or a fraction, beta = alpha*sqrt(d): the vector (-b, a) of a
# convergent pair (a, b) has the value alpha*(a*sqrt(d) - b), a hair
HAIR_PARAMS = [P, Params(quad(F(1, 2)), quad(0, F(1, 2)), F(1, 3)),
               Params(quad(1, 0, 3), quad(0, 1, 3), F(2, 5)),
               Params(quad(F(1, 3), 0, 3), quad(0, F(1, 3), 3), F(1, 2))]
# counts that no chain of twelve hair steps takes below zero
CHAIN_START = 12 * max(b for pairs in HAIRS.values() for _, b in pairs)
EPS_STEPS = [TileVector(1, 0), TileVector(0, 1), TileVector(1, 1),
             TileVector(3, 2)]


@st.composite
def density_cases(draw):
    """(params, members, lo, hi, eps) for eps_dense, in one of two shapes,
    then with duplicates and shuffled or in order.  D is 2 or 3, and the
    parameter sets include alphas with denominators 2 and 3.

    A grid is every tileable near [lo, hi], members outside it included,
    less a few runs, with eps drawn rational or irrational, equal to the
    gap between two members, or that gap plus or minus 1/10**6.  A chain
    starts at lo and steps by 0 or an eps vector, each plus or minus a
    hair vector (or not): its gaps are 0, eps or a hair off them, some of
    them backwards, which is where the integer keys cannot decide.
    """
    if draw(st.booleans()):
        params = draw(st.sampled_from(PARAM_SETS))
        d = params.d
        lo = quad(F(draw(st.integers(-8, 120)), 8),
                  F(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 3, 7]))), d)
        hi = lo + F(draw(st.integers(0, 40)), 8)
        vecs = enumerate_tileable(params, lo - F(draw(st.integers(0, 8)), 4),
                                  hi + F(draw(st.integers(0, 8)), 4))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(vecs)))
            del vecs[i:i + draw(st.integers(1, 8))]
        kind = draw(st.sampled_from(["free", "tie", "off"]))
        if kind == "free" or len(vecs) < 2:
            # a negative sqrt part makes the key of eps exceed eps
            eps = abs(quad(F(draw(st.integers(0, 24)), 8),
                           F(draw(st.integers(-3, 3)), 4), d)) or quad(1, 0, d)
        else:
            t = draw(st.integers(0, len(vecs) - 2))
            eps = vecs[t + 1].value(params) - vecs[t].value(params)
            if kind == "off" and eps > F(1, 10**6):
                eps = eps + F(draw(st.sampled_from([-1, 1])), 10**6)
    else:
        params = draw(st.sampled_from(HAIR_PARAMS))
        a, b = draw(st.sampled_from(HAIRS[params.d]))
        step = draw(st.sampled_from(EPS_STEPS))
        eps = step.value(params)
        moves = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(-1, 1)),
                              min_size=2, max_size=12))
        x = TileVector(CHAIN_START + draw(st.integers(0, 9)),
                       CHAIN_START + draw(st.integers(0, 9)))
        lo = x.value(params)
        vecs = []
        for j, h in moves:
            x = TileVector(x.p + j * step.p - h * b, x.q + j * step.q + h * a)
            vecs.append(x)
        hi = qmax(lo, vecs.pop().value(params))
    vecs += draw(st.lists(st.sampled_from(vecs), max_size=4)) if vecs else []
    if draw(st.booleans()):
        vecs = draw(st.permutations(vecs))
    else:
        vecs.sort(key=lambda v: v.value(params))
    return params, vecs, lo, hi, eps


# alpha = 1/10: the vector (n, 0) has the value n/10
TENTH = Params(quad(F(1, 10)), sqrtD(), F(1, 2))


def tenths(*ns):
    return [TileVector(n, 0) for n in ns]


def values(params, vecs):
    return [v.value(params) for v in vecs]


class TestEpsDense:
    def test_dense_example(self):
        assert eps_dense(TENTH, tenths(0, 4, 8), quad(0), quad(1),
                         quad(F(1, 2))).ok

    def test_failure_with_witness(self):
        vecs = tenths(0, 4, 8)
        rep = eps_dense(TENTH, vecs, quad(0), quad(1), quad(F(3, 10)))
        assert not rep.ok
        # the witness is a genuinely uncovered admissible point
        x = rep.witness
        half = quad(F(3, 20))
        assert quad(0) <= x - half and x + half <= quad(1)
        assert all(not abs(p - x) < half for p in values(TENTH, vecs))

    def test_empty_interval_trivially_dense(self):
        assert eps_dense(P, [], quad(0), quad(0), quad(F(1, 9))).ok

    def test_gap_at_exactly_eps_fails(self):
        rep = eps_dense(P, [TileVector(0, 0), TileVector(1, 0)], quad(0),
                        quad(1), quad(1))
        assert not rep.ok

    def test_points_on_the_ends_are_inside(self):
        # the failing gap is the one next to the end point, not the edge
        rep = eps_dense(P, [TileVector(2, 0), TileVector(0, 0)], quad(0),
                        quad(3), quad(1))
        assert rep == (False, quad(1))
        rep = eps_dense(TENTH, tenths(30, 10, 5, 0), quad(0), quad(3), quad(1))
        assert rep == (False, quad(2))

    @pytest.mark.parametrize("bits", [0, 32])
    def test_eps_above_its_key(self, bits):
        # 2 - sqrt(2) < 3/5, but with no key bits the key of eps is 1: the
        # screen must leave the gap 3/5 to the exact test
        eps = quad(2, -1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            rep = eps_dense(TENTH, tenths(0, 6), quad(0), quad(F(3, 5)), eps)
        assert rep == (False, quad(F(3, 10)))

    def test_unsorted_duplicated_input_outside_points(self):
        rng = random.Random(11)
        lo, hi = quad(2), quad(9)
        for _ in range(40):
            inside = tenths(*sorted({20, 90} | {
                rng.randint(20, 90) for _ in range(rng.randint(0, 12))}))
            # 7*sqrt(2) is above 9
            outside = tenths(20 - rng.randint(1, 20), 90 + rng.randint(1, 20))
            outside.append(TileVector(rng.randint(0, 5), 7))
            messy = inside + inside[::3] + outside
            rng.shuffle(messy)
            for eps in (quad(F(1, 2)), quad(1), sqrtD()):
                assert eps_dense(TENTH, messy, lo, hi, eps) == \
                    eps_dense(TENTH, inside, lo, hi, eps)

    @settings(max_examples=300, deadline=None)
    @given(density_cases(), st.sampled_from([0, 32]))
    def test_eps_dense_matches_reference(self, case, bits):
        params, vecs, lo, hi, eps = case
        want = eps_dense_reference(values(params, vecs), lo, hi, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            got = eps_dense(params, vecs, lo, hi, eps)
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("bits", [0, 32])
    @pytest.mark.parametrize("d", [2, 3])
    def test_eps_dense_near_ties_match_reference(self, d, bits):
        # every chain of three steps of 0 or an eps vector, each plus or
        # minus a hair vector or not, in chain order (so backward steps
        # come unsorted)
        moves = [(j, h) for j in (0, 1) for h in (-1, 0, 1)]
        start = TileVector(CHAIN_START, CHAIN_START)
        cases = itertools.product(
            [p for p in HAIR_PARAMS if p.d == d], HAIRS[d][1:],
            [TileVector(1, 0), TileVector(1, 1)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            for params, (a, b), step in cases:
                lo, eps = start.value(params), step.value(params)
                for chain in itertools.product(moves, repeat=3):
                    vecs = list(itertools.accumulate(
                        (TileVector(j * step.p - h * b, j * step.q + h * a)
                         for j, h in chain), initial=start))[1:]
                    hi = qmax(lo, vecs.pop().value(params))
                    want = eps_dense_reference(values(params, vecs), lo, hi,
                                               eps)
                    assert eps_dense(params, vecs, lo, hi, eps) == want, chain

    def test_rationals_of_any_radicand_mix(self):
        # a rational value carries a radicand but no sqrt term
        vecs = tenths(*range(0, 55, 5))
        lo, hi = quad(0, 0, 3), quad(5, 0, 3)
        for eps in (quad(F(1, 2)), quad(F(2, 3)), sqrtD() / 2):
            assert eps_dense(TENTH, vecs, lo, hi, eps) == \
                eps_dense_reference(values(TENTH, vecs), lo, hi, eps)
        root3 = Params(quad(F(1, 10), 0, 3), quad(0, 1, 3), F(1, 2))
        for eps in (quad(F(1, 2)), quad(0, F(1, 3), 3)):
            assert eps_dense(root3, vecs, quad(0), quad(5), eps) == \
                eps_dense_reference(values(root3, vecs), quad(0), quad(5), eps)


class TestStabilityRatio:
    def test_formula(self):
        # alpha*eps/(2*beta) = (1/10) / (2*sqrt2) = sqrt2/40
        assert frequency_stability_ratio(P, F(1, 10)) == quad(0, F(1, 40))

    def test_monotone(self):
        assert frequency_stability_ratio(P, F(1, 10)) < \
            frequency_stability_ratio(P, F(1, 5))

    def test_property_against_frequency_drift(self):
        rng = random.Random(5)
        eps = F(1, 7)
        bound = frequency_stability_ratio(P, eps)
        checked = 0
        while checked < 100:
            y = TileVector(rng.randint(50, 400), rng.randint(50, 400))
            x = TileVector(rng.randint(0, 3), rng.randint(0, 3))
            if x.is_zero():
                continue
            if not (x.value(P) / y.value(P)) < bound:
                continue
            drift = abs(alpha_frequency(x + y) - alpha_frequency(y))
            assert drift < eps
            checked += 1


class TestBalancedWord:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40))
    def test_counts_and_balance(self, p, q):
        if p + q == 0:
            return
        w = balanced_word(TileVector(p, q))
        assert (w.count("a"), w.count("b")) == (p, q)
        # every prefix holds within one letter of its proportional share
        acc = 0
        for i, ch in enumerate(w, start=1):
            acc += ch == "a"
            assert abs(acc - F(i * p, p + q)) <= 1


class TestDensityWitness:
    def test_upper_band_window(self):
        wit = density_witness(P, quad(1), FreqBand(F(1, 2), F(1)))
        lo = wit.threshold
        hi = lo + 50
        members = wit.values_in(lo, hi)
        assert eps_dense(P, members, lo, hi, quad(1)).ok
        for m in members:
            assert F(1, 2) < alpha_frequency(m) < 1

    def test_full_band_and_beta_scale(self):
        beta = P.beta
        # independent fact first: plain tileables are beta-dense above beta^2
        vecs = enumerate_tileable(P, beta * beta, beta * beta + beta * 20)
        assert eps_dense(P, vecs, beta * beta, beta * beta + beta * 20, beta).ok
        wit = density_witness(P, beta, FreqBand(F(0), F(1)))
        lo = wit.threshold
        hi = lo + beta * 20
        assert eps_dense(P, wit.values_in(lo, hi), lo, hi, beta).ok

    @pytest.mark.parametrize("params", [P, Params(quad(-1, 1, 3),
                                                  quad(3, 0, 3), F(2, 5))])
    def test_keeps_the_coordinates_of_its_offsets_and_base(self, params):
        wit = density_witness(params, quad(F(1, 2)), FreqBand(F(1, 3), F(1, 2)))
        assert (wit.xs, wit.ys) == params.coords(wit.offsets)
        assert ([wit.ux], [wit.uy]) == params.coords([wit.base])
        k, r = wit.bits, quadratic.screen_root(params.d, wit.bits)
        assert wit.keys == sorted((x << k) + y * r
                                  for x, y in zip(wit.xs, wit.ys))

    def test_offsets_are_a_fresh_list_on_each_read(self):
        wit = density_witness(P, quad(1), FreqBand(F(1, 4), F(3, 4)))
        lo, hi = wit.threshold, wit.threshold + 30
        want = wit.values_in(lo, hi)
        first = wit.offsets
        assert first == wit.offsets and first is not wit.offsets
        first.reverse()
        first[0] = TileVector(0, 0)
        assert wit.values_in(lo, hi) == want == brute_values_in(wit, lo, hi)

    def test_zero_width_band_rejected(self):
        with pytest.raises(ValueError):
            density_witness(P, quad(1), FreqBand(F(1, 2), F(1, 2)))

    def test_ten_disjoint_windows(self):
        wit = density_witness(P, quad(F(1, 3)), FreqBand(F(3, 8), F(1, 2)))
        for k, (_, _, rep) in enumerate(wit.check_windows(10)):
            assert rep.ok, (k, rep.witness)

    @pytest.mark.parametrize("eps", [F(1), F(1, 100)])
    def test_upper_band_dense_on_three_windows(self, eps):
        wit = density_witness(P, quad(eps), FreqBand(F(1, 2), F(3, 4)))
        for k, (_, _, rep) in enumerate(wit.check_windows(3)):
            assert rep.ok, (k, rep.witness)

    def test_offsets_must_be_sorted_and_within_base(self):
        band = FreqBand(F(0), F(1))
        base = TileVector(1, 1)
        offsets = enumerate_tileable(P, quad(0), base.value(P))
        DensityWitness(P, band, quad(1), base, offsets, 1)
        with pytest.raises(ValueError):
            DensityWitness(P, band, quad(1), base, offsets[::-1], 1)
        with pytest.raises(ValueError):
            DensityWitness(P, band, quad(1), base, offsets + [TileVector(2, 1)], 1)
        with pytest.raises(ValueError):
            DensityWitness(P, band, quad(1), base, [], 1)
        # 12*sqrt(2) lies a hair below 17 and above 16
        base, v0, v16, v17 = (TileVector(0, 12), TileVector(0, 0),
                              TileVector(16, 0), TileVector(17, 0))
        DensityWitness(P, band, quad(1), base, [v0, v16], 1)
        DensityWitness(P, band, quad(1), base, [base, v17], 1)
        with pytest.raises(ValueError, match="span more"):
            DensityWitness(P, band, quad(1), base, [v0, v17], 1)
        with pytest.raises(ValueError, match="sorted"):
            DensityWitness(P, band, quad(1), base, [v17, base], 1)

    # sha256 of (band, describe(), offsets, k_min, threshold) for each
    # family of the stock depth-4 schedule, in schedule order
    STOCK_FAMILIES = [
        "937bd968df8f2cb99c272b8a1a3c3f466737964de9992116025398700b03b2cc",
        "8d9a1e50665c40e9e3abaf9bc7512bdcec30a85cdd6cce31f7e4a480a78420d8",
        "e8b66052aa29d8c60ab7598b8269cf4bd1dfaebd56a8f54526b07be4ac0d4d7d",
        "ddbae9e6663783739c0af8ab14a05b4bb6b5b5cc356acd2b486955429248257c",
        "7150e226dfe1e341a55b8d450808e73f8c7d58ea92d5a84399c2213b6f296eb4",
        "73b1b72b3a2015ff6e2992d9f17e6fc0dd67ddc35c8d09bee9248ee2d6b93e69",
        "afbe84c5c032248c3e089186e8ce37d374a713c4f9309fe7f693e7adde6c4232",
        "dd12873601a2cadeceeeb62073670c3c99346b92c30db9bbc0905d1eaf1940ec",
    ]

    @pytest.mark.parametrize("index", range(8))
    def test_stock_family_unchanged(self, index, schedule4):
        _, band, wit = schedule4.witnesses[index]
        text = repr((str(band.lo), str(band.hi), wit.describe(),
                     [tuple(o) for o in wit.offsets], wit.k_min,
                     str(wit.threshold)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.STOCK_FAMILIES[index]

    def test_stock_anchor_search_enumerates_13_times(self, monkeypatch,
                                                      schedule4):
        # the anchors a tile count proves too sparse are skipped: without
        # the skip rule the same searches enumerate 56 anchor intervals.
        # The search enumerates through the engine behind
        # enumerate_tileable, which the K search calls as well, so the
        # families' searches are run on their own
        calls = []
        rows = tiles._tileable_rows

        def counting(*args):
            calls.append(args)
            return rows(*args)
        monkeypatch.setattr(tiles, "_tileable_rows", counting)
        for _, band, wit in schedule4.witnesses:
            density_witness(P, wit.eps, band)
        assert len(calls) == 13

    def test_give_up_without_enumerating(self, monkeypatch):
        # all 64 anchors hold too few tileables for eps/2 = 2**-101; the
        # last of them holds about 4*10**19
        def refuse(*args):
            raise AssertionError("enumerated an anchor interval")
        monkeypatch.setattr(tiles, "_tileable_rows", refuse)
        with pytest.raises(ValueError,
                           match="no eps/2-dense anchor interval found"):
            density_witness(P, quad(F(1, 2**100)), FreqBand(F(1, 4), F(3, 4)))

    # depth-3 schedules off the stock parameters: D = 3, an irrational
    # alpha, and two skewed rho
    SCHEDULE_PARAMS = [Params(quad(1), quad(0, 1, 3), F(1, 2)),
                       Params(quad(-1, 1), quad(1), F(1, 2)),
                       default_params(F(2, 5)), default_params(F(1, 7))]

    @pytest.mark.parametrize("index", range(len(SCHEDULE_PARAMS) + 1))
    def test_families_equal_the_public_constructor(self, index, schedule4):
        # density_witness builds its family without the constructor's gap
        # pass: the constructor on the same offsets gives the same family
        sched = (schedule4 if index == len(self.SCHEDULE_PARAMS) else
                 build_schedule(self.SCHEDULE_PARAMS[index], depth=3))
        for _, band, wit in sched.witnesses:
            pub = DensityWitness(wit.params, band, wit.eps, wit.base,
                                 wit.offsets, wit.k_min)
            assert ((wit.offsets, wit.xs, wit.ys, wit.keys, wit._wide,
                     wit.k_min, wit.threshold) ==
                    (pub.offsets, pub.xs, pub.ys, pub.keys, pub._wide,
                     pub.k_min, pub.threshold))
            assert checks(wit.check_windows(10)) == \
                checks(pub.check_windows(10))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PARAM_SETS),
           st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
           st.one_of(st.integers(1, 8),
                     st.tuples(st.integers(0, 400), st.integers(0, 3))),
           st.integers(1, 8))
    def test_skip_rule_is_sound(self, params, base, anchor, eighths):
        # density_witness skips [A, A + x] when half*(rows*per_row + 1) <= x:
        # the interval holds at most rows*per_row tileables, too few to be
        # half-dense there
        x = params.value(*base)
        anchor = (params.beta * 2 ** anchor if isinstance(anchor, int)
                  else quad(F(anchor[0], 8), F(anchor[1], 5), params.d))
        rows = ((anchor + x) / params.beta).floor() + 1
        per_row = (x / params.alpha).floor() + 1
        members = enumerate_tileable(params, anchor, anchor + x)
        assert len(members) <= rows * per_row
        # from an eighth of the largest half the rule skips up to it
        half = x / (rows * per_row + 1) * F(eighths, 8)
        assert not eps_dense(params, members, anchor, anchor + x, half).ok


def witness_windows(wit):
    params = wit.params
    n = len(wit.offsets)
    ends = (wit.member(wit.k_min + 2, n // 2).value(params),
            wit.member(wit.k_min + 5, n - 1).value(params))
    return [
        ends,                                          # ends on members
        (wit.threshold - 10, wit.threshold + 5),       # starts below N
        (wit.threshold + params.beta * 7, wit.threshold + params.beta * 27),
    ]


class TestValuesIn:
    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_matches_brute_force(self, params):
        wit = density_witness(params, quad(1, 0, params.d),
                              FreqBand(F(1, 4), F(3, 4)))
        for lo, hi in witness_windows(wit):
            got = wit.values_in(lo, hi)
            assert got and got == brute_values_in(wit, lo, hi)

    def test_ends_on_members_without_a_sqrt_part(self):
        # every offset and the base have y = 0, so each key is exact, and
        # both ends of [1, 2] are members
        wit = DensityWitness(TENTH, FreqBand(F(0), F(1)), quad(F(7, 20)),
                             TileVector(10, 0), tenths(0, 1, 5, 6), 1)
        got = wit.values_in(quad(1), quad(2))
        assert values(TENTH, got) == [quad(F(n, 10))
                                      for n in (10, 11, 15, 16, 20)]

    def test_offsets_spanning_exactly_value_x(self):
        # the last offset of run k and the first of run k + 1 coincide
        base = TileVector(1, 1)
        offsets = enumerate_tileable(P, quad(0), base.value(P))
        wit = DensityWitness(P, FreqBand(F(0), F(1)), quad(1), base, offsets, 3)
        for lo, hi in witness_windows(wit):
            got = wit.values_in(lo, hi)
            assert got == brute_values_in(wit, lo, hi)
            vals = values(P, got)
            assert len(set(vals)) < len(vals)

    @pytest.mark.parametrize("params", PARAM_SETS)
    @settings(max_examples=10, deadline=None)
    @given(st.integers(-40, 200), st.integers(0, 200))
    def test_random_windows_match_brute_force(self, params, start4, width4):
        # windows narrower than value(x) hold partial runs only
        wit = density_witness(params, quad(1, 0, params.d),
                              FreqBand(F(1, 4), F(3, 4)))
        lo = wit.threshold + F(start4, 4)
        hi = lo + F(width4, 4) * params.beta
        assert wit.values_in(lo, hi) == brute_values_in(wit, lo, hi)

    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("eps", [F(1), F(1, 3)])
    def test_rational_windows_where_key_order_differs(self, params, eps):
        # at k = 0 the keys err by up to max |y| units: the offsets' key
        # order differs from their value order, and rational window ends
        # carry no error of their own, so the bracket's bounds are tight
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", 0)
            wit = density_witness(params, quad(eps, 0, params.d),
                                  FreqBand(F(1, 4), F(3, 4)))
            r = quadratic.screen_root(params.d, 0)
            assert [x + y * r for x, y in zip(wit.xs, wit.ys)] != wit.keys
            for a in range(0, 200, 6):
                lo = wit.threshold + F(a, 8)
                hi = lo + F(13, 8)
                assert wit.values_in(lo, hi) == brute_values_in(wit, lo, hi)

    def test_check_windows_matches_reference(self):
        wit = density_witness(P, quad(F(1, 3)), FreqBand(F(3, 8), F(1, 2)))
        width = P.beta * 20
        for i, (lo, hi, rep) in enumerate(wit.check_windows(3)):
            assert (lo, hi) == (wit.threshold + width * (2 * i),
                                wit.threshold + width * (2 * i + 1))
            vals = values(P, brute_values_in(wit, lo, hi))
            assert rep == eps_dense_reference(vals, lo, hi, quad(F(1, 3)))

    def test_mixed_radicands_raise(self):
        r3 = quad(0, 1, 3)
        with pytest.raises(ConfigError):
            eps_dense(P, [TileVector(1, 1)], r3, r3 + 5, quad(1))
        with pytest.raises(ConfigError):
            eps_dense(P, [TileVector(1, 1)], quad(0), quad(5), r3)
        with pytest.raises(ConfigError):
            enumerate_tileable(P, r3, r3 + 4)
        wit = density_witness(P, quad(1), FreqBand(F(1, 4), F(3, 4)))
        with pytest.raises(ConfigError):
            wit.values_in(wit.threshold + r3, wit.threshold + r3 + 5)


def checks(triples):
    """Window checks with the text of each miss point."""
    return [(lo, hi, rep, str(rep.witness)) for lo, hi, rep in triples]


# bases x with alpha frequencies from 0 to 1
BASES = [TileVector(1, 1), TileVector(2, 1), TileVector(1, 2),
         TileVector(3, 0), TileVector(0, 2)]


@st.composite
def family_cases(draw):
    """(params, base, offsets, eps, k_min) for DensityWitness.

    The offsets are the tileables of [A, A + value(x)], less a few runs
    (the first offset stays), so they are sorted and span at most
    value(x).  eps is a fraction of value(x) down to 1/16 of it, or one of
    the family's gaps (an offset gap or the junction between runs),
    exactly or a hair off, so many windows miss.
    """
    params = draw(st.sampled_from(PARAM_SETS))
    base = draw(st.sampled_from(BASES))
    x = base.value(params)
    anchor = quad(F(draw(st.integers(0, 24)), 4), 0, params.d)
    offsets = enumerate_tileable(params, anchor, anchor + x)
    for _ in range(draw(st.integers(0, 3))):
        if len(offsets) > 1:
            i = draw(st.integers(1, len(offsets) - 1))
            del offsets[i:i + draw(st.integers(1, 4))]
    vals = values(params, offsets) + [offsets[0].value(params) + x]
    if draw(st.booleans()):
        eps = x * F(draw(st.integers(1, 16)), 16)
    else:
        t = draw(st.integers(0, len(vals) - 2))
        eps = vals[t + 1] - vals[t]
        if eps.is_zero() or draw(st.booleans()):
            eps = eps + F(draw(st.sampled_from([-1, 1])), 10**6)
        eps = abs(eps)
    return params, base, offsets, eps, draw(st.integers(1, 4))


class TestDenseIn:
    """DensityWitness.dense_in and check_windows against eps_dense over
    every member."""

    @settings(max_examples=120, deadline=None)
    @given(family_cases(), st.booleans(), st.sampled_from([F(1), F(1, 3)]),
           st.integers(-40, 160), st.integers(0, 100), st.integers(-2, 2),
           st.sampled_from([0, 5, 32]))
    def test_matches_reference(self, case, anchored, anchor_eps, start8,
                               width8, root5, bits):
        # windows narrower than eps, starting below the threshold, with a
        # sqrt part or without, on families from the public constructor
        # or from density_witness; at k = 0 close keys reorder the
        # offsets, so the key list and the value order differ where
        # values_in brackets its bisections
        params, base, offsets, eps, k_min = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            wit = (density_witness(params, quad(anchor_eps, 0, params.d),
                                   FreqBand(F(1, 4), F(3, 4))) if anchored
                   else DensityWitness(params, FreqBand(F(0), F(1)), eps,
                                       base, offsets, k_min))
            lo = wit.threshold + quad(F(start8, 8), F(root5, 5), params.d)
            hi = lo + F(width8, 8)
            got = wit.values_in(lo, hi), wit.dense_in(lo, hi)
        want = dense_in_reference(wit, lo, hi)
        assert got[0] == brute_values_in(wit, lo, hi)
        assert (got[1], str(got[1].witness)) == (want, str(want.witness))

    @settings(max_examples=60, deadline=None)
    @given(family_cases(), st.integers(0, 30), st.integers(0, 30),
           st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
           st.sampled_from([0, 5, 32]))
    def test_windows_ending_near_members(self, case, g, w, dlo, dhi, bits):
        # lo and hi on a member, or eps away from one, where the bracket
        # of each bisection is closest to its target
        params, base, offsets, eps, k_min = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            wit = DensityWitness(params, FreqBand(F(0), F(1)), eps, base,
                                 offsets, k_min)
            n = len(offsets)
            lo = wit.member(k_min + g // n, g % n).value(params) + eps * dlo
            hi = qmax(lo, wit.member(k_min + (g + w) // n, (g + w) % n)
                      .value(params) + eps * dhi)
            got = wit.values_in(lo, hi), wit.dense_in(lo, hi)
        want = dense_in_reference(wit, lo, hi)
        assert got[0] == brute_values_in(wit, lo, hi)
        assert (got[1], str(got[1].witness)) == (want, str(want.witness))

    @settings(max_examples=30, deadline=None)
    @given(family_cases())
    def test_check_windows_matches_reference(self, case):
        params, base, offsets, eps, k_min = case
        wit = DensityWitness(params, FreqBand(F(0), F(1)), eps, base,
                             offsets, k_min)
        assert checks(wit.check_windows(3)) == \
            checks(check_windows_reference(wit, 3))

    # alpha = 1/10 and x = 1: members k + 0, 0.1, 0.5 and 0.6 from k = 1 on;
    # gaps 0.1, 0.4, 0.1 and the junction 0.4
    @pytest.mark.parametrize("lo, hi, eps, want", [
        # head: 1.5 is the first member of [1.15, 2.15]
        ("23/20", "43/20", "7/20", "53/40"),
        # an offset gap, from 1.1 to 1.5
        ("1", "2", "7/20", "13/10"),
        # the junction, from 1.6 to 2
        ("3/2", "5/2", "7/20", "9/5"),
        # tail: 1.6 is the last member of [1.45, 1.95]
        ("29/20", "39/20", "7/20", "71/40"),
        # narrower than eps: dense, although no member is inside
        ("23/20", "29/20", "7/20", None),
        # from below the threshold 1, no gap reaches eps 0.45
        ("7/10", "11/5", "9/20", None),
        # from below the threshold, to the gap from 1.1 to 1.5
        ("4/5", "19/10", "7/20", "13/10"),
    ])
    def test_each_kind_of_miss(self, lo, hi, eps, want):
        wit = DensityWitness(TENTH, FreqBand(F(0), F(1)), quad(F(eps)),
                             TileVector(10, 0), tenths(0, 1, 5, 6), 1)
        lo, hi = quad(F(lo)), quad(F(hi))
        got = wit.dense_in(lo, hi)
        assert got == (want is None, want and quad(F(want)))
        assert got == dense_in_reference(wit, lo, hi)

    @pytest.mark.parametrize("eps, want", [("7/20", "6/5"), ("9/20", None)])
    def test_offsets_spanning_exactly_value_x(self, eps, want):
        # members k + 0, 0.4, 0.7 and 1: the junction gap is 0, and each
        # run's last member is the next run's first
        wit = DensityWitness(TENTH, FreqBand(F(0), F(1)), quad(F(eps)),
                             TileVector(10, 0), tenths(0, 4, 7, 10), 1)
        for lo, hi in [(quad(1), quad(3)), (quad(F(3, 2)), quad(F(21, 10)))]:
            assert wit.dense_in(lo, hi) == dense_in_reference(wit, lo, hi)
        assert wit.dense_in(quad(1), quad(3)) == \
            (want is None, want and quad(F(want)))

    def test_window_errors_match_eps_dense(self):
        wit = DensityWitness(TENTH, FreqBand(F(0), F(1)), quad(0),
                             TileVector(10, 0), tenths(0, 5), 1)
        with pytest.raises(ValueError, match="eps must be positive"):
            next(wit.check_windows(1))
        wit = DensityWitness(TENTH, FreqBand(F(0), F(1)), quad(1),
                             TileVector(10, 0), tenths(0, 5), 1)
        with pytest.raises(ValueError, match="empty interval"):
            wit.dense_in(quad(2), quad(1))

    @pytest.mark.parametrize("depth", [2, 4])
    def test_stock_schedules_unchanged(self, depth, schedule2, schedule4):
        # the full schedule JSON is pinned in test_pipeline's golden test
        sched = schedule2 if depth == 2 else schedule4
        assert sched.to_json()["K"] == ["7", "11", "25", "29", "55"][:depth + 1]
        assert len(sched.witnesses) == 2 * depth
        for _, _, wit in sched.witnesses:
            got = checks(wit.check_windows(10))
            assert got == checks(check_windows_reference(wit, 10))
            assert all(rep.ok for _, _, rep, _ in got)
