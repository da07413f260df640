import dataclasses
import functools
import json
import random
from fractions import Fraction as F
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtile import pipeline, quadratic
from flowtile.generators import GeneratorSpec, generate
from flowtile.pipeline import (BAND_MISSED, FINITE_CLASSES, FULLY_REGULAR,
                               HALF_TILED, PartitionWitness, RunScan,
                               Schedule, TiledSection, TilingError,
                               WitnessError, attach_witnesses,
                               build_rank_blocks, build_schedule,
                               check_section, classify_section,
                               full_pipeline, sparse_tile,
                               verify_uniform_frequency)
from flowtile.quadratic import (QuadReal, lattice, on_lattice,
                                parse_quadreal, qmin, quad, sqrtD)
from flowtile.tiles import (Params, TileVector, alpha_frequency,
                            default_params, enumerate_tileable)
from flowtile.windows import OrbitWindow, chain_classes, insert_blocks
from oracles import (brute_uniform_frequency, promote_runs_reference,
                     replay_reference)

P = default_params()
# D in {2, 3}, irrational alpha, skewed rho
SCHEDULE_PARAMS = [
    P,
    Params(sqrtD(3) - 1, quad(3, 0, 3), F(2, 5)),
    Params(quad(1), sqrtD(), F(1, 7)),
    Params(quad(1), sqrtD(), F(6, 7)),
    Params(quad(1, 0, 3), sqrtD(3), F(1, 2)),
]


def section_from_letters(letters, params=P, start=quad(0)):
    pos = [start]
    for ch in letters:
        pos.append(pos[-1] + (params.alpha if ch == "a" else params.beta))
    t = TiledSection(params, pos, list(letters), [1] * len(pos),
                     list(range(len(pos))))
    t.origin_pos = {i: p for i, p in enumerate(pos)}
    return t


class TestSchedule:
    def test_k0_floor(self, schedule4):
        assert not schedule4.K[0] < P.beta * 4

    def test_invariants(self, schedule4):
        s = schedule4
        assert s.shift_budget() < quad(1) / 3
        for a, b in zip(s.K, s.K[1:]):
            assert not b < a + 4
        for a, b in zip(s.L, s.L[1:]):
            assert a < b

    @pytest.mark.parametrize("params", SCHEDULE_PARAMS)
    @pytest.mark.parametrize("depth", [1, 2, 4, 9])
    def test_stage_bounds_invariants(self, params, depth):
        # what the stage constants must satisfy, true of the formulas
        eps, eta = pipeline.stage_bounds(params, depth)
        base = qmin(params.alpha, quad(1, 0, params.d)) / 3
        assert len(eps) == len(eta) == depth + 2
        total = quad(0, 0, params.d)
        for e in eps[1:]:
            total = total + e
        assert total == base * (1 - F(1, 2 ** (depth + 1)))
        assert total < base
        assert eta[0] == 1
        assert eta[1] == min(params.rho, 1 - params.rho)
        assert all(b < a for a, b in zip(eta, eta[1:]))
        # the density bands nest strictly between consecutive etas
        for n in range(1, depth + 1):
            nu_p = eta[n + 1] + (eta[n] - eta[n + 1]) / 3
            nu = eta[n + 1] + (eta[n] - eta[n + 1]) * 2 / 3
            assert eta[n + 1] < nu_p < nu < eta[n]
        # eta[j] does not depend on depth
        assert eta == pipeline.stage_bounds(params, depth + 3)[1][:depth + 2]

    def test_shift_budget_must_stay_strictly_below(self, schedule2):
        # eps is derived from params and depth: it cannot be set
        third = quad(1) / 3
        with pytest.raises(ValueError):
            dataclasses.replace(
                schedule2, eps=[quad(0), third / 2, third / 4, third / 4])
        with pytest.raises(TypeError):
            Schedule(P, 2, schedule2.K, [], eps=[quad(0), third / 2,
                                                   third / 4, third / 4])
        assert schedule2.shift_budget() == third * F(7, 8)

    @pytest.mark.parametrize("K, message", [
        (["7", "11"], "a depth-2 schedule needs 3 thresholds, got 2"),
        (["7", "11", "25", "29"], "a depth-2 schedule needs 3 thresholds, "
                                  "got 4"),
        (["7", "10", "25"], "chain thresholds must step by at least 4: "
                            "7 then 10"),
        (["7", "23", "25"], "chain thresholds must step by at least 4: "
                            "23 then 25"),
    ], ids=["short", "long", "step_3", "step_2"])
    def test_thresholds_checked_on_construction(self, K, message):
        K = [parse_quadreal(k) for k in K]
        with pytest.raises(ValueError, match=f"^{message}$"):
            Schedule(P, 2, K, [])
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_schedule(P, depth=2, k_seq=K)

    def test_derived_constants_follow_k(self, schedule2):
        s = Schedule(P, 2, schedule2.K, [])
        assert s.to_json() == schedule2.to_json()
        assert [f.name for f in dataclasses.fields(Schedule) if f.init] == [
            "params", "depth", "K", "witnesses"]
        assert not hasattr(Schedule, "validate")

    def test_eps_formula(self, schedule4):
        # eps_n = 2^-n * min(alpha, 1)/3
        for n in range(1, schedule4.depth + 2):
            assert schedule4.eps[n] == quad(F(1, 3 * 2 ** n))

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match=rf"^depth must be at least 1, "
                                             rf"got {depth}$"):
            build_schedule(P, depth=depth)

    def test_supplied_k_seq_verified(self):
        s = build_schedule(P, depth=1, k_seq=[quad(7), quad(11)])
        assert [str(k) for k in s.K] == ["7", "11"]
        with pytest.raises(ValueError):
            build_schedule(P, depth=1, k_seq=[quad(1), quad(5)])

    def test_supplied_k0_meets_the_search_density(self):
        # the K-search skips K_0 = 6: its stage-1 corridor [4, 14] is not
        # 2*eps_1-dense, and a supplied K_0 passes the same test
        assert build_schedule(P, depth=1).K[0] == quad(7)
        with pytest.raises(ValueError, match="K_0 fails the stage-1"):
            build_schedule(P, depth=1, k_seq=[quad(6), quad(11)])

    def test_witnesses_cover_all_stages(self, schedule4):
        stages = {n for n, _, _ in schedule4.witnesses}
        assert stages == set(range(1, schedule4.depth + 1))


# D in {2, 3}, with alpha = sqrt(3) - 1 irrational and rho = 2/5
TABLE_PARAMS = [
    P,
    Params(quad(1, 0, 3), quad(0, 1, 3), F(2, 5)),
    Params(quad(-1, 1, 3), quad(3, 0, 3), F(2, 5)),
]


class TestTileableTable:
    @pytest.mark.parametrize("params", TABLE_PARAMS)
    def test_lookup_matches_enumeration(self, params):
        sched = build_schedule(params, depth=2)
        top = sched.K[2] + 1
        assert sched.table.top == top
        for bits in (0, 32):
            # the table keeps the KEY_BITS it is built under, whatever
            # KEY_BITS is when it is queried
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quadratic, "KEY_BITS", bits)
                table = pipeline.TileableTable(params, top)
            assert table.bits == bits
            assert table.vectors == sched.table.vectors
            for query_bits in (0, 32):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(quadratic, "KEY_BITS", query_bits)
                    self.check_lookups(params, table)

    @pytest.mark.parametrize("params", TABLE_PARAMS)
    def test_params_and_table_hold_one_lattice(self, params):
        # Params holds alpha and beta as quadratic.lattice puts them, and
        # the table keeps exactly the coordinates of its vectors there
        c, d, [(xs, ys)] = lattice([params.alpha, params.beta])
        assert (params.c, params.d) == (c, d)
        assert (params.ax, params.bx, params.ay, params.by) == (*xs, *ys)
        table = pipeline.TileableTable(params, quad(30, 0, params.d))
        assert len(table.vectors) > 30
        assert (table.xs, table.ys) == params.coords(table.vectors)
        assert [QuadReal._raw(x, y, c, d) for x, y in zip(table.xs, table.ys)] \
            == [v.value(params) for v in table.vectors]

    @staticmethod
    def check_lookups(params, table):
        top = table.top
        vals = [v.value(params) for v in table.vectors]
        rng = random.Random(3)
        for trial in range(300):
            if trial % 3 == 0:
                # both ends exactly on tileable values
                i, j = sorted(rng.sample(range(len(vals)), 2))
                lo, hi = vals[i], vals[j]
            else:
                lo = top * F(rng.randrange(-20, 1000), 1000)
                hi = qmin(lo + F(rng.randrange(0, 3000), 1000), top)
            want = [v for v in enumerate_tileable(params, lo, hi)
                    if not v.is_zero() and lo < v.value(params) < hi]
            assert table.between(lo, hi) == want

    def test_query_above_the_table_raises(self, schedule2):
        top = schedule2.K[2] + 1
        schedule2.table.between(top - 2, top)
        with pytest.raises(TilingError):
            schedule2.table.between(top - 2, top + F(1, 100))

    def test_table_follows_replaced_params(self, schedule2):
        other = TABLE_PARAMS[1]
        moved = dataclasses.replace(schedule2, params=other)
        lo, hi = quad(0), schedule2.K[2]
        assert moved.table.between(lo, hi) == [
            v for v in enumerate_tileable(other, lo, hi) if not v.is_zero()
            and lo < v.value(other) < hi]

    def test_lattice_query_above_the_table_raises(self, schedule2):
        # (K_2 + 1) * 3 / 3 is the top; one third above it is not allowed
        top = schedule2.K[2] + 1
        assert top.is_integer()
        x = top.a * 3
        assert schedule2.table.inside(x - 6, 0, x, 0, 3) == \
            schedule2.table.between(top - 2, top)
        with pytest.raises(TilingError, match=r"^corridor \(.*\) reaches "
                           r"above the tileable table's top "):
            schedule2.table.inside(x - 6, 0, x + 1, 0, 3)

    def test_finishing_names_gap_and_stage_above_the_table(self, schedule2,
                                                           monkeypatch):
        def above(self, lx, ly, hx, hy, c):
            raise TilingError(f"corridor ({lx}, {hx}) reaches above the "
                              f"tileable table's top")
        monkeypatch.setattr(pipeline.TileableTable, "inside", above)
        w = OrbitWindow([quad(0), schedule2.K[1] - F(1, 2)])
        with pytest.raises(TilingError, match=r"stage 1, gap 0: corridor"):
            sparse_tile(w, schedule2)


class TestShiftBound:
    @staticmethod
    def two_points(gap):
        t = TiledSection(P, [quad(0), gap], [None], [0, 0], [0, 1])
        t.origin_pos = {0: quad(0), 1: gap}
        return t

    def test_carry_reaching_eps_raises(self, schedule2):
        # six alpha tiles on a gap of 6 - eps_1 carry point 1 by exactly eps_1
        t = self.two_points(6 - schedule2.eps[1])
        with pytest.raises(TilingError, match="exceeds its bound"):
            pipeline._apply_gap_plan(t, {0: TileVector(6, 0)}, 1,
                                     schedule2.eps[1])

    def test_shift_error_text(self, schedule2):
        # the carry, on the lattice of the section and eps_1, comes back as
        # one exact value; the point keeps its rank until promotion
        t = self.two_points(6 - schedule2.eps[1] * 2)
        with pytest.raises(TilingError) as err:
            pipeline._apply_gap_plan(t, {0: TileVector(6, 0)}, 1,
                                     schedule2.eps[1])
        assert str(err.value) == ("shift 1/3 at point 1 (rank 0) exceeds "
                                  "its bound 1/6")
        # the section is left as it was
        assert t.positions == [quad(0), 6 - schedule2.eps[1] * 2]
        assert t.letters == [None]

    def test_carry_below_eps_passes(self, schedule2):
        t = self.two_points(6 - schedule2.eps[1] + F(1, 1000))
        pipeline._apply_gap_plan(t, {0: TileVector(6, 0)}, 1, schedule2.eps[1])
        assert t.letters == ["a"] * 6
        assert abs(t.displacements()[1]) < schedule2.eps[1]


class TestProvenance:
    # the provenance is checked before the displacements, so only the
    # provenance itself can fail
    @pytest.mark.parametrize("ids,origins,points,text", [
        ([0, 0], [0], 2, "original point ids do not increase: 0 then 0"),
        ([1, 0], [0, 1], 2, "original point ids do not increase: 1 then 0"),
        ([None, None], [], 0, "section has no original point"),
        ([None, None], [0, 1], 0, "section has no original point"),
        ([0, None], [0, 1], 1,
         "origin position 1 belongs to no original point"),
        ([1, 2], [1, 2], 2,
         "original point ids run from 1 to 2, not from 0 to 1"),
        ([0, 1], [0, 1], 3,
         "original point ids run from 0 to 1, not from 0 to 2"),
    ], ids=["repeated", "decreasing", "erased", "erased_with_origins",
            "stray_origin", "not_from_zero", "cut_short"])
    def test_bad_provenance_raises(self, ids, origins, points, text):
        t = TiledSection(P, [quad(0), P.alpha], ["a"], [0, 0], ids)
        t.points = points
        t.origin_pos = {oid: quad(0) for oid in origins}
        with pytest.raises(TilingError) as err:
            check_section(t)
        assert str(err.value) == text

    def test_inserted_points_pass(self):
        t = TiledSection(P, [quad(0), P.alpha, P.alpha + P.beta], ["a", "b"],
                         [0, 0, 0], [0, None, 1])
        t.origin_pos = {0: quad(0), 1: P.alpha + P.beta + F(1, 10)}
        assert t.points == 2
        check_section(t)


@pytest.fixture(scope="module")
def schedule_rho17():
    # eta_1 = 1/7, so an all-alpha word misses the eta band
    return build_schedule(Params(quad(1), sqrtD(), F(1, 7)), depth=2)


class TestBlockGrowth:
    def test_stage_one_structure(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=60, seed=2, k0=schedule2.K[0]))
        t = build_rank_blocks(w, schedule2, seed=5)
        runs = [r for r in t.regular_runs() if r[1] > r[0]]
        assert runs, "no rank-1 blocks formed"
        eta1 = schedule2.eta[1]
        spacing = pipeline.PAIR_SPACING
        for i, j in runs:
            p = t.letters[i:j].count("a")
            counts = TileVector(p, j - i - p)
            assert abs(alpha_frequency(counts) - P.rho) <= eta1
            assert max(t.ranks[i:j + 1]) == 1
        # untouched stretch lengths between blocks stay in the detected range
        singles = []
        prev_end = None
        for i, j in t.regular_runs():
            if j == i:
                continue
            if prev_end is not None:
                between = sum(1 for k in range(prev_end + 1, i)
                              if t.orig_ids[k] is not None)
                assert spacing <= between <= 2 * spacing + 1
            prev_end = j
        # only pair right points move, each by less than eps_1
        disp = [abs(d) for d in t.displacements().values()]
        assert any(not d.is_zero() for d in disp)
        assert all(d < schedule2.eps[1] for d in disp)

    def test_gap_without_a_tileable_names_its_points(self, schedule2):
        # no tileable lies within eps_1 = 1/6 of 1/2
        w = OrbitWindow([quad(0), quad(F(1, 2))])
        with pytest.raises(TilingError, match=r"at points 0\.\.1$"):
            build_rank_blocks(w, schedule2)

    def test_eta_band_missed_takes_nearest_frequency(self, schedule_rho17):
        # six alpha tiles, of frequency 1, are the only tileable within
        # eps_1 of 6, and 1 lies outside the eta_1 = 1/7 band around 1/7
        w = OrbitWindow([quad(0), quad(6)])
        t = build_rank_blocks(w, schedule_rho17)
        assert t.letters == ["a"] * 6
        assert t.notes == [BAND_MISSED]
        assert BAND_MISSED == "stage 1: eta band missed; using nearest frequency"


class TestClassify:
    def test_fully_regular(self):
        t = section_from_letters("abab")
        assert classify_section(t).kind == FULLY_REGULAR

    def test_half_tiled_fixture(self):
        # dominant block pinned to the right window end, another block left
        letters = ["a", None, "a", "b", "a", "b", "a", "b"]
        pos = [quad(0)]
        for ch in letters:
            pos.append(pos[-1] + (quad(9) if ch is None else
                                  P.alpha if ch == "a" else P.beta))
        t = TiledSection(P, pos, letters, [0] * len(pos), list(range(len(pos))))
        assert classify_section(t).kind == HALF_TILED

    def test_finite_classes_fixture_endpoints_sparse(self):
        rng = random.Random(1)
        letters = []
        pos = [quad(0)]
        for blk in range(6):
            for _ in range(rng.randint(2, 4)):
                letters.append("a")
                pos.append(pos[-1] + P.alpha)
            letters.append(None)
            pos.append(pos[-1] + quad(30 + blk))
        letters.pop()
        pos.pop()
        t = TiledSection(P, pos, letters, [0] * len(pos), list(range(len(pos))))
        assert classify_section(t).kind == FINITE_CLASSES


class TestSparseTile:
    def test_two_points_distance_six(self):
        # only one tileable lives within eps_1 of 6: six alpha tiles.  K_0 =
        # 23/4 is below the corridor density build_schedule requires, on
        # purpose, so the schedule is built directly
        sched = Schedule(P, 1, [quad(F(23, 4)), quad(F(47, 4))], [])
        assert sched.L == [sqrtD(), 4 + sqrtD() * 242]
        w = OrbitWindow([quad(0), quad(6)])
        t = sparse_tile(w, sched)
        assert t.is_fully_regular()
        assert abs((t.positions[-1] - t.positions[0]) - 6) < sched.eps[1]
        counts = t.counts()
        assert abs(alpha_frequency(counts) - P.rho) <= sched.eta[1]

    def test_single_class_window_near_budget(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=12, seed=9, k0=schedule2.K[0]))
        t = sparse_tile(w, schedule2)
        assert t.is_fully_regular()
        near = ((schedule2.K[1] + 1) / P.alpha).floor()
        # near rho: `near` more tiles of the type below its share carry the
        # frequency to rho or across it
        v, rho = t.counts(), P.rho
        f = alpha_frequency(v)
        assert ((f <= rho and alpha_frequency(TileVector(v.p + near, v.q)) >= rho)
                or (f >= rho and alpha_frequency(TileVector(v.p, v.q + near)) <= rho))

    def test_idempotent_on_regular_section(self, schedule2):
        t = section_from_letters("abab")
        before = list(t.positions)
        out = sparse_tile(t, schedule2)
        assert out.positions == before

    def test_multiscale_window_class_preservation(self):
        sched = build_schedule(P, depth=2, k_seq=[quad(7), quad(11), quad(25)])
        rng = random.Random(6)
        pos = [quad(0)]
        for _ in range(30):
            pos.append(pos[-1] + quad(rng.choice([41, 401])))
        w = insert_blocks(OrbitWindow(pos), sched.K, quad(1))
        before = [tuple(len(c) for c in chain_classes(w, k).classes)
                  for k in sched.K]
        t = sparse_tile(w, sched)
        assert t.is_fully_regular()
        # original points keep their class structure at every threshold
        kept = OrbitWindow([p for p, o in zip(t.positions, t.orig_ids)
                            if o is not None])
        after = [tuple(len(c) for c in chain_classes(kept, k).classes)
                 for k in sched.K]
        assert before == after

    def test_one_class_signature_per_stage_boundary(self, monkeypatch):
        # stage 2 starts from stage 1's closing signature less K_1, so the
        # section's classes are not computed twice between the stages
        sched = build_schedule(P, depth=2, k_seq=[quad(7), quad(11), quad(25)])
        rng = random.Random(0)
        pos = [quad(0)]
        for _ in range(24):
            pos.append(pos[-1] + quad(rng.choice([41, 401])))
        w = insert_blocks(OrbitWindow(pos), sched.K, quad(1))
        thresholds = []
        real = pipeline.chain_classes
        monkeypatch.setattr(pipeline, "chain_classes",
                            lambda w, k: thresholds.append(k) or real(w, k))
        t = sparse_tile(w, sched)
        assert t.is_fully_regular()
        assert max(t.ranks) == 2
        k1, k2 = sched.K[1:]
        # before stage 1, after stage 1, after stage 2
        assert thresholds == [k1, k2, k1, k2, k2]


class TestFullPipeline:
    def test_regular_and_displaced_within_budget(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=200, seed=4, k0=schedule2.K[0]))
        t = full_pipeline(w, schedule2, seed=4)
        assert t.is_fully_regular()
        for g, ch in zip(t.gap_values(), t.letters):
            assert g == (P.alpha if ch == "a" else P.beta)
        budget = quad(1) / 3
        for disp in t.displacements().values():
            assert abs(disp) < budget

    def test_rho_complement_symmetry(self):
        from flowtile.tiles import Params
        p1 = Params(quad(1), sqrtD(), F(1, 3))
        p2 = Params(quad(1), sqrtD(), F(2, 3))
        s1 = build_schedule(p1, depth=1)
        s2 = build_schedule(p2, depth=1)
        w1 = generate(GeneratorSpec("uniform", count=150, seed=8, k0=s1.K[0]))
        w2 = generate(GeneratorSpec("uniform", count=150, seed=8, k0=s2.K[0]))
        t1 = full_pipeline(w1, s1, seed=8)
        t2 = full_pipeline(w2, s2, seed=8)
        f1 = alpha_frequency(t1.counts())
        f2 = alpha_frequency(t2.counts())
        assert abs(f1 - F(1, 3)) < F(1, 10)
        assert abs(f2 - F(2, 3)) < F(1, 10)


class TestUniformFrequency:
    def test_alternation(self):
        t = section_from_letters("ab" * 40)
        rep = verify_uniform_frequency(t, F(1, 4))
        assert rep.n_eta == 2  # windows of >= 2 letters stay within 1/4

    def test_all_alpha_counterexample(self):
        t = section_from_letters("a" * 30)
        rep = verify_uniform_frequency(t, F(1, 2))
        assert rep.n_eta is None and rep.counterexample is not None

    def test_monotone_in_eta(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=150, seed=6, k0=schedule2.K[0]))
        t = full_pipeline(w, schedule2, seed=6)
        n8 = verify_uniform_frequency(t, F(1, 8)).n_eta
        n4 = verify_uniform_frequency(t, F(1, 4)).n_eta
        assert n4 <= n8

    def test_witness_replay_and_tamper(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=120, seed=7, k0=schedule2.K[0]))
        t = full_pipeline(w, schedule2, seed=7)
        assert t.witnesses
        check_section(t)
        # a max value no piece fits under, with the level's own eta
        t.witnesses[0] = t.witnesses[0]._replace(max_value=quad(F(1, 2)))
        with pytest.raises(WitnessError) as err:
            check_section(t)
        assert str(err.value) == "level 1 witness failed replay"

    def test_bare_gap_fails_before_any_replay(self, schedule2, monkeypatch):
        # replay and the frequency scan check the letters themselves when
        # they build their own prefix counts or scan; check_section passes
        # counts only after its gap check has proved every gap lettered
        w = generate(GeneratorSpec("uniform", count=120, seed=7, k0=schedule2.K[0]))
        t = full_pipeline(w, schedule2, seed=7)
        assert t.witnesses
        n = len(t.letters)
        t.letters[n // 2] = None
        assert not any(wit.replay(t) for wit in t.witnesses)
        with pytest.raises(ValueError,
                           match="^section must be regular on its interior$"):
            verify_uniform_frequency(t, F(1, 8))

        def no_replay(wit, section, count_a=None):
            raise AssertionError("replayed a witness of an untiled section")

        monkeypatch.setattr(PartitionWitness, "replay", no_replay)
        with pytest.raises(TilingError) as err:
            check_section(t)
        assert str(err.value) == (f"1 of {n} gaps untiled, the first is "
                                  f"gap {n // 2}")


RHOS = [F(1, 2), F(2, 5), F(5, 7), F(13, 32)]
ETAS = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(3, 16), F(1, 100)]


class TestUniformFrequencyOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=400),
           st.sampled_from(RHOS), st.sampled_from(ETAS))
    def test_matches_all_windows(self, letters, rho, eta):
        params = Params(P.alpha, P.beta, rho)
        t = section_from_letters(letters, params)
        rep = verify_uniform_frequency(t, eta)
        assert (rep.n_eta, rep.counterexample) == \
            brute_uniform_frequency(letters, rho, eta)

    # the packed scan uses lanes of one byte while 2 * spread < 128 and two
    # bytes from there: "a" * n at rho = 5/7 has spread 2n, and
    # "a" * n + "b" * n at rho = 1/2 has spread n; "a" * 20 + "b" * 20 at
    # rho = 5/7 has spread 100, which one-byte lanes would get wrong
    @pytest.mark.parametrize("letters,rho", [
        ("a" * 31, F(5, 7)), ("a" * 32, F(5, 7)), ("a" * 33, F(5, 7)),
        ("a" * 63 + "b" * 63, F(1, 2)), ("a" * 64 + "b" * 64, F(1, 2)),
        ("a" * 65 + "b" * 65, F(1, 2)), ("a" * 20 + "b" * 20, F(5, 7)),
    ], ids=["spread62", "spread64", "spread66", "spread63", "spread64b",
            "spread65", "spread100"])
    @pytest.mark.parametrize("eta", ETAS)
    def test_lane_width_boundary(self, letters, rho, eta):
        t = section_from_letters(letters, Params(P.alpha, P.beta, rho))
        rep = verify_uniform_frequency(t, eta)
        assert (rep.n_eta, rep.counterexample) == \
            brute_uniform_frequency(letters, rho, eta)

    @pytest.mark.parametrize("rho", RHOS)
    def test_lanes_just_below_half_full(self, rho):
        # random letters whose prefix deviations stay in [0, cap], with
        # 2 * spread just below 2**7, where a lane is one byte and its top
        # bit 2**7; the lanes past a run length's windows hold bits the
        # mask must drop
        rng = random.Random(rho.denominator)
        up, down = rho.denominator - rho.numerator, rho.numerator
        for cap in (62, 63):
            letters, dev, hi = [], 0, 0
            while len(letters) < 120:
                # climb to the cap first, then wander inside [0, cap]
                ch = "a" if hi < cap - up and rng.random() < 0.8 else \
                    rng.choice("ab")
                step = up if ch == "a" else -down
                if 0 <= dev + step <= cap:
                    letters.append(ch)
                    dev += step
                    hi = max(hi, dev)
            t = section_from_letters(letters, Params(P.alpha, P.beta, rho))
            scan = RunScan(t)
            assert scan.width == 8 and 120 <= 2 * scan.spread < 128
            for m in range(2, 17):
                rep = verify_uniform_frequency(t, F(1, m), scan=scan)
                assert (rep.n_eta, rep.counterexample) == \
                    brute_uniform_frequency(letters, rho, F(1, m))

    @pytest.mark.parametrize("n", [8191, 8192, 8193])
    def test_two_byte_lane_boundary(self, n):
        # spread 2n crosses 2**14, where lanes go from two bytes to three;
        # every window of "a" * n has frequency 1, 2/7 from rho = 5/7
        t = section_from_letters("a" * n, Params(P.alpha, P.beta, F(5, 7)))
        assert verify_uniform_frequency(t, F(1, 2)).n_eta == 1
        rep = verify_uniform_frequency(t, F(2, 7))
        assert (rep.n_eta, rep.counterexample) == (None, (0, n))

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=300),
           st.sampled_from(RHOS))
    def test_one_scan_serves_every_eta(self, letters, rho):
        # attach_witnesses packs the letters once and scans every level's
        # eta on that one RunScan
        t = section_from_letters(letters, Params(P.alpha, P.beta, rho))
        scan = RunScan(t)
        for eta in ETAS:
            shared = verify_uniform_frequency(t, eta, scan=scan)
            assert shared == verify_uniform_frequency(t, eta)
            assert (shared.n_eta, shared.counterexample) == \
                brute_uniform_frequency(letters, rho, eta)

    @pytest.mark.parametrize("letters", ["aaabb", "bbbaa"])
    def test_run_exactly_at_eta_fails(self, letters):
        # "aaab" and "bbba" have frequency 3/4 and 1/4, exactly eta = 1/4
        # from rho = 1/2 on either side: |dev[i+4] - dev[i]| * eta.den ==
        # eta.num * b * 4, so length 4 fails
        t = section_from_letters(letters)
        rep = verify_uniform_frequency(t, F(1, 4))
        assert (rep.n_eta, rep.counterexample) == (5, None)

    def test_whole_section_exactly_at_eta_fails(self):
        t = section_from_letters("aaab")
        rep = verify_uniform_frequency(t, F(1, 4))
        assert (rep.n_eta, rep.counterexample) == (None, (0, 4))


class TestReplay:
    @staticmethod
    def check(wit, t):
        got = wit.replay(t)
        assert got == replay_reference(wit, t)
        return got

    def test_piece_exactly_eta_from_rho_passes(self):
        # "aaab" has frequency 3/4, exactly eta = 1/4 from rho = 1/2
        t = section_from_letters("aaababab")
        wit = PartitionWitness(1, quad(10), F(1, 4), (0, 4, 8))
        assert self.check(wit, t)
        assert not self.check(wit._replace(eta=F(1, 4) - F(1, 1000)), t)

    def test_piece_value_just_above_max_value_fails(self):
        t = section_from_letters("aaababab")
        top = P.value(2, 2)  # "abab" is worth 2 + 2*sqrt(2), "aaab" less
        wit = PartitionWitness(1, top, F(1, 4), (0, 4, 8))
        assert self.check(wit, t)
        assert not self.check(wit._replace(max_value=top - F(1, 1000)), t)

    def test_repeated_cut_fails(self):
        t = section_from_letters("abababab")
        wit = PartitionWitness(1, quad(10), F(1, 4), (0, 4, 4, 8))
        assert not self.check(wit, t)
        assert self.check(wit._replace(cuts=(0, 4, 8)), t)

    def test_untiled_letter_fails(self):
        t = section_from_letters("abababab")
        wit = PartitionWitness(1, quad(10), F(1, 4), (0, 4, 8))
        t.letters[5] = None
        assert not self.check(wit, t)

    def test_matches_slices_on_random_witnesses(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randrange(0, 40)
            rho = rng.choice(RHOS)
            t = section_from_letters(
                "".join(rng.choice("ab") for _ in range(n)),
                Params(P.alpha, P.beta, rho))
            if n and rng.random() < 0.1:
                t.letters[rng.randrange(n)] = None
            cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n))) \
                if n > 1 else []
            cuts = [0] + cuts + [n]
            if rng.random() < 0.2:
                cuts.insert(rng.randrange(len(cuts)), rng.randrange(-1, n + 2))
            wit = PartitionWitness(1, P.value(rng.randrange(12), rng.randrange(12)),
                                   rng.choice(ETAS), tuple(cuts))
            self.check(wit, t)


class TestPromotion:
    def test_bisection_matches_any_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 30)
            letters = [rng.choice(["a", "b", None]) for _ in range(n)]
            marks = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
            ranks = [rng.randrange(3) for _ in range(n + 1)]
            got, want = (TiledSection(P, [quad(k) for k in range(n + 1)],
                                      letters, ranks, range(n + 1))
                         for _ in range(2))
            pipeline._promote_runs(got, marks, 2)
            promote_runs_reference(want, marks, 2)
            assert got.ranks == want.ranks

    def test_full_pipeline_ranks_match_any_reference(self, schedule4,
                                                     monkeypatch):
        w = generate(GeneratorSpec("uniform", count=300, seed=8,
                                   k0=schedule4.K[0]))
        got = full_pipeline(w, schedule4, seed=8).ranks
        monkeypatch.setattr(pipeline, "_promote_runs", promote_runs_reference)
        want = full_pipeline(w, schedule4, seed=8).ranks
        assert got == want
        # growth leaves rank-0 points, so finishing had runs to promote
        assert 0 in build_rank_blocks(w, schedule4, seed=8).ranks


# SCHEDULE_PARAMS with two more irrational-alpha pairs: sqrt(2)/2 against
# an irrational beta, and 2 - sqrt(2) against a rational one
COORD_PARAMS = SCHEDULE_PARAMS + [
    Params(quad(0, F(1, 2)), quad(1, 1), F(1, 3)),
    Params(quad(2, -1), quad(1), F(2, 5)),
]


@functools.lru_cache(maxsize=None)
def coord_schedule(k: int) -> Schedule:
    return build_schedule(COORD_PARAMS[k], depth=2)


@st.composite
def coord_windows(draw):
    """A depth-2 schedule of COORD_PARAMS and a uniform, sparse or rotation
    window of up to 60 points in its radicand."""
    sched = coord_schedule(draw(st.integers(0, len(COORD_PARAMS) - 1)))
    d = sched.params.d
    kind = draw(st.sampled_from(["uniform", "sparse_geometric",
                                 "rotation_suspension"]))
    count = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "rotation_suspension":
        angle = quad(F(draw(st.integers(1, 3)), 4),
                     F(draw(st.integers(1, 63)), 256), d)
        spec = GeneratorSpec(kind, count, angle=angle - angle.floor())
    else:
        # uniform gaps lie in [k0 + 1, k0 + 2], around K_0
        k0 = sched.K[0] - draw(st.integers(1, 3))
        spec = GeneratorSpec(kind, count, seed, k0=k0)
    try:
        return sched, generate(spec)
    except ValueError:  # an angle that rounds to 0
        return sched, generate(GeneratorSpec("uniform", count, seed,
                                             k0=sched.K[0] - 1))


def coordinate_values(t: TiledSection) -> list[tuple[F, F]]:
    """Each position's rational and sqrt(d) parts."""
    return [(F(x, t.c), F(y, t.c)) for x, y in zip(t.xs, t.ys)]


class TestCoordinates:
    """A section holds integer coordinates over one denominator; each way
    of building one gives the same coordinates and the same positions."""

    @settings(max_examples=40, deadline=None)
    @given(coord_windows())
    def test_constructors_agree(self, case):
        sched, w = case
        params = sched.params
        t = TiledSection.from_window(params, w)
        assert t.positions == list(w.positions)
        u = TiledSection(params, w.positions, t.letters, t.ranks, t.orig_ids)
        assert (u.c, u.d, u.xs, u.ys) == (t.c, t.d, t.xs, t.ys)
        # alpha and beta lie on the section's lattice
        assert t.c % params.c == 0
        try:
            t = sparse_tile(t, sched)
        except TilingError:
            return
        copy = TiledSection(params, t.positions, t.letters, t.ranks,
                            t.orig_ids)
        assert copy.positions == t.positions
        assert coordinate_values(copy) == coordinate_values(t)
        if t.is_fully_regular():
            back = TiledSection.from_json(t.to_json())
            assert back.positions == t.positions
            assert (back.c, back.d, back.xs, back.ys) == (
                copy.c, copy.d, copy.xs, copy.ys)

    @settings(max_examples=40, deadline=None)
    @given(coord_windows())
    def test_positions_walk_the_letters(self, case):
        sched, w = case
        params = sched.params
        try:
            t = sparse_tile(w, sched)
        except TilingError:
            return
        pos = t.positions
        length = {"a": params.alpha, "b": params.beta}
        walk = [pos[0]]
        for i, ch in enumerate(t.letters):
            # a bare gap, left above K_depth, starts the walk again
            walk.append(walk[-1] + length[ch] if ch else pos[i + 1])
        assert walk == pos
        assert t.gap_values() == list(map(sub, pos[1:], pos))

    def test_positions_is_a_fresh_view(self):
        t = section_from_letters("abba")
        pos = t.positions
        pos[0] = quad(100)
        assert t.positions[0] == quad(0)
        assert t.positions is not t.positions

    def test_rescale_is_skipped_at_factor_one(self):
        t = section_from_letters("ab")
        c, _, xs, ys, _ = on_lattice(t.c, t.d, t.xs, t.ys, [quad(2)])
        assert c == t.c and xs is t.xs and ys is t.ys
        c, _, xs, ys, [((e,), (f,))] = on_lattice(t.c, t.d, t.xs, t.ys,
                                                 [quad(F(1, 6))])
        assert c == 6 * t.c and (e, f) == (t.c, 0)
        assert xs == [6 * x for x in t.xs] and ys == [6 * y for y in t.ys]

    def test_values_of_another_radicand_raise(self):
        # sqrt(3) has the coordinates of sqrt(2), but not its value: the
        # section's own radicand is checked, as a window's is
        t = TiledSection.from_window(
            P, OrbitWindow([quad(0), quad(7), quad(15, 1)]))
        assert (t.c, t.d, t.xs, t.ys) == (1, 2, [0, 7, 15], [0, 0, 1])
        mixed = r"^mixed radicands: sqrt\(2\) vs sqrt\(3\)$"
        with pytest.raises(quadratic.ConfigError, match=mixed):
            on_lattice(t.c, t.d, t.xs, t.ys, [quad(0, 1, 3)])
        with pytest.raises(quadratic.ConfigError, match=mixed):
            pipeline._check_block_spacing(t, quad(0, 1, 3))


class TestSectionJson:
    def test_round_trip(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=60, seed=11, k0=schedule2.K[0]))
        t = full_pipeline(w, schedule2, seed=11)
        data = t.to_json()
        # the start and the letters stand for the positions
        assert list(data) == ["format", "alpha", "beta", "rho", "start",
                              "letters", "origin_index", "origin_positions",
                              "witnesses", "notes"]
        assert data["format"] == 2 and set(data["letters"]) == {"a", "b"}
        t2 = TiledSection.from_json(json.loads(json.dumps(data)))
        assert t2.positions == t.positions
        assert t2.letters == t.letters
        assert t2.orig_ids == t.orig_ids
        assert t2.origin_pos == t.origin_pos
        assert t2.witnesses == t.witnesses
        assert t2.notes == t.notes
        # ranks are not stored
        assert t2.ranks == [0] * len(t.positions)

    def test_read_back_section_gets_the_same_witnesses(self, schedule4):
        # a section holds no schedule: the one it was tiled under certifies
        # it again after a round trip through its file
        w = generate(GeneratorSpec("uniform", count=300, seed=5,
                                   k0=schedule4.K[0]))
        t = full_pipeline(w, schedule4, seed=5)
        assert len(t.witnesses) == schedule4.depth
        back = TiledSection.from_json(json.loads(json.dumps(t.to_json())))
        assert not hasattr(back, "schedule")
        back.witnesses = []
        attach_witnesses(back, schedule4)
        assert back.witnesses == t.witnesses
        check_section(back)

    def test_untiled_gap_is_not_written(self):
        t = TiledSection.from_window(P, OrbitWindow([quad(0), quad(9)]))
        with pytest.raises(ValueError, match="gap 0 is untiled"):
            t.to_json()


class TestPipelineBoundaries:
    def test_periodic_windows_rejected(self):
        # a window is an open orbit segment: the reader refuses any other
        # boundary rather than drop its circumference
        with pytest.raises(ValueError, match="boundary 'periodic'"):
            OrbitWindow.from_json({"boundary": "periodic", "circumference": "20",
                                   "positions": ["0", "9"]})

    def test_insufficient_depth_flagged(self):
        sched = build_schedule(P, depth=1)
        # a gap far above K_1 stays untiled and gets flagged
        w = OrbitWindow([quad(0), quad(9), quad(500), quad(509)])
        t = sparse_tile(w, sched)
        assert not t.is_fully_regular()
        assert any("partial tiling" in n for n in t.notes)


class TestParameterRegimes:
    def test_radicand_three(self):
        from flowtile.quadratic import sqrtD
        from flowtile.tiles import Params
        p3 = Params(quad(1, 0, 3), sqrtD(3), F(1, 2))
        s3 = build_schedule(p3, depth=2)
        w = generate(GeneratorSpec("uniform", count=120, seed=1, k0=s3.K[0]))
        t = full_pipeline(w, s3, seed=1)
        assert t.is_fully_regular()
        assert verify_uniform_frequency(t, F(1, 8)).n_eta is not None

    def test_irrational_short_tile(self):
        from flowtile.tiles import Params
        p = Params(sqrtD(), quad(2), F(2, 5))
        s = build_schedule(p, depth=2)
        w = generate(GeneratorSpec("uniform", count=120, seed=2, k0=s.K[0]))
        t = full_pipeline(w, s, seed=2)
        assert t.is_fully_regular()
        budget = sqrtD() / 3  # min(alpha, 1)/3 with alpha = sqrt2 > 1 -> 1/3
        from flowtile.quadratic import qmin
        budget = qmin(p.alpha, quad(1)) / 3
        for d in t.displacements().values():
            assert abs(d) < budget

    def test_skewed_rho(self):
        from flowtile.tiles import Params
        p = Params(quad(1), sqrtD(), F(1, 5))
        s = build_schedule(p, depth=2)
        w = generate(GeneratorSpec("uniform", count=200, seed=5, k0=s.K[0]))
        t = full_pipeline(w, s, seed=5)
        assert t.is_fully_regular()
        f = alpha_frequency(t.counts())
        assert abs(f - F(1, 5)) <= s.eta[2]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_skewed_rho_stops_witnesses_over_the_piece_budget(
            self, schedule_rho17, seed):
        # about 1950 letters with N(eta_1) above half of them make one
        # piece, longer than the level-1 piece budget of 1628 letters
        w = generate(GeneratorSpec("uniform", count=300, seed=seed,
                                   k0=schedule_rho17.K[0]))
        t = full_pipeline(w, schedule_rho17, seed=seed)
        assert t.is_fully_regular()
        assert t.witnesses == []
        assert any(n.startswith("witness levels stop at 0: level 1 cuts ")
                   and n.endswith("against a piece budget of 1628")
                   for n in t.notes)

    def test_band_missed_note_appears_once(self, schedule_rho17):
        # most of this window's growth pairs miss the eta_1 band
        w = generate(GeneratorSpec("uniform", count=300, seed=0,
                                   k0=schedule_rho17.K[0]))
        t = full_pipeline(w, schedule_rho17, seed=0)
        assert t.notes.count(BAND_MISSED) == 1

    def test_one_point_window_gives_a_section(self, schedule2):
        t = full_pipeline(OrbitWindow([quad(5)]), schedule2)
        assert t.positions == [quad(5)] and t.witnesses == []
        assert "stage 1: fewer than two rank-0 blocks; stage truncated" \
            in t.notes

    def test_two_point_window_reports_achieved_level(self, schedule2):
        w = generate(GeneratorSpec("uniform", count=2, seed=4,
                                   k0=schedule2.K[0]))
        t = full_pipeline(w, schedule2, seed=4)
        assert t.is_fully_regular()
        assert [wt.level for wt in t.witnesses] == [1]
        assert any("witness levels stop at 1" in n for n in t.notes)


# Schedules pinned as built before the density checks moved to lattice
# coordinates: the JSON, then per witness (stage, band, base, number of
# offsets, k_min, threshold).
GOLDEN_WITNESSES = [
    (1, "5/6", "11/12", (6, 1), 264, 1688, "10128 + 1720*sqrt(2)"),
    (1, "1/12", "1/6", (1, 6), 344, 1372, "1372 + 8264*sqrt(2)"),
    (2, "2/3", "17/24", (7, 3), 1494, 11609, "81263 + 34955*sqrt(2)"),
    (2, "7/24", "1/3", (3, 7), 1722, 10205, "30615 + 71563*sqrt(2)"),
    (3, "7/12", "29/48", (3, 2), 1510, 85690, "257070 + 171636*sqrt(2)"),
    (3, "19/48", "5/12", (2, 3), 1618, 80094, "160188 + 240538*sqrt(2)"),
    (4, "13/24", "53/96", (6, 5), 3419, 42858, "257148 + 214546*sqrt(2)"),
    (4, "43/96", "11/24", (5, 6), 3529, 41587, "207935 + 249778*sqrt(2)"),
]
GOLDEN_SCHEDULES = {
    2: {"alpha": "1", "beta": "sqrt(2)", "rho": "1/2", "depth": 2,
        "eps": ["1/6", "1/12", "1/24"], "eta": ["1", "1/2", "1/4", "1/8"],
        "K": ["7", "11", "25"],
        "L": ["sqrt(2)", "4 + 466*sqrt(2)", "4 + 930*sqrt(2)"]},
    4: {"alpha": "1", "beta": "sqrt(2)", "rho": "1/2", "depth": 4,
        "eps": ["1/6", "1/12", "1/24", "1/48", "1/96"],
        "eta": ["1", "1/2", "1/4", "1/8", "1/16", "1/32"],
        "K": ["7", "11", "25", "29", "55"],
        "L": ["sqrt(2)", "4 + 946*sqrt(2)", "4 + 1890*sqrt(2)",
              "4 + 3778*sqrt(2)", "4 + 7554*sqrt(2)"]},
}


class TestGoldenSchedules:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_stock_schedule_and_witnesses(self, depth, schedule2, schedule4):
        sched = schedule2 if depth == 2 else schedule4
        assert sched.to_json() == GOLDEN_SCHEDULES[depth]
        got = [(n, str(band.lo), str(band.hi), tuple(wit.base),
                len(wit.offsets), wit.k_min, str(wit.threshold))
               for n, band, wit in sched.witnesses]
        assert got == GOLDEN_WITNESSES[:2 * depth]

    def test_depth2_thresholds_rho_one_seventh(self, schedule_rho17):
        assert [str(k) for k in schedule_rho17.K] == ["7", "11", "25"]

    @pytest.mark.parametrize("params, K", [
        (Params(quad(1, 0, 3), sqrtD(3), F(1, 2)), ["7", "11", "29"]),
        (Params(quad(-1, 1), quad(3), F(2, 5)), ["12", "16", "86"]),
    ])
    def test_depth2_thresholds(self, params, K):
        assert [str(k) for k in build_schedule(params, depth=2).K] == K
