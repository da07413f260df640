"""Orbit maps: matching, assembly, the piece check and the lattice form.
``match_equidense`` and ``verify_loe`` are compared with their oracles in
``tests/oracles.py``; ``build_loe`` is checked against its definition
with ``oracles.build_loe_violations``."""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from flowtile import loe, quadratic
from flowtile.generators import GeneratorSpec, generate
from flowtile.loe import (LoeReport, Piece,
                          PiecewiseTranslationMap, _kind_indices, build_loe,
                          cover_failures, match_equidense, verify_loe)
from flowtile.pipeline import TiledSection, full_pipeline
from flowtile.quadratic import QuadReal, parse_quadreal, quad
from flowtile.tiles import Params, default_params
from oracles import (build_loe_violations, match_equidense_reference,
                     verify_loe_reference)

P = default_params()


def section_from_letters(letters, start=quad(0), params=P):
    pos = [start]
    for ch in letters:
        pos.append(pos[-1] + (params.alpha if ch == "a" else params.beta))
    t = TiledSection(params, pos, list(letters), [1] * len(pos),
                     list(range(len(pos))))
    t.origin_pos = {i: p for i, p in enumerate(pos)}
    return t


class TestMatch:
    def test_identity_at_stage_zero(self):
        a = [0, 2, 4]
        st = match_equidense(a, a)
        assert st.pairing == {0: 0, 2: 2, 4: 4}
        assert not st.residue_a and not st.residue_b
        assert st.stages[0] == ([0, 2, 4], [0, 2, 4])

    def test_evens_to_odds(self):
        a = list(range(0, 100, 2))
        b = list(range(1, 100, 2))
        st = match_equidense(a, b)
        assert all(st.pairing[x] == x + 1 for x in a)
        assert len(st.residue_a) + len(st.residue_b) <= 1

    def test_smallest_displacement_wins(self):
        st = match_equidense([0, 10], [11, 12])
        # 10 matches at k=1 before 0 can reach 11
        assert st.pairing[10] == 11
        assert st.pairing[0] == 12

    def test_forward_only_residue(self):
        st = match_equidense([5], [0])
        assert st.residue_a == [5] and st.residue_b == [0]


def rotation_set(n, theta_num, theta_den, offset=0):
    # quasi-uniform frequency-1/2 index sets from a circle rotation
    return [i for i in range(n)
            if (offset + (i + 1) * theta_num) % (2 * theta_den) < theta_den]


class TestMatchResidueDecay:
    def test_residue_fraction_decreases(self):
        fracs = []
        for n in (100, 1000, 10000):
            a = rotation_set(n, 377, 610)
            b = rotation_set(n, 233, 377, offset=89)
            st = match_equidense(a, b)
            fracs.append(F(len(st.residue_a) + len(st.residue_b),
                           len(a) + len(b)))
        assert fracs[0] > fracs[1] > fracs[2]


class TestBuildLoe:
    def test_identity_map(self):
        t = section_from_letters("abab")
        m = build_loe(t, t)
        rep = verify_loe(m, P)
        assert rep.ok
        for p in m.pieces:
            assert p.src_lo == p.dst_lo

    def test_interleaved_pair(self):
        t1 = section_from_letters("abab")
        t2 = section_from_letters("baba")
        m = build_loe(t1, t2)
        rep = verify_loe(m, P)
        assert rep.ok
        kinds = [p.kind for p in m.pieces]
        assert kinds.count("a") == 2
        # alpha pieces map k-th alpha gap to k-th alpha gap
        a_pieces = [p for p in m.pieces if p.kind == "a"]
        assert a_pieces[0].src_lo == quad(0)
        assert a_pieces[0].dst_lo == t2.positions[1]

    def test_frequency_mismatch_maps_with_residue(self):
        # frequencies 2/3 and 1/3: the source's second alpha has no
        # partner, so neither has the beta its own matching pairs it with
        t1 = section_from_letters("aab")
        t2 = section_from_letters("abb")
        m = build_loe(t1, t2)
        assert verify_loe(m, P).ok
        assert m.pieces == [Piece(t1.positions[0], t2.positions[0], P.alpha,
                                  "a")]
        assert (m.residue_src, m.residue_dst) == ([1, 2], [1, 2])

    def test_count_mismatch_maps_with_residue(self):
        # both frequencies are 1/2; the target's second alpha and its beta
        # are left over
        t1 = section_from_letters("ab")
        t2 = section_from_letters("aabb")
        m = build_loe(t1, t2)
        assert verify_loe(m, P).ok
        assert m.pieces == [
            Piece(t1.positions[0], t2.positions[0], P.alpha, "a"),
            Piece(t1.positions[1], t2.positions[3], P.beta, "b")]
        assert (m.residue_src, m.residue_dst) == ([], [1, 2])

    def test_different_params_rejected(self):
        # the same word under doubled tile lengths: each piece would be a
        # translation of the wrong length, yet verify_loe sees one params
        t1 = section_from_letters("abab")
        t2 = section_from_letters(
            "abab", params=Params(quad(2), quad(0, 2), F(1, 2)))
        with pytest.raises(ValueError, match=(
                r"^sections have different params: "
                r"Params\(alpha=1, beta=sqrt\(2\), rho=1/2\) vs "
                r"Params\(alpha=2, beta=2\*sqrt\(2\), rho=1/2\)$")):
            build_loe(t1, t2)
        t3 = section_from_letters("abab", params=default_params(F(1, 3)))
        with pytest.raises(ValueError, match=r"rho=1/2\) vs .*rho=1/3\)$"):
            build_loe(t1, t3)

    def test_base_map_preserved(self):
        t1 = section_from_letters("abab")
        t2 = section_from_letters("baba")
        a1 = [i for i, ch in enumerate(t1.letters) if ch == "a"]
        a2 = [i for i, ch in enumerate(t2.letters) if ch == "a"]
        base = dict(zip(a1, a2))
        m = build_loe(t1, t2)
        for a, b in base.items():
            assert any(p.src_lo == t1.positions[a] and
                       p.dst_lo == t2.positions[b] for p in m.pieces
                       if p.kind == "a")


class TestIndependentPairs:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]), st.text("ab", max_size=40),
           st.text("ab", max_size=40), st.integers(-20, 20))
    def test_pieces_and_residue_cover_both_sections(self, d, w1, w2, shift):
        params = Params(quad(1, 0, d), quad(0, 1, d), F(1, 2))
        t1 = section_from_letters(w1, params=params)
        t2 = section_from_letters(w2, start=quad(shift, 0, d), params=params)
        m = build_loe(t1, t2)
        assert verify_loe(m, params).ok
        index1 = {x: i for i, x in enumerate(t1.positions)}
        index2 = {x: i for i, x in enumerate(t2.positions)}
        src = [index1[p.src_lo] for p in m.pieces]
        dst = [index2[p.dst_lo] for p in m.pieces]
        # each gap once: a piece or residue, never both
        assert sorted(src + m.residue_src) == list(range(len(w1)))
        assert sorted(dst + m.residue_dst) == list(range(len(w2)))
        assert src == sorted(src)  # source order
        assert all(w1[i] == w2[j] == p.kind
                   for i, j, p in zip(src, dst, m.pieces))
        # the k-th alpha gap of t1 maps to the k-th of t2, as far as both go
        a1, _ = _kind_indices(t1)
        a2, _ = _kind_indices(t2)
        assert [(i, j) for i, j, p in zip(src, dst, m.pieces)
                if p.kind == "a"] == list(zip(a1, a2))


class TestVerifyLoe:
    def test_empty_map_vacuous(self):
        rep = verify_loe(PiecewiseTranslationMap([]), P)
        assert rep.ok and rep.piece_count == 0

    def test_corrupted_kind_detected(self):
        t = section_from_letters("abab")
        m = build_loe(t, t)
        # pieces is a view: the tampered map is built from a changed copy
        pieces = m.pieces
        pieces[0] = pieces[0]._replace(kind="b" if pieces[0].kind == "a" else "a")
        m = PiecewiseTranslationMap(pieces, m.residue_src, m.residue_dst)
        rep = verify_loe(m, P)
        assert not rep.ok
        assert any("kind" in f or "length" in f for f in rep.failures)

    def test_tampered_length_and_unknown_kind_lines(self):
        # pieces a, b, a, b; piece 1 keeps its rational part 0 and only
        # its sqrt(2) part changes, piece 2 gets a kind with no length
        m = build_loe(*[section_from_letters("abab")] * 2)
        pieces = m.pieces
        short = pieces[1]._replace(length=quad(0, F(1, 2)))
        unknown = pieces[2]._replace(kind="c")
        length_line = "piece 1: kind b but length 1/2*sqrt(2)"
        kind_lines = ["piece 2: unknown kind 'c'",
                      "piece 2: kind c but length 1"]
        for tampered, lines in (
                ([pieces[0], short, *pieces[2:]], [length_line]),
                ([*pieces[:2], unknown, pieces[3]], kind_lines),
                ([pieces[0], short, unknown, pieces[3]],
                 [length_line, *kind_lines])):
            m2 = PiecewiseTranslationMap(tampered)
            rep = verify_loe(m2, P)
            assert rep == verify_loe_reference(m2, P)
            assert rep.failures == lines

    def test_overlap_detected(self):
        p1 = Piece(quad(0), quad(10), P.alpha, "a")
        p2 = Piece(quad(F(1, 2)), quad(20), P.alpha, "a")
        rep = verify_loe(PiecewiseTranslationMap([p1, p2]), P)
        assert not rep.ok

    def test_json_round_trip(self):
        # a map is written, never read back: each field in exact text form
        t = section_from_letters("abba")
        m = build_loe(t, t)
        data = m.to_json()
        assert list(data) == ["pieces", "residue_src", "residue_dst"]
        assert data["pieces"] == [
            {"src": str(p.src_lo), "dst": str(p.dst_lo),
             "length": str(p.length), "kind": p.kind} for p in m.pieces]
        assert [parse_quadreal(p["length"]) for p in data["pieces"]] == [
            P.alpha if p.kind == "a" else P.beta for p in m.pieces]
        assert (data["residue_src"], data["residue_dst"]) == (
            m.residue_src, m.residue_dst)


def rebuilt(m, pieces=None, residue_src=None, residue_dst=None):
    """m through the public constructor, with any part replaced."""
    return PiecewiseTranslationMap(
        m.pieces if pieces is None else pieces,
        m.residue_src if residue_src is None else residue_src,
        m.residue_dst if residue_dst is None else residue_dst)


def tiled(seed, schedule, count=300):
    w = generate(GeneratorSpec("uniform", count=count, seed=seed,
                               k0=schedule.K[0]))
    return full_pipeline(w, schedule, seed=seed)


class TestLatticeForm:
    def test_pieces_is_a_fresh_view(self):
        t = section_from_letters("abab")
        m = build_loe(t, t)
        m.pieces.clear()
        assert len(m.pieces) == 4 and m.pieces is not m.pieces
        # one length value per distinct length
        assert len({id(p.length) for p in m.pieces}) == 2

    def test_round_trip_golden_pair(self, schedule2):
        # the pair of tests/test_golden.py::test_orbit_map_unchanged
        t1 = full_pipeline(generate(GeneratorSpec("uniform", count=300,
                                                  seed=1)), schedule2, seed=1)
        t2 = full_pipeline(generate(GeneratorSpec("uniform", count=300,
                                                  seed=2)), schedule2, seed=2)
        m = build_loe(t1, t2)
        again = rebuilt(m)
        assert again.to_json() == m.to_json()
        same_report(verify_loe(again, P), verify_loe(m, P))
        assert verify_loe(m, P).ok and cover_failures(m, t1, t2) == []

    def test_section_onto_its_file_read_back(self, schedule2):
        # the tiled section and its read-back differ in denominator
        t = tiled(1, schedule2)
        back = TiledSection.from_json(t.to_json())
        assert t.c != back.c
        m = build_loe(t, back)
        # every piece maps a gap onto itself; the residue is the betas
        # the section's own matching leaves over, the same on both sides
        assert all(p.src_lo == p.dst_lo for p in m.pieces)
        assert m.residue_src == m.residue_dst
        assert len(m.pieces) + len(m.residue_src) == len(t.letters)
        report = verify_loe(m, P)
        assert report.ok and cover_failures(m, t, back) == []
        again = rebuilt(m)
        assert again.to_json() == m.to_json()
        same_report(verify_loe(again, P), report)
        # the rebuilt map holds the least denominator, below the section's
        assert again.c < t.c and cover_failures(again, t, back) == []

    def test_no_value_per_gap(self, schedule2, monkeypatch):
        # build_loe and verify_loe work on coordinates: the only value
        # they build is the mapped length
        t1, t2 = tiled(1, schedule2, 1000), tiled(2, schedule2, 1000)
        calls = {"quads": 0, "_raw": 0}
        raw, quads = QuadReal._raw.__func__, loe.quads

        def counted_raw(cls, *args):
            calls["_raw"] += 1
            return raw(cls, *args)

        def counted_quads(*args):
            calls["quads"] += 1
            return quads(*args)

        monkeypatch.setattr(QuadReal, "_raw", classmethod(counted_raw))
        monkeypatch.setattr(loe, "quads", counted_quads)
        monkeypatch.setattr(quadratic, "quads", counted_quads)
        report = verify_loe(build_loe(t1, t2), P)
        assert report.ok and report.piece_count > 6000
        assert calls["quads"] == 0 and calls["_raw"] <= 3


    def test_length_off_a_rational_alpha(self):
        # alpha = 1/2 has a denominator the map's coordinates lack
        params = Params(quad(F(1, 2)), quad(0, 1), F(1, 2))
        m = PiecewiseTranslationMap([Piece(quad(0), quad(10), quad(1), "a")])
        rep = verify_loe(m, params)
        same_report(rep, verify_loe_reference(m, params))
        assert rep.failures == ["piece 0: kind a but length 1"]

    def test_lengths_of_another_radicand_refused(self):
        # sqrt(3) has the coordinates of sqrt(2), but not its value
        m = PiecewiseTranslationMap([Piece(quad(0, 0, 3), quad(5, 0, 3),
                                           quad(0, 1, 3), "b")])
        with pytest.raises(quadratic.ConfigError,
                           match=r"^mixed radicands: sqrt\(2\) vs sqrt\(3\)$"):
            verify_loe(m, P)


class TestCoverFailures:
    """Each rule of ``cover_failures`` on a tampered copy of a good map;
    every tampered map still passes ``verify_loe``."""

    def setup_method(self):
        self.t1 = section_from_letters("aabab")
        self.t2 = section_from_letters("abbaab")
        self.m = build_loe(self.t1, self.t2)

    def failures(self, m):
        assert verify_loe(m, P).ok
        return cover_failures(m, self.t1, self.t2)

    def test_built_maps_pass(self):
        # source gaps 0, 1, 3, 4 map onto target gaps 0, 3, 4, 5
        assert self.failures(self.m) == []
        assert (self.m.residue_src, self.m.residue_dst) == ([2], [1, 2])
        assert cover_failures(build_loe(self.t2, self.t1), self.t2,
                              self.t1) == []

    def test_piece_off_its_letter(self):
        # piece 1, from source gap 1 ('a'), moved onto gap 2 ('b'), which
        # leaves gap 1 uncovered and the alpha pairs one short
        pieces = self.m.pieces
        pieces[1] = pieces[1]._replace(src_lo=self.t1.positions[2])
        got = self.failures(rebuilt(self.m, pieces))
        assert got == [
            "piece 1: no 'a' gap of the source section starts at 2",
            "source gap 1 is covered 0 times by pieces and residue",
            "alpha piece 1 maps source gap 3 to target gap 4, not 1 to 3"]

    def test_piece_between_gaps(self):
        pieces = self.m.pieces
        pieces[0] = pieces[0]._replace(dst_lo=pieces[0].dst_lo - 10)
        got = self.failures(rebuilt(self.m, pieces))
        assert got[0] == "piece 0: no 'a' gap of the target section starts at -10"

    def test_gap_used_twice(self):
        t = section_from_letters("aab")
        m = build_loe(t, t)
        pieces = m.pieces
        # two alpha pieces from source gap 0, onto target gaps 0 and 1
        pieces[1] = pieces[1]._replace(src_lo=pieces[0].src_lo)
        m2 = rebuilt(m, pieces)
        assert verify_loe(m2, P).failures == ["source pieces overlap at 0"]
        assert cover_failures(m2, t, t) == [
            "source gap 0 starts 2 pieces",
            "source gap 1 is covered 0 times by pieces and residue",
            "alpha piece 1 maps source gap 0 to target gap 1, not 1 to 1"]

    def test_start_of_another_radicand(self):
        # sqrt(3) has the coordinates of the start sqrt(2) of gap 1
        t = section_from_letters("ba")
        m = PiecewiseTranslationMap([Piece(quad(0, 1, 3), quad(0, 1, 3),
                                           quad(1, 0, 3), "a")], [0], [0])
        assert cover_failures(m, t, t) == [
            "piece 0: no 'a' gap of the source section starts at sqrt(3)",
            "source gap 1 is covered 0 times by pieces and residue",
            "piece 0: no 'a' gap of the target section starts at sqrt(3)",
            "target gap 1 is covered 0 times by pieces and residue",
            "0 alpha pieces for 1 pairs of k-th alpha gaps"]

    def test_residue_missing_a_gap(self):
        assert self.m.residue_dst
        got = self.failures(rebuilt(self.m, residue_dst=[]))
        assert got == [f"target gap {j} is covered 0 times by pieces and "
                       f"residue" for j in self.m.residue_dst]

    def test_gap_both_mapped_and_residue(self):
        got = self.failures(rebuilt(self.m, residue_src=[0, 2]))
        assert got == ["source gap 0 is covered 2 times by pieces and residue"]

    def test_residue_out_of_range(self):
        got = self.failures(rebuilt(self.m, residue_dst=self.m.residue_dst + [6]))
        assert got == ["target residue 6 is not a gap index"]

    def test_alpha_pieces_swapped(self):
        # the first two alpha pieces trade targets: every start is still an
        # 'a' gap and every gap is covered once, but not k-th to k-th
        pieces = self.m.pieces
        pieces[0], pieces[1] = (pieces[0]._replace(dst_lo=pieces[1].dst_lo),
                                pieces[1]._replace(dst_lo=pieces[0].dst_lo))
        got = self.failures(rebuilt(self.m, pieces))
        assert got == ["alpha piece 0 maps source gap 0 to target gap 3, "
                       "not 0 to 0"]

    def test_alpha_piece_missing(self):
        # the last alpha piece moves to the residue on both sides
        pieces = self.m.pieces
        drop = [k for k, p in enumerate(pieces) if p.kind == "a"][-1]
        p = pieces.pop(drop)
        i = self.t1.positions.index(p.src_lo)
        j = self.t2.positions.index(p.dst_lo)
        got = self.failures(rebuilt(self.m, pieces,
                                    sorted(self.m.residue_src + [i]),
                                    sorted(self.m.residue_dst + [j])))
        assert got == ["2 alpha pieces for 3 pairs of k-th alpha gaps"]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3]), st.text("ab", max_size=30),
           st.text("ab", max_size=30), st.integers(-20, 20))
    def test_independent_pairs_pass(self, d, w1, w2, shift):
        params = Params(quad(1, 0, d), quad(0, 1, d), F(1, 2))
        t1 = section_from_letters(w1, params=params)
        t2 = section_from_letters(w2, start=quad(shift, 0, d), params=params)
        assert cover_failures(build_loe(t1, t2), t1, t2) == []


# x - y*sqrt(D) with x**2 - D*y**2 == 1: irrational, positive and tiny;
# the last is below 2**-36, so the 32-bit sort keys cannot separate it
HAIRS = {2: [(99, 70), (577, 408), (152139002499, 107578520350)],
         3: [(97, 56), (1351, 780), (36810643322, 21252634831)]}


def rationals(max_num=30, max_den=7):
    return st.builds(F, st.integers(-max_num, max_num), st.integers(1, max_den))


@st.composite
def piece_maps(draw):
    """Pieces laid out along a shuffled source chain and a differently
    shuffled target chain; consecutive pieces of a chain touch exactly,
    overlap or miss by an irrational hair, start together, or sit a
    rational or irrational step apart.  Lengths are alpha or beta, or a
    wrong length; a few kinds are wrong."""
    d = draw(st.sampled_from([2, 3]))
    params = Params(quad(1, 0, d), quad(0, 1, d), F(1, 2))
    n = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["a", "b", "a", "b", "c"]), min_size=n, max_size=n))
    lengths = []
    for kind in kinds:
        if draw(st.integers(0, 5)) == 0:
            lengths.append(quad(draw(rationals()), draw(rationals()), d))
        else:
            lengths.append(params.beta if kind == "b" else params.alpha)

    def chain():
        order = draw(st.permutations(range(n)))
        x = quad(draw(rationals(200, 12)), draw(rationals(200, 12)), d)
        ends = [None] * n
        for i in order:
            ends[i] = x
            step = draw(st.sampled_from(["touch", "hair+", "hair-", "same",
                                         "rational", "irrational"]))
            if step == "touch":
                x = x + lengths[i]
            elif step.startswith("hair"):
                u, v = draw(st.sampled_from(HAIRS[d]))
                hair = quad(u, -v, d)
                x = x + lengths[i] + (hair if step == "hair+" else -hair)
            elif step == "rational":
                x = x + lengths[i] + draw(rationals())
            elif step == "irrational":
                x = x + quad(draw(rationals()), draw(rationals()), d)
        return ends

    src, dst = chain(), chain()
    pieces = [Piece(src[i], dst[i], lengths[i], kinds[i]) for i in range(n)]
    return params, PiecewiseTranslationMap(pieces)


def same_report(got: LoeReport, want: LoeReport):
    assert got == want
    assert str(got.mapped_length) == str(want.mapped_length)


class TestLoeOracle:
    @settings(max_examples=300, deadline=None)
    @given(piece_maps(), st.sampled_from([0, 32]))
    def test_verify_loe_matches_reference(self, case, bits):
        params, m = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            same_report(verify_loe(m, params), verify_loe_reference(m, params))

    def test_hair_overlap_and_hair_gap(self):
        # the source pieces overlap by 99 - 70*sqrt(2) ~ 0.005, the target
        # pieces miss each other by as much
        hair = quad(99, -70)
        p1 = Piece(quad(0), quad(10), P.alpha, "a")
        p2 = Piece(P.alpha - hair, quad(10) + P.alpha + hair, P.beta, "b")
        m = PiecewiseTranslationMap([p2, p1])
        rep = verify_loe(m, P)
        assert rep == verify_loe_reference(m, P)
        assert rep.failures == [f"source pieces overlap at {P.alpha - hair}"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_values_closer_than_the_sort_key(self, d):
        # v and v + hair share their sort key; the exact tie-break puts v
        # first, so the overlap is reported at v + hair
        u, w = HAIRS[d][-1]
        hair = quad(u, -w, d)
        params = Params(quad(1, 0, d), quad(0, 1, d), F(1, 2))
        alpha = params.alpha
        v = quad(F(5, 3), 2, d)
        m = PiecewiseTranslationMap([Piece(v + hair, quad(0), alpha, "a"),
                                     Piece(v, quad(2), alpha, "a")])
        for bits in (0, 32):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quadratic, "KEY_BITS", bits)
                rep = verify_loe(m, params)
            assert rep == verify_loe_reference(m, params)
            assert rep.failures == [f"source pieces overlap at {v + hair}"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_length_a_hair_off_alpha(self, d):
        # alpha + hair and alpha - hair, hair ~ 3e-12, are wrong lengths
        # that a float comparison would take for alpha
        u, w = HAIRS[d][-1]
        hair = quad(u, -w, d)
        params = Params(quad(1, 0, d), quad(0, 1, d), F(1, 2))
        m = PiecewiseTranslationMap([
            Piece(quad(0, 0, d), quad(10, 0, d), params.alpha + hair, "a"),
            Piece(quad(2, 0, d), quad(12, 0, d), params.alpha - hair, "a"),
            Piece(quad(4, 0, d), quad(14, 0, d), params.alpha, "a")])
        rep = verify_loe(m, params)
        assert rep == verify_loe_reference(m, params)
        assert rep.failures == [
            f"piece 0: kind a but length {params.alpha + hair}",
            f"piece 1: kind a but length {params.alpha - hair}"]

    def test_touching_pieces_pass(self):
        p1 = Piece(quad(F(1, 3)), quad(F(2, 7)), P.beta, "b")
        p2 = Piece(quad(F(1, 3)) + P.beta, quad(F(2, 7)) + P.beta, P.alpha, "a")
        rep = verify_loe(PiecewiseTranslationMap([p2, p1]), P)
        assert rep.ok and rep.mapped_length == P.alpha + P.beta

    # no shrink phase: shrinking the st.data() draws of unique QuadReal
    # lists takes minutes and hundreds of MB, while generation finds a
    # broken build_loe in about a second
    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(st.text("ab", min_size=1, max_size=14), st.data())
    def test_build_loe_meets_its_definition(self, letters, data):
        # the target has the same letters in another order, so the alpha
        # counts agree; positions are arbitrary strictly increasing values,
        # as in every checked section
        d = data.draw(st.sampled_from([2, 3]))
        params = Params(quad(1, 0, d), quad(0, 1, d), F(1, 2))
        values = st.builds(lambda r, s: quad(r, s, d), rationals(40, 9),
                           rationals(40, 9))

        def section(word):
            pos = sorted(data.draw(st.lists(values, min_size=len(word) + 1,
                                            max_size=len(word) + 1,
                                            unique=True)))
            return TiledSection(params, pos, list(word), [1] * len(pos),
                                list(range(len(pos))))

        shuffled = "".join(data.draw(st.permutations(letters)))
        t1, t2 = section(letters), section(shuffled)
        assert build_loe_violations(build_loe(t1, t2), t1, t2) == []

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 60)), st.sets(st.integers(0, 60)))
    def test_match_equidense_matches_reference(self, a, b):
        # the same matching; the stages end at the farthest pair, where
        # the reference may run on through empty ones
        got = match_equidense(a, b)
        want = match_equidense_reference(a, b, None)
        stages = list(want.stages)
        while stages and stages[-1] == ([], []):
            stages.pop()
        assert got == want._replace(stages=stages)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_depth4_sections_meet_the_definitions(self, seed, schedule4):
        w = generate(GeneratorSpec("uniform", count=1000, seed=seed,
                                   k0=schedule4.K[0]))
        t = full_pipeline(w, schedule4, seed=seed)
        rev = section_from_letters(t.letters[::-1])
        for x, y in ((t, rev), (rev, t)):
            # only the map and its check run under the patched key width
            maps = []
            for bits in (0, 32):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(quadratic, "KEY_BITS", bits)
                    got = build_loe(x, y)
                    report = verify_loe(got, P)
                same_report(report, verify_loe_reference(got, P))
                assert report.ok
                maps.append(got.to_json())
            assert maps[0] == maps[1]
            assert build_loe_violations(got, x, y) == []
