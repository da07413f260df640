"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
All numeric checks are exact (integer/rational arithmetic); the only
tolerances are the ones stated in the criteria themselves.
"""

import random
import time
from fractions import Fraction as F

import pytest

from flowtile.generators import GeneratorSpec, generate
from flowtile.loe import build_loe, match_equidense, verify_loe
from flowtile.pipeline import (TiledSection, build_schedule, check_section,
                               full_pipeline, sparse_tile,
                               verify_uniform_frequency)
from flowtile.quadratic import quad, real_gcd, sqrtD
from flowtile.reachable import (ShiftProblem, brute_force_reachable,
                                enumerate_reachable, frequency_boost,
                                lattice_threshold, rearrange_permutation)
from flowtile.tiles import (TileVector, alpha_frequency, default_params,
                            enumerate_tileable)
from flowtile.windows import (OrbitWindow, chain_classes, insert_blocks,
                              is_sparse_window, level_midpoints,
                              two_class_block)

P = default_params()

N_WINDOWS = 50
WINDOW_POINTS = 1000


def say(line):
    print(f"\n{line}", flush=True)


@pytest.fixture(scope="module")
def pipeline_outputs(schedule4):
    t0 = time.monotonic()
    outputs = []
    for seed in range(N_WINDOWS):
        w = generate(GeneratorSpec("uniform", count=WINDOW_POINTS, seed=seed,
                                   k0=schedule4.K[0]))
        outputs.append((w, full_pipeline(w, schedule4, seed=seed)))
    elapsed = time.monotonic() - t0
    return outputs, elapsed


def test_01_regularity(pipeline_outputs):
    outputs, elapsed = pipeline_outputs
    assert len(outputs) == N_WINDOWS
    for w, t in outputs:
        assert len(w) == WINDOW_POINTS
        for g, ch in zip(t.gap_values(), t.letters):
            assert ch in ("a", "b")
            assert g == (P.alpha if ch == "a" else P.beta)
    assert elapsed < 60, f"pipelines took {elapsed:.1f}s"
    say(f"ACCEPT-01 PASS regularity: {N_WINDOWS} windows x {WINDOW_POINTS} "
        f"points, every interior gap exactly alpha or beta "
        f"({elapsed:.1f}s < 60s)")


def test_02_displacement_bound(pipeline_outputs):
    outputs, _ = pipeline_outputs
    budget = quad(1) / 3  # min(alpha, 1)/3 for alpha = 1
    worst = quad(0)
    for w, t in outputs:
        disp = t.displacements()
        assert len(disp) == len(w)
        for oid, d in disp.items():
            assert abs(d) < budget, f"point {oid} displaced {d}"
            if worst < abs(d):
                worst = abs(d)
    say(f"ACCEPT-02 PASS displacement: every original point moved at most "
        f"{worst} ({worst.approx()}), within min(alpha,1)/3 = 1/3 exactly")


def test_03_uniform_frequency(pipeline_outputs, schedule4):
    outputs, _ = pipeline_outputs
    worst = {F(1, 4): 0, F(1, 8): 0}
    for _, t in outputs:
        for eta in (F(1, 4), F(1, 8)):
            rep = verify_uniform_frequency(t, eta)
            assert rep.n_eta is not None, "no finite uniform run length"
            worst[eta] = max(worst[eta], rep.n_eta)
        check_section(t)
        levels = {w.level: w for w in t.witnesses}
        for j in range(1, 5):
            assert j in levels, f"missing witness level {j}"
            w = levels[j]
            assert w.eta == F(1, 2 ** j)
            assert w.max_value == schedule4.L[j]
            assert w.replay(t)
    say(f"ACCEPT-03 PASS uniform frequency: finite N(1/4) <= {worst[F(1, 4)]} "
        f"and N(1/8) <= {worst[F(1, 8)]} on every output; witness levels "
        f"1..4 replay with eta_j = 2^-j and pieces <= L_j")


def test_04_reachable_oracle_equivalence():
    rng = random.Random(7)
    d0 = quad(12)
    eps0 = quad(1)
    full = [v for v in enumerate_tileable(P, d0 - eps0, d0 + eps0)
            if abs(v.value(P) - d0) < eps0]
    t0 = time.monotonic()
    for trial in range(500):
        n = rng.randint(1, 8)
        gaps, choices = [], []
        for _ in range(n):
            d = quad(12 + F(rng.randint(-32, 32), 64))
            cand = [v for v in full if abs(v.value(P) - d) < eps0]
            rng.shuffle(cand)
            gaps.append(d)
            choices.append(cand[:rng.randint(1, 4)])
        prob = ShiftProblem(P, eps0, gaps, choices)
        fast = enumerate_reachable(prob)
        slow = brute_force_reachable(prob)
        assert fast.counts() == slow.counts(), f"trial {trial}"
        assert fast.replay_ok()
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"oracle sweep took {elapsed:.1f}s"
    say(f"ACCEPT-04 PASS reachable-set oracle: 500 random problems (n <= 8, "
        f"|R_k| <= 4) agree exactly with exhaustive search ({elapsed:.1f}s "
        f"< 30s)")


def test_05_frequency_boost_contract():
    # four-quadrant menus around d = 12 (both value sides x both
    # frequency sides for eta = 1/4)
    menu = [TileVector(0, 8), TileVector(0, 9), TileVector(1, 8),
            TileVector(2, 7), TileVector(9, 2), TileVector(10, 1),
            TileVector(10, 2), TileVector(11, 1)]
    rng = random.Random(11)
    zeta = F(1, 3)
    for trial in range(100):
        n = rng.randint(4, 5)
        prob = ShiftProblem(P, quad(1), [quad(12)] * n, [menu] * n)
        gamma = F(1, 2) + F(rng.randint(-5, 5), 40)
        el = frequency_boost(prob, gamma, zeta, F(1, 4), enforce_bound=False)
        assert abs(alpha_frequency(el.counts) - gamma) <= zeta, f"trial {trial}"
        assert el.counts in brute_force_reachable(prob).counts()
    say("ACCEPT-05 PASS frequency boost: 100 test-mode problems, each result "
        "within zeta = 1/3 of its target and present in the exhaustive "
        "reachable set")


def test_06_rearrangement_prefixes():
    rng = random.Random(0)
    d, eps = quad(3), quad(F(1, 2))
    done = 0
    while done < 1000:
        n = rng.randint(2, 12)
        devs = [F(rng.randint(-40, 40), 100) for _ in range(n)]
        tot = sum(devs)
        if abs(tot) >= F(1, 2):
            devs[-1] -= tot
            if abs(devs[-1]) >= F(1, 2):
                continue
        vals = [quad(3 + dv) for dv in devs]
        perm = rearrange_permutation(vals, d, eps)
        run = quad(0)
        for k, i in enumerate(perm, 1):
            run = run + vals[i]
            assert abs(d * k - run) < eps
        done += 1
    say("ACCEPT-06 PASS rearrangement: greedy ordering kept every prefix "
        "within eps on 1000 random valid instances")


def test_07_gcd_ladder_dichotomy():
    from flowtile.quadratic import gcd_ladder
    rng = random.Random(13)
    # 100 rationally dependent pairs: terminal equals the real gcd
    for _ in range(100):
        g = quad(F(rng.randint(1, 9), rng.randint(1, 9)))
        if rng.random() < 0.5:
            g = g * sqrtD()
        a = -g * rng.randint(1, 30)
        b = g * rng.randint(1, 30)
        rows, _ = gcd_ladder(a, b)
        ak, bk, _, _ = rows[-1]
        survivor = bk if ak.is_zero() else abs(ak)
        assert survivor == real_gcd(abs(a), b)
    # lattice membership at the recipe's threshold, verified by enumeration
    checked = 0
    for d_int, lohi in ((3, 1), (4, 1), (5, 2), (6, 2), (4, 2)):
        d = quad(d_int)
        eps = quad(lohi) + F(1, 2)
        r = [TileVector(d_int - lohi, 0), TileVector(d_int, 0),
             TileVector(d_int + lohi, 0)]
        x, y = quad(d_int - lohi), quad(d_int + lohi)
        assert abs(x - d) < eps
        n, c, case = lattice_threshold(1, eps, quad(F(1, 2)), d, x, y)
        assert case == "lattice" and c == real_gcd(abs(x - d), y - d)
        prob = ShiftProblem(P, eps, [d] * n, [r] * n)
        vals = {el.value for el in enumerate_reachable(prob).elements}
        k = 1
        while abs(c * k) < eps:
            for s in (k, -k):
                target = d * n + c * s
                if abs(target - d * n) < eps:
                    assert target in vals, (d_int, lohi, s)
            k += 1
        assert d * n in vals
        checked += 1
    assert checked >= 4
    say(f"ACCEPT-07 PASS gcd ladder: 100 dependent pairs end at their exact "
        f"gcd; lattice points around n*d all reachable at the recipe "
        f"threshold on {checked} enumerated instances")


def test_08_block_structure():
    # exactly-two-subclass nesting for threshold lists up to length 5
    for length in (2, 3, 4, 5):
        ks = [quad(2 * 2 ** i) for i in range(length)]
        pts, _ = two_class_block(ks)
        w = OrbitWindow(pts)
        for i in range(length - 1):
            for cls in chain_classes(w, ks[i + 1]).classes:
                sub = chain_classes(OrbitWindow([pts[j] for j in cls]), ks[i])
                assert len(sub.classes) == 2
    # insertion posts on 50 sparse windows
    ks = [quad(2), quad(4), quad(8), quad(16), quad(32)]
    eps = quad(1)
    mids = level_midpoints(ks)
    for seed in range(50):
        rng = random.Random(seed)
        pos = [quad(0)]
        for _ in range(25):
            pos.append(pos[-1] + quad(rng.choice([10, 100, 1000])))
        w = OrbitWindow(pos)
        out = insert_blocks(w, ks, eps)
        levels = []
        for g in out.gaps():
            assert ks[0] < g                                    # post (i)
            lev = next((i for i, m in enumerate(mids)
                        if abs(g - m) < eps), None)
            assert lev is not None                              # post (iii)
            levels.append(lev)
        for n in sorted(set(levels)):                           # post (ii)
            runs, cur = [], None
            for j, lev in enumerate(levels):
                if lev <= n:
                    cur = [j, j] if cur is None else [cur[0], j]
                else:
                    if cur is not None:
                        runs.append((tuple(cur), True))
                    cur = None
            if cur is not None:
                runs.append((tuple(cur), False))
            for idx, ((lo, hi), closed) in enumerate(runs):
                if lo > 0 and closed:
                    assert any(levels[j] == n for j in range(lo, hi + 1))
        assert set(map(str, pos)) <= set(map(str, out.positions))
    say("ACCEPT-08 PASS block structure: exactly-two-subclass nesting for "
        "threshold lists up to length 5; insertion posts (i)-(iii) hold on "
        "50 sparse windows")


def test_09_class_preservation():
    sched = build_schedule(P, depth=2, k_seq=[quad(7), quad(11), quad(25)])
    count = 0
    for seed in range(10):
        rng = random.Random(seed)
        pos = [quad(0)]
        for _ in range(24):
            pos.append(pos[-1] + quad(rng.choice([41, 401])))
        w = insert_blocks(OrbitWindow(pos), sched.K, quad(1))
        before = [tuple(len(c) for c in chain_classes(w, k).classes)
                  for k in sched.K]
        t = sparse_tile(w, sched)  # re-verifies signatures at every stage
        assert t.is_fully_regular()
        kept = OrbitWindow([p for p, o in zip(t.positions, t.orig_ids)
                            if o is not None])
        after = [tuple(len(c) for c in chain_classes(kept, k).classes)
                 for k in sched.K]
        assert before == after
        count += 1
    say(f"ACCEPT-09 PASS class preservation: chain-class cardinalities and "
        f"order unchanged at every threshold through every stage on "
        f"{count} multiscale windows (plus the per-stage checks inside "
        f"every pipeline run)")


def _random_regular_pair(rng, n_letters):
    letters = [rng.choice("ab") for _ in range(n_letters)]
    other = letters[:]
    rng.shuffle(other)

    def build(ls):
        pos = [quad(0)]
        for ch in ls:
            pos.append(pos[-1] + (P.alpha if ch == "a" else P.beta))
        t = TiledSection(P, pos, list(ls), [1] * len(pos),
                         list(range(len(pos))))
        t.origin_pos = {i: p for i, p in enumerate(pos)}
        return t

    return build(letters), build(other)


def test_10_loe_assembly():
    rng = random.Random(21)
    for trial in range(50):
        t1, t2 = _random_regular_pair(rng, rng.randint(20, 80))
        m = build_loe(t1, t2)
        rep = verify_loe(m, P)
        assert rep.ok, rep.failures
        for piece in m.pieces:
            assert piece.length == (P.alpha if piece.kind == "a" else P.beta)
    # residue decay on equal-frequency index sets
    def rotation_set(n, num, den, offset=0):
        return [i for i in range(n) if (offset + (i + 1) * num) % (2 * den) < den]

    fracs = []
    for n in (100, 1000, 10000):
        a = rotation_set(n, 377, 610)
        b = rotation_set(n, 233, 377, offset=89)
        st = match_equidense(a, b)
        fracs.append(F(len(st.residue_a) + len(st.residue_b), len(a) + len(b)))
    assert fracs[0] > fracs[1] > fracs[2]
    say(f"ACCEPT-10 PASS orbit maps: 50 tiled pairs map with exact "
        f"type/length preservation; matching residue fractions "
        f"{[str(f) for f in fracs]} decrease across sizes 10^2, 10^3, 10^4")


def test_11_density_witnesses(schedule4):
    total = 0
    for stage, band, wit in schedule4.witnesses:
        for k, (lo, hi, rep) in enumerate(wit.check_windows(10)):
            assert rep.ok, (stage, band, k, rep.witness)
            for m in wit.values_in(lo, hi):
                f = alpha_frequency(m)
                assert band.lo <= f <= band.hi
            total += 1
    say(f"ACCEPT-11 PASS density witnesses: all {len(schedule4.witnesses)} "
        f"schedule witnesses eps-dense on 10 disjoint width-20*beta windows "
        f"each ({total} window checks), members inside their bands")
