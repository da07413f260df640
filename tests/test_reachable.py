import random
from fractions import Fraction as F

import pytest

from flowtile.quadratic import quad, real_gcd, sqrtD
from flowtile.reachable import (BoostError, ShiftProblem, boost_length_bound,
                                brute_force_reachable, enumerate_reachable,
                                frequency_boost, lattice_threshold,
                                rearrange_permutation)
from flowtile.tiles import (TileVector, alpha_frequency, default_params,
                            enumerate_tileable)

P = default_params()


def menu_near(d, eps):
    return [v for v in enumerate_tileable(P, d - eps, d + eps)
            if abs(v.value(P) - d) < eps]


# a choice set containing all four (value side x frequency side) quadrants
# around d=12, eps=1, for rho=1/2, eta=1/4
MIXED = [TileVector(0, 8), TileVector(0, 9), TileVector(1, 8), TileVector(2, 7),
         TileVector(9, 2), TileVector(10, 1), TileVector(10, 2),
         TileVector(11, 1)]


class TestReachableSets:
    def test_two_gap_example(self):
        r = [TileVector(3, 0), TileVector(2, 1)]
        prob = ShiftProblem(P, quad(F(1, 2)), [quad(3), quad(3)], [r, r])
        got = enumerate_reachable(prob)
        assert got.values() == [quad(6), quad(5) + sqrtD()]
        # (2,1)+(2,1) rejected: first prefix fine, total strays by 2*sqrt2-2
        assert quad(4) + sqrtD() * 2 not in got

    def test_single_gap_singleton(self):
        prob = ShiftProblem(P, quad(F(1, 2)), [quad(3)], [[TileVector(3, 0)]])
        assert enumerate_reachable(prob).values() == [quad(3)]

    def test_zero_deviation_selection(self):
        d = quad(12)
        rk = menu_near(d, quad(1))
        assert TileVector(12, 0) in rk
        prob = ShiftProblem(P, quad(1), [d] * 4, [rk] * 4)
        assert quad(48) in enumerate_reachable(prob)

    def test_empty_choice_set_empty_result(self):
        prob = ShiftProblem(P, quad(1), [quad(12), quad(12)],
                            [menu_near(quad(12), quad(1)), []])
        assert len(enumerate_reachable(prob)) == 0
        assert len(brute_force_reachable(prob)) == 0

    def test_witnesses_replay(self):
        prob = ShiftProblem(P, quad(1), [quad(12)] * 5, [MIXED] * 5)
        got = enumerate_reachable(prob)
        assert got.replay_ok()

    def test_oracle_equivalence_sample(self):
        rng = random.Random(2)
        full = menu_near(quad(12), quad(1))
        for _ in range(50):
            n = rng.randint(1, 6)
            gaps, choices = [], []
            for _ in range(n):
                d = quad(12 + F(rng.randint(-32, 32), 64))
                cand = [v for v in full if abs(v.value(P) - d) < quad(1)]
                rng.shuffle(cand)
                gaps.append(d)
                choices.append(cand[:rng.randint(1, 4)])
            prob = ShiftProblem(P, quad(1), gaps, choices)
            assert enumerate_reachable(prob).counts() == \
                brute_force_reachable(prob).counts()

    def test_budget_guard(self):
        full = menu_near(quad(12), quad(1))
        prob = ShiftProblem(P, quad(1), [quad(12)] * 8, [full] * 8)
        with pytest.raises(ValueError):
            brute_force_reachable(prob, budget=1000)

    def test_additivity_constant_case(self):
        # x in A_m implies x + (n-m)*d in A_n when d is itself admissible
        d = quad(12)
        rk = sorted(set(MIXED + [TileVector(12, 0)]))
        small = ShiftProblem(P, quad(1), [d] * 3, [rk] * 3)
        big = ShiftProblem(P, quad(1), [d] * 5, [rk] * 5)
        a3 = enumerate_reachable(small)
        a5 = enumerate_reachable(big).counts()
        for el in a3.elements:
            assert (el.counts + TileVector(24, 0)) in a5


class TestRearrange:
    def test_identity_on_constant_values(self):
        vals = [quad(3)] * 5
        assert rearrange_permutation(vals, quad(3), quad(F(1, 2))) == \
            [0, 1, 2, 3, 4]

    def test_descending_input(self):
        d, eps = quad(3), quad(F(1, 2))
        vals = sorted([quad(3 + F(2, 5)), quad(3 + F(3, 10)),
                       quad(3 - F(7, 20)), quad(3 - F(7, 20))],
                      key=float, reverse=True)
        perm = rearrange_permutation(vals, d, eps)
        run = quad(0)
        for k, i in enumerate(perm, 1):
            run = run + vals[i]
            assert abs(d * k - run) < eps

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            rearrange_permutation([quad(4)], quad(3), quad(F(1, 2)))

    def test_random_instances(self):
        rng = random.Random(0)
        d, eps = quad(3), quad(F(1, 2))
        done = 0
        while done < 300:
            n = rng.randint(2, 12)
            devs = [F(rng.randint(-40, 40), 100) for _ in range(n)]
            tot = sum(devs)
            if abs(tot) >= F(1, 2):
                devs[-1] -= tot
                if abs(devs[-1]) >= F(1, 2):
                    continue
            vals = [quad(3 + dv) for dv in devs]
            perm = rearrange_permutation(vals, d, eps)
            assert sorted(perm) == list(range(n))
            run = quad(0)
            for k, i in enumerate(perm, 1):
                run = run + vals[i]
                assert abs(d * k - run) < eps
            done += 1


class TestBoost:
    def test_length_bound_example(self):
        # M1: smallest natural above (5+2)/(1/2) * 2*sqrt2 = 28*sqrt2 ~ 39.6
        # M2: smallest natural above (40*5+2)/(1/2) * 2*sqrt2 = 808*sqrt2
        m1 = ((quad(5) + 2) * 2 * 2 * sqrtD()).floor() + 1
        assert m1 == 40
        assert 1142 ** 2 < 808 ** 2 * 2 < 1143 ** 2
        assert boost_length_bound(P, quad(5), F(1, 2)) == 40 + 1143

    def test_length_bound_monotone(self):
        assert boost_length_bound(P, quad(5), F(1, 4)) > \
            boost_length_bound(P, quad(5), F(1, 2))
        assert boost_length_bound(P, quad(9), F(1, 2)) > \
            boost_length_bound(P, quad(5), F(1, 2))

    def test_bound_enforced(self):
        prob = ShiftProblem(P, quad(1), [quad(12)] * 4, [MIXED] * 4)
        with pytest.raises(ValueError):
            frequency_boost(prob, F(1, 2), F(1, 3), F(1, 4))

    def test_boost_hits_band_and_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(4, 6)
            prob = ShiftProblem(P, quad(1), [quad(12)] * n, [MIXED] * n)
            gamma = F(1, 2) + F(rng.randint(-5, 5), 40)
            el = frequency_boost(prob, gamma, F(1, 3), F(1, 4),
                                 enforce_bound=False)
            assert abs(alpha_frequency(el.counts) - gamma) <= F(1, 3)
            assert el.counts in brute_force_reachable(prob).counts()

    @pytest.mark.parametrize("enforce_bound", [True, False])
    def test_empty_problem_refused(self, enforce_bound):
        prob = ShiftProblem(P, quad(1), [], [])
        with pytest.raises(ValueError,
                           match="^shift problem has no gaps to boost$"):
            frequency_boost(prob, F(1, 2), F(1, 3), F(1, 4),
                            enforce_bound=enforce_bound)

    def test_five_gaps_land_at_22_49(self):
        # without the length bound: inside zeta 1/3 of gamma 1/2, but only
        # 5/98 from it
        prob = ShiftProblem(P, quad(1), [quad(12)] * 5, [MIXED] * 5)
        el = frequency_boost(prob, F(1, 2), F(1, 3), F(1, 4),
                             enforce_bound=False)
        assert el.counts == TileVector(22, 27)
        assert alpha_frequency(el.counts) == F(22, 49)
        assert len(el.witness) == 5
        assert all(y in MIXED for y in el.witness)
        assert el.value == el.counts.value(P)

    def test_missing_side_reported(self):
        onesided = [v for v in MIXED if alpha_frequency(v) <= F(1, 4)]
        prob = ShiftProblem(P, quad(1), [quad(12)] * 4, [onesided] * 4)
        with pytest.raises(BoostError) as ei:
            frequency_boost(prob, F(1, 2), F(1, 3), F(1, 4),
                            enforce_bound=False)
        assert ei.value.k == 0 and ei.value.side == "high"


class TestLatticeThreshold:
    def test_rational_lattice(self):
        # alpha-only values: everything lives on the integer lattice
        d, eps = quad(3), quad(F(3, 2))
        r = [TileVector(2, 0), TileVector(3, 0), TileVector(4, 0)]
        n, c, case = lattice_threshold(1, eps, quad(1), d, quad(2), quad(4))
        assert case == "lattice"
        assert c == real_gcd(quad(1), quad(1))
        prob = ShiftProblem(P, eps, [d] * n, [r] * n)
        vals = set()
        for el in enumerate_reachable(prob).elements:
            vals.add(el.value)
        for k in range(-1, 2):
            target = d * n + k
            if abs(target - d * n) < eps:
                assert target in vals

    def test_dense_case_for_independent_pair(self):
        d, eps = quad(12), quad(1)
        n, c, case = lattice_threshold(1, eps, quad(F(1, 10)), d,
                                       quad(12) - F(1, 8),
                                       quad(12) + sqrtD() * F(1, 24))
        assert case == "dense"
        assert c.is_zero()
