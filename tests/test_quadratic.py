"""Exact quadratic-field arithmetic: order, gcds, floors, the text form,
lattice keys and ``on_lattice``.  The parser is compared with
``oracles.parse_quadreal_reference``; ``on_lattice`` and ``lattice`` are
checked clause by clause with ``oracles.on_lattice_violations``."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtile import quadratic
from flowtile.quadratic import (ConfigError, QuadReal, format_quadreal,
                                gcd_ladder, lattice, lattice_key,
                                lattice_keys, lattice_order, on_lattice,
                                parse_quadreal, quad, quads, real_gcd, sqrtD)
from flowtile.tiles import Params
from oracles import on_lattice_violations, parse_quadreal_reference


def rationals(max_num=50, max_den=12):
    return st.builds(F, st.integers(-max_num, max_num), st.integers(1, max_den))


def quadreals():
    return st.builds(quad, rationals(), rationals())


class TestCompare:
    def test_one_below_root_two(self):
        assert (quad(1) - sqrtD()).sign() == -1

    def test_identity(self):
        assert (quad(3) - quad(3)).sign() == 0

    def test_five_root_two_above_seven(self):
        # sign oracle: square both sides, 50 > 49
        assert (5 * 5 * 2) > (7 * 7)
        assert (quad(0, 5) - quad(7)).sign() == 1

    @settings(max_examples=150, deadline=None)
    @given(quadreals(), quadreals(), quadreals())
    def test_total_order_compatible_with_addition(self, a, b, c):
        lt = a < b
        assert lt == ((a + c) < (b + c))
        # trichotomy
        assert (a < b) + (a == b) + (b < a) == 1

    def test_mixed_radicand_rejected(self):
        with pytest.raises(ConfigError):
            _ = quad(0, 1, 2) + quad(0, 1, 3)

    def test_rational_mixes_with_any_radicand(self):
        assert quad(2, 0, 3) + quad(0, 1, 2) == quad(2, 1, 2)


class TestRealGcd:
    def test_rational_gcd(self):
        assert real_gcd(quad(F(3, 2)), quad(F(1, 2))) == quad(F(1, 2))

    def test_independent_pair_is_zero(self):
        assert real_gcd(quad(1), sqrtD()).is_zero()

    def test_common_radical_factor(self):
        assert real_gcd(quad(0, 3), quad(0, 2)) == sqrtD()

    @settings(max_examples=100, deadline=None)
    @given(rationals(20, 8), rationals(20, 8), st.integers(1, 6),
           st.integers(1, 6))
    def test_divides_with_integer_quotients(self, r, s, m, n):
        base = quad(r, s)
        if base.is_zero():
            return
        a, b = base * m, base * n
        g = real_gcd(a, b)
        assert not g.is_zero()
        qa, qb = a / g, b / g
        assert qa.is_rational() and qa.r.denominator == 1
        assert qb.is_rational() and qb.r.denominator == 1

    @settings(max_examples=80, deadline=None)
    @given(rationals(12, 6), rationals(12, 6), rationals(8, 5))
    def test_scaling(self, r, s, k):
        a, b = quad(r, F(1, 3)), quad(s, F(2, 5))
        g = real_gcd(a, b)
        assert real_gcd(a * k, b * k) == g * abs(k)


class TestTextForm:
    @pytest.mark.parametrize("text", [
        "0", "5", "-3/2", "sqrt(2)", "-sqrt(2)", "1/3 + 2/7*sqrt(2)",
        "3/2 - 1/2*sqrt(2)", "-2 + sqrt(2)",
    ])
    def test_parse_canonical(self, text):
        assert format_quadreal(parse_quadreal(text)) == text

    @settings(max_examples=150, deadline=None)
    @given(quadreals())
    def test_round_trip(self, x):
        assert parse_quadreal(format_quadreal(x)) == x

    def test_mixed_radicand_literal_rejected(self):
        with pytest.raises(ValueError):
            parse_quadreal("sqrt(2) + sqrt(3)")

    @pytest.mark.parametrize("value,found", [
        ([1], "a list"), (7, "an int"), (None, "null"),
        (list(range(1000)), "a list")], ids=["list", "int", "none", "long"])
    def test_non_string_literal_rejected(self, value, found):
        # the message names the JSON type found, not the value
        with pytest.raises(ValueError) as err:
            parse_quadreal(value)
        message = str(err.value)
        assert message == f"QuadReal literal must be a string: got {found}"
        assert "\n" not in message and len(message.encode()) < 100


class TestFloor:
    @settings(max_examples=200, deadline=None)
    @given(quadreals())
    def test_floor_brackets_value(self, x):
        n = x.floor()
        assert quad(n) <= x < quad(n + 1)

    def test_near_integer_cases(self):
        assert (sqrtD() * sqrtD()).floor() == 2
        assert (sqrtD() * 12 - 17 + 17).floor() == 16  # 12*sqrt2 = 16.97..
        assert quad(-7, 0).floor() == -7
        assert (-sqrtD()).floor() == -2


def at_key_widths(*cases):
    """An @example of each (pairs, c, d) case at KEY_BITS 0, 5 and 32."""
    def stack(test):
        for pairs, c, d in cases:
            for bits in (0, 5, 32):
                test = example(pairs, c, d, bits)(test)
        return test
    return stack


# Pell near-ties 1393u - 985u*sqrt(2), about 3.6e-4 * u, beside 0 and 1:
# at 0 and 5 bits their keys put all of them above 1
PELL = [(1393 * u, -985 * u) for u in range(-5, 6)] + [(0, 0), (1, 0)] + [
    (1 + 1393 * u, -985 * u) for u in range(-5, 6)]


class TestLatticeKeys:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                              st.integers(-40, 40)), max_size=12),
           st.integers(1, 30), st.sampled_from([2, 3]),
           st.sampled_from([0, 5, 32]))
    # two values whose keys tie, in reverse index order: 2*sqrt(2) - 1 and
    # 3 - sqrt(2) both have the key 1 at 0 bits
    @example([(-1, 2), (3, -1)], 1, 2, 0)
    # keys one apart, values in reverse order: sqrt(3) and 3 - sqrt(3) have
    # the screened keys 1 and 2 at 0 bits, within the margin 2*max|y| = 2
    @example([(0, 1), (3, -1)], 1, 3, 0)
    @at_key_widths((PELL, 1, 2),
                   # repeated values
                   ([(3, -1), (-1, 2), (3, -1), (3, -1), (-1, 2)], 1, 2),
                   # all-zero ys: the screen is exact, with no margin
                   ([(5, 0), (-2, 0), (5, 0), (0, 0)], 3, 3),
                   ([(7, 3)], 1, 2),
                   ([], 1, 2))
    def test_keys_and_order_match_quadreal(self, pairs, c, d, bits):
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        values = [QuadReal._raw(x, y, c, d) for x, y in pairs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            keys = lattice_keys(xs, ys, c, d)
            assert keys == [lattice_key(x, y, c, d) for x, y in pairs]
            assert keys == [(v * 2 ** bits).floor() for v in values]
            # a stable sort: equal values keep their index order
            assert lattice_order(xs, ys, d) == sorted(
                range(len(values)), key=values.__getitem__)

    def test_sign_of_only_for_keys_within_the_margin(self, monkeypatch):
        # at 0 bits the screened keys of 1 + sqrt(2), 3 + sqrt(2) and 6
        # (twice) are 2, 4, 6 and 6, against a margin of 2*max|y| = 2: the
        # steps of 2 are decided by the screen, and only the tied pair
        # meets the exact test
        seen = []
        exact = quadratic.sign_of

        def counted(a, b, d):
            seen.append((a, b, d))
            return exact(a, b, d)

        monkeypatch.setattr(quadratic, "KEY_BITS", 0)
        monkeypatch.setattr(quadratic, "sign_of", counted)
        assert lattice_order([6, 1, 3, 6], [0, 1, 1, 0], 2) == [1, 2, 0, 3]
        assert seen and set(seen) == {(0, 0, 2)}
        seen.clear()
        assert lattice_order([3, 1, 6], [1, 1, 0], 2) == [1, 0, 2]
        assert seen == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10 ** 9, 10 ** 9),
                              st.integers(-10 ** 9, 10 ** 9)), max_size=20),
           st.integers(1, 400), st.sampled_from([2, 3]))
    def test_quads_match_raw(self, pairs, c, d):
        # the same normalized triples, so equal values and equal hashes
        got = quads([x for x, _ in pairs], [y for _, y in pairs], c, d)
        want = [QuadReal._raw(x, y, c, d) for x, y in pairs]
        assert [(v.a, v.b, v.c, v.d) for v in got] == [
            (v.a, v.b, v.c, v.d) for v in want]
        assert all(type(v) is QuadReal for v in got)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1,
                    max_size=40), st.sampled_from([2, 3, 5, 7]),
           st.sampled_from([0, 32]))
    def test_root_floors_of_wide_coefficients(self, ys, d, bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", bits)
            assert lattice_keys([0] * len(ys), ys, 1, d) == [
                lattice_key(0, y, 1, d) for y in ys]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_root_floor_near_an_integer_falls_back(self, sign):
        # y*sqrt(2) lies 3e-10 above the integer 1855077841 (a Pell
        # pair), closer than the fixed-point bracket resolves: the exact
        # floor settles it
        ys = [sign * 1311738121, sign * 5]
        calls = []
        floor_of = quadratic.floor_of

        def counted(*args):
            calls.append(args)
            return floor_of(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "KEY_BITS", 0)
            want = [lattice_key(0, y, 1, 2) for y in ys]
            mp.setattr(quadratic, "floor_of", counted)
            assert lattice_keys([0, 0], ys, 1, 2) == want
        assert want[0] == (1855077841 if sign > 0 else -1855077842)
        assert calls == [(0, ys[0], 1, 2)]


class TestLadder:
    def test_rational_pair(self):
        rows, coeffs = gcd_ladder(quad(-3), quad(2))
        a1, b1, l1, lp1 = rows[0]
        assert (a1, b1, l1, lp1) == (quad(-1), quad(0), 1, 2)
        assert abs(a1) == real_gcd(quad(3), quad(2))

    def test_independent_pair_shrinks_below_delta(self):
        delta = quad(F(1, 100))
        rows, coeffs = gcd_ladder(quad(-1), sqrtD(), delta=delta)
        ak, bk, _, _ = rows[-1]
        assert abs(ak) < delta and bk < delta
        p, q, pp, qq = coeffs
        assert ak == quad(-1) * p + sqrtD() * q
        assert bk == quad(-1) * pp + sqrtD() * qq

    def test_negated_pair_terminates_immediately(self):
        b = quad(F(7, 3))
        rows, _ = gcd_ladder(-b, b)
        a1, b1, _, _ = rows[0]
        assert a1.is_zero() and b1 == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_terminal_matches_real_gcd(self, m, n):
        a, b = quad(-m), quad(n)
        rows, _ = gcd_ladder(a, b)
        ak, bk, _, _ = rows[-1]
        g = real_gcd(abs(a), b)
        survivor = bk if ak.is_zero() else abs(ak)
        assert survivor == g


def coords(x: QuadReal):
    return x.a, x.b, x.c, x.d


def signed_rationals():
    """Zero, units and non-unit fractions of either sign."""
    return st.one_of(st.just(F(0)), st.sampled_from([F(1), F(-1)]),
                     rationals(400, 60))


class TestParserOracle:
    @settings(max_examples=300, deadline=None)
    @given(signed_rationals(), signed_rationals(), st.sampled_from([2, 3]))
    def test_canonical_forms_read_alike(self, r, s, d):
        text = format_quadreal(quad(r, s, d))
        assert coords(parse_quadreal(text)) == \
            coords(parse_quadreal_reference(text))
        assert coords(parse_quadreal(text, d)) == \
            coords(parse_quadreal_reference(text, d))

    @pytest.mark.parametrize("text", [
        "3 + 4", "00", " 1 ", "- sqrt(2)", "1 + sqrt(2) + sqrt(2)",
        "\u0661\u0662/\u0663 + \u0664*sqrt(\u0662)", "sqrt(2) - sqrt(2)",
        "1  +  2", "-0", "1 + -2", "sqrt(02)", "-1/2*sqrt(3) + 5",
        "1 + sqrt(2) + 3/4", "7/14 - 3/6*sqrt(2)", "2*sqrt(8)", "1\n",
        "1 + sqrt(2)\n", "-sqrt(3)",
    ])
    def test_non_canonical_forms_read_alike(self, text):
        assert coords(parse_quadreal(text)) == \
            coords(parse_quadreal_reference(text))

    @pytest.mark.parametrize("value,d", [
        ("+1", None), ("1/2/3", None), ("1 - -sqrt(2)", None),
        ("1 - - 2", None), ("1+2", None), ("1 +", None), ("1 \t+ 2", None),
        ("sqrt(2) + sqrt(3)", None), ("1 + 2*sqrt(3) - sqrt(2)", None),
        ("sqrt(3)", 2), ("1 + sqrt(2)", 3), ("", None), ("   ", None),
        (None, None), (7, None), ([1], None), (F(1, 2), None),
    ])
    def test_rejected_literals_raise_value_error(self, value, d):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_quadreal_reference(value, d)
        with pytest.raises(ValueError):
            parse_quadreal(value, d)


class TestDegenerateLiterals:
    @pytest.mark.parametrize("text", [
        "sqrt(0)", "sqrt(1)", "2*sqrt(4)", "-sqrt(9)", "1 + sqrt(16)",
        "1 - 1/2*sqrt(1)", "sqrt(00)",
    ])
    def test_square_radicand_rejected(self, text):
        with pytest.raises(ValueError, match="perfect square"):
            parse_quadreal(text)

    @pytest.mark.parametrize("text", [
        "1/0", "0/0", "-3/0", "1/0*sqrt(2)", "1 + 1/0*sqrt(2)", "2 - 1/0",
    ])
    def test_zero_denominator_is_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_quadreal(text)

    def test_square_radicand_cannot_pose_as_irrational(self):
        # sqrt(4) == 2 would make beta = 2 * alpha, rationally dependent
        with pytest.raises(ValueError):
            Params(quad(1), parse_quadreal("sqrt(4)"), F(1, 2))

    def test_non_square_radicand_still_read(self):
        assert coords(parse_quadreal("sqrt(8)")) == (0, 1, 1, 8)


class TestConstructorRadicand:
    @pytest.mark.parametrize("d", [-2, 0, 1, 4, 9, 16, 2.0, "2"])
    def test_bad_radicand_rejected(self, d):
        for build in (lambda: QuadReal(1, 1, d), lambda: quad(1, 0, d),
                      lambda: sqrtD(d)):
            with pytest.raises(ValueError, match="radicand"):
                build()

    def test_square_radicand_cannot_pose_as_irrational(self):
        # the three expressions were accepted before: Params took beta =
        # sqrt(4) = 2 * alpha as independent, sqrt(4) == 2 was False and
        # sqrt(0) had sign 1
        with pytest.raises(ValueError):
            Params(quad(1), sqrtD(4), F(1, 2))
        with pytest.raises(ValueError):
            sqrtD(4) == 2
        with pytest.raises(ValueError):
            sqrtD(0).sign()

    @pytest.mark.parametrize("d", [None, 2, 3, 5, 8, 12])
    def test_non_square_radicands_build(self, d):
        x = sqrtD(d)
        assert x.d == (2 if d is None else d) and x.sign() == 1
        assert quad(F(1, 2), 3, d) == quad(F(1, 2), 3, d)
        assert x * x == (2 if d is None else d)


@st.composite
def held_coordinates(draw):
    """(c, d, xs, ys) for c up to 13, d of 2 or 3, and rational (every y
    zero) or irrational coordinates."""
    c = draw(st.integers(1, 13))
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    ys = ([0] * n if draw(st.booleans()) else
          draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)))
    return c, d, xs, ys


@st.composite
def value_groups(draw):
    """One to three groups, each rational or irrational of one radicand,
    2 or 3, with denominators up to 13; only the last must be nonempty."""
    k = draw(st.integers(1, 3))
    out = []
    for i in range(k):
        s = (st.just(F(0)) if draw(st.booleans())
             else rationals(20, 13))
        value = st.builds(quad, rationals(20, 13), s,
                          st.just(draw(st.sampled_from([2, 3]))))
        out.append(draw(st.lists(value, min_size=int(i == k - 1),
                                 max_size=4)))
    return out


def called(fn, *args):
    """What a call returned, or the exception it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return e


class TestOnLatticeDefinition:
    @settings(max_examples=400, deadline=None)
    @given(held_coordinates(), value_groups(), st.booleans())
    def test_meets_its_definition(self, held, groups, as_tuples):
        # held lists or tuples, as sections and windows hold them
        c, d, xs, ys = held
        if as_tuples:
            xs, ys = tuple(xs), tuple(ys)
        got = called(on_lattice, c, d, xs, ys, *groups)
        assert on_lattice_violations(c, d, xs, ys, groups, got) == []

    @settings(max_examples=300, deadline=None)
    @given(value_groups())
    def test_lattice_meets_the_definition_with_nothing_held(self, groups):
        got = called(lattice, *groups)
        if not isinstance(got, Exception):
            c, d, coords = got
            got = c, d, (), (), coords
        assert on_lattice_violations(1, 2, (), (), groups, got) == []

    def test_held_radicand_conflict_text(self):
        # the positions 0, 7 and 15 + sqrt(2), with the value sqrt(3)
        with pytest.raises(ConfigError, match=r"^mixed radicands: "
                                              r"sqrt\(2\) vs sqrt\(3\)$"):
            on_lattice(1, 2, [0, 7, 15], [0, 0, 1], [quad(0, 1, 3)])
