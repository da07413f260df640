"""Orbit window generators.  Every kind is compared with
``oracles.generate_reference``, the ``QuadReal`` loops the lattice
generator replaced."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowtile.generators import GeneratorSpec, generate
from flowtile.quadratic import quad, sqrtD
from flowtile.windows import OrbitWindow, is_sparse_window
from oracles import generate_reference


class TestUniform:
    def test_reproducible_and_in_range(self):
        spec = GeneratorSpec("uniform", count=100, seed=7, k0=quad(7))
        w1, w2 = generate(spec), generate(spec)
        assert w1.positions == w2.positions
        assert len(w1) == 100
        for g in w1.gaps():
            assert quad(8) <= g <= quad(9)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec("uniform", count=50, seed=1, k0=quad(7)))
        b = generate(GeneratorSpec("uniform", count=50, seed=2, k0=quad(7)))
        assert a.positions != b.positions


class TestSparseGeometric:
    def test_sparse_predicate_holds(self):
        w = generate(GeneratorSpec("sparse_geometric", count=40, seed=1,
                                   k0=quad(7), ratio=2))
        assert is_sparse_window(w, quad(7 * 8))

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("sparse_geometric", count=10, ratio=1))


class TestK0:
    @pytest.mark.parametrize("kind,k0,least", [
        ("uniform", quad(-5), -1), ("uniform", quad(-1), -1),
        ("sparse_geometric", quad(0), 0), ("sparse_geometric", -sqrtD(), 0)])
    def test_k0_that_can_draw_a_gap_of_at_most_0_rejected(self, kind, k0,
                                                          least):
        with pytest.raises(ValueError, match=f"^k0 must exceed {least} for "
                           f"{kind} gaps to be positive, got "):
            generate(GeneratorSpec(kind, count=10, k0=k0))

    @pytest.mark.parametrize("kind,k0", [("uniform", quad(F(-63, 64))),
                                         ("sparse_geometric", quad(F(1, 64)))])
    def test_least_gaps_are_positive(self, kind, k0):
        w = generate(GeneratorSpec(kind, count=400, seed=2, k0=k0))
        assert min(w.gaps()) == quad(F(1, 64))


class TestRotation:
    def test_three_distance_gap_structure(self):
        w = generate(GeneratorSpec("rotation_suspension", count=60,
                                   angle=sqrtD() - 1))
        # 1/theta = sqrt(2) + 1: the visits are ceil(m/theta), two gaps apart
        assert set(w.gaps()) == {quad(2), quad(3)}

    def test_rational_angle_rejected(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("rotation_suspension", count=10,
                                   angle=quad(F(1, 3))))



def rationals(max_num, max_den):
    return st.builds(F, st.integers(-max_num, max_num), st.integers(1, max_den))


@st.composite
def k0s(draw, d):
    """None (the default 7), or a positive integer, fraction or irrational
    r + s*sqrt(d)."""
    shape = draw(st.sampled_from(["default", "integer", "fraction",
                                  "irrational"]))
    if shape == "default":
        return None
    if shape == "integer":
        return quad(draw(st.integers(1, 40)), 0, d)
    if shape == "fraction":
        return quad(F(draw(st.integers(1, 400)), draw(st.integers(2, 12))), 0, d)
    s = draw(rationals(60, 12).filter(bool))
    return abs(quad(draw(rationals(400, 12)), s, d))


@st.composite
def specs(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["uniform", "sparse_geometric",
                                 "rotation_suspension"]))
    count = draw(st.integers(1, 300))
    if kind != "rotation_suspension":
        k0 = draw(k0s(d))
        assume(k0 is None or k0.sign() > 0)
        return GeneratorSpec(kind, count, seed=draw(st.integers(0, 2 ** 32)),
                             k0=k0, ratio=draw(st.integers(2, 4)))
    x = quad(draw(rationals(400, 64)), draw(rationals(64, 64).filter(bool)), d)
    theta = x - x.floor()
    # the reference walks about count/theta orbit steps
    assume(count < 40_000 * theta)
    return GeneratorSpec(kind, count, angle=theta)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(specs())
    def test_generate_matches_reference_loops(self, spec):
        got = generate(spec)
        want = generate_reference(spec)
        assert got.to_json() == want.to_json()
        assert ([(p.a, p.b, p.c, p.d) for p in got.positions]
                == [(p.a, p.b, p.c, p.d) for p in want.positions])
        if spec.kind == "rotation_suspension":
            q = (1 / spec.angle).floor()
            assert set(got.gaps()) <= {quad(q), quad(q + 1)}


class TestCoordinateWindow:
    """A generated window holds the coordinates the ``QuadReal``
    constructor finds for its positions."""

    @settings(max_examples=200, deadline=None)
    @given(specs())
    def test_coordinates_match_quadreal_constructor(self, spec):
        w = generate(spec)
        u = OrbitWindow(w.positions)
        assert (w.c, w.d, w.xs, w.ys) == (u.c, u.d, u.xs, u.ys)
        assert type(w.xs) is tuple and type(w.ys) is tuple
        assert ([(p.a, p.b, p.c, p.d) for p in w.positions]
                == [(p.a, p.b, p.c, p.d) for p in u.positions])
        assert w.to_json() == u.to_json()
        back = OrbitWindow.from_json(w.to_json())
        assert back.positions == w.positions
        assert back.to_json() == w.to_json()
        assert (back.c, back.xs, back.ys) == (w.c, w.xs, w.ys)
        # a rational literal is read in the default radicand
        assert back.d == w.d or not any(w.ys)

    @settings(max_examples=100, deadline=None)
    @given(specs(), st.data())
    def test_constructors_reject_alike(self, spec, data):
        w = generate(spec)
        assume(len(w) >= 2)
        i = data.draw(st.integers(0, len(w) - 2))
        order = list(range(len(w)))
        if data.draw(st.booleans()):
            order[i], order[i + 1] = i + 1, i  # a swapped pair
        else:
            order[i] = i + 1  # a repeated point
        pos = w.positions
        xs, ys = [w.xs[k] for k in order], [w.ys[k] for k in order]
        for build in (lambda: OrbitWindow([pos[k] for k in order]),
                      lambda: OrbitWindow.from_lattice(w.c, w.d, xs, ys)):
            with pytest.raises(ValueError,
                               match="^positions must be strictly increasing$"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: OrbitWindow([]),
        lambda: OrbitWindow.from_lattice(1, 2, [], []),
        lambda: OrbitWindow.from_lattice(64, 3, (), ())],
        ids=["positions", "coordinates", "coordinates_over_64"])
    def test_empty_window_rejected(self, build):
        with pytest.raises(ValueError,
                           match="^window needs at least one point$"):
            build()

    def test_least_denominator_kept(self):
        # every position is an integer: the grid denominator 64 cancels
        w = OrbitWindow.from_lattice(64, 2, [0, 128, 320], [0, 0, 0])
        assert (w.c, w.xs, w.ys) == (1, (0, 2, 5), (0, 0, 0))
        w = OrbitWindow.from_lattice(12, 3, [0, 6, 9], [0, 3, 6])
        assert (w.c, w.xs, w.ys) == (4, (0, 2, 3), (0, 1, 2))
        u = OrbitWindow(w.positions)
        assert (u.c, u.d, u.xs, u.ys) == (w.c, w.d, w.xs, w.ys)
