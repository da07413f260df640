from fractions import Fraction as F

import pytest

from flowtile.generators import GeneratorSpec, generate
from flowtile.quadratic import quad, sqrtD
from flowtile.windows import OrbitWindow, is_sparse_window


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


class TestRotation:
    def test_three_distance_gap_structure(self):
        w = generate(GeneratorSpec("rotation_suspension", count=60,
                                   angle=sqrtD() - 1))
        distinct = {str(g) for g in w.gaps()}
        assert len(distinct) <= 3

    def test_rational_angle_rejected(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("rotation_suspension", count=10,
                                   angle=quad(F(1, 3))))

