"""Synthetic orbit windows standing in for cross sections of flows.

All positions are exact: random gaps are drawn from a rational grid
(default step 1/64), so every generated window lives in Q(sqrt(D)).
Generation is a pure function of the spec and its seed.

Every kind builds its window on integer lattice coordinates over one
denominator and the window holds those coordinates
(:meth:`OrbitWindow.from_lattice`); no ``QuadReal`` is made per point:

- ``uniform`` and ``sparse_geometric`` positions are running integer sums
  over ``lcm(k0.c, GRID)``, one ``rng.randint(0, GRID)`` draw per gap;
- ``rotation_suspension`` positions are the visit times of the circle
  rotation by an irrational angle theta in (0, 1) to [0, theta).  The
  m-th visit is at ``ceil(m/theta)``, a Beatty sequence, so every gap is
  ``floor(1/theta)`` or ``floor(1/theta) + 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .quadratic import QuadReal, floor_of, on_lattice, quad
from .windows import OrbitWindow

GRID = 64  # default rational grid denominator for random gaps
LEVELS = 4  # sparse_geometric distinct gap scales


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: a kind, the window size and seed, and the kind's
    own parameters."""

    kind: str                        # uniform | sparse_geometric | rotation_suspension
    count: int = 100
    seed: int = 0
    k0: QuadReal | None = None       # uniform: gaps drawn from [k0+1, k0+2]
    ratio: int = 2                   # sparse_geometric growth ratio
    angle: QuadReal | None = None    # rotation_suspension angle

    def validate(self):
        if self.kind not in ("uniform", "sparse_geometric", "rotation_suspension"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.kind == "sparse_geometric" and self.ratio < 2:
            raise ValueError("growth ratio must be at least 2")
        # the least gap is k0 + 1 for uniform and k0 for sparse_geometric
        least = {"uniform": -1, "sparse_geometric": 0}.get(self.kind)
        if least is not None and self.k0 is not None and self.k0 <= least:
            raise ValueError(f"k0 must exceed {least} for {self.kind} gaps to "
                             f"be positive, got {self.k0}")
        if self.kind == "rotation_suspension":
            if self.angle is None or self.angle.b == 0:
                raise ValueError("rotation angle must be irrational (s != 0)")
            if not (self.angle.sign() > 0 and self.angle < 1):
                raise ValueError("rotation angle must lie in (0, 1)")


def generate(spec: GeneratorSpec) -> OrbitWindow:
    spec.validate()
    if spec.kind == "rotation_suspension":
        # ceil(m/theta) = -floor(-m/theta), with 1/theta = (a + b*sqrt(d))/c
        inv = 1 / spec.angle
        a, b, c, d = inv.a, inv.b, inv.c, inv.d
        visits = [-floor_of(-m * a, -m * b, c, d) for m in range(spec.count)]
        return OrbitWindow.from_lattice(1, d, visits, [0] * spec.count)
    rng = random.Random(spec.seed)
    k0 = spec.k0 if spec.k0 is not None else quad(7)
    # gap i is k0 * scale[i % len(scale)] + offset + r_i/GRID, held as
    # (xs[i] + ys[i]*sqrt(d)) / c over c = lcm(k0.c, GRID).  Uniform gaps
    # lie in [k0+1, k0+2]; sparse scales cycle so both window halves see
    # every gap size
    c, d, _, _, [((kx,), (ky,))] = on_lattice(GRID, k0.d, (), (), [k0])
    step = c // GRID
    if spec.kind == "uniform":
        scale, offset = [1], c
    else:
        scale, offset = [spec.ratio ** level for level in range(LEVELS)], 0
    scales = [scale[i % len(scale)] for i in range(spec.count - 1)]
    xs = [kx * s + offset + step * rng.randint(0, GRID) for s in scales]
    ys = [ky * s for s in scales]
    return OrbitWindow.from_lattice(c, d, accumulate(xs, initial=0),
                                    accumulate(ys, initial=0))
