"""Synthetic orbit windows standing in for cross sections of flows.

All positions are exact: random gaps are drawn from a rational grid
(default step 1/64), so every generated window lives in Q(sqrt(D)).
Generation is a pure function of the spec and its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import QuadReal, quad
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
        if self.kind == "rotation_suspension":
            if self.angle is None or self.angle.b == 0:
                raise ValueError("rotation angle must be irrational (s != 0)")
            if not (self.angle.sign() > 0 and self.angle < 1):
                raise ValueError("rotation angle must lie in (0, 1)")


def generate(spec: GeneratorSpec) -> OrbitWindow:
    spec.validate()
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        k0 = spec.k0 if spec.k0 is not None else quad(7)
        pos = [quad(0, 0, k0.d)]
        for _ in range(spec.count - 1):
            gap = k0 + 1 + Fraction(rng.randint(0, GRID), GRID)
            pos.append(pos[-1] + gap)
        return OrbitWindow(pos)
    if spec.kind == "sparse_geometric":
        k0 = spec.k0 if spec.k0 is not None else quad(7)
        pos = [quad(0, 0, k0.d)]
        for i in range(spec.count - 1):
            # cycle the scales so both window halves see every gap size
            level = i % LEVELS
            gap = k0 * (spec.ratio ** level) + Fraction(rng.randint(0, GRID), GRID)
            pos.append(pos[-1] + gap)
        return OrbitWindow(pos)
    # rotation_suspension: visit times of an exact circle rotation to [0, angle)
    theta = spec.angle
    pos = []
    j = 0
    x = quad(0, 0, theta.d)  # orbit point: fractional part of j*theta
    while len(pos) < spec.count:
        if x < theta:
            pos.append(quad(j, 0, theta.d))
        j += 1
        x = x + theta
        if not x < 1:
            x = x - 1
    return OrbitWindow(pos)
