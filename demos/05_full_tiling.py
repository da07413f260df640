"""The full pipeline: a bounded-gap window becomes a two-valued section.

Stage one pairs up well-spaced neighbors and tiles the pair gaps; the
finishing pass steers every remaining gap onto a tileable value while the
running deviation stays inside the stage corridor.  Afterwards every
interior gap is exactly alpha or beta, no original point has moved by
min(alpha,1)/3 or more, and partition witnesses certify the uniform
alpha-frequency level by level.
"""

import time
from fractions import Fraction as F

from flowtile import (GeneratorSpec, alpha_frequency, build_schedule,
                      default_params, full_pipeline, generate, quad,
                      verify_uniform_frequency)

P = default_params()
print("building a depth-2 schedule (density assumptions verified, not trusted)")
sched = build_schedule(P, depth=2)
print(f"  chain thresholds K = {[str(k) for k in sched.K]}")
print(f"  stage corridors eps = {[str(e) for e in sched.eps[1:]]}")

w = generate(GeneratorSpec("uniform", count=400, seed=42, k0=sched.K[0]))
print(f"\ninput: {len(w)} points with gaps in [{sched.K[0] + 1}, {sched.K[0] + 2}]")

t0 = time.monotonic()
t = full_pipeline(w, sched, seed=42)
# the section holds integer coordinates; positions builds the exact
# values once
pos = t.positions
print(f"tiled in {time.monotonic() - t0:.2f}s -> {len(pos)} points")

gaps = [b - a for a, b in zip(pos, pos[1:])]
n_a = sum(1 for ch in t.letters if ch == "a")
print(f"gaps: {n_a} alpha + {len(gaps) - n_a} beta, all exact: "
      f"{all(g == P.alpha or g == P.beta for g in gaps)}")
print(f"overall alpha-frequency: {alpha_frequency(t.counts())} "
      f"({float(alpha_frequency(t.counts())):.4f})")

worst = max((abs(p - t.origin_pos[oid]) for p, oid in zip(pos, t.orig_ids)
             if oid is not None), key=float)
print(f"worst displacement of an original point: {worst.approx()} "
      f"(budget 1/3)")

for eta in (F(1, 4), F(1, 8)):
    rep = verify_uniform_frequency(t, eta)
    print(f"N({eta}) = {rep.n_eta}: every run of that many gaps has "
          f"frequency within {eta} of {P.rho}")
print("witnesses:", ", ".join(
    f"level {w_.level}: {len(w_.cuts) - 1} pieces <= {w_.max_value.approx()} "
    f"within {w_.eta}" for w_ in t.witnesses))
