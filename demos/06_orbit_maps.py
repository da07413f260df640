"""Matching two tiled sections by a piecewise-translation orbit map.

Two sections tiled under the same parameters pair off: the k-th alpha gap
of one maps to the k-th alpha gap of the other, as far as the smaller
alpha count goes, and beta gaps follow by conjugating through each
section's own alpha-to-beta matching.  Every piece is a pure translation
of length alpha or beta, so the map preserves length piece by piece;
whatever the finite matching leaves over, the alpha surplus included, is
reported as residue rather than swept away.  The map is checked on its
own (``verify_loe``) and against both sections (``cover_failures``); the
demo exits non-zero with the failure lines when either check fails.
"""

import sys
from fractions import Fraction as F

from flowtile import (GeneratorSpec, build_loe, build_schedule,
                      cover_failures, default_params, full_pipeline,
                      generate, match_equidense, verify_loe)

P = default_params()
sched = build_schedule(P, depth=2)

print("== equidense matching by successor steps ==")
evens = list(range(0, 40, 2))
odds = list(range(1, 40, 2))
st = match_equidense(evens, odds)
print(f"  evens vs odds on 40 indices: all matched at displacement 1: "
      f"{all(st.pairing[a] == a + 1 for a in evens)}")
print(f"  residue: {len(st.residue_a)} + {len(st.residue_b)}")

print("\n== residue decays as windows grow ==")
def rotation_set(n, num, den, offset=0):
    return [i for i in range(n) if (offset + (i + 1) * num) % (2 * den) < den]

for n in (100, 1000, 10000):
    a = rotation_set(n, 377, 610)
    b = rotation_set(n, 233, 377, offset=89)
    st = match_equidense(a, b)
    frac = F(len(st.residue_a) + len(st.residue_b), len(a) + len(b))
    print(f"  n = {n:>5}: residue fraction {frac} ({float(frac):.5f})")

print("\n== a translation map between two independently tiled windows ==")
def tiled(seed):
    w = generate(GeneratorSpec("uniform", count=200, seed=seed, k0=sched.K[0]))
    return full_pipeline(w, sched, seed=seed)

t1, t2 = tiled(5), tiled(6)
for name, t in (("source", t1), ("target", t2)):
    n = len(t.letters)
    print(f"  {name}: {n} gaps, alpha frequency "
          f"{F(t.letters.count('a'), n)}")

m = build_loe(t1, t2)
rep = verify_loe(m, P)
cover = cover_failures(m, t1, t2)
print(f"  pieces: {rep.piece_count}; verified: {rep.ok}; "
      f"matches both sections: {not cover}")
total = rep.mapped_length
print(f"  mapped length (each piece is one translation): {total} "
      f"({total.approx()})")
for name, t, residue in (("source", t1, m.residue_src),
                         ("target", t2, m.residue_dst)):
    alphas = sum(t.letters[i] == "a" for i in residue)
    print(f"  {name} residue: {len(residue)} gaps ({alphas} alpha, "
          f"{len(residue) - alphas} beta) await a longer window")
if rep.failures or cover:
    sys.exit("\n".join(rep.failures + cover))
