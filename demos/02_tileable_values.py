"""Tileable values, frequencies, and banded density.

A value p*alpha + q*beta with natural counts can tile an interval with p
short and q long tiles; its alpha-frequency is p/(p+q).  High enough up
the half-line, even frequency-banded tileables become eps-dense -- and the
package does not just assert that, it hands back a finite generator
family you can check on any window.
"""

from fractions import Fraction as F

from flowtile import (FreqBand, TileVector, alpha_frequency, balanced_word,
                      default_params, density_witness, enumerate_tileable,
                      eps_dense, quad)

P = default_params()
print(f"alpha = {P.alpha}, beta = {P.beta}, rho = {P.rho}")

print("\n== tileables up to 6 ==")
for v in enumerate_tileable(P, quad(0), quad(6)):
    f = "-" if v.is_zero() else alpha_frequency(v)
    print(f"  ({v.p},{v.q})  value {str(v.value(P)):>16}  frequency {f}")

print("\n== a balanced word spreads its letters evenly ==")
w = balanced_word(TileVector(5, 8))
print(f"  counts (5,8) -> {w}")

print("\n== banded density witness ==")
band = FreqBand(F(1, 2), F(5, 8))
wit = density_witness(P, quad(F(1, 2)), band)
print(f"  band [{band.lo}, {band.hi}], eps = 1/2")
print(f"  threshold N = {wit.threshold}  ({wit.threshold.approx()})")
print(f"  {wit.describe()}")
lo = wit.threshold
hi = lo + 40
members = wit.values_in(lo, hi)
rep = eps_dense(P, members, lo, hi, quad(F(1, 2)))
print(f"  {len(members)} members on [N, N+40]; eps-dense there: {rep.ok}")
fs = sorted({alpha_frequency(m) for m in members})
print(f"  member frequencies range {fs[0]} .. {fs[-1]}, all inside the band")
