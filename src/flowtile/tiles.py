"""Tileable and tiled reals: two-letter tile vocabularies over Q(sqrt(D)).

A *tileable* value is ``p*alpha + q*beta`` with natural counts ``(p, q)``;
a *tiled* value additionally carries an ordered word over the two letters.
This module owns the frequency calculus on such values: exact alpha
frequencies, near/far flip tests against the target ratio ``rho``,
epsilon-density checks, and the constructive density witness family used
to certify that banded tileables fill every sufficiently high interval.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .quadratic import QuadReal, quad, real_gcd, sqrtD


class Params:
    """Tiling parameters: tile lengths alpha < beta and target ratio rho.

    alpha and beta must be rationally independent positive reals; rho is a
    rational strictly inside (0, 1).
    """

    __slots__ = ("alpha", "beta", "rho", "d", "_coef")

    def __init__(self, alpha: QuadReal, beta: QuadReal, rho: Fraction):
        rho = Fraction(rho)
        if not (alpha.sign() > 0 and beta.sign() > 0):
            raise ValueError("tile lengths must be positive")
        if not alpha < beta:
            raise ValueError("require alpha < beta")
        if not real_gcd(alpha, beta).is_zero():
            raise ValueError("alpha and beta must be rationally independent")
        if not (0 < rho < 1):
            raise ValueError("rho must lie strictly inside (0, 1)")
        self.alpha = alpha
        self.beta = beta
        self.rho = rho
        self.d = beta.d if beta.b else alpha.d
        # alpha and beta over one common denominator c:
        # p*alpha + q*beta == ((a1*p + a2*q) + (b1*p + b2*q)*sqrt(d)) / c
        c = alpha.c * beta.c // math.gcd(alpha.c, beta.c)
        ka, kb = c // alpha.c, c // beta.c
        self._coef = (alpha.a * ka, beta.a * kb, alpha.b * ka, beta.b * kb, c)

    def value(self, p: int, q: int) -> QuadReal:
        a1, a2, b1, b2, c = self._coef
        return QuadReal._raw(a1 * p + a2 * q, b1 * p + b2 * q, c, self.d)

    def __repr__(self):
        return f"Params(alpha={self.alpha}, beta={self.beta}, rho={self.rho})"


def default_params(rho: Fraction = Fraction(1, 2)) -> Params:
    """The stock configuration: alpha = 1, beta = sqrt(2)."""
    return Params(quad(1), sqrtD(), rho)


class TileVector(NamedTuple):
    """Counts (p alpha-tiles, q beta-tiles) of a tileable value."""

    p: int
    q: int

    def value(self, params: Params) -> QuadReal:
        return params.value(self.p, self.q)

    def __add__(self, other):  # type: ignore[override]
        return TileVector(self.p + other[0], self.q + other[1])

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0


def alpha_frequency(v: TileVector) -> Fraction:
    """Exact proportion p/(p+q) of alpha tiles; undefined on the zero vector."""
    if v.p + v.q == 0:
        raise ValueError("frequency of the zero vector is undefined")
    return Fraction(v.p, v.p + v.q)


@dataclass(frozen=True)
class FreqBand:
    """Closed frequency interval [lo, hi] inside [0, 1]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(f"band [{self.lo}, {self.hi}] not inside [0, 1]")


class TiledWord:
    """An ordered word over the letters 'a' (alpha) and 'b' (beta).

    The empty word is allowed and stands for the value zero.  Concatenation
    adds values and counts; it is associative but keeps letter order.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: str = ""):
        if any(ch not in "ab" for ch in letters):
            raise ValueError("letters must be 'a' or 'b'")
        self.letters = letters

    def counts(self) -> TileVector:
        return TileVector(self.letters.count("a"), self.letters.count("b"))

    def value(self, params: Params) -> QuadReal:
        return self.counts().value(params)

    def __add__(self, other: "TiledWord") -> "TiledWord":
        return TiledWord(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, TiledWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"TiledWord({self.letters!r})"


def balanced_word(v: TileVector) -> TiledWord:
    """The evenly interleaved word with counts v.

    Letters are distributed so that every factor of length m holds within
    one of m * p/(p+q) alpha letters, which keeps local frequencies as
    close to the global one as a word with these counts allows.
    """
    p, q = v
    n = p + q
    out = []
    acc = 0
    for i in range(1, n + 1):
        nxt = i * p // n
        out.append("a" if nxt > acc else "b")
        acc = nxt
    return TiledWord("".join(out))


def enumerate_tileable(params: Params, lo: QuadReal,
                       hi: QuadReal) -> list[TileVector]:
    """All tile vectors with lo <= p*alpha + q*beta <= hi, sorted by value."""
    if hi < lo:
        return []
    out: list[tuple[QuadReal, TileVector]] = []
    q = 0
    base = quad(0, 0, params.d)
    while not hi < base:
        # jump straight to the first p with value possibly >= lo
        p = max(0, ((lo - base) / params.alpha).floor())
        val = base + params.alpha * p
        while val < lo:
            p += 1
            val = val + params.alpha
        while not hi < val:
            if not val < lo:
                out.append((val, TileVector(p, q)))
            p += 1
            val = val + params.alpha
        q += 1
        base = base + params.beta
    out.sort(key=itemgetter(0))
    return [v for _, v in out]


class DensityReport(NamedTuple):
    ok: bool
    witness: Optional[QuadReal]  # a point of the interval missed by the set


def eps_dense(points: Iterable[QuadReal], lo: QuadReal, hi: QuadReal,
              eps: QuadReal) -> DensityReport:
    """Is the set eps-dense in [lo, hi]?

    Density here means: every x whose open eps/2-neighborhood sits inside
    [lo, hi] has a set point strictly within eps/2.  Decided exactly by
    scanning consecutive gaps of the points clipped to [lo, hi]; on failure
    the witness is such an uncovered x.
    """
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if hi < lo:
        raise ValueError("empty interval")
    half = eps / 2
    if hi - lo < eps:
        return DensityReport(True, None)  # no admissible x at all
    pts = sorted(points)
    pts = pts[bisect_left(pts, lo):bisect_right(pts, hi)]
    if not pts:
        return DensityReport(False, lo + half)
    if not pts[0] - lo < eps:
        return DensityReport(False, lo + half)
    for a, b in zip(pts, pts[1:]):
        if not b - a < eps:
            return DensityReport(False, (a + b) / 2)
    if not hi - pts[-1] < eps:
        return DensityReport(False, hi - half)
    return DensityReport(True, None)


def frequency_stability_ratio(params: Params, eps_freq: Fraction) -> QuadReal:
    """Ratio bound alpha*eps/(2*beta).

    Whenever x/y is below this bound for tileable x, y, appending x to y
    moves the alpha frequency by less than eps_freq.
    """
    if eps_freq <= 0:
        raise ValueError("eps_freq must be positive")
    return params.alpha * Fraction(eps_freq) / (params.beta * 2)


def is_near_rho(v: TileVector, n: int, params: Params) -> bool:
    """Can adding n tiles of the right type flip the frequency across rho?

    The zero vector counts as near for every n (a length-zero block can be
    flipped for free).
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if v.is_zero():
        return True
    rho = params.rho
    f = alpha_frequency(v)
    if f <= rho and alpha_frequency(TileVector(v.p + n, v.q)) >= rho:
        return True
    if f >= rho and alpha_frequency(TileVector(v.p, v.q + n)) <= rho:
        return True
    return False


def is_far_from_rho(v: TileVector, n: int, params: Params) -> bool:
    """Can n tiles of the majority type be removed without crossing rho?"""
    if n < 0:
        raise ValueError("n must be a natural number")
    if v.is_zero():
        return n == 0
    rho = params.rho
    f = alpha_frequency(v)
    if f <= rho:
        if v.q < n or (v.p == 0 and v.q == n):
            return False
        if alpha_frequency(TileVector(v.p, v.q - n)) > rho:
            return False
    if f >= rho:
        if v.p < n or (v.q == 0 and v.p == n):
            return False
        if alpha_frequency(TileVector(v.p - n, v.q)) < rho:
            return False
    return True


def partition_into_pieces(word: TiledWord, eta: Fraction, max_value: QuadReal,
                          params: Params) -> Optional[list[TiledWord]]:
    """Cut a word into consecutive nonempty pieces, each of value at most
    max_value and frequency within eta of rho.

    Returns None when no such partition exists.  The search is complete:
    suffix feasibility is computed by dynamic programming over all cut
    positions, then the actual cuts are chosen greedily, longest feasible
    piece first (deterministic tie policy).
    """
    letters = word.letters
    n = len(letters)
    if n == 0:
        return []
    lo = params.rho - eta
    hi = params.rho + eta
    if max_value < params.alpha:
        return None
    # longest admissible piece in letters
    max_len = min(n, int((max_value / params.alpha).floor()))

    prefix_a = [0] * (n + 1)
    for i, ch in enumerate(letters):
        prefix_a[i + 1] = prefix_a[i] + (ch == "a")

    def piece_ok(i: int, j: int) -> bool:
        p = prefix_a[j] - prefix_a[i]
        q = (j - i) - p
        f = Fraction(p, p + q)
        if f < lo or hi < f:
            return False
        return not max_value < params.value(p, q)

    feasible = [False] * (n + 1)
    feasible[n] = True
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, min(n, i + max_len) + 1):
            if feasible[j] and piece_ok(i, j):
                feasible[i] = True
                break
    if not feasible[0]:
        return None
    pieces = []
    i = 0
    while i < n:
        j_hi = min(n, i + max_len)
        for j in range(j_hi, i, -1):
            if feasible[j] and piece_ok(i, j):
                pieces.append(TiledWord(letters[i:j]))
                i = j
                break
        else:  # pragma: no cover - feasible[0] guarantees progress
            raise AssertionError("DP feasibility contradicted")
    return pieces


class DensityWitness:
    """A finitely described family of banded tileables, eps-dense above N.

    Members are ``k*x + s`` for ``k >= k_min`` and s ranging over every
    tileable in an anchor interval [A, A + value(x)] where the tileables
    are verified eps/2-dense; x is a tileable whose frequency is the
    simplest rational inside the band.  Multiples of x dominate each
    member, so all frequencies stay strictly inside the band, and the
    anchor offsets stitch consecutive k-runs into an eps-dense sweep of
    the half-line above the threshold.

    The offsets must be nonempty, sorted by value, and span at most
    value(x); the constructor raises ValueError otherwise.  ``values_in``
    relies on this: members of one k then come out sorted, and none
    exceeds any member of k + 1, so the per-k runs concatenate in order.
    """

    def __init__(self, params: Params, band: FreqBand, eps: QuadReal,
                 base: TileVector, offsets: list[TileVector], k_min: int):
        vals = [s.value(params) for s in offsets]
        if not vals:
            raise ValueError("density witness needs at least one offset")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("density witness offsets must be sorted by value")
        if base.value(params) < vals[-1] - vals[0]:
            raise ValueError("density witness offsets span more than value(x)")
        self.params = params
        self.band = band
        self.eps = eps
        self.base = base
        self.offsets = offsets
        self.k_min = k_min
        self.threshold = self.member(k_min, 0).value(params)

    def member(self, k: int, i: int) -> TileVector:
        s = self.offsets[i]
        return TileVector(k * self.base.p + s.p, k * self.base.q + s.q)

    def values_in(self, lo: QuadReal, hi: QuadReal) -> list[tuple[QuadReal, TileVector]]:
        """(value, member) pairs with value inside [lo, hi], sorted.

        For each k the offsets with value in [lo - k*x, hi - k*x] form one
        slice of the sorted offsets, found by bisection; only that slice is
        evaluated.
        """
        value = self.params.value
        offsets = self.offsets
        bp, bq = self.base
        xval = value(bp, bq)

        def key(s: TileVector) -> QuadReal:
            return value(s.p, s.q)

        k_lo = max(self.k_min, ((lo - key(offsets[-1])) / xval).ceil())
        k_hi = ((hi - key(offsets[0])) / xval).floor()
        out = []
        for k in range(k_lo, k_hi + 1):
            kx = xval * k
            i = bisect_left(offsets, lo - kx, key=key)
            j = bisect_right(offsets, hi - kx, key=key)
            kp, kq = k * bp, k * bq
            for s in offsets[i:j]:
                p, q = kp + s.p, kq + s.q
                out.append((value(p, q), TileVector(p, q)))
        return out

    def describe(self) -> str:
        return (f"members k*({self.base.p},{self.base.q}) + s, k >= "
                f"{self.k_min}, s one of {len(self.offsets)} tileables in "
                f"the anchor window")


def _simplest_inside(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational strictly between lo and hi."""

    def rec(ln, ld, hn, hd):
        # Stern-Brocot walk on the open interval (ln/ld, hn/hd)
        floor_lo = ln // ld
        cand = floor_lo + 1
        if cand * ld > ln and cand * hd < hn:
            return Fraction(cand, 1)
        ln2, ld2 = ln - floor_lo * ld, ld
        hn2, hd2 = hn - floor_lo * hd, hd
        inner = rec(hd2, hn2, ld2, ln2)
        return floor_lo + 1 / inner

    a, b = Fraction(lo), Fraction(hi)
    if not a < b:
        raise ValueError("empty interval")
    # integers strictly inside?
    n = a.numerator // a.denominator + 1
    if a < n < b:
        return Fraction(n)
    return rec(a.numerator, a.denominator, b.numerator, b.denominator)


def density_witness(params: Params, eps: QuadReal, band: FreqBand,
                    max_anchor_doublings: int = 64) -> DensityWitness:
    """Construct a family of band-frequency tileables eps-dense in [N, oo).

    Rejects empty or zero-width bands: member frequencies can only be
    pinned to an open neighborhood of a rational target, so the band must
    have interior.
    """
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if not band.lo < band.hi:
        raise ValueError("band must have nonempty interior (frequencies are "
                         "rational and drift within the family)")
    gamma = _simplest_inside(band.lo, band.hi)
    zeta = min(gamma - band.lo, band.hi - gamma) / 2
    base = TileVector(gamma.numerator, gamma.denominator - gamma.numerator)
    if base.p + base.q == 0:
        raise ValueError("degenerate band")
    xval = base.value(params)
    half = eps / 2
    # anchor interval [A, A + xval] on which plain tileables are eps/2-dense
    anchor = params.beta * 2
    for _ in range(max_anchor_doublings):
        offsets = enumerate_tileable(params, anchor, anchor + xval)
        vals = [v.value(params) for v in offsets]
        if offsets and eps_dense(vals, anchor, anchor + xval, half).ok:
            break
        anchor = anchor * 2
    else:
        raise ValueError("no eps/2-dense anchor interval found")
    # drift bound: offsets against k*x must keep the frequency within zeta
    ratio = frequency_stability_ratio(params, zeta)
    off_max = anchor + xval
    k_min = max(1, (off_max / (ratio * xval)).floor() + 1)
    return DensityWitness(params, band, eps, base, offsets, k_min)
