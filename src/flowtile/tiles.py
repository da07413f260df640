"""Tileable and tiled reals: two-letter tile vocabularies over Q(sqrt(D)).

A *tileable* value is ``p*alpha + q*beta`` with natural counts ``(p, q)``;
a *tiled word* is a letter string over ``'a'`` (alpha) and ``'b'`` (beta)
that lays the value out tile by tile.  This module owns the frequency
calculus on such values: exact alpha frequencies, balanced words,
eps-density checks, and the constructive density witness family used to
certify that banded tileables fill every sufficiently high interval.

The density machinery (:func:`enumerate_tileable`, :func:`eps_dense` and
:class:`DensityWitness`) works on tile vectors, not on their values.  The
value of (p, q) is (A + B*sqrt(D)) / c over the common denominator c of
alpha and beta, with A and B two integer dot products
(:meth:`Params.coords`): a difference is two integer subtractions, and
an order is the exact sign of A + B*sqrt(D), decided by
``quadratic.sign_of`` from integer squares.  Runs are sorted by
``quadratic.lattice_order`` and gaps are screened with the key
``A*2**k + B*isqrt(D*4**k)``, which lies within |B| of
2**k * (A + B*sqrt(D)).  A key difference decides a comparison only when
it clears that error bound; every other comparison, and every tie of
keys, goes to the exact sign test.  So no float decides anything, the
results are those of ``QuadReal`` arithmetic on the members' values,
and no ``QuadReal`` is built per member.

Gap finishing in :mod:`flowtile.pipeline` runs on the same coordinates,
and so does its lookup in the tileable table, keyed by
``quadratic.lattice_keys``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice, repeat
from operator import add, ge, itemgetter, lshift, lt, mul, sub
from typing import Iterator, NamedTuple, Optional, Sequence

from . import quadratic
from .quadratic import (QuadReal, floor_of, lattice, lattice_order, quad,
                        real_gcd, sign_of, sqrtD)


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

    def coords(self, vecs: Sequence[TileVector]) -> tuple[list[int], list[int]]:
        """Lattice coordinates (xs, ys) of tile vectors: the value of
        vecs[i] is (xs[i] + ys[i]*sqrt(d)) / c, with c = ``_coef[4]``."""
        a1, a2, b1, b2, _ = self._coef
        return ([a1 * p + a2 * q for p, q in vecs],
                [b1 * p + b2 * q for p, q in vecs])

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


def balanced_word(v: TileVector) -> str:
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
    return "".join(out)


def enumerate_tileable(params: Params, lo: QuadReal,
                       hi: QuadReal) -> list[TileVector]:
    """All tile vectors with lo <= p*alpha + q*beta <= hi, sorted by value.

    Row q holds the p from ceil((lo - q*beta)/alpha) to
    floor((hi - q*beta)/alpha), two exact floors of lattice values.  The
    rows are merged by ``quadratic.lattice_order`` on the lattice
    coordinates of the vectors.
    """
    if hi < lo:
        return []
    # lo/alpha, hi/alpha and beta/alpha over one denominator w
    alpha = params.alpha
    w, d, [((lx, hx, sx), (ly, hy, sy))] = lattice(
        [lo / alpha, hi / alpha, params.beta / alpha])
    out: list[TileVector] = []
    for q in range((hi / params.beta).floor() + 1):
        p_lo = max(0, -floor_of(q * sx - lx, q * sy - ly, w, d))
        p_hi = floor_of(hx - q * sx, hy - q * sy, w, d)
        out += map(TileVector, range(p_lo, p_hi + 1), repeat(q))
    return list(map(out.__getitem__, lattice_order(*params.coords(out), d)))


class DensityReport(NamedTuple):
    ok: bool
    witness: Optional[QuadReal]  # a point of the interval missed by the set


def eps_dense(params: Params, members: Sequence[TileVector], lo: QuadReal,
              hi: QuadReal, eps: QuadReal) -> DensityReport:
    """Are the values of the tile vectors ``members`` eps-dense in [lo, hi]?

    Density here means: every x whose open eps/2-neighborhood sits inside
    [lo, hi] has a member value strictly within eps/2.  Decided exactly by
    scanning consecutive gaps of the values clipped to [lo, hi]; on failure
    the witness is such an uncovered x, the one ``QuadReal`` built.

    lo, hi and eps go through ``quadratic.lattice``.  One pass checks the
    order of the members, which are sorted only when out of order.
    Consecutive members are screened by the key difference
    ``(dA << k) + dB*s``, s = isqrt(D*4**k), which is within |dB| of
    2**k*(dA + dB*sqrt(D)); only gaps near 0 or near eps reach the exact
    sign test.
    """
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    # alpha and beta bring the members' denominator into c and their
    # radicand into d
    c, d, [((lx, hx, ex), (ly, hy, ey)), _] = lattice(
        [lo, hi, eps], [params.alpha, params.beta])
    if sign_of(hx - lx, hy - ly, d) < 0:
        raise ValueError("empty interval")
    if sign_of(hx - lx - ex, hy - ly - ey, d) < 0:
        return DensityReport(True, None)  # no admissible x at all
    # member i is m*(xs[i] + ys[i]*sqrt(d))/c; lo is (lx + ly*sqrt(d))/c, ...
    xs, ys = params.coords(members)
    m = c // params._coef[4]
    spread = max(ys, default=0) - min(ys, default=0)  # bounds every |dB|
    k = spread.bit_length() + quadratic.KEY_BITS
    s = math.isqrt(d << 2 * k)

    def key_steps() -> list[int]:
        dxs = map(sub, islice(xs, 1, None), xs)
        dys = map(sub, islice(ys, 1, None), ys)
        return list(map(add, map(lshift, dxs, repeat(k)),
                        map(mul, dys, repeat(s))))

    def miss(x: int, y: int) -> DensityReport:
        """The report of a miss at (x + y*sqrt(d)) / (2*c)."""
        return DensityReport(False, QuadReal._raw(x, y, 2 * c, d))

    # a step of at least spread is an exact gap >= 0
    steps = key_steps()
    if any(sign_of(xs[t + 1] - xs[t], ys[t + 1] - ys[t], d) < 0
           for t in compress(count(), map(lt, steps, repeat(spread)))):
        order = lattice_order(xs, ys, d)
        xs = [xs[t] for t in order]
        ys = [ys[t] for t in order]
        steps = key_steps()
    # clip to [lo, hi]: the members below lo lead, those above hi trail
    i, j = 0, len(xs)
    while i < j and sign_of(m * xs[i] - lx, m * ys[i] - ly, d) < 0:
        i += 1
    while j > i and sign_of(m * xs[j - 1] - hx, m * ys[j - 1] - hy, d) > 0:
        j -= 1
    if i == j or sign_of(ex + lx - m * xs[i], ey + ly - m * ys[i], d) <= 0:
        return miss(2 * lx + ex, 2 * ly + ey)  # lo + eps/2
    # a step below bar is an exact gap below eps: m*(step + spread) stays
    # below the key of eps less its error |ey|
    bar = -((abs(ey) - (ex << k) - ey * s) // m) - spread
    flagged = map(ge, islice(steps, i, j - 1), repeat(bar))
    for t in compress(range(i, j - 1), flagged):
        if sign_of(ex - m * (xs[t + 1] - xs[t]),
                   ey - m * (ys[t + 1] - ys[t]), d) <= 0:
            return miss(m * (xs[t] + xs[t + 1]), m * (ys[t] + ys[t + 1]))
    if sign_of(ex - hx + m * xs[j - 1], ey - hy + m * ys[j - 1], d) <= 0:
        return miss(2 * hx - ex, 2 * hy - ey)  # hi - eps/2
    return DensityReport(True, None)


def frequency_stability_ratio(params: Params, eps_freq: Fraction) -> QuadReal:
    """Ratio bound alpha*eps/(2*beta).

    Whenever x/y is below this bound for tileable x, y, appending x to y
    moves the alpha frequency by less than eps_freq.
    """
    if eps_freq <= 0:
        raise ValueError("eps_freq must be positive")
    return params.alpha * Fraction(eps_freq) / (params.beta * 2)


class DensityWitness:
    """A finitely described family of banded tileables, eps-dense above N.

    Members are the tile vectors ``k*x + s`` for ``k >= k_min`` and s
    ranging over every tileable in an anchor interval [A, A + value(x)]
    where the tileables are verified eps/2-dense; x is a tileable whose
    frequency is the simplest rational inside the band.  Multiples of x
    dominate each member, so all frequencies stay strictly inside the
    band, and the anchor offsets stitch consecutive k-runs into an
    eps-dense sweep of the half-line above the threshold.

    The offsets must be nonempty, sorted by value, and span at most
    value(x); the constructor checks both on the offsets' lattice
    coordinates, by ``quadratic.sign_of``, and raises ValueError
    otherwise.  ``values_in`` relies on this: members of one k then come
    out sorted, and none exceeds any member of k + 1, so the per-k runs
    concatenate in order.
    """

    def __init__(self, params: Params, band: FreqBand, eps: QuadReal,
                 base: TileVector, offsets: list[TileVector], k_min: int):
        if not offsets:
            raise ValueError("density witness needs at least one offset")
        d = params.d
        xs, ys = params.coords(offsets)
        if any(sign_of(dx, dy, d) < 0 for dx, dy in
               zip(map(sub, xs[1:], xs), map(sub, ys[1:], ys))):
            raise ValueError("density witness offsets must be sorted by value")
        (bx,), (by,) = params.coords([base])
        if sign_of(bx - xs[-1] + xs[0], by - ys[-1] + ys[0], d) < 0:
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

    def values_in(self, lo: QuadReal, hi: QuadReal) -> list[TileVector]:
        """The members with value inside [lo, hi], in value order.

        Run k is every member k*x + s with value in [lo, hi].  The runs
        that lie wholly inside [lo, hi] are every offset plus k times x;
        only the partial first and last runs bisect the offset values for
        their slice.
        """
        params = self.params
        offsets = self.offsets
        bp, bq = self.base
        xval = params.value(bp, bq)

        def key(s: TileVector) -> QuadReal:
            return params.value(s.p, s.q)

        first, last = key(offsets[0]), key(offsets[-1])
        k_lo = max(self.k_min, ((lo - last) / xval).ceil())
        k_hi = ((hi - first) / xval).floor()
        # runs k_whole_lo..k_whole_hi lie wholly inside [lo, hi]
        k_whole_lo = ((lo - first) / xval).ceil()
        k_whole_hi = ((hi - last) / xval).floor()
        op = list(map(itemgetter(0), offsets))
        oq = list(map(itemgetter(1), offsets))
        # tuple.__new__ builds the named tuples without TileVector.__new__'s
        # Python frame
        vector = tuple.__new__
        out: list[TileVector] = []
        for k in range(k_lo, k_hi + 1):
            if k_whole_lo <= k <= k_whole_hi:
                i, j = 0, len(offsets)
            else:
                kx = xval * k
                i = bisect_left(offsets, lo - kx, key=key)
                j = bisect_right(offsets, hi - kx, key=key)
            out += map(vector, repeat(TileVector),
                       zip(map(add, op[i:j], repeat(k * bp)),
                           map(add, oq[i:j], repeat(k * bq))))
        return out

    def check_windows(self, windows: int) -> Iterator[WindowCheck]:
        """The eps-density check of the family on ``windows`` disjoint
        windows of width 20*beta, at threshold + 2*i*width for i < windows.

        Each window's members come from :meth:`values_in` and are checked
        by :func:`eps_dense`; the checks are made as the iterator advances.
        """
        width = self.params.beta * 20
        for i in range(windows):
            lo = self.threshold + width * (2 * i)
            hi = lo + width
            members = self.values_in(lo, hi)
            yield WindowCheck(lo, hi,
                              eps_dense(self.params, members, lo, hi, self.eps))

    def describe(self) -> str:
        return (f"members k*({self.base.p},{self.base.q}) + s, k >= "
                f"{self.k_min}, s one of {len(self.offsets)} tileables in "
                f"the anchor window")


class WindowCheck(NamedTuple):
    """One window of :meth:`DensityWitness.check_windows`."""

    lo: QuadReal
    hi: QuadReal
    report: DensityReport


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


# doublings of the anchor interval after which :func:`density_witness`
# gives up
_ANCHOR_DOUBLINGS = 64


def density_witness(params: Params, eps: QuadReal,
                    band: FreqBand) -> DensityWitness:
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
    for _ in range(_ANCHOR_DOUBLINGS):
        offsets = enumerate_tileable(params, anchor, anchor + xval)
        if offsets and eps_dense(params, offsets, anchor, anchor + xval,
                                 half).ok:
            break
        anchor = anchor * 2
    else:
        raise ValueError("no eps/2-dense anchor interval found")
    # drift bound: offsets against k*x must keep the frequency within zeta
    ratio = frequency_stability_ratio(params, zeta)
    off_max = anchor + xval
    k_min = max(1, (off_max / (ratio * xval)).floor() + 1)
    return DensityWitness(params, band, eps, base, offsets, k_min)
