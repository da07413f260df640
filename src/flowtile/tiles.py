"""Tileable and tiled reals: two-letter tile vocabularies over Q(sqrt(D)).

A *tileable* value is ``p*alpha + q*beta`` with natural counts ``(p, q)``;
a *tiled word* is a letter string over ``'a'`` (alpha) and ``'b'`` (beta)
that lays the value out tile by tile.  This module owns the frequency
calculus on such values: exact alpha frequencies, balanced words,
eps-density checks, and the constructive density witness family used to
certify that banded tileables fill every sufficiently high interval.

The density machinery (:func:`enumerate_tileable`, :func:`eps_dense` and
:class:`DensityWitness`) works on tile vectors, not on their values.  On
the tile lattice that :class:`Params` holds, the value of (p, q) is
(A + B*sqrt(D)) / c with A = ax*p + bx*q and B = ay*p + by*q
(:meth:`Params.coords`): a difference is two integer subtractions, and
an order is the exact sign of A + B*sqrt(D), decided by
``quadratic.sign_of`` from integer squares.  Runs are sorted by
``quadratic.lattice_order`` and gaps are screened with the key
``A*2**k + B*r``, r = isqrt(D*4**k) from ``quadratic.screen_root``, which
lies within |B| of 2**k * (A + B*sqrt(D)).  A key difference decides a
comparison only when it clears that error bound; every other comparison,
and every tie of keys, goes to the exact sign test.  So no float decides
anything, the results are those of ``QuadReal`` arithmetic on the
members' values, and no ``QuadReal`` is built per member.

A :class:`DensityWitness` is checked without listing its members.  Its
members ``k*x + s`` come in runs, one per k, and the gap from a member to
the next depends only on the member's offset: an offset gap inside a run,
and value(x) less the offsets' span between runs.  The constructor finds,
once, which of these gaps reach eps; a window is then decided by a head
and a tail test on the members :meth:`DensityWitness.values_in` finds
within eps of its ends, and one bisect for the first wide gap after the
window's first member.  ``values_in`` bisects the offsets' lattice
coordinates, which the witness keeps, in the first and the last run only.

:func:`density_witness` searches for its anchor interval [A, A + x] by
doubling A, and skips without enumerating every interval a tile count
proves too sparse.  If ``eps_dense`` accepts n members on [lo, hi] at
width e, the first is below lo + e, each of the n - 1 gaps is below e
and the last is above hi - e, so hi - lo < (n + 1)*e.  The tileables of
[A, A + x] lie in the rows q = 0 .. floor((A + x)/beta), at most
floor(x/alpha) + 1 to a row.  One exact comparison of rows*per_row + 1
times e/2 with x then rules an anchor out; every anchor it skips would
have failed, so the family is the one the full search finds.

Each anchor's tileables are enumerated, placed and gap-checked once.
``_tileable_rows``, the engine behind ``enumerate_tileable``, gives their
counts, lattice coordinates and value order; the anchor check is
``_dense_scan``, the scan behind ``eps_dense``, on the ordered
coordinates; and only the kept anchor's offsets are built as tile
vectors.  Its witness skips the constructor's gap pass, because no gap
of the family reaches eps.  If the check accepts the n offsets of
[A, A + x] at width e = eps/2, they are sorted by value and lie in
[A, A + x]; each offset gap is below e, s[0] - A < e and
A + x - s[n-1] < e, so the junction x - (s[n-1] - s[0]) is below
2e = eps.  When x < e the check accepts without a scan, but then every
gap is at most x < e.  One exact sign test of the junction against eps
still fills the witness's wide gaps.

Gap finishing in :mod:`flowtile.pipeline` runs on the same coordinates,
and so does its lookup in the tileable table, which keeps its vectors'
coordinates beside their ``quadratic.lattice_keys``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice, repeat
from operator import add, ge, itemgetter, lshift, lt, mul, sub
from typing import Iterator, NamedTuple, Optional, Sequence

from . import quadratic
from .quadratic import (QuadReal, floor_of, lattice, lattice_order, quad,
                        real_gcd, screen_root, sign_of, sqrtD)


class Params:
    """Tiling parameters: tile lengths alpha < beta and target ratio rho.

    alpha and beta must be rationally independent positive reals; rho is a
    rational strictly inside (0, 1).  The tile lattice is public:
    alpha = (ax + ay*sqrt(d))/c and beta = (bx + by*sqrt(d))/c over their
    least common denominator c, as ``quadratic.lattice`` puts them.
    """

    __slots__ = ("alpha", "beta", "rho", "c", "d", "ax", "ay", "bx", "by")

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
        self.c, self.d, [((self.ax, self.bx), (self.ay, self.by))] = lattice(
            [alpha, beta])

    def value(self, p: int, q: int) -> QuadReal:
        return QuadReal._raw(self.ax * p + self.bx * q,
                             self.ay * p + self.by * q, self.c, self.d)

    def coords(self, vecs: Sequence[TileVector]) -> tuple[list[int], list[int]]:
        """Lattice coordinates (xs, ys) of tile vectors: the value of
        vecs[i] is (xs[i] + ys[i]*sqrt(d)) / c."""
        ax, ay, bx, by = self.ax, self.ay, self.bx, self.by
        return ([ax * p + bx * q for p, q in vecs],
                [ay * p + by * q for p, q in vecs])

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


def _tileable_rows(params: Params, lo: QuadReal, hi: QuadReal
                   ) -> tuple[list[int], list[int], list[int], list[int],
                              list[int]]:
    """(ps, qs, xs, ys, order) for the tile vectors with
    lo <= p*alpha + q*beta <= hi: their counts row by row, their lattice
    coordinates (``Params.coords``) and the indices in ascending value
    order, as ``quadratic.lattice_order`` gives them.

    Row q holds the p from ceil((lo - q*beta)/alpha) to
    floor((hi - q*beta)/alpha), two exact floors of lattice values; the
    rows are runs of p and q counts, and each row's coordinates step by
    alpha's, (ax, ay).
    """
    if hi < lo:
        return [], [], [], [], []
    # lo/alpha, hi/alpha and beta/alpha over one denominator w
    alpha = params.alpha
    w, d, [((lx, hx, sx), (ly, hy, sy))] = lattice(
        [lo / alpha, hi / alpha, params.beta / alpha])
    ax, ay, bx, by = params.ax, params.ay, params.bx, params.by
    ps: list[int] = []
    qs: list[int] = []
    xs: list[int] = []
    ys: list[int] = []
    for q in range((hi / params.beta).floor() + 1):
        p_lo = max(0, -floor_of(q * sx - lx, q * sy - ly, w, d))
        n = floor_of(hx - q * sx, hy - q * sy, w, d) + 1 - p_lo
        if n > 0:
            ps += range(p_lo, p_lo + n)
            qs += repeat(q, n)
            x, y = ax * p_lo + bx * q, ay * p_lo + by * q
            xs += range(x, x + n * ax, ax) if ax else repeat(x, n)
            ys += range(y, y + n * ay, ay) if ay else repeat(y, n)
    return ps, qs, xs, ys, lattice_order(xs, ys, d)


def _vectors(ps: list[int], qs: list[int],
             order: list[int]) -> list[TileVector]:
    """The tile vectors (ps[i], qs[i]) for i in order."""
    # tuple.__new__ builds the named tuples without TileVector.__new__'s
    # Python frame
    return list(map(tuple.__new__, repeat(TileVector),
                    zip(map(ps.__getitem__, order),
                        map(qs.__getitem__, order))))


def enumerate_tileable(params: Params, lo: QuadReal,
                       hi: QuadReal) -> list[TileVector]:
    """All tile vectors with lo <= p*alpha + q*beta <= hi, sorted by value.

    The rows, their lattice coordinates and their order come from
    ``_tileable_rows``, and each vector is built once, in that order.
    """
    ps, qs, _, _, order = _tileable_rows(params, lo, hi)
    return _vectors(ps, qs, order)


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
    ``(dA << k) + dB*s``, s = ``quadratic.screen_root(D, k)``, which is
    within |dB| of 2**k*(dA + dB*sqrt(D)); only gaps near 0 or near eps
    reach the exact sign test.
    """
    return _dense_scan(params, *params.coords(members), lo, hi, eps)


def _dense_scan(params: Params, xs: list[int], ys: list[int], lo: QuadReal,
                hi: QuadReal, eps: QuadReal) -> DensityReport:
    """:func:`eps_dense` on the members' lattice coordinates xs, ys, as
    ``Params.coords`` gives them."""
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
    m = c // params.c
    spread = max(ys, default=0) - min(ys, default=0)  # bounds every |dB|
    k = spread.bit_length() + quadratic.KEY_BITS
    s = screen_root(d, k)

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


def _floor_ratio(a: int, b: int, e: int, f: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(d)) / (e + f*sqrt(d)), for a positive
    divisor: the product with the divisor's conjugate over e*e - f*f*d."""
    n = e * e - f * f * d
    x, y = a * e - b * f * d, b * e - a * f
    return floor_of(x, y, n, d) if n > 0 else floor_of(-x, -y, -n, d)


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
    value(x); the constructor raises ValueError otherwise.  Then the
    members in value order are one sequence: member g is run k = g // n,
    offset t = g % n, for n offsets and g from k_min*n on, and the
    members inside any interval are a slice of it.  Gap t of the family,
    from a member at offset t to the next member, is the same for every
    k: the offset gap s[t+1] - s[t] for t < n - 1, and the junction
    value(x) - (s[n-1] - s[0]) between two runs for t = n - 1.  The
    constructor takes the n gaps' lattice coordinates in one pass: a
    negative one refuses the offsets, and the gaps that reach eps are
    kept, so :meth:`dense_in` decides a window from its slice's ends
    alone.  ``xs, ys`` and ``ux, uy`` are the offsets' and base's coordinates.
    """

    def __init__(self, params: Params, band: FreqBand, eps: QuadReal,
                 base: TileVector, offsets: list[TileVector], k_min: int):
        if not offsets:
            raise ValueError("density witness needs at least one offset")
        # eps is (ex + ey*sqrt(d))/c, and a vector of lattice coordinates
        # (x, y) has the value m*(x + y*sqrt(d))/c
        c, d, [((ex,), (ey,)), _] = lattice([eps], [params.alpha, params.beta])
        m = c // params.c
        xs, ys = params.coords(offsets)
        (ux,), (uy,) = params.coords([base])
        n = len(offsets)
        dxs = list(map(sub, xs[1:] + [xs[0] + ux], xs))
        dys = list(map(sub, ys[1:] + [ys[0] + uy], ys))
        # the keys of eps_dense: a step is within spread of 2**k times a gap
        spread = max(map(abs, dys))
        k = spread.bit_length() + quadratic.KEY_BITS
        s = screen_root(d, k)
        steps = list(map(add, map(lshift, dxs, repeat(k)),
                         map(mul, dys, repeat(s))))
        # a step of at least spread is an exact gap >= 0
        for t in compress(range(n), map(lt, steps, repeat(spread))):
            if sign_of(dxs[t], dys[t], d) < 0:
                raise ValueError(
                    "density witness offsets must be sorted by value"
                    if t < n - 1 else
                    "density witness offsets span more than value(x)")
        # a step below bar is an exact gap below eps
        bar = -((abs(ey) - (ex << k) - ey * s) // m) - spread
        self._wide = [t for t in compress(range(n), map(ge, steps, repeat(bar)))
                      if sign_of(ex - m * dxs[t], ey - m * dys[t], d) <= 0]
        self._keep(params, band, eps, base, offsets, xs, ys, ux, uy, k_min)

    @classmethod
    def _from_anchor(cls, params: Params, band: FreqBand, eps: QuadReal,
                     base: TileVector, offsets: list[TileVector],
                     xs: list[int], ys: list[int],
                     k_min: int) -> DensityWitness:
        """The constructor's family on the tileables of an anchor interval
        that :func:`density_witness` accepted as eps/2-dense, with their
        coordinates xs, ys, built without the gap pass: that check proves
        no gap of the family reaches eps.  One exact sign test of the
        junction against eps fills the wide gaps."""
        self = object.__new__(cls)
        c, d, [((ex,), (ey,)), _] = lattice([eps], [params.alpha, params.beta])
        m = c // params.c
        (ux,), (uy,) = params.coords([base])
        jx, jy = xs[0] + ux - xs[-1], ys[0] + uy - ys[-1]
        self._wide = ([len(xs) - 1]
                      if sign_of(ex - m * jx, ey - m * jy, d) <= 0 else [])
        self._keep(params, band, eps, base, offsets, xs, ys, ux, uy, k_min)
        return self

    def _keep(self, params: Params, band: FreqBand, eps: QuadReal,
              base: TileVector, offsets: list[TileVector], xs: list[int],
              ys: list[int], ux: int, uy: int, k_min: int) -> None:
        self.params = params
        self.band = band
        self.eps = eps
        self.base = base
        self.offsets = offsets
        self.xs, self.ys, self.ux, self.uy = xs, ys, ux, uy
        self.k_min = k_min
        self.threshold = self.member(k_min, 0).value(params)

    def member(self, k: int, i: int) -> TileVector:
        s = self.offsets[i]
        return TileVector(k * self.base.p + s.p, k * self.base.q + s.q)

    def _members_in(self, lx: int, ly: int, hx: int, hy: int, m: int,
                    d: int) -> tuple[int, int]:
        """(start, stop): members start..stop - 1 are those with value in
        [lo, hi], for lo = (lx + ly*sqrt(d))/c, hi = (hx + hy*sqrt(d))/c
        and c = m * ``params.c``: offset i is m*(xs[i] + ys[i]*sqrt(d))/c.

        Run k has a member at or above lo from k = ceil((lo - s[n-1])/x)
        on, and one at or below hi up to k = floor((hi - s[0])/x).  Those
        two runs bisect their offsets; every run between lies inside.
        """
        xs, ys, n = self.xs, self.ys, len(self.xs)
        ux, uy = m * self.ux, m * self.uy

        def first_past(k: int, vx: int, vy: int, strict: bool) -> int:
            # the first member of run k above v = (vx + vy*sqrt(d))/c, or at
            # v unless strict: a sign of at least strict
            vx, vy = vx - k * ux, vy - k * uy

            def past(i: int) -> bool:
                return sign_of(m * xs[i] - vx, m * ys[i] - vy, d) >= strict
            return k * n + bisect_left(range(n), True, key=past)

        k = max(self.k_min,
                -_floor_ratio(m * xs[-1] - lx, m * ys[-1] - ly, ux, uy, d))
        start = first_past(k, lx, ly, False)
        k = _floor_ratio(hx - m * xs[0], hy - m * ys[0], ux, uy, d)
        return start, max(start, first_past(k, hx, hy, True))

    def values_in(self, lo: QuadReal, hi: QuadReal) -> list[TileVector]:
        """The members with value inside [lo, hi], in value order: run k
        contributes offsets i..j - 1 plus k times x, where only the first
        and the last run can be partial."""
        params = self.params
        c, d, [((lx, hx), (ly, hy)), _] = lattice(
            [lo, hi], [params.alpha, params.beta])
        start, stop = self._members_in(lx, ly, hx, hy, c // params.c, d)
        n = len(self.offsets)
        bp, bq = self.base
        # tuple.__new__ builds the named tuples without TileVector.__new__'s
        # Python frame
        vector = tuple.__new__
        out: list[TileVector] = []
        for k in range(start // n, -(-stop // n)):
            run = self.offsets[max(start - k * n, 0):min(stop - k * n, n)]
            out += map(vector, repeat(TileVector),
                       zip(map(add, map(itemgetter(0), run), repeat(k * bp)),
                           map(add, map(itemgetter(1), run), repeat(k * bq))))
        return out

    def dense_in(self, lo: QuadReal, hi: QuadReal) -> DensityReport:
        """``eps_dense(params, values_in(lo, hi), lo, hi, eps)``, decided
        from the run structure: the same report, miss point included.

        The tests come in eps_dense's order.  The head reads the first
        member of [lo, lo + eps] and the tail the last of [hi - eps, hi],
        from :meth:`values_in`.  In between, the first gap at or after
        the window's first member that reaches eps is found by one bisect
        in the family's wide gaps; it misses when the window holds both
        of its ends.
        """
        params, eps = self.params, self.eps
        if eps.sign() <= 0:
            raise ValueError("eps must be positive")
        c, d, [((lx, hx, ex), (ly, hy, ey)), _] = lattice(
            [lo, hi, eps], [params.alpha, params.beta])
        if sign_of(hx - lx, hy - ly, d) < 0:
            raise ValueError("empty interval")
        if sign_of(hx - lx - ex, hy - ly - ey, d) < 0:
            return DensityReport(True, None)  # no admissible x at all
        m = c // params.c

        def miss(x: int, y: int) -> DensityReport:
            """The report of a miss at (x + y*sqrt(d)) / (2*c)."""
            return DensityReport(False, QuadReal._raw(x, y, 2 * c, d))

        xs, ys = params.coords(self.values_in(lo, lo + eps)[:1])
        if not xs or sign_of(ex + lx - m * xs[0], ey + ly - m * ys[0], d) <= 0:
            return miss(2 * lx + ex, 2 * ly + ey)  # lo + eps/2
        start, stop = self._members_in(lx, ly, hx, hy, m, d)
        wide, n = self._wide, len(self.offsets)
        if wide:
            k, t = divmod(start, n)
            f = bisect_left(wide, t)
            g = k * n + wide[f] if f < len(wide) else (k + 1) * n + wide[0]
            if g + 1 < stop:
                xs, ys = params.coords([self.member(*divmod(g, n)),
                                        self.member(*divmod(g + 1, n))])
                return miss(m * sum(xs), m * sum(ys))
        xs, ys = params.coords(self.values_in(hi - eps, hi)[-1:])
        if not xs or sign_of(ex - hx + m * xs[0], ey - hy + m * ys[0], d) <= 0:
            return miss(2 * hx - ex, 2 * hy - ey)  # hi - eps/2
        return DensityReport(True, None)

    def check_windows(self, windows: int) -> Iterator[WindowCheck]:
        """The eps-density check of the family on ``windows`` disjoint
        windows of width 20*beta, at threshold + 2*i*width for i < windows.

        Each window is decided by :meth:`dense_in`, as the iterator
        advances.
        """
        width = self.params.beta * 20
        for i in range(windows):
            lo = self.threshold + width * (2 * i)
            hi = lo + width
            yield WindowCheck(lo, hi, self.dense_in(lo, hi))

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

    The anchor A starts at 2*beta and doubles until the tileables of
    [A, A + x] are eps/2-dense there, for x the value of the base; it
    gives up after ``_ANCHOR_DOUBLINGS`` anchors.  An anchor whose
    interval holds too few tileables to be eps/2-dense is skipped
    without enumerating them.  eps_dense accepts n members on an
    interval of width x only if x < (n + 1)*eps/2: the first member lies
    within eps/2 of the left end, each of the n - 1 gaps is below eps/2,
    and the last member lies within eps/2 of the right end.  The
    interval's tileables have counts q from 0 to floor((A + x)/beta),
    and at most floor(x/alpha) + 1 of them share a q.  So when
    eps/2 * (rows*per_row + 1) <= x, one exact ``QuadReal`` comparison,
    the anchor would fail, and skipping it changes no family.

    Each anchor's rows, coordinates and order are computed once, and the
    eps/2 check scans the ordered coordinates; only the kept anchor's
    offsets are built as tile vectors.  Its witness skips the constructor's gap
    pass: the check proved the offsets sorted, inside [A, A + x] and
    every gap below eps/2, with the first offset and the last within
    eps/2 of the interval's ends.  So no offset gap reaches eps, and the
    junction x - (s[n-1] - s[0]), the sum of those two end distances, is
    below eps/2 + eps/2 (or at most x < eps/2, when the interval is too
    narrow for the check to scan).
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
    # at most per_row tileables of [A, A + xval] share a count q
    per_row = (xval / params.alpha).floor() + 1
    # anchor interval [A, A + xval] on which plain tileables are eps/2-dense
    anchor = params.beta * 2
    for _ in range(_ANCHOR_DOUBLINGS):
        rows = ((anchor + xval) / params.beta).floor() + 1
        # n members are eps/2-dense on [A, A + xval] only if
        # xval < (n + 1)*half, and n <= rows*per_row
        if half * (rows * per_row + 1) > xval:
            ps, qs, xs, ys, order = _tileable_rows(params, anchor,
                                                   anchor + xval)
            xs = list(map(xs.__getitem__, order))
            ys = list(map(ys.__getitem__, order))
            if order and _dense_scan(params, xs, ys, anchor, anchor + xval,
                                     half).ok:
                break
        anchor = anchor * 2
    else:
        raise ValueError("no eps/2-dense anchor interval found")
    # drift bound: offsets against k*x must keep the frequency within zeta
    ratio = frequency_stability_ratio(params, zeta)
    off_max = anchor + xval
    k_min = max(1, (off_max / (ratio * xval)).floor() + 1)
    return DensityWitness._from_anchor(params, band, eps, base,
                                       _vectors(ps, qs, order), xs, ys, k_min)
