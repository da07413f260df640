"""Tiling pipelines: turn an orbit window into a two-valued gap section.

Two cooperating constructions, driven by one :class:`Schedule`:

* block growth (:func:`build_rank_blocks`), one stage: pick well-spaced
  pairs of adjacent points, nudge the right point by less than eps_1 so
  the pair gap becomes one tileable near rho in frequency, and tile it
  into a rank-1 block.  The word depends on the gap alone, so each
  distinct gap value is looked up once;
* gap finishing (:func:`sparse_tile`): within each chain class, walk the
  untiled gaps left to right, steering each onto a nearby tileable value
  while the running deviation stays inside the stage corridor, then tile
  with evenly mixed words.  Each distinct corridor of a stage is looked
  up once, and the carry walk stops only where the carry changes.

:func:`full_pipeline` composes them: grow blocks, classify what remains,
finish every class, and attach partition witnesses certifying the uniform
alpha-frequency of the result.

One checker, :func:`check_section`, decides whether a tiled section is
what the paper claims: every gap lettered and exactly its letter's
length, every original point strictly within min(alpha, 1)/3 of its
origin, the original ids exactly 0..points-1, and the stored witnesses
at levels 1, 2, ... in order, each with its level's eta and replaying.
``full_pipeline`` and ``flowtile tile --mode sparse`` call it last, and
``flowtile verify``, ``loe`` and ``plot`` call it on every section file
they read.  All checks are exact.

A :class:`TiledSection` holds its positions as lattice coordinates, as
the density sweeps of :mod:`flowtile.tiles` hold tile values: every
position is an integer pair (A, B) over the section's one denominator C,
standing for (A + B*sqrt(D)) / C.  Growth, finishing, the tileable table
lookup and :func:`check_section` read those pairs, with gaps, carries,
corridor ends and stage constants on the same lattice, rescaled to a
common multiple of C only when a constant needs one.  Finishing and the
checker decide on integers, and the exact sign of a lattice difference
(``quadratic.sign_of``) runs only where a screen cannot decide:

* a stage's class ends, the gaps above K_n, take one exact floor per
  distinct sqrt(D) part (``windows._gaps_above``, as in chain classes);
* the table is bisected on exact floor(2**KEY_BITS * value) keys.  A
  corridor end (x + y*sqrt(D))/c is screened as (x << k) + y*r, with
  r = ``quadratic.screen_root(D, k)`` at the table's k, which lies within
  |y| of 2**k * (x + y*sqrt(D)); that brackets the end's key, and only
  entries keyed inside the bracket meet ``sign_of``.  Whether a corridor
  reaches above the table's top is screened the same way;
* the carry bound |carry| < eps_n and the displacement bound
  |disp| < min(alpha, 1)/3 hold without a sign test when the screened
  size |(x << k) + y*r| + |y| lies below the bound's screened lower end,
  at k = KEY_BITS; the rest, the values within a margin of the bound,
  take both exact sign tests.

Candidate words are ranked by integer cross-multiplication of
frequencies.  Growth ranks its pair menu the same way: eps_1, alpha and
beta go on the lattice of the pair gaps once, each candidate's distance
to its gap is a ``sign_of`` test, and its band and frequency rank are
integer cross-multiplications.  A section starts from its window's
coordinates (``quadratic.on_lattice``), and the chain-class check builds
its window of original points from the section's lists.  ``QuadReal``
stays the type of every argument, result and serialized value: one is
built for each position a caller reads, for each original point's origin
and for error texts.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, compress, count, islice, repeat
from operator import (add, and_, eq, ge, is_, is_not, le, lshift, mul, ne,
                      not_, or_, rshift, sub)
from typing import NamedTuple, Optional, Sequence

from . import quadratic
from .quadratic import (QuadReal, json_type, lattice, lattice_keys,
                        on_lattice, parse_quadreal, qmax, qmin, quad, quads,
                        screen_root, sign_of)
from .tiles import (DensityWitness, FreqBand, Params, TileVector,
                    balanced_word, density_witness, enumerate_tileable,
                    eps_dense)
from .windows import OrbitWindow, _gaps_above, chain_classes, json_field

FULLY_REGULAR = "fully_regular"
HALF_TILED = "half_tiled"
FINITE_CLASSES = "finite_classes"
WITNESS_WINDOWS = 10  # windows checked per density witness family


class TilingError(RuntimeError):
    pass


class WitnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# schedule


class TileableTable:
    """The nonzero tile vectors of value in (0, top], sorted by value, for
    exact corridor lookups.

    ``xs, ys`` are the vectors' lattice coordinates (:meth:`Params.coords`)
    and ``keys[i]`` is the ``quadratic.lattice_key`` of the value of
    ``vectors[i]``, at the ``bits`` of ``quadratic.KEY_BITS`` when the
    table was built.  A lookup decides on integer screens
    (``quadratic.screen_root`` at the table's bits): each corridor end's
    screened value brackets its exact key, so the bisection skips every
    entry keyed outside that bracket, and only the entries keyed inside it
    are compared with the end exactly, by ``sign_of`` of their lattice
    difference.  The check against ``top`` is screened the same way, and
    ``sign_of`` decides it only inside the screen's margin.
    """

    __slots__ = ("params", "top", "vectors", "xs", "ys", "bits", "keys")

    def __init__(self, params: Params, top: QuadReal):
        self.params = params
        self.top = top
        # the zero vector comes first: it is the only one of value 0
        self.vectors = enumerate_tileable(params, quad(0, 0, params.d), top)[1:]
        self.xs, self.ys = params.coords(self.vectors)
        self.bits = quadratic.KEY_BITS
        self.keys = lattice_keys(self.xs, self.ys, params.c, params.d,
                                 self.bits)

    def between(self, lo: QuadReal, hi: QuadReal) -> list[TileVector]:
        """Nonzero tile vectors of value strictly inside (lo, hi), in value
        order."""
        # a radicand other than the table's raises ConfigError
        c, _, [((lx, hx), (ly, hy)), _] = lattice(
            [lo, hi], [self.params.alpha, self.params.beta])
        return self.inside(lx, ly, hx, hy, c)

    def inside(self, lx: int, ly: int, hx: int, hy: int,
               c: int) -> list[TileVector]:
        """:meth:`between` for lo = (lx + ly*sqrt(d))/c and
        hi = (hx + hy*sqrt(d))/c, given on lattice coordinates."""
        d = self.params.d
        top = self.top
        bits, cv = self.bits, self.params.c
        r = screen_root(d, bits)
        # hi - top is (tx + ty*sqrt(d)) / (c*top.c), whose screened value
        # lies within |ty| of 2**bits * (tx + ty*sqrt(d))
        tx, ty = hx * top.c - top.a * c, hy * top.c - top.b * c
        above = (tx << bits) + ty * r
        if above > -abs(ty) and (above > abs(ty) or sign_of(tx, ty, d) > 0):
            raise TilingError(f"corridor ({QuadReal._raw(lx, ly, c, d)}, "
                              f"{QuadReal._raw(hx, hy, c, d)}) reaches above "
                              f"the tileable table's top {top}")
        vectors, xs, ys, keys = self.vectors, self.xs, self.ys, self.keys

        def first_above(x: int, y: int, strict: bool) -> int:
            # the first entry above (x + y*sqrt(d))/c, or not below it
            # when not strict.  Its exact key, floor(2**bits * value), lies
            # between the floors of the screened value s and of s + y over
            # c; an entry keyed below that bracket is below the end, one
            # keyed above it is above
            s = (x << bits) + y * r
            lo, hi = (s // c, (s + y) // c) if y >= 0 else ((s + y) // c,
                                                             s // c)
            i = bisect_left(keys, lo)
            while i < len(keys) and keys[i] <= hi:
                e = sign_of(xs[i] * c - x * cv, ys[i] * c - y * cv, d)
                if e > 0 or (e == 0 and not strict):
                    break
                i += 1
            return i

        return vectors[first_above(lx, ly, True):first_above(hx, hy, False)]


def stage_bounds(params: Params,
                 depth: int) -> tuple[list[QuadReal], list[Fraction]]:
    """eps[n] = min(alpha, 1)/3/2**n and eta[j] = min(rho, 1 - rho)/2**(j-1)
    for n, j = 1..depth+1, after eps[0] = 0 and eta[0] = 1."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    scale = min(params.rho, 1 - params.rho)
    eta = [Fraction(1)] + [scale / 2 ** n for n in range(depth + 1)]
    base = qmin(params.alpha, quad(1, 0, params.d)) / 3
    eps = [quad(0, 0, params.d)] + [base / (2 ** n) for n in range(1, depth + 2)]
    return eps, eta


def _check_thresholds(K: Sequence[QuadReal], depth: int):
    """Raise ValueError unless K holds depth + 1 thresholds, each at least
    4 above the one before."""
    if len(K) != depth + 1:
        raise ValueError(f"a depth-{depth} schedule needs {depth + 1} "
                         f"thresholds, got {len(K)}")
    for a, b in zip(K, K[1:]):
        if b < a + 4:
            raise ValueError(f"chain thresholds must step by at least 4: "
                             f"{a} then {b}")


@dataclass
class Schedule:
    """Stage constants for the pipelines: the chain thresholds K[0] ..
    K[depth], each at least 4 above the one before, and the density
    witness families checked for them.

    Derived on construction: eps[n] bounds every shift applied at stage n
    and eta[j] is the frequency tolerance certified at witness level j
    (:func:`stage_bounds`); L[j] bounds witness piece values at level j;
    ``table`` is the tileable table up to K[depth] + 1.  Finishing looks
    its corridors up there: a stage-n gap d <= K[n] with carry
    |c| < eps[n] has corridor (d - c - eps[n], d - c + eps[n]), whose top
    stays below K[n] + 2*eps[n] <= K[depth] + 1/3 < K[depth] + 1.
    """

    params: Params
    depth: int
    K: list[QuadReal]
    witnesses: list[tuple[int, FreqBand, DensityWitness]]
    eps: list[QuadReal] = field(init=False, compare=False)
    eta: list[Fraction] = field(init=False, compare=False)
    L: list[QuadReal] = field(init=False, compare=False)
    table: TileableTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params, depth, K = self.params, self.depth, self.K
        self.eps, self.eta = stage_bounds(params, depth)
        _check_thresholds(K, depth)
        # witness piece budget: predicted compensated run length per eta level
        letters_max = ((K[depth] + 3) / params.alpha).floor() + 1
        self.L = [params.beta]
        for eta_j in self.eta[1:depth + 1]:
            run_len = int(4 * letters_max / eta_j) + 1
            self.L.append(qmax(self.L[-1] + 1, params.beta * run_len * 2 + 4))
        self.table = TileableTable(params, K[-1] + 1)

    def shift_budget(self) -> QuadReal:
        return sum(self.eps[2:], self.eps[1])

    def to_json(self) -> dict:
        return {
            "alpha": str(self.params.alpha), "beta": str(self.params.beta),
            "rho": str(self.params.rho), "depth": self.depth,
            "eps": [str(e) for e in self.eps[1:]],
            "eta": [str(e) for e in self.eta],
            "K": [str(k) for k in self.K],
            "L": [str(v) for v in self.L],
        }


def build_schedule(params: Params, depth: int = 4,
                   k_seq: Sequence[QuadReal] | None = None) -> Schedule:
    """Derive stage constants, discharging every density assumption.

    Chain thresholds are not trusted from closed-form bounds: K_0 and each
    K_{n+1} grow until the tileable candidates are verified dense enough
    for the stage corridor on the gap ranges the stage will actually see.
    Each stage band also gets an asymptotic density witness family,
    checked on ``WITNESS_WINDOWS`` disjoint windows above its threshold.
    """
    eps, eta = stage_bounds(params, depth)
    floor_k0 = qmax(quad(4, 0, params.d), params.beta * 4)

    def threshold_problem(n: int, k: QuadReal, below: QuadReal | None):
        """Why k cannot be K_n above K_{n-1} = below, or None when it can.
        K_0 is at least 4*max(1, beta), and the tileables are 2*eps_1-dense
        on [K_0 - 2, K_0 + 8]; for n >= 1 they are 2*eps_n-dense on
        [mid - 3, mid + 3], mid the midpoint of K_{n-1} and K_n."""
        if n == 0:
            if k < floor_k0:
                return "K_0 below 4*max(1, beta)"
            lo, hi, width = k - 2, k + 8, eps[1] * 2
        else:
            mid = (below + k) / 2
            lo, hi, width = mid - 3, mid + 3, eps[n] * 2
        if not eps_dense(params, enumerate_tileable(params, lo, hi), lo, hi,
                         width).ok:
            return (f"K_{n} fails the stage-{max(n, 1)} corridor density "
                    f"check on [{lo}, {hi}]")
        return None

    if k_seq is not None:
        K = list(k_seq)
        # before the density checks, which index K by stage
        _check_thresholds(K, depth)
        for n, k in enumerate(K):
            problem = threshold_problem(n, k, K[n - 1] if n else None)
            if problem is not None:
                raise ValueError(f"supplied {problem}")
    else:
        K = [quad(floor_k0.ceil(), 0, params.d)]
        while threshold_problem(0, K[0], None) is not None:
            K[0] = K[0] + 1
        for n in range(1, depth + 1):
            cand = K[n - 1] + 4
            while threshold_problem(n, cand, K[n - 1]) is not None:
                cand = cand + 2
            K.append(cand)

    witnesses = []
    for n in range(1, depth + 1):
        # the density bands of stage n, [rho + nu_p, rho + nu] and its
        # mirror, the middle third of [eta[n + 1], eta[n]]
        nu_p = eta[n + 1] + (eta[n] - eta[n + 1]) / 3
        nu = eta[n + 1] + (eta[n] - eta[n + 1]) * 2 / 3
        for band in (FreqBand(params.rho + nu_p, params.rho + nu),
                     FreqBand(params.rho - nu, params.rho - nu_p)):
            wit = density_witness(params, eps[n + 1], band)
            for w, check in enumerate(wit.check_windows(WITNESS_WINDOWS)):
                if not check.report.ok:
                    raise ValueError(f"density witness failed at stage {n}, "
                                     f"band {band}, window {w}: "
                                     f"{check.report.witness}")
            witnesses.append((n, band, wit))
    return Schedule(params, depth, K, witnesses)


# ---------------------------------------------------------------------------
# tiled sections


class PartitionWitness(NamedTuple):
    """Cut positions certifying one frequency level of a regular section."""

    level: int
    max_value: QuadReal
    eta: Fraction
    cuts: tuple[int, ...]  # gap indices; pieces are [cuts[i], cuts[i+1])

    def replay(self, section: "TiledSection",
               count_a: list[int] | None = None) -> bool:
        """Every piece is lettered, of value at most max_value, and of
        alpha-frequency within eta of rho; the cuts run strictly up from 0
        to the letter count.  ``count_a`` is the section's
        :func:`count_a_prefix`, built here when not given, and then the
        letters are checked here too; a caller that passes it vouches that
        every gap is lettered.  :func:`check_section` builds one for all
        its witnesses after its gap check has proved that."""
        params = section.params
        letters = section.letters
        cuts = self.cuts
        if not cuts or cuts[0] != 0 or cuts[-1] != len(letters):
            return False
        if count_a is None:
            # cuts that pass the checks below cover every letter
            if None in letters:
                return False
            count_a = count_a_prefix(letters)
        lengths = list(map(sub, cuts[1:], cuts))
        if min(lengths, default=1) <= 0:
            return False
        counts = map(sub, map(count_a.__getitem__, cuts[1:]),
                     map(count_a.__getitem__, cuts))
        rho_num, rho_den = params.rho.numerator, params.rho.denominator
        eta_num, eta_den = self.eta.numerator, self.eta.denominator
        # pieces with equal letter counts pass or fail together
        for p, m in set(zip(counts, lengths)):
            if self.max_value < params.value(p, m - p):
                return False
            # |p/m - rho| > eta, times m * rho_den * eta_den
            if abs(p * rho_den - rho_num * m) * eta_den > eta_num * rho_den * m:
                return False
        return True


def count_a_prefix(letters) -> list[int]:
    """count_a[i] is the number of 'a' letters among the first i."""
    return list(accumulate(map(eq, letters, repeat("a")), initial=0))


class TiledSection:
    """A window whose gaps are (partially) tiled, with provenance.

    Position i is (xs[i] + ys[i]*sqrt(d)) / c: the section holds one
    common denominator c, its radicand d and two integer lists, and alpha
    and beta are integer pairs over c as well.  ``positions`` is a view,
    a fresh list of ``QuadReal`` built on each read; the pipeline itself
    reads only the coordinates.  letters[i] is 'a' or 'b' when the gap
    (i, i+1) is exactly alpha or beta, else None.  ranks give the last
    stage that retiled each point's block (0 untouched, 1 after growth, n
    for the runs finishing stage n retiles) and are not serialized;
    orig_ids map points back to the input window, and origin_pos holds
    each original point's input position.  ``points`` is the size of the
    input window: at first the number of original ids.  The functions
    that read a schedule take it; a section holds none.
    """

    def __init__(self, params: Params, positions, letters, ranks, orig_ids):
        c, d, [(xs, ys), _] = lattice(list(positions),
                                      [params.alpha, params.beta])
        self._fill(params, c, d, xs, ys, letters, ranks, orig_ids)

    def _fill(self, params, c, d, xs, ys, letters, ranks, orig_ids):
        self.params = params
        self.c, self.d, self.xs, self.ys = c, d, xs, ys
        self.letters = list(letters)
        self.ranks = list(ranks)
        self.orig_ids = list(orig_ids)
        self.points = len(self.orig_ids) - self.orig_ids.count(None)
        self.origin_pos: dict[int, QuadReal] = {}
        self.witnesses: list[PartitionWitness] = []
        self.notes: list[str] = []

    @classmethod
    def from_window(cls, params: Params, w: OrbitWindow) -> "TiledSection":
        """The untiled section of a window: its coordinates rescaled to a
        common denominator with alpha and beta."""
        c, d, xs, ys, _ = on_lattice(w.c, w.d, w.xs, w.ys,
                                     [params.alpha, params.beta])
        n = len(w)
        t = cls.__new__(cls)
        t._fill(params, c, d, list(xs), list(ys), [None] * (n - 1), [0] * n,
                range(n))
        t.origin_pos = dict(enumerate(w.positions))
        return t

    @property
    def positions(self) -> list[QuadReal]:
        """The positions as a new list of ``QuadReal``, built on each read
        from the coordinates."""
        return quads(self.xs, self.ys, self.c, self.d)

    def gap(self, i: int) -> QuadReal:
        """The gap from point i to point i + 1."""
        xs, ys = self.xs, self.ys
        return QuadReal._raw(xs[i + 1] - xs[i], ys[i + 1] - ys[i], self.c,
                             self.d)

    def gap_values(self):
        return list(map(self.gap, range(len(self.letters))))

    def is_fully_regular(self) -> bool:
        return None not in self.letters

    def regular_runs(self) -> list[tuple[int, int]]:
        """Maximal point-index runs [i, j] joined by lettered gaps."""
        # a run ends at each bare gap and at the last point
        ends = list(compress(count(), map(is_, self.letters, repeat(None))))
        starts = [0, *map(add, ends, repeat(1))]
        ends.append(len(self.xs) - 1)
        return list(zip(starts, ends))

    def displacements(self) -> dict[int, QuadReal]:
        return {oid: p - self.origin_pos[oid]
                for p, oid in zip(self.positions, self.orig_ids)
                if oid is not None}

    def counts(self) -> TileVector:
        return TileVector(self.letters.count("a"), self.letters.count("b"))

    def to_json(self) -> dict:
        """The format-2 section file: the start and the letters fix every
        position, so an untiled gap raises ValueError."""
        if None in self.letters:
            raise ValueError(f"gap {self.letters.index(None)} is untiled: "
                             f"a section file holds tiled sections only")
        index = [i for i, oid in enumerate(self.orig_ids) if oid is not None]
        return {
            "format": 2,
            "alpha": str(self.params.alpha), "beta": str(self.params.beta),
            "rho": str(self.params.rho),
            "start": str(QuadReal._raw(self.xs[0], self.ys[0], self.c,
                                       self.d)),
            "letters": "".join(self.letters),
            "origin_index": index,
            "origin_positions": [str(self.origin_pos[self.orig_ids[i]])
                                 for i in index],
            "witnesses": [
                {"level": w.level, "max_value": str(w.max_value),
                 "eta": str(w.eta), "cuts": list(w.cuts)}
                for w in self.witnesses],
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TiledSection":
        """Read a section written by :meth:`to_json`; every rank is 0.  Any
        other format, a bad field, an index past the positions or misaligned
        origins raise ValueError; :func:`check_section` judges their order."""
        fmt = json_field(data, "format", int, 1)
        if fmt != 2:
            raise ValueError(f"section format {fmt} is not read, only format "
                             f"2: tile the window again")
        params = params_from_json(data)
        start = parse_quadreal(json_field(data, "start", str))
        letters = json_field(data, "letters", str)
        bad = set(letters) - {"a", "b"}
        if bad:
            raise ValueError(f"unknown gap letter {min(bad)!r}")
        index = _int_list(data, "origin_index")
        origin = [parse_quadreal(p)
                  for p in json_field(data, "origin_positions", list)]
        if len(origin) != len(index):
            raise ValueError(f"section field 'origin_positions' has {len(origin)}"
                             f" entries for {len(index)} original points")
        orig_ids = [None] * (len(letters) + 1)
        for k, i in enumerate(index):
            if not 0 <= i < len(orig_ids):
                raise ValueError(f"section field 'origin_index' holds {i}, "
                                 f"not a position index in 0..{len(letters)}")
            orig_ids[i] = k
        c, d, [([x], [y]), ([ax], [ay]), ([bx], [by])] = lattice(
            [start], [params.alpha], [params.beta])
        t = cls.__new__(cls)
        t._fill(params, c, d,
                list(accumulate(map({"a": ax, "b": bx}.get, letters),
                                initial=x)),
                list(accumulate(map({"a": ay, "b": by}.get, letters),
                                initial=y)),
                letters, [0] * len(orig_ids), orig_ids)
        t.points = len(index)
        t.origin_pos = dict(enumerate(origin))
        where = "section witness"
        for w in json_field(data, "witnesses", list, []):
            t.witnesses.append(PartitionWitness(
                json_field(w, "level", int, where=where),
                parse_quadreal(json_field(w, "max_value", str, where=where)),
                Fraction(json_field(w, "eta", str, where=where)),
                tuple(_int_list(w, "cuts", where))))
        t.notes = list(json_field(data, "notes", list, []))
        return t


def params_from_json(obj, where: str = "section") -> Params:
    """The :class:`Params` of the "alpha", "beta" and "rho" fields of a JSON
    object, each an exact literal; raises ValueError naming a missing or
    mistyped field, and for a malformed literal."""
    alpha, beta, rho = (json_field(obj, key, str, where=where)
                        for key in ("alpha", "beta", "rho"))
    return Params(parse_quadreal(alpha), parse_quadreal(beta), Fraction(rho))


def _int_list(obj, key: str, where: str = "section") -> list[int]:
    values = json_field(obj, key, list, where=where)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{where} field {key!r} holds a non-integer: "
                             f"got {json_type(v)}")
    return values


# ---------------------------------------------------------------------------
# plan application: the carry rule


def _apply_gap_plan(t: TiledSection, plan: dict[int, TileVector], stage: int,
                    bound: QuadReal):
    """Retile the planned gaps and propagate the induced shifts.

    Walking left to right, a running carry holds the displacement of the
    current point: a planned gap adds (new value - old gap) to it, a
    lettered gap transports it rigidly (blocks move as one), and a bare
    unplanned gap absorbs it back to zero.  Every shifted point is checked
    against ``bound``, the schedule's eps[stage], before promotion.

    The walk runs on the section's coordinates, over a denominator that
    also holds the bound (``quadratic.on_lattice``).  The carry changes
    only at a planned gap and at a bare gap reached with a nonzero carry,
    so the walk stops there and at the last point, and checks the carry
    once per stretch between stops, at its first point: on the integer
    screen of ``quadratic.screen_root``, and by exact sign tests only
    when the carry lies within the screen's margin of the bound.  A bare
    gap reached with zero carry is copied with its stretch; block growth
    plans one gap in several, so most of its bare gaps are copied that
    way.  The new
    gaps are the lettered gaps, the letters of the planned words and the
    bare gaps less the carry they absorb; their running sums from the
    first point, which never moves, are the section's new coordinates.
    """
    params = t.params
    letters = t.letters
    ranks, orig = t.ranks, t.orig_ids
    # the bound, alpha and beta are (ex, ey), (ax, ay) and (bx, by)
    c, d, xs, ys, [((ex, ax, bx), (ey, ay, by))] = on_lattice(
        t.c, t.d, t.xs, t.ys, [bound, params.alpha, params.beta])
    # a carry whose screened size |(cx << k) + cy*r| + |cy| lies below the
    # bound's screened lower end is inside the bound
    k = quadratic.KEY_BITS
    r = screen_root(d, k)
    bar = (ex << k) + ey * r - abs(ey)
    step_x = {"a": ax, "b": bx}.__getitem__
    step_y = {"a": ay, "b": by}.__getitem__
    words: dict[TileVector, tuple] = {}  # vector: letters and their steps
    gxs = list(map(sub, islice(xs, 1, None), xs))
    gys = list(map(sub, islice(ys, 1, None), ys))
    x0, y0 = xs[0], ys[0]
    new_gx: list[int] = []
    new_gy: list[int] = []
    new_letters: list[Optional[str]] = []
    new_ranks: list[int] = []
    new_orig: list[Optional[int]] = []
    planned_letter_idx: list[int] = []
    last = len(xs) - 1
    # the carry changes only at a planned gap and at a bare gap, which
    # absorbs it; a bare gap reached with zero carry is passed over and
    # copied with the stretch that ends at the next stop
    stops = sorted({g for g in plan if g < last}.union(
        compress(count(), map(is_, letters, repeat(None)))))
    stops.append(last)
    cx = cy = 0  # the carry
    start = 0
    for g in stops:
        vec = plan.get(g)
        if vec is None and not (cx or cy) and g < last:
            continue
        # points start..g move by the carry; gaps start..g-1 are lettered,
        # or bare with no carry to absorb
        # |carry| < bound, on the screen or else as bound - carry > 0 and
        # bound + carry > 0
        if ((cx or cy) and abs((cx << k) + cy * r) + abs(cy) >= bar
                and (sign_of(ex - cx, ey - cy, d) <= 0
                     or sign_of(ex + cx, ey + cy, d) <= 0)):
            raise TilingError(
                f"shift {QuadReal._raw(cx, cy, c, d)} at point {start} "
                f"(rank {ranks[start]}) exceeds its bound {bound}")
        new_gx += gxs[start:g]
        new_gy += gys[start:g]
        new_letters += letters[start:g]
        new_ranks += ranks[start:g + 1]
        new_orig += orig[start:g + 1]
        if g == last:
            break
        if vec is not None:
            p, q = vec
            cx += p * ax + q * bx - gxs[g]
            cy += p * ay + q * by - gys[g]
            if vec not in words:
                word = balanced_word(vec)
                words[vec] = (word, tuple(map(step_x, word)),
                              tuple(map(step_y, word)))
            word, steps_x, steps_y = words[vec]
            planned_letter_idx.append(len(new_letters))
            new_gx += steps_x
            new_gy += steps_y
            new_letters += word
            new_ranks += repeat(stage, len(word) - 1)
            new_orig += repeat(None, len(word) - 1)
        else:
            new_gx.append(gxs[g] - cx)
            new_gy.append(gys[g] - cy)
            new_letters.append(None)
            cx = cy = 0
        start = g + 1
    t.c = c
    t.xs = list(accumulate(new_gx, initial=x0))
    t.ys = list(accumulate(new_gy, initial=y0))
    t.letters = new_letters
    t.ranks = new_ranks
    t.orig_ids = new_orig
    _promote_runs(t, planned_letter_idx, stage)


def _promote_runs(t: TiledSection, marks: list[int], stage: int):
    """Raise to `stage` the ranks of every regular run that swallowed a
    planned gap.  marks, the planned gaps' letter indices, increase
    strictly, so run [i, j] holds one exactly when bisection separates i
    from j."""
    ranks = t.ranks
    for i, j in t.regular_runs():
        if bisect_left(marks, i) < bisect_left(marks, j):
            ranks[i:j + 1] = map(max, ranks[i:j + 1], repeat(stage))


# ---------------------------------------------------------------------------
# block growth

PAIR_SPACING = 3


def build_rank_blocks(w: OrbitWindow, schedule: Schedule,
                      seed: int = 0) -> TiledSection:
    """Grow rank-1 blocks inside a bounded-gap window.

    Pairs of adjacent points are picked left to right, leaving
    PAIR_SPACING..2*PAIR_SPACING+1 points untouched between pairs; each
    pair gap is retiled with one tileable, which shifts the pair's right
    point by less than eps_1.  :func:`_pair_words` picks every pair's
    word in one pass, ranking its menu on integers, one word per distinct
    gap.
    """
    rng = random.Random(seed)
    t = TiledSection.from_window(schedule.params, w)
    npts = len(t.xs)
    if npts < 2:
        t.notes.append("stage 1: fewer than two rank-0 blocks; stage truncated")
        return t
    # adjacent pair anchors lie at most 2*PAIR_SPACING + 3 gaps apart, and
    # each of them moves by less than the shift budget
    anchor_bound = ((_widest_gap(t) + schedule.shift_budget() * 2)
                    * (2 * PAIR_SPACING + 3))
    plan = _pair_words(t, _select_pairs(npts, PAIR_SPACING, rng), schedule)
    _apply_gap_plan(t, plan, 1, schedule.eps[1])
    _check_block_spacing(t, anchor_bound)
    return t


def _widest_gap(t: TiledSection) -> QuadReal:
    """The largest gap of a section of two points or more: among the gaps
    of the greatest lattice key, the exact order decides."""
    xs, ys, d = t.xs, t.ys, t.d
    gxs = list(map(sub, islice(xs, 1, None), xs))
    gys = list(map(sub, islice(ys, 1, None), ys))
    keys = lattice_keys(gxs, gys, 1, d)
    top = max(keys)
    best = keys.index(top)
    for i in compress(count(), map(eq, keys, repeat(top))):
        if sign_of(gxs[i] - gxs[best], gys[i] - gys[best], d) > 0:
            best = i
    return t.gap(best)


def _check_block_spacing(t: TiledSection, bound: QuadReal):
    """Left endpoints of adjacent rank-1 blocks stay within the spacing
    bound inherited from the pair-selection policy (interior pairs only)."""
    lefts = [i for i, j in t.regular_runs() if j > i]
    c, d, xs, ys, [((ux,), (uy,))] = on_lattice(t.c, t.d, t.xs, t.ys,
                                                [bound])
    for a, b in zip(lefts[1:-1], lefts[2:]):
        gx, gy = xs[b] - xs[a], ys[b] - ys[a]
        if sign_of(gx - ux, gy - uy, d) > 0:
            raise TilingError(f"stage 1: adjacent block anchors "
                              f"{QuadReal._raw(gx, gy, c, d)} apart, "
                              f"beyond the spacing bound {bound}")


def _select_pairs(n_units: int, spacing: int, rng) -> list[int]:
    out = []
    i = 0
    while i + 1 < n_units:
        out.append(i)
        i += 2 + rng.randint(spacing, 2 * spacing + 1)
    return out


BAND_MISSED = "stage 1: eta band missed; using nearest frequency"


def _pair_words(t: TiledSection, pairs: Sequence[int],
                schedule: Schedule) -> dict[int, TileVector]:
    """The tileable that retiles the bare gap (i, i+1) of each growth pair
    i of pairs, as a plan {i: word}.

    The candidates lie strictly within eps_1 of the gap.  Those within
    eta_1 of rho in frequency are preferred; among the preferred, the one
    closest to rho in frequency, then closest to the gap, is taken, the
    first in value order on a tie.  When no candidate is in the band, the
    section's notes get ``BAND_MISSED`` once.

    The pair gaps, eps_1, alpha and beta go on one lattice once
    (``quadratic.on_lattice``), so every test is on integers: the distance
    to the gap by ``sign_of``, and the band and the frequency ranking by
    cross-multiplication.  The word depends on the gap alone, so each
    distinct gap is looked up once.
    """
    params = t.params
    eps1 = schedule.eps[1]
    xs, ys = t.xs, t.ys
    c, d, gxs, gys, [((ex, ax, bx), (ey, ay, by))] = on_lattice(
        t.c, t.d, [xs[i + 1] - xs[i] for i in pairs],
        [ys[i + 1] - ys[i] for i in pairs], [eps1, params.alpha, params.beta])
    rn, rd = params.rho.numerator, params.rho.denominator
    en, ed = schedule.eta[1].numerator, schedule.eta[1].denominator
    words: dict[tuple[int, int], TileVector] = {}

    def rank(u: tuple, w: tuple) -> int:
        # a candidate (far, n, x, y, v) ranks by far/n, then by its
        # distance to the gap, (x + y*sqrt(d))/c
        f = u[0] * w[1] - w[0] * u[1]
        return (f > 0) - (f < 0) or sign_of(u[2] - w[2], u[3] - w[3], d)

    plan = {}
    for i, gx, gy in zip(pairs, gxs, gys):
        word = words.get((gx, gy))
        if word is None:
            span = QuadReal._raw(gx, gy, c, d)
            # far is |p/n - rho| * rd * n, for n = p + q
            menu = []
            for v in enumerate_tileable(params, span - eps1, span + eps1):
                p, q = v
                n = p + q
                x, y = p * ax + q * bx - gx, p * ay + q * by - gy
                if (n == 0 or sign_of(x - ex, y - ey, d) >= 0
                        or sign_of(x + ex, y + ey, d) <= 0):
                    continue
                if sign_of(x, y, d) < 0:
                    x, y = -x, -y
                menu.append((abs(p * rd - rn * n), n, x, y, v))
            if not menu:
                raise TilingError(f"stage 1: no admissible composite shift "
                                  f"between blocks at points {i}..{i + 1}")
            banded = [u for u in menu if u[0] * ed <= en * rd * u[1]]
            if banded:
                menu = banded
            elif BAND_MISSED not in t.notes:
                t.notes.append(BAND_MISSED)
            word = words[gx, gy] = min(menu, key=cmp_to_key(rank))[4]
        plan[i] = word
    return plan


# ---------------------------------------------------------------------------
# finishing


def sparse_tile(source, schedule: Schedule) -> TiledSection:
    """Tile every untiled gap, stage by stage along the chain hierarchy.

    Stage n handles the gaps of size at most K_n (one chain class at a
    time), shifting each class member by less than eps_n while the gap
    values are steered onto tileables; existing blocks ride rigidly and
    are never re-tiled.  Chain-class structure at thresholds K_m (m >= n)
    over the pre-existing points is verified unchanged after each stage.
    The section does not change between two stages, so the signature after
    stage n, less its threshold K_n, is the one stage n+1 starts from.
    ``source`` is a window, or a section finished in place.
    """
    if isinstance(source, OrbitWindow):
        t = TiledSection.from_window(schedule.params, source)
    else:
        t = source
    depth = schedule.depth
    for stage in range(1, depth + 1):
        if t.is_fully_regular():
            break
        if stage == 1:
            before = _class_signature(t, schedule, stage)
        plan = _finish_stage_plan(t, schedule, stage)
        if plan:
            _apply_gap_plan(t, plan, stage, schedule.eps[stage])
        after = _class_signature(t, schedule, stage)
        if before != after:
            raise TilingError(f"stage {stage} disturbed chain classes: "
                              f"{before} -> {after}")
        before = after[1:]
    if not t.is_fully_regular():
        left = sum(1 for ch in t.letters if ch is None)
        t.notes.append(f"partial tiling: {left} gaps above K_{depth} remain "
                       f"(schedule depth insufficient for this window)")
    return t


def _class_signature(t: TiledSection, schedule: Schedule, stage: int):
    """Cardinalities, in order, of chain classes over original points at
    each threshold from the current stage up; the window's order and its
    classes are decided on lattice coordinates."""
    kept = list(map(is_not, t.orig_ids, repeat(None)))
    if sum(kept) < 2:
        return ()
    w = OrbitWindow.from_lattice(t.c, t.d, compress(t.xs, kept),
                                 compress(t.ys, kept))
    sig = []
    for m in range(stage, schedule.depth + 1):
        cc = chain_classes(w, schedule.K[m])
        sig.append(tuple(len(c) for c in cc.classes))
    return tuple(sig)


def _finish_stage_plan(t: TiledSection, schedule: Schedule,
                       stage: int) -> dict[int, TileVector]:
    """Greedy gap steering for one stage, class by class.

    Within a class the running carry (sum of value changes so far) stays
    strictly inside the stage corridor; each gap's candidate tileables are
    read from the corridor-shifted window, preferring the frequency side
    that rebalances the class mix including the next block.

    Gaps, carry and corridors are the section's coordinates over a
    denominator c that also holds the stage constants
    (``quadratic.on_lattice``); the class ends are ``windows._gaps_above``
    of K_n, and the table is looked up with them
    (:meth:`TileableTable.inside`); a ``QuadReal`` is built only for an
    error text.  Within one call c and the corridor width 2*eps_n are
    fixed, so a corridor's low end names it: each distinct corridor is
    looked up once, and its answer is kept in a dict that ends with the
    call.  A corridor holding a single tileable plans it without a choice.
    """
    params = t.params
    letters = t.letters
    # eps_s, K_n, alpha and beta are (ex, ey), (kx, ky), (ax, ay), (bx, by)
    c, d, xs, ys, [((ex, kx, ax, bx), (ey, ky, ay, by))] = on_lattice(
        t.c, t.d, t.xs, t.ys,
        [schedule.eps[stage], schedule.K[stage], params.alpha, params.beta])
    inside = schedule.table.inside
    rho = params.rho
    n_gaps = len(xs) - 1
    gxs = list(map(sub, islice(xs, 1, None), xs))
    gys = list(map(sub, islice(ys, 1, None), ys))
    # gap g above K_n ends a chain class; no other gap can
    above = list(_gaps_above(xs, ys, kx, ky, d))
    # count_a[g], count_b[g]: the letters before gap g
    count_a = list(accumulate(map(eq, letters, repeat("a")), initial=0))
    count_b = list(accumulate(map(eq, letters, repeat("b")), initial=0))
    # the gaps the walk stops at: bare gaps and class ends
    stops = [g for g in range(n_gaps) if letters[g] is None or above[g]]
    stops.append(n_gaps)
    plan: dict[int, TileVector] = {}
    # the table's answer for each corridor read so far, by its low end, as
    # a tuple: holding lists made the cyclic collector run far more often
    corridors: dict[tuple[int, int], tuple[TileVector, ...]] = {}
    wx, wy = 2 * ex, 2 * ey  # corridor width
    start = 0  # first point of the current class
    cx = cy = 0  # carry
    vp = vq = 0  # letters of the vectors planned in this class
    for s_i, g in enumerate(stops[:-1]):
        if above[g]:
            start = g + 1
            cx = cy = vp = vq = 0
            continue
        low = lx, ly = gxs[g] - cx - ex, gys[g] - cy - ey
        cands = corridors.get(low)
        if cands is None:
            try:
                cands = tuple(inside(lx, ly, lx + wx, ly + wy, c))
            except TilingError as err:
                raise TilingError(f"stage {stage}, gap {g}: {err}") from None
            corridors[low] = cands
        if len(cands) == 1:
            vec = cands[0]
        else:
            # the class's letters up to the end of the block right of gap g
            e = stops[s_i + 1]
            peek = (count_a[e] - count_a[start] + vp,
                    count_b[e] - count_b[start] + vq)
            vec = _choose_gap_word(cands, peek, rho)
        if vec is None:
            raise TilingError(f"stage {stage}: no tileable in the corridor "
                              f"of gap {g} (window "
                              f"({QuadReal._raw(lx, ly, c, d)}, "
                              f"{QuadReal._raw(lx + wx, ly + wy, c, d)}))")
        plan[g] = vec
        p, q = vec
        cx += p * ax + q * bx - gxs[g]
        cy += p * ay + q * by - gys[g]
        vp += p
        vq += q
    return plan


def _choose_gap_word(cands: Sequence[TileVector], running: tuple[int, int],
                     rho: Fraction) -> Optional[TileVector]:
    """The candidate that best steers the running counts (p, q) toward
    rho.

    Candidates on the side of rho that rebalances ``running`` come first;
    among them the least |f(running + v) - rho|, then the least
    |f(v) - rho|, then the fewest tiles, with f the alpha frequency; the
    first in order wins a tie.  The frequencies are compared by integer
    cross-multiplication: with rho = r/s, f(p, q) - rho is
    (p*s - r*(p + q)) / (s*(p + q)).
    """
    r, s = rho.numerator, rho.denominator
    rp, rq = running
    rn = rp + rq
    e0 = rp * s - r * rn
    want_high = rn == 0 or e0 <= 0
    best = None
    for v in cands:
        p, q = v
        n = p + q
        e = p * s - r * n
        miss = 0 if e == 0 or (e > 0) == want_high else 1
        after = abs(e0 + e)
        e = abs(e)
        if best is not None:
            if miss != b_miss:
                if miss > b_miss:
                    continue
            else:
                cmp = after * b_n_after - b_after * (rn + n)
                if cmp == 0:
                    cmp = e * b_n - b_e * n
                    if cmp == 0:
                        cmp = n - b_n
                if cmp >= 0:
                    continue
        best, b_miss, b_after, b_n_after = v, miss, after, rn + n
        b_e, b_n = e, n
    return best


# ---------------------------------------------------------------------------
# classification and the full pipeline


class Classification(NamedTuple):
    kind: str
    runs: list[tuple[int, int]]


def classify_section(t: TiledSection) -> Classification:
    """Window-level surrogate of the limit trichotomy.

    One run covering everything: fully regular.  A dominant run pinned to
    a window end while others remain: the half-tiled analogue (flagged;
    finishing treats it like any other).  Otherwise finite classes.
    """
    runs = t.regular_runs()
    npts = len(t.xs)
    if len(runs) == 1 and runs[0] == (0, npts - 1):
        return Classification(FULLY_REGULAR, runs)
    sizes = [(j - i + 1) for i, j in runs]
    big = max(sizes)
    big_run = runs[sizes.index(big)]
    touches_end = big_run[0] == 0 or big_run[1] == npts - 1
    if touches_end and 2 * big >= npts and len(runs) > 1:
        return Classification(HALF_TILED, runs)
    return Classification(FINITE_CLASSES, runs)


def full_pipeline(w: OrbitWindow, schedule: Schedule,
                  seed: int = 0) -> TiledSection:
    """Grow blocks, classify, finish, certify.

    The result is fully regular on the window interior; every original
    point's total displacement stays strictly under min(alpha, 1)/3.
    Partition witnesses are attached from level 1 up, for as many levels
    as the section reaches (:func:`attach_witnesses` stops at the first it
    cannot meet, so a rotation section may carry none);
    :func:`check_section` checks all of it before returning.
    """
    t = build_rank_blocks(w, schedule, seed=seed)
    cls = classify_section(t)
    t.notes.append(f"after growth: {cls.kind} with {len(cls.runs)} runs")
    if cls.kind != FULLY_REGULAR:
        t = sparse_tile(t, schedule)
    attach_witnesses(t, schedule)
    check_section(t)
    return t


def check_section(t: TiledSection):
    """Check a tiled section; the first check that fails raises
    :class:`TilingError`, or :class:`WitnessError` for a stored witness,
    with one line of text.  In order: every gap is lettered and exactly
    its letter's length; the original ids strictly increase from 0 to
    points-1 and every origin position belongs to one; every original
    point has an origin position, strictly within min(alpha, 1)/3
    (checked in point order); the j-th witness has level j and the eta of
    :func:`stage_bounds` for level j, and replays.  Positions, origins
    and lengths are lattice coordinates over one denominator
    (``quadratic.on_lattice``), and a displacement meets ``sign_of`` only
    when the integer screen of ``quadratic.screen_root`` puts it within
    its margin of the budget."""
    p = t.params
    budget = qmin(p.alpha, quad(1, 0, p.d)) / 3
    letters = t.letters
    idx = list(compress(count(), map(is_not, t.orig_ids, repeat(None))))
    ids = list(map(t.orig_ids.__getitem__, idx))
    missing = next(compress(count(), map(not_, map(t.origin_pos.__contains__,
                                                   ids))), len(ids))
    c, d, xs, ys, [(ox, oy), ((ax, bx, ux), (ay, by, uy))] = on_lattice(
        t.c, t.d, t.xs, t.ys, [t.origin_pos[oid] for oid in ids[:missing]],
        [p.alpha, p.beta, budget])
    gx = list(map(sub, islice(xs, 1, None), xs))
    gy = list(map(sub, islice(ys, 1, None), ys))
    # an untiled gap's letter has no length
    wx = list(map({"a": ax, "b": bx}.get, letters))
    wy = list(map({"a": ay, "b": by}.get, letters))
    if gx != wx or gy != wy:
        bad = next(compress(count(), map(or_, map(ne, gx, wx),
                                         map(ne, gy, wy))))
        if letters[bad] is None:
            raise TilingError(f"{letters.count(None)} of {len(letters)} gaps "
                              f"untiled, the first is gap {bad}")
        raise TilingError(f"gap {bad}: letter {letters[bad]} but size "
                          f"{QuadReal._raw(gx[bad], gy[bad], c, d)}")
    back = next(compress(count(1), map(le, islice(ids, 1, None), ids)), None)
    if back is not None:
        raise TilingError(f"original point ids do not increase: "
                          f"{ids[back - 1]} then {ids[back]}")
    if not ids:
        raise TilingError("section has no original point")
    # increasing ids are 0..points-1 when points of them start at 0
    if ids[0] != 0 or len(ids) != t.points:
        raise TilingError(f"original point ids run from {ids[0]} to "
                          f"{ids[-1]}, not from 0 to {t.points - 1}")
    stray = t.origin_pos.keys() - set(ids)
    if stray:
        raise TilingError(f"origin position {min(stray)} belongs to no "
                          f"original point")
    # the displacements of the points before the first without an origin
    dxs = list(map(sub, map(xs.__getitem__, idx), ox))
    dys = list(map(sub, map(ys.__getitem__, idx), oy))
    # |disp| < budget holds for a displacement whose screened size
    # |(dx << k) + dy*r| + |dy| lies below the budget's screened lower end;
    # the others are tested exactly, as budget - disp > 0 and
    # budget + disp > 0
    k = quadratic.KEY_BITS
    r = screen_root(d, k)
    bar = (ux << k) + uy * r - abs(uy)
    sizes = map(add, map(abs, map(add, map(lshift, dxs, repeat(k)),
                                  map(mul, dys, repeat(r)))), map(abs, dys))
    for far in compress(count(), map(ge, sizes, repeat(bar))):
        if (sign_of(ux - dxs[far], uy - dys[far], d) <= 0
                or sign_of(ux + dxs[far], uy + dys[far], d) <= 0):
            raise TilingError(f"original point {ids[far]} displaced "
                              f"{QuadReal._raw(dxs[far], dys[far], c, d)}, "
                              f"not strictly below the min(alpha,1)/3 budget")
    if missing < len(ids):
        raise TilingError(f"original point {ids[missing]} has no origin "
                          f"position")
    if t.witnesses:
        _, eta = stage_bounds(p, len(t.witnesses))
        count_a = count_a_prefix(letters)
    for j, w in enumerate(t.witnesses, start=1):
        if (w.level, w.eta) != (j, eta[j]):
            raise WitnessError(f"witness {j} claims level {w.level} with eta "
                               f"{w.eta}; level {j} certifies eta {eta[j]}")
        if not w.replay(t, count_a):
            raise WitnessError(f"level {w.level} witness failed replay")


def attach_witnesses(t: TiledSection, schedule: Schedule):
    """Build and store partition witnesses, level by level.

    Pieces are equal-count letter chunks no shorter than the measured
    uniform-frequency run length for the level's eta, so every piece
    inherits the banded frequency; piece values stay under the schedule's
    L for that level.  Levels 1..depth are attached in order until one is
    out of reach for this window (short windows may not support the
    deeper bands, and a section with untiled gaps supports none); the
    achieved depth is recorded in the notes.  :func:`check_section`
    replays them; levels, eta and L come from ``schedule``.
    """
    t.witnesses = []
    n = len(t.letters)
    if not t.is_fully_regular():
        t.notes.append("witness levels stop at 0: untiled gaps")
        return
    scan = RunScan(t)
    achieved = 0
    for j in range(1, schedule.depth + 1):
        eta_j = schedule.eta[j]
        L_j = schedule.L[j]
        rep = verify_uniform_frequency(t, eta_j, scan=scan)
        reason = None
        n_min = rep.n_eta
        n_max = int((L_j / t.params.beta).floor())
        if n_min is None:
            reason = (f"no uniform run length for eta_{j} = {eta_j}; "
                      f"counterexample {rep.counterexample}")
        elif n_min > n_max or n_min > n:
            reason = (f"level {j} needs runs of {n_min} letters against a "
                      f"piece budget of {min(n_max, n)}")
        else:
            # the most pieces no shorter than n_min: the longest is shortest
            pieces = n // n_min
            base, extra = divmod(n, pieces)
            longest = base + (1 if extra else 0)
            if longest > n_max:
                reason = (f"level {j} cuts {n} letters into pieces of up to "
                          f"{longest} letters against a piece budget of "
                          f"{n_max}")
        if reason is not None:
            t.notes.append(f"witness levels stop at {achieved}: {reason}")
            break
        cuts = [0]
        for k in range(pieces):
            cuts.append(cuts[-1] + base + (1 if k < extra else 0))
        t.witnesses.append(PartitionWitness(j, L_j, eta_j, tuple(cuts)))
        achieved = j


class UniformFrequencyReport(NamedTuple):
    eta: Fraction
    n_eta: Optional[int]
    counterexample: Optional[tuple[int, int]]  # (start gap, length)


class RunScan:
    """The letters of a section in the form the uniform-frequency scan
    reads, built once per section and shared by every eta: the last
    prefix deviation dev[n], the spread of dev, and the packed int of the
    shifted prefixes (see :func:`verify_uniform_frequency`)."""

    __slots__ = ("b", "end", "spread", "width", "packed", "ones")

    def __init__(self, t: "TiledSection"):
        rho = t.params.rho
        a_, b_ = rho.numerator, rho.denominator
        n = len(t.letters)
        self.b = b_
        # dev[i] = (count of 'a' - rho * i) * b_ over the first i letters
        dev = list(accumulate(map({"a": b_ - a_}.get, t.letters, repeat(-a_)),
                              initial=0))
        self.end = dev[n]
        lo = min(dev)
        self.spread = spread = max(dev) - lo
        lane = ((2 * spread).bit_length() + 8) // 8  # bytes per lane
        self.width = 8 * lane
        lanes = bytearray(lane * (n + 1))
        for j in range(lane):  # byte j of every lane, little-endian
            shifted = map(sub, dev, repeat(lo))
            lanes[j::lane] = bytes(map(and_, map(rshift, shifted, repeat(8 * j)),
                                       repeat(255)))
        self.packed = int.from_bytes(lanes, "little")
        self.ones = int.from_bytes((b"\1" + bytes(lane - 1)) * (n + 1), "little")


def verify_uniform_frequency(t: TiledSection, eta: Fraction,
                             scan: RunScan | None = None) -> UniformFrequencyReport:
    """Smallest N such that every run of at least N consecutive gaps has
    alpha-frequency within eta of rho, by exact integer scanning.

    Returns a counterexample window when even the full section fails.
    ``scan`` is the section's :class:`RunScan`, built here when not given,
    and then the section is checked to be regular here too; a caller that
    passes a scan vouches for that.  :func:`attach_witnesses` checks once
    and builds one scan for all its levels.

    The scan is word-parallel and exact.  With b the denominator of rho,
    dev[i] = b * (count of 'a' - rho * i) over the first i letters, and
    the run of r letters from gap i fails when |dev[i+r] - dev[i]| >= thr,
    thr = ceil(eta * b * r).  With S = max(dev) - min(dev), the shifted
    prefixes dev[i] - min(dev), each in [0, S], are packed once into one
    int P: lane i holds bits [i*w, (i+1)*w), for a whole number of bytes w
    with 2**(w-1) > 2*S.  A run length r has k = n + 1 - r windows.  Let
    high be P shifted down by r lanes, c = 2**(w-1) - thr and C = c*ones,
    c in each of the n + 1 lanes.  For i < k, lane i of high + C - P is
    dev[i+r] - dev[i] + c, and of P + C - high it is dev[i] - dev[i+r] + c.
    Past them high's lanes are 0, so lane i >= k of the two results is
    c - dev'[i] and dev'[i] + c, with dev'[i] = dev[i] - min(dev) in
    [0, S].  For 0 < thr <= S we have c > S >= dev'[i], so every lane of
    high + C or P + C exceeds the lane of the term subtracted from it, and
    every result lane is below S + c < 2**w: no borrow or carry crosses a
    lane.  The mask (ones << (w-1)) >> r*w keeps the top bits of exactly
    the k lanes of windows, and the run length fails exactly when one of
    them is set in either result.  The whole section, a single window, is
    tested from dev[n] first.
    """
    eta = Fraction(eta)
    n = len(t.letters)
    if n == 0:
        return UniformFrequencyReport(eta, 1, None)
    if scan is None:
        if not t.is_fully_regular():
            raise ValueError("section must be regular on its interior")
        scan = RunScan(t)
    b_ = scan.b
    lim = eta.numerator * b_

    def threshold(run: int) -> int:
        # a run of `run` letters fails when |dev[i+run] - dev[i]| >= this
        return -(-lim * run // eta.denominator)

    if abs(scan.end) >= threshold(n):
        return UniformFrequencyReport(eta, None, (0, n))
    # from here eta > 0, so every threshold below is at least 1
    spread = scan.spread
    # all runs of length > spread*eta.den/(eta.num*b_) pass automatically
    start = min(n, int(Fraction(spread * eta.denominator, eta.numerator * b_)) + 1)
    width = scan.width
    top = 1 << (width - 1)
    packed, ones = scan.packed, scan.ones
    tops = ones << (width - 1)  # the top bit of every lane

    def fails(run: int) -> bool:
        thr = threshold(run)
        if thr > spread:
            return False
        shift = run * width
        high = packed >> shift
        bias = (top - thr) * ones
        return bool(((high + bias - packed) | (packed + bias - high))
                    & (tops >> shift))

    n_eta = start
    run = start - 1
    while run >= 1:
        if fails(run):
            break
        n_eta = run
        run -= 1
    return UniformFrequencyReport(eta, n_eta, None)
