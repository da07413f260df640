"""Finite orbit windows: gap structure, chain classes, and block surgery.

An :class:`OrbitWindow` models one orbit segment of a cross section as a
strictly increasing list of exact positions, held as integer lattice
coordinates over one denominator.  On top of it live the
K-chain equivalence (maximal runs of gaps at most K), marker thinning with
two-valued index gaps, and the nested two-class blocks that, once
inserted into a sparse window, give every chain class at one threshold
at least two subclasses at the next threshold down.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, count, islice, repeat
from operator import floordiv, gt, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .quadratic import (DEFAULT_D, JSON_TYPES, QuadReal, floor_of, json_type,
                        lattice, on_lattice, parse_quadreal, quad, quads)


class SparsityError(ValueError):
    """A window cannot host the requested insertion; carries the gap index."""

    def __init__(self, msg, gap_index=None, gap=None):
        super().__init__(msg)
        self.gap_index = gap_index
        self.gap = gap


class OrbitWindow:
    """Strictly increasing positions of one open orbit segment.

    Position i is (xs[i] + ys[i]*sqrt(d)) / c, as in a tiled section: the
    window holds the least common denominator c of its positions, their
    radicand d and two integer tuples.  ``positions`` is a view, a new
    tuple of ``QuadReal`` built on each read, so a caller reads it once;
    the generators, chain classes and the start of a tiling read only the
    coordinates.  :meth:`from_lattice` builds a window from coordinates,
    and both constructors check the order on the integers.
    """

    __slots__ = ("c", "d", "xs", "ys")

    def __init__(self, positions: Sequence[QuadReal]):
        positions = tuple(positions)
        c, d, [(xs, ys)] = (lattice(positions) if positions
                            else (1, DEFAULT_D, [((), ())]))
        self._hold(c, d, tuple(xs), tuple(ys))

    @classmethod
    def from_lattice(cls, c: int, d: int, xs: Iterable[int],
                     ys: Iterable[int]) -> "OrbitWindow":
        """The window of the positions (xs[i] + ys[i]*sqrt(d)) / c, for
        c > 0 and d the radicand; c need not be the least denominator.
        ValueError as for the ``QuadReal`` constructor."""
        xs, ys = tuple(xs), tuple(ys)
        g = math.gcd(c, *xs, *ys)
        if g > 1:
            c = c // g
            xs = tuple(map(floordiv, xs, repeat(g)))
            ys = tuple(map(floordiv, ys, repeat(g)))
        w = object.__new__(cls)
        w._hold(c, d, xs, ys)
        return w

    def _hold(self, c: int, d: int, xs: tuple, ys: tuple):
        """Keep the coordinates of a nonempty, strictly increasing window;
        ValueError otherwise."""
        if not xs:
            raise ValueError("window needs at least one point")
        if not all(_gaps_above(xs, ys, 0, 0, d)):
            raise ValueError("positions must be strictly increasing")
        self.c, self.d, self.xs, self.ys = c, d, xs, ys

    @property
    def positions(self) -> tuple[QuadReal, ...]:
        """The positions as a new tuple of ``QuadReal``, built on each read
        from the coordinates."""
        return tuple(quads(self.xs, self.ys, self.c, self.d))

    def __len__(self):
        return len(self.xs)

    def gaps(self) -> list[QuadReal]:
        """Consecutive differences."""
        xs, ys = self.xs, self.ys
        return quads(map(sub, islice(xs, 1, None), xs),
                     map(sub, islice(ys, 1, None), ys), self.c, self.d)

    def span(self) -> QuadReal:
        xs, ys = self.xs, self.ys
        return QuadReal._raw(xs[-1] - xs[0], ys[-1] - ys[0], self.c, self.d)

    def to_json(self) -> dict:
        return {"positions": [str(p) for p in self.positions]}

    @classmethod
    def from_json(cls, data: dict) -> "OrbitWindow":
        """Read a window written by :meth:`to_json`; a missing or mistyped
        field raises ValueError naming it.  The legacy ``"boundary":
        "open"`` is read; any other boundary raises ValueError, since a
        window is an open orbit segment."""
        positions = json_field(data, "positions", list, where="window")
        boundary = json_field(data, "boundary", str, "open", where="window")
        if boundary != "open":
            raise ValueError(f"window boundary {boundary!r} is not supported: "
                             f"a window is an open orbit segment")
        return cls([parse_quadreal(p) for p in positions])


def json_field(obj, key: str, kind: type, default=None, where: str = "section"):
    """obj[key], which must be a `kind`; `default` when it is absent and a
    default is given.  Otherwise raises ValueError naming the field and,
    for a mistyped value, the type found, so the message stays one short
    line however large the value.  JSON true and false are not integers,
    although ``bool`` subclasses ``int``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        if default is None:
            raise ValueError(f"{where} has no {key!r} field")
        return default
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{where} field {key!r} is not {JSON_TYPES[kind]}: "
                         f"got {json_type(value)}")
    return value


class ChainClasses(NamedTuple):
    """Partition of point indices into maximal runs joined by gaps <= k."""

    threshold: QuadReal
    classes: tuple[tuple[int, ...], ...]


def chain_classes(w: OrbitWindow, k: QuadReal) -> ChainClasses:
    """Maximal runs of points joined by gaps of at most k.  Every gap is
    compared with k on the window's lattice coordinates, with k put over
    a common denominator (``quadratic.on_lattice``)."""
    if k.sign() <= 0:
        raise ValueError("threshold must be positive")
    _, d, xs, ys, [((kx,), (ky,))] = on_lattice(w.c, w.d, w.xs, w.ys, [k])
    # gap i, from point i to point i + 1, above k starts a class at i + 1
    above = _gaps_above(xs, ys, kx, ky, d)
    starts = [0, *compress(count(1), above), len(xs)]
    return ChainClasses(k, tuple(tuple(range(a, b))
                                 for a, b in zip(starts, starts[1:])))


def _gaps_above(xs: Sequence[int], ys: Sequence[int], kx: int, ky: int,
                d: int):
    """Whether each gap gx + gy*sqrt(d) of the points xs[i] + ys[i]*sqrt(d)
    exceeds kx + ky*sqrt(d), in order.  It does when gx - kx exceeds
    (ky - gy)*sqrt(d), which for integers holds exactly when gx exceeds
    kx + floor((ky - gy)*sqrt(d)); so each distinct gy takes one exact
    floor and each gap one integer comparison."""
    gys = list(map(sub, islice(ys, 1, None), ys))
    bound = {gy: kx + floor_of(0, ky - gy, 1, d) for gy in set(gys)}
    return map(gt, map(sub, islice(xs, 1, None), xs),
               map(bound.__getitem__, gys))


class MarkerResult(NamedTuple):
    indices: tuple[int, ...]
    truncated: bool


def marker_subsection(w: OrbitWindow, d: int) -> MarkerResult:
    """Thin the window to markers whose index gaps are exactly d or d+1.

    Anchored at the leftmost index.  The n = len(w) - 1 index steps split
    as q - r steps of d followed by r steps of d+1, where q, r =
    divmod(n, d); when q < r no such split exists, and the result is the
    anchor alone, flagged as truncated.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    q, r = divmod(len(w) - 1, d)
    if q < r:
        return MarkerResult((0,), True)
    return MarkerResult(tuple(accumulate([d] * (q - r) + [d + 1] * r,
                                         initial=0)), False)


def two_class_block(k_list: Sequence[QuadReal]) -> tuple[list[QuadReal], QuadReal]:
    """The nested block for an increasing threshold list, plus its length.

    The gaps are the threshold midpoints laid out by
    ``ruler_levels(len(k_list) - 2)``: two copies of the block for the
    lower thresholds, joined by the midpoint of the two highest.  The
    points are the running sums of the gaps from 0, and the length is the
    last point; a single threshold gives the one point 0.  Every chain
    class at threshold k_{n+1} inside the block splits into exactly two
    classes at k_n.
    """
    if not k_list:
        raise ValueError("need at least one threshold")
    for x, y in zip(k_list, k_list[1:]):
        if not x < y:
            raise ValueError("thresholds must be strictly increasing")
    mids = level_midpoints(k_list)
    pts = list(accumulate((mids[lev] for lev in ruler_levels(len(mids) - 1)),
                          initial=quad(0, 0, k_list[0].d)))
    return pts, pts[-1]


def ruler_levels(top: int) -> list[int]:
    """Gap levels of the full nested block with top level ``top``:
    e.g. top=2 -> [0, 1, 0, 2, 0, 1, 0]."""
    if top < 0:
        return []
    seq = [0]
    for lev in range(1, top + 1):
        seq = seq + [lev] + seq
    return seq


def is_sparse_window(w: OrbitWindow, n_threshold: QuadReal) -> bool:
    """Finite surrogate of bi-infinitely unbounded gaps: a gap at least
    n_threshold occurs in both halves of the gap sequence."""
    gaps = w.gaps()
    if not gaps:
        return False
    mid = len(gaps) // 2
    left, right = gaps[:mid], gaps[mid:]
    if not left:
        left = right
    big = lambda gs: any(not g < n_threshold for g in gs)
    return big(left) and big(right)


# -- block insertion ----------------------------------------------------------


def level_midpoints(k_list: Sequence[QuadReal]) -> list[QuadReal]:
    return [(a + b) / 2 for a, b in zip(k_list, k_list[1:])]


def _fill_plan(gap: QuadReal, eps: QuadReal, mids: list[QuadReal],
               hosting: list[QuadReal]):
    """Choose a gap-level sequence summing to ``gap`` within per-gap slack.

    The fill is one full nested block of the highest level the gap can
    host, padded by repeated level-0 blocks; every realized gap level sits
    within eps of its midpoint.  Returns (levels, per_gap_adjust) or None.
    """
    avg0 = mids[0]
    t_max = len(mids) - 1
    for t in range(t_max, -1, -1):
        if t > 0 and not hosting[t] < gap:
            continue
        seq0 = ruler_levels(t)
        base = sum((mids[lev] for lev in seq0), quad(0, 0, gap.d))
        # pad with s extra level-0 ruler blocks: each adds one avg0 gap
        rem = gap - base
        s_mid = (rem / avg0).floor()
        for s in (s_mid, s_mid + 1, s_mid - 1, s_mid + 2):
            if s < 0:
                continue
            count = len(seq0) + s
            slack = gap - base - avg0 * s
            if abs(slack) < eps * count:  # per-gap adjustment stays under eps
                return seq0 + [0] * s, slack / count
    return None


def insert_blocks(w: OrbitWindow, k_list: Sequence[QuadReal],
                  eps: QuadReal) -> OrbitWindow:
    """Enrich a sparse window so its chain classes nest two-by-two.

    Output guarantees, all verified before returning: every gap exceeds the
    lowest threshold, every gap lies within eps of the midpoint of two
    consecutive thresholds, and every interior chain class at one realized
    threshold contains at least two classes at the previous one.  Original
    points are preserved; a gap that cannot host any conforming fill raises
    :class:`SparsityError` naming it.
    """
    k_list = list(k_list)
    if len(k_list) < 2:
        raise ValueError("need at least two thresholds")
    for a, b in zip(k_list, k_list[1:]):
        if b < a + eps * 2:
            raise ValueError("thresholds must be at least 2*eps apart")
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    mids = level_midpoints(k_list)
    block_lens = [two_class_block(k_list[:t + 1])[1] for t in range(len(k_list))]
    # hosting threshold per level (verified afterwards, not trusted)
    hosting = [block_lens[t] * 2 + k_list[min(t + 1, len(k_list) - 1)] * 2 + 2
               for t in range(len(k_list))]

    gaps = w.gaps()
    if _conformity_problem(gaps, mids, eps) is None:
        return w

    positions = w.positions
    new_pts: list[QuadReal] = [positions[0]]
    for gi, gap in enumerate(gaps):
        plan = _fill_plan(gap, eps, mids, hosting)
        if plan is None:
            raise SparsityError(
                f"gap {gi} of size {gap} admits no conforming fill",
                gap_index=gi, gap=gap)
        levels, adjust = plan
        pos = new_pts[-1]
        for lev in levels:
            pos = pos + mids[lev] + adjust
            new_pts.append(pos)
        # exactness: the final point must land on the original
        if new_pts[-1] != positions[gi + 1]:
            raise AssertionError("fill arithmetic did not close the gap exactly")
    out = OrbitWindow(new_pts)
    problem = _conformity_problem(out.gaps(), mids, eps)
    if problem is not None:
        raise problem
    return out


def _conformity_problem(gaps, mids, eps) -> Optional[SparsityError]:
    """The first way the gaps fail to nest, or None when they conform:
    every gap lies within eps of a threshold midpoint, and the levels
    pass :func:`_nested_runs_ok`.  Such a gap also exceeds the lowest
    threshold, since consecutive thresholds are at least 2*eps apart."""
    levels = []
    for gi, g in enumerate(gaps):
        lev = _gap_level(g, mids, eps)
        if lev is None:
            return SparsityError(f"output gap {gi} near no threshold midpoint",
                                 gap_index=gi, gap=g)
        levels.append(lev)
    if not _nested_runs_ok(levels):
        return SparsityError("nested class structure failed verification")
    return None


def _gap_level(g, mids, eps) -> Optional[int]:
    for lev, m in enumerate(mids):
        if abs(g - m) < eps:
            return lev
    return None


def _nested_runs_ok(levels: list[int]) -> bool:
    """Whether the gap levels nest: for each n below the top level, every
    slice of levels strictly between two consecutive levels above n
    contains an n.  Those slices are the interior maximal runs of levels
    <= n; the runs at either end are boundary classes, exempt in open
    windows.  The n = 0 slices also forbid two adjacent gaps both above
    level 0 (a singleton interior class): the slice between them is
    empty."""
    for n in range(max(levels, default=0)):
        above = [j for j, lev in enumerate(levels) if lev > n]
        if any(n not in levels[a + 1:b] for a, b in zip(above, above[1:])):
            return False
    return True
