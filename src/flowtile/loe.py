"""Equidense matching and piecewise-translation orbit maps.

Two fully tiled sections with the same (alpha, beta, rho) are matched by
a piecewise translation: the k-th alpha gap of one maps to the k-th alpha
gap of the other, and each beta gap follows its alpha through the
section's own matching (`match_equidense`, which pairs two index sets by
successor steps, smallest displacement first).  Every piece is a pure
translation of length alpha or beta, so lengths match piece by piece.
Whatever stays unmatched at finite scale, the alpha surplus of the
section with more alphas included, is reported as residue, never hidden.

A map holds lattice coordinates, as a section does: one common
denominator c, the radicand d, and integer lists for the piece starts on
each side and for the lengths, so a start or length is
(x + y*sqrt(d)) / c (``quadratic.lattice``).  ``pieces`` is a view, a
fresh list of ``Piece`` built on each read.  ``build_loe`` reads the
sections' coordinates directly and emits the pieces in source order, one
walk over the source gaps.  ``verify_loe`` orders the starts by
``quadratic.lattice_order``, on the integer screen with close keys
settled exactly, decides each overlap by the exact sign of an integer
difference (``quadratic.sign_of``), and checks the lengths with two
whole-list comparisons, piece by piece only when one fails;
``cover_failures`` checks the map against the two sections on the same
coordinates.  Coordinates of two denominators meet over a common
multiple, with alpha and beta put beside them by ``quadratic.on_lattice``,
or rescaled by ``quadratic.scaled`` where no value joins them.  No float
decides anything.
"""

from __future__ import annotations

import math
from itertools import compress, count, islice, repeat
from operator import is_, is_not, sub
from typing import NamedTuple, Optional, Sequence

from .quadratic import (DEFAULT_D, QuadReal, lattice, lattice_order,
                        on_lattice, quads, scaled, sign_of)
from .pipeline import TiledSection
from .tiles import Params


class MatchState(NamedTuple):
    """Stages of the displacement-k matching and its leftover residue."""

    stages: list[tuple[list[int], list[int]]]   # (A_k, B_k) per k
    pairing: dict[int, int]                     # matched a -> b = a + k
    residue_a: list[int]
    residue_b: list[int]


def match_equidense(a_set: Sequence[int], b_set: Sequence[int]) -> MatchState:
    """Pair elements of two index sets by forward successor steps.

    Stage k matches every still-unmatched a in the first set whose k-step
    successor a + k is a still-unmatched member of the second set; a point
    enters stage k only if no smaller displacement worked.  Unmatched
    points on either side are returned as residue.

    That is the matching of brackets: one left-to-right pass in which each
    b takes the nearest free a at or before it.  The stages run from 0 to
    the farthest paired displacement.
    """
    a_sorted = sorted(set(a_set))
    b_sorted = sorted(set(b_set))
    free: list[int] = []          # unmatched a's so far, nearest last
    pa: list[int] = []            # the pairs (pa[k], pb[k]), b running up
    pb: list[int] = []
    residue_b: list[int] = []
    i, n = 0, len(a_sorted)
    for b in b_sorted:
        while i < n and a_sorted[i] <= b:
            free.append(a_sorted[i])
            i += 1
        if free:
            pa.append(free.pop())
            pb.append(b)
        else:
            residue_b.append(b)
    n_stages = max(map(sub, pb, pa), default=-1) + 1
    stages: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n_stages)]
    # b runs up, so each stage's a's come out in increasing order
    for a, b in zip(pa, pb):
        ak, bk = stages[b - a]
        ak.append(a)
        bk.append(b)
    return MatchState(stages, dict(zip(pa, pb)), free + a_sorted[i:], residue_b)


def _overlaps(label: str, xs: list[int], ys: list[int], lx: list[int],
              ly: list[int], c: int, d: int) -> list[str]:
    """A failure for each interval [s_j, s_j + l_j) that starts before its
    predecessor i in the order of the starts has ended: s_j < s_i + l_i,
    where s_j = (xs[j] + ys[j]*sqrt(d)) / c and l_j likewise."""
    order = lattice_order(xs, ys, d)
    return [f"{label} pieces overlap at {QuadReal._raw(xs[j], ys[j], c, d)}"
            for i, j in zip(order, islice(order, 1, None))
            if sign_of(xs[j] - xs[i] - lx[i], ys[j] - ys[i] - ly[i], d) < 0]


class Piece(NamedTuple):
    src_lo: QuadReal
    dst_lo: QuadReal
    length: QuadReal
    kind: str  # 'a' or 'b'


class PiecewiseTranslationMap:
    """Paired equal-length intervals, each mapped by a single translation.

    Piece k maps [s_k, s_k + l_k) onto [t_k, t_k + l_k), where
    s_k = (src_xs[k] + src_ys[k]*sqrt(d)) / c, t_k and l_k likewise, and
    kinds[k] is its letter.  The constructor takes ``Piece`` values and
    puts them on one lattice; ``pieces`` builds them again on each read.
    """

    def __init__(self, pieces: Sequence[Piece],
                 residue_src: Sequence[int] = (),
                 residue_dst: Sequence[int] = ()):
        pieces = list(pieces)
        if pieces:
            c, d, [(sx, sy), (tx, ty), (lx, ly)] = lattice(
                [p.src_lo for p in pieces], [p.dst_lo for p in pieces],
                [p.length for p in pieces])
        else:
            c, d, sx, sy, tx, ty, lx, ly = 1, DEFAULT_D, [], [], [], [], [], []
        self._fill(c, d, sx, sy, tx, ty, lx, ly, [p.kind for p in pieces],
                   residue_src, residue_dst)

    def _fill(self, c, d, src_xs, src_ys, dst_xs, dst_ys, len_xs, len_ys,
              kinds, residue_src, residue_dst):
        self.c, self.d = c, d
        self.src_xs, self.src_ys = src_xs, src_ys
        self.dst_xs, self.dst_ys = dst_xs, dst_ys
        self.len_xs, self.len_ys = len_xs, len_ys
        self.kinds = kinds
        self.residue_src = list(residue_src)
        self.residue_dst = list(residue_dst)

    @property
    def pieces(self) -> list[Piece]:
        """The pieces as a new list of ``Piece``, built on each read from
        the coordinates; pieces of equal length share one length value."""
        c, d = self.c, self.d
        lengths = {xy: QuadReal._raw(*xy, c, d)
                   for xy in set(zip(self.len_xs, self.len_ys))}
        return list(map(Piece, quads(self.src_xs, self.src_ys, c, d),
                        quads(self.dst_xs, self.dst_ys, c, d),
                        map(lengths.__getitem__,
                            zip(self.len_xs, self.len_ys)),
                        self.kinds))

    def to_json(self) -> dict:
        return {"pieces": [{"src": str(p.src_lo), "dst": str(p.dst_lo),
                            "length": str(p.length), "kind": p.kind}
                           for p in self.pieces],
                "residue_src": self.residue_src,
                "residue_dst": self.residue_dst}


def _kind_indices(t: TiledSection) -> tuple[list[int], list[int]]:
    a = [i for i, ch in enumerate(t.letters) if ch == "a"]
    b = [i for i, ch in enumerate(t.letters) if ch == "b"]
    return a, b


def build_loe(t1: TiledSection, t2: TiledSection) -> PiecewiseTranslationMap:
    """Assemble the piecewise-translation map between two tiled sections.

    Both sections must be fully tiled under the same (alpha, beta, rho).
    The k-th alpha gap of t1 maps to the k-th alpha gap of t2 for k below
    the smaller alpha count; beta gaps follow by conjugating through each
    section's own alpha-to-beta matching.  One walk over t1's gaps emits
    the pieces in source order; every gap that no piece covers, on either
    side, alpha surplus included, is reported as residue.  The map's
    coordinates are the sections' own, over the least common multiple of
    their denominators and alpha's and beta's.
    """
    if not (t1.is_fully_regular() and t2.is_fully_regular()):
        raise ValueError("both sections must be fully regular")
    p1, p2 = t1.params, t2.params
    if (p1.alpha, p1.beta, p1.rho) != (p2.alpha, p2.beta, p2.rho):
        raise ValueError(f"sections have different params: {p1!r} vs {p2!r}")
    a1, b1 = _kind_indices(t1)
    a2, b2 = _kind_indices(t2)
    # image[i]: the target gap of source gap i, None where there is none
    image: list[Optional[int]] = [None] * len(t1.letters)
    for i, j in zip(a1, a2):
        image[i] = j
    theta2 = match_equidense(a2, b2).pairing
    # beta points extend the base map: image(theta1(x)) = theta2(image(x))
    for a, b in match_equidense(a1, b1).pairing.items():
        j = image[a]
        if j is not None and j in theta2:
            image[b] = theta2[j]
    residue_src = list(compress(count(), map(is_, image, repeat(None))))
    src = list(compress(count(), map(is_not, image, repeat(None))))
    dst = list(map(image.__getitem__, src))
    residue_dst = sorted(set(range(len(t2.letters))).difference(dst))
    # alpha and beta over a multiple of both sections' denominators
    c, d, _, _, [((ax, bx), (ay, by))] = on_lattice(
        math.lcm(t1.c, t2.c), p1.d, (), (), [p1.alpha, p1.beta])
    kinds = list(map(t1.letters.__getitem__, src))
    lx = list(map({"a": ax, "b": bx}.__getitem__, kinds))
    ly = list(map({"a": ay, "b": by}.__getitem__, kinds))
    m = PiecewiseTranslationMap.__new__(PiecewiseTranslationMap)
    m._fill(c, d, *_picked(t1, src, c), *_picked(t2, dst, c), lx, ly, kinds,
            residue_src, residue_dst)
    return m


def _picked(t: TiledSection, index: list[int], c: int):
    """The coordinates of t's positions at index, over c, a multiple of
    t.c."""
    return scaled(c // t.c, list(map(t.xs.__getitem__, index)),
                  list(map(t.ys.__getitem__, index)))


class LoeReport(NamedTuple):
    ok: bool
    failures: list[str]
    piece_count: int
    mapped_length: Optional[QuadReal]


def verify_loe(m: PiecewiseTranslationMap, params: Params) -> LoeReport:
    """Check a translation map piece by piece.

    Sources must be pairwise disjoint, likewise targets; every piece's
    declared kind must match its length under params; lengths are shared
    exactly by construction, so the check is on overlaps and kinds.  An
    empty map passes vacuously.  Every test reads the map's coordinates;
    a value is built only for a failure text and the mapped length.  The
    lengths' xs and ys are compared with the lengths of the pieces' kinds
    as two whole lists, and only when either differs does a pass over the
    pieces name each failure.
    """
    if not m.kinds:
        return LoeReport(True, [], 0, None)
    c, d, lx, ly = m.c, m.d, m.len_xs, m.len_ys
    failures = _overlaps("source", m.src_xs, m.src_ys, lx, ly, c, d)
    failures += _overlaps("target", m.dst_xs, m.dst_ys, lx, ly, c, d)
    # lengths, alpha and beta over one denominator
    c2, _, lx, ly, [((ax, bx), (ay, by))] = on_lattice(
        c, d, lx, ly, [params.alpha, params.beta])
    # the length of each piece's kind, None for an unknown kind
    if (list(map({"a": ax, "b": bx}.get, m.kinds)) != lx
            or list(map({"a": ay, "b": by}.get, m.kinds)) != ly):
        alpha, beta = (ax, ay), (bx, by)
        for i, kind, x, y in zip(count(), m.kinds, lx, ly):
            if kind not in ("a", "b"):
                failures.append(f"piece {i}: unknown kind {kind!r}")
            if (x, y) != (alpha if kind == "a" else beta):
                failures.append(f"piece {i}: kind {kind} but length "
                                f"{QuadReal._raw(x, y, c2, d)}")
    total = QuadReal._raw(sum(lx), sum(ly), c2, d)
    return LoeReport(not failures, failures, len(m.kinds), total)


def cover_failures(m: PiecewiseTranslationMap, t1: TiledSection,
                   t2: TiledSection) -> list[str]:
    """Check a translation map against the sections it joins, source t1
    and target t2, on their lattice coordinates.

    Each piece must start at a gap of its own letter in both sections; no
    gap may start two pieces; the pieces and the residue must cover each
    section's gaps exactly once; and the alpha pieces must pair the k-th
    alpha gap of t1 with the k-th of t2, as far as both go.  Returns one
    failure text per fault found, none when all hold.
    """
    failures: list[str] = []
    hits = []
    for side, xs, ys, residue, t in (
            ("source", m.src_xs, m.src_ys, m.residue_src, t1),
            ("target", m.dst_xs, m.dst_ys, m.residue_dst, t2)):
        n = len(t.letters)
        c = math.lcm(m.c, t.c)
        xs, ys = scaled(c // m.c, xs, ys)
        # the index of the gap that starts at each point but the last
        gx, gy = scaled(c // t.c, t.xs, t.ys)
        gap_at = dict(zip(zip(gx, gy), range(n)))
        same_d = m.d == t.d
        hit = []
        for k, x, y, kind in zip(count(), xs, ys, m.kinds):
            i = gap_at.get((x, y)) if same_d or not y else None
            if i is None or t.letters[i] != kind:
                failures.append(f"piece {k}: no {kind!r} gap of the {side} "
                                f"section starts at "
                                f"{QuadReal._raw(x, y, c, m.d)}")
                i = None
            hit.append(i)
        starts = [0] * n
        for i in hit:
            if i is not None:
                starts[i] += 1
        covers = starts.copy()
        for r in residue:
            if 0 <= r < n:
                covers[r] += 1
            else:
                failures.append(f"{side} residue {r} is not a gap index")
        failures += [f"{side} gap {i} starts {s} pieces"
                     for i, s in enumerate(starts) if s > 1]
        failures += [f"{side} gap {i} is covered {k} times by pieces and "
                     f"residue" for i, (s, k) in enumerate(zip(starts, covers))
                     if s <= 1 and k != 1]
        hits.append(hit)
    pairs = sorted((i, j) for i, j, kind in zip(*hits, m.kinds)
                   if kind == "a" and i is not None and j is not None)
    want = list(zip(_kind_indices(t1)[0], _kind_indices(t2)[0]))
    if pairs != want:
        k = next((k for k, (p, q) in enumerate(zip(pairs, want)) if p != q),
                 None)
        failures.append(
            f"{len(pairs)} alpha pieces for {len(want)} pairs of k-th alpha "
            f"gaps" if k is None else
            f"alpha piece {k} maps source gap {pairs[k][0]} to target gap "
            f"{pairs[k][1]}, not {want[k][0]} to {want[k][1]}")
    return failures
