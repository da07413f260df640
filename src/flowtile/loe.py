"""Equidense matching and piecewise-translation orbit maps.

Two fully tiled sections with the same (alpha, beta, rho) are matched by
a piecewise translation: the k-th alpha gap of one maps to the k-th alpha
gap of the other, and each beta gap follows its alpha through the
section's own matching (`match_equidense`, which pairs two index sets by
successor steps, smallest displacement first).  Every piece is a pure
translation of length alpha or beta, so lengths match piece by piece.
Whatever stays unmatched at finite scale, the alpha surplus of the
section with more alphas included, is reported as residue, never hidden.

Pieces come out in source order, one walk over the source gaps.  The
check ``verify_loe`` orders them on lattice coordinates: the values it
compares are written over one common denominator C as
(A + B*sqrt(D)) / C, so each is the integer pair (A, B)
(``quadratic.lattice``), sorted by ``quadratic.lattice_order``, and each
overlap test is the exact sign of an integer difference
(``quadratic.sign_of``).  No float decides anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .quadratic import QuadReal, lattice, lattice_order, sign_of
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
    pairs: list[tuple[int, int]] = []
    residue_b: list[int] = []
    i = 0
    for b in b_sorted:
        while i < len(a_sorted) and a_sorted[i] <= b:
            free.append(a_sorted[i])
            i += 1
        if free:
            pairs.append((free.pop(), b))
        else:
            residue_b.append(b)
    n_stages = max((b - a for a, b in pairs), default=-1) + 1
    stages: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n_stages)]
    # b runs up, so each stage's a's come out in increasing order
    for a, b in pairs:
        ak, bk = stages[b - a]
        ak.append(a)
        bk.append(b)
    return MatchState(stages, dict(pairs), free + a_sorted[i:], residue_b)


def _overlaps(label: str, ends: list[QuadReal],
              lengths: list[QuadReal]) -> list[str]:
    """A failure for each interval [ends[j], ends[j] + lengths[j]) that
    starts before its predecessor i in the order of ends has ended:
    ends[j] < ends[i] + lengths[i]."""
    _, d, [(xs, ys), (lx, ly)] = lattice(ends, lengths)
    order = lattice_order(xs, ys, d)
    return [f"{label} pieces overlap at {ends[j]}"
            for i, j in zip(order, islice(order, 1, None))
            if sign_of(xs[j] - xs[i] - lx[i], ys[j] - ys[i] - ly[i], d) < 0]


class Piece(NamedTuple):
    src_lo: QuadReal
    dst_lo: QuadReal
    length: QuadReal
    kind: str  # 'a' or 'b'


@dataclass
class PiecewiseTranslationMap:
    """Paired equal-length intervals, each mapped by a single translation."""

    pieces: list[Piece]
    residue_src: list[int] = field(default_factory=list)
    residue_dst: list[int] = field(default_factory=list)

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
    side, alpha surplus included, is reported as residue.
    """
    if not (t1.is_fully_regular() and t2.is_fully_regular()):
        raise ValueError("both sections must be fully regular")
    p1, p2 = t1.params, t2.params
    if (p1.alpha, p1.beta, p1.rho) != (p2.alpha, p2.beta, p2.rho):
        raise ValueError(f"sections have different params: {p1!r} vs {p2!r}")
    a1, b1 = _kind_indices(t1)
    a2, b2 = _kind_indices(t2)
    image = dict(zip(a1, a2))
    theta2 = match_equidense(a2, b2).pairing
    # beta points extend the base map: image(theta1(x)) = theta2(image(x))
    for a, b in match_equidense(a1, b1).pairing.items():
        if a in image and image[a] in theta2:
            image[b] = theta2[image[a]]
    lengths = {"a": p1.alpha, "b": p1.beta}
    # positions builds a new list on each read: one read per section
    pos1, pos2 = t1.positions, t2.positions
    src = sorted(image)
    kinds = list(map(t1.letters.__getitem__, src))
    pieces = list(map(Piece, map(pos1.__getitem__, src),
                      map(pos2.__getitem__, map(image.__getitem__, src)),
                      map(lengths.__getitem__, kinds), kinds))
    residue_src = [i for i in range(len(t1.letters)) if i not in image]
    hit = set(image.values())
    residue_dst = [j for j in range(len(t2.letters)) if j not in hit]
    return PiecewiseTranslationMap(pieces, residue_src, residue_dst)


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
    empty map passes vacuously.
    """
    if not m.pieces:
        return LoeReport(True, [], 0, None)
    lengths = [p.length for p in m.pieces]
    failures = _overlaps("source", [p.src_lo for p in m.pieces], lengths)
    failures += _overlaps("target", [p.dst_lo for p in m.pieces], lengths)
    # alpha and beta share the lengths' lattice
    c, d, [((ax, bx), (ay, by)), (lx, ly)] = lattice(
        [params.alpha, params.beta], lengths)
    for i, (p, x, y) in enumerate(zip(m.pieces, lx, ly)):
        if p.kind not in ("a", "b"):
            failures.append(f"piece {i}: unknown kind {p.kind!r}")
        if (x, y) != ((ax, ay) if p.kind == "a" else (bx, by)):
            failures.append(f"piece {i}: kind {p.kind} but length {p.length}")
    total = QuadReal._raw(sum(lx), sum(ly), c, d)
    return LoeReport(not failures, failures, len(m.pieces), total)
