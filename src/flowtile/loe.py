"""Equidense matching and piecewise-translation orbit maps.

Given two fully tiled sections whose alpha-points occur with the same
uniform frequency, a base order-preserving bijection between the
alpha-point sets extends to a measure-preserving correspondence: each
alpha gap maps to an alpha gap and each beta gap to a beta gap by a pure
translation, so lengths match piece by piece.  The matching machinery
(`match_equidense`) pairs two index sets inside one window by successor
steps, smallest displacement first; whatever stays unmatched at finite
scale is reported as residue, never hidden.

The orbit maps are ordered and checked on lattice coordinates: the
values one check compares are written over one common denominator C as
(A + B*sqrt(D)) / C, so each is the integer pair (A, B)
(``quadratic.lattice``).  Pieces are sorted by ``quadratic.lattice_order``,
by the integer key floor(2**KEY_BITS * (A + B*sqrt(D))) and ties of keys
by exact value, and each overlap test is the exact sign of an integer
difference (``quadratic.sign_of``).  No float decides anything; maps and
reports are those of plain ``QuadReal`` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


def match_equidense(a_set: Sequence[int], b_set: Sequence[int],
                    max_k: int | None = None) -> MatchState:
    """Pair elements of two index sets by forward successor steps.

    Stage k matches every still-unmatched a in the first set whose k-step
    successor a + k is a still-unmatched member of the second set; a point
    enters stage k only if no smaller displacement worked.  Unmatched
    points on either side are returned as residue.

    That is the matching of brackets: one left-to-right pass in which each
    b takes the nearest free a at or before it, if that a lies within
    max_k.  The stages run from 0 to max_k, and stop after the one that
    leaves either side with no free point.
    """
    a_sorted = sorted(set(a_set))
    b_sorted = sorted(set(b_set))
    if max_k is None:
        hi = max(a_sorted + b_sorted, default=0)
        max_k = hi + 1
    free: list[int] = []          # unmatched a's so far, nearest last
    pairs: list[tuple[int, int]] = []
    residue_b: list[int] = []
    i = 0
    for b in b_sorted:
        while i < len(a_sorted) and a_sorted[i] <= b:
            free.append(a_sorted[i])
            i += 1
        if free and b - free[-1] <= max_k:
            pairs.append((free.pop(), b))
        else:
            residue_b.append(b)
    residue_a = free + a_sorted[i:]
    if max_k < 0:
        n_stages = 0
    elif residue_a and residue_b:
        n_stages = max_k + 1
    else:  # a side runs out at the stage of its farthest pair
        n_stages = max((b - a for a, b in pairs), default=0) + 1
    stages: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n_stages)]
    # b runs up, so each stage's a's come out in increasing order
    for a, b in pairs:
        ak, bk = stages[b - a]
        ak.append(a)
        bk.append(b)
    pairing = {a: b for ak, bk in stages for a, b in zip(ak, bk)}
    return MatchState(stages, pairing, residue_a, residue_b)


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


class FrequencyMismatch(ValueError):
    def __init__(self, f1: Fraction, f2: Fraction, n1: int, n2: int):
        # equal frequencies of sections of different lengths: name the counts
        super().__init__(f"alpha frequencies differ: {f1} vs {f2}" if f1 != f2
                         else f"alpha counts differ: {n1} vs {n2} "
                              f"(both frequencies {f1})")
        self.f1 = f1
        self.f2 = f2


def _kind_indices(t: TiledSection) -> tuple[list[int], list[int]]:
    a = [i for i, ch in enumerate(t.letters) if ch == "a"]
    b = [i for i, ch in enumerate(t.letters) if ch == "b"]
    return a, b


def build_loe(t1: TiledSection, t2: TiledSection) -> PiecewiseTranslationMap:
    """Assemble the piecewise-translation map between two tiled sections.

    The alpha counts must be equal, so the only order-preserving bijection
    between the alpha-point index sets maps the k-th to the k-th; it is
    extended to matched beta-points by conjugating through each section's
    own alpha-to-beta matching.  Beta-points missed by either matching are
    reported as residue.
    """
    if not (t1.is_fully_regular() and t2.is_fully_regular()):
        raise ValueError("both sections must be fully regular")
    a1, b1 = _kind_indices(t1)
    a2, b2 = _kind_indices(t2)
    f1 = Fraction(len(a1), len(t1.letters))
    f2 = Fraction(len(a2), len(t2.letters))
    if f1 != f2 or len(a1) != len(a2):
        raise FrequencyMismatch(f1, f2, len(a1), len(a2))
    base = dict(zip(a1, a2))
    theta1 = match_equidense(a1, b1)
    theta2 = match_equidense(a2, b2)
    pieces: list[Piece] = []
    alpha = t1.params.alpha
    beta = t1.params.beta
    for a in a1:
        pieces.append(Piece(t1.positions[a], t2.positions[base[a]], alpha, "a"))
    # beta points extend the base map: base(theta1(x)) = theta2(base(x))
    matched2 = theta2.pairing
    mapped_src_b: set[int] = set()
    mapped_dst_b: set[int] = set()
    for a in a1:
        if a not in theta1.pairing or base[a] not in matched2:
            continue
        b_src = theta1.pairing[a]
        b_dst = matched2[base[a]]
        pieces.append(Piece(t1.positions[b_src], t2.positions[b_dst], beta, "b"))
        mapped_src_b.add(b_src)
        mapped_dst_b.add(b_dst)
    res_src = [b for b in b1 if b not in mapped_src_b]
    res_dst = [b for b in b2 if b not in mapped_dst_b]
    if pieces:
        _, d, [(xs, ys)] = lattice([p.src_lo for p in pieces])
        pieces = [pieces[i] for i in lattice_order(xs, ys, d)]
    return PiecewiseTranslationMap(pieces, res_src, res_dst)


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
