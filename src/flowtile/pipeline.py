"""Tiling pipelines: turn an orbit window into a two-valued gap section.

Two cooperating constructions, driven by one :class:`Schedule`:

* block growth (:func:`build_rank_blocks`), one stage: pick well-spaced
  pairs of adjacent points, nudge the right point by less than eps_1 so
  the pair gap becomes one tileable near rho in frequency, and tile it
  into a rank-1 block;
* gap finishing (:func:`sparse_tile`): within each chain class, walk the
  untiled gaps left to right, steering each onto a nearby tileable value
  while the running deviation stays inside the stage corridor, then tile
  with evenly mixed words.

:func:`full_pipeline` composes them: grow blocks, classify what remains,
finish every class, and attach partition witnesses certifying the uniform
alpha-frequency of the result.  All checks are exact.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import and_, eq, rshift, sub
from typing import NamedTuple, Optional, Sequence

from .quadratic import QuadReal, parse_quadreal, qmax, qmin, quad
from .tiles import (DensityWitness, FreqBand, Params, TileVector,
                    alpha_frequency, balanced_word, density_witness,
                    enumerate_tileable, eps_dense)
from .windows import OrbitWindow, chain_classes, json_field

FULLY_REGULAR = "fully_regular"
HALF_TILED = "half_tiled"
FINITE_CLASSES = "finite_classes"


class TilingError(RuntimeError):
    pass


class WitnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# schedule


class TileableTable:
    """The nonzero tile vectors of value in (0, top], sorted by value, with
    their values alongside, for exact corridor lookups by bisection."""

    __slots__ = ("top", "values", "vectors")

    def __init__(self, params: Params, top: QuadReal):
        self.top = top
        # the zero vector comes first: it is the only one of value 0
        self.vectors = enumerate_tileable(params, quad(0, 0, params.d), top)[1:]
        self.values = [v.value(params) for v in self.vectors]

    def between(self, lo: QuadReal, hi: QuadReal) -> list[TileVector]:
        """Nonzero tile vectors of value strictly inside (lo, hi), in value
        order."""
        if self.top < hi:
            raise TilingError(f"corridor ({lo}, {hi}) reaches above the "
                              f"tileable table's top {self.top}")
        return self.vectors[bisect_right(self.values, lo):
                            bisect_left(self.values, hi)]


@dataclass
class Schedule:
    """Stage constants for the pipelines.

    eps[n] bounds every shift applied at stage n; eta[j] is the frequency
    tolerance certified at witness level j; K[n] are the chain thresholds;
    L[j] bounds witness piece values at level j.

    ``table`` is derived from params and K on construction and never
    serialized: the tileable table up to K[depth] + 1.  Finishing looks its
    corridors up there: a stage-n gap d <= K[n] with carry |c| < eps[n] has
    corridor (d - c - eps[n], d - c + eps[n]), whose top stays below
    K[n] + 2*eps[n] <= K[depth] + 1/3 < K[depth] + 1.
    """

    params: Params
    depth: int
    eps: list[QuadReal]          # 1-indexed; eps[0] is zero padding
    eta: list[Fraction]          # eta[0] = 1
    nu: list[Fraction]
    nu_p: list[Fraction]
    K: list[QuadReal]            # K[0] .. K[depth]
    L: list[QuadReal]            # L[0] .. L[depth]
    witnesses: list[tuple[int, FreqBand, DensityWitness]] = field(default_factory=list)
    table: TileableTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.table = TileableTable(self.params, self.K[-1] + 1)

    def shift_budget(self) -> QuadReal:
        total = quad(0, 0, self.params.d)
        for e in self.eps[1:]:
            total = total + e
        return total

    def validate(self):
        p = self.params
        budget = qmin(p.alpha, quad(1, 0, p.d)) / 3
        if not self.shift_budget() < budget:
            raise ValueError("stage shift budgets reach min(alpha,1)/3")
        if self.eta[0] != 1:
            raise ValueError("eta_0 must be 1")
        if self.eta[1] > min(p.rho, 1 - p.rho):
            raise ValueError("eta_1 must be at most min(rho, 1-rho)")
        for a, b in zip(self.eta, self.eta[1:]):
            if not b < a:
                raise ValueError("eta must decrease strictly")
        for n in range(len(self.nu)):
            if not (self.eta[n + 1] < self.nu_p[n] < self.nu[n] < self.eta[n]):
                raise ValueError("nu bands must nest strictly between etas")
        for a, b in zip(self.K, self.K[1:]):
            if b < a + 4:
                raise ValueError("chain thresholds must step by at least 4")
        for a, b in zip(self.L, self.L[1:]):
            if not a < b:
                raise ValueError("L must increase strictly")

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
                   k_seq: Sequence[QuadReal] | None = None,
                   verify_windows: int = 10) -> Schedule:
    """Derive stage constants, discharging every density assumption.

    Chain thresholds are not trusted from closed-form bounds: K_0 and each
    K_{n+1} grow until the tileable candidates are verified dense enough
    for the stage corridor on the gap ranges the stage will actually see.
    Each stage band also gets an asymptotic density witness family,
    checked on ``verify_windows`` disjoint windows above its threshold.
    """
    one = quad(1, 0, params.d)
    scale = min(params.rho, 1 - params.rho)
    eta = [Fraction(1)] + [scale / 2 ** n for n in range(depth + 1)]
    base = qmin(params.alpha, one) / 3
    eps = [quad(0, 0, params.d)] + [base / (2 ** n) for n in range(1, depth + 2)]
    nu = [eta[n + 1] + Fraction(2, 3) * (eta[n] - eta[n + 1]) for n in range(depth + 1)]
    nu_p = [eta[n + 1] + Fraction(1, 3) * (eta[n] - eta[n + 1]) for n in range(depth + 1)]

    def corridor_ok(lo: QuadReal, hi: QuadReal, width: QuadReal) -> bool:
        vals = [v.value(params) for v in enumerate_tileable(params, lo, hi)]
        return eps_dense(vals, lo, hi, width).ok

    floor_k0 = qmax(one * 4, params.beta * 4)
    if k_seq is not None:
        K = list(k_seq)
        if len(K) != depth + 1:
            raise ValueError("k_seq must have depth + 1 thresholds")
        if K[0] < floor_k0:
            raise ValueError("K_0 below 4*max(1, beta)")
        for n in range(1, depth + 1):
            mid = (K[n - 1] + K[n]) / 2
            if not corridor_ok(mid - 3, mid + 3, eps[n] * 2):
                raise ValueError(f"supplied K_{n} fails the stage-{n} corridor "
                                 f"density check")
    else:
        K = [quad(floor_k0.ceil(), 0, params.d)]
        while not corridor_ok(K[0] - 2, K[0] + 8, eps[1] * 2):
            K[0] = K[0] + 1
        for n in range(1, depth + 1):
            cand = K[n - 1] + 4
            while True:
                mid = (K[n - 1] + cand) / 2
                if corridor_ok(mid - 3, mid + 3, eps[n] * 2):
                    break
                cand = cand + 2
            K.append(cand)

    # witness piece budget: predicted compensated run length per eta level
    letters_max = ((K[depth] + 3) / params.alpha).floor() + 1
    dev_range = 4 * params.rho.denominator * letters_max

    def run_len(etaj: Fraction) -> int:
        return int(Fraction(dev_range) / (etaj * params.rho.denominator)) + 1

    L: list[QuadReal] = [params.beta]
    for j in range(1, depth + 1):
        n_val = params.beta * run_len(eta[j])
        L.append(qmax(L[-1] + 1, n_val * 2 + 4))

    sched = Schedule(params, depth, eps, eta, nu, nu_p, K, L)

    for n in range(1, depth + 1):
        for band in (FreqBand(params.rho + nu_p[n], params.rho + nu[n]),
                     FreqBand(params.rho - nu[n], params.rho - nu_p[n])):
            wit = density_witness(params, eps[min(n + 1, depth + 1)], band)
            for w, check in enumerate(wit.check_windows(verify_windows)):
                if not check.report.ok:
                    raise ValueError(f"density witness failed at stage {n}, "
                                     f"band {band}, window {w}: "
                                     f"{check.report.witness}")
            sched.witnesses.append((n, band, wit))
    sched.validate()
    return sched


# ---------------------------------------------------------------------------
# tiled sections


class PartitionWitness(NamedTuple):
    """Cut positions certifying one frequency level of a regular section."""

    level: int
    max_value: QuadReal
    eta: Fraction
    cuts: tuple[int, ...]  # gap indices; pieces are [cuts[i], cuts[i+1])

    def replay(self, section: "TiledSection") -> bool:
        """Every piece is lettered, of value at most max_value, and of
        alpha-frequency within eta of rho; the cuts run strictly up from 0
        to the letter count."""
        params = section.params
        letters = section.letters
        cuts = self.cuts
        if not cuts or cuts[0] != 0 or cuts[-1] != len(letters):
            return False
        # cuts that pass the checks below cover every letter
        if None in letters:
            return False
        count_a = list(accumulate(map(eq, letters, repeat("a")), initial=0))
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


class TiledSection:
    """A window whose gaps are (partially) tiled, with provenance.

    positions/letters describe the current section; letters[i] is 'a' or
    'b' when the gap (i, i+1) is exactly alpha or beta, else None.  ranks
    give the last stage that retiled each point's block: 0 for untouched
    points, 1 after growth, and n for the runs finishing stage n retiles;
    orig_ids map points back to the input window, and origin_pos holds
    each original point's input position.
    """

    def __init__(self, params: Params, positions, letters, ranks, orig_ids,
                 schedule: Schedule | None = None):
        self.params = params
        self.positions = list(positions)
        self.letters = list(letters)
        self.ranks = list(ranks)
        self.orig_ids = list(orig_ids)
        self.schedule = schedule
        self.origin_pos: dict[int, QuadReal] = {}
        self.witnesses: list[PartitionWitness] = []
        self.notes: list[str] = []

    @classmethod
    def from_window(cls, params: Params, w: OrbitWindow,
                    schedule: Schedule | None = None) -> "TiledSection":
        t = cls(params, list(w.positions), [None] * (len(w) - 1),
                [0] * len(w), list(range(len(w))), schedule)
        t.origin_pos = {i: p for i, p in enumerate(w.positions)}
        return t

    def window(self) -> OrbitWindow:
        return OrbitWindow(self.positions)

    def gap_values(self):
        return [b - a for a, b in zip(self.positions, self.positions[1:])]

    def is_fully_regular(self) -> bool:
        return all(ch is not None for ch in self.letters)

    def regular_runs(self) -> list[tuple[int, int]]:
        """Maximal point-index runs [i, j] joined by lettered gaps."""
        runs = []
        i = 0
        npts = len(self.positions)
        while i < npts:
            j = i
            while j < npts - 1 and self.letters[j] is not None:
                j += 1
            runs.append((i, j))
            i = j + 1
        return runs

    def run_counts(self, run: tuple[int, int]) -> TileVector:
        i, j = run
        seg = self.letters[i:j]
        p = seg.count("a")
        return TileVector(p, len(seg) - p)

    def displacements(self) -> dict[int, QuadReal]:
        out = {}
        for idx, oid in enumerate(self.orig_ids):
            if oid is not None:
                out[oid] = self.positions[idx] - self.origin_pos[oid]
        return out

    def counts(self) -> TileVector:
        p = sum(1 for ch in self.letters if ch == "a")
        q = sum(1 for ch in self.letters if ch == "b")
        return TileVector(p, q)

    def to_json(self) -> dict:
        return {
            "alpha": str(self.params.alpha), "beta": str(self.params.beta),
            "rho": str(self.params.rho),
            "positions": [str(p) for p in self.positions],
            "letters": ["" if ch is None else ch for ch in self.letters],
            "ranks": self.ranks,
            "orig_ids": [-1 if o is None else o for o in self.orig_ids],
            "origin_positions": {str(k): str(v) for k, v in self.origin_pos.items()},
            "witnesses": [
                {"level": w.level, "max_value": str(w.max_value),
                 "eta": str(w.eta), "cuts": list(w.cuts)}
                for w in self.witnesses],
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TiledSection":
        """Read a section written by :meth:`to_json`.  A missing or
        mistyped field, or lists whose lengths do not fit one section,
        raise ValueError naming the field."""
        params = Params(parse_quadreal(json_field(data, "alpha", str)),
                        parse_quadreal(json_field(data, "beta", str)),
                        Fraction(json_field(data, "rho", str)))
        positions = [parse_quadreal(p)
                     for p in json_field(data, "positions", list)]
        letters = json_field(data, "letters", list)
        for ch in letters:
            if ch not in ("a", "b", ""):
                raise ValueError(f"unknown gap letter {ch!r}")
        ranks = _int_list(data, "ranks")
        orig_ids = _int_list(data, "orig_ids")
        if len(letters) != len(positions) - 1:
            raise ValueError(f"section field 'letters' has {len(letters)} "
                             f"entries for {len(positions)} positions")
        for key, values in (("ranks", ranks), ("orig_ids", orig_ids)):
            if len(values) != len(positions):
                raise ValueError(f"section field {key!r} has {len(values)} "
                                 f"entries for {len(positions)} positions")
        t = cls(params, positions,
                [None if ch == "" else ch for ch in letters], ranks,
                [None if o == -1 else o for o in orig_ids])
        origin = json_field(data, "origin_positions", dict, {})
        t.origin_pos = {int(k): parse_quadreal(v) for k, v in origin.items()}
        where = "section witness"
        for w in json_field(data, "witnesses", list, []):
            t.witnesses.append(PartitionWitness(
                json_field(w, "level", int, where=where),
                parse_quadreal(json_field(w, "max_value", str, where=where)),
                Fraction(json_field(w, "eta", str, where=where)),
                tuple(_int_list(w, "cuts", where))))
        t.notes = list(json_field(data, "notes", list, []))
        return t


def _int_list(obj, key: str, where: str = "section") -> list[int]:
    values = json_field(obj, key, list, where=where)
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"{where} field {key!r} holds a non-integer: {v!r}")
    return values


# ---------------------------------------------------------------------------
# plan application: the carry rule


def _apply_gap_plan(t: TiledSection, plan: dict[int, TileVector], stage: int):
    """Retile the planned gaps and propagate the induced shifts.

    Walking left to right, a running carry holds the displacement of the
    current point: a planned gap adds (new value - old gap) to it, a
    lettered gap transports it rigidly (blocks move as one), and a bare
    unplanned gap absorbs it back to zero.  Every shifted point is checked
    against the stage bound eps[stage] before promotion.
    """
    params = t.params
    bound = t.schedule.eps[stage]
    zero = quad(0, 0, params.d)
    new_pos: list[QuadReal] = []
    new_letters: list[Optional[str]] = []
    new_ranks: list[int] = []
    new_orig: list[Optional[int]] = []
    planned_letter_idx: list[int] = []
    carry = zero
    npts = len(t.positions)
    for i in range(npts):
        pos = t.positions[i] + carry
        if not carry.is_zero() and not abs(carry) < bound:
            raise TilingError(
                f"shift {carry} at point {i} (rank {t.ranks[i]}) exceeds "
                f"its bound {bound}")
        new_pos.append(pos)
        new_ranks.append(t.ranks[i])
        new_orig.append(t.orig_ids[i])
        if i == npts - 1:
            break
        if i in plan:
            vec = plan[i]
            d_old = t.positions[i + 1] - t.positions[i]
            carry = carry + (vec.value(params) - d_old)
            word = balanced_word(vec)
            planned_letter_idx.append(len(new_letters))
            run = pos
            for ch in word.letters[:-1]:
                run = run + (params.alpha if ch == "a" else params.beta)
                new_letters.append(ch)
                new_pos.append(run)
                new_ranks.append(stage)
                new_orig.append(None)
            new_letters.append(word.letters[-1])
        else:
            new_letters.append(t.letters[i])
            if t.letters[i] is None:
                carry = zero
    t.positions = new_pos
    t.letters = new_letters
    t.ranks = new_ranks
    t.orig_ids = new_orig
    _promote_runs(t, planned_letter_idx, stage)


def _promote_runs(t: TiledSection, marks: list[int], stage: int):
    """Raise to `stage` the ranks of every regular run that swallowed a
    planned gap.  marks, the planned gaps' letter indices, increase
    strictly, so run [i, j] holds one exactly when bisection separates i
    from j."""
    for i, j in t.regular_runs():
        if bisect_left(marks, i) < bisect_left(marks, j):
            for k in range(i, j + 1):
                t.ranks[k] = max(t.ranks[k], stage)


# ---------------------------------------------------------------------------
# block growth

PAIR_SPACING = 3


def build_rank_blocks(w: OrbitWindow, schedule: Schedule,
                      seed: int = 0) -> TiledSection:
    """Grow rank-1 blocks inside a bounded-gap window.

    Pairs of adjacent points are picked left to right, leaving
    PAIR_SPACING..2*PAIR_SPACING+1 points untouched between pairs; each
    pair gap is retiled with one tileable (:func:`_pair_word`), which
    shifts the pair's right point by less than eps_1.
    """
    params = schedule.params
    if w.periodic:
        raise ValueError("tiling pipelines operate on open windows")
    rng = random.Random(seed)
    t = TiledSection.from_window(params, w, schedule)
    npts = len(t.positions)
    if npts < 2:
        t.notes.append("stage 1: fewer than two rank-0 blocks; stage truncated")
        return t
    # adjacent pair anchors lie at most 2*PAIR_SPACING + 3 gaps apart, and
    # each of them moves by less than the shift budget
    anchor_bound = ((qmax(*t.gap_values()) + schedule.shift_budget() * 2)
                    * (2 * PAIR_SPACING + 3))
    plan = {i: _pair_word(t, i, schedule)
            for i in _select_pairs(npts, PAIR_SPACING, rng)}
    _apply_gap_plan(t, plan, 1)
    _check_block_spacing(t, anchor_bound)
    return t


def _check_block_spacing(t: TiledSection, bound: QuadReal):
    """Left endpoints of adjacent rank-1 blocks stay within the spacing
    bound inherited from the pair-selection policy (interior pairs only)."""
    lefts = [i for i, j in t.regular_runs() if j > i]
    for a, b in zip(lefts[1:-1], lefts[2:]):
        gap = t.positions[b] - t.positions[a]
        if bound < gap:
            raise TilingError(f"stage 1: adjacent block anchors "
                              f"{gap} apart, beyond the spacing bound {bound}")


def _select_pairs(n_units: int, spacing: int, rng) -> list[int]:
    out = []
    i = 0
    while i + 1 < n_units:
        out.append(i)
        i += 2 + rng.randint(spacing, 2 * spacing + 1)
    return out


BAND_MISSED = "stage 1: eta band missed; using nearest frequency"


def _pair_word(t: TiledSection, i: int, schedule: Schedule) -> TileVector:
    """The tileable that retiles the bare gap (i, i+1) of a growth pair.

    The candidates lie strictly within eps_1 of the gap.  Those within
    eta_1 of rho in frequency are preferred; among the preferred, the one
    closest to rho in frequency, then closest to the gap, is taken, the
    first in value order on a tie.  When no candidate is in the band, the
    section's notes get ``BAND_MISSED`` once.
    """
    params = t.params
    rho = params.rho
    span = t.positions[i + 1] - t.positions[i]
    eps1 = schedule.eps[1]
    menu = [v for v in enumerate_tileable(params, span - eps1, span + eps1)
            if not v.is_zero() and abs(v.value(params) - span) < eps1]
    if not menu:
        raise TilingError(f"stage 1: no admissible composite shift "
                          f"between blocks at points {i}..{i + 1}")
    banded = [v for v in menu
              if abs(alpha_frequency(v) - rho) <= schedule.eta[1]]
    if banded:
        menu = banded
    elif BAND_MISSED not in t.notes:
        t.notes.append(BAND_MISSED)
    return min(menu, key=lambda v: (abs(alpha_frequency(v) - rho),
                                    abs(v.value(params) - span)))


# ---------------------------------------------------------------------------
# finishing


def sparse_tile(source, schedule: Schedule) -> TiledSection:
    """Tile every untiled gap, stage by stage along the chain hierarchy.

    Stage n handles the gaps of size at most K_n (one chain class at a
    time), shifting each class member by less than eps_n while the gap
    values are steered onto tileables; existing blocks ride rigidly and
    are never re-tiled.  Chain-class structure at thresholds K_m (m >= n)
    over the pre-existing points is verified unchanged after each stage.
    """
    params = schedule.params
    if isinstance(source, OrbitWindow):
        if source.periodic:
            raise ValueError("tiling pipelines operate on open windows")
        t = TiledSection.from_window(params, source, schedule)
    else:
        t = source
        if t.schedule is None:
            t.schedule = schedule
    depth = schedule.depth
    for stage in range(1, depth + 1):
        if t.is_fully_regular():
            break
        before = _class_signature(t, schedule, stage)
        plan = _finish_stage_plan(t, schedule, stage)
        if plan:
            _apply_gap_plan(t, plan, stage)
        after = _class_signature(t, schedule, stage)
        if before != after:
            raise TilingError(f"stage {stage} disturbed chain classes: "
                              f"{before} -> {after}")
    if not t.is_fully_regular():
        left = sum(1 for ch in t.letters if ch is None)
        t.notes.append(f"partial tiling: {left} gaps above K_{depth} remain "
                       f"(schedule depth insufficient for this window)")
    return t


def _class_signature(t: TiledSection, schedule: Schedule, stage: int):
    """Cardinalities, in order, of chain classes over original points at
    each threshold from the current stage up."""
    pts = [p for p, oid in zip(t.positions, t.orig_ids) if oid is not None]
    if len(pts) < 2:
        return ()
    w = OrbitWindow(pts)
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
    """
    params = t.params
    rho = params.rho
    eps_s = schedule.eps[stage]
    k_n = schedule.K[stage]
    zero = quad(0, 0, params.d)
    plan: dict[int, TileVector] = {}
    npts = len(t.positions)
    i = 0
    while i < npts - 1:
        # find the start of a chain class at threshold K_stage
        j = i
        while j < npts - 1 and not k_n < (t.positions[j + 1] - t.positions[j]):
            j += 1
        # class spans points [i, j]
        if j == i:
            i += 1
            continue
        carry = zero
        totals = TileVector(0, 0)
        g = i
        while g < j:
            if t.letters[g] is not None:
                k = g
                p = q = 0
                while k < j and t.letters[k] is not None:
                    p += t.letters[k] == "a"
                    q += t.letters[k] == "b"
                    k += 1
                totals = totals + TileVector(p, q)
                g = k
                continue
            d = t.positions[g + 1] - t.positions[g]
            if k_n < d:
                g += 1
                continue
            # peek the block right of this gap for the side rule
            k = g + 1
            p = q = 0
            while k < j and t.letters[k] is not None:
                p += t.letters[k] == "a"
                q += t.letters[k] == "b"
                k += 1
            peek = totals + TileVector(p, q)
            lo = d - carry - eps_s
            hi = d - carry + eps_s
            try:
                vec = _choose_gap_word(schedule, lo, hi, peek)
            except TilingError as e:
                raise TilingError(f"stage {stage}, gap {g}: {e}") from None
            if vec is None:
                raise TilingError(f"stage {stage}: no tileable in the corridor "
                                  f"of gap {g} (window ({lo}, {hi}))")
            plan[g] = vec
            carry = carry + (vec.value(params) - d)
            totals = totals + vec
            g += 1
        i = j + 1
    return plan


def _choose_gap_word(schedule: Schedule, lo: QuadReal, hi: QuadReal,
                     running: TileVector) -> Optional[TileVector]:
    rho = schedule.params.rho
    cands = schedule.table.between(lo, hi)
    if not cands:
        return None
    want_high = _wants_alpha(rho, running)

    def key(v):
        f = alpha_frequency(v)
        side_miss = 0 if ((f > rho) == want_high or f == rho) else 1
        after = running + v
        return (side_miss, abs(alpha_frequency(after) - rho), abs(f - rho),
                v.p + v.q)

    return min(cands, key=key)


def _wants_alpha(rho: Fraction, counts: TileVector) -> bool:
    if counts.is_zero():
        return True
    return alpha_frequency(counts) <= rho


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
    npts = len(t.positions)
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
    point's total displacement stays strictly under min(alpha, 1)/3, and
    partition witnesses for every level up to the schedule depth are
    attached and replayed before returning.
    """
    t = build_rank_blocks(w, schedule, seed=seed)
    cls = classify_section(t)
    t.notes.append(f"after growth: {cls.kind} with {len(cls.runs)} runs")
    if cls.kind != FULLY_REGULAR:
        t = sparse_tile(t, schedule)
    if not t.is_fully_regular():
        raise TilingError("pipeline left untiled gaps")
    check_displacements(t)
    attach_witnesses(t)
    return t


def check_displacements(t: TiledSection):
    """Every original point lies strictly within min(alpha, 1)/3 of its
    origin position; raises :class:`TilingError` otherwise, also for an
    original point without an origin position."""
    p = t.params
    budget = qmin(p.alpha, quad(1, 0, p.d)) / 3
    for pos, oid in zip(t.positions, t.orig_ids):
        if oid is None:
            continue
        if oid not in t.origin_pos:
            raise TilingError(f"original point {oid} has no origin position")
        disp = pos - t.origin_pos[oid]
        if not abs(disp) < budget:
            raise TilingError(f"original point {oid} displaced {disp}, not "
                              f"strictly below the min(alpha,1)/3 budget")


def attach_witnesses(t: TiledSection):
    """Build and store partition witnesses, level by level.

    Pieces are equal-count letter chunks no shorter than the measured
    uniform-frequency run length for the level's eta, so every piece
    inherits the banded frequency; piece values stay under the schedule's
    L for that level.  Levels 1..depth are attached in order until one is
    out of reach for this window (short windows may not support the
    deeper bands); the achieved depth is recorded in the notes.
    """
    sched = t.schedule
    if sched is None:
        raise WitnessError("section has no schedule")
    if not t.is_fully_regular():
        raise WitnessError("witnesses need a fully regular section")
    t.witnesses = []
    n = len(t.letters)
    scan = RunScan(t)
    achieved = 0
    for j in range(1, sched.depth + 1):
        eta_j = sched.eta[j]
        L_j = sched.L[j]
        rep = verify_uniform_frequency(t, eta_j, witnesses=False, scan=scan)
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
        wit = PartitionWitness(j, L_j, eta_j, tuple(cuts))
        if not wit.replay(t):
            raise WitnessError(f"level {j} witness failed replay")
        t.witnesses.append(wit)
        achieved = j


class UniformFrequencyReport(NamedTuple):
    eta: Fraction
    n_eta: Optional[int]
    counterexample: Optional[tuple[int, int]]  # (start gap, length)
    witnesses_ok: Optional[bool]


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
                             witnesses: bool = True,
                             scan: RunScan | None = None) -> UniformFrequencyReport:
    """Smallest N such that every run of at least N consecutive gaps has
    alpha-frequency within eta of rho, by exact integer scanning.

    Returns a counterexample window when even the full section fails.
    With ``witnesses=True`` also replays every stored partition witness.
    ``scan`` is the section's :class:`RunScan`, built here when not given;
    :func:`attach_witnesses` builds one for all its levels.

    The scan is word-parallel and exact.  With b the denominator of rho,
    dev[i] = b * (count of 'a' - rho * i) over the first i letters, and
    the run of r letters from gap i fails when |dev[i+r] - dev[i]| >= thr,
    thr = ceil(eta * b * r).  With S = max(dev) - min(dev), the shifted
    prefixes dev[i] - min(dev), each in [0, S], are packed once into one
    int: lane i holds bits [i*w, (i+1)*w), for a whole number of bytes w
    with 2**(w-1) > 2*S.  A run length r has k = n + 1 - r windows.  Let
    high be the packed int shifted down by r lanes, low its k lowest
    lanes, and c = 2**(w-1) - thr.  Then lane i of high + c*ones_k - low
    is dev[i+r] - dev[i] + c, and of low + c*ones_k - high it is
    dev[i] - dev[i+r] + c.  For 0 < thr <= S we have c > S, so every lane
    of high + c*ones_k or low + c*ones_k is more than S, the most a lane
    of the term subtracted can hold, and every result lane is below
    S + c < 2**w: no borrow or carry crosses a lane.  The run length fails
    exactly when some lane of either result has its top bit set.  The
    whole section, a single window, is tested from dev[n] first.
    """
    eta = Fraction(eta)
    if not t.is_fully_regular():
        raise ValueError("section must be regular on its interior")
    n = len(t.letters)
    if n == 0:
        return UniformFrequencyReport(eta, 1, None, True)
    if scan is None:
        scan = RunScan(t)
    b_ = scan.b
    lim = eta.numerator * b_

    def threshold(run: int) -> int:
        # a run of `run` letters fails when |dev[i+run] - dev[i]| >= this
        return -(-lim * run // eta.denominator)

    if abs(scan.end) >= threshold(n):
        rep = UniformFrequencyReport(eta, None, (0, n), None)
        if witnesses:
            rep = rep._replace(witnesses_ok=all(w.replay(t) for w in t.witnesses))
        return rep
    # from here eta > 0, so every threshold below is at least 1
    spread = scan.spread
    # all runs of length > spread*eta.den/(eta.num*b_) pass automatically
    start = min(n, int(Fraction(spread * eta.denominator, eta.numerator * b_)) + 1)
    width = scan.width
    top = 1 << (width - 1)
    packed, ones = scan.packed, scan.ones

    def fails(run: int) -> bool:
        thr = threshold(run)
        if thr > spread:
            return False
        mask = (1 << (n + 1 - run) * width) - 1
        high = packed >> run * width
        low = packed & mask
        ones_k = ones & mask
        bias = (top - thr) * ones_k
        return bool(((high + bias - low) | (low + bias - high))
                    & (ones_k << (width - 1)))

    n_eta = start
    run = start - 1
    while run >= 1:
        if fails(run):
            break
        n_eta = run
        run -= 1
    wok = None
    if witnesses:
        wok = all(w.replay(t) for w in t.witnesses)
    return UniformFrequencyReport(eta, n_eta, None, wok)
