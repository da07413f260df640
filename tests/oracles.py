"""The tests' oracles: one per concept, and every property test of that
concept compares the library with it.

An oracle computes its concept from the definition, by brute force or
on ``QuadReal`` values, never by the library's own method: an exhaustive
loop over every candidate, one exact comparison per value, or a check of
each clause that a docstring promises.  Names say which kind:

- ``<concept>_reference`` computes what the library function returns;
- ``brute_<concept>`` enumerates every candidate;
- ``<concept>_violations`` lists the clauses of the concept's definition
  that a result breaks (an empty list when it conforms).

A new oracle goes here, under its concept's name, and replaces any it
supersedes; the CI guard refuses an oracle defined in another test
module, and two oracles whose names share a concept.

Some of these are earlier ``QuadReal`` code of the library, kept as it
was written (renamed): the finishing functions, ``eps_dense_reference``,
``check_windows_reference``, ``parse_quadreal_reference``,
``generate_reference``, ``verify_loe_reference`` and
``_pair_word_reference``.
"""

import math
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from fractions import Fraction as F
from itertools import count, groupby
from typing import Optional, Sequence

from flowtile.generators import GRID, LEVELS, GeneratorSpec
from flowtile.loe import LoeReport, MatchState, PiecewiseTranslationMap
from flowtile.pipeline import (BAND_MISSED, Schedule, TiledSection,
                               TilingError)
from flowtile.quadratic import ConfigError, QuadReal, lattice, qmin, quad, quads
from flowtile.tiles import (DensityReport, Params, TileVector, WindowCheck,
                            alpha_frequency, balanced_word, default_params,
                            enumerate_tileable, eps_dense)
from flowtile.windows import ChainClasses, MarkerResult, OrbitWindow


# -- quadratic ----------------------------------------------------------------

# the Fraction-based parser the integer parser replaced: every literal it
# accepts must read to the same (a, b, c, d)

_SQRT_RE = re.compile(r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+)\)$")
_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_quadreal_reference(text: str, d: int | None = None) -> QuadReal:
    """Parse the canonical text form (inverse of :func:`format_quadreal`)."""
    if not isinstance(text, str):
        raise ValueError(f"QuadReal literal must be a string, not {text!r}")
    s = text.strip()
    if not s:
        raise ValueError("empty QuadReal literal")
    # split on top-level +/- separators surrounded by spaces, keep leading sign
    tokens = s.replace(" - ", " + -").split(" + ")
    r_acc = Fraction(0)
    s_acc = Fraction(0)
    d_seen: int | None = None
    for tok in tokens:
        tok = tok.strip()
        neg = tok.startswith("-") and tok[1:].lstrip().startswith("sqrt")
        m = _SQRT_RE.match(tok[1:].lstrip() if neg else tok)
        if m:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if neg:
                coef = -coef
            td = int(m.group("d"))
            if d_seen is not None and td != d_seen:
                raise ValueError(f"mixed radicands in {text!r}")
            d_seen = td
            s_acc += coef
        elif _RAT_RE.match(tok):
            r_acc += Fraction(tok)
        else:
            raise ValueError(f"cannot parse QuadReal term {tok!r}")
    if d_seen is not None and d is not None and d_seen != d:
        raise ValueError(f"radicand mismatch: literal has {d_seen}, expected {d}")
    return QuadReal(r_acc, s_acc, d_seen if d_seen is not None else d)


def on_lattice_violations(c: int, d: int, xs: Sequence[int],
                          ys: Sequence[int], groups: Sequence[Sequence[QuadReal]],
                          result) -> list[str]:
    """The clauses of ``on_lattice``'s definition that ``result`` breaks:
    result is what ``on_lattice(c, d, xs, ys, *groups)`` returned, or the
    exception it raised.

    Irrational values of two radicands, the held ones counted when one of
    them is irrational, raise ConfigError naming the two least.
    Otherwise (c2, d2, xs2, ys2, coords) holds every held value and every
    group's values, each read back through ``quads`` over c2 and d2, with
    c2 the least common multiple of c and the values' denominators; xs
    and ys come back as the same objects when c2 == c.
    """
    ds = sorted({v.d for g in groups for v in g if v.b}
                | ({d} if any(ys) else set()))
    if len(ds) > 1:
        text = f"mixed radicands: sqrt({ds[0]}) vs sqrt({ds[1]})"
        if type(result) is ConfigError and str(result) == text:
            return []
        return [f"radicands {ds}: want ConfigError {text!r}, got {result!r}"]
    if isinstance(result, Exception):
        return [f"one radicand, but raised {result!r}"]
    c2, d2, xs2, ys2, coords = result
    out = []
    want = math.lcm(c, *(v.c for g in groups for v in g))
    if c2 != want:
        out.append(f"denominator {c2}, not the lcm {want}")
    if quads(xs2, ys2, c2, d2) != quads(xs, ys, c, d):
        out.append("held values read back changed")
    if c2 == c and not (xs2 is xs and ys2 is ys):
        out.append("held lists copied although c2 == c")
    if len(coords) != len(groups):
        out.append(f"{len(coords)} coordinate groups for {len(groups)}")
    for k, (g, (gx, gy)) in enumerate(zip(groups, coords)):
        if quads(gx, gy, c2, d2) != list(g):
            out.append(f"group {k} read back changed")
    return out


# -- tiles --------------------------------------------------------------------

P = default_params()


def brute_tileable(lo, hi, params=P):
    """Oracle: every (p, q) up to hi/beta rows and, in each row, every p
    until p*alpha + q*beta passes hi, filtered, then sorted by exact
    value."""
    out = []
    for q in range((hi / params.beta).floor() + 1):
        for p in count():
            value = params.value(p, q)
            if hi < value:
                break
            if lo <= value:
                out.append(TileVector(p, q))
    return sorted(out, key=lambda v: v.value(params))


def eps_dense_reference(points, lo, hi, eps):
    """eps_dense as it was written on QuadReal objects: sort, clip by
    bisection, then compare every gap with eps."""
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


def brute_values_in(wit, lo, hi):
    """Oracle: every k x every offset, filtered, then stably sorted by
    value; the members."""
    params = wit.params
    x = params.alpha * wit.base.p + params.beta * wit.base.q
    out = []
    k = wit.k_min
    while not hi < x * k:  # offset values are >= 0
        for s in wit.offsets:
            p, q = k * wit.base.p + s.p, k * wit.base.q + s.q
            val = params.alpha * p + params.beta * q
            if lo <= val <= hi:
                out.append((val, TileVector(p, q)))
        k += 1
    return [m for _, m in sorted(out, key=lambda e: e[0])]


def check_windows_reference(wit, windows):
    """check_windows as it was written: eps_dense over values_in."""
    width = wit.params.beta * 20
    for i in range(windows):
        lo = wit.threshold + width * (2 * i)
        hi = lo + width
        members = wit.values_in(lo, hi)
        yield WindowCheck(lo, hi,
                          eps_dense(wit.params, members, lo, hi, wit.eps))


def dense_in_reference(wit, lo, hi):
    """eps_dense over every member of [lo, hi], found by brute force."""
    return eps_dense(wit.params, brute_values_in(wit, lo, hi), lo, hi, wit.eps)


# -- generators ---------------------------------------------------------------

# the QuadReal loops the lattice generator replaced

def generate_reference(spec: GeneratorSpec) -> OrbitWindow:
    spec.validate()
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        k0 = spec.k0 if spec.k0 is not None else quad(7)
        pos = [quad(0, 0, k0.d)]
        for _ in range(spec.count - 1):
            gap = k0 + 1 + F(rng.randint(0, GRID), GRID)
            pos.append(pos[-1] + gap)
        return OrbitWindow(pos)
    if spec.kind == "sparse_geometric":
        k0 = spec.k0 if spec.k0 is not None else quad(7)
        pos = [quad(0, 0, k0.d)]
        for i in range(spec.count - 1):
            # cycle the scales so both window halves see every gap size
            level = i % LEVELS
            gap = k0 * (spec.ratio ** level) + F(rng.randint(0, GRID), GRID)
            pos.append(pos[-1] + gap)
        return OrbitWindow(pos)
    # rotation_suspension: visit times of an exact circle rotation to [0, angle)
    theta = spec.angle
    pos = []
    j = 0
    x = quad(0, 0, theta.d)  # orbit point: fractional part of j*theta
    while len(pos) < spec.count:
        if x < theta:
            pos.append(quad(j, 0, theta.d))
        j += 1
        x = x + theta
        if not x < 1:
            x = x - 1
    return OrbitWindow(pos)


# -- windows ------------------------------------------------------------------


def chain_classes_reference(w: OrbitWindow, k: QuadReal) -> ChainClasses:
    """Maximal runs of points joined by gaps of at most k, each gap
    compared with k as a ``QuadReal``.  A threshold of at most 0 is a
    ValueError; irrational values of two radicands, in the window or in
    k, are a ConfigError naming the two least."""
    if k.sign() <= 0:
        raise ValueError("threshold must be positive")
    pos = w.positions
    ds = sorted({v.d for v in (*pos, k) if v.b})
    if len(ds) > 1:
        raise ConfigError(f"mixed radicands: sqrt({ds[0]}) vs sqrt({ds[1]})")
    runs: list[list[int]] = [[0]]
    for i, (a, b) in enumerate(zip(pos, pos[1:])):
        if k < b - a:
            runs.append([i + 1])
        else:
            runs[-1].append(i + 1)
    return ChainClasses(k, tuple(tuple(r) for r in runs))


def marker_subsection_violations(npoints: int, d: int,
                                 result: MarkerResult) -> list[str]:
    """The clauses of ``marker_subsection``'s definition that ``result``
    breaks, for a window of npoints points: the markers step from index
    0 to the last index by d or d + 1 at a time; when no such steps
    exist, the result is the anchor 0 alone, flagged as truncated."""
    n = npoints - 1
    splits = any((n - k * (d + 1)) % d == 0 for k in range(n // (d + 1) + 1))
    if not splits:
        if result != MarkerResult((0,), True):
            return [f"{n} steps do not split by {d} and {d + 1}: want the "
                    f"truncated anchor, got {result}"]
        return []
    marks = result.indices
    out = []
    if result.truncated:
        out.append(f"{n} steps split by {d} and {d + 1}, but flagged "
                   f"truncated")
    if marks[0] != 0 or marks[-1] != n:
        out.append(f"markers run from {marks[0]} to {marks[-1]}, not 0 to {n}")
    steps = {b - a for a, b in zip(marks, marks[1:])}
    if not steps <= {d, d + 1}:
        out.append(f"steps {sorted(steps)} besides {d} and {d + 1}")
    return out


def two_class_block_violations(ks: Sequence[QuadReal], pts: list[QuadReal],
                               length: QuadReal) -> list[str]:
    """The clauses of ``two_class_block``'s definition that (pts, length)
    breaks, for increasing thresholds ks: the points start at 0 and end
    at length; the gaps are two copies of the block's gaps for ks[:-1],
    joined by the midpoint of the two highest thresholds (no gap for one
    threshold); and, for positive thresholds, the block is one chain
    class at the top threshold and each chain class at k_{n+1} splits
    into exactly two at k_n."""
    out = []
    if pts[0] != 0 or length != pts[-1]:
        out.append(f"points from {pts[0]} to {pts[-1]}, length {length}")
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    for top in range(len(ks) - 1, 0, -1):
        half = len(gaps) // 2
        if (len(gaps) % 2 == 0 or gaps[half] != (ks[top - 1] + ks[top]) / 2
                or gaps[:half] != gaps[half + 1:]):
            return out + [f"the block for k_0..k_{top} is not two copies "
                          f"joined by the midpoint of k_{top - 1} and k_{top}"]
        gaps = gaps[:half]
    if gaps:
        out.append(f"{len(gaps)} gaps in the block for k_0 alone")
    if out or ks[0].sign() <= 0:
        return out
    w = OrbitWindow(pts)
    if len(chain_classes_reference(w, ks[-1]).classes) != 1:
        out.append("more than one class at the top threshold")
    for n in range(len(ks) - 1):
        for cls in chain_classes_reference(w, ks[n + 1]).classes:
            sub = OrbitWindow([pts[i] for i in cls])
            parts = len(chain_classes_reference(sub, ks[n]).classes)
            if parts != 2:
                out.append(f"class {cls[0]}..{cls[-1]} at k_{n + 1} splits "
                           f"into {parts} at k_{n}")
    return out


def brute_nested_runs_ok(levels: list[int]) -> bool:
    """Whether the gap levels nest: no two adjacent gaps both above level
    0 (no singleton interior class), and for each n below the top level,
    every interior maximal run of levels <= n, one with a level above n
    on either side, contains an n."""
    if any(a > 0 and b > 0 for a, b in zip(levels, levels[1:])):
        return False
    for n in range(max(levels, default=0)):
        runs = [(low, list(run))
                for low, run in groupby(levels, key=lambda lev: lev <= n)]
        for i, (low, run) in enumerate(runs):
            if low and 0 < i < len(runs) - 1 and n not in run:
                return False
    return True


# -- pipeline: finishing, as it was written on QuadReal values, except that
# each function reads the section's ``positions`` view once and
# ``_apply_gap_plan_reference`` stores its result with ``set_positions``;
# ``between_reference`` is the table's former bisection over its values


def regular_runs_reference(self) -> list[tuple[int, int]]:
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


def is_fully_regular_reference(self) -> bool:
    return all(ch is not None for ch in self.letters)


def _apply_gap_plan_reference(t: TiledSection, plan: dict[int, TileVector],
                              stage: int, bound: QuadReal):
    """Retile the planned gaps and propagate the induced shifts.

    Walking left to right, a running carry holds the displacement of the
    current point: a planned gap adds (new value - old gap) to it, a
    lettered gap transports it rigidly (blocks move as one), and a bare
    unplanned gap absorbs it back to zero.  Every shifted point is checked
    against the stage bound eps[stage] before promotion.
    """
    params = t.params
    zero = quad(0, 0, params.d)
    new_pos: list[QuadReal] = []
    new_letters: list[Optional[str]] = []
    new_ranks: list[int] = []
    new_orig: list[Optional[int]] = []
    planned_letter_idx: list[int] = []
    carry = zero
    positions = t.positions
    npts = len(positions)
    for i in range(npts):
        pos = positions[i] + carry
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
            d_old = positions[i + 1] - positions[i]
            carry = carry + (vec.value(params) - d_old)
            word = balanced_word(vec)
            planned_letter_idx.append(len(new_letters))
            run = pos
            for ch in word[:-1]:
                run = run + (params.alpha if ch == "a" else params.beta)
                new_letters.append(ch)
                new_pos.append(run)
                new_ranks.append(stage)
                new_orig.append(None)
            new_letters.append(word[-1])
        else:
            new_letters.append(t.letters[i])
            if t.letters[i] is None:
                carry = zero
    set_positions(t, new_pos)
    t.letters = new_letters
    t.ranks = new_ranks
    t.orig_ids = new_orig
    promote_runs_reference(t, planned_letter_idx, stage)


def set_positions(t: TiledSection, positions: list[QuadReal]):
    """Store positions in t as the section holds them: lattice
    coordinates, with alpha and beta on the same lattice."""
    t.c, t.d, [(t.xs, t.ys), _] = lattice(positions,
                                          [t.params.alpha, t.params.beta])


def promote_runs_reference(t: TiledSection, marks: list[int], stage: int):
    """Raise to `stage` the ranks of every regular run [i, j] that
    swallowed a planned gap: one with a mark g, i <= g < j."""
    for i, j in regular_runs_reference(t):
        if any(i <= g < j for g in marks):
            for k in range(i, j + 1):
                t.ranks[k] = max(t.ranks[k], stage)


def _finish_stage_plan_reference(t: TiledSection, schedule: Schedule,
                                 stage: int) -> dict[int, TileVector]:
    """Greedy gap steering for one stage, class by class.

    Within a class the running carry (sum of value changes so far) stays
    strictly inside the stage corridor; each gap's candidate tileables are
    read from the corridor-shifted window, preferring the frequency side
    that rebalances the class mix including the next block.
    """
    params = t.params
    eps_s = schedule.eps[stage]
    k_n = schedule.K[stage]
    zero = quad(0, 0, params.d)
    plan: dict[int, TileVector] = {}
    positions = t.positions
    npts = len(positions)
    i = 0
    while i < npts - 1:
        # find the start of a chain class at threshold K_stage
        j = i
        while j < npts - 1 and not k_n < (positions[j + 1] - positions[j]):
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
            d = positions[g + 1] - positions[g]
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
                vec = _choose_gap_word_reference(schedule, lo, hi, peek)
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


def _choose_gap_word_reference(schedule: Schedule, lo: QuadReal, hi: QuadReal,
                               running: TileVector) -> Optional[TileVector]:
    rho = schedule.params.rho
    cands = between_reference(schedule.table, lo, hi)
    if not cands:
        return None
    want_high = _wants_alpha_reference(rho, running)

    def key(v):
        f = alpha_frequency(v)
        side_miss = 0 if ((f > rho) == want_high or f == rho) else 1
        after = running + v
        return (side_miss, abs(alpha_frequency(after) - rho), abs(f - rho),
                v.p + v.q)

    return min(cands, key=key)


def _wants_alpha_reference(rho: F, counts: TileVector) -> bool:
    if counts.is_zero():
        return True
    return alpha_frequency(counts) <= rho


_TABLE_VALUES: dict[int, tuple] = {}


def between_reference(table, lo: QuadReal, hi: QuadReal) -> list[TileVector]:
    """Nonzero tile vectors of value strictly inside (lo, hi), in value
    order."""
    if id(table) not in _TABLE_VALUES:
        _TABLE_VALUES[id(table)] = (
            table, [v.value(table.params) for v in table.vectors])
    values = _TABLE_VALUES[id(table)][1]
    if table.top < hi:
        raise TilingError(f"corridor ({lo}, {hi}) reaches above the "
                          f"tileable table's top {table.top}")
    return table.vectors[bisect_right(values, lo):
                         bisect_left(values, hi)]


def check_displacements_reference(t: TiledSection):
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


# -- pipeline: growth, certificates -------------------------------------------


def _pair_word_reference(t: TiledSection, i: int,
                         schedule: Schedule) -> TileVector:
    """The tileable that retiles the bare gap (i, i+1) of a growth pair.

    The candidates lie strictly within eps_1 of the gap.  Those within
    eta_1 of rho in frequency are preferred; among the preferred, the one
    closest to rho in frequency, then closest to the gap, is taken, the
    first in value order on a tie.  When no candidate is in the band, the
    section's notes get ``BAND_MISSED`` once.
    """
    params = t.params
    rho = params.rho
    span = t.gap(i)
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


def brute_uniform_frequency(letters, rho, eta):
    """(n_eta, counterexample) from every window of every length."""
    n = len(letters)
    pre = [0]
    for ch in letters:
        pre.append(pre[-1] + (ch == "a"))

    def good(r):
        return all(abs(F(pre[i + r] - pre[i], r) - rho) < eta
                   for i in range(n - r + 1))

    if not good(n):
        return None, (0, n)
    n_eta = n
    while n_eta > 1 and good(n_eta - 1):
        n_eta -= 1
    return n_eta, None


def replay_reference(wit, section):
    """Witness replay: every piece sliced, counted and tested with
    Fractions."""
    params = section.params
    n = len(section.letters)
    if not wit.cuts or wit.cuts[0] != 0 or wit.cuts[-1] != n:
        return False
    for a, b in zip(wit.cuts, wit.cuts[1:]):
        if not a < b:
            return False
        seg = section.letters[a:b]
        if any(ch is None for ch in seg):
            return False
        p = seg.count("a")
        if wit.max_value < params.value(p, len(seg) - p):
            return False
        if abs(F(p, len(seg)) - params.rho) > wit.eta:
            return False
    return True


# -- loe ----------------------------------------------------------------------


def match_equidense_reference(a_set: Sequence[int], b_set: Sequence[int],
                              max_k: int | None = None) -> MatchState:
    """Pair elements of two index sets by forward successor steps.

    Stage k matches every still-unmatched a in the first set whose k-step
    successor a + k is a still-unmatched member of the second set; a point
    enters stage k only if no smaller displacement worked.  Unmatched
    points on either side are returned as residue.
    """
    a_sorted = sorted(set(a_set))
    b_sorted = sorted(set(b_set))
    if max_k is None:
        hi = max(a_sorted + b_sorted, default=0)
        max_k = hi + 1
    b_free = set(b_sorted)
    a_free = list(a_sorted)
    stages: list[tuple[list[int], list[int]]] = []
    pairing: dict[int, int] = {}
    for k in range(max_k + 1):
        ak = [a for a in a_free if a + k in b_free]
        if ak:
            bk = [a + k for a in ak]
            for a, b in zip(ak, bk):
                pairing[a] = b
                b_free.discard(b)
            a_free = [a for a in a_free if a not in pairing]
            stages.append((ak, bk))
        else:
            stages.append(([], []))
        if not a_free or not b_free:
            break
    return MatchState(stages, pairing, a_free, sorted(b_free))


def build_loe_violations(m: PiecewiseTranslationMap, t1: TiledSection,
                         t2: TiledSection) -> list[str]:
    """The clauses of ``build_loe``'s definition that the map m from t1
    to t2 breaks: each piece starts on a gap of each section with its
    letter and has that letter's tile length; the k-th alpha gap of t1
    maps to the k-th alpha gap of t2, for k below the smaller count; each
    beta gap follows its alpha gap through each section's own
    ``match_equidense_reference``; the pieces come in source order; and
    pieces plus residue cover every gap of each section once, the residue
    in increasing order."""
    params = t1.params
    at1 = {p: i for i, p in enumerate(t1.positions[:-1])}
    at2 = {p: j for j, p in enumerate(t2.positions[:-1])}
    out = []
    pairs = []
    for k, p in enumerate(m.pieces):
        i, j = at1.get(p.src_lo), at2.get(p.dst_lo)
        if i is None or j is None:
            out.append(f"piece {k} starts on no gap of both sections")
            continue
        if not p.kind == t1.letters[i] == t2.letters[j]:
            out.append(f"piece {k} of kind {p.kind!r} maps gap {i} "
                       f"({t1.letters[i]}) to gap {j} ({t2.letters[j]})")
        if p.length != (params.alpha if p.kind == "a" else params.beta):
            out.append(f"piece {k} of kind {p.kind!r} has length {p.length}")
        pairs.append((i, j, p.kind))
    a1 = [i for i, ch in enumerate(t1.letters) if ch == "a"]
    a2 = [j for j, ch in enumerate(t2.letters) if ch == "a"]
    b1 = [i for i, ch in enumerate(t1.letters) if ch == "b"]
    b2 = [j for j, ch in enumerate(t2.letters) if ch == "b"]
    if [(i, j) for i, j, kind in pairs if kind == "a"] != list(zip(a1, a2)):
        out.append("the alpha pieces do not map the k-th alpha gap to the "
                   "k-th")
    theta1 = match_equidense_reference(a1, b1).pairing
    theta2 = match_equidense_reference(a2, b2).pairing
    beta = sorted((theta1[i], theta2[j]) for i, j in zip(a1, a2)
                  if i in theta1 and j in theta2)
    if sorted((i, j) for i, j, kind in pairs if kind == "b") != beta:
        out.append("the beta pieces do not follow their alpha gaps")
    src = [i for i, _, _ in pairs]
    if src != sorted(src):
        out.append("pieces out of source order")
    for side, mapped, residue, n in (
            ("source", src, m.residue_src, len(t1.letters)),
            ("target", [j for _, j, _ in pairs], m.residue_dst,
             len(t2.letters))):
        if sorted(mapped + list(residue)) != list(range(n)):
            out.append(f"pieces and residue do not cover each {side} gap "
                       f"once")
        if list(residue) != sorted(residue):
            out.append(f"{side} residue out of order")
    return out


def verify_loe_reference(m: PiecewiseTranslationMap, params: Params) -> LoeReport:
    """Check a translation map piece by piece.

    Sources must be pairwise disjoint, likewise targets; every piece's
    declared kind must match its length under params; lengths are shared
    exactly by construction, so the check is on overlaps and kinds.  An
    empty map passes vacuously.
    """
    failures: list[str] = []
    if not m.pieces:
        return LoeReport(True, [], 0, None)
    for label, key in (("source", lambda p: p.src_lo), ("target", lambda p: p.dst_lo)):
        ordered = sorted(m.pieces, key=key)
        for x, y in zip(ordered, ordered[1:]):
            if key(y) < key(x) + x.length:
                failures.append(f"{label} pieces overlap at {key(y)}")
    total = m.pieces[0].length * 0
    for i, p in enumerate(m.pieces):
        if p.kind not in ("a", "b"):
            failures.append(f"piece {i}: unknown kind {p.kind!r}")
        want = params.alpha if p.kind == "a" else params.beta
        if p.length != want:
            failures.append(f"piece {i}: kind {p.kind} but length {p.length}")
        total = total + p.length
    return LoeReport(not failures, failures, len(m.pieces), total)
