"""Independent checks of the library's outputs, read from the artifact alone.

None of these call the pipeline's own checkers or asserts: the gap letters,
displacements, point provenance, witness replay and uniform run length are
recomputed here from the section's stored fields (the fields ``to_json``
writes), and orbit maps are checked piece by piece against both sections.
The displacement bound is the paper's strict one, ``|shift| <
min(alpha, 1)/3``; the pipeline's own check also accepts equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from flowtile.quadratic import QuadReal, qmin, quad


class SectionFacts(NamedTuple):
    disp_ratio: QuadReal        # worst |shift| / (min(alpha, 1)/3), exact
    n_eta: Optional[int]        # uniform run length N(eta), None if none exists
    witness_levels: int


def uniform_run_length(letters, rho: Fraction, eta: Fraction) -> Optional[int]:
    """Smallest N such that every run of at least N consecutive gaps has
    alpha-frequency strictly within eta of rho; None if the whole section
    misses."""
    num, den = rho.numerator, rho.denominator
    dev = list(accumulate((den - num if ch == "a" else -num for ch in letters),
                          initial=0))
    n = len(letters)
    if n == 0:
        return 1

    def fails(run: int) -> bool:
        # |dev[i+run] - dev[i]| >= eta * den * run, scaled to integers
        lim = eta.numerator * den * run
        return any(abs(dev[i + run] - dev[i]) * eta.denominator >= lim
                   for i in range(n - run + 1))

    if fails(n):
        return None
    # runs longer than spread / (eta * den) cannot fail
    spread = max(dev) - min(dev)
    run = min(n, spread * eta.denominator // (eta.numerator * den) + 1)
    while run > 1 and not fails(run - 1):
        run -= 1
    return run


def _replays(wit, letters, params) -> bool:
    cuts = wit.cuts
    if not cuts or cuts[0] != 0 or cuts[-1] != len(letters):
        return False
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            return False
        p = letters[a:b].count("a")
        if wit.max_value < params.alpha * p + params.beta * (b - a - p):
            return False
        if abs(Fraction(p, b - a) - params.rho) > wit.eta:
            return False
    return True


def check_section(t, window, schedule, eta: Fraction, full_witnesses: bool):
    """Problems found in a tiled section of ``window``, and its facts.  With
    ``full_witnesses`` the section must carry one witness per schedule stage
    and have a uniform run length N(eta)."""
    params = schedule.params
    pos, letters = t.positions, t.letters
    problems: list[str] = []
    if len(letters) != len(pos) - 1:
        problems.append(f"{len(letters)} letters for {len(pos)} points")
    for i, ch in enumerate(letters):
        want = params.alpha if ch == "a" else params.beta if ch == "b" else None
        if want is None or pos[i + 1] - pos[i] != want:
            problems.append(f"gap {i}: letter {ch!r} but size {pos[i + 1] - pos[i]}")
            break
    ids = [oid for oid in t.orig_ids if oid is not None]
    if ids != list(range(len(window))):
        problems.append("orig_ids are not complete and strictly increasing")
    if t.origin_pos != dict(enumerate(window.positions)):
        problems.append("origin_positions differ from the input window")
    budget = qmin(params.alpha, quad(1, 0, params.d)) / 3
    worst = quad(0, 0, params.d)
    for idx, oid in enumerate(t.orig_ids):
        if oid is None or oid not in t.origin_pos:
            continue
        shift = abs(pos[idx] - t.origin_pos[oid])
        if not shift < budget:
            problems.append(f"point {oid} moved {shift}, not under {budget}")
        if worst < shift:
            worst = shift
    for level, wit in enumerate(t.witnesses, start=1):
        if (wit.level, wit.eta, wit.max_value) != (
                level, schedule.eta[level], schedule.L[level]):
            problems.append(f"witness {level} claims level {wit.level}, eta "
                            f"{wit.eta}, max value {wit.max_value}")
        elif not _replays(wit, letters, params):
            problems.append(f"witness level {level} does not replay")
    lettered = all(ch in ("a", "b") for ch in letters)
    n_eta = uniform_run_length(letters, params.rho, eta) if lettered else None
    if full_witnesses and len(t.witnesses) != schedule.depth:
        problems.append(f"{len(t.witnesses)} witness levels for a depth-"
                        f"{schedule.depth} schedule")
    if full_witnesses and n_eta is None:
        problems.append(f"no uniform run length N({eta})")
    return problems, SectionFacts(worst / budget, n_eta, len(t.witnesses))


def check_loe(m, t1, t2, params) -> list[str]:
    """Every piece maps a gap of one kind onto a gap of the same kind with
    the exact tile length, no gap is used twice, and pieces plus residue
    account for every gap of both sections."""
    problems: list[str] = []
    starts = [{p: ch for p, ch in zip(t.positions, t.letters)} for t in (t1, t2)]
    for i, pc in enumerate(m.pieces):
        want = params.alpha if pc.kind == "a" else params.beta if pc.kind == "b" else None
        if want is None or pc.length != want:
            problems.append(f"piece {i}: kind {pc.kind!r} but length {pc.length}")
        if (starts[0].get(pc.src_lo) != pc.kind
                or starts[1].get(pc.dst_lo) != pc.kind):
            problems.append(f"piece {i}: ends are not {pc.kind!r} gaps")
        if problems:
            return problems
    for side, key, residue, t in (("source", 0, m.residue_src, t1),
                                  ("target", 1, m.residue_dst, t2)):
        used = {pc[key] for pc in m.pieces}
        if len(used) != len(m.pieces):
            problems.append(f"{side} gaps used twice")
        if len(m.pieces) + len(residue) != len(t.letters):
            problems.append(f"{side}: {len(m.pieces)} pieces + {len(residue)} "
                            f"residue for {len(t.letters)} gaps")
    return problems


def check_schedule(s, depth: int) -> list[str]:
    """Stage constants that the displacement and frequency claims rest on."""
    p = s.params
    problems: list[str] = []
    budget = qmin(p.alpha, quad(1, 0, p.d)) / 3
    total = quad(0, 0, p.d)
    for e in s.eps[1:]:
        total = total + e
    if not total < budget:
        problems.append(f"stage shifts sum to {total}, not under {budget}")
    if len(s.K) != depth + 1 or any(not a < b for a, b in zip(s.K, s.K[1:])):
        problems.append(f"thresholds {[str(k) for k in s.K]} for depth {depth}")
    if s.eta[0] != 1 or any(not b < a for a, b in zip(s.eta, s.eta[1:])):
        problems.append(f"eta sequence {s.eta} does not decrease from 1")
    if len(s.witnesses) != 2 * depth:
        problems.append(f"{len(s.witnesses)} density witnesses for depth {depth}")
    return problems
