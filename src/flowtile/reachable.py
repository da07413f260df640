"""Reachable-sum sets under bounded prefix deviation.

Given gaps d_1..d_n and per-gap admissible tileables R_k close to d_k, the
reachable set collects every total sum of one choice per gap whose running
deviation from the gap prefix sums stays strictly inside (-eps, eps).
This is the engine behind the rearrangement greedy and the frequency
boost.  The tiling pipelines in :mod:`pipeline` do not use it: block
growth retiles each single pair gap with one tileable, and finishing
steers each gap greedily.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .quadratic import QuadReal, gcd_ladder, quad, real_gcd
from .tiles import Params, TileVector, alpha_frequency


class BoostError(ValueError):
    """A boost step found no admissible choice; carries the failing index."""

    def __init__(self, msg, k=None, side=None):
        super().__init__(msg)
        self.k = k
        self.side = side


class ShiftProblem:
    """Gaps plus admissible per-gap tileables within eps of each gap."""

    __slots__ = ("params", "eps", "gaps", "choices")

    def __init__(self, params: Params, eps: QuadReal, gaps: Sequence[QuadReal],
                 choices: Sequence[Sequence[TileVector]]):
        if len(gaps) != len(choices):
            raise ValueError("one choice set per gap required")
        if eps.sign() <= 0:
            raise ValueError("eps must be positive")
        self.params = params
        self.eps = eps
        self.gaps = list(gaps)
        self.choices = [list(rk) for rk in choices]
        for k, (d, rk) in enumerate(zip(self.gaps, self.choices)):
            for v in rk:
                if not abs(v.value(params) - d) < eps:
                    raise ValueError(
                        f"choice {v} at index {k} lies outside the open "
                        f"eps-neighborhood of the gap")

    @property
    def n(self) -> int:
        return len(self.gaps)

    def total(self) -> QuadReal:
        t = quad(0, 0, self.params.d)
        for d in self.gaps:
            t = t + d
        return t


class ReachableElement(NamedTuple):
    value: QuadReal
    counts: TileVector
    witness: tuple[TileVector, ...]


class ReachableSet:
    """The set of reachable totals, one replayable witness per element."""

    def __init__(self, problem: ShiftProblem, elements: Iterable[ReachableElement]):
        self.problem = problem
        self.elements = sorted(elements, key=lambda e: e.value)

    def values(self) -> list[QuadReal]:
        return [e.value for e in self.elements]

    def counts(self) -> set[TileVector]:
        return {e.counts for e in self.elements}

    def __len__(self):
        return len(self.elements)

    def __contains__(self, value: QuadReal) -> bool:
        return any(e.value == value for e in self.elements)

    def replay_ok(self) -> bool:
        """Check every witness: prefix deviations inside (-eps, eps), sums match."""
        prob = self.problem
        for el in self.elements:
            if len(el.witness) != prob.n:
                return False
            dev = quad(0, 0, prob.params.d)
            counts = TileVector(0, 0)
            for d, y in zip(prob.gaps, el.witness):
                dev = dev + (d - y.value(prob.params))
                counts = counts + y
                if not abs(dev) < prob.eps:
                    return False
            if counts != el.counts or el.value != counts.value(prob.params):
                return False
        return True


def enumerate_reachable(problem: ShiftProblem) -> ReachableSet:
    """Complete reachable set by forward dynamic programming.

    States live on the (finite) lattice of reachable prefix deviations;
    rational independence makes counts <-> deviation one-to-one, so keying
    states by counts loses nothing and stays hashable.
    """
    params = problem.params
    # state: counts -> (value, witness)
    states: dict[TileVector, tuple[QuadReal, tuple[TileVector, ...]]] = {
        TileVector(0, 0): (quad(0, 0, params.d), ())}
    pref = quad(0, 0, params.d)
    for d, rk in zip(problem.gaps, problem.choices):
        pref = pref + d
        vals = [(y, y.value(params)) for y in rk]
        nxt: dict[TileVector, tuple[QuadReal, tuple[TileVector, ...]]] = {}
        for counts, (val, wit) in states.items():
            for y, yval in vals:
                c2 = counts + y
                if c2 in nxt:
                    continue
                v2 = val + yval
                if abs(pref - v2) < problem.eps:
                    nxt[c2] = (v2, wit + (y,))
        states = nxt
        if not states:
            break
    return ReachableSet(problem, (ReachableElement(val, c, wit)
                                  for c, (val, wit) in states.items()))


def brute_force_reachable(problem: ShiftProblem, budget: int = 2_000_000) -> ReachableSet:
    """Oracle: exhaustive search over all selections, prefix-pruned.

    Equivalent to the cartesian product filtered by the prefix constraint;
    pruning only skips extensions of already-invalid prefixes.
    """
    size = 1
    for rk in problem.choices:
        size *= max(1, len(rk))
    if size > budget:
        raise ValueError(f"search space {size} exceeds budget {budget}")
    params = problem.params
    out: dict[TileVector, ReachableElement] = {}
    n = problem.n
    gaps = problem.gaps
    vals = [[(y, y.value(params)) for y in rk] for rk in problem.choices]

    def rec(k, dev, counts, val, wit):
        if k == n:
            if counts not in out:
                out[counts] = ReachableElement(val, counts, wit)
            return
        for y, yv in vals[k]:
            d2 = dev + (gaps[k] - yv)
            if abs(d2) < problem.eps:
                rec(k + 1, d2, counts + y, val + yv, wit + (y,))

    rec(0, quad(0, 0, params.d), TileVector(0, 0), quad(0, 0, params.d), ())
    return ReachableSet(problem, out.values())


def rearrange_permutation(values: Sequence[QuadReal], d: QuadReal,
                          eps: QuadReal) -> list[int]:
    """Order values so every prefix sum stays within eps of the matching
    multiple of d.

    Requires |n*d - sum(values)| < eps and each value inside the open
    eps-neighborhood of d.  Greedy: while undershooting take the smallest
    unused value >= d, while overshooting the smallest unused value <= d,
    falling back to the smallest unused value when no candidate qualifies.
    """
    n = len(values)
    total = quad(0, 0, d.d)
    for v in values:
        if not abs(v - d) < eps:
            raise ValueError("a value lies outside the eps-neighborhood of d")
        total = total + v
    if not abs(d * n - total) < eps:
        raise ValueError("total strays from n*d by eps or more")
    order = sorted(range(n), key=lambda i: values[i])
    unused = list(order)  # kept sorted by value then index
    perm: list[int] = []
    run = quad(0, 0, d.d)
    target = quad(0, 0, d.d)
    for _ in range(n):
        if not target < run:  # run <= k*d so far: go up
            pick = next((i for i in unused if not values[i] < d), None)
        else:
            pick = next((i for i in unused if not d < values[i]), None)
        if pick is None:
            pick = unused[0]
        unused.remove(pick)
        perm.append(pick)
        run = run + values[pick]
        target = target + d
        if not abs(target - run) < eps:  # pragma: no cover - guarded by pre
            raise AssertionError("greedy violated the prefix bound")
    return perm


def boost_length_bound(params: Params, dmax: QuadReal, zeta: Fraction) -> int:
    """Minimum number of gaps for the frequency boost to hit a zeta-window.

    Two strict thresholds: M1 steps after which one extra term moves the
    running frequency by less than zeta, and M2 further steps to carry the
    frequency across the target from either side.
    """
    zeta = Fraction(zeta)
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    a2 = params.alpha * params.alpha
    bound1 = (dmax + 2) * Fraction(2, 1) / zeta * params.beta / a2
    m1 = bound1.floor() + 1
    bound2 = (dmax * m1 + 2) * Fraction(2, 1) / zeta * params.beta / a2
    m2 = bound2.floor() + 1
    return m1 + m2


def frequency_boost(problem: ShiftProblem, gamma: Fraction, zeta: Fraction,
                    eta: Fraction, enforce_bound: bool = True) -> ReachableElement:
    """Steer the reachable sum's alpha frequency into a zeta-window of gamma.

    At each step the choice is constrained on two axes: the value side that
    keeps the running deviation inside the corridor, and the frequency side
    (above rho+eta or below rho-eta) that pulls the running frequency back
    toward gamma.  With enough steps the final frequency lands within zeta
    of gamma; ``enforce_bound=False`` skips the length check for small test
    problems whose outcome is verified directly.  A problem with no gaps
    is refused.
    """
    params = problem.params
    rho = params.rho
    gamma = Fraction(gamma)
    zeta = Fraction(zeta)
    eta = Fraction(eta)
    if not (rho - eta < gamma < rho + eta):
        raise ValueError("gamma must lie inside the open eta-band around rho")
    if not problem.n:
        raise ValueError("shift problem has no gaps to boost")
    if enforce_bound:
        dmax = problem.gaps[0]
        for d in problem.gaps[1:]:
            if dmax < d:
                dmax = d
        need = boost_length_bound(params, dmax, zeta)
        if problem.n < need:
            raise ValueError(f"problem has {problem.n} gaps; boost bound needs {need}")
    dev = quad(0, 0, params.d)
    counts = TileVector(0, 0)
    val = quad(0, 0, params.d)
    wit: list[TileVector] = []
    for k, (d, rk) in enumerate(zip(problem.gaps, problem.choices)):
        go_up = not dev.sign() < 0  # sum <= prefix so far
        if counts.is_zero():
            want_high = True
        else:
            want_high = alpha_frequency(counts) <= gamma
        best = None
        best_key = None
        for y in rk:
            yval = y.value(params)
            if go_up and yval < d:
                continue
            if not go_up and d < yval:
                continue
            f = alpha_frequency(y) if (y.p + y.q) else None
            if f is None:
                continue
            if want_high and f < rho + eta:
                continue
            if not want_high and rho - eta < f:
                continue
            d2 = dev + (d - yval)
            if not abs(d2) < problem.eps:
                continue
            key = abs(d2)  # strict <: ties keep the earlier choice
            if best is None or key < best_key:
                best, best_key = (y, yval, d2), key
        if best is None:
            side = "high" if want_high else "low"
            raise BoostError(
                f"no admissible choice at gap {k} on the {side}-frequency, "
                f"{'up' if go_up else 'down'}-value side", k=k, side=side)
        y, yval, dev = best
        counts = counts + y
        val = val + yval
        wit.append(y)
    return ReachableElement(val, counts, tuple(wit))


def lattice_threshold(problem_m: int, eps: QuadReal, delta: QuadReal,
                      d: QuadReal, x: QuadReal, y: QuadReal):
    """Step count after which combinations of two reachable elements either
    delta-fill the eps-neighborhood of the running total or pin down the
    full gcd lattice inside it.

    x and y must be reachable totals of some m-gap constant problem with
    x - m*d < 0 < y - m*d, and d itself must be admissible.  Returns
    ``(N, c, case)`` where c = real_gcd(|x - m*d|, |y - m*d|) and case is
    "dense" (c < delta: delta-density from N on) or "lattice" (c >= delta:
    every n*d + k*c inside the open eps-neighborhood is reachable for
    n >= N).
    """
    a = x - d * problem_m
    b = y - d * problem_m
    if not (a.sign() < 0 < b.sign()):
        raise ValueError("need x < m*d < y")
    rows, coeffs = gcd_ladder(a, b, delta=delta)
    ak, bk, _, _ = rows[-1]
    pa, qa, pb, qb = coeffs
    n_tilde = problem_m * max(pa + qa, pb + qb, 1)
    c = real_gcd(abs(a), abs(b))
    if ak.is_zero() or bk.is_zero():
        # exact termination: surviving value is the gcd
        l_last = rows[-1][2] if ak.is_zero() else 1
        n_c = max(0, ((eps / c) - 1).ceil())
        n_c = max(1, n_c)
        return n_c * max(1, l_last) * n_tilde, c, ("lattice" if not c < delta else "dense")
    # both survivors below delta: count multiples needed to sweep the corridor
    steps_a = max(1, (eps / abs(ak)).ceil())
    steps_b = max(1, (eps / bk).ceil())
    return max(steps_a, steps_b) * n_tilde, c, "dense"
