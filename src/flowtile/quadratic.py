"""Exact arithmetic on the real quadratic field Q(sqrt(D)).

Every quantity in this package -- positions, gaps, thresholds, shift
budgets -- is a :class:`QuadReal`, a number of the form ``r + s*sqrt(D)``
with rational ``r``, ``s`` and a fixed positive square-free integer ``D``.
Comparisons are decided by integer arithmetic alone; no floating point is
ever consulted for a decision.  Text literals are read on integers too:
:func:`parse_quadreal` takes each coefficient as an integer numerator and
denominator and builds the value once, with no ``Fraction`` in between.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from itertools import compress, count, islice, repeat
from operator import ge, sub
from typing import Iterable, Sequence, Union

DEFAULT_D = 2

RationalLike = Union[int, Fraction]


class ConfigError(ValueError):
    """Raised when two values from incompatible fields are combined."""


@total_ordering
class QuadReal:
    """An exact element ``(a + b*sqrt(d)) / c`` with integers a, b, c > 0.

    The triple is kept normalized: gcd(a, b, c) == 1 and c > 0, so equal
    values have equal representations and hash consistently.  The radicand
    d must be an integer of at least 2 that is not a perfect square, so
    that r and s are determined by the value; the constructor raises
    ValueError otherwise.  :meth:`_raw` takes d unchecked.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, r: RationalLike = 0, s: RationalLike = 0, d: int | None = None):
        if isinstance(r, QuadReal):
            raise TypeError("pass rationals; QuadReal copies are unnecessary (immutable)")
        d = DEFAULT_D if d is None else d
        if not isinstance(d, int) or d < 2 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"radicand {d!r} is not an integer of at least 2 "
                             f"that is not a perfect square")
        rf = Fraction(r)
        sf = Fraction(s)
        c = rf.denominator * sf.denominator // math.gcd(rf.denominator, sf.denominator)
        a = rf.numerator * (c // rf.denominator)
        b = sf.numerator * (c // sf.denominator)
        g = math.gcd(a, b, c)
        self.a = a // g
        self.b = b // g
        self.c = c // g
        self.d = d

    @classmethod
    def _raw(cls, a: int, b: int, c: int, d: int) -> "QuadReal":
        self = object.__new__(cls)
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        return self

    # -- field accessors ----------------------------------------------------

    @property
    def r(self) -> Fraction:
        """Rational part (coefficient of 1), in lowest terms."""
        return Fraction(self.a, self.c)

    @property
    def s(self) -> Fraction:
        """Coefficient of sqrt(d), in lowest terms."""
        return Fraction(self.b, self.c)

    def is_rational(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.c == 1

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "QuadReal":
        if isinstance(other, QuadReal):
            if other.d != self.d and other.b != 0 and self.b != 0:
                raise ConfigError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return QuadReal._raw(f.numerator, 0, f.denominator, self.d)
        return NotImplemented  # type: ignore[return-value]

    def _same_d(self, other: "QuadReal") -> int:
        return self.d if self.b != 0 or other.b == 0 else other.d

    def __add__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_d(o)
        return QuadReal._raw(self.a * o.c + o.a * self.c,
                             self.b * o.c + o.b * self.c,
                             self.c * o.c, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadReal":
        return QuadReal._raw(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_d(o)
        return QuadReal._raw(self.a * o.c - o.a * self.c,
                             self.b * o.c - o.b * self.c,
                             self.c * o.c, d)

    def __rsub__(self, other) -> "QuadReal":
        return (-self).__add__(other)

    def __mul__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_d(o)
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return QuadReal._raw(a, b, self.c * o.c, d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero QuadReal")
        d = self._same_d(o)
        # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - b^2 d)
        norm = o.a * o.a - o.b * o.b * d
        a = (self.a * o.a - self.b * o.b * d) * o.c
        b = (self.b * o.a - self.a * o.b) * o.c
        return QuadReal._raw(a, b, self.c * norm, d)

    def __rtruediv__(self, other) -> "QuadReal":
        o = self._coerce(other)
        return o / self

    def __abs__(self) -> "QuadReal":
        return -self if self.sign() < 0 else self

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value, by case analysis and integer squaring."""
        return sign_of(self.a, self.b, self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, QuadReal):
            return NotImplemented
        if self.b != 0 and other.b != 0 and self.d != other.d:
            return False
        return self.a == other.a and self.b == other.b and self.c == other.c

    def _cmp(self, o: "QuadReal") -> int:
        """Exact sign of self - other, allocation-free."""
        return sign_of(self.a * o.c - o.a * self.c,
                       self.b * o.c - o.b * self.c,
                       self.d if self.b else o.d)

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b != 0 and o.b != 0 and self.d != o.d:
            raise ConfigError(f"mixed radicands: sqrt({self.d}) vs sqrt({o.d})")
        return self._cmp(o) < 0

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rounding ------------------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via integer square roots."""
        return floor_of(self.a, self.b, self.c, self.d)

    def ceil(self) -> int:
        return -(-self).floor()

    def __float__(self) -> float:
        return self.a / self.c + (self.b / self.c) * math.sqrt(self.d)

    def approx(self) -> str:
        """Decimal approximation for display only, marked approximate."""
        return f"~{float(self):.12g}"

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return format_quadreal(self)

    def __repr__(self) -> str:
        return f"QuadReal({self.r!r}, {self.s!r}, d={self.d})"


# -- integer primitives -------------------------------------------------------
#
# A value (a + b*sqrt(d)) / c is decided from its integer coordinates alone;
# QuadReal's order and rounding use these, and so do the lattice sweeps in
# :mod:`flowtile.tiles`, finishing and the tileable table in
# :mod:`flowtile.pipeline`, chain classes in :mod:`flowtile.windows` and the
# orbit maps of :mod:`flowtile.loe`, which keep many values over one common
# c.  :func:`lattice_order` sorts them on the integer screen of
# :func:`screen_root` and calls :func:`sign_of` only for keys closer than
# the screen's margin; :func:`lattice_key` and :func:`lattice_keys` give
# exact floors, where a bisection or a maximum needs them.


def sign_of(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), by case analysis and integer squaring."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 d
    lhs = a * a
    rhs = b * b * d
    if a > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def floor_of(a: int, b: int, c: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(d)) / c for c > 0, via integer square
    roots."""
    if b == 0:
        return a // c
    n = b * b * d
    # floor(b*sqrt(d)) is isqrt(n) for b > 0 and -ceil(sqrt(n)) for b < 0
    w = math.isqrt(n) if b > 0 else -math.isqrt(n - 1) - 1
    return (a + w) // c


def screen_root(d: int, k: int) -> int:
    """r = floor(2**k * sqrt(d)), the root of the integer screens.  For
    integers x and y the screened value (x << k) + y*r lies within |y| of
    2**k * (x + y*sqrt(d)):

        |(x << k) + y*r - 2**k*(x + y*sqrt(d))| < |y|,

    and the two are equal when y == 0, since 0 < 2**k*sqrt(d) - r < 1 for
    d not a perfect square.  Below the screened value by that margin a
    value is certainly below, above it by the margin certainly above;
    only values inside the margin need :func:`sign_of`."""
    return math.isqrt(d << 2 * k)


# Bits of resolution below the unit of the lattice keys, read at each call;
# any value is exact, larger ones leave fewer ties to the sign test.
KEY_BITS = 32


def lattice_key(x: int, y: int, c: int, d: int, bits: int | None = None) -> int:
    """The exact floor of 2**bits * (x + y*sqrt(d)) / c, for c > 0; bits
    is KEY_BITS unless given."""
    k = KEY_BITS if bits is None else bits
    return floor_of(x << k, y << k, c, d)


def lattice_keys(xs: Sequence[int], ys: Sequence[int], c: int,
                 d: int, bits: int | None = None) -> list[int]:
    """:func:`lattice_key` of each (xs[i], ys[i])."""
    k = KEY_BITS if bits is None else bits
    # floor((X + Y)/c) == floor((X + floor(Y))/c) for integers X and c > 0
    root = _root_floors(set(ys), k, d)
    return [((x << k) + root[y]) // c for x, y in zip(xs, ys)]


def _root_floors(ys: set[int], k: int, d: int) -> dict[int, int]:
    """floor(Y*sqrt(d)) for Y = y << k, for each y of ys.  With
    r = floor(2**m * sqrt(d)), Y*sqrt(d) lies between Y*r / 2**m and
    Y*(r + 1) / 2**m, so where the floors of those two agree, that is its
    floor.  m is 16 bits above every Y, so they disagree about once in
    2**16 values; ``floor_of`` settles those."""
    m = max(map(abs, ys), default=0).bit_length() + k + 16
    r = math.isqrt(d << 2 * m)
    out = {}
    for y in ys:
        lo = (y * r << k) >> m
        out[y] = (lo if lo == (y * (r + 1) << k) >> m
                  else floor_of(0, y << k, 1, d))
    return out


def lattice_order(xs: Sequence[int], ys: Sequence[int], d: int) -> list[int]:
    """Indices of the values xs[i] + ys[i]*sqrt(d) in ascending order, equal
    values in index order: a stable sort on the screen of
    :func:`screen_root`, with close keys settled by :func:`sign_of`.

    The key (x << k) + y*r, k = KEY_BITS and r = screen_root(d, k), lies
    less than M = max |y| from 2**k*(x + y*sqrt(d)) when M > 0, and on it
    when M is 0.  So a key at least margin = 2*M above another belongs to
    a strictly larger value, and keys that far apart in sorted order are
    already in exact value order.  Otherwise each run of consecutive keys
    closer than the margin is sorted exactly.  Equal values have equal
    coordinates, hence equal keys, and stay in index order."""
    if len(xs) < 2:
        return list(range(len(xs)))
    k = KEY_BITS
    r = screen_root(d, k)
    keys = [(x << k) + y * r for x, y in zip(xs, ys)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = list(map(keys.__getitem__, order))
    margin = 2 * max(max(ys), -min(ys))
    if min(map(sub, islice(ordered, 1, None), ordered)) >= margin:
        return order
    exact = cmp_to_key(lambda i, j: sign_of(xs[i] - xs[j], ys[i] - ys[j], d))
    # a run ends where the next key is at least the margin above
    ends = compress(count(1), map(ge, map(sub, islice(ordered, 1, None),
                                          ordered), repeat(margin)))
    out: list[int] = []
    start = 0
    for end in (*ends, len(order)):
        out += sorted(order[start:end], key=exact)
        start = end
    return out


def radicand_of(*groups: Sequence[QuadReal], also: int | None = None) -> int:
    """The radicand d shared by the irrational values of the groups and,
    when ``also`` is given, by an irrational value of radicand ``also``;
    ConfigError when two of them differ.  The last group must be
    nonempty: its first value's d stands when every value is rational."""
    ds = {v.d for g in groups for v in g if v.b}
    if also is not None:
        ds.add(also)
    if len(ds) > 1:
        d1, d2 = sorted(ds)[:2]
        raise ConfigError(f"mixed radicands: sqrt({d1}) vs sqrt({d2})")
    return ds.pop() if ds else groups[-1][0].d


def quads(xs: Iterable[int], ys: Iterable[int], c: int,
          d: int) -> list[QuadReal]:
    """``QuadReal._raw(x, y, c, d)`` for each pair of xs and ys, for c > 0:
    the inverse of :func:`lattice`, one loop for a whole list."""
    new, gcd = object.__new__, math.gcd
    out = []
    for a, b in zip(xs, ys):
        v = new(QuadReal)
        g = gcd(a, b, c)
        if g > 1:
            v.a, v.b, v.c = a // g, b // g, c // g
        else:
            v.a, v.b, v.c = a, b, c
        v.d = d
        out.append(v)
    return out


def lattice(*groups: Sequence[QuadReal]) -> tuple[int, int, list]:
    """(c, d, [(xs, ys) per group]): the values of every group are
    (xs[i] + ys[i]*sqrt(d)) / c over one common denominator c, the least
    common multiple of theirs, with d as :func:`radicand_of` finds it."""
    d = radicand_of(*groups)
    c = math.lcm(*{v.c for g in groups for v in g})
    return c, d, [([v.a * (c // v.c) for v in g], [v.b * (c // v.c) for v in g])
                  for g in groups]


def on_lattice(c: int, d: int, xs: Sequence[int], ys: Sequence[int],
               *groups: Sequence[QuadReal]):
    """(c2, d2, xs, ys, coords): held coordinates, the values
    (xs[i] + ys[i]*sqrt(d)) / c, and the values of each group over one
    common denominator c2, the least common multiple of c and theirs,
    with coords as :func:`lattice` gives them.  xs and ys come back
    unchanged when c2 == c.  d2 is :func:`radicand_of` the groups, and
    of d when a held value is irrational: values of two radicands raise
    ConfigError."""
    d2 = radicand_of(*groups, also=d if any(ys) else None)
    c2 = math.lcm(c, *{v.c for g in groups for v in g})
    xs, ys = scaled(c2 // c, xs, ys)
    return c2, d2, xs, ys, [([v.a * (c2 // v.c) for v in g],
                             [v.b * (c2 // v.c) for v in g]) for g in groups]


def scaled(f: int, *lists: Sequence[int]) -> tuple:
    """The lists with every entry times f: the lists themselves when f is
    1, new lists otherwise."""
    if f == 1:
        return lists
    return tuple([x * f for x in xs] for xs in lists)


def quad(r: RationalLike = 0, s: RationalLike = 0, d: int | None = None) -> QuadReal:
    """Shorthand constructor: quad(r, s) == r + s*sqrt(D)."""
    return QuadReal(r, s, d)


def sqrtD(d: int | None = None) -> QuadReal:
    return QuadReal(0, 1, d)


def qmin(*vals: QuadReal) -> QuadReal:
    out = vals[0]
    for v in vals[1:]:
        if v < out:
            out = v
    return out


def qmax(*vals: QuadReal) -> QuadReal:
    out = vals[0]
    for v in vals[1:]:
        if v > out:
            out = v
    return out


def _fraction_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(math.gcd(x.numerator * y.denominator, y.numerator * x.denominator),
                    x.denominator * y.denominator)


def rational_ratio(a: QuadReal, b: QuadReal) -> Fraction | None:
    """a/b as a Fraction when the ratio is rational, else None.

    The cross test r_a*s_b == r_b*s_a characterizes rational ratios for
    nonzero b.
    """
    if b.is_zero():
        return None
    if a.is_zero():
        return Fraction(0)
    if a.r * b.s != b.r * a.s:
        return None
    if b.s != 0:
        return a.s / b.s
    return a.r / b.r


def real_gcd(a: QuadReal, b: QuadReal) -> QuadReal:
    """Greatest c >= 0 such that a and b are both integer multiples of c.

    Zero when a/b is irrational; gcd(x, 0) == |x|.
    """
    if a.is_zero() and b.is_zero():
        return QuadReal(0, 0, a.d)
    if a.is_zero():
        return abs(b)
    if b.is_zero():
        return abs(a)
    q = rational_ratio(a, b)
    if q is None:
        return QuadReal(0, 0, a.d)
    # a = q*b, b = 1*b  =>  gcd = gcd(q, 1) * |b|
    return abs(b) * _fraction_gcd(abs(q), Fraction(1))


# rows after which :func:`gcd_ladder` gives up
_LADDER_STEPS = 10_000


def gcd_ladder(a: QuadReal, b: QuadReal, delta: QuadReal | None = None):
    """Alternating remainder ladder from a < 0 < b.

    Each row adds the largest multiple of one value to the other without
    crossing zero.  Rationally dependent inputs reach an exact zero with the
    surviving value equal to +-real_gcd(|a|, |b|); independent inputs shrink
    geometrically and stop once both fall below ``delta`` in absolute value.

    Returns ``(rows, coeffs)`` where rows is a list of
    ``(a_k, b_k, l_k, l'_k)`` and coeffs = (p, q, p', q') are naturals with
    ``a_K == p*a + q*b`` and ``b_K == p'*a + q'*b``.
    """
    if not (a.sign() < 0 < b.sign()):
        raise ValueError("ladder requires a < 0 < b")
    ak, bk = a, b
    # coefficient rows: ak = pa*a + qa*b ; bk = pb*a + qb*b
    pa, qa, pb, qb = 1, 0, 0, 1
    rows = []
    for _ in range(_LADDER_STEPS):
        l = ((-ak) / bk).floor()
        ak = ak + bk * l
        pa, qa = pa + l * pb, qa + l * qb
        if ak.is_zero():
            lp = 0
        else:
            lp = (bk / (-ak)).floor()
            bk = bk + ak * lp
            pb, qb = pb + lp * pa, qb + lp * qa
        rows.append((ak, bk, l, lp))
        if ak.is_zero() or bk.is_zero():
            break
        if delta is not None and abs(ak) < delta and bk < delta:
            break
    else:
        raise ValueError("ladder did not terminate; pass delta for independent inputs")
    return rows, (pa, qa, pb, qb)


# -- canonical text form ------------------------------------------------------

_SQRT_RE = re.compile(r"^(?:(-?\d+)(?:/(\d+))?\*)?sqrt\((\d+)\)$")
_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
# the canonical "r" and "r + s*sqrt(D)" / "r - s*sqrt(D)", matched whole
_CANON_RE = re.compile(r"(-?\d+)(?:/(\d+))?"
                       r"(?: ([+-]) (?:(\d+)(?:/(\d+))?\*)?sqrt\((\d+)\))?")


# the type json.load gives each JSON value, with its article
JSON_TYPES = {dict: "a dict", list: "a list", str: "a str", int: "an int",
              float: "a float", bool: "a bool", type(None): "null"}


def json_type(value) -> str:
    """The JSON type of a value, with its article: what an error message
    names in place of the value, to stay one short line."""
    return JSON_TYPES.get(type(value), "another type")


def format_quadreal(x: QuadReal) -> str:
    """Canonical text form: "r", "s*sqrt(D)" or "r + s*sqrt(D)".

    Zero terms are omitted; a unit coefficient on the radical prints bare.
    """
    if x.is_zero():
        return "0"
    parts = []
    if x.r != 0:
        parts.append(str(x.r))
    if x.s != 0:
        mag = abs(x.s)
        body = f"sqrt({x.d})" if mag == 1 else f"{mag}*sqrt({x.d})"
        if not parts:
            parts.append(body if x.s > 0 else "-" + body)
        else:
            parts.append("+" if x.s > 0 else "-")
            parts.append(body)
    return " ".join(parts)


def _read_radicand(td: str, text: str) -> int:
    d = int(td)
    if math.isqrt(d) ** 2 == d:
        raise ValueError(f"radicand {d} in {text!r} is a perfect square")
    return d


def parse_quadreal(text: str, d: int | None = None) -> QuadReal:
    """Parse the text form written by :func:`format_quadreal`.

    The literal is a sum of terms joined by " + " or " - ": rationals
    "n" or "n/m", and radicals "sqrt(D)", "-sqrt(D)" (or "- sqrt(D)") and
    "n*sqrt(D)" or "n/m*sqrt(D)", with n optionally negative.  Repeated
    terms add up, so "3 + 4" and "sqrt(2) + sqrt(2)" are read too.  Every
    coefficient is read as an integer numerator and denominator, the
    terms are summed over one integer denominator, and the value is
    normalized once; the canonical "r" and "r +- s*sqrt(D)" are matched
    whole.  Anything else raises ValueError: a malformed term, a zero
    denominator, two radicands, a radicand other than ``d`` when ``d`` is
    given, and a radicand of 0, 1 or another perfect square, which would
    make the value's rational and radical parts ambiguous.
    """
    if not isinstance(text, str):
        raise ValueError(f"QuadReal literal must be a string: got "
                         f"{json_type(text)}")
    # r = ra / rc and s = sa / sc
    m = _CANON_RE.fullmatch(text)
    if m:
        ra, rc, op, sa, sc, td = m.groups()
        ra, rc = int(ra), int(rc) if rc else 1
        sa = 0 if op is None else int(sa) if sa else 1
        if op == "-":
            sa = -sa
        sc = int(sc) if sc else 1
        d_seen = None if td is None else _read_radicand(td, text)
    else:
        ra, rc, sa, sc, d_seen = _parse_terms(text)
    if rc == 0 or sc == 0:
        raise ValueError(f"zero denominator in {text!r}")
    if d_seen is None:
        d_seen = DEFAULT_D if d is None else d
    elif d is not None and d_seen != d:
        raise ValueError(f"radicand mismatch: literal has {d_seen}, expected {d}")
    return QuadReal._raw(ra * sc, sa * rc, rc * sc, d_seen)


def _parse_terms(text: str) -> tuple[int, int, int, int, int | None]:
    """(ra, rc, sa, sc, d) of any literal :func:`parse_quadreal` reads,
    term by term; a zero denominator yields rc or sc == 0."""
    s = text.strip()
    if not s:
        raise ValueError("empty QuadReal literal")
    ra, rc, sa, sc = 0, 1, 0, 1
    d_seen: int | None = None
    # split on top-level +/- separators surrounded by spaces, keep leading sign
    for tok in s.replace(" - ", " + -").split(" + "):
        tok = tok.strip()
        neg = tok.startswith("-") and tok[1:].lstrip().startswith("sqrt")
        m = _SQRT_RE.match(tok[1:].lstrip() if neg else tok)
        if m:
            num, den, td = m.groups()
            if d_seen is None:
                d_seen = _read_radicand(td, text)
            elif int(td) != d_seen:
                raise ValueError(f"mixed radicands in {text!r}")
            num = int(num) if num else 1
            den = int(den) if den else 1
            sa, sc = sa * den + (-num if neg else num) * sc, sc * den
            continue
        m = _RAT_RE.match(tok)
        if m is None:
            raise ValueError(f"cannot parse QuadReal term {tok!r}")
        num, den = m.groups()
        den = int(den) if den else 1
        ra, rc = ra * den + int(num) * rc, rc * den
    return ra, rc, sa, sc, d_seen
