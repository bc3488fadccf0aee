"""Exact norm evaluation on finitely supported vectors.

Spaces:

  Combinatorial(fam)   sup over members F of fam of the l1 mass on F.
  PConvex(base, p)     base norm of the coordinatewise p-th powers, p-th root.
  Baernstein(xi, p)    sup over consecutive Schreier(xi) blocks F_1 < F_2 < ...
                       of the l_p sum of their l1 masses.
  Tsirelson(xi, theta) implicit norm: least fixed point of
                       V(n)(x) = max(sup-norm, theta * sup over admissible
                       consecutive interval systems of the sum of n(I x)).
  C0 / L1 / Lp(p)      classical reference norms.

The X[fam] and Baernstein suprema are branch and bound over prefix-closed
members, with integer masses: a member F with next free position k is not
extended once (|F x|_1 + tails[k])**p, tails[k] the l1 mass from position k
on (p = 1 for X[fam]), cannot beat the best so far.  Its extensions and any
blocks after them take disjoint masses of total at most that, and
sum a_i**p <= (sum a_i)**p for a_i >= 0.

Values are returned as `Mag`: rational when the norm is rational-valued,
otherwise an exact representation of its integer p-th power.  Irrational
roots only arise for PConvex, Baernstein and Lp with p >= 2; there p must be
an integer so that p-th powers stay rational.

A polyhedral space (X[fam], Tsirelson, C0, L1) is the max of |phi(x)| over
finitely many norming functionals: `absolute_functionals` lists the distinct
|phi|, `norming_functionals` every sign pattern of them.  `functional_rows`
is the one place the table phi(v_n) of a finite block of vectors is formed,
in integers over one denominator; the domination routes and the witness
scores of `transfer` all read their rows from it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .families import (
    Explicit,
    Family,
    FinSet,
    QSchedule,
    Q_DEFAULT,
    Schreier,
    format_family,
    members_within,
    parse_family,
)
from .ordinals import Ordinal, format_ordinal, parse_ordinal
from .rationals import Mag, MAG_ZERO, format_fraction, parse_fraction
from .vectors import Vector


class SpaceError(ValueError):
    pass


class SpaceSpec:
    def __str__(self) -> str:
        return format_space(self)


@dataclass(frozen=True)
class Combinatorial(SpaceSpec):
    fam: Family


@dataclass(frozen=True)
class PConvex(SpaceSpec):
    base: SpaceSpec
    p: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise SpaceError("p-convexification needs an integer p >= 2")


@dataclass(frozen=True)
class Baernstein(SpaceSpec):
    xi: Ordinal
    p: int
    q: QSchedule = Q_DEFAULT

    def __post_init__(self) -> None:
        if self.p < 2:
            raise SpaceError("Baernstein spaces need an integer p >= 2")


@dataclass(frozen=True)
class Tsirelson(SpaceSpec):
    xi: Ordinal
    theta: Fraction
    q: QSchedule = Q_DEFAULT

    def __post_init__(self) -> None:
        if not (0 < self.theta < 1):
            raise SpaceError("theta must lie in (0,1)")


@dataclass(frozen=True)
class C0(SpaceSpec):
    pass


@dataclass(frozen=True)
class L1(SpaceSpec):
    pass


@dataclass(frozen=True)
class Lp(SpaceSpec):
    p: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise SpaceError("Lp needs an integer p >= 1")


def _integer_masses(x: Vector) -> tuple[int, list[int], list[int]]:
    """One common denominator d of the coefficients, the masses d*|x_i| along
    the support, and their tails: tails[k] is the mass from position k on."""
    den = math.lcm(*(c.denominator for _, c in x.entries))
    masses = [abs(c.numerator) * (den // c.denominator) for _, c in x.entries]
    tails = list(itertools.accumulate(reversed(masses), initial=0))[::-1]
    return den, masses, tails


def _member_walk(fam: Family, supp: FinSet, masses: list[int], tails: list[int],
                 root: tuple[FinSet, int, int], p: int, after: list[int], best: int) -> int:
    """Largest mass(G)**p + after[j] over members G extending the member
    `root` = (F, mass, k) by points from position k on, j following G's last
    point, or `best` if none is larger.  A node (F, mass, k) stands for the
    candidates F + (supp[k'],), k' >= k; tails falls with k, so the module
    docstring's bound cuts them all once it holds for the first.  A support
    is increasing, so the candidates go to `_member` unchecked."""
    stack = [root]
    while stack:
        prefix, mass, k = stack.pop()
        if k == len(supp) or (mass + tails[k]) ** p <= best:
            continue
        stack.append((prefix, mass, k + 1))
        cand = prefix + (supp[k],)
        if fam._member(cand):
            best = max(best, (mass + masses[k]) ** p + after[k + 1])
            stack.append((cand, mass + masses[k], k + 1))
    return best


def _combinatorial_norm(fam: Family, x: Vector) -> Fraction:
    """Largest l1 mass over the members of fam on the support; Explicit
    literals are not prefix closed, so they are filtered, not walked."""
    den, masses, tails = _integer_masses(x)
    supp = x.support
    if isinstance(fam, Explicit):
        at = dict(zip(supp, masses))
        best = max((sum(at[i] for i in f) for f in members_within(fam, supp)), default=0)
        return Fraction(best, den)
    best = _member_walk(fam, supp, masses, tails, ((), 0, 0), 1, [0] * len(tails), 0)
    return Fraction(best, den)


def _check_singletons(fam: Family, support: FinSet) -> None:
    for i in support:
        if not fam.member((i,)):
            raise SpaceError(
                f"family {format_family(fam)} misses singleton {{{i}}}; "
                "the basis would not be normalized"
            )


def _baernstein_power(xi: Ordinal, p: int, q: QSchedule, x: Vector) -> Fraction:
    """Best sum of |F_i x|_1^p over consecutive Schreier(xi) blocks in the
    support.  Skipped points are lost to later blocks, so the state is just the
    next usable position: best_from[i], the best sum within positions i.., is
    filled from the right.  The walk from i cuts a block F with next free
    position k once (|F x|_1 + tails[k])**p is at most the best so far: the
    points F can still take and the blocks after it are disjoint, and a sum of
    p-th powers of nonnegative masses is at most the p-th power of their sum."""
    fam = Schreier(xi, q)
    supp = x.support
    den, masses, tails = _integer_masses(x)
    best_from = [0] * len(tails)
    for i in range(len(supp) - 1, -1, -1):
        best_from[i] = best_from[i + 1]
        if fam.member((supp[i],)):
            root, first = ((supp[i],), masses[i], i + 1), masses[i] ** p + best_from[i + 1]
            best_from[i] = _member_walk(fam, supp, masses, tails, root, p, best_from, first)
    return Fraction(best_from[0], den**p)


def _admissible_systems(fam: Family, groups: list, min_parts: int):
    """The part tuples of the admissible systems over `groups`, a list of
    (low, [(next_group, part), ...]) by increasing low: one part from each of
    some groups g_1 < g_2 < ..., each taken at or after the next_group of the
    part before, whose lows form a member of fam; those with fewer than
    `min_parts` parts are skipped.  A node (g, lows, parts) stands for its
    extensions; each set of lows is tested once for all parts of its group,
    and the walk runs on an explicit stack, which leaves no reference cycle.
    The lows are positive and increase, so they go to `_member` unchecked."""
    stack = [(0, (), ())]
    while stack:
        start, lows, parts = stack.pop()
        if len(parts) >= min_parts:
            yield parts
        for low, pieces in groups[start:]:
            new_lows = lows + (low,)
            if fam._member(new_lows):
                stack.extend((nxt, new_lows, parts + (part,)) for nxt, part in pieces)


class TsirelsonEngine:
    """Least-fixed-point Tsirelson norm on the interval projections of one
    vector.

    Single-interval systems never decide the supremum (theta < 1), so the
    value of a projection only depends on strictly shorter projections and
    the recursion is well founded.  `check_idempotent` replays the defining
    operator once more, single-interval systems included, over every set of
    lows in every projection of the table, confirming it is a fixed point.

    The operator walks sets of lows, not systems: once the lows
    a_1 < ... < a_r are fixed, each part ends on its own, b_k in
    [a_k, a_{k+1} - 1] and b_r in [a_r, j], so the best sum over the
    systems with those lows is the sum over k of the best value(a_k, b).
    That holds for any table, so the replay stays exact on a table that is
    not a fixed point.

    Values are kept as integers over `scale` = den * b**n, den the common
    denominator of the coefficients, theta = a/b and n the support size.  A
    value on L points nests at most L - 1 theta-levels and the replay adds
    one, so each division by b is exact; one that is not raises.
    """

    SUPPORT_BOUND = 16

    def __init__(self, xi: Ordinal, theta: Fraction, x: Vector, q: QSchedule = Q_DEFAULT):
        if len(x.support) > self.SUPPORT_BOUND:
            raise SpaceError(
                f"Tsirelson evaluation bounded to supports of size "
                f"{self.SUPPORT_BOUND}"
            )
        self.fam = Schreier(xi, q)
        self.theta = theta
        self.supp = x.support
        den, masses, _ = _integer_masses(x)
        self.scale = den * theta.denominator ** len(self.supp)
        self._sup = [m * (self.scale // den) for m in masses]
        self._value: dict[tuple[int, int], int] = {}

    def _peak(self, peaks: dict[int, list[int]], a: int, e: int) -> int:
        """The largest value(a, b) over b in [a..e]: peaks[a] holds the
        running maxima from a, extended only as far as asked."""
        run = peaks[a]
        while len(run) <= e - a:
            v = self.value(a, a + len(run))
            run.append(max(run[-1], v) if run else v)
        return run[e - a]

    def _operator(self, i: int, j: int, min_parts: int) -> int:
        """The defining operator on positions [i..j]: the larger of the sup
        norm and theta times the best sum of values over admissible systems
        of disjoint position intervals with at least `min_parts` parts.  A
        node (lows, closed, a) of the walk has its parts before the last low
        a closed at their best, summing to `closed`; with min_parts >= 2 the
        part from a = i closes before j, so value(i, j) is never asked."""
        supp, member = self.supp, self.fam._member
        peaks: dict[int, list[int]] = {a: [] for a in range(i, j + 1)}
        best = 0
        stack = [((supp[a],), 0, a) for a in range(i, j + 1) if member((supp[a],))]
        while stack:
            lows, closed, a = stack.pop()
            if len(lows) >= min_parts:
                best = max(best, closed + self._peak(peaks, a, j))
            for c in range(a + 1, j + 1):
                new_lows = lows + (supp[c],)
                if member(new_lows):
                    stack.append((new_lows, closed + self._peak(peaks, a, c - 1), c))
        top, rest = divmod(self.theta.numerator * best, self.theta.denominator)
        if rest:
            raise ArithmeticError(f"inexact Tsirelson step on positions [{i}..{j}]")
        return max(max(self._sup[i : j + 1]), top)

    def value(self, i: int, j: int) -> int:
        """value(i, j) * scale, the scaled value of the projection on [i..j]."""
        if (i, j) not in self._value:
            self._value[(i, j)] = self._operator(i, j, 2)
        return self._value[(i, j)]

    def norm(self) -> Fraction:
        if not self.supp:
            return Fraction(0)
        return Fraction(self.value(0, len(self.supp) - 1), self.scale)

    def check_idempotent(self) -> bool:
        """One more application of the defining operator changes nothing."""
        self.norm()
        return all(self._operator(i, j, 1) == v for (i, j), v in list(self._value.items()))


def tsirelson_norm(
    xi: Ordinal, theta: Fraction, x: Vector, q: QSchedule = Q_DEFAULT
) -> Fraction:
    return TsirelsonEngine(xi, theta, x, q).norm()


def norm(space: SpaceSpec, x: Vector) -> Mag:
    """Exact norm of x in the given space."""
    if x.is_zero:
        return MAG_ZERO
    if isinstance(space, C0):
        return Mag.of(x.max_abs())
    if isinstance(space, L1):
        return Mag.of(x.l1())
    if isinstance(space, Lp):
        if space.p == 1:
            return Mag.of(x.l1())
        total = sum((abs(c) ** space.p for _, c in x.entries), Fraction(0))
        return Mag(total, space.p)
    if isinstance(space, Combinatorial):
        _check_singletons(space.fam, x.support)
        return Mag.of(_combinatorial_norm(space.fam, x))
    if isinstance(space, PConvex):
        inner = norm(space.base, x.abs_powers(space.p))
        if not inner.is_rational:
            raise SpaceError("p-convexification needs a rational-valued base norm")
        return Mag(inner.as_fraction(), space.p)
    if isinstance(space, Baernstein):
        return Mag(_baernstein_power(space.xi, space.p, space.q, x), space.p)
    if isinstance(space, Tsirelson):
        return Mag.of(tsirelson_norm(space.xi, space.theta, x, space.q))
    raise SpaceError(f"unknown space {space!r}")


def is_polyhedral(space: SpaceSpec) -> bool:
    return isinstance(space, (Combinatorial, Tsirelson, C0, L1)) or (
        isinstance(space, Lp) and space.p == 1
    )


def _signed_variants(phi: Vector):
    for signs in itertools.product((1, -1), repeat=len(phi.entries)):
        yield Vector(tuple((i, s * c) for (i, c), s in zip(phi.entries, signs)))


def _indicator(f: FinSet) -> Vector:
    return Vector(tuple((i, Fraction(1)) for i in f))


# largest admissible-tree functional closure built before giving up
TSIRELSON_FUNCTIONAL_CAP = 100_000


def _tsirelson_abs_functionals(space: Tsirelson, support: FinSet) -> list[Vector]:
    """All nonnegative admissible-tree functionals on the support: the basis
    functionals closed under theta*(f_1 + ... + f_t) over admissible systems
    of t >= 2 ordered parts.

    Single-part systems only rescale by theta and never decide a norming
    maximum, so omitting them loses nothing; with every combination splitting
    the support into at least two pieces, nesting depth is bounded by the
    support size and the closure is finite.  Each round combines the kept
    functionals grouped by their minimum, and keeps the systems with a part
    new in the round before.  The parts of a system have increasing disjoint
    supports, so their sum is the concatenation of their entries.
    """
    fam = Schreier(space.xi, space.q)
    kept: set[Vector] = {Vector.basis(i) for i in support}
    frontier = set(kept)
    while frontier:
        by_min: dict[int, list[Vector]] = {}
        for v in kept:
            by_min.setdefault(v.support[0], []).append(v)
        lows = sorted(by_min)
        groups = [
            (lo, [(bisect.bisect_right(lows, v.support[-1]), v) for v in by_min[lo]])
            for lo in lows
        ]
        fresh = {
            Vector(tuple((i, c * space.theta) for p in parts for i, c in p.entries))
            for parts in _admissible_systems(fam, groups, 2)
            if not frontier.isdisjoint(parts)
        } - kept
        kept |= fresh
        if len(kept) > TSIRELSON_FUNCTIONAL_CAP:
            raise SpaceError(
                f"Tsirelson functional closure exceeds {TSIRELSON_FUNCTIONAL_CAP} elements on "
                f"support of size {len(support)}"
            )
        frontier = fresh
    return sorted(kept, key=lambda v: (len(v.entries), v.entries))


def absolute_functionals(space: SpaceSpec, support: FinSet) -> list[Vector]:
    """The distinct |phi| over `norming_functionals(space, support)`, in the
    order they first occur there; each stands for its sign patterns."""
    support = tuple(support)
    if isinstance(space, C0):
        return [Vector.basis(i) for i in support]
    if isinstance(space, L1) or (isinstance(space, Lp) and space.p == 1):
        return [_indicator(support)]
    if isinstance(space, Combinatorial):
        _check_singletons(space.fam, support)
        return [Vector()] + [_indicator(f) for f in members_within(space.fam, support) if f]
    if isinstance(space, Tsirelson):
        return _tsirelson_abs_functionals(space, support)
    raise SpaceError(f"{format_space(space)} is not polyhedral")


def norming_functionals(space: SpaceSpec, support: FinSet) -> list[Vector]:
    """A finite set Phi with norm(x) = max over Phi of |phi(x)| for every x
    supported in `support`: every sign pattern of each absolute functional.
    The symmetric hull of Phi is the dual ball there."""
    return [s for phi in absolute_functionals(space, support) for s in _signed_variants(phi)]


def functional_rows(
    space: SpaceSpec, vectors: Sequence[Vector], signed: bool
) -> tuple[list[tuple[int, ...]], int]:
    """The table (phi(v) for v in vectors) over the functionals phi of a
    polyhedral space on the vectors' support, as integer rows W over one
    positive denominator D, the row W standing for W / D; no functional is
    built as a signed `Vector`.

    The rows come in `absolute_functionals` order.  Unsigned, there is one row
    per absolute functional.  Signed, there is one row per sign pattern of each
    absolute functional whose first sign is +, negated where needed so that its
    first nonzero entry is positive: the pattern -eps gives minus the row of
    eps, so these rows and their negations are the rows of every norming
    functional.  D is the least common denominator of the vector coefficients
    times that of the absolute functionals' coefficients (Tsirelson's
    theta-weights), so every row is a signed sum of the integer columns of the
    support indices."""
    support = sorted({i for v in vectors for i in v.support})
    vec_den = math.lcm(*(c.denominator for v in vectors for _, c in v.entries))
    columns = {i: [0] * len(vectors) for i in support}
    for n, v in enumerate(vectors):
        for i, c in v.entries:
            columns[i][n] = c.numerator * (vec_den // c.denominator)
    functionals = absolute_functionals(space, tuple(support))
    phi_den = math.lcm(*(c.denominator for phi in functionals for _, c in phi.entries))
    rows: list[tuple[int, ...]] = []
    for phi in functionals:
        sums = [(0,) * len(vectors)]
        for k, (i, c) in enumerate(phi.entries):
            part = [c.numerator * (phi_den // c.denominator) * u for u in columns[i]]
            plus = [tuple(map(add, s, part)) for s in sums]
            sums = plus + [tuple(map(sub, s, part)) for s in sums] if signed and k else plus
        if signed:
            sums = [s if next((u for u in s if u), 0) >= 0 else tuple(-u for u in s) for s in sums]
        rows.extend(sums)
    return rows, vec_den * phi_den


def parse_space(text: str, q: QSchedule = Q_DEFAULT) -> SpaceSpec:
    """Grammar: X[<family>], PCONV(<space>;p), BAERNSTEIN(xi;p),
    TSIRELSON(xi;theta), C0, L1, LP(p)."""
    text = text.strip()
    if text == "C0":
        return C0()
    if text == "L1":
        return L1()
    if text.startswith("LP(") and text.endswith(")"):
        return Lp(int(text[3:-1]))
    if text.startswith("X[") and text.endswith("]"):
        return Combinatorial(parse_family(text[2:-1], q))
    if text.startswith("PCONV(") and text.endswith(")"):
        inner, _, p = text[6:-1].rpartition(";")
        return PConvex(parse_space(inner, q), int(p))
    if text.startswith("BAERNSTEIN(") and text.endswith(")"):
        xi, _, p = text[11:-1].partition(";")
        return Baernstein(parse_ordinal(xi), int(p), q)
    if text.startswith("TSIRELSON(") and text.endswith(")"):
        xi, _, theta = text[10:-1].partition(";")
        return Tsirelson(parse_ordinal(xi), parse_fraction(theta), q)
    raise SpaceError(f"cannot parse space {text!r}")


def format_space(space: SpaceSpec) -> str:
    if isinstance(space, C0):
        return "C0"
    if isinstance(space, L1):
        return "L1"
    if isinstance(space, Lp):
        return f"LP({space.p})"
    if isinstance(space, Combinatorial):
        return f"X[{format_family(space.fam)}]"
    if isinstance(space, PConvex):
        return f"PCONV({format_space(space.base)};{space.p})"
    if isinstance(space, Baernstein):
        return f"BAERNSTEIN({format_ordinal(space.xi)};{space.p})"
    if isinstance(space, Tsirelson):
        return f"TSIRELSON({format_ordinal(space.xi)};{format_fraction(space.theta)})"
    raise SpaceError(f"unknown space {space!r}")
