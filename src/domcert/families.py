"""Executable regular families of finite subsets of the positive integers.

Finite sets are strictly increasing tuples of positive integers; the empty
tuple belongs to every family.  Constructors:

  FineSchreier(xi)   recursive hierarchy: level 0 is {()}, successor levels
                     prepend one index below the rest, limit levels take a
                     witness n <= min F with F in level xi_n.
  Schreier(xi)       level 0 allows at most one element, successor levels
                     glue t <= min F consecutive nonempty blocks of the
                     previous level, limit levels as above.
  AllFinite()        every finite set (the omega_1 sentinel).
  SumFamily(zeta,xi) unions G u F with G in FineSchreier(xi), F in
                     FineSchreier(zeta) and G entirely below F.
  NFold(base, n)     at most n consecutive nonempty blocks from base.
  Restrict(base, m)  members of base contained in the set m (given as a
                     finite prefix of an increasing stream).
  Explicit(members)  a literal finite family.

Limit levels use the Wainer fundamental sequences except at omega itself,
where the integer schedule q_n is configurable (default q_n = n).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Optional

from .ordinals import (
    OMEGA,
    Ordinal,
    format_ordinal,
    from_int,
    fundamental_sequence,
    parse_ordinal,
)

FinSet = tuple[int, ...]


class FamilyError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass


def as_finset(elements: Iterable[int]) -> FinSet:
    t = tuple(elements)
    if any(x < 1 for x in t):
        raise FamilyError("elements must be positive integers")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise FamilyError("elements must be strictly increasing")
    return t


def is_spread_of(l: FinSet, f: FinSet) -> bool:
    """True iff |l| = |f| and f(n) <= l(n) pointwise."""
    return len(l) == len(f) and all(a <= b for a, b in zip(f, l))


@dataclass(frozen=True)
class QSchedule:
    """Integer schedule q_n used at the limit step for F_omega.

    q(n) = slope*n + offset after an optional explicit prefix.  The default
    q_n = n matches the Wainer sequence at omega.
    """

    prefix: tuple[int, ...] = ()
    slope: int = 1
    offset: int = 0

    def __call__(self, n: int) -> int:
        if n < 1:
            raise FamilyError("schedule index starts at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.slope * n + self.offset


Q_DEFAULT = QSchedule()


class Family:
    """Base class; subclasses implement `_member`."""

    def member(self, f: FinSet) -> bool:
        f = as_finset(f)
        if not f:
            return True
        return self._member(f)

    def _member(self, f: FinSet) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:
        return format_family(self)


@dataclass(frozen=True)
class FineSchreier(Family):
    xi: Ordinal
    q: QSchedule = Q_DEFAULT

    def _member(self, f: FinSet) -> bool:
        return _fine_member(self.xi, self.q, f)


@dataclass(frozen=True)
class Schreier(Family):
    xi: Ordinal
    q: QSchedule = Q_DEFAULT

    def _member(self, f: FinSet) -> bool:
        return _schreier_member(self.xi, self.q, f)


@dataclass(frozen=True)
class AllFinite(Family):
    def _member(self, f: FinSet) -> bool:
        return True


@dataclass(frozen=True)
class SumFamily(Family):
    zeta: Ordinal
    xi: Ordinal
    q: QSchedule = Q_DEFAULT

    def _member(self, f: FinSet) -> bool:
        left = FineSchreier(self.xi, self.q)
        right = FineSchreier(self.zeta, self.q)
        return any(
            left.member(f[:i]) and right.member(f[i:]) for i in range(len(f) + 1)
        )


@dataclass(frozen=True)
class NFold(Family):
    base: Family
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FamilyError("NFold needs n >= 1")

    def _member(self, f: FinSet) -> bool:
        return _blocks_cover(self.base.member, f, self.n)


@dataclass(frozen=True)
class Restrict(Family):
    base: Family
    stream_prefix: FinSet

    def __post_init__(self) -> None:
        if not self.stream_prefix:
            raise FamilyError("RESTRICT needs a nonempty stream prefix")
        as_finset(self.stream_prefix)

    def _member(self, f: FinSet) -> bool:
        if f and f[-1] > self.stream_prefix[-1]:
            raise FamilyError(
                f"restriction stream prefix exhausted below {f[-1]}"
            )
        prefix = set(self.stream_prefix)
        if any(x not in prefix for x in f):
            return False
        return self.base.member(f)


@dataclass(frozen=True)
class Explicit(Family):
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for f in self.members:
            if not isinstance(f, tuple) or not all(type(x) is int for x in f):
                raise FamilyError(f"member {f!r} is not a tuple of integers")
            if (f and f[0] < 1) or not all(map(operator.lt, f, f[1:])):
                as_finset(f)  # raises, with its messages in their order

    def member(self, f: FinSet) -> bool:  # literal: the empty set is not implied
        return as_finset(f) in self.members

    def _member(self, f: FinSet) -> bool:
        return f in self.members


@lru_cache(maxsize=None)
def _fine_member(xi: Ordinal, q: QSchedule, f: FinSet) -> bool:
    if not f:
        return True
    kind = xi.classify()
    if kind == "zero":
        return False
    if kind == "successor":
        return _fine_member(xi.pred(), q, f[1:])
    # limit: a witness n <= min F with F in the n-th approximating family.
    # The witness need not be min F, so all n are tried.
    for n in range(1, f[0] + 1):
        approx = from_int(q(n)) if xi == OMEGA else fundamental_sequence(xi, n)
        if _fine_member(approx, q, f):
            return True
    return False


@lru_cache(maxsize=None)
def _schreier_member(xi: Ordinal, q: QSchedule, f: FinSet) -> bool:
    if not f:
        return True
    kind = xi.classify()
    if kind == "zero":
        return len(f) <= 1
    if kind == "successor":
        return _blocks_cover(partial(_schreier_member, xi.pred(), q), f, f[0])
    for n in range(1, f[0] + 1):
        approx = from_int(q(n)) if xi == OMEGA else fundamental_sequence(xi, n)
        if _schreier_member(approx, q, f):
            return True
    return False


def _blocks_cover(member: Callable[[FinSet], bool], f: FinSet, max_blocks: int) -> bool:
    """Can f be split into at most max_blocks consecutive nonempty members?"""

    @lru_cache(maxsize=None)
    def reachable(i: int, used: int) -> bool:
        if i == len(f):
            return True
        if used == max_blocks:
            return False
        for j in range(i + 1, len(f) + 1):
            if member(f[i:j]) and reachable(j, used + 1):
                return True
        return False

    found = reachable(0, 0)
    del reachable  # empties the closure's cell, which refers to reachable itself
    return found


DEFAULT_ENUM_BOUND = 20
DEFAULT_MEMBER_BUDGET = 500_000
EMBED_NODE_BUDGET = 200_000


def _size_lex(f: FinSet) -> tuple[int, FinSet]:
    return len(f), f


def members_within(
    fam: Family, universe: FinSet, member_budget: float = math.inf
) -> list[FinSet]:
    """Members of fam made of points of the increasing tuple `universe`.

    Hereditary families are prefix closed when viewed as increasing
    sequences, so a depth-first extension search with one membership test
    per candidate finds exactly the members, () first and each member before
    its extensions; it runs on an explicit stack, which leaves no reference
    cycle behind.  Explicit literals are filtered in (size, lexicographic)
    order.  More than `member_budget` membership tests raise BudgetError.
    """
    if isinstance(fam, Explicit):
        pool = set(universe)
        return [f for f in sorted(fam.members, key=_size_lex) if all(x in pool for x in f)]
    out: list[FinSet] = [()]
    stack: list[tuple[FinSet, int]] = [((), 0)]  # (member, position of its next candidate)
    tests = 0
    while stack:
        prefix, k = stack.pop()
        if k == len(universe):
            continue
        stack.append((prefix, k + 1))
        cand = prefix + (universe[k],)
        tests += 1
        if tests > member_budget:
            raise BudgetError("member budget exhausted during enumeration")
        if fam.member(cand):
            out.append(cand)
            stack.append((cand, k + 1))
    return out


def enumerate_family(fam: Family, n: int) -> list[FinSet]:
    """All members contained in {1..n}, sorted by (size, lexicographic order)."""
    if n < 1 or n > DEFAULT_ENUM_BOUND:
        raise BudgetError(f"enumeration universe must satisfy 1 <= N <= {DEFAULT_ENUM_BOUND}")
    return sorted(members_within(fam, tuple(range(1, n + 1)), DEFAULT_MEMBER_BUDGET), key=_size_lex)


def members_by_max(members: Iterable[FinSet], n: int) -> dict[int, list[FinSet]]:
    """The nonempty members grouped by their largest element, for 1..n."""
    by_max: dict[int, list[FinSet]] = {k: [] for k in range(1, n + 1)}
    for f in members:
        if f:
            by_max[f[-1]].append(f)
    return by_max


def maximal_members(fam: Family, n: int) -> list[FinSet]:
    """Members within {1..n} that are not proper subsets of another member."""
    members = set(enumerate_family(fam, n))
    out = [f for f in members if not any(set(f) < set(g) for g in members)]
    return sorted(out, key=_size_lex)


@dataclass(frozen=True)
class RegularityReport:
    spreading_ok: bool
    hereditary_ok: bool
    counterexample: Optional[tuple[FinSet, FinSet]] = None

    @property
    def ok(self) -> bool:
        return self.spreading_ok and self.hereditary_ok


def check_regular(fam: Family, n: int) -> RegularityReport:
    """Verify closure under subsets and under spreads inside {1..n}.

    Single-element deletions generate all subsets and single upward bumps
    generate all spreads within the universe, so checking those suffices.
    """
    members = set(enumerate_family(fam, n))
    for f in members:
        for i in range(len(f)):
            g = f[:i] + f[i + 1 :]
            if g not in members:
                return RegularityReport(True, False, (f, g))
    for f in members:
        for i in range(len(f)):
            bumped = f[i] + 1
            if bumped > n:
                continue
            if i + 1 < len(f) and bumped >= f[i + 1]:
                continue
            g = f[:i] + (bumped,) + f[i + 1 :]
            if g not in members:
                return RegularityReport(False, True, (f, g))
    return RegularityReport(True, True, None)


def rank_restricted(fam: Family, n: int) -> int:
    """Rank of the tree fam | {1..n}, the members viewed as increasing
    sequences under extension.  Each derivation T' = T minus its maximal
    nodes removes exactly the leaves of the prefix closure, so the rank is
    one more than the longest member, and 0 for an empty literal.
    """
    return max((len(f) + 1 for f in enumerate_family(fam, n)), default=0)


def almost_monotone_witness(
    zeta: Ordinal,
    xi: Ordinal | None,
    n: int,
    q: QSchedule = Q_DEFAULT,
) -> Optional[int]:
    """Least l <= n with: l < F in FineSchreier(zeta), F within {1..n}, implies
    F in FineSchreier(xi).  xi=None means the all-finite sentinel.  Returns
    None when no l <= n works on this universe.
    """
    if xi is not None and not zeta < xi:
        raise FamilyError("need zeta < xi")
    small = FineSchreier(zeta, q)
    big: Family = AllFinite() if xi is None else FineSchreier(xi, q)
    members = enumerate_family(small, n)
    bad_mins = [f[0] for f in members if f and not big.member(f)]
    l = max(bad_mins) if bad_mins else 0
    return l if l <= n else None


@dataclass(frozen=True)
class EmbeddingResult:
    mapping: Optional[tuple[int, ...]]
    nodes: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.mapping is not None


def find_order_embedding(src: Family, dst: Family, n: int) -> EmbeddingResult:
    """Search a strictly increasing P on {1..n} into {1..3n} with P(F) in dst
    for every F in src within {1..n}.  Smallest-image-first, so the result is
    deterministic.  Failure reports a spent budget, not nonexistence.
    """
    members = enumerate_family(src, n)
    by_max = members_by_max(members, n)
    mapping: list[int] = []
    nodes = 0

    def ok_at(k: int) -> bool:
        for f in by_max[k]:
            image = tuple(mapping[i - 1] for i in f)
            if not dst.member(image):
                return False
        return True

    levels = [iter(range(1, 3 * n + 1))]  # explicit stack: images left for each position
    try:
        while levels and len(mapping) < n:
            for v in levels[-1]:
                nodes += 1
                if nodes > EMBED_NODE_BUDGET:
                    raise BudgetError("embedding search budget exhausted")
                mapping.append(v)
                if ok_at(len(mapping)):
                    break
                mapping.pop()
            else:
                levels.pop()
                if mapping:
                    mapping.pop()
                continue
            levels.append(iter(range(v + 1, 3 * n + 1)))
        if len(mapping) == n:
            full = tuple(mapping)
            for f in members:  # verify exhaustively before reporting success
                image = tuple(full[i - 1] for i in f)
                if not dst.member(image):
                    raise AssertionError("embedding verification failed")
            return EmbeddingResult(full, nodes, False)
        return EmbeddingResult(None, nodes, True)
    except BudgetError:
        return EmbeddingResult(None, nodes, True)


def family_cardinality_bound(fam: Family) -> Optional[int]:
    """Largest member size the family ever attains, or None when unbounded."""
    if isinstance(fam, AllFinite):
        return None
    if isinstance(fam, FineSchreier):
        if fam.xi.is_finite:
            return fam.xi.as_int()
        return None
    if isinstance(fam, Schreier):
        if fam.xi.is_zero:
            return 1
        return None
    if isinstance(fam, SumFamily):
        if fam.zeta.is_finite and fam.xi.is_finite:
            return fam.zeta.as_int() + fam.xi.as_int()
        return None
    if isinstance(fam, NFold):
        inner = family_cardinality_bound(fam.base)
        return None if inner is None else fam.n * inner
    if isinstance(fam, Restrict):
        # the stream continues beyond the prefix, so spreads stay available
        return family_cardinality_bound(fam.base)
    if isinstance(fam, Explicit):
        return max((len(f) for f in fam.members), default=0)
    raise FamilyError(f"unknown family {fam!r}")


def parse_family(text: str, q: QSchedule = Q_DEFAULT) -> Family:
    """Grammar: F[<ordinal>], S[<ordinal>], ALL, SUM(zeta;xi),
    NFOLD(<family>;n), RESTRICT(<family>;a,b,c,...)."""
    text = text.strip()
    if text == "ALL":
        return AllFinite()
    if text.startswith("F[") and text.endswith("]"):
        return FineSchreier(parse_ordinal(text[2:-1]), q)
    if text.startswith("S[") and text.endswith("]"):
        return Schreier(parse_ordinal(text[2:-1]), q)
    if text.startswith("SUM(") and text.endswith(")"):
        zeta, _, xi = text[4:-1].partition(";")
        if not _:
            raise FamilyError("SUM needs two ordinals separated by ';'")
        return SumFamily(parse_ordinal(zeta), parse_ordinal(xi), q)
    if text.startswith("NFOLD(") and text.endswith(")"):
        inner, _, count = text[6:-1].rpartition(";")
        if not _:
            raise FamilyError("NFOLD needs a family and a count")
        return NFold(parse_family(inner, q), int(count))
    if text.startswith("RESTRICT(") and text.endswith(")"):
        inner, _, stream = text[9:-1].partition(";")
        if not _:
            raise FamilyError("RESTRICT needs a family and a stream prefix")
        prefix = tuple(int(v) for v in stream.split(",") if v.strip())
        return Restrict(parse_family(inner, q), prefix)
    raise FamilyError(f"cannot parse family {text!r}")


def format_family(fam: Family) -> str:
    if isinstance(fam, AllFinite):
        return "ALL"
    if isinstance(fam, FineSchreier):
        return f"F[{format_ordinal(fam.xi)}]"
    if isinstance(fam, Schreier):
        return f"S[{format_ordinal(fam.xi)}]"
    if isinstance(fam, SumFamily):
        return f"SUM({format_ordinal(fam.zeta)};{format_ordinal(fam.xi)})"
    if isinstance(fam, NFold):
        return f"NFOLD({format_family(fam.base)};{fam.n})"
    if isinstance(fam, Restrict):
        stream = ",".join(str(v) for v in fam.stream_prefix)
        return f"RESTRICT({format_family(fam.base)};{stream})"
    if isinstance(fam, Explicit):
        inner = ";".join("{" + ",".join(map(str, f)) + "}" for f in sorted(fam.members))
        return f"EXPLICIT({inner})"
    raise FamilyError(f"unknown family {fam!r}")
