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

Membership validates F once per query.  S[xi+1], NFOLD and SUM cut F greedily
into maximal blocks, exact as every level is hereditary (NFOLD rejects an
explicit base with a member whose first or last point cannot be dropped);
F[lam+k] drops the first k points of F.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional

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
        return not f or self._member(f)

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
        # G is the longest prefix in F[xi]: a shorter G leaves a larger F
        i = 0
        while i < len(f) and _fine_member(self.xi, self.q, f[: i + 1]):
            i += 1
        return _fine_member(self.zeta, self.q, f[i:])


@dataclass(frozen=True)
class NFold(Family):
    base: Family
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FamilyError("NFold needs n >= 1")
        literal, pools = self.base, []
        while isinstance(literal, Restrict):
            literal, pools = literal.base, pools + [set(literal.stream_prefix)]
        members = literal.members if isinstance(literal, Explicit) else ()  # only literals can fail
        members = {f for f in members if all(p.issuperset(f) for p in pools)}
        for f, g in ((f, g) for f in sorted(members, key=_size_lex) for g in (f[1:], f[:-1])):
            if g and g not in members:  # greedy splits are exact when members keep end deletions
                raise FamilyError(f"NFOLD base lacks an end deletion: {f} is a member, {g} is not")

    def _member(self, f: FinSet) -> bool:
        return _greedy_blocks(self.base._member, f, self.n)


@dataclass(frozen=True)
class Restrict(Family):
    base: Family
    stream_prefix: FinSet

    def __post_init__(self) -> None:
        if not self.stream_prefix:
            raise FamilyError("RESTRICT needs a nonempty stream prefix")
        as_finset(self.stream_prefix)

    def _member(self, f: FinSet) -> bool:
        if f[-1] > self.stream_prefix[-1]:
            raise FamilyError(f"restriction stream prefix exhausted below {f[-1]}")
        return set(self.stream_prefix).issuperset(f) and self.base._member(f)


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
    if kind == "successor":  # xi = lam + k: F[lam + k] peels the first k points
        k = xi.terms[-1][1]
        return len(f) <= k or _fine_member(Ordinal(xi.terms[:-1]), q, f[k:])
    # limit: a witness n <= min F with F in the n-th approximating family.
    # The witness need not be min F, so all n are tried.
    return any(_fine_member(level, q, f) for level in _approximations(xi, q, f[0]))


@lru_cache(maxsize=None)
def _schreier_member(xi: Ordinal, q: QSchedule, f: FinSet) -> bool:
    if not f:
        return True
    kind = xi.classify()
    if kind == "zero":
        return len(f) <= 1
    if kind == "successor":
        return _greedy_blocks(partial(_schreier_member, xi.pred(), q), f, f[0])
    return any(_schreier_member(level, q, f) for level in _approximations(xi, q, f[0]))


def _approximations(xi: Ordinal, q: QSchedule, m: int) -> Iterator[Ordinal]:
    """Levels 1..m converging to the limit xi: q_n at omega, else Wainer's."""
    at_omega = xi == OMEGA
    return (from_int(q(n)) if at_omega else fundamental_sequence(xi, n) for n in range(1, m + 1))


def _greedy_blocks(member: Callable[[FinSet], bool], f: FinSet, max_blocks: int) -> bool:
    """Do at most max_blocks members cover the nonempty f?  Maximal blocks are
    exact for a hereditary `member`: a longer first block only shrinks the rest."""
    start = 0
    for _ in range(max_blocks):
        end = start
        while end < len(f) and member(f[start : end + 1]):
            end += 1
        if end in (start, len(f)):  # a point that is no member, or f covered
            return end == len(f)
        start = end
    return False


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
    order.  `universe` is validated once, so the candidates, each a member
    plus a larger point, go to `_member` unchecked.  More than
    `member_budget` membership tests raise BudgetError.
    """
    universe = as_finset(universe)
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
        if fam._member(cand):
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


def _increasing_search(
    first: Iterable, after: Callable, accept: Callable, depth: int
) -> Optional[list]:
    """The first list of `depth` choices, smallest first, whose every prefix
    passes `accept`, or None.  Position 1 draws from `first`, each later
    position from `after(previous choice)`; `accept` sees the chosen list
    with its newest choice appended.  An explicit stack of those iterators,
    so the walk uses no recursion; an exception from `accept` ends it.
    """
    chosen: list = []
    levels = [iter(first)]
    while levels and len(chosen) < depth:
        for c in levels[-1]:
            chosen.append(c)
            if accept(chosen):
                break
            chosen.pop()
        else:
            levels.pop()
            if chosen:
                chosen.pop()
            continue
        levels.append(iter(after(c)))
    return chosen if len(chosen) == depth else None


def find_order_embedding(src: Family, dst: Family, n: int) -> EmbeddingResult:
    """Search a strictly increasing P on {1..n} into {1..3n} with P(F) in dst
    for every F in src within {1..n}.  Smallest-image-first, so the result is
    deterministic.  Failure reports a spent budget, not nonexistence.
    """
    members = enumerate_family(src, n)
    by_max = members_by_max(members, n)
    nodes = 0

    def accept(mapping: list[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > EMBED_NODE_BUDGET:
            raise BudgetError("embedding search budget exhausted")
        return all(dst.member(tuple(mapping[i - 1] for i in f)) for f in by_max[len(mapping)])

    try:
        mapping = _increasing_search(
            range(1, 3 * n + 1), lambda v: range(v + 1, 3 * n + 1), accept, n
        )
    except BudgetError:
        return EmbeddingResult(None, nodes, True)
    if mapping is None:
        return EmbeddingResult(None, nodes, True)
    full = tuple(mapping)
    for f in members:  # verify exhaustively before reporting success
        if not dst.member(tuple(full[i - 1] for i in f)):
            raise AssertionError("embedding verification failed")
    return EmbeddingResult(full, nodes, False)


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
