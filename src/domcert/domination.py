"""Domination constants, the pairing tree, and finite-depth certificates.

A sequence (x_n) is C-dominated by (y_n) when every finite combination
satisfies |sum a_n x_n| <= C |sum a_n y_n|.  The least such C is the maximum
of the left norm over the polytope {a : |sum a_n y_n| <= 1}, computed exactly:
for a polyhedral left space as the largest support value of the polytope over
the left norming functionals, for an l_p left norm over pairwise disjoint
vectors by vertex enumeration of the positive part of the polytope.  The
polytope is passed in the one LP form `(rows, rhs)`, {a : rows[k].a <= rhs[k]}:
each right functional row w gives the rows w and -w with right-hand side 1,
and its positive part is the rows with right-hand side 1 followed by
-e_i <= 0.  Each row system gets one `linprog.Polyhedron`, which answers all
the left functionals from its cached optimal bases, so it runs one simplex
per distinct optimal vertex; the witness is the maximizer a fresh
`support_function` solve gives for the first functional attaining the
largest value.  The `DominationOracle`s on one rho object share its tables,
so each distinct orthant row system and its polytope is built once, however
many pairs (m, l), searches and re-verifications pose it.

Certificates assert {(M(F), L(F)) : F in FineSchreier(xi)} is contained in
the pairing tree T(rho, C) up to a finite depth; verification checks the
maximal family members (subsets inherit domination by restricting scalars).
The certificate search is a depth-first walk of T(rho, C), smallest pairs
first, on the same backtracking walk as the order-embedding search of
`families`; no tree object is built.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .families import (
    DEFAULT_MEMBER_BUDGET,
    AllFinite,
    Family,
    FinSet,
    FineSchreier,
    QSchedule,
    Q_DEFAULT,
    _increasing_search,
    as_finset,
    enumerate_family,
    is_spread_of,
    maximal_members,
    members_by_max,
    members_within,
)
from .linprog import Polyhedron, nullspace, solve_square, support_function
from .norms import (
    Combinatorial,
    SpaceSpec,
    absolute_functionals,
    format_space,
    is_polyhedral,
    norm,
    norming_functionals,
    Lp,
    parse_space,
)
from .ordinals import Ordinal, format_ordinal, parse_ordinal
from .rationals import Mag, MAG_INF, MAG_ZERO, format_fraction, parse_fraction
from .vectors import Vector, combine


class DominationError(ValueError):
    pass


class SearchBudgetError(RuntimeError):
    pass


EXACT_DIM_BOUND = 6


@dataclass(frozen=True)
class VectorSequence:
    items: tuple[Vector, ...]
    space: SpaceSpec
    name: str = ""

    def __post_init__(self) -> None:
        if not self.items:
            raise DominationError("a vector sequence must be nonempty")

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def _domination_tables(self) -> dict:
        """`DominationOracle` tables by g space; they hold no reference to
        this sequence, so they die with it."""
        return {}

    def subsequence(self, indices: FinSet) -> "VectorSequence":
        vecs = tuple(self.items[i - 1] for i in indices)
        return VectorSequence(vecs, self.space, self.name)

    def to_json(self) -> dict:
        return {
            "space": format_space(self.space),
            "vectors": [v.to_json() for v in self.items],
            "name": self.name,
        }

    @staticmethod
    def from_json(data: dict, q: QSchedule = Q_DEFAULT) -> "VectorSequence":
        return VectorSequence(
            tuple(Vector.from_json(v) for v in data["vectors"]),
            parse_space(data["space"], q),
            data.get("name", ""),
        )


def basis_sequence(space: SpaceSpec, length: int, name: str = "") -> VectorSequence:
    return VectorSequence(
        tuple(Vector.basis(i) for i in range(1, length + 1)),
        space,
        name or f"basis:{format_space(space)}:{length}",
    )


@dataclass
class DominationValue:
    value: Mag
    witness: Optional[tuple[Fraction, ...]] = None

    @property
    def finite(self) -> bool:
        return self.value.is_finite


def _functional_rows(space: SpaceSpec, vectors: tuple[Vector, ...]) -> list[tuple[Fraction, ...]]:
    support = sorted({i for v in vectors for i in v.support})
    rows: set[tuple[Fraction, ...]] = set()
    for phi in norming_functionals(space, tuple(support)):
        row = tuple(phi.dot(v) for v in vectors)
        if all(c == 0 for c in row):
            continue
        for lead in row:
            if lead != 0:
                if lead < 0:
                    row = tuple(-c for c in row)
                break
        rows.add(row)
    return sorted(rows)


def _nonneg_disjoint(seq: VectorSequence) -> bool:
    seen: set[int] = set()
    for v in seq.items:
        if v.is_zero or (seen & set(v.support)):
            return False
        if any(c < 0 for _, c in v.entries):
            return False
        seen |= set(v.support)
    return True


def _unsigned_rows(space: SpaceSpec, vectors: tuple[Vector, ...]) -> list[tuple[Fraction, ...]]:
    """Rows (phi(v) for v in vectors) over the absolute functionals phi, pruned
    of pointwise-dominated ones: on the positive orthant they carry the whole
    norm of disjoint nonnegative vectors in a 1-unconditional space.  The set
    of Fraction tuples iterates in hash order, not insertion order; numeric
    hashes are not randomized, so the LP row order is the same on every run
    and under every PYTHONHASHSEED."""
    support = sorted({i for v in vectors for i in v.support})
    rows: set[tuple[Fraction, ...]] = set()
    for phi in absolute_functionals(space, tuple(support)):
        row = tuple(phi.dot(v) for v in vectors)
        if any(row):
            rows.add(row)
    return [r for r in rows if not _dominated_row(r, rows)]


def domination_constant_exact(
    xs: VectorSequence,
    ys: VectorSequence,
    memo: Optional[dict] = None,
) -> DominationValue:
    """Least C with (x_n) <=_C (y_n), or MAG_INF when the y-side seminorm kills a
    combination the x-side does not.  `memo` is a `DominationOracle`'s memo of
    orthant-route row lists and values; callers outside the oracle omit it."""
    if len(xs) != len(ys):
        raise DominationError("sequences must have equal length")
    t = len(xs)
    if t > EXACT_DIM_BOUND:
        raise DominationError(f"exact mode limited to {EXACT_DIM_BOUND} vectors")

    if (
        is_polyhedral(xs.space)
        and is_polyhedral(ys.space)
        and _nonneg_disjoint(xs)
        and _nonneg_disjoint(ys)
    ):
        # both sides are 1-unconditional in the coefficients, so the maximum
        # lives on the positive orthant and unsigned functionals suffice
        memo = {} if memo is None else memo
        for seq in (ys, xs):
            if (seq.space, seq.items) not in memo:
                memo[seq.space, seq.items] = _unsigned_rows(seq.space, seq.items)
        y_rows, x_rows = memo[ys.space, ys.items], memo[xs.space, xs.items]
        key = (t, tuple(y_rows), tuple(x_rows))
        if key not in memo:
            memo[key] = _largest(
                Polyhedron(*_orthant_system(y_rows, t)),
                x_rows,
                lambda c: _support_function_nonneg(y_rows, c)[1],
            )
        return memo[key]

    rows = _functional_rows(ys.space, ys.items)

    for v in nullspace(rows, t):
        z = combine(xs.items, v)
        if norm(xs.space, z) > 0:
            return DominationValue(MAG_INF, tuple(v))

    if not rows:
        return DominationValue(MAG_ZERO, None)

    if is_polyhedral(xs.space):
        # |w.a| <= 1 as the two rows w and -w
        signed = [s for w in rows for s in (w, tuple(-v for v in w))]
        objectives = _functional_rows(xs.space, xs.items)
        return _largest(
            Polyhedron(signed), objectives, lambda c: support_function(signed, c)[1]
        )

    if isinstance(xs.space, Lp):
        return _lp_left_constant(xs, ys, rows)

    raise DominationError(
        f"exact mode needs a polyhedral or disjoint-support Lp left space, got "
        f"{format_space(xs.space)}"
    )


def _largest(polytope: Polyhedron, objectives, solve_maximizer) -> DominationValue:
    """The largest support value of `polytope` over the objectives, with the
    maximizer of the first objective attaining it.  When the cached basis
    that answered it cannot vouch that its vertex is the maximizer a fresh
    solve gives, `solve_maximizer` re-solves that one objective."""
    best: Mag = MAG_ZERO
    best_c = best_wit = None
    for c in objectives:
        value, maximizer, _ = polytope.support(c)
        if Mag.of(value) > best:
            best, best_c, best_wit = Mag.of(value), c, maximizer
    if best_c is None:
        return DominationValue(best, None)
    if best_wit is None:
        best_wit = solve_maximizer(best_c)
    return DominationValue(best, tuple(best_wit))


def _orthant_system(rows: list[tuple[Fraction, ...]], t: int) -> tuple[list, list[Fraction]]:
    """{a >= 0 : row.a <= 1 for all rows} as (rows, rhs): the given rows with
    right-hand side 1, then -e_i <= 0 for each of the t coordinates."""
    negated_basis = [tuple(Fraction(-(i == j)) for j in range(t)) for i in range(t)]
    return list(rows) + negated_basis, [Fraction(1)] * len(rows) + [Fraction(0)] * t


def _support_function_nonneg(
    rows: list[tuple[Fraction, ...]], c: tuple[Fraction, ...]
) -> tuple[Fraction, Optional[list[Fraction]]]:
    """max c.a over {a >= 0 : row.a <= 1 for all rows}, rows and c >= 0."""
    system, rhs = _orthant_system(rows, len(c))
    value, maximizer, _ = support_function(system, c, rhs)
    return value, maximizer


def _lp_left_constant(
    xs: VectorSequence, ys: VectorSequence, rows: list[tuple[Fraction, ...]]
) -> DominationValue:
    """Exact max of an l_p norm over the domination polytope {a : |w.a| <= 1}.

    Needs pairwise disjoint x supports: |sum a_n x_n|_p^p then splits as
    sum |a_n|^p d_n, a convex objective, so the maximum is attained at a
    vertex.  With pairwise disjoint y supports as well, the 1-unconditional
    right norm makes the polytope symmetric under sign flips of the
    coordinates, so it is the reflection of its positive part
    {a >= 0, |W| a <= 1}, whose vertices suffice.  Otherwise the vertices are
    those of the whole polytope, t independent rows among w and -w held at 1.
    A direction that every row w kills is killed on the x side too (else the
    constant is infinite), so the objective is constant along it and each
    vertex is taken with those directions pinned at 0.
    """
    t = len(xs)
    if not _disjoint_supports(xs):
        raise DominationError("Lp left side requires pairwise disjoint x supports")
    p = xs.space.p
    weights = [
        sum((abs(c) ** p for _, c in v.entries), Fraction(0)) for v in xs.items
    ]
    signed = not _disjoint_supports(ys)
    if not signed:
        pos = {tuple(abs(c) for c in row) for row in rows}
        pos_rows = [r for r in pos if not _dominated_row(r, pos)]
        constraints, rhs = _orthant_system(pos_rows, t)
        pinned = []
    else:  # w at 2k and -w at 2k + 1
        constraints = [s for w in rows for s in (w, tuple(-c for c in w))]
        rhs = [Fraction(1)] * len(constraints)
        pinned = nullspace(rows, t)
    if math.comb(len(constraints), t - len(pinned)) > 200_000:
        raise DominationError(
            "vertex enumeration budget exceeded for the Lp left space"
        )
    best = Fraction(0)
    best_wit: Optional[tuple[Fraction, ...]] = None
    for subset in itertools.combinations(range(len(constraints)), t - len(pinned)):
        if signed and len({k // 2 for k in subset}) < len(subset):
            continue  # holds both w and -w, so the system is singular
        a_mat = [list(constraints[k]) for k in subset] + pinned
        b_vec = [rhs[k] for k in subset] + [Fraction(0)] * len(pinned)
        sol = solve_square(a_mat, b_vec)
        if sol is None:
            continue
        if any(
            sum((c * x for c, x in zip(row, sol)), Fraction(0)) > r
            for row, r in zip(constraints, rhs)
        ):
            continue
        value = sum((w * abs(x) ** p for w, x in zip(weights, sol)), Fraction(0))
        if value > best:
            best = value
            best_wit = tuple(sol)
    return DominationValue(Mag(best, p), best_wit)


def _disjoint_supports(seq: VectorSequence) -> bool:
    supports = [v.support for v in seq.items]
    return sum(map(len, supports)) == len(set().union(*supports))


def _dominated_row(row: tuple[Fraction, ...], pool) -> bool:
    return any(r != row and all(a <= b for a, b in zip(row, r)) for r in pool)


@dataclass
class LowerBoundResult:
    value: Mag
    witness: Optional[tuple[Fraction, ...]]
    status: str  # 'ok' | 'indeterminate'


def domination_lower_bound(
    xs: VectorSequence,
    ys: VectorSequence,
    trials: int = 100,
    seed: int = 0,
) -> LowerBoundResult:
    """Best ratio |sum a x| / |sum a y| over sampled coefficient vectors.

    Always a valid lower bound for the least domination constant; exact
    ratios, deterministic for a fixed seed.
    """
    if len(xs) != len(ys):
        raise DominationError("sequences must have equal length")
    t = len(xs)
    rng = random.Random(seed)
    candidates: list[tuple[Fraction, ...]] = []
    if 3**t <= 2187:
        for pattern in itertools.product((0, 1, -1), repeat=t):
            if any(pattern):
                candidates.append(tuple(Fraction(s) for s in pattern))
    for _ in range(trials):
        candidates.append(
            tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(t))
        )

    best: Optional[Mag] = None
    best_wit: Optional[tuple[Fraction, ...]] = None
    saw_value = False

    def ratio(a: tuple[Fraction, ...]):
        num = norm(xs.space, combine(xs.items, a))
        den = norm(ys.space, combine(ys.items, a))
        if den == MAG_ZERO:
            return MAG_INF if num > MAG_ZERO else None
        return num / den

    for a in candidates:
        r = ratio(a)
        if r is None:
            continue
        saw_value = True
        if r == MAG_INF:
            return LowerBoundResult(MAG_INF, a, "ok")
        if best is None or r > best:
            best, best_wit = r, a

    if best is None:
        if saw_value:
            return LowerBoundResult(MAG_ZERO, None, "ok")
        return LowerBoundResult(MAG_ZERO, None, "indeterminate")

    multipliers = [Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(2, 3), Fraction(-1)]
    improved = True
    rounds = 0
    while improved and rounds < 4:
        improved = False
        rounds += 1
        for i in range(t):
            for mult in multipliers:
                cand = list(best_wit)
                cand[i] = cand[i] * mult if cand[i] != 0 else mult - 1
                cand_t = tuple(cand)
                r = ratio(cand_t)
                if r is None:
                    continue
                if r == MAG_INF:
                    return LowerBoundResult(MAG_INF, cand_t, "ok")
                if r > best:
                    best, best_wit = r, cand_t
                    improved = True
    return LowerBoundResult(best, best_wit, "ok")


@dataclass
class RightDominanceReport:
    ok: bool
    constant: Mag
    witness: Optional[tuple[Fraction, ...]]


def right_dominance_defect(
    space: SpaceSpec, m: FinSet, l: FinSet, r: Fraction, engine: str = "auto"
) -> RightDominanceReport:
    """Exact check that (g_m) is r-dominated by (g_l) for a spread m <= l.

    For combinatorial spaces a pull-back argument gives the constant without
    optimization: it is 1 exactly when each family member inside m maps into
    a family member along l (engine='auto'); engine='lp' forces the general
    exact route.
    """
    m, l = as_finset(m), as_finset(l)
    if not is_spread_of(l, m):
        raise DominationError("l must be a spread of m")
    if not m:
        return RightDominanceReport(True, MAG_ZERO, None)
    if engine == "auto" and isinstance(space, Combinatorial):
        fam = space.fam
        positions = {v: i for i, v in enumerate(m)}
        if all(
            fam.member(tuple(l[positions[v]] for v in f))
            for f in members_within(fam, m, DEFAULT_MEMBER_BUDGET)
            if f
        ):
            constant = Mag.of(Fraction(1))
            ok = constant <= Mag.of(Fraction(r))
            witness = tuple(
                Fraction(1) if i == 0 else Fraction(0) for i in range(len(m))
            )
            return RightDominanceReport(ok, constant, witness)
        # fall through to the exact optimization for the true constant
    xs = VectorSequence(tuple(Vector.basis(i) for i in m), space)
    ys = VectorSequence(tuple(Vector.basis(i) for i in l), space)
    res = domination_constant_exact(xs, ys)
    return RightDominanceReport(res.value <= Mag.of(Fraction(r)), res.value, res.witness)


class DominationOracle:
    """Memoized exact domination checks of rho-subsequences against basis
    subsequences of the g space.

    Besides the (m, l) cache, `_memo` keeps, for the orthant route, each side's
    `_unsigned_rows` list by (space, items) and each value by the row system
    (t, y rows, x rows).  Many pairs pose the same system: for a basis rho the
    rows depend only on which subsets of m and of l are family members.  The
    value and its witness are a pure function of the two row lists, since the
    `Polyhedron` is built from them alone, so a memoized answer equals a fresh
    one.  Both tables belong to rho: every oracle on the same rho object and
    g space shares them, so a re-verification after a search solves nothing
    anew, and they live exactly as long as rho."""

    def __init__(self, rho: VectorSequence, g_space: SpaceSpec):
        self.rho = rho
        self.g_space = g_space
        self._cache, self._memo = rho._domination_tables.setdefault(g_space, ({}, {}))

    def constant(self, m: FinSet, l: FinSet) -> DominationValue:
        key = (m, l)
        if key not in self._cache:
            xs = self.rho.subsequence(m)
            ys = VectorSequence(
                tuple(Vector.basis(i) for i in l), self.g_space
            )
            self._cache[key] = domination_constant_exact(xs, ys, self._memo)
        return self._cache[key]


@dataclass(frozen=True)
class Certificate:
    """Finite-depth witness for {(M(F), L(F)) : F in F_xi} within T(rho, C).

    xi None means the all-finite-sets sentinel family.
    """

    xi: Optional[Ordinal]
    M: FinSet
    L: FinSet
    C: Fraction
    g_space: SpaceSpec
    rho_ref: str = ""
    verified: bool = False

    def __post_init__(self) -> None:
        as_finset(self.M)
        as_finset(self.L)
        if len(self.M) != len(self.L):
            raise DominationError("|M| and |L| must agree")
        if self.C < 0:
            raise DominationError("C must be nonnegative")

    @property
    def depth(self) -> int:
        return len(self.M)

    def family(self, q: QSchedule = Q_DEFAULT) -> Family:
        return AllFinite() if self.xi is None else FineSchreier(self.xi, q)

    def to_json(self) -> dict:
        return {
            "xi": "ALL" if self.xi is None else format_ordinal(self.xi),
            "M": list(self.M),
            "L": list(self.L),
            "C": format_fraction(self.C),
            "N": self.depth,
            "g_space": format_space(self.g_space),
            "rho": self.rho_ref,
            "verified": self.verified,
        }

    @staticmethod
    def from_json(data: dict, q: QSchedule = Q_DEFAULT) -> "Certificate":
        # the verified flag is never trusted from serialized input; only
        # verify_certificate sets it
        xi = None if data["xi"] == "ALL" else parse_ordinal(data["xi"])
        cert = Certificate(
            xi,
            as_finset(data["M"]),
            as_finset(data["L"]),
            parse_fraction(str(data["C"])),
            parse_space(data["g_space"], q),
            data.get("rho", ""),
        )
        if "N" in data and int(data["N"]) != cert.depth:
            raise DominationError("declared depth N disagrees with |M|")
        return cert

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @staticmethod
    def loads(text: str, q: QSchedule = Q_DEFAULT) -> "Certificate":
        return Certificate.from_json(json.loads(text), q)


@dataclass
class Violation:
    F: FinSet
    scalars: Optional[tuple[Fraction, ...]]
    ratio: Mag


@dataclass
class VerifyReport:
    ok: bool
    worst_ratio: Mag
    violation: Optional[Violation] = None
    checked: int = 0


def verify_certificate(
    cert: Certificate,
    rho: VectorSequence,
    q: QSchedule = Q_DEFAULT,
    oracle: Optional[DominationOracle] = None,
) -> VerifyReport:
    """Check every family member F within {1..depth}: the rho subsequence at
    M(F) is C-dominated by the g-basis subsequence at L(F).

    Restricting scalars shows subsets inherit domination, so only maximal
    members are tested; the worst constant over them is the worst overall.
    """
    n = cert.depth
    if n == 0:
        return VerifyReport(True, MAG_ZERO, None, 0)
    if max(cert.M) > len(rho):
        raise DominationError("certificate M exceeds the rho prefix")
    oracle = oracle or DominationOracle(rho, cert.g_space)
    fam = cert.family(q)
    worst: Mag = MAG_ZERO
    worst_violation: Optional[Violation] = None
    checked = 0
    for f in maximal_members(fam, n):
        if not f:
            continue
        m_f = tuple(cert.M[i - 1] for i in f)
        l_f = tuple(cert.L[i - 1] for i in f)
        res = oracle.constant(m_f, l_f)
        checked += 1
        if res.value > worst:
            worst = res.value
            if res.value > Mag.of(Fraction(cert.C)):
                worst_violation = Violation(f, res.witness, res.value)
            if not worst.is_finite:
                break
    ok = worst_violation is None
    return VerifyReport(ok, worst, worst_violation, checked)


@dataclass
class SearchOutcome:
    status: str  # 'found' | 'exhausted' | 'budget'
    certificate: Optional[Certificate] = None
    nodes: int = 0
    kill_bound: Optional[Mag] = None
    kill_witness: Optional[Violation] = None
    worst_ratio: Optional[Mag] = None  # of a found certificate, from its verification


def search_certificate(
    rho: VectorSequence,
    xi: Optional[Ordinal],
    C: Fraction,
    depth: int,
    g_space: Optional[SpaceSpec] = None,
    q: QSchedule = Q_DEFAULT,
    l_max: Optional[int] = None,
    constraint: Optional[FinSet] = None,
    node_budget: int = 1_000_000,
    time_budget: float = 60.0,
    oracle: Optional[DominationOracle] = None,
) -> SearchOutcome:
    """Depth-first branch-and-bound for (M, L) with smallest indices first:
    the walk of T(rho, C) along the family, with each new pair tested on the
    members that end at its position.

    A branch dies as soon as some family member inside the chosen prefix
    fails the exact check at C; the minimum of the killing constants over a
    fully exhausted search is a valid lower bound on any depth-`depth`
    constant within the index box.
    """
    g_space = g_space or rho.space
    if depth < 1:
        raise DominationError("depth must be >= 1")
    if len(rho) < depth:
        raise DominationError("rho prefix shorter than requested depth")
    l_cap = l_max if l_max is not None else max(len(rho), depth)
    fam = AllFinite() if xi is None else FineSchreier(xi, q)
    by_max = members_by_max(enumerate_family(fam, depth), depth)
    m_pool = list(range(1, len(rho) + 1))
    if constraint is not None:
        allowed = set(constraint)
        m_pool = [m for m in m_pool if m in allowed]
    oracle = oracle or DominationOracle(rho, g_space)
    c_mag = Mag.of(Fraction(C))

    nodes = 0
    deadline = time.monotonic() + time_budget
    kill_bound: Optional[Mag] = None
    kill_witness: Optional[Violation] = None

    def accept(pairs: list[tuple[int, int]]) -> bool:
        """Count the node and test the members ending at its position."""
        nonlocal nodes, kill_bound, kill_witness
        nodes += 1
        if nodes > node_budget or time.monotonic() > deadline:
            raise SearchBudgetError()
        for f in by_max[len(pairs)]:
            m_f = tuple(pairs[i - 1][0] for i in f)
            l_f = tuple(pairs[i - 1][1] for i in f)
            res = oracle.constant(m_f, l_f)
            if res.value > c_mag:
                if kill_bound is None or res.value < kill_bound:
                    kill_bound = res.value
                    kill_witness = Violation(f, res.witness, res.value)
                return False
        return True

    def after(pair: tuple[int, int]):
        m, l = pair
        return itertools.product([v for v in m_pool if v > m], range(l + 1, l_cap + 1))

    first = itertools.product(m_pool, range(1, l_cap + 1))
    try:
        pairs = _increasing_search(first, after, accept, depth)
    except SearchBudgetError:
        return SearchOutcome("budget", None, nodes, None, None)
    if pairs is None:
        return SearchOutcome("exhausted", None, nodes, kill_bound, kill_witness)
    m_sel, l_sel = zip(*pairs)
    cert = Certificate(xi, m_sel, l_sel, Fraction(C), g_space, rho.name)
    report = verify_certificate(cert, rho, q, oracle)
    if not report.ok:
        raise AssertionError("search produced an unverifiable certificate")
    return SearchOutcome(
        "found", replace(cert, verified=True), nodes, worst_ratio=report.worst_ratio
    )


@dataclass
class GammaBracket:
    xi: Optional[Ordinal]
    lower: Fraction
    upper: Mag
    depth: int
    certificate: Optional[Certificate] = None
    lower_witness: Optional[Violation] = None
    budget_report: dict = field(default_factory=dict)


def gamma_bracket(
    rho: VectorSequence,
    xi: Optional[Ordinal],
    depth: int,
    resolution: Fraction = Fraction(1, 16),
    q: QSchedule = Q_DEFAULT,
    l_max: Optional[int] = None,
    node_budget: int = 1_000_000,
    time_budget: float = 60.0,
    g_space: Optional[SpaceSpec] = None,
) -> GammaBracket:
    """Bracket the least depth-`depth` certificate constant by bisection.

    Upper bounds come from verified certificates (sharpened to their worst
    observed ratio); lower bounds from exhausted searches (sharpened to the
    smallest killing constant).  Bounds are statements about the finite
    index box only, as recorded in the budget report.
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise DominationError("resolution must be positive")
    g_space = g_space or rho.space
    budget = {"nodes": 0, "l_max": l_max if l_max is not None else max(len(rho), depth)}

    lower = Fraction(0)
    lower_witness: Optional[Violation] = None
    upper: Mag = MAG_INF
    cert: Optional[Certificate] = None

    def attempt(c_val: Fraction) -> SearchOutcome:
        remaining = node_budget - budget["nodes"]
        if remaining <= 0:
            return SearchOutcome("budget")
        out = search_certificate(
            rho, xi, c_val, depth, g_space, q, l_max,
            node_budget=remaining, time_budget=time_budget,
        )
        budget["nodes"] += out.nodes
        return out

    def absorb(out: SearchOutcome, c_val: Fraction) -> bool:
        """Update the bracket; False when the budget ran dry."""
        nonlocal lower, upper, cert, lower_witness
        if out.status == "found":
            worst = out.worst_ratio
            new_upper = Mag.of(c_val)
            if worst.is_rational:
                new_upper = min(new_upper, worst)
            if new_upper < upper:
                upper = new_upper
                cert = out.certificate
            return True
        if out.status == "exhausted":
            new_lower = c_val
            kb = out.kill_bound
            if kb is not None and kb.is_rational:
                new_lower = max(new_lower, kb.as_fraction())
            if new_lower > lower:
                lower = new_lower
                lower_witness = out.kill_witness
            return True
        budget["exhausted"] = True
        return False

    probe = Fraction(1)
    cap = Fraction(2**16)
    while upper == MAG_INF and probe <= cap:
        out = attempt(probe)
        if not absorb(out, probe):
            break
        probe *= 2

    while (
        upper.is_finite
        and upper > lower + resolution
        and "exhausted" not in budget
    ):
        mid = (lower + upper.as_fraction()) / 2
        out = attempt(mid)
        if not absorb(out, mid):
            break

    return GammaBracket(xi, lower, upper, depth, cert, lower_witness, budget)
