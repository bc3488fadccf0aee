"""Exact rational linear programming and linear algebra.

A small two-phase simplex with Bland's rule over `Fraction` entries.  Problem
sizes here are tiny (at most a few hundred variables, single-digit constraint
counts), so clarity beats sparsity.

Every optimisation in domcert is posed in one form: a polyhedron given as
`(rows, rhs)`, meaning {a : rows[k].a <= rhs[k] for every k}, and a linear
objective c maximized over it in dual form, min rhs.l over l >= 0 with
sum_k l_k rows[k] = c.  `support_function` solves one objective; the
symmetric domination polytope, its positive orthant part and the max-min over
a simplex are row lists in this form.

`Polyhedron` maximizes many objectives over one polyhedron and keeps the
optimal bases it has found.  Only c changes between them, so a cached basis B
(the rows tight at its vertex v) is optimal for a new c exactly when the
multipliers l_B solving sum_{k in B} l_k rows[k] = c are >= 0.  Such a value
is accepted only after exact checks: l_B >= 0, the sum equals c in every
coordinate, and rhs_B.l_B = c.v.  Any other objective gets a fresh simplex,
whose basis joins the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]


def _frac_rows(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    m = _frac_rows(rows)
    pivots: list[int] = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> list[Row]:
    """Basis of {v : row . v = 0 for all rows} in dimension n."""
    if not rows:
        return [[Fraction(i == j) for j in range(n)] for i in range(n)]
    m, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def solve_square(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[Row]:
    """Solve a (possibly singular) square system; None when inconsistent or
    underdetermined."""
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(rhs)] for row, rhs in zip(a, b)]
    m, pivots = rref(aug)
    if len(pivots) < n or (pivots and pivots[-1] == n):
        return None
    if any(all(v == 0 for v in row[:n]) and row[n] != 0 for row in m):
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = m[r][n]
    return x


def _minus_multiple(u: Row, f: Fraction, v: Row) -> Row:
    """u - f v over the length of u, skipping the zero entries of v."""
    return [a - f * b if b else a for a, b in zip(u, v)]


@dataclass
class LPResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: Optional[Row] = None
    objective: Optional[Fraction] = None
    duals: Optional[Row] = None
    basis: Optional[list[int]] = None  # basic column of each kept row
    kept: Optional[list[int]] = None  # the rows of A not dropped as redundant


def solve_lp(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    """min c.x subject to A x = b, x >= 0 (A is m x n)."""
    m = len(a)
    n = len(a[0]) if m else len(c)
    work = _frac_rows(a)
    rhs = [Fraction(v) for v in b]
    flips = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            work[i] = [-v for v in work[i]]
            rhs[i] = -rhs[i]
            flips[i] = -1

    # tableau columns: n structural + m artificial
    tab = [work[i] + [Fraction(j == i) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m

    def pivot(row: int, col: int) -> None:
        inv = 1 / tab[row][col]
        tab[row] = [v * inv if v else v for v in tab[row]]
        for i in range(m):
            if i != row and tab[i][col] != 0:
                tab[i] = _minus_multiple(tab[i], tab[i][col], tab[row])
        basis[row] = col

    class _Unbounded(Exception):
        pass

    def run(cost: Row, allowed: int) -> None:
        # reduced costs cost_j - c_B.B^-1 A_j of the first `allowed` columns,
        # zero on basic ones, updated by each pivot rather than re-priced
        reduced = cost[:allowed]
        for i, j in enumerate(basis):
            if cost[j] != 0:
                reduced = _minus_multiple(reduced, cost[j], tab[i])
        while True:
            # Bland: the smallest index with a negative reduced cost
            entering = next((j for j, r in enumerate(reduced) if r < 0), None)
            if entering is None:
                return
            ratios = [
                (tab[i][total] / tab[i][entering], basis[i], i)
                for i in range(m)
                if tab[i][entering] > 0
            ]
            if not ratios:
                raise _Unbounded()
            _, _, row = min(ratios)
            pivot(row, entering)
            reduced = _minus_multiple(reduced, reduced[entering], tab[row])

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    try:
        run(phase1, total)
    except _Unbounded:  # cannot happen: phase-1 objective bounded below by 0
        return LPResult("infeasible")
    p1 = sum((phase1[j] * tab[i][total] for i, j in enumerate(basis)), Fraction(0))
    if p1 > 0:
        return LPResult("infeasible")
    # drive artificials out of the basis or drop redundant rows
    row_ids = list(range(m))
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                pivot(i, col)
    for i in sorted(drop, reverse=True):
        del tab[i]
        del basis[i]
        del row_ids[i]
    m = len(tab)

    cost = [Fraction(v) for v in c] + [Fraction(0)] * (total - n)
    try:
        run(cost, n)
    except _Unbounded:
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][total]
    obj = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    # duals: solve B^T y = c_B over the kept rows of the original matrix
    # (flips cancel: flips * work = original); dropped redundant rows get
    # multiplier zero
    bt_rows = [
        [flips[row_ids[i]] * work[row_ids[i]][j] for i in range(m)] for j in basis
    ]
    cb = [Fraction(c[j]) for j in basis]
    y_kept = solve_square(bt_rows, cb) if m else []
    duals: Optional[Row] = None
    if y_kept is not None:
        duals = [Fraction(0)] * len(flips)
        for i in range(m):
            duals[row_ids[i]] = y_kept[i]
    return LPResult("optimal", x, obj, duals, list(basis), row_ids)


def _dual_lp(
    rows: Sequence[Sequence[Fraction]],
    c: Sequence[Fraction],
    rhs: Sequence[Fraction],
) -> LPResult:
    """Solve max c.a over {a : rows.a <= rhs} in dual form, min rhs.l over
    l >= 0 with sum_k l_k rows[k] = c, whose constraint matrix is the
    transpose of `rows`; raise ValueError when there is no finite maximum."""
    d = len(c)
    if not rows:
        if any(Fraction(v) != 0 for v in c):
            raise ValueError("unbounded support function: no constraints")
        return LPResult("optimal", [], Fraction(0), [Fraction(0)] * d, [], [])
    a_mat = [[row[i] for row in rows] for i in range(d)]
    res = solve_lp(a_mat, list(c), rhs)
    if res.status == "infeasible":
        # c is not a nonnegative combination of the rows
        if any(_dot(c, v) != 0 for v in nullspace(rows, d)):
            raise ValueError("objective outside the span of the constraints")
        raise ValueError(
            "unbounded support function: objective outside the cone of the constraints"
        )
    if res.status == "unbounded":
        # by weak duality every point of the polyhedron bounds the dual below
        raise ValueError(
            "empty polyhedron: no point satisfies rows.a <= rhs (the dual LP is unbounded)"
        )
    if res.status != "optimal":
        raise ValueError(f"unexpected LP status {res.status}")
    return res


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def support_function(
    rows: Sequence[Sequence[Fraction]],
    c: Sequence[Fraction],
    rhs: Optional[Sequence[Fraction]] = None,
) -> tuple[Fraction, Optional[Row], Row]:
    """max c.a over the polyhedron {a : rows[k].a <= rhs[k] for every k}.

    `rhs` defaults to all ones.  Solved in dual form, min rhs.l over l >= 0
    with sum_k l_k rows[k] = c: the constraint matrix is the transpose of
    `rows`, the cost is `rhs`, and the simplex duals are a maximizer.
    Returns (value, maximizer, multipliers l).
    """
    if rhs is None:
        rhs = [Fraction(1)] * len(rows)
    res = _dual_lp(rows, c, rhs)
    return res.objective, res.duals, res.x


@dataclass
class _OptimalBasis:
    """An optimal basis of the dual LP: the rows B of the polyhedron that are
    tight at the vertex, and the coordinates the simplex kept (the others were
    redundant)."""

    rows: list[int]
    kept: list[int]
    vertex: Row
    # the inverse of [rows[k][i]] (i kept, k in B) as an integer matrix and
    # a positive common denominator, built on the first reuse
    inverse: Optional[tuple[list[list[int]], int]] = None


def _integer_inverse(square: list[Row]) -> tuple[list[list[int]], int]:
    """The inverse of a nonsingular matrix as (integer matrix, denominator)."""
    n = len(square)
    reduced, _ = rref(
        [row + [Fraction(i == j) for j in range(n)] for i, row in enumerate(square)]
    )
    inverse = [row[n:] for row in reduced]
    scale = math.lcm(*(v.denominator for row in inverse for v in row))
    return [[int(v * scale) for v in row] for row in inverse], scale


class Polyhedron:
    """{a : rows[k].a <= rhs[k] for every k} (rhs all ones by default), with
    the optimal bases of the objectives maximized over it so far."""

    def __init__(
        self,
        rows: Sequence[Sequence[Fraction]],
        rhs: Optional[Sequence[Fraction]] = None,
    ):
        self.rows = _frac_rows(rows)
        self.rhs = [Fraction(1)] * len(rows) if rhs is None else [Fraction(v) for v in rhs]
        self._bases: list[_OptimalBasis] = []

    def support(self, c: Sequence[Fraction]) -> tuple[Fraction, Optional[Row], Row]:
        """max c.a as (value, maximizer, multipliers l), as `support_function`
        returns it.  The maximizer is the one `support_function` gives, or None
        when a cached basis answered and its vertex may not be the only
        maximizer; re-solve with `support_function` for that one."""
        c = [Fraction(v) for v in c]
        # c over a common denominator, for the sign test of the multipliers
        den = math.lcm(*(v.denominator for v in c))
        c_int = [v.numerator * (den // v.denominator) for v in c]
        for basis in self._bases:
            found = self._reuse(basis, c, c_int, den)
            if found is not None:
                return found
        res = _dual_lp(self.rows, c, self.rhs)
        self._bases.append(_OptimalBasis(res.basis, res.kept, res.duals))
        return res.objective, res.duals, res.x

    def _reuse(
        self, basis: _OptimalBasis, c: Row, c_int: list[int], den: int
    ) -> Optional[tuple[Fraction, Optional[Row], Row]]:
        if basis.inverse is None:
            basis.inverse = _integer_inverse(
                [[self.rows[k][i] for k in basis.rows] for i in basis.kept]
            )
        inverse, scale = basis.inverse
        sums = []
        for row in inverse:
            s = sum(a * c_int[i] for a, i in zip(row, basis.kept))
            if s < 0:
                return None
            sums.append(s)
        lam_b = [Fraction(s, scale * den) for s in sums]
        for i in range(len(c)):
            if _dot(lam_b, [self.rows[k][i] for k in basis.rows]) != c[i]:
                return None
        value = _dot(lam_b, [self.rhs[k] for k in basis.rows])
        if value != _dot(c, basis.vertex):
            raise ArithmeticError(
                f"cached basis {basis.rows} fails rhs_B.l_B = c.v for c = {c}"
            )
        lam = [Fraction(0)] * len(self.rows)
        for k, l in zip(basis.rows, lam_b):
            lam[k] = l
        # all coordinates kept and every l_k > 0: the rows of B are tight at
        # every maximizer and determine it, so v is the only one
        unique = len(basis.kept) == len(c) and all(l > 0 for l in lam_b)
        return value, list(basis.vertex) if unique else None, lam


def max_min_over_simplex(columns: Sequence[Sequence[Fraction]]) -> Fraction:
    """max over convex weights l of min_i (sum_j l_j columns[j][i]).

    columns[j] is the vector of the j-th generator.  Used for exact
    feasibility of 'some dual-ball element is >= eps on every listed
    coordinate'.  By LP duality it is min t over (mu, t) with mu in the
    simplex and columns[j].mu <= t for every j, minus the support function of
    (0, .., 0, -1); the weights l are the multipliers of the rows (columns[j], -1).
    """
    k = len(columns)
    if k == 0:
        raise ValueError("need at least one generator")
    d = len(columns[0])
    if d == 0:
        return Fraction(0)
    zero, one = Fraction(0), Fraction(1)
    rows = [[Fraction(v) for v in col] + [-one] for col in columns]
    rows += [[-one] * d + [zero], [one] * d + [zero]]
    rows += [[-one if x == i else zero for x in range(d)] + [zero] for i in range(d)]
    rhs = [zero] * k + [-one, one] + [zero] * d
    value, _, _ = support_function(rows, [zero] * d + [-one], rhs)
    return -value
