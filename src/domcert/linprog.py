"""Exact rational linear programming and linear algebra.

All exact elimination here runs on one integer pivot, `_pivot`.  A row is a
list of integers standing for itself divided by a positive denominator, its
pivot entry.  A pivot on entry p of row r (its sign made positive) replaces
every other row i by p.row_i - row_i[e].row_r divided by its gcd,
fraction-free as in Bareiss and Edmonds.  The simplex, a two-phase one with
Bland's rule, pivots its tableau so; `_reduce` is Gauss-Jordan elimination by
the same pivot, and gives the simplex duals, the basis inverses of
`Polyhedron`, `nullspace` and `solve_square`.  Rationals enter as integer rows
through `_scaled` and become `Fraction`s only at the output.  Problem sizes
here are tiny (at most a few hundred variables, single-digit constraint
counts), so clarity beats sparsity.  A positive row factor changes neither the
sign of a reduced cost nor a ratio rhs_i / a_ie, so Bland's rule and the ratio
test with its tie-break pick the pivots of the same simplex over `Fraction`
entries, with the same bases and answers.

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
is accepted only after exact checks, in integers over the rows scaled once:
l_B >= 0, the sum equals c in every coordinate, and rhs_B.l_B = c.v.  Any
other objective gets a fresh simplex, whose basis joins the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integers over their least positive common denominator."""
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _pivot(rows: list[list[int]], r: int, col: int) -> None:
    """Clear column col from every row but r, fraction-free: with p =
    rows[r][col] made positive, row i becomes p.row_i - rows[i][col].row_r
    divided by its gcd, so the scale of each row stays positive."""
    pivot = rows[r]
    p = pivot[col]
    if p < 0:
        pivot = rows[r] = [-v for v in pivot]
        p = -p
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            row = [p * u - f * v for u, v in zip(row, pivot)]
            g = math.gcd(*row)
            rows[i] = [u // g for u in row] if g > 1 else row


def _reduce(rows: list[list[int]], cols: int) -> list[int]:
    """Gauss-Jordan elimination in place over the first `cols` columns, by
    `_pivot`; returns the pivot columns.  A column's pivot row is the first
    row at or below the rank so far with a nonzero entry there.  Row k ends
    as row k of the reduced row echelon form times its entry in column
    pivots[k], which is positive."""
    pivots: list[int] = []
    for col in range(cols):
        k = len(pivots)
        r = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if r is None:
            continue
        rows[k], rows[r] = rows[r], rows[k]
        _pivot(rows, k, col)
        pivots.append(col)
    return pivots


def nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> list[Row]:
    """Basis of {v : row . v = 0 for all rows} in dimension n, one vector per
    free column f with v[f] = 1 and zeros on the other free columns."""
    reduced = [_scaled(row)[0] for row in rows]
    pivots = _reduce(reduced, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -Fraction(row[f], row[c])
        basis.append(v)
    return basis


def solve_square(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[Row]:
    """Solve a square system; None when it is singular (inconsistent or
    underdetermined)."""
    n = len(a)
    aug = [_scaled([*row, rhs])[0] for row, rhs in zip(a, b)]
    if len(_reduce(aug, n)) < n:
        return None
    return [Fraction(row[n], row[k]) for k, row in enumerate(aug)]


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
    # each row (A_i | b_i) over integers, negated when b_i < 0
    scaled = [_scaled([*row, rhs]) for row, rhs in zip(a, b)]
    flips = [-1 if ints[-1] < 0 else 1 for ints, _ in scaled]
    work = [[f * v for v in ints] for f, (ints, _) in zip(flips, scaled)]

    # tableau columns: n structural + m artificial + rhs; row i stands for
    # tab[i] / tab[i][basis[i]], its basic entry being its positive denominator
    tab = [row[:n] + [den * (j == i) for j in range(m)] + row[n:]
           for i, (row, (_, den)) in enumerate(zip(work, scaled))]
    basis = [n + i for i in range(m)]

    def run(cost: list[int]) -> bool:
        """Bland's rule on the first len(cost) columns; False when unbounded.
        The reduced costs (up to a positive factor) ride as row m of tab."""
        scale = math.lcm(*(tab[i][j] for i, j in enumerate(basis) if cost[j]))
        reduced = [scale * v for v in cost]
        for row, j in zip(tab, basis):
            if cost[j]:
                f = cost[j] * (scale // row[j])
                reduced = [u - f * v for u, v in zip(reduced, row)]
        tab.append(reduced)
        while True:
            # Bland: the smallest index with a negative reduced cost
            entering = next((j for j, r in enumerate(tab[m]) if r < 0), None)
            if entering is None:
                tab.pop()
                return True
            # ratio test: least rhs_i / a_ie over a_ie > 0, ties to the
            # smaller basic column, by exact cross-multiplication
            row = None
            for i in range(m):
                a_ie = tab[i][entering]
                if a_ie > 0 and (row is None or (tab[i][-1] * tab[row][entering], basis[i])
                                 < (tab[row][-1] * a_ie, basis[row])):
                    row = i
            if row is None:
                return False
            _pivot(tab, row, entering)
            basis[row] = entering

    # phase 1 is bounded below by 0; the artificials must all reach 0
    if not run([0] * n + [1] * m) or any(j >= n and r[-1] > 0 for r, j in zip(tab, basis)):
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
                _pivot(tab, i, col)
                basis[i] = col
    for i in sorted(drop, reverse=True):
        del tab[i], basis[i], row_ids[i]
    m = len(tab)
    # every basic column is structural now, so phase 2 drops the artificials
    tab = [row[:n] + row[-1:] for row in tab]

    c_int, c_den = _scaled(c)
    if not run(c_int):
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for row, j in zip(tab, basis):
        x[j] = Fraction(row[-1], row[j])
    obj = sum((Fraction(c[j]) * x[j] for j in basis), Fraction(0))
    # duals: the unique y with B^T y = c_B over the kept rows of A, row r of A
    # being work[r] / (flips[r] den_r); dropped redundant rows get zero
    system = [[work[r][j] for r in row_ids] + [c_int[j]] for j in basis]
    duals: Optional[Row] = None
    if len(_reduce(system, m)) == m:
        duals = [Fraction(0)] * len(flips)
        for k, (r, eq) in enumerate(zip(row_ids, system)):
            duals[r] = Fraction(flips[r] * scaled[r][1] * eq[m], eq[k] * c_den)
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
        if any(sum(a * b for a, b in zip(c, v)) for v in nullspace(rows, d)):
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
    # built on the first reuse, as (integers, positive denominator): the inverse
    # of [R_k[i]] (i kept, k in B) over the integer rows R_k, and the vertex
    inverse: Optional[tuple[list[list[int]], int]] = None
    vertex_int: Optional[tuple[list[int], int]] = None


def _integer_inverse(square: list[list[int]]) -> tuple[list[list[int]], int]:
    """The inverse of a nonsingular integer matrix as (integers, denominator)."""
    n = len(square)
    reduced = [row + [int(i == j) for j in range(n)] for i, row in enumerate(square)]
    _reduce(reduced, n)
    scale = math.lcm(*(row[k] for k, row in enumerate(reduced)))
    return [[v * (scale // row[k]) for v in row[n:]] for k, row in enumerate(reduced)], scale


class Polyhedron:
    """{a : rows[k].a <= rhs[k] for every k} (rhs all ones by default), with
    the optimal bases of the objectives maximized over it so far."""

    def __init__(
        self,
        rows: Sequence[Sequence[Fraction]],
        rhs: Optional[Sequence[Fraction]] = None,
    ):
        self.rows = [[Fraction(v) for v in row] for row in rows]
        self.rhs = [Fraction(1)] * len(rows) if rhs is None else [Fraction(v) for v in rhs]
        # row k and rhs[k] over integers, (R_k | h_k) = s_k (rows[k] | rhs[k])
        self._scaled = [_scaled(row + [h]) for row, h in zip(self.rows, self.rhs)]
        self._bases: list[_OptimalBasis] = []

    def support(self, c: Sequence[Fraction]) -> tuple[Fraction, Optional[Row], Row]:
        """max c.a as (value, maximizer, multipliers l), as `support_function`
        returns it.  The maximizer is the one `support_function` gives, or None
        when a cached basis answered and its vertex may not be the only
        maximizer; re-solve with `support_function` for that one."""
        c = [Fraction(v) for v in c]
        c_int, den = _scaled(c)  # c = c_int / den
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
        scaled = [self._scaled[k] for k in basis.rows]
        if basis.inverse is None:
            basis.inverse = _integer_inverse([[r[i] for r, _ in scaled] for i in basis.kept])
            basis.vertex_int = _scaled(basis.vertex)
        inverse, scale = basis.inverse
        # l_B = S_B M^-1 c over M = [R_k[i]], S_B = diag(s_k): l_k = s_k
        # sums_k / (scale den), so sign(l_k) = sign(sums_k)
        sums = []
        for row in inverse:
            s = sum(a * c_int[i] for a, i in zip(row, basis.kept))
            if s < 0:
                return None
            sums.append(s)
        # sum_k l_k rows[k] = sum_k sums_k R_k / (scale den) = c, coordinatewise
        for i, ci in enumerate(c_int):
            if sum(s * r[i] for s, (r, _) in zip(sums, scaled)) != scale * ci:
                return None
        # rhs_B.l_B = sum_k sums_k h_k / (scale den) against c.v
        total = sum(s * r[-1] for s, (r, _) in zip(sums, scaled))
        v_int, v_den = basis.vertex_int
        if total * v_den != scale * sum(ci * vi for ci, vi in zip(c_int, v_int)):
            raise ArithmeticError(f"cached basis {basis.rows} fails rhs_B.l_B = c.v for c = {c}")
        lam = [Fraction(0)] * len(self.rows)
        for k, s, (_, s_k) in zip(basis.rows, sums, scaled):
            lam[k] = Fraction(s_k * s, scale * den)
        # all coordinates kept and every l_k > 0: the rows of B are tight at
        # every maximizer and determine it, so v is the only one
        unique = len(basis.kept) == len(c) and all(sums)
        return Fraction(total, scale * den), list(basis.vertex) if unique else None, lam


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
