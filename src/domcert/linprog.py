"""Exact rational linear programming and linear algebra.

A small two-phase simplex with Bland's rule over `Fraction` entries.  Problem
sizes here are tiny (at most a few hundred variables, single-digit constraint
counts), so clarity beats sparsity.

Every optimisation in domcert is posed in one form: a polyhedron given as
`(rows, rhs)`, meaning {a : rows[k].a <= rhs[k] for every k}, and a linear
objective maximized over it by `support_function`, the only caller of
`solve_lp`.  The symmetric domination polytope, its positive orthant part and
the max-min over a simplex are row lists in this form.
"""

from __future__ import annotations

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


@dataclass
class LPResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: Optional[Row] = None
    objective: Optional[Fraction] = None
    duals: Optional[Row] = None


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
        tab[row] = [v * inv for v in tab[row]]
        for i in range(m):
            if i != row and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [u - f * v for u, v in zip(tab[i], tab[row])]
        basis[row] = col

    class _Unbounded(Exception):
        pass

    def run(cost: Row, allowed: int) -> None:
        while True:
            cb = [cost[j] for j in basis]
            entering = None
            for j in range(allowed):
                if j in basis:
                    continue
                zj = sum((cb[i] * tab[i][j] for i in range(m)), Fraction(0))
                if cost[j] - zj < 0:
                    entering = j
                    break  # Bland: smallest index
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
    return LPResult("optimal", x, obj, duals)


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
    d = len(c)
    if not rows:
        if any(Fraction(v) != 0 for v in c):
            raise ValueError("unbounded support function: no constraints")
        return Fraction(0), [Fraction(0)] * d, []
    if rhs is None:
        rhs = [Fraction(1)] * len(rows)
    a_mat = [[row[i] for row in rows] for i in range(d)]
    res = solve_lp(a_mat, list(c), rhs)
    if res.status == "infeasible":
        raise ValueError("objective outside the span of the constraints")
    if res.status != "optimal":
        raise ValueError(f"unexpected LP status {res.status}")
    return res.objective, res.duals, res.x


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
