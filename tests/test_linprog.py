"""Direct tests of the exact LP layer: `solve_lp`, the one LP form
`support_function(rows, c, rhs)`, the basis cache of `Polyhedron` and the
max-min built on them."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from domcert import linprog
from domcert.domination import _support_function_nonneg
from domcert.linprog import (
    LPResult,
    Polyhedron,
    max_min_over_simplex,
    solve_lp,
    support_function,
)
from reference_linalg import ref_nullspace, ref_solve_square, rref

F = Fraction


def dot(u, v):
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


def interleave(rows):
    """The symmetric polytope {a : |w.a| <= 1} as the rows w, -w."""
    return [s for w in rows for s in (tuple(w), tuple(-v for v in w))]


def assert_duality(rows, c, rhs, result):
    """The exact optimality certificate of max c.a over {rows.a <= rhs}."""
    value, a, lam = result
    assert a is not None and len(a) == len(c) and len(lam) == len(rows)
    assert all(dot(row, a) <= b for row, b in zip(rows, rhs))
    assert all(l >= 0 for l in lam)
    for i, ci in enumerate(c):
        assert sum((l * F(row[i]) for l, row in zip(lam, rows)), F(0)) == ci
    assert dot(c, a) == value == dot(rhs, lam)


class TestSolveLp:
    def test_optimal(self):
        # min x1 + x2 s.t. x1 + 2 x2 = 4, x >= 0
        res = solve_lp([[1, 2]], [4], [1, 1])
        assert res.status == "optimal"
        assert res.x == [0, 2] and res.objective == 2 and res.duals == [F(1, 2)]

    def test_infeasible(self):
        assert solve_lp([[1, 1]], [-1], [1, 1]).status == "infeasible"

    def test_unbounded(self):
        # min -x1 s.t. x1 = x2
        assert solve_lp([[1, -1]], [0], [-1, 0]).status == "unbounded"

    def test_redundant_row_dropped_with_zero_multiplier(self):
        res = solve_lp([[1, 1], [2, 2]], [2, 4], [1, 2])
        assert res.status == "optimal"
        assert res.x == [2, 0] and res.objective == 2
        assert res.duals == [1, 0]


# The Fraction simplex that the integer tableau of `solve_lp` replaced, kept
# verbatim as the oracle of the differential test below: the two must make
# the same pivots, so every field of their results agrees.

Row = list[Fraction]


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _minus_multiple(u: Row, f: Fraction, v: Row) -> Row:
    """u - f v over the length of u, skipping the zero entries of v."""
    return [a - f * b if b else a for a, b in zip(u, v)]


def oracle_solve_lp(
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
    y_kept = ref_solve_square(bt_rows, cb) if m else []
    duals: Optional[Row] = None
    if y_kept is not None:
        duals = [Fraction(0)] * len(flips)
        for i in range(m):
            duals[row_ids[i]] = y_kept[i]
    return LPResult("optimal", x, obj, duals, list(basis), row_ids)


def random_lp(seed):
    """A seeded small LP, min c.x subject to A x = b, x >= 0.  Entries come
    from a short list, so that ratio tests tie and vertices are degenerate;
    b takes negative values, the rows the simplex negates; one row may be a
    combination of two others, consistent (a row phase 1 drops) or not (an
    infeasible system); costs of either sign make some LPs unbounded."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    entries = [F(v) for v in (-2, -1, 0, 0, 0, 1, 1, 2)] + [F(1, 2), F(-3, 2), F(2, 3)]
    a = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    b = [rng.choice([F(-2), F(-1), F(0), F(0), F(1), F(2), F(1, 3)]) for _ in range(m)]
    if rng.random() < 0.4:
        i, j = rng.randrange(m), rng.randrange(m)
        f, g = rng.choice([F(1), F(-1), F(2), F(1, 2)]), rng.choice([F(0), F(1), F(-1)])
        a.append([f * u + g * v for u, v in zip(a[i], a[j])])
        b.append(f * b[i] + g * b[j] + rng.choice([F(0), F(0), F(0), F(1)]))
    c = [rng.choice([F(-1), F(0), F(0), F(1), F(2), F(-1, 2)]) for _ in range(n)]
    return a, b, c


class TestKernelDifferential:
    @given(st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_oracle(self, seed):
        a, b, c = random_lp(seed)
        # status, x, objective, duals, basis and kept, field by field
        assert solve_lp(a, b, c) == oracle_solve_lp(a, b, c)

    def test_draws_reach_every_path(self):
        seen = Counter()
        for seed in range(300):
            a, b, c = random_lp(seed)
            res = oracle_solve_lp(a, b, c)
            seen[res.status] += 1
            seen["negative b"] += any(v < 0 for v in b)
            if res.status == "optimal":
                seen["dropped row"] += len(res.kept) < len(a)
                seen["degenerate vertex"] += any(res.x[j] == 0 for j in res.basis)
        paths = ("optimal", "infeasible", "unbounded", "negative b", "dropped row",
                 "degenerate vertex")
        assert all(seen[p] >= 10 for p in paths), seen


def random_system(seed, square):
    """A seeded system A x = b of m rows over n <= 6 columns, n = 0 included,
    m = n when square.  A row may be zero or a combination of two earlier
    rows, its b the same combination (consistent) or not (inconsistent)."""
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    m = n if square else rng.randint(0, 7)
    entries = [F(v) for v in (-2, -1, 0, 0, 1, 1, 2)] + [F(1, 2), F(-3, 2), F(2, 3)]
    a = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    b = [rng.choice(entries) for _ in range(m)]
    for k in range(m):
        draw = rng.random()
        if draw < 0.1:
            a[k] = [F(0)] * n
        elif draw < 0.4 and k >= 2:
            i, j = rng.sample(range(k), 2)
            f, g = rng.choice(entries), rng.choice(entries)
            a[k] = [f * u + g * v for u, v in zip(a[i], a[j])]
            b[k] = f * b[i] + g * b[j] + rng.choice([F(0), F(1)])
    return a, b, n


class TestLinearAlgebraDifferential:
    """`nullspace` and `solve_square` against the `Fraction` reduced row
    echelon form of reference_linalg.  That form is unique, so the nullspace
    bases agree vector by vector, and a nonsingular system has one solution."""

    SEEDS = range(1500)

    def test_nullspace_matches_reference(self):
        for seed in self.SEEDS:
            a, _, n = random_system(seed, square=False)
            basis = linprog.nullspace(a, n)
            assert basis == ref_nullspace(a, n), (seed, a)
            assert all(dot(row, v) == 0 for row in a for v in basis)

    def test_solve_square_matches_reference(self):
        for seed in self.SEEDS:
            a, b, _ = random_system(seed, square=True)
            x = linprog.solve_square(a, b)
            assert x == ref_solve_square(a, b), (seed, a, b)
            assert x is None or all(dot(row, x) == v for row, v in zip(a, b))

    def test_draws_reach_every_path(self):
        seen = Counter()
        for seed in self.SEEDS:
            a, _, n = random_system(seed, square=False)
            seen["n = 0"] += n == 0
            seen["zero row"] += n > 0 and any(not any(row) for row in a)
            seen["dependent rows"] += len(rref(a)[1]) < len(a)
            a, b, n = random_system(seed, square=True)
            _, pivots = rref([[*row, v] for row, v in zip(a, b)])
            if pivots == list(range(n)):
                seen["nonsingular"] += 1
            else:
                seen["inconsistent" if n in pivots else "singular, consistent"] += 1
        paths = ("n = 0", "zero row", "dependent rows", "nonsingular", "inconsistent",
                 "singular, consistent")
        assert all(seen[p] >= 10 for p in paths), seen


class TestSupportFunction:
    def test_square(self):
        value, a, lam = support_function(interleave([(1, 0), (0, 1)]), [1, 1])
        assert value == 2 and a == [1, 1]
        assert lam == [1, 0, 1, 0]

    def test_rhs(self):
        # max a1 + a2 over a1 <= 3, a2 <= 1/2, -a1 - a2 <= 0
        rows = [(1, 0), (0, 1), (-1, -1)]
        rhs = [3, F(1, 2), 0]
        result = support_function(rows, [1, 1], rhs)
        assert result[0] == F(7, 2)
        assert_duality(rows, [1, 1], rhs, result)

    def test_no_rows(self):
        assert support_function([], [0, 0]) == (0, [0, 0], [])
        with pytest.raises(ValueError, match="no constraints"):
            support_function([], [1, 0])

    def test_objective_outside_the_span(self):
        with pytest.raises(ValueError, match="outside the span"):
            support_function(interleave([(1, 0)]), [0, 1])

    def test_objective_outside_the_cone(self):
        # (-1, 0) is the negative of the first row, so it lies in the span of
        # the rows but not in their cone: the maximum is unbounded
        with pytest.raises(ValueError, match="unbounded.*outside the cone"):
            support_function([(1, 0), (0, 1), (0, -1)], [-1, 0])

    def test_empty_polyhedron(self):
        # a <= -1 and -a <= -1: the dual is unbounded
        with pytest.raises(ValueError, match="unbounded"):
            support_function([(1,), (-1,)], [1], [-1, -1])

    def test_empty_polyhedron_names_the_cause(self):
        # a1 + a2 <= 1 and -a1 - a2 <= -2 have no common point
        rows, rhs = [(1, 1), (-1, -1), (1, 0), (0, 1)], [1, -2, 3, 3]
        message = (
            r"empty polyhedron: no point satisfies rows\.a <= rhs \(the dual LP is unbounded\)"
        )
        with pytest.raises(ValueError, match=message):
            support_function(rows, [1, 0], rhs)
        with pytest.raises(ValueError, match=message):
            Polyhedron(rows, rhs).support([1, 0])

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), max_size=5),
                st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            )
        ),
        st.lists(st.integers(0, 3), min_size=5, max_size=5),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_duality_certificate(self, rows_c, rhs, boxed):
        rows, c = rows_c
        d = len(c)
        rhs = rhs[: len(rows)]
        if boxed:
            for i in range(d):
                e = [int(j == i) for j in range(d)]
                rows = rows + [e, [-v for v in e]]
                rhs = rhs + [1, 1]
        try:
            result = support_function(rows, c, rhs)
        except ValueError:
            # a = 0 is feasible, so only an objective outside the cone of
            # the rows can fail, and a box around the origin rules that out
            assert not boxed
            return
        assert_duality(rows, c, rhs, result)


def degenerate_system(seed, signed):
    """A seeded polyhedron with repeated and parallel rows, so that its
    vertices are degenerate, and objectives in the cone of its rows: the
    rows themselves, their multiples and nonnegative combinations, repeated.
    Signed systems are the rows w, -w with rhs 1; orthant systems are rows
    >= 0 with rhs 1 followed by -e_i <= 0."""
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    lo = -2 if signed else 0
    base = [tuple(F(rng.randint(lo, 2)) for _ in range(d)) for _ in range(rng.randint(1, 4))]
    base = [w for w in base if any(w)] or [tuple(F(1) for _ in range(d))]
    base += [base[0], tuple(2 * v for v in base[-1])]
    if signed:
        rows, rhs = interleave(base), [F(1)] * 2 * len(base)
    else:
        rows = base + [tuple(F(-(i == j)) for j in range(d)) for i in range(d)]
        rhs = [F(1)] * len(base) + [F(0)] * d
    gens = rows if signed else base
    objectives = []
    for _ in range(rng.randint(3, 8)):
        pick = rng.randrange(3)
        if pick == 0 and objectives:
            objectives.append(rng.choice(objectives))
        elif pick == 1:
            k, g = rng.randint(1, 3), rng.choice(gens)
            objectives.append([k * v for v in g])
        else:
            weights = [rng.randint(0, 2) for _ in gens]
            objectives.append([sum((w * g[i] for w, g in zip(weights, gens)), F(0))
                               for i in range(d)])
    return rows, rhs, objectives


class TestPolyhedron:
    @given(st.integers(0, 2**32), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_fresh_solves(self, seed, signed):
        rows, rhs, objectives = degenerate_system(seed, signed)
        polytope = Polyhedron(rows, rhs)
        for c in objectives:
            value, a, lam = polytope.support(c)
            fresh = support_function(rows, c, rhs)
            assert value == fresh[0]
            # the multipliers certify the value even when no maximizer is given
            assert len(lam) == len(rows) and all(l >= 0 for l in lam)
            for i, ci in enumerate(c):
                assert sum((l * row[i] for l, row in zip(lam, rows)), F(0)) == ci
            assert dot(rhs, lam) == value
            if a is not None:
                assert a == fresh[1]
                assert_duality(rows, c, rhs, (value, a, lam))

    def test_one_solve_per_optimal_basis(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_lp(*args)

        monkeypatch.setattr(linprog, "solve_lp", counting)
        polytope = Polyhedron(interleave([(1, 0), (0, 1)]))
        # (1, 1), its multiple and (2, 1) share the vertex (1, 1) and its basis
        values = [polytope.support(c)[0] for c in ([1, 1], [3, 3], [2, 1], [-1, 1])]
        assert values == [2, 6, 3, 2]
        assert len(calls) == 2

    def test_unique_vertex_is_returned_and_degenerate_one_is_not(self):
        polytope = Polyhedron(interleave([(1, 0), (0, 1)]))
        assert polytope.support([1, 1])[1] == [1, 1]
        # every l_k > 0: (1, 1) is the only maximizer of (2, 1)
        assert polytope.support([2, 1]) == (3, [1, 1], [2, 0, 1, 0])
        # l_k = 0 on a row of the basis: the whole edge a1 = 1 maximizes (1, 0)
        value, a, _ = polytope.support([1, 0])
        assert value == 1 and a is None

    def test_miss_raises_what_support_function_raises(self):
        # the rows do not span the third coordinate, so the simplex drops it
        rows = [(1, 0, 0), (0, 1, 0), (0, -1, 0)]
        for c, match in (([-1, 0, 0], "outside the cone"), ([1, 0, 1], "outside the span")):
            with pytest.raises(ValueError, match=match):
                support_function(rows, c)
            polytope = Polyhedron(rows)
            with pytest.raises(ValueError, match=match):
                polytope.support(c)
            # the basis cached for (1, 0, 0) has l_B >= 0 for (1, 0, 1) on
            # the kept coordinates, but not sum l_k rows_k = c on the third
            assert polytope.support([1, 0, 0])[0] == 1
            with pytest.raises(ValueError, match=match):
                polytope.support(c)

    def test_a_failed_exact_check_raises(self):
        polytope = Polyhedron(interleave([(1, 0), (0, 1)]))
        polytope.support([1, 1])
        polytope._bases[0].vertex = [F(1), F(2)]
        with pytest.raises(ArithmeticError, match="rhs_B.l_B = c.v"):
            polytope.support([2, 1])


def brute_max_min(columns):
    """Independent oracle: max z over l in the simplex with
    sum_j l_j columns[j][i] >= z, by enumerating the vertices of that
    polyhedron in (l, z)."""
    k, d = len(columns), len(columns[0])
    # inequalities g.(l, z) <= 0: -l_j <= 0 and z - sum_j l_j columns[j][i] <= 0
    ineqs = [[-F(x == j) for x in range(k)] + [F(0)] for j in range(k)]
    ineqs += [[-F(columns[j][i]) for j in range(k)] + [F(1)] for i in range(d)]
    simplex = [F(1)] * k + [F(0)]
    best = None
    for tight in itertools.combinations(ineqs, k):
        sol = ref_solve_square([simplex, *tight], [F(1)] + [F(0)] * k)
        if sol is None or any(dot(g, sol) > 0 for g in ineqs):
            continue
        if best is None or sol[k] > best:
            best = sol[k]
    return best


class TestMaxMin:
    def test_matches_brute_vertex_oracle(self):
        rng = random.Random(5)
        for trial in range(40):
            d, k = rng.randint(1, 3), rng.randint(1, 4)
            cols = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(k)]
            assert max_min_over_simplex(cols) == brute_max_min(cols), (trial, cols)

    def test_errors_and_empty(self):
        with pytest.raises(ValueError):
            max_min_over_simplex([])
        assert max_min_over_simplex([[], []]) == 0


# Golden (value, maximizer) pins for seeded instances of the three LP forms,
# recorded from the tableaux each form was first built with.  The simplex
# picks one optimal vertex among several, so a reordered tableau moves the
# maximizer (and with it the witnesses that domcert prints) before any value.

def signed_instance(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 3)
    rows = [tuple(F(rng.randint(-3, 3)) for _ in range(d))
            for _ in range(rng.randint(d, d + 3))]
    c = [rng.randint(1, 2) * v for v in rows[rng.randrange(len(rows))]]
    return rows, c


def orthant_instance(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 3)
    rows = [tuple(F(rng.randint(0, 3)) for _ in range(d))
            for _ in range(rng.randint(2, 4))]
    rows.append(tuple(F(1) for _ in range(d)))
    c = tuple(rng.randint(1, 2) * v for v in rows[rng.randrange(len(rows))])
    return rows, c


def maxmin_instance(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 3)
    cols = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(rng.randint(2, 4))]
    return cols + [list(cols[rng.randrange(len(cols))])]


SIGNED = [
    ('8/5', ('4/15', '-1/5', '-1/3')),
    ('2', ('0', '1/3')),
    ('2', ('1/3', '0')),
    ('5/2', ('-1/2', '-1/2')),
    ('2', ('-1/3', '0')),
    ('22/7', ('-5/7', '-8/21', '25/21')),
    ('3/2', ('-1/4', '1/4')),
    ('2', ('-1/12', '-1/4', '-1/2')),
    ('11/6', ('-5/12', '1/12')),
    ('2', ('-13/33', '4/11', '-16/33')),
]
ORTHANT = [
    ('2/3', ('0', '0', '1/3')),
    ('2/3', ('0', '1/3')),
    ('1', ('1', '0')),
    ('2', ('1/3', '1/3')),
    ('2', ('2/9', '1/3')),
    ('2/3', ('1/4', '1/4', '1/6')),
    ('2', ('0', '1/2')),
    ('1', ('0', '0', '1')),
    ('1/3', ('1/3', '0')),
    ('1', ('0', '1/6', '1/2')),
]
# value and the simplex weights of the generators
MAXMIN = [
    ('0', ('0', '1', '0', '0')),
    ('3', ('1', '0', '0', '0', '0')),
    ('-9/7', ('5/7', '2/7', '0')),
    ('2/5', ('2/5', '0', '3/5', '0', '0')),
    ('0', ('0', '1', '0', '0')),
    ('55/27', ('2/9', '20/27', '1/27', '0', '0')),
    ('1/2', ('1/2', '0', '1/2', '0')),
    ('-9/7', ('4/7', '3/7', '0')),
    ('-2/3', ('2/3', '1/3', '0', '0')),
    ('-6/7', ('0', '3/7', '0', '4/7', '0')),
]


def pinned(pin):
    value, vector = pin
    return F(value), [F(v) for v in vector]


class TestGoldenPins:
    @pytest.mark.parametrize("seed", range(10))
    def test_signed(self, seed):
        rows, c = signed_instance(seed)
        value, a, _ = support_function(interleave(rows), c)
        assert (value, a) == pinned(SIGNED[seed])

    @pytest.mark.parametrize("seed", range(10))
    def test_orthant(self, seed):
        rows, c = orthant_instance(seed)
        value, a = _support_function_nonneg(rows, c)
        assert (value, a) == pinned(ORTHANT[seed])

    @pytest.mark.parametrize("seed", range(10))
    def test_max_min(self, seed, monkeypatch):
        cols = maxmin_instance(seed)
        seen = []

        def spy(*args):
            result = support_function(*args)
            seen.append(result)
            return result

        monkeypatch.setattr(linprog, "support_function", spy)
        value = max_min_over_simplex(cols)
        (_, _, multipliers), = seen
        assert (value, multipliers[: len(cols)]) == pinned(MAXMIN[seed])
