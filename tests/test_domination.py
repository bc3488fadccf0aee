import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from domcert import domination
from domcert.domination import (
    Certificate,
    DominationError,
    DominationOracle,
    DominationValue,
    VectorSequence,
    basis_sequence,
    domination_constant_exact,
    domination_lower_bound,
    gamma_bracket,
    right_dominance_defect,
    search_certificate,
    verify_certificate,
    _functional_rows,
    _nonneg_disjoint,
    _orthant_system,
    _support_function_nonneg,
    _dominated_row,
    _unsigned_rows,
)
from domcert.families import Schreier
from domcert.linprog import Polyhedron, support_function
from domcert.norms import C0, Combinatorial, L1, Lp, norm, norming_functionals, parse_space
from domcert.ordinals import from_int
from domcert.rationals import MAG_INF, Mag
from domcert.vectors import Vector, combine
from reference_linalg import ref_nullspace, ref_solve_square

e = Vector.basis
S1 = Schreier(from_int(1))
X1 = Combinatorial(S1)


def oracle_functional_rows(space, vectors):
    """The signed domination rows, independently of the engine: phi(v) for
    every norming functional phi in `Fraction`s, the zero rows dropped, each
    row negated where its first nonzero entry is negative, distinct, sorted."""
    support = sorted({i for v in vectors for i in v.support})
    rows = set()
    for phi in norming_functionals(space, tuple(support)):
        row = tuple(phi.dot(v) for v in vectors)
        lead = next((c for c in row if c), 0)
        if lead:
            rows.add(row if lead > 0 else tuple(-c for c in row))
    return sorted(rows)


def brute_constant(xs: VectorSequence, ys: VectorSequence):
    """Independent oracle: enumerate the polytope vertices from all sign
    systems of the y-side functional rows and evaluate the x-norm there.  A
    direction v that every row kills (v in their nullspace N) makes the
    constant infinite unless the x side kills it too; then the x-norm is
    constant along N, and the vertices are taken with v.a = 0 for v in N.
    The polytope, the pinned equations and the norm are symmetric, so the
    vertex -a has the value of a: the first row of each system keeps sign +."""
    t = len(xs)
    rows = oracle_functional_rows(ys.space, ys.items)
    pinned = ref_nullspace(rows, t)
    if any(norm(xs.space, combine(xs.items, v)) > 0 for v in pinned):
        return MAG_INF
    size = t - len(pinned)
    rhs = [Fraction(1)] * size + [Fraction(0)] * len(pinned)
    best = Mag.of(Fraction(0))
    for subset in itertools.combinations(range(len(rows)), size):
        for signs in itertools.product((1, -1), repeat=size):
            if signs and signs[0] < 0:
                continue
            a_mat = [[signs[i] * c for c in rows[subset[i]]] for i in range(size)] + pinned
            sol = ref_solve_square(a_mat, rhs)
            if sol is None:
                continue
            if any(
                abs(sum((c * v for c, v in zip(row, sol)), Fraction(0))) > 1
                for row in rows
            ):
                continue
            value = norm(xs.space, combine(xs.items, sol))
            if value > best:
                best = value
    return best


class TestExactConstant:
    def test_l1_vs_c0(self):
        xs = VectorSequence((e(1), e(2)), L1())
        ys = VectorSequence((e(1), e(2)), C0())
        assert domination_constant_exact(xs, ys).value == 2

    def test_identity(self):
        xs = VectorSequence((e(1),), C0())
        assert domination_constant_exact(xs, xs).value == 1

    def test_c0_vs_l1(self):
        xs = VectorSequence((e(1), e(2)), C0())
        ys = VectorSequence((e(1), e(2)), L1())
        assert domination_constant_exact(xs, ys).value == 1

    def test_infinity_on_degenerate_right(self):
        xs = VectorSequence((e(1), e(2)), L1())
        ys = VectorSequence((e(1), e(1)), C0())
        res = domination_constant_exact(xs, ys)
        assert not res.finite and res.witness is not None

    def test_dimension_bound(self):
        xs = basis_sequence(L1(), 7)
        with pytest.raises(DominationError):
            domination_constant_exact(xs, xs)

    def test_matches_brute_oracle(self):
        rng = random.Random(2)
        spaces = [X1, C0(), L1()]
        for trial in range(12):
            t = rng.randint(1, 3)
            sx = spaces[rng.randrange(3)]
            sy = spaces[rng.randrange(3)]
            xs_items, ys_items = [], []
            pos = 1
            for _ in range(t):
                w = rng.randint(1, 2)
                xs_items.append(
                    Vector.of({i: rng.randint(1, 3) for i in range(pos, pos + w)})
                )
                ys_items.append(
                    Vector.of({i: rng.randint(1, 3) for i in range(pos, pos + w)})
                )
                pos += w
            xs = VectorSequence(tuple(xs_items), sx)
            ys = VectorSequence(tuple(ys_items), sy)
            fast = domination_constant_exact(xs, ys).value
            slow = brute_constant(xs, ys)
            assert fast == slow, (trial, fast, slow)

    def test_lp_left_matches_brute_oracle(self):
        # l_p left spaces take the vertex enumeration of _lp_left_constant;
        # signed right vectors keep them off the orthant route
        rng = random.Random(3)
        rights = [X1, C0(), L1()]
        for trial in range(16):
            t = rng.randint(1, 3)
            sx = Lp(rng.choice((2, 3)))
            sy = rights[rng.randrange(3)]
            xs_items, ys_items = [], []
            pos = 1
            for _ in range(t):
                w = rng.randint(1, 2)
                xs_items.append(
                    Vector.of({i: rng.randint(1, 3) for i in range(pos, pos + w)})
                )
                ys_items.append(
                    Vector.of(
                        {i: rng.choice((-1, 1)) * rng.randint(1, 3) for i in range(pos, pos + w)}
                    )
                )
                pos += w
            xs = VectorSequence(tuple(xs_items), sx)
            ys = VectorSequence(tuple(ys_items), sy)
            fast = domination_constant_exact(xs, ys).value
            slow = brute_constant(xs, ys)
            assert fast == slow, (trial, fast, slow)

    def test_lp_left_overlapping_right_reaches_sqrt5(self):
        # the positive orthant of {a : |a_1 e_1 + a_2 (e_1 + e_2)|_oo <= 1}
        # misses a = (2, -1), where the l_p(2) left norm reaches sqrt(5): the
        # vertices of the whole polytope are enumerated
        xs = VectorSequence((e(1), e(2)), Lp(2))
        ys = VectorSequence((e(1), Vector.of({1: 1, 2: 1})), C0())
        res = domination_constant_exact(xs, ys)
        assert res.value == brute_constant(xs, ys) == Mag(Fraction(5), 2)
        assert norm(ys.space, combine(ys.items, res.witness)) == 1
        assert norm(xs.space, combine(xs.items, res.witness)) == res.value

    def test_lp_left_overlapping_right_matches_brute_oracle(self):
        # signed entries and odd p: the objective is sum |a_n|^p d_n at
        # vertices with negative coordinates
        zero = Vector.of({})
        cases = [
            ((e(1), e(2)), (e(1), Vector.of({1: 1, 2: 1})), C0(), 2),
            ((e(1), e(2)), (e(1), Vector.of({1: 1, 2: 1})), C0(), 3),
            # y_2 = y_3: the rows do not span R^3, so the oracle pins (0, 1, -1)
            ((e(1), zero, zero), (e(1), Vector.of({1: 1, 2: 1}), Vector.of({1: 1, 2: 1})),
             C0(), 2),
        ]
        rng = random.Random(6)
        for _ in range(8):
            t = rng.randint(2, 3)
            ys_items = tuple(
                Vector.of({i: rng.choice((-1, 1)) * rng.randint(1, 3) for i in (k, k + 1)})
                for k in range(1, t + 1)
            )
            xs_items = tuple(e(i) for i in range(1, t + 1))
            cases.append((xs_items, ys_items, rng.choice((C0(), L1(), X1)), 2))
        for xs_items, ys_items, sy, p in cases:
            xs = VectorSequence(xs_items, Lp(p))
            ys = VectorSequence(ys_items, sy)
            slow = brute_constant(xs, ys)
            assert slow.is_finite
            fast = domination_constant_exact(xs, ys).value
            assert fast == slow, (ys_items, fast, slow)

    def test_lp_left_pins_directions_the_right_side_kills(self):
        # y_2 = y_3 leaves the direction (0, 1, -1) unseen; x_2 = x_3 = 0 make
        # it free on the left too, so the polytope has no vertex and the
        # maximum, at a_1 = 2, is found with that direction pinned at 0
        zero = Vector.of({})
        xs = VectorSequence((e(1), zero, zero), Lp(2))
        ys = VectorSequence((e(1), Vector.of({1: 1, 2: 1}), Vector.of({1: 1, 2: 1})), C0())
        res = domination_constant_exact(xs, ys)
        assert res.value == brute_constant(xs, ys) == 2
        assert norm(ys.space, combine(ys.items, res.witness)) == 1

    def test_lp_left_skips_subsets_holding_w_and_minus_w(self, monkeypatch):
        # 15 functional rows give C(30, 3) = 4 060 row triples; the 420 that
        # hold some w and -w are singular and are never solved
        calls = []
        real = domination.solve_square

        def counting(a_mat, b_vec):
            calls.append(a_mat)
            return real(a_mat, b_vec)

        monkeypatch.setattr(domination, "solve_square", counting)
        xs = VectorSequence((e(1), e(2), e(3)), Lp(2))
        ys = VectorSequence(
            tuple(Vector.of({i: 1 for i in f}) for f in ((1, 2, 3), (2, 3, 4), (3, 4, 5))), X1
        )
        res = domination_constant_exact(xs, ys)
        assert res.value == Mag(Fraction(2), 2)
        assert res.witness == (-1, 1, 0)
        assert len(calls) <= 3640

    def test_lp_left_budget_counts_the_subsets_it_solves(self, monkeypatch):
        # 3 rows w give C(6, 2) = 15 pairs among w and -w, of which the loop
        # solves the 4 * C(3, 2) = 12 holding at most one of each w and -w
        xs = basis_sequence(Lp(2), 2)
        ys = VectorSequence((Vector.of({1: 1, 2: 1}), Vector.of({2: 1, 3: 1})), C0())
        monkeypatch.setattr(domination, "LP_VERTEX_BUDGET", 12)
        res = domination_constant_exact(xs, ys)
        assert res.value == Mag(Fraction(2), 2)
        assert res.witness == (-1, 1)
        monkeypatch.setattr(domination, "LP_VERTEX_BUDGET", 11)
        with pytest.raises(DominationError, match="vertex enumeration budget exceeded"):
            domination_constant_exact(xs, ys)

    def test_lp_left_rejects_overlapping_left_vectors(self):
        xs = VectorSequence((e(1), Vector.of({1: 1, 2: 1})), Lp(2))
        with pytest.raises(DominationError, match="disjoint x supports"):
            domination_constant_exact(xs, basis_sequence(C0(), 2))

    def test_signed_route_matches_unsigned(self):
        # vectors with negative entries bypass the unsigned fast path
        xs_pos = VectorSequence((Vector.of({1: 1, 2: 2}), e(3)), X1)
        xs_neg = VectorSequence((Vector.of({1: -1, 2: 2}), e(3)), X1)
        ys = basis_sequence(C0(), 2)
        a = domination_constant_exact(xs_pos, ys).value
        b = domination_constant_exact(xs_neg, ys).value
        assert a == b  # 1-unconditional left norm

    def test_transitivity_constant(self):
        rng = random.Random(4)
        for _ in range(10):
            t = rng.randint(1, 3)
            seqs = []
            for space in (L1(), X1, C0()):
                items = tuple(
                    Vector.of({i: rng.randint(1, 4)}) for i in range(1, t + 1)
                )
                seqs.append(VectorSequence(items, space))
            xs, ys, zs = seqs
            cxy = domination_constant_exact(xs, ys).value
            cyz = domination_constant_exact(ys, zs).value
            cxz = domination_constant_exact(xs, zs).value
            assert cxz <= cxy * cyz


def _signed_vector(rng: random.Random, support) -> Vector:
    return Vector.of({i: rng.choice((-1, 1)) * rng.randint(1, 3) for i in support})


class TestMetamorphic:
    """Relations the least constant K(x, y) obeys, with no oracle: a joint
    permutation of the pairs or a joint sign flip of one pair leaves K
    unchanged, and K(λx, y) = |λ|·K(x, y).  Values only: a tie may move the
    witness."""

    def test_permutation_sign_flip_and_scaling(self, monkeypatch):
        # Three signed y vectors on 1..6 can give the l_p route 85 000 vertex
        # systems to solve.  Draws over 1 000 are skipped and counted; the
        # relations keep the rows, so the budget stops a draw's first solve or
        # none of its solves.
        monkeypatch.setattr(domination, "LP_VERTEX_BUDGET", 1_000)
        rng = random.Random(12)
        trials, skipped = 40, 0
        for trial in range(trials):
            t = rng.randint(1, 3)
            sx = rng.choice((C0(), L1(), X1, Lp(2)))
            sy = rng.choice((C0(), L1(), X1))
            free = rng.sample(range(1, 7), 6)
            xs, ys = [], []
            for _ in range(t):
                if isinstance(sx, Lp):  # the l_p route needs disjoint x supports
                    support = [free.pop() for _ in range(rng.randint(1, 2))]
                else:
                    support = rng.sample(range(1, 7), rng.randint(1, 3))
                xs.append(_signed_vector(rng, sorted(support)))
                ys.append(_signed_vector(rng, sorted(rng.sample(range(1, 7), rng.randint(1, 3)))))

            def value(xv, yv):
                pair = VectorSequence(tuple(xv), sx), VectorSequence(tuple(yv), sy)
                return domination_constant_exact(*pair).value

            try:
                k = value(xs, ys)
            except DominationError as exc:
                assert "vertex enumeration budget" in str(exc)
                skipped += 1
                continue
            perm = rng.sample(range(t), t)
            assert value([xs[i] for i in perm], [ys[i] for i in perm]) == k, (trial, perm)
            j = rng.randrange(t)
            flipped = [[v.scale(-1) if i == j else v for i, v in enumerate(s)] for s in (xs, ys)]
            assert value(*flipped) == k, (trial, j)
            lam = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            scaled = value([v.scale(lam) for v in xs], ys)
            assert scaled == (k * abs(lam) if k.is_finite else k), (trial, lam)
        assert skipped <= trials // 10


def fresh_argmax(xs: VectorSequence, ys: VectorSequence):
    """Plain oracle for polyhedral, injective pairs: one fresh solve per left
    functional, with the value and maximizer of the first largest one, on the
    route `domination_constant_exact` takes (the orthant for disjoint
    nonnegative vectors, the signed polytope otherwise)."""
    if _nonneg_disjoint(xs) and _nonneg_disjoint(ys):
        y_rows = _unsigned_rows(ys.space, ys.items)
        objectives = _unsigned_rows(xs.space, xs.items)
        results = [_support_function_nonneg(y_rows, c) for c in objectives]
    else:
        rows = oracle_functional_rows(ys.space, ys.items)
        signed = [s for w in rows for s in (w, tuple(-v for v in w))]
        objectives = oracle_functional_rows(xs.space, xs.items)
        results = [support_function(signed, c)[:2] for c in objectives]
    best, witness = Fraction(0), None
    for value, maximizer in results:
        if value > best:
            best, witness = value, tuple(maximizer)
    return Mag.of(best), witness


def x_s1_block_pair(rng: random.Random, widths, signed: bool):
    """Consecutive blocks of X[S[1]] normalized to norm 1, with coefficients
    +-p/q (at least one negative when signed), against the basis at their
    support maxima: the pairs of acceptance criterion 05."""
    size = sum(widths)
    coeffs = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(size)]
    if signed:
        negative = {rng.randrange(size)} | {k for k in range(size) if rng.random() < 0.3}
        coeffs = [-c if k in negative else c for k, c in enumerate(coeffs)]
    blocks, pos = [], 1
    for w in widths:
        v = Vector.of({i: coeffs[i - 1] for i in range(pos, pos + w)})
        blocks.append(v.scale(1 / norm(X1, v).as_fraction()))
        pos += w
    maxima = tuple(Vector.basis(v.support[-1]) for v in blocks)
    return VectorSequence(tuple(blocks), X1), VectorSequence(maxima, X1)


class TestCachedBases:
    """`domination_constant_exact` takes its values from the cached optimal
    bases of one `Polyhedron` per call; value and witness must be those of
    fresh solves."""

    SHAPES = [(1,), (2,), (1, 2), (2, 2), (1, 1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 2, 2, 2)]

    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "positive"])
    def test_block_pairs_match_fresh_solves(self, signed):
        rng = random.Random(11 + signed)
        for widths in self.SHAPES:
            xs, ys = x_s1_block_pair(rng, widths, signed)
            res = domination_constant_exact(xs, ys)
            assert (res.value, res.witness) == fresh_argmax(xs, ys), widths

    def test_degenerate_hit_takes_the_fresh_witness(self):
        # all-positive blocks e1, (e2 + 8 e3)/9, (e4 + 12 e5 + 5 e6)/18, e7:
        # the largest value, 1, first comes from the second left functional,
        # and a basis cached for the first answers it with a degenerate
        # multiplier, at a vertex other than the one a fresh solve gives
        xs = VectorSequence((
            e(1),
            Vector.of({2: Fraction(1, 9), 3: Fraction(8, 9)}),
            Vector.of({4: Fraction(1, 18), 5: Fraction(2, 3), 6: Fraction(5, 18)}),
            e(7),
        ), X1)
        ys = VectorSequence(tuple(e(i) for i in (1, 3, 6, 7)), X1)
        y_rows = _unsigned_rows(X1, ys.items)
        objectives = _unsigned_rows(X1, xs.items)
        polytope = Polyhedron(*_orthant_system(y_rows, 4))
        first = polytope.support(objectives[0])
        value, maximizer, _ = polytope.support(objectives[1])
        fresh = _support_function_nonneg(y_rows, objectives[1])
        assert first[0] < value == fresh[0] == 1 and len(polytope._bases) == 1
        assert maximizer is None and polytope._bases[0].vertex != fresh[1]
        res = domination_constant_exact(xs, ys)
        assert (res.value, res.witness) == fresh_argmax(xs, ys)
        assert res.witness == (1, 0, 0, 1)


def oracle_unsigned_rows(space, vectors):
    """The orthant rows as they stood before the absolute functionals: every
    signed norming functional, read through |phi| coefficient by coefficient."""
    support = sorted({i for v in vectors for i in v.support})
    rows = set()
    for phi in norming_functionals(space, tuple(support)):
        row = tuple(
            sum((abs(c) * v.coeff(i) for i, c in phi.entries), Fraction(0)) for v in vectors
        )
        if any(row):
            rows.add(row)
    return [r for r in rows if not _dominated_row(r, rows)]


@st.composite
def row_inputs(draw):
    """A space and t = 1..4 vectors on indices 1..6: signed coefficients with
    mixed denominators, supports that may overlap, and zero vectors (all of
    them at times, so that every row is zero)."""
    space = parse_space(draw(st.sampled_from(
        ["C0", "L1", "LP(1)", "X[S[1]]", "X[S[2]]", "TSIRELSON(1;1/2)"]
    )))
    coeff = st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 4, 6])
    )
    zero = draw(st.booleans())
    vectors = tuple(
        Vector.of(draw(st.dictionaries(st.integers(1, 6), coeff, max_size=0 if zero else 3)))
        for _ in range(draw(st.integers(1, 4)))
    )
    return space, vectors


class TestFunctionalRows:
    @settings(max_examples=200, deadline=None)
    @given(row_inputs())
    def test_matches_fraction_oracle(self, case):
        # entry by entry and in the same order: the order fixes the LP rows
        # of the signed route and so every witness it reports
        space, vectors = case
        rows, den = _functional_rows(space, vectors)
        assert den > 0
        assert [tuple(Fraction(v, den) for v in row) for row in rows] == (
            oracle_functional_rows(space, vectors)
        )
        # the orthant rows come from the same builder, unsigned; any vectors
        # here, not only the nonnegative disjoint blocks the route takes
        assert _unsigned_rows(space, vectors) == oracle_unsigned_rows(space, vectors)


class TestUnsignedRows:
    @pytest.mark.parametrize(
        "text", ["C0", "L1", "X[S[1]]", "X[S[2]]", "X[ALL]", "X[NFOLD(S[1];2)]", "TSIRELSON(1;1/2)"]
    )
    def test_matches_signed_oracle(self, text):
        # same rows in the same order: the order fixes the LP rows and so
        # every witness the orthant route reports
        space = parse_space(text)
        rng = random.Random(23)
        for _ in range(25):
            blocks, start = [], rng.randint(1, 3)
            for _ in range(rng.randint(1, 3)):
                width = rng.randint(1, 2)
                blocks.append(Vector.of(
                    {start + k: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for k in range(width)}
                ))
                start += width + rng.randint(0, 1)
            vectors = tuple(blocks)
            assert _unsigned_rows(space, vectors) == oracle_unsigned_rows(space, vectors)


class TestLowerBound:
    def test_bounded_by_exact(self):
        rng = random.Random(9)
        for trial in range(8):
            t = rng.randint(1, 3)
            xs = VectorSequence(
                tuple(Vector.of({i: rng.randint(1, 3)}) for i in range(1, t + 1)), L1()
            )
            ys = VectorSequence(
                tuple(Vector.of({i: rng.randint(1, 3)}) for i in range(1, t + 1)), C0()
            )
            exact = domination_constant_exact(xs, ys).value
            lb = domination_lower_bound(xs, ys, trials=30, seed=trial)
            assert lb.value <= exact

    def test_finds_two(self):
        xs = VectorSequence((e(1), e(2)), L1())
        ys = VectorSequence((e(1), e(2)), C0())
        res = domination_lower_bound(xs, ys, trials=100, seed=7)
        assert res.value == 2

    def test_identical_sequences(self):
        xs = basis_sequence(X1, 3)
        assert domination_lower_bound(xs, xs, trials=10, seed=0).value == 1

    def test_deterministic(self):
        xs = VectorSequence((e(1), e(2)), L1())
        ys = VectorSequence((e(2), e(3)), X1)
        a = domination_lower_bound(xs, ys, trials=25, seed=3)
        b = domination_lower_bound(xs, ys, trials=25, seed=3)
        assert a.value == b.value and a.witness == b.witness

    def test_zero_left_sequence(self):
        xs = VectorSequence((Vector(), Vector()), L1())
        ys = basis_sequence(C0(), 2)
        res = domination_lower_bound(xs, ys, trials=10, seed=0)
        assert res.value == 0 and res.status == "ok"

    def test_degenerate_right_reports_infinite(self):
        xs = VectorSequence((e(1),), L1())
        ys = VectorSequence((Vector(),), C0())
        res = domination_lower_bound(xs, ys, trials=10, seed=0)
        assert res.value == MAG_INF


class TestRightDominance:
    def test_schreier_spread(self):
        rep = right_dominance_defect(X1, (1, 2), (2, 3), Fraction(1))
        assert rep.ok and rep.constant <= Mag.of(Fraction(1))

    def test_identical(self):
        rep = right_dominance_defect(X1, (2, 3), (2, 3), Fraction(1))
        assert rep.ok and rep.constant == 1

    def test_l1_symmetric(self):
        rep = right_dominance_defect(L1(), (1,), (5,), Fraction(1))
        assert rep.ok

    def test_requires_spread(self):
        with pytest.raises(DominationError):
            right_dominance_defect(X1, (2, 3), (1, 3), Fraction(1))

    def test_pull_back_walks_only_the_members_inside_m(self):
        # indices above the enumeration bound of 20 need no enumeration of
        # {1..22}: the members inside m are (21,), (22,) and (21, 22)
        rep = right_dominance_defect(X1, (21, 22), (23, 25), Fraction(1))
        assert rep.ok and rep.constant == 1

    def test_engines_agree(self):
        for m, l in [((1, 2), (2, 4)), ((2, 3), (3, 5)), ((1, 2, 3), (2, 3, 4))]:
            auto = right_dominance_defect(X1, m, l, Fraction(1), engine="auto")
            lp = right_dominance_defect(X1, m, l, Fraction(1), engine="lp")
            assert auto.constant == lp.constant


class TestVerify:
    def test_xi_zero_always_ok(self):
        rho = VectorSequence((e(1).scale(5), e(2)), L1())
        cert = Certificate(from_int(0), (1, 2), (1, 2), Fraction(1), C0(), "rho")
        assert verify_certificate(cert, rho).ok

    def test_self_identity(self):
        rho = basis_sequence(X1, 4)
        cert = Certificate(from_int(1), (1, 2, 3, 4), (1, 2, 3, 4), Fraction(1), X1)
        report = verify_certificate(cert, rho)
        assert report.ok and report.worst_ratio == 1

    def test_violation_with_scalars(self):
        rho = VectorSequence((e(1).scale(2), e(2).scale(2)), L1())
        cert = Certificate(from_int(1), (1, 2), (1, 2), Fraction(1), C0(), "rho")
        report = verify_certificate(cert, rho)
        assert not report.ok
        assert report.worst_ratio == 2
        viol = report.violation
        num = norm(L1(), combine([rho.items[i - 1] for i in viol.F], viol.scalars))
        den = norm(
            C0(),
            combine([e(cert.L[i - 1]) for i in viol.F], viol.scalars),
        )
        assert num / den > Mag.of(Fraction(1))

    def test_verified_resists_spot_checks(self):
        rho = basis_sequence(X1, 6)
        out = search_certificate(rho, from_int(2), Fraction(1), 6)
        cert = out.certificate
        rng = random.Random(1)
        from domcert.families import enumerate_family, FineSchreier

        members = [f for f in enumerate_family(FineSchreier(from_int(2)), 6) if f]
        for f in rng.sample(members, 5):
            xs = rho.subsequence(tuple(cert.M[i - 1] for i in f))
            ys = VectorSequence(
                tuple(e(cert.L[i - 1]) for i in f), X1
            )
            assert domination_constant_exact(xs, ys).value <= Mag.of(cert.C)


class TestSearch:
    def test_identity_certificate(self):
        rho = basis_sequence(X1, 4)
        out = search_certificate(rho, None, Fraction(1), 4)
        assert out.status == "found"
        assert out.certificate.M == (1, 2, 3, 4)
        assert out.certificate.L == (1, 2, 3, 4)
        assert out.certificate.verified

    def test_block_domination_found(self):
        blocks = (Vector.of({1: 1, 2: 1}), e(3), Vector.of({4: 1, 5: 2}).scale(Fraction(1, 3)))
        rho = VectorSequence(blocks, X1, "blocks")
        assert all(norm(X1, b) == 1 for b in blocks)
        out = search_certificate(rho, None, Fraction(1), 3, l_max=5)
        assert out.status == "found"

    def test_exhausted_reports_kill(self):
        rho = VectorSequence((e(1).scale(2),), L1())
        out = search_certificate(rho, None, Fraction(1), 1, g_space=C0())
        assert out.status == "exhausted"
        assert out.kill_bound == 2

    def test_exhausted_kill_bound_is_smallest_finite(self):
        # a g-basis oracle never returns an infinite constant, so a stub
        # supplies one: kills at l = 1..5 have ratios inf, 3, 2, inf, 5/2
        infinite = domination_constant_exact(
            VectorSequence((e(1), e(2)), L1()), VectorSequence((e(1), e(1)), C0())
        )
        assert not infinite.finite
        ratios = {1: None, 2: Fraction(3), 3: Fraction(2), 4: None, 5: Fraction(5, 2)}

        class StubOracle:
            def constant(self, m, l):
                r = ratios[l[-1]]
                return infinite if r is None else DominationValue(Mag.of(r), (r,))

        rho = basis_sequence(L1(), 1)
        out = search_certificate(rho, None, Fraction(1), 1, l_max=5, oracle=StubOracle())
        assert out.status == "exhausted" and out.nodes == 5
        assert out.kill_bound == 2
        assert out.kill_witness.ratio == 2 and out.kill_witness.scalars == (2,)

    def test_constraint_respected(self):
        rho = basis_sequence(X1, 6)
        out = search_certificate(rho, from_int(1), Fraction(1), 3, constraint=(2, 4, 6))
        assert out.status == "found"
        assert set(out.certificate.M) <= {2, 4, 6}

    def test_budget(self):
        rho = basis_sequence(L1(), 4)
        out = search_certificate(rho, None, Fraction(1, 100), 4, g_space=C0(), node_budget=3)
        assert out.status == "budget"

    def test_found_carries_its_verified_worst_ratio(self):
        rho = basis_sequence(L1(), 3)
        out = search_certificate(rho, None, Fraction(5), 3, g_space=C0())
        report = verify_certificate(out.certificate, rho)
        assert out.status == "found" and report.ok
        assert out.worst_ratio == report.worst_ratio == 3
        assert search_certificate(rho, None, Fraction(2), 3, g_space=C0()).worst_ratio is None


class TestGammaBracket:
    def test_l1_versus_c0(self):
        rho = basis_sequence(L1(), 3)
        bracket = gamma_bracket(rho, None, 3, g_space=C0())
        assert bracket.lower == 3 and bracket.upper == 3
        assert bracket.lower_witness is not None

    def test_xi_zero(self):
        rho = basis_sequence(L1(), 3)
        bracket = gamma_bracket(rho, from_int(0), 3, resolution=Fraction(1, 16), g_space=C0())
        assert bracket.lower == 0 and bracket.upper <= Fraction(1, 16)

    def test_self_domination(self):
        rho = basis_sequence(X1, 4)
        bracket = gamma_bracket(rho, from_int(1), 4)
        assert bracket.lower >= 1 and bracket.upper == 1
        assert bracket.certificate is not None

    def test_found_certificate_verified_once(self, monkeypatch):
        # the search's own verification supplies the worst ratio
        calls = []
        real = domination.verify_certificate

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(domination, "verify_certificate", counting)
        bracket = gamma_bracket(basis_sequence(L1(), 4), None, 4, g_space=C0())
        assert bracket.lower == 4 and bracket.upper == 4
        assert len(calls) == 1 and calls[0].C == 4

    @pytest.mark.parametrize("resolution", [Fraction(0), Fraction(-1)])
    def test_nonpositive_resolution_rejected(self, resolution):
        # once the bounds meet, upper > lower + resolution still holds
        rho = basis_sequence(X1, 5)
        with pytest.raises(DominationError, match="resolution"):
            gamma_bracket(rho, from_int(1), 3, resolution=resolution, node_budget=200)


MEMO_SPACES = [X1, C0(), L1()]


@st.composite
def oracle_queries(draw):
    """rho as a basis or as nonnegative disjoint blocks, a g space, and 20-40
    increasing pairs (m, l) with |m| = |l| <= 5: every call takes the orthant
    route, and the pairs repeat row systems."""
    space = draw(st.sampled_from(MEMO_SPACES))
    length = draw(st.integers(5, 8))
    if draw(st.booleans()):
        rho = basis_sequence(space, length)
    else:
        blocks, start = [], 1
        for _ in range(length):
            width = draw(st.integers(1, 2))
            coeffs = draw(st.lists(st.fractions(Fraction(1, 4), 3), min_size=width, max_size=width))
            blocks.append(Vector.of({start + k: c for k, c in enumerate(coeffs)}))
            start += width
        rho = VectorSequence(tuple(blocks), space)
    g_space = draw(st.sampled_from(MEMO_SPACES))
    pairs = []
    for _ in range(draw(st.integers(20, 40))):
        size = draw(st.integers(1, 5))
        m = draw(st.lists(st.integers(1, length), min_size=size, max_size=size, unique=True))
        l = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size, unique=True))
        pairs.append((tuple(sorted(m)), tuple(sorted(l))))
    return rho, g_space, pairs


class TestOracleMemo:
    """`DominationOracle` shares row lists and values between pairs (m, l)
    that pose the same orthant row system; each answer must be the fresh one."""

    @settings(max_examples=25, deadline=None)
    @given(oracle_queries())
    def test_memoized_answers_equal_fresh_calls(self, query):
        rho, g_space, pairs = query
        oracle = DominationOracle(rho, g_space)
        for m, l in pairs:
            got = oracle.constant(m, l)
            ys = VectorSequence(tuple(e(i) for i in l), g_space)
            fresh = domination_constant_exact(rho.subsequence(m), ys)
            assert (got.value, got.witness) == (fresh.value, fresh.witness), (m, l)

    @pytest.mark.parametrize(
        "rho, xi, depth, g_space, bracket, polytopes, row_lists",
        [
            # without the memo: 69 polytopes and 138 row lists
            (basis_sequence(L1(), 4), None, 4, C0(), (4, 4), 8, 40),
            # without the memo: 59 polytopes and 118 row lists
            (basis_sequence(X1, 7), from_int(2), 5, None, (1, 1), 8, 30),
        ],
        ids=["l1-c0", "x-s1-self"],
    )
    def test_bracket_builds_each_row_system_once(
        self, monkeypatch, rho, xi, depth, g_space, bracket, polytopes, row_lists
    ):
        counts = {"polytopes": 0, "row_lists": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(domination, "Polyhedron", counted("polytopes", Polyhedron))
        monkeypatch.setattr(domination, "_unsigned_rows", counted("row_lists", _unsigned_rows))
        result = gamma_bracket(rho, xi, depth, g_space=g_space)
        assert (result.lower, result.upper) == bracket
        assert counts["polytopes"] <= polytopes and counts["row_lists"] <= row_lists


class FreshOracle:
    """Stands in for `DominationOracle`: a fresh exact call per member."""

    def __init__(self, rho: VectorSequence, g_space):
        self.rho, self.g_space = rho, g_space

    def constant(self, m, l):
        ys = VectorSequence(tuple(e(i) for i in l), self.g_space)
        return domination_constant_exact(self.rho.subsequence(m), ys)


@st.composite
def verify_queries(draw):
    """rho and g space as in `oracle_queries`, and one index pair (M, L)
    verified at two levels, so the second verify reads the first one's
    entries."""
    rho, g_space, _ = draw(oracle_queries())
    depth = draw(st.integers(1, 4))
    m = draw(st.lists(st.integers(1, len(rho)), min_size=depth, max_size=depth, unique=True))
    l = draw(st.lists(st.integers(1, 9), min_size=depth, max_size=depth, unique=True))
    c = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
    levels = draw(
        st.lists(st.sampled_from([None, from_int(0), from_int(1), from_int(2)]), min_size=2, max_size=2)
    )
    certs = [Certificate(xi, tuple(sorted(m)), tuple(sorted(l)), c, g_space) for xi in levels]
    return rho, g_space, certs


class TestSharedTables:
    """Every `DominationOracle` on one rho object and g space shares the
    tables, which live exactly as long as rho."""

    @settings(max_examples=25, deadline=None)
    @given(verify_queries())
    def test_shared_reports_equal_fresh_calls(self, query):
        rho, g_space, certs = query
        checked = 0
        for cert in certs:
            fresh = verify_certificate(cert, rho, oracle=FreshOracle(rho, g_space))
            assert verify_certificate(cert, rho) == fresh
            checked = max(checked, fresh.checked)
        # each member checked left its pair (m, l) in the tables rho keeps
        assert len(DominationOracle(rho, g_space)._cache) >= checked

    def test_tables_outlive_the_oracle_and_die_with_rho(self):
        cert = search_certificate(basis_sequence(X1, 7), from_int(1), Fraction(1), 4).certificate
        gc.collect()
        gc.disable()
        try:
            rho = basis_sequence(X1, 7)
            assert verify_certificate(cert, rho).ok
            cache = DominationOracle(rho, X1)._cache
            assert len(cache) == verify_certificate(cert, rho).checked
            ref = weakref.ref(rho)
            del rho
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_tables_are_per_g_space(self):
        rho = basis_sequence(L1(), 3)
        assert DominationOracle(rho, C0())._cache is DominationOracle(rho, C0())._cache
        assert DominationOracle(rho, C0())._cache is not DominationOracle(rho, L1())._cache
        assert DominationOracle(rho, C0()).constant((1, 2), (1, 2)).value == 2
        assert DominationOracle(rho, L1()).constant((1, 2), (1, 2)).value == 1


class TestCertificateJson:
    def test_round_trip(self):
        cert = Certificate(from_int(2), (1, 3), (2, 4), Fraction(3, 2), X1, "rho")
        again = Certificate.loads(cert.dumps())
        assert again == cert

    def test_all_sentinel(self):
        cert = Certificate(None, (1,), (2,), Fraction(1), C0(), "r")
        data = cert.to_json()
        assert data["xi"] == "ALL"
        assert Certificate.from_json(data).xi is None

    def test_zero_constant_accepted(self):
        assert Certificate(None, (1,), (2,), Fraction(0), C0()).C == 0

    def test_negative_constant_rejected(self):
        with pytest.raises(DominationError, match="C must be nonnegative"):
            Certificate(None, (1,), (2,), Fraction(-1), C0())

    def test_depth_mismatch_rejected(self):
        cert = Certificate(None, (1,), (2,), Fraction(1), C0(), "r")
        data = cert.to_json()
        data["N"] = 5
        with pytest.raises(DominationError):
            Certificate.from_json(data)
