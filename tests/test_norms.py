import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from domcert.domination import basis_sequence, search_certificate
from domcert.families import (
    AllFinite,
    Explicit,
    Family,
    FineSchreier,
    NFold,
    Restrict,
    Schreier,
    SumFamily,
    find_order_embedding,
    members_within,
)
from domcert.norms import (
    C0,
    Baernstein,
    Combinatorial,
    L1,
    Lp,
    PConvex,
    SpaceError,
    Tsirelson,
    TsirelsonEngine,
    _check_singletons,
    _tsirelson_abs_functionals,
    absolute_functionals,
    format_space,
    norm,
    norming_functionals,
    parse_space,
    tsirelson_norm,
)
from domcert.ordinals import from_int, omega_power
from domcert.rationals import Mag
from domcert.vectors import Vector

S1 = Schreier(from_int(1))
X1 = Combinatorial(S1)
T12 = Tsirelson(from_int(1), Fraction(1, 2))

SPACES = [X1, C0(), L1(), Lp(2), T12, Baernstein(from_int(1), 2), PConvex(X1, 2)]


def rational_vectors(max_index=6):
    return st.dictionaries(
        st.integers(1, max_index),
        st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4),
        max_size=4,
    ).map(Vector.of)


class TestNormExamples:
    def test_combinatorial_schreier(self):
        assert norm(X1, Vector.of({1: 1, 2: 1, 3: 1})) == Fraction(2)

    def test_c0_unit(self):
        assert norm(C0(), Vector.basis(7)) == 1

    def test_baernstein(self):
        value = norm(Baernstein(from_int(1), 2), Vector.of({2: 1, 3: 1}))
        assert value == Fraction(2)  # one block {2,3}, power 4

    def test_pconvex(self):
        value = norm(PConvex(X1, 2), Vector.of({2: 1, 3: 1}))
        assert value.power == Fraction(2) and value.root == 2

    def test_zero_vector(self):
        for space in SPACES:
            assert norm(space, Vector()) == 0

    def test_combinatorial_requires_singletons(self):
        from domcert.families import Explicit

        gappy = Combinatorial(Explicit(frozenset({(), (2,)})))
        with pytest.raises(SpaceError):
            norm(gappy, Vector.basis(1))


class TestTsirelson:
    def test_unit(self):
        assert tsirelson_norm(from_int(1), Fraction(1, 2), Vector.basis(1)) == 1

    def test_three_singletons(self):
        x = Vector.of({3: 1, 4: 1, 5: 1})
        assert tsirelson_norm(from_int(1), Fraction(1, 2), x) == Fraction(3, 2)

    def test_pair(self):
        x = Vector.of({2: 1, 3: 1})
        assert tsirelson_norm(from_int(1), Fraction(1, 2), x) == 1

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(10):
            supp = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
            x = Vector.of(
                {i: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in supp}
            )
            if x.is_zero:
                continue
            engine = TsirelsonEngine(from_int(1), Fraction(1, 2), x)
            engine.norm()
            assert engine.check_idempotent()

    def test_block_lower_estimate(self):
        # |sum_{n in F} a_n x_n| >= theta * sum |a_n| for Schreier F
        blocks = [Vector.of({1: 1, 2: 1}), Vector.basis(3), Vector.of({4: 2, 5: 1})]
        blocks = [
            b.scale(1 / tsirelson_norm(from_int(1), Fraction(1, 2), b))
            for b in blocks
        ]
        for f in [(2,), (2, 3), (3,)]:
            for a in itertools.product((1, -1, 2), repeat=len(f)):
                x = Vector()
                for i, c in zip(f, a):
                    x = x + blocks[i - 1].scale(Fraction(c))
                value = tsirelson_norm(from_int(1), Fraction(1, 2), x)
                target = Fraction(1, 2) * sum(abs(Fraction(c)) for c in a)
                assert value >= target

    def test_interval_endpoints_immaterial(self):
        # systems over support-aligned intervals match brute enumeration
        # over arbitrary integer endpoints on a small instance
        theta = Fraction(1, 2)
        x = Vector.of({2: 1, 3: Fraction(1, 2), 5: 1})
        got = tsirelson_norm(from_int(1), theta, x)

        values: dict[tuple[int, int], Fraction] = {}

        def brute(lo: int, hi: int) -> Fraction:
            pts = [i for i in (2, 3, 5) if lo <= i <= hi]
            if not pts:
                return Fraction(0)
            if (lo, hi) in values:
                return values[(lo, hi)]
            best = max(abs(x.coeff(i)) for i in pts)
            # all systems of disjoint integer intervals inside [lo, hi]
            def systems(start, mins):
                nonlocal best
                if len(mins) >= 2 and Schreier(from_int(1)).member(mins):
                    pass
                for a in range(start, hi + 1):
                    for b in range(a, hi + 1):
                        new_mins = mins + (a,)
                        if not Schreier(from_int(1)).member(new_mins):
                            continue
                        yield from (
                            (sys + [(a, b)])
                            for sys in systems(b + 1, new_mins)
                        )
                yield []

            for sys in systems(lo, ()):
                if len(sys) >= 2:
                    total = sum(brute(a, b) for a, b in sys)
                    cand = theta * total
                    if cand > best:
                        best = cand
            values[(lo, hi)] = best
            return best

        assert got == brute(1, 6)


class TestNormAxioms:
    @given(rational_vectors(), rational_vectors())
    @settings(max_examples=25, deadline=None)
    def test_triangle_and_homogeneity(self, x, y):
        for space in [X1, C0(), L1(), T12]:
            nx, ny, nxy = norm(space, x), norm(space, y), norm(space, x + y)
            assert (nxy.as_fraction() <= nx.as_fraction() + ny.as_fraction())
            assert norm(space, x.scale(Fraction(-3, 2))) == Mag.of(
                Fraction(3, 2)
            ) * nx

    @given(rational_vectors())
    @settings(max_examples=25, deadline=None)
    def test_unconditional_and_lower_bound(self, x):
        flipped = Vector(tuple((i, -c if i % 2 else c) for i, c in x.entries))
        for space in SPACES:
            assert norm(space, x) == norm(space, flipped)
            assert norm(space, x) >= Mag.of(x.max_abs())


class TestNormingFunctionals:
    def test_schreier_signed_indicators(self):
        phis = norming_functionals(X1, (1, 2, 3))
        supports = {phi.support for phi in phis}
        assert supports == {(), (1,), (2,), (3,), (2, 3)}

    def test_c0(self):
        phis = norming_functionals(C0(), (1, 2))
        assert {str(p) for p in phis} == {"1*e1", "-1*e1", "1*e2", "-1*e2"}

    def test_tsirelson_singleton(self):
        phis = norming_functionals(T12, (1,))
        assert {str(p) for p in phis} == {"1*e1", "-1*e1"}

    def test_not_polyhedral(self):
        with pytest.raises(SpaceError):
            norming_functionals(Baernstein(from_int(1), 2), (1, 2))
        with pytest.raises(SpaceError):
            norming_functionals(Lp(2), (1,))

    @pytest.mark.parametrize("space", [X1, C0(), L1(), T12])
    def test_consistency_with_norm(self, space):
        rng = random.Random(11)
        for _ in range(200):
            supp = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
            x = Vector.of(
                {i: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for i in supp}
            )
            if x.is_zero:
                continue
            phis = norming_functionals(space, x.support)
            assert Mag.of(max(abs(p.dot(x)) for p in phis)) == norm(space, x)


def oracle_norming_functionals(space, support):
    """Every sign pattern spelled out per space, as the enumeration stood
    before it was derived from the absolute functionals."""
    support = tuple(support)
    if isinstance(space, C0):
        return [Vector.basis(i, s) for i in support for s in (1, -1)]
    if isinstance(space, L1) or (isinstance(space, Lp) and space.p == 1):
        return [
            Vector.of({i: s for i, s in zip(support, signs)})
            for signs in itertools.product((1, -1), repeat=len(support))
        ]

    def signed(f, coeffs):
        for signs in itertools.product((1, -1), repeat=len(f)):
            yield Vector.of({i: s * coeffs[i] for i, s in zip(f, signs)})

    out = []
    if isinstance(space, Combinatorial):
        _check_singletons(space.fam, support)
        ones = {i: Fraction(1) for i in support}
        out.append(Vector())
        for f in members_within(space.fam, support):
            if f:
                out.extend(signed(f, ones))
        return out
    assert isinstance(space, Tsirelson)
    for base in _tsirelson_abs_functionals(space, support):
        out.extend(signed(base.support, dict(base.entries)))
    return out


DIFFERENTIAL_SPACES = [
    "C0", "L1", "LP(1)", "X[F[0]]", "X[F[1]]", "X[F[2]]", "X[S[1]]", "X[S[2]]",
    "X[ALL]", "X[SUM(1;2)]", "X[NFOLD(S[1];2)]", "TSIRELSON(1;1/2)",
]


class TestAbsoluteFunctionals:
    @pytest.mark.parametrize("text", DIFFERENTIAL_SPACES)
    @pytest.mark.parametrize("support", [(), (1,), (1, 2, 3, 4, 5), (2, 3, 5, 7, 8)])
    def test_signed_expansion_matches_oracle(self, text, support):
        space = parse_space(text)
        try:
            expected = oracle_norming_functionals(space, support)
        except SpaceError:
            # F[0] misses every singleton
            with pytest.raises(SpaceError):
                norming_functionals(space, support)
            with pytest.raises(SpaceError):
                absolute_functionals(space, support)
            return
        assert norming_functionals(space, support) == expected
        # the absolute functionals are the |phi| in first-occurrence order
        first_seen = dict.fromkeys(
            Vector(tuple((i, abs(c)) for i, c in phi.entries)) for phi in expected
        )
        assert absolute_functionals(space, support) == list(first_seen)

    def test_one_absolute_functional_per_member(self):
        phis = absolute_functionals(X1, (1, 2, 3))
        assert [phi.support for phi in phis] == [(), (1,), (2,), (2, 3), (3,)]
        assert all(c == 1 for phi in phis for _, c in phi.entries)


class TestSpaceGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "X[S[1]]",
            "PCONV(X[S[1]];2)",
            "BAERNSTEIN(1;2)",
            "TSIRELSON(1;1/2)",
            "C0",
            "L1",
            "LP(2)",
        ],
    )
    def test_round_trip(self, text):
        assert format_space(parse_space(text)) == text

    def test_parameter_validation(self):
        with pytest.raises(SpaceError):
            Tsirelson(from_int(1), Fraction(3, 2))
        with pytest.raises(SpaceError):
            Baernstein(from_int(1), 1)
        with pytest.raises(SpaceError):
            parse_space("LP(0)")


def test_baernstein_brute_oracle():
    """DP agrees with brute-force enumeration of block systems."""
    space = Baernstein(from_int(1), 2)
    rng = random.Random(5)
    for _ in range(15):
        supp = sorted(rng.sample(range(1, 8), rng.randint(1, 5)))
        x = Vector.of({i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in supp})
        if x.is_zero:
            continue
        support = x.support

        best = Fraction(0)

        def consecutive_partitions(rest):
            if not rest:
                yield []
                return
            # first block takes any subset containing nothing before it
            items = list(rest)
            n = len(items)
            for mask in range(1, 1 << n):
                block = tuple(items[i] for i in range(n) if mask >> i & 1)
                remaining = [v for v in items if v > block[-1]]
                for tail in consecutive_partitions(tuple(remaining)):
                    yield [block] + tail

        for parts in consecutive_partitions(support):
            if not all(S1.member(b) for b in parts):
                continue
            total = sum(
                (sum(abs(x.coeff(i)) for i in b) ** 2 for b in parts), Fraction(0)
            )
            best = max(best, total)
        assert norm(space, x) == Mag(best, 2)


def brute_baernstein_power(fam, p, x):
    """Largest sum of |F_i x|_1**p over block systems F_1 < F_2 < ... of
    members of fam, trying every subset of the support as the first block."""

    def best(rest):
        value = Fraction(0)
        for r in range(1, len(rest) + 1):
            for block in itertools.combinations(rest, r):
                if fam.member(block):
                    mass = sum(abs(x.coeff(i)) for i in block)
                    later = tuple(v for v in rest if v > block[-1])
                    value = max(value, mass**p + best(later))
        return value

    return best(x.support)


@pytest.mark.parametrize("xi", [0, 2])
def test_baernstein_brute_oracle_cubed(xi):
    space = Baernstein(from_int(xi), 3)
    rng = random.Random(7 + xi)
    for _ in range(15):
        supp = sorted(rng.sample(range(1, 9), rng.randint(1, 6)))
        x = Vector.of({i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in supp})
        if x.is_zero:
            continue
        assert norm(space, x) == Mag(brute_baernstein_power(Schreier(from_int(xi)), 3, x), 3)


below_omega_squared = st.builds(
    lambda a, b: omega_power(from_int(1), a) + b if a else from_int(b),
    st.integers(0, 2),
    st.integers(0, 3),
)
# F[0] and SUM(0;0) miss the singletons, which the X[fam] norm requires
positive_below_omega_squared = below_omega_squared.filter(lambda xi: not xi.is_zero)
schreier_families = st.one_of(
    st.builds(FineSchreier, positive_below_omega_squared),
    st.builds(Schreier, below_omega_squared),
)
grammar_families = st.one_of(
    schreier_families,
    st.just(AllFinite()),
    st.builds(SumFamily, positive_below_omega_squared, below_omega_squared),
    st.builds(NFold, schreier_families, st.integers(1, 3)),
)
nonzero_coefficients = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
).filter(bool)


@st.composite
def families_with_vectors(draw):
    """A family of the grammar, RESTRICTed half the time, and a nonzero
    signed vector of up to 10 points on which it contains every singleton."""
    fam = draw(grammar_families)
    pool = list(range(1, 15))
    if draw(st.booleans()):
        pool = sorted(draw(st.lists(st.integers(1, 14), unique=True, min_size=1, max_size=10)))
        fam = Restrict(fam, tuple(pool))
    coeffs = draw(st.dictionaries(st.sampled_from(pool), nonzero_coefficients, min_size=1, max_size=10))
    return fam, Vector.of(coeffs)


class TestPrunedWalks:
    @given(families_with_vectors())
    @settings(max_examples=120, deadline=None)
    def test_combinatorial_norm_is_the_largest_member_mass(self, drawn):
        fam, x = drawn
        masses = [sum(abs(x.coeff(i)) for i in f) for f in members_within(fam, x.support)]
        assert norm(Combinatorial(fam), x) == Mag.of(max(masses))

    def test_explicit_family_is_filtered_not_walked(self):
        # (1, 2) is missing, so a walk over prefixes would stop at singletons
        fam = Explicit(frozenset({(1,), (2,), (3,), (1, 2, 3)}))
        assert norm(Combinatorial(fam), Vector.of({1: 1, 2: 1, 3: 1})) == Fraction(3)

    # c_i = +-((7i mod 5) + 1) / ((i mod 3) + 1), negative for i = 0 mod 4
    COUNTED = Vector.of(
        {i: (-1 if i % 4 == 0 else 1) * Fraction(7 * i % 5 + 1, i % 3 + 1) for i in range(1, 13)}
    )

    @pytest.mark.parametrize(
        "text, value, bound",
        [
            # the unpruned walks made 35 359, 1 962 and 608 membership calls
            ("X[NFOLD(S[1];3)]", Mag.of(Fraction(68, 3)), 4_000),
            ("X[S[2]]", Mag.of(Fraction(21)), 250),
            ("BAERNSTEIN(1;2)", Mag(Fraction(1711, 6), 2), 150),
        ],
    )
    def test_pruning_bounds_membership_calls(self, monkeypatch, text, value, bound):
        calls = 0
        member = Family.member

        def counting(fam, f):
            nonlocal calls
            calls += 1
            return member(fam, f)

        monkeypatch.setattr(Family, "member", counting)
        assert norm(parse_space(text), self.COUNTED) == value
        assert calls <= bound

    def test_walks_leave_no_cyclic_garbage(self):
        starts = itertools.count(100, 10)  # new sets miss the membership caches

        def new_set():
            k = next(starts)
            return (k, k + 1, k + 3, 2 * k, 2 * k + 2, 3 * k)

        seven = Vector.of(dict(self.COUNTED.entries[:7]))
        rho = lambda: basis_sequence(X1, 7)  # a new rho, with new domination tables
        walks = {
            "members_within": lambda: members_within(S1, tuple(range(1, 8))),
            "X[fam] norm": lambda: norm(parse_space("X[S[2]]"), self.COUNTED),
            "Baernstein table": lambda: norm(Baernstein(from_int(1), 2), self.COUNTED),
            "NFOLD membership": lambda: NFold(S1, 3).member(new_set()),
            "S[2] membership": lambda: Schreier(from_int(2)).member(new_set()),
            "Tsirelson engine": lambda: TsirelsonEngine(T12.xi, T12.theta, seven).check_idempotent(),
            "Tsirelson closure": lambda: absolute_functionals(T12, (30, 31, 33, 34)),
            "certificate search": lambda: search_certificate(rho(), from_int(1), Fraction(1), 4),
            "order embedding": lambda: find_order_embedding(S1, Schreier(from_int(2)), 5),
        }
        for walk in walks.values():
            walk()  # first fills of the membership caches run the greedy block splits
        gc.collect()
        gc.disable()
        try:
            for name, walk in walks.items():
                walk()
                assert gc.collect() == 0, name
        finally:
            gc.enable()


def interval_systems(fam, supp, start, j, lows=()):
    """Admissible systems of position intervals in [start..j] after the
    chosen lows, by plain recursion: lows form a member of fam, and each
    interval starts after the one before."""
    for a in range(start, j + 1):
        new_lows = lows + (supp[a],)
        if fam.member(new_lows):
            for b in range(a, j + 1):
                yield [(a, b)]
                for rest in interval_systems(fam, supp, b + 1, j, new_lows):
                    yield [(a, b)] + rest


def defining_operator(fam, theta, x, value, i, j, min_parts):
    """max(sup norm, theta * best sum of values over admissible systems of at
    least min_parts intervals) on positions [i..j]."""
    supp = x.support
    best = max(abs(x.coeff(supp[k])) for k in range(i, j + 1))
    for system in interval_systems(fam, supp, i, j):
        if len(system) >= min_parts:
            best = max(best, theta * sum(value(a, b) for a, b in system))
    return best


def recursive_tsirelson(fam, theta, x):
    """The Tsirelson value table of x as a plain memoized recursion."""
    table = {}

    def value(i, j):
        if (i, j) not in table:
            table[(i, j)] = defining_operator(fam, theta, x, value, i, j, 2)
        return table[(i, j)]

    return value, table


def build_closure(space, support):
    """The closure of `_tsirelson_abs_functionals` as a self-recursive
    search that tests the lows once per part, as an oracle."""
    fam = Schreier(space.xi, space.q)
    kept = {Vector.basis(i) for i in support}
    frontier = set(kept)
    while frontier:
        by_min = sorted(kept, key=lambda v: (v.support[0], v.support[-1]))
        fresh = set()

        def build(parts, mins, last_max, used_new):
            if len(parts) >= 2 and used_new:
                total = Vector()
                for p in parts:
                    total = total + p
                cand = total.scale(space.theta)
                if cand not in kept:
                    fresh.add(cand)
            for v in by_min:
                lo = v.support[0]
                if lo <= last_max:
                    continue
                new_mins = mins + (lo,)
                if not fam.member(new_mins):
                    continue
                build(parts + [v], new_mins, v.support[-1], used_new or v in frontier)

        build([], (), 0, False)
        kept |= fresh
        frontier = fresh
    return sorted(kept, key=lambda v: (len(v.entries), v.entries))


tsirelson_params = st.tuples(
    st.sampled_from([0, 1, 2]), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
)


class TestAdmissibleSystemWalk:
    @given(
        tsirelson_params,
        st.dictionaries(st.integers(1, 12), nonzero_coefficients, min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_engine_matches_recursive_definition(self, params, x, data):
        xi, theta = params
        x = Vector.of(x)
        fam = Schreier(from_int(xi))
        value, table = recursive_tsirelson(fam, theta, x)
        engine = TsirelsonEngine(from_int(xi), theta, x)
        top = value(0, len(x.support) - 1)
        assert engine.norm() == tsirelson_norm(from_int(xi), theta, x) == top
        assert engine._value == table
        # the replay is the operator once more, with single systems allowed:
        # a fixed point passes, a table with one value moved may not
        (i, j), v = data.draw(st.sampled_from(sorted(table.items())))
        v += data.draw(st.sampled_from([0, 1, Fraction(-1, 7)]))
        engine._value[(i, j)] = table[(i, j)] = v
        replay = all(
            defining_operator(fam, theta, x, value, a, b, 1) == w
            for (a, b), w in list(table.items())
        )
        assert engine.check_idempotent() == replay

    @given(
        tsirelson_params,
        st.lists(st.integers(1, 10), unique=True, max_size=5).map(lambda s: tuple(sorted(s))),
    )
    @settings(max_examples=40, deadline=None)
    def test_functionals_match_recursive_closure(self, params, support):
        space = Tsirelson(from_int(params[0]), params[1])
        assert _tsirelson_abs_functionals(space, support) == build_closure(space, support)

    # on six points the recursive oracle takes seconds, so two fixed supports
    @pytest.mark.parametrize(
        "space, support",
        [(T12, (2, 3, 4, 5, 6, 7)),
         (Tsirelson(from_int(1), Fraction(1, 3)), (2, 4, 6, 8, 9, 10))],
    )
    def test_six_point_functionals_match_recursive_closure(self, space, support):
        assert _tsirelson_abs_functionals(space, support) == build_closure(space, support)

    def test_closure_tests_each_set_of_lows_once(self, monkeypatch):
        # the closure that tested the lows once per part made 19 395 calls
        calls = 0
        member = Family.member

        def counting(fam, f):
            nonlocal calls
            calls += 1
            return member(fam, f)

        monkeypatch.setattr(Family, "member", counting)
        functionals = absolute_functionals(T12, tuple(range(2, 9)))
        assert len(functionals) == 1904
        assert calls <= 6_000
