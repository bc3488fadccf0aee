import itertools
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from domcert.families import (
    AllFinite,
    BudgetError,
    Explicit,
    FamilyError,
    FineSchreier,
    NFold,
    QSchedule,
    Restrict,
    Schreier,
    SumFamily,
    _fine_member,
    _increasing_search,
    _level,
    _schreier_member,
    almost_monotone_witness,
    as_finset,
    check_regular,
    enumerate_family,
    find_order_embedding,
    is_spread_of,
    maximal_members,
    members_within,
    parse_family,
    rank_restricted,
)
from domcert.oracles import _splits, oracle_fine_member, oracle_schreier_member
from domcert.ordinals import OMEGA, OrdinalError, from_int, parse_ordinal

S1 = Schreier(from_int(1))

finsets = st.lists(st.integers(1, 10), unique=True, max_size=6).map(
    lambda xs: tuple(sorted(xs))
)


class TestMember:
    def test_fine_two_accepts_singleton(self):
        assert FineSchreier(from_int(2)).member((5,))

    def test_schreier_one(self):
        assert S1.member((2, 3))
        assert not S1.member((1, 2))

    def test_all_finite(self):
        assert AllFinite().member((1, 5, 9, 40))

    def test_empty_everywhere(self):
        for fam in [FineSchreier(from_int(0)), S1, SumFamily(from_int(1), from_int(2))]:
            assert fam.member(())

    @given(finsets)
    @settings(max_examples=60)
    def test_matches_fine_oracle(self, f):
        for xi in [from_int(0), from_int(2), OMEGA, parse_ordinal("w*2"), parse_ordinal("w^2")]:
            assert FineSchreier(xi).member(f) == oracle_fine_member(xi, f)

    @given(finsets)
    @settings(max_examples=60)
    def test_matches_schreier_oracle(self, f):
        for xi in [from_int(0), from_int(1), from_int(2)]:
            assert Schreier(xi).member(f) == oracle_schreier_member(xi, f)

    # the levels below w^w that the workloads reach, on sets with points up to 40
    LEVELS = [parse_ordinal(t) for t in ("0", "3", "w", "w+1", "w+2", "w*2", "w*2+3", "w^2", "w^2+w+1")]
    wide_finsets = st.lists(st.integers(1, 40), unique=True, max_size=6).map(
        lambda xs: tuple(sorted(xs))
    )

    @given(wide_finsets)
    @settings(max_examples=200)
    def test_fine_levels_match_oracle(self, f):
        for xi in self.LEVELS:
            assert FineSchreier(xi).member(f) == oracle_fine_member(xi, f), xi

    @given(wide_finsets)
    @settings(max_examples=200)
    def test_schreier_levels_match_oracle(self, f):
        for xi in self.LEVELS:
            assert Schreier(xi).member(f) == oracle_schreier_member(xi, f), xi

    @staticmethod
    def oracle_sum(zeta, xi, f):
        """Brute: every cut of f into G in F[xi] below F in F[zeta]."""
        return any(
            oracle_fine_member(xi, f[:i]) and oracle_fine_member(zeta, f[i:])
            for i in range(len(f) + 1)
        )

    @given(wide_finsets)
    @settings(max_examples=100)
    def test_sum_matches_cut_oracle(self, f):
        for zeta, xi in [("1", "2"), ("w", "1"), ("1", "w"), ("w+1", "w*2"), ("w^2", "3")]:
            zeta, xi = parse_ordinal(zeta), parse_ordinal(xi)
            assert SumFamily(zeta, xi).member(f) == self.oracle_sum(zeta, xi, f), (zeta, xi)

    NFOLD_BASES = {
        "F[0]": lambda f: oracle_fine_member(from_int(0), f),
        "F[1]": lambda f: oracle_fine_member(from_int(1), f),
        "S[1]": lambda f: oracle_schreier_member(from_int(1), f),
        "S[2]": lambda f: oracle_schreier_member(from_int(2), f),
        "SUM(1;2)": lambda f: TestMember.oracle_sum(from_int(1), from_int(2), f),
    }

    @given(wide_finsets)
    @settings(max_examples=100)
    def test_nfold_matches_split_oracle(self, f):
        # brute: every split into at most n consecutive nonempty pieces
        for text, base in self.NFOLD_BASES.items():
            for n in (1, 2, 3):
                expected = not f or any(
                    all(base(piece) for piece in pieces)
                    for t in range(1, min(n, len(f)) + 1)
                    for pieces in _splits(f, t)
                )
                assert NFold(parse_family(text), n).member(f) == expected, (text, n)

    def test_nfold_rejects_a_base_without_end_deletions(self):
        # (1, 2, 3) but none of its pairs: a greedy split would stop at (1,)
        literal = Explicit(frozenset({(1, 2, 3), (1,), (2,), (3,)}))
        for base in (literal, Restrict(literal, (1, 2, 3, 4))):
            with pytest.raises(FamilyError, match=r"\(1, 2, 3\) is a member, \(2, 3\) is not"):
                NFold(base, 1)
        closed = Explicit(frozenset({(1, 3), (1,), (3,)}))  # the empty set is not needed
        assert NFold(closed, 2).member((1, 3)) and not NFold(closed, 2).member((1, 2))

    @pytest.mark.parametrize(
        "base",
        [
            # not hereditary, as (1, 3) is missing, but closed under end deletions
            Explicit(frozenset({(1, 2, 3), (1, 2), (2, 3), (1,), (2,), (3,)})),
            # the members that break the rule lie outside the stream prefix
            Restrict(Explicit(frozenset({(1, 2), (1,), (2,), (5, 6, 7)})), (1, 2, 3, 4)),
        ],
    )
    def test_nfold_accepts_a_base_closed_under_end_deletions(self, base):
        subsets = [f for r in range(5) for f in itertools.combinations(range(1, 5), r)]
        for n, f in itertools.product((1, 2), subsets):
            expected = not f or any(
                all(base.member(piece) for piece in pieces)
                for t in range(1, min(n, len(f)) + 1)
                for pieces in _splits(f, t)
            )
            assert NFold(base, n).member(f) == expected, (n, f)

    def test_omega_schedule(self):
        fast = FineSchreier(OMEGA, QSchedule(slope=2))
        # q_n = 2n: {3,5,7} has |F| = 3 <= q_2 = 4 with witness n = 2 <= 3
        assert fast.member((3, 5, 7))
        assert fast.member((2, 5, 6, 7))  # |F| = 4 <= q_2 = 4
        assert not fast.member((1, 2, 3))


class TestLevels:
    """Each (xi, q) level is one node, shared by F[xi] and S[xi]."""

    @staticmethod
    def fresh():
        for cache in (_fine_member, _schreier_member, _level):
            cache.cache_clear()

    def test_equal_ordinals_share_a_node(self):
        a, b = parse_ordinal("w*2+3"), parse_ordinal("w*2+3")
        assert a is not b and _level(a, QSchedule()) is _level(b, QSchedule())
        assert FineSchreier(a)._node is Schreier(b)._node
        assert _level(a, QSchedule(slope=2)) is not _level(a, QSchedule())

    @pytest.mark.parametrize("order", [("slope-2", "default"), ("default", "slope-2")])
    def test_schedules_at_omega_answer_apart(self, order):
        # q_n = 2n: (2,3,4,5) has |F| = 4 <= q_2; q_n = n allows at most 2 points
        self.fresh()
        fams = {"slope-2": FineSchreier(OMEGA, QSchedule(slope=2)), "default": FineSchreier(OMEGA)}
        assert [fams[name].member((2, 3, 4, 5)) for name in order] == [n == "slope-2" for n in order]

    QUERIES = {"F": (FineSchreier, oracle_fine_member), "S": (Schreier, oracle_schreier_member)}
    SETS = [f for r in range(1, 6) for f in itertools.combinations(range(1, 8), r)]

    @pytest.mark.parametrize("order", ["FS", "SF"])
    def test_interleaved_fine_and_schreier_match_oracles(self, order):
        # at xi = lam + k with k >= 2, F peels to lam while S's blocks are S[xi - 1]
        self.fresh()
        for f in self.SETS:
            for xi in map(parse_ordinal, ("3", "w+2", "w*2+3")):
                for family, oracle in map(self.QUERIES.get, order):
                    assert family(xi).member(f) == oracle(xi, f), (family.__name__, xi, f)

    def test_invalid_later_schedule_value_is_not_reached(self):
        # q(1) = 2 decides (2, 3); q(2) = -1 is no ordinal and is never built
        fam = FineSchreier(OMEGA, QSchedule(prefix=(2, -1)))
        assert fam.member((2, 3)) and fam.member((2, 3))
        stuck = FineSchreier(OMEGA, QSchedule(prefix=(1, -1)))
        for _ in range(2):  # q(1) = 1 does not decide, and q(2) raises each time
            with pytest.raises(OrdinalError):
                stuck.member((2, 3))


class TestEnumerate:
    def test_fine_one(self):
        assert enumerate_family(FineSchreier(from_int(1)), 2) == [(), (1,), (2,)]

    def test_schreier_one(self):
        assert enumerate_family(S1, 3) == [(), (1,), (2,), (3,), (2, 3)]

    def test_fine_zero(self):
        assert enumerate_family(FineSchreier(from_int(0)), 5) == [()]

    def test_bound(self):
        with pytest.raises(BudgetError):
            enumerate_family(S1, 25)

    @given(finsets)
    @settings(max_examples=40)
    def test_consistent_with_member(self, f):
        members = set(enumerate_family(S1, 10))
        assert (f in members) == S1.member(f)

    def test_maximal_members(self):
        assert maximal_members(S1, 4) == [(1,), (2, 3), (2, 4), (3, 4)]


universes = st.lists(st.integers(1, 12), unique=True, max_size=12).map(
    lambda xs: tuple(sorted(xs))
)
literals = st.frozensets(
    st.lists(st.integers(1, 12), unique=True, max_size=4).map(lambda xs: tuple(sorted(xs))),
    max_size=12,
)
WALKED = [
    "F[0]", "F[1]", "F[2]", "F[3]", "F[w]", "S[0]", "S[1]", "S[2]", "SUM(1;2)",
    "NFOLD(S[0];2)", "NFOLD(F[1];3)", "RESTRICT(S[1];1,3,4,6,7,9,10,12)",
]


def brute_members(fam, universe):
    """Every subset of the universe that fam accepts, by a filter."""
    return {
        f
        for r in range(len(universe) + 1)
        for f in itertools.combinations(universe, r)
        if fam.member(f)
    }


class TestWalk:
    @pytest.mark.parametrize("text", WALKED)
    @given(universe=universes)
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_filter_in_dfs_order(self, text, universe):
        fam = parse_family(text)
        walked = members_within(fam, universe)
        # depth first with increasing extensions is lexicographic tuple order,
        # in which a prefix precedes its extensions
        assert walked == sorted(brute_members(fam, universe))
        # one membership test per extension of a member by a later point
        tests = sum(len([u for u in universe if not f or u > f[-1]]) for f in walked)
        assert members_within(fam, universe, tests) == walked
        if tests:
            with pytest.raises(BudgetError):
                members_within(fam, universe, tests - 1)

    @pytest.mark.parametrize("fam", [S1, parse_family("RESTRICT(S[1];2,3,5,7)"), Explicit()])
    def test_universe_that_is_not_a_set_raises_before_the_walk(self, fam):
        # only the S[1] walk ever tests a candidate holding the pair (4, 1)
        with pytest.raises(FamilyError, match="strictly increasing"):
            members_within(fam, (4, 1))

    @given(literals, universes)
    @settings(max_examples=60, deadline=None)
    def test_explicit_filtered_in_size_lex_order(self, members, universe):
        fam = Explicit(members)
        expected = sorted(brute_members(fam, universe), key=lambda t: (len(t), t))
        assert members_within(fam, universe, 0) == expected

    @given(literals, st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_is_the_sorted_walk_over_1_to_n(self, members, n):
        for fam in (Explicit(members), S1, parse_family("NFOLD(F[1];2)")):
            expected = brute_members(fam, tuple(range(1, n + 1)))
            assert enumerate_family(fam, n) == sorted(expected, key=lambda t: (len(t), t))


class TestSpread:
    def test_examples(self):
        assert is_spread_of((2, 5), (1, 3))
        assert not is_spread_of((1, 3), (2, 5))
        assert is_spread_of((), ())

    @given(finsets, st.integers(0, 3))
    @settings(max_examples=60)
    def test_spreading_and_hereditary(self, f, bump):
        fams = [S1, FineSchreier(from_int(3)), SumFamily(from_int(1), from_int(1))]
        for fam in fams:
            if not fam.member(f):
                continue
            for g in itertools.combinations(f, max(len(f) - 1, 0)):
                assert fam.member(g)
            spread = tuple(v + bump for v in f)
            assert fam.member(spread)


class TestRegularity:
    @pytest.mark.parametrize(
        "text",
        ["F[2]", "F[w]", "S[1]", "S[2]", "ALL", "SUM(1;2)", "NFOLD(S[1];2)"],
    )
    def test_constructors_regular(self, text):
        assert check_regular(parse_family(text), 8).ok

    @pytest.mark.parametrize(
        "bad",
        [(0,), (3, 2), (2, 2), (-1, 4), ("1",), (1.0,), frozenset({1})],
    )
    def test_explicit_rejects_malformed_members(self, bad):
        # a member that is not an increasing tuple of positive integers used
        # to build, then leak into enumerate_family and rank_restricted
        with pytest.raises(FamilyError):
            Explicit(frozenset({(), bad}))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((3, 0), "positive integers"),
            ((0, 1), "positive integers"),
            ((2, 5, 4), "strictly increasing"),
            ((1, 1), "strictly increasing"),
        ],
    )
    def test_explicit_names_the_first_broken_rule(self, bad, message):
        # (3, 0) breaks both rules; positivity is reported first, as
        # `as_finset` reports it
        with pytest.raises(FamilyError, match=message):
            Explicit(frozenset({(), bad}))

    def test_explicit_accepts_literals(self):
        fam = Explicit(frozenset({(), (1,), (2, 5), (1, 3, 4)}))
        assert enumerate_family(fam, 5) == [(), (1,), (2, 5), (1, 3, 4)]
        assert Explicit().members == frozenset()

    def test_explicit_violation(self):
        bad = Explicit(frozenset({(), (1, 2)}))
        report = check_regular(bad, 3)
        assert not report.hereditary_ok
        big, missing = report.counterexample
        assert big == (1, 2) and len(missing) == 1


class TestRank:
    def test_fine_examples(self):
        assert rank_restricted(FineSchreier(from_int(3)), 10) == 4
        assert rank_restricted(FineSchreier(from_int(0)), 10) == 1

    def test_schreier_example(self):
        assert rank_restricted(S1, 4) == 3

    @pytest.mark.parametrize("k", range(7))
    def test_fine_rank_formula(self, k):
        assert rank_restricted(FineSchreier(from_int(k)), 8 if k <= 5 else 10) == k + 1

    def test_schreier_rank_non_decreasing(self):
        ranks = [rank_restricted(S1, n) for n in range(2, 13)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] > ranks[0]

    def test_longest_chain_oracle(self):
        # rank of a prefix-closed tree is one more than its longest member
        for n in range(2, 9):
            members = enumerate_family(S1, n)
            assert rank_restricted(S1, n) == max(len(f) for f in members) + 1


def peeled_rank(fam, n):
    """Rank of fam | {1..n} by derivation: complete the members to their
    prefix closure, then remove the maximal nodes until nothing is left."""
    tree = set(enumerate_family(fam, n))
    for f in list(tree):
        for i in range(len(f)):
            tree.add(f[:i])
    steps = 0
    while tree:
        maximal = {
            t
            for t in tree
            if not any(t + (x,) in tree for x in range(t[-1] + 1 if t else 1, n + 1))
        }
        tree -= maximal
        steps += 1
    return steps


class TestRankOracle:
    @pytest.mark.parametrize("text", WALKED + ["ALL"])
    def test_named_families(self, text):
        for n in (1, 4, 8):
            assert rank_restricted(parse_family(text), n) == peeled_rank(parse_family(text), n)

    # literals reach above n, need not hold () or be hereditary, and may be empty
    @given(
        st.frozensets(
            st.lists(st.integers(1, 14), unique=True, max_size=5).map(
                lambda xs: tuple(sorted(xs))
            ),
            max_size=8,
        ),
        st.integers(1, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_explicit_literals(self, members, n):
        fam = Explicit(members)
        assert rank_restricted(fam, n) == peeled_rank(fam, n)

    def test_edge_literals(self):
        assert rank_restricted(Explicit(frozenset()), 5) == 0
        assert rank_restricted(Explicit(frozenset({(3, 9)})), 5) == 0
        assert rank_restricted(Explicit(frozenset({(1, 2, 4)})), 5) == 4


class TestAlmostMonotone:
    def test_examples(self):
        assert almost_monotone_witness(from_int(1), from_int(2), 10) == 0
        assert almost_monotone_witness(from_int(0), from_int(1), 10) == 0

    def test_omega_default_schedule(self):
        # with q_n = n the pair {1,2} lies in F[2] but not F[w], so l = 1
        assert almost_monotone_witness(from_int(2), OMEGA, 10) == 1

    def test_soundness(self):
        for zeta, xi in [(from_int(1), from_int(3)), (from_int(2), OMEGA)]:
            l = almost_monotone_witness(zeta, xi, 8)
            small, big = FineSchreier(zeta), (
                FineSchreier(xi) if xi is not None else AllFinite()
            )
            for f in enumerate_family(small, 8):
                if f and f[0] > l:
                    assert big.member(f)

    def test_requires_order(self):
        with pytest.raises(FamilyError):
            almost_monotone_witness(from_int(2), from_int(2), 8)


class TestEmbedding:
    def test_omega_into_schreier_identity(self):
        res = find_order_embedding(FineSchreier(OMEGA), S1, 8)
        assert res.mapping == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_fine_two_shift(self):
        res = find_order_embedding(FineSchreier(from_int(2)), S1, 6)
        assert res.mapping == (2, 3, 4, 5, 6, 7)

    def test_failure_reported(self):
        res = find_order_embedding(S1, FineSchreier(from_int(1)), 4)
        assert not res.found and res.exhausted


def recursive_search(first, after, accept, depth):
    """Plain recursive smallest-first DFS: the reference for the walk."""

    def extend(chosen, choices):
        if len(chosen) == depth:
            return chosen
        for c in choices:
            chosen.append(c)
            if accept(chosen):
                found = extend(chosen, after(c))
                if found is not None:
                    return found
            chosen.pop()
        return None

    return extend([], first)


class TestIncreasingSearch:
    """`_increasing_search` against the recursive DFS: the same answer and
    the same sequence of `accept` calls, also when `accept` stops the search
    by raising."""

    @settings(max_examples=200, deadline=None)
    @given(
        universe=st.lists(st.integers(1, 30), unique=True, max_size=12).map(sorted),
        gap=st.integers(1, 3),
        depth=st.integers(0, 6),
        seed=st.integers(0, 2**16),
        reject=st.integers(0, 100),
        budget=st.none() | st.integers(1, 60),
    )
    def test_matches_recursive_dfs(self, universe, gap, depth, seed, reject, budget):
        def after(v):
            return [u for u in universe if u >= v + gap]

        def run(search):
            log = []

            def accept(chosen):
                log.append(tuple(chosen))
                if budget is not None and len(log) > budget:
                    raise BudgetError("budget")
                return zlib.crc32(repr((seed, chosen)).encode()) % 100 >= reject

            try:
                return search(iter(universe), after, accept, depth), log
            except BudgetError:
                return "budget", log

        assert run(_increasing_search) == run(recursive_search)

    def test_depth_zero_is_the_empty_list(self):
        assert _increasing_search([], lambda v: [], lambda chosen: False, 0) == []


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["F[w^2]", "S[1]", "ALL", "SUM(w;1)", "NFOLD(S[1];3)", "RESTRICT(S[1];2,4,6)"],
    )
    def test_round_trip(self, text):
        fam = parse_family(text)
        assert str(fam) == text

    def test_restrict_membership(self):
        fam = parse_family("RESTRICT(S[1];2,4,6,8)")
        assert fam.member((2, 4))
        assert not fam.member((2, 3))
        with pytest.raises(FamilyError):
            fam.member((10,))

    @pytest.mark.parametrize("prefix", [(), (3, 3), (4, 2), (0, 1)])
    def test_restrict_rejects_bad_stream_prefix(self, prefix):
        # an empty prefix used to build and then fail with an IndexError
        # inside membership
        with pytest.raises(FamilyError):
            Restrict(S1, prefix)

    def test_bad_input(self):
        with pytest.raises(FamilyError):
            parse_family("Q[1]")
        with pytest.raises(FamilyError):
            as_finset((3, 3))
        with pytest.raises(FamilyError):
            as_finset((0, 1))
