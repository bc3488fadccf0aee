import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from domcert import domination, transfer
from domcert.domination import (
    Certificate,
    VectorSequence,
    basis_sequence,
    search_certificate,
    verify_certificate,
)
from domcert.families import Explicit, Schreier, enumerate_family
from domcert.linprog import max_min_over_simplex
from domcert.norms import C0, Combinatorial, L1, Lp, norming_functionals, parse_space
from domcert.ordinals import OMEGA, from_int
from domcert.transfer import (
    ShadowFailure,
    TransferError,
    block_certificate,
    frak_f_epsilon,
    limit_combine,
    merge_subsequence_certificates,
    shift_certificate,
    sum_combine,
    wn_select,
)
from domcert.vectors import Vector
from reference_linalg import ref_solve_square

e = Vector.basis
S1 = Schreier(from_int(1))
X1 = Combinatorial(S1)


def _cert(rho, xi, depth, constraint=None):
    out = search_certificate(rho, xi, Fraction(1), depth, constraint=constraint)
    assert out.status == "found"
    return out.certificate


class TestShift:
    def test_down_one_level(self):
        rho = basis_sequence(X1, 8)
        cert = _cert(rho, from_int(2), 6)
        shifted = shift_certificate(cert, rho, from_int(1), 0)
        assert shifted.verified and shifted.xi == from_int(1)
        assert shifted.depth == 6 and shifted.C == cert.C

    def test_from_all_sentinel(self):
        rho = basis_sequence(X1, 8)
        cert = _cert(rho, None, 6)
        shifted = shift_certificate(cert, rho, from_int(3), 0)
        assert shifted.verified

    def test_omega_to_two_with_shift(self):
        rho = basis_sequence(X1, 8)
        cert = _cert(rho, OMEGA, 8)
        shifted = shift_certificate(cert, rho, from_int(2), 2)
        assert shifted.verified and shifted.depth == 6
        assert shifted.M == cert.M[2:]

    def test_insufficient_shift_rejected(self):
        rho = basis_sequence(X1, 8)
        cert = _cert(rho, OMEGA, 8)
        # the almost-monotone witness for (2, w) is 1, so shift 0 is refused
        with pytest.raises(TransferError):
            shift_certificate(cert, rho, from_int(2), 0)

    def test_depth_exhaustion_rejected(self):
        rho = basis_sequence(X1, 4)
        cert = _cert(rho, from_int(2), 4)
        with pytest.raises(TransferError):
            shift_certificate(cert, rho, from_int(1), 4)


class TestSumCombine:
    def test_one_plus_one(self):
        rho = basis_sequence(X1, 8)
        c1 = _cert(rho, from_int(1), 6)
        c2 = _cert(rho, from_int(1), 6, constraint=c1.M)
        out = sum_combine(c1, c2, rho, Fraction(1))
        assert out.verified and out.xi == from_int(2)
        assert out.C == Fraction(1) * (c1.C + c2.C)

    def test_one_plus_two(self):
        rho = basis_sequence(X1, 8)
        c1 = _cert(rho, from_int(1), 6)
        c2 = _cert(rho, from_int(2), 6, constraint=c1.M)
        out = sum_combine(c1, c2, rho, Fraction(1))
        assert out.verified and out.xi == from_int(3) and out.C == 2

    def test_empty_second_is_passthrough(self):
        rho = basis_sequence(X1, 6)
        c1 = _cert(rho, from_int(1), 4)
        c0 = Certificate(from_int(2), (), (), Fraction(1), X1, rho.name)
        out = sum_combine(c1, c0, rho, Fraction(1))
        assert out.xi == from_int(1) and out.C == 2

    def test_nesting_required(self):
        rho = basis_sequence(X1, 8)
        c1 = Certificate(from_int(1), (1, 3, 5), (1, 3, 5), Fraction(1), X1, rho.name)
        c2 = Certificate(from_int(1), (2, 4, 6), (2, 4, 6), Fraction(1), X1, rho.name)
        with pytest.raises(TransferError):
            sum_combine(c1, c2, rho, Fraction(1))


class TestLimitCombine:
    def test_two_levels_to_omega(self):
        rho = basis_sequence(X1, 8)
        c1 = _cert(rho, from_int(1), 6)
        c2 = _cert(rho, from_int(2), 6, constraint=c1.M)
        out = limit_combine([c1, c2], rho, OMEGA, Fraction(1))
        assert out.verified and out.xi == OMEGA
        assert out.C <= Fraction(1) * max(c1.C, c2.C)

    def test_single_cert_identity_prefix(self):
        rho = basis_sequence(X1, 6)
        c1 = _cert(rho, from_int(1), 4)
        out = limit_combine([c1], rho, OMEGA, Fraction(1))
        assert out.verified and out.depth == 1
        assert out.M == (c1.M[0],)

    def test_disjoint_index_sets_rejected(self):
        rho = basis_sequence(X1, 8)
        c1 = Certificate(from_int(1), (1, 3, 5), (1, 3, 5), Fraction(1), X1, rho.name)
        c2 = Certificate(from_int(2), (2, 4, 6), (2, 4, 6), Fraction(1), X1, rho.name)
        with pytest.raises(TransferError):
            limit_combine([c1, c2], rho, OMEGA, Fraction(1))

    def test_wrong_levels_rejected(self):
        rho = basis_sequence(X1, 8)
        c1 = _cert(rho, from_int(2), 4)
        with pytest.raises(TransferError):
            limit_combine([c1], rho, OMEGA, Fraction(1))


class TestMerge:
    def test_base_plus_extra(self):
        rho = basis_sequence(X1, 8)
        base = _cert(rho, from_int(2), 6)
        extra = _cert(rho, from_int(1), 6, constraint=base.M)
        res = merge_subsequence_certificates(base, [extra], rho, Fraction(1))
        assert res.base_constant == base.C
        assert res.level_constants[0][1] == extra.C + 1
        assert all(rep.ok for rep in res.reports)

    def test_no_extras_passthrough(self):
        rho = basis_sequence(X1, 6)
        base = _cert(rho, from_int(2), 4)
        res = merge_subsequence_certificates(base, [], rho, Fraction(1))
        assert res.K == base.M and res.N == base.L

    def test_non_nested_rejected(self):
        rho = basis_sequence(X1, 8)
        base = Certificate(from_int(2), (1, 3, 5), (1, 3, 5), Fraction(1), X1, rho.name)
        extra = Certificate(from_int(1), (2, 4), (2, 4), Fraction(1), X1, rho.name)
        with pytest.raises(TransferError):
            merge_subsequence_certificates(base, [extra], rho, Fraction(1))


class TestSharedTables:
    """A transformer re-verifies on the rho its input searches ran on, and
    every oracle on that rho shares its tables, so only pairs (m, l) that no
    search posed reach `domination_constant_exact`: without the sharing,
    25 for the sum, 30 for the merge and 6 for the shift."""

    @pytest.mark.parametrize("space", [X1, C0(), L1()], ids=["x-s1", "c0", "l1"])
    @pytest.mark.parametrize("op, bound", [("sum", 12), ("merge", 0), ("shift", 0)])
    def test_exact_calls_after_the_searches(self, monkeypatch, space, op, bound):
        rho = basis_sequence(space, 9)
        if op == "shift":
            c1 = _cert(rho, from_int(3), 5)
        else:
            first, second = (1, 2) if op == "sum" else (2, 1)
            c1 = _cert(rho, from_int(first), 5)
            c2 = _cert(rho, from_int(second), 5, constraint=c1.M)
        calls = Counter()
        exact = domination.domination_constant_exact

        def counted(*args):
            calls["exact"] += 1
            return exact(*args)

        monkeypatch.setattr(domination, "domination_constant_exact", counted)
        if op == "shift":
            assert shift_certificate(c1, rho, from_int(2), 1).verified
        elif op == "sum":
            assert sum_combine(c1, c2, rho, Fraction(1)).verified
        else:
            res = merge_subsequence_certificates(c1, [c2], rho, Fraction(1))
            assert all(rep.ok for rep in res.reports)
        assert calls["exact"] <= bound


class TestBlockCertificate:
    def test_two_blocks(self):
        blocks = [Vector.of({1: 1, 2: 1}), e(3)]
        cert, rho = block_certificate(S1, blocks)
        assert cert.verified and cert.C == 1 and cert.L == (2, 3)

    def test_singleton(self):
        cert, _ = block_certificate(S1, [e(5)])
        assert cert.L == (5,) and cert.C == 1

    def test_overlap_rejected(self):
        with pytest.raises(TransferError):
            block_certificate(S1, [Vector.of({1: 1, 3: 1}), Vector.of({2: 1})])

    def test_unnormalized_rejected(self):
        with pytest.raises(TransferError):
            block_certificate(S1, [e(1).scale(2)])


class TestFrak:
    def test_l1_all_sets(self):
        xs = basis_sequence(L1(), 6)
        fam = frak_f_epsilon(xs, Fraction(1), 4)
        assert len(fam.members) == 16

    def test_schreier_space_recovers_family(self):
        xs = basis_sequence(X1, 6)
        fam = frak_f_epsilon(xs, Fraction(1), 4)
        assert fam.members == frozenset(enumerate_family(S1, 4))

    def test_above_norm_only_empty(self):
        xs = basis_sequence(X1, 6)
        fam = frak_f_epsilon(xs, Fraction(3, 2), 4)
        assert fam.members == frozenset({()})

    def test_l2_cardinality_cut(self):
        xs = basis_sequence(Lp(2), 8)
        fam = frak_f_epsilon(xs, Fraction(1, 2), 5)
        expected = {
            f
            for k in range(5)
            for f in itertools.combinations(range(1, 6), k)
        }
        assert fam.members == frozenset(expected)

    def test_monotone_in_eps(self):
        xs = basis_sequence(X1, 6)
        small = frak_f_epsilon(xs, Fraction(1, 3), 5)
        large = frak_f_epsilon(xs, Fraction(2, 3), 5)
        assert large.members <= small.members

    def test_hereditary(self):
        xs = basis_sequence(X1, 6)
        fam = frak_f_epsilon(xs, Fraction(1, 2), 5)
        for f in fam.members:
            for i in range(len(f)):
                assert f[:i] + f[i + 1 :] in fam.members

    def test_l2_overlapping_supports(self):
        # correlated vectors: a shared witness must respect the geometry
        xs = VectorSequence(
            (Vector.of({1: 1}), Vector.of({1: 1, 2: 1})), Lp(2), "corr"
        )
        fam = frak_f_epsilon(xs, Fraction(1), 2)
        # x* = e1 gives |<x*,x1>| = |<x*,x2>| = 1 exactly
        assert (1, 2) in fam.members

    def test_non_polyhedral_rejected(self):
        from domcert.norms import Baernstein

        xs = basis_sequence(Baernstein(from_int(1), 2), 4)
        with pytest.raises(TransferError):
            frak_f_epsilon(xs, Fraction(1, 2), 3)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1)])
    def test_nonpositive_eps_rejected(self, eps):
        # at -1 the l_2 test eps^2 m <= 1 would read -1 as 1, and the family
        # would not be monotone in eps
        xs = VectorSequence(
            (Vector.of({1: 1}), Vector.of({1: 1, 2: 1})), Lp(2), "corr"
        )
        with pytest.raises(TransferError, match="eps must be positive"):
            frak_f_epsilon(xs, eps, 2)
        assert frak_f_epsilon(xs, Fraction(1, 2), 2).members == {(), (1,), (2,), (1, 2)}


# -- the per-eps algorithm, kept as a differential oracle ----------------------


def _oracle_l2_feasible(vectors: list[Vector], eps: Fraction) -> bool:
    """Some y with |y|_2 <= 1 has |<y, v>| >= eps for every listed v: the
    min-norm point of each sign orthant of the witness polyhedron at eps, by
    active-set enumeration over the Gram matrix."""
    k = len(vectors)
    gram = [[u.dot(v) for v in vectors] for u in vectors]
    if all(gram[i][j] == 0 for i in range(k) for j in range(k) if i != j):
        if any(gram[i][i] == 0 for i in range(k)):
            return False
        return sum((eps * eps / gram[i][i] for i in range(k)), Fraction(0)) <= 1
    for signs in itertools.product((1, -1), repeat=k - 1):
        sigma = (1,) + signs
        signed = [[sigma[i] * sigma[j] * gram[i][j] for j in range(k)] for i in range(k)]
        best: Optional[Fraction] = None
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                sub = [[signed[i][j] for j in subset] for i in subset]
                mu = ref_solve_square(sub, [eps] * size)
                if mu is None or any(v < 0 for v in mu):
                    continue
                vals = [
                    sum((mu[a] * signed[i][subset[a]] for a in range(size)), Fraction(0))
                    for i in range(k)
                ]
                if any(v < eps for v in vals):
                    continue
                sq = sum((mu[a] * eps for a in range(size)), Fraction(0))
                if best is None or sq < best:
                    best = sq
        if best is not None and best <= 1:
            return True
    return False


def oracle_frak(xs: VectorSequence, eps: Fraction, n: int) -> Explicit:
    """frak_eps on {1..n} decided afresh at eps: one max-min LP per candidate
    and sign pattern (or one active-set solve for l_2), nothing memoized."""
    items = xs.items[:n]
    l2 = isinstance(xs.space, Lp) and xs.space.p == 2
    if not l2:
        support = sorted({i for v in items for i in v.support})
        phis = norming_functionals(xs.space, tuple(support))
        abs_phis = sorted(
            {Vector(tuple((i, abs(c)) for i, c in phi.entries)) for phi in phis},
            key=lambda v: v.entries,
        )
        nonneg = all(c >= 0 for v in items for _, c in v.entries)
        disjoint = sum(len(v.support) for v in items) == len(support)

    def z(cols):
        live = [col for col in cols if any(col)]
        return max_min_over_simplex(live) if live else Fraction(0)

    def feasible(f):
        vectors = [xs.items[i - 1] for i in f]
        if l2:
            return _oracle_l2_feasible(vectors, eps)
        if nonneg and disjoint:
            return z([[phi.dot(v) for v in vectors] for phi in abs_phis]) >= eps
        return any(
            z([[s * phi.dot(v) for s, v in zip((1,) + signs, vectors)] for phi in phis]) >= eps
            for signs in itertools.product((1, -1), repeat=len(f) - 1)
        )

    members = {()}
    current = [()]
    while current:
        current = [
            f + (x,)
            for f in current
            for x in range(f[-1] + 1 if f else 1, n + 1)
            if all(f[:i] + f[i + 1 :] + (x,) in members for i in range(len(f)))
            and feasible(f + (x,))
        ]
        members.update(current)
    return Explicit(frozenset(members))


def _steps(steps) -> list[tuple]:
    return [(s.k, s.threshold, s.kept, s.removed, s.witness) for s in steps]


def oracle_selection(xs: VectorSequence, phi: Fraction, depth: int) -> tuple:
    """The levels and diagonal choice of `wn_select` into S[1] on oracle
    families, rescanning each family from its start after every removal."""
    m_current = tuple(range(1, len(xs) + 1))
    steps = []
    for k in range(1, depth + 1):
        members = sorted(oracle_frak(xs, phi**k, len(xs)).members, key=lambda t: (len(t), t))
        removed, witness = [], None
        while True:
            bad = next(
                (f for f in members if f and set(f) <= set(m_current) and not S1.member(f)),
                None,
            )
            if bad is None:
                break
            witness = bad
            removed.append(bad[0])
            m_current = tuple(v for v in m_current if v != bad[0])
        steps.append((k, phi**k, m_current, tuple(removed), witness))
    selection: list[int] = []
    for k, (*_, kept, _, _) in enumerate(steps, start=1):
        pool = [v for v in kept if not selection or v > selection[-1]]
        if not pool:
            return ("shadow", k, next((s[4] for s in reversed(steps) if s[4]), None))
        selection.append(pool[0])
    return ("selected", steps, tuple(selection))


SPACES = {"C0": C0(), "L1": L1(), "X[S[1]]": X1, "LP(2)": Lp(2)}
COEFFS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
EPSILONS = [Fraction(*t) for t in [(1, 8), (1, 4), (1, 3), (1, 2), (1, 1), (3, 2)]]


@st.composite
def sequences(draw):
    """Up to four vectors over {1..4}: signed or nonnegative, overlapping or
    consecutive disjoint blocks."""
    space = draw(st.sampled_from(sorted(SPACES)))
    signed = draw(st.booleans())
    blocks = draw(st.booleans())
    coeff = st.sampled_from(COEFFS).flatmap(
        lambda c: st.sampled_from([c, -c]) if signed else st.just(c)
    )
    n = draw(st.integers(1, 4))
    if blocks:
        cuts = sorted(draw(st.sets(st.integers(1, 3), min_size=n - 1, max_size=n - 1)))
        supports = [range(a + 1, b + 1) for a, b in zip([0, *cuts], [*cuts, 4])]
    else:
        supports = [draw(st.sets(st.integers(1, 4), min_size=1)) for _ in range(n)]
    vectors = tuple(Vector.of({i: draw(coeff) for i in sorted(s)}) for s in supports)
    return VectorSequence(vectors, SPACES[space], "drawn")


def _l2_pair(scale: Fraction) -> VectorSequence:
    # x1 alone is witnessed by a multiple of x1, which meets <y, x2> >= eps
    # only halfway: the active set {x1} is primal infeasible for the pair
    x1 = Vector.of({1: scale})
    x2 = Vector.of({1: scale / 2, 2: scale})
    return VectorSequence((x1, x2), Lp(2), "l2-pair")


def _l2_triple() -> VectorSequence:
    # for {1, 2, 3} under the signs (1, 1, 1) the full active set is
    # singular, and {1, 2}, tried next, has nonnegative multipliers but its
    # projection misses the constraint of x3: the primal check must reject it
    x1 = Vector.of({1: Fraction(1, 4), 2: Fraction(1, 2)})
    x2 = Vector.of({1: Fraction(1, 2), 2: Fraction(-1, 2)})
    return VectorSequence((x1, x2, Vector.of({1: Fraction(-1)})), Lp(2), "l2-triple")


def _tsirelson_signed() -> VectorSequence:
    # signed, overlapping vectors under functionals with theta-weights 1/2
    # and 1/4: the signed score table over one common denominator; too slow
    # to draw in SPACES
    half, third = Fraction(1, 2), Fraction(1, 3)
    vectors = (
        {1: 1, 2: -half, 3: half}, {2: 1, 3: 1, 4: -1}, {1: -half, 4: 1}, {3: third, 4: half}
    )
    return VectorSequence(
        tuple(Vector.of(v) for v in vectors), parse_space("TSIRELSON(1;1/2)"), "tsirelson"
    )


class TestFrakDifferential:
    @settings(max_examples=80, deadline=None)
    @given(sequences(), st.lists(st.sampled_from(EPSILONS), min_size=1, max_size=3))
    @example(_l2_pair(Fraction(1)), [Fraction(1)])
    @example(_l2_pair(Fraction(1, 2)), [Fraction(1, 2)])
    @example(_l2_triple(), [Fraction(1, 2)])
    @example(_tsirelson_signed(), [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_equals_per_eps_oracle(self, xs, epsilons):
        for eps in epsilons:
            assert frak_f_epsilon(xs, eps, len(xs)) == oracle_frak(xs, eps, len(xs))

    @settings(max_examples=20, deadline=None)
    @given(sequences())
    def test_every_selection_level_equals_a_fresh_run(self, xs):
        phi = Fraction(1, 4)
        seen = []
        frak = transfer.frak_f_epsilon

        def recording(xs, eps, n):
            fam = frak(xs, eps, n)
            seen.append((eps, fam))
            return fam

        with mock.patch.object(transfer, "frak_f_epsilon", recording):
            try:
                trace, _ = wn_select(xs, from_int(1), Fraction(1), phi, 3)
                outcome = ("selected", _steps(trace.steps), trace.M)
            except ShadowFailure as exc:
                outcome = ("shadow", exc.k, exc.witness)
            except TransferError:
                # the selection failed its exact check, or it keeps two
                # overlapping l_2 vectors, which the exact check cannot take
                outcome = None
        assert [eps for eps, _ in seen] == [phi, phi**2, phi**3]
        for eps, fam in seen:
            assert fam == oracle_frak(xs, eps, len(xs))
        if outcome is not None:
            assert outcome == oracle_selection(xs, phi, 3)

    def test_second_sign_pattern(self):
        # e1 and -e1 in c0 are witnessed at 1 by e1 with the signs (1, -1)
        # only: under the pattern (1, 1) the max-min value is 0
        xs = VectorSequence((Vector.of({1: 1}), Vector.of({1: -1})), C0(), "pair")
        assert transfer._WitnessScores(xs, 2)._max_min((1, 2), (1, 1)) == 0
        assert (1, 2) in oracle_frak(xs, Fraction(1), 2).members
        assert oracle_frak(xs, Fraction(1), 2) == frak_f_epsilon(xs, Fraction(1), 2)


def seeded_sequence(seed: int, space: str, signed: bool) -> VectorSequence:
    """Four vectors: consecutive two-point blocks for an odd seed, supports
    drawn in {1..5} for an even one, so overlapping and, in l_2, not
    orthogonal."""
    rng = random.Random(seed)
    vectors = []
    for k in range(4):
        support = (
            range(2 * k + 1, 2 * k + 3)
            if seed % 2
            else sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        )
        vectors.append(
            Vector.of(
                {i: rng.choice(COEFFS) * (rng.choice((1, -1)) if signed else 1) for i in support}
            )
        )
    return VectorSequence(tuple(vectors), SPACES[space], f"seed-{seed}")


def _select_half(xs: VectorSequence) -> None:
    # phi = 1/2 spreads the entry levels of the sets over 1/2, 1/4 and 1/8;
    # eps = 4 meets (1 - phi)^2 (1 + eps) > 1
    try:
        wn_select(xs, from_int(1), Fraction(4), Fraction(1, 2), 3)
    except TransferError:
        # a shadow failure, an overlapping l_2 selection or a failed check:
        # every level's family has been read by then
        pass


class TestSelectionSweep:
    """One sweep over phi, phi^2, phi^3 against the per-eps oracle, and the
    LPs it solves against those of the sweep per level it replaced."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_every_level_equals_the_oracle(self, space, signed):
        for seed in range(4):
            xs = seeded_sequence(seed, space, signed)
            seen = []
            frak = transfer.frak_f_epsilon

            def recording(xs, eps, n):
                seen.append((eps, frak(xs, eps, n)))
                return seen[-1][1]

            with mock.patch.object(transfer, "frak_f_epsilon", recording):
                _select_half(xs)
            assert [eps for eps, _ in seen] == [Fraction(1, 2 ** k) for k in (1, 2, 3)]
            for eps, fam in seen:
                assert fam == oracle_frak(xs, eps, len(xs)), (seed, eps)

    # (max_min_over_simplex, solve_square) calls of one wn_select call,
    # recorded from the implementation that grew the family once per level
    @pytest.mark.parametrize(
        "space, seed, expected",
        [
            ("C0", 0, (14, 0)), ("C0", 2, (14, 0)), ("C0", 4, (17, 0)), ("C0", 6, (20, 0)),
            ("L1", 0, (14, 0)), ("L1", 2, (14, 0)), ("L1", 4, (15, 0)), ("L1", 6, (15, 0)),
            ("X[S[1]]", 0, (15, 0)), ("X[S[1]]", 2, (15, 0)),
            ("X[S[1]]", 4, (17, 0)), ("X[S[1]]", 6, (19, 0)),
            ("LP(2)", 0, (0, 10)), ("LP(2)", 2, (0, 25)),
            ("LP(2)", 4, (0, 31)), ("LP(2)", 6, (0, 72)),
        ],
    )
    def test_signed_sequences_solve_the_same_lps(self, monkeypatch, space, seed, expected):
        # a sweep that tried a sign pattern past the first one meeting the
        # tightest threshold a set is tried at would solve more
        calls = Counter()
        for name in ("max_min_over_simplex", "solve_square"):
            original = getattr(transfer, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(transfer, name, counted)
        _select_half(seeded_sequence(seed, space, True))
        assert (calls["max_min_over_simplex"], calls["solve_square"]) == expected


class TestWnSelect:
    def test_l2_sparse_selection(self):
        xs = basis_sequence(Lp(2), 12)
        trace, cert = wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 6)
        assert cert.verified and cert.C == Fraction(3, 2)
        assert trace.M == (7, 8, 9, 10, 11, 12)
        assert trace.bound_partial_sum <= trace.bound_total <= Fraction(3, 2)

    def test_l1_shadow_failure(self):
        xs = basis_sequence(L1(), 10)
        with pytest.raises(ShadowFailure) as exc:
            wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 6)
        assert exc.value.witness is not None
        assert not S1.member(exc.value.witness)

    def test_c0_blocks_pass(self):
        xs = basis_sequence(C0(), 12)
        trace, cert = wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 6)
        assert cert.verified

    def test_overlapping_l2_selection_names_the_pair(self):
        quarter = Fraction(1, 4)
        xs = VectorSequence(
            tuple(Vector.of(v) for v in ({2: quarter}, {1: quarter}, {1: quarter})), Lp(2)
        )
        with pytest.raises(TransferError, match="selected vectors 2 and 3 have overlapping"):
            wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 2)

    def test_disjoint_l2_selection_of_overlapping_input(self):
        xs = VectorSequence(
            tuple(Vector.of(v) for v in ({1: 1}, {2: 1}, {1: 1, 3: 1})), Lp(2)
        )
        trace, cert = wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 2)
        assert trace.M == (2, 3) and cert.verified

    def test_phi_precondition(self):
        xs = basis_sequence(C0(), 8)
        with pytest.raises(TransferError):
            wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 2), 4)

    def test_one_score_table_serves_every_level(self, monkeypatch):
        # each level reads the table built once; a later change that rebuilt
        # it per level would enumerate the functionals and solve the max-min
        # LPs again at every phi^k
        calls = Counter()
        for name in ("frak_f_epsilon", "functional_rows", "max_min_over_simplex"):
            original = getattr(transfer, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(transfer, name, counted)
        xs = basis_sequence(C0(), 8)
        wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 4)
        selected = dict(calls)
        calls.clear()
        frak_f_epsilon(xs, Fraction(1, 8) ** 4, 8)
        # one frak_f_epsilon call per level, each reading the shared table
        assert selected["frak_f_epsilon"] == 4
        # one functional table per wn_select call, unsigned or signed
        assert selected["functional_rows"] == 1
        assert selected["max_min_over_simplex"] == calls["max_min_over_simplex"] > 0

    def test_shared_table_lasts_one_call(self):
        with pytest.raises(ShadowFailure):
            wn_select(basis_sequence(L1(), 10), from_int(1), Fraction(1, 2), Fraction(1, 8), 6)
        assert transfer._SHARED_SCORES.get() is None
        xs = basis_sequence(C0(), 8)
        wn_select(xs, from_int(1), Fraction(1, 2), Fraction(1, 8), 4)
        assert transfer._SHARED_SCORES.get() is None
        # a call on another prefix inside the span builds its own table
        token = transfer._SHARED_SCORES.set(transfer._WitnessScores(xs, 8))
        try:
            assert frak_f_epsilon(xs, Fraction(1), 3) == oracle_frak(xs, Fraction(1), 3)
        finally:
            transfer._SHARED_SCORES.reset(token)


class TestCombinatorProperties:
    def test_outputs_verify_at_stated_constants(self):
        # randomized small instances over the three reference spaces
        import random

        rng = random.Random(0)
        for trial in range(6):
            space = [X1, C0(), L1()][trial % 3]
            rho = basis_sequence(space, 8)
            c1 = _cert(rho, from_int(1), 5)
            c2 = _cert(rho, from_int(2), 5, constraint=c1.M)
            summed = sum_combine(c1, c2, rho, Fraction(1))
            assert summed.C == c1.C + c2.C
            limited = limit_combine([c1, c2], rho, OMEGA, Fraction(1))
            assert limited.C <= max(c1.C, c2.C)
            report = verify_certificate(summed, rho)
            assert report.ok
