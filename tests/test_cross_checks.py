"""Cross-checks pitting independent computations against each other on the
less-traveled parameter ranges: Tsirelson at level two, Tsirelson-space
domination, custom omega schedules, and generator edge cases."""

import itertools
import random
from fractions import Fraction

import pytest

from domcert.domination import (
    VectorSequence,
    basis_sequence,
    domination_constant_exact,
    search_certificate,
)
from domcert.families import QSchedule, Schreier
from domcert.norms import Combinatorial, C0, Tsirelson, norm, norming_functionals, tsirelson_norm
from domcert.ordinals import OMEGA, from_int
from domcert.rationals import Mag
from domcert.spreading import SubseqSpec, SpreadingError, check_main2_bridge, estimate_spreading
from domcert.vectors import Vector


def brute_tsirelson(xi, theta, x):
    """Independent evaluation: recursion over arbitrary integer interval
    endpoints instead of support-aligned ones."""
    fam = Schreier(xi)
    supp = x.support
    if not supp:
        return Fraction(0)
    lo_all, hi_all = 1, supp[-1] + 1
    cache = {}

    def value(lo, hi):
        pts = [i for i in supp if lo <= i <= hi]
        if not pts:
            return Fraction(0)
        key = (pts[0], pts[-1])
        if key in cache:
            return cache[key]
        best = max(abs(x.coeff(i)) for i in pts)

        def systems(start, mins):
            yield []
            for a in range(start, hi + 1):
                new_mins = mins + (a,)
                if not fam.member(new_mins):
                    continue
                for b in range(a, hi + 1):
                    for tail in systems(b + 1, new_mins):
                        yield [(a, b)] + tail

        for sys_ in systems(max(lo, lo_all), ()):
            if len(sys_) >= 2:
                total = sum(value(a, b) for a, b in sys_)
                cand = theta * total
                if cand > best:
                    best = cand
        cache[key] = best
        return best

    return value(lo_all, hi_all)


class TestTsirelsonLevelTwo:
    def test_matches_brute(self):
        theta = Fraction(1, 2)
        rng = random.Random(17)
        for _ in range(6):
            supp = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
            x = Vector.of({i: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in supp})
            if x.is_zero:
                continue
            fast = tsirelson_norm(from_int(2), theta, x)
            slow = brute_tsirelson(from_int(2), theta, x)
            assert fast == slow, (x, fast, slow)

    def test_level_two_admits_more(self):
        # S_2 allows systems S_1 forbids, so the norm can only grow
        theta = Fraction(1, 2)
        x = Vector.of({i: 1 for i in range(2, 8)})
        v1 = tsirelson_norm(from_int(1), theta, x)
        v2 = tsirelson_norm(from_int(2), theta, x)
        assert v2 >= v1

    def test_norming_functionals_level_two(self):
        space = Tsirelson(from_int(2), Fraction(1, 2))
        rng = random.Random(23)
        for _ in range(25):
            supp = sorted(rng.sample(range(1, 6), rng.randint(1, 4)))
            x = Vector.of({i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in supp})
            if x.is_zero:
                continue
            phis = norming_functionals(space, x.support)
            assert Mag.of(max(abs(p.dot(x)) for p in phis)) == norm(space, x)


class TestTsirelsonDomination:
    def test_basis_self_domination(self):
        space = Tsirelson(from_int(1), Fraction(1, 2))
        rho = basis_sequence(space, 4)
        out = search_certificate(rho, from_int(1), Fraction(1), 4)
        assert out.status == "found" and out.certificate.verified

    def test_spread_right_dominance(self):
        from domcert.domination import right_dominance_defect

        space = Tsirelson(from_int(1), Fraction(1, 2))
        rep = right_dominance_defect(space, (1, 2, 3), (2, 4, 5), Fraction(1))
        assert rep.ok

    def test_theta_scaling_between_levels(self):
        # the lower l1 estimate makes the Tsirelson basis dominate c0 by
        # exactly 1 and be dominated by l1; sanity against exact engine
        space = Tsirelson(from_int(1), Fraction(1, 2))
        xs = basis_sequence(C0(), 3)
        ys = basis_sequence(space, 3)
        res = domination_constant_exact(xs, ys)
        assert res.value == 1


class TestOmegaSchedules:
    def test_bridge_with_doubled_schedule(self):
        q = QSchedule(slope=2)
        rho = basis_sequence(Combinatorial(Schreier(from_int(1), q)), 24)
        report = check_main2_bridge(rho, from_int(1), Fraction(1), 6, q=q)
        assert report.ok

    def test_schedule_changes_membership(self):
        from domcert.families import FineSchreier

        default = FineSchreier(OMEGA)
        doubled = FineSchreier(OMEGA, QSchedule(slope=2))
        # |F| = 4, min F = 2: q_2 = 4 admits it only under the doubled schedule
        f = (2, 5, 6, 7)
        assert doubled.member(f) and not default.member(f)

    def test_non_monotone_prefix_respected(self):
        from domcert.families import FineSchreier

        # witness need not be min F: with q = (3,1,...) the set {2,3,4}
        # enters via n = 1 even though q_2 = 2 fails
        q = QSchedule(prefix=(3, 2))
        fam = FineSchreier(OMEGA, q)
        assert fam.member((2, 3, 4))


class TestBridgeVariants:
    def test_c0_blocks_direction_a(self):
        rho = basis_sequence(C0(), 24)
        report = check_main2_bridge(rho, from_int(1), Fraction(1), 6)
        assert report.direction_a.get("pass") is True


class TestTransfiniteLevels:
    def test_limit_combine_at_omega_times_two(self):
        from domcert.ordinals import parse_ordinal
        from domcert.transfer import limit_combine

        X1 = Combinatorial(Schreier(from_int(1)))
        rho = basis_sequence(X1, 8)
        # levels of w*2 are w+k under the canonical sequences
        c1 = search_certificate(rho, parse_ordinal("w+1"), Fraction(1), 5)
        assert c1.status == "found"
        c2 = search_certificate(
            rho, parse_ordinal("w+2"), Fraction(1), 5, constraint=c1.certificate.M
        )
        assert c2.status == "found"
        out = limit_combine(
            [c1.certificate, c2.certificate], rho, parse_ordinal("w*2"), Fraction(1)
        )
        assert out.verified and out.xi == parse_ordinal("w*2")

    def test_membership_above_omega(self):
        from domcert.families import FineSchreier
        from domcert.ordinals import parse_ordinal

        fam = FineSchreier(parse_ordinal("w^2"))
        # (2,5,6) enters via w^2[2] = w*2, then w+1, then the omega step
        assert fam.member((2, 5, 6))
        # (1,2) only sees w^2[1] = w, where q_1 = 1 caps the size at 1
        assert not fam.member((1, 2))


class TestEstimateEdges:
    def test_explicit_subseq_continues_affinely(self):
        spec = SubseqSpec((3, 5, 9))
        assert [spec(n) for n in range(1, 6)] == [3, 5, 9, 10, 11]

    def test_decreasing_schedule_rejected(self):
        # stage 1 with m=2 probes positions 2 and 4: indices 9 then 4
        with pytest.raises(SpreadingError):
            spec = SubseqSpec((1, 9, 5, 4))
            estimate_spreading(
                C0(), lambda n: Vector.basis(n), spec, 2, [1], [(1, 1)]
            )
