import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from domcert.domination import SearchOutcome, basis_sequence
from domcert.families import Schreier
from domcert.norms import C0, Combinatorial, Tsirelson
from domcert.ordinals import OMEGA, from_int
from domcert.spreading import (
    SpreadingError,
    SpreadingTable,
    SubseqSpec,
    _direction_a,
    check_main2_bridge,
    default_probes,
    equivalence_constant,
    estimate_spreading,
    exact_spreading_combinatorial,
    exact_table,
)
from domcert.cli import _mag_json
from domcert.rationals import Mag
from domcert.vectors import Vector

X1 = Combinatorial(Schreier(from_int(1)))
ONES3 = (Fraction(1), Fraction(1), Fraction(1))
NOT_A_SUBSEQUENCE = "not a subsequence: need start >= 1, step >= 1 and a strictly increasing"


def basis_gen(n):
    return Vector.basis(n)


class TestEstimate:
    def test_schreier_l1_at_deep_stages(self):
        rep = estimate_spreading(X1, basis_gen, SubseqSpec(), 3, [2, 3], [ONES3])
        assert all(t.values[ONES3] == 3 for t in rep.tables)
        assert rep.stable

    def test_c0(self):
        rep = estimate_spreading(C0(), basis_gen, SubseqSpec(), 2, [1, 2, 3], [(1, 1)])
        assert all(t.values[(Fraction(1), Fraction(1))] == 1 for t in rep.tables)

    def test_tsirelson_pair(self):
        space = Tsirelson(from_int(1), Fraction(1, 2))
        rep = estimate_spreading(space, basis_gen, SubseqSpec(), 2, [1, 2], [(1, 1)])
        assert all(t.values[(Fraction(1), Fraction(1))] == 1 for t in rep.tables)

    def test_stage_monotone_for_spreading_family(self):
        rep = estimate_spreading(X1, basis_gen, SubseqSpec(), 3, [1, 2, 3], [ONES3])
        values = [t.values[ONES3] for t in rep.tables]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_probe_length_checked(self):
        with pytest.raises(SpreadingError):
            estimate_spreading(X1, basis_gen, SubseqSpec(), 3, [1], [(1, 1)])

    @pytest.mark.parametrize("stages", [[1, 1], [2, 1], [1, 3, 3]])
    def test_stages_must_strictly_increase(self, stages):
        # a repeated stage compared with itself would claim stability
        with pytest.raises(SpreadingError, match="stages must be strictly increasing"):
            estimate_spreading(X1, basis_gen, SubseqSpec(), 3, stages, [ONES3])

    def test_distinct_stages_of_x_s1_are_not_stable(self):
        rep = estimate_spreading(X1, basis_gen, SubseqSpec(), 3, [1, 2])
        assert not rep.stable


class TestExact:
    def test_l1_table(self):
        res = exact_spreading_combinatorial(from_int(1), SubseqSpec(), 4, [1, 1, 1, 1])
        assert res.value == 4 and res.stable

    def test_singleton(self):
        res = exact_spreading_combinatorial(from_int(1), SubseqSpec(), 1, [Fraction(-5, 2)])
        assert res.value == Fraction(5, 2)

    def test_level_two(self):
        res = exact_spreading_combinatorial(from_int(2), SubseqSpec(), 3, [1, 1, 1])
        assert res.value == 3

    def test_level_zero_takes_max(self):
        res = exact_spreading_combinatorial(from_int(0), SubseqSpec(), 3, [1, 2, 1])
        assert res.value == 2

    def test_agrees_with_estimate_at_deep_stages(self):
        probes = [ONES3, (Fraction(1), Fraction(0), Fraction(-2))]
        rep = estimate_spreading(X1, basis_gen, SubseqSpec(), 3, [3, 4], probes)
        for p in probes:
            res = exact_spreading_combinatorial(from_int(1), SubseqSpec(), 3, p)
            assert rep.tables[-1].values[tuple(p)] == res.value


@st.composite
def subseqs(draw):
    kind = draw(st.sampled_from(["identity", "affine", "explicit"]))
    if kind == "identity":
        return SubseqSpec()
    if kind == "affine":
        return SubseqSpec((draw(st.integers(1, 9)),), draw(st.integers(1, 5)))
    gaps = draw(st.lists(st.integers(1, 6), max_size=6))
    return SubseqSpec(tuple(itertools.accumulate(gaps)), draw(st.integers(1, 3)))


@st.composite
def probe_lists(draw, m):
    """Up to six probes, most of length m, some one off it."""
    probes = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([m, m, m, m, m + 1, abs(m - 1)]))
        coeffs = st.fractions(-3, 3, max_denominator=4)
        probes.append(tuple(draw(st.lists(coeffs, min_size=n, max_size=n))))
    return probes


def per_probe_table(xi, subseq, m, probes):
    """`exact_table` as one `exact_spreading_combinatorial` call per probe."""
    values, stage = {}, 0
    for p in map(tuple, probes):
        res = exact_spreading_combinatorial(xi, subseq, m, p)
        if not res.stable:
            raise SpreadingError("tail stability not detected")
        values[p] = res.value
        stage = max(stage, res.stability_threshold)
    return SpreadingTable(m, stage, tuple(map(tuple, probes)), values, True)


def outcome(build, *args):
    try:
        return build(*args)
    except SpreadingError as exc:
        return ("SpreadingError", str(exc))


class TestExactTableDifferential:
    """`exact_table` scans for witness sets once per table; its values and
    stage must be those of one exact call per probe, errors included."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([from_int(0), from_int(1), from_int(2), from_int(3), OMEGA]),
        subseqs(),
        st.integers(0, 4).flatmap(lambda m: st.tuples(st.just(m), probe_lists(m))),
    )
    def test_one_scan_equals_per_probe_calls(self, xi, subseq, m_probes):
        m, probes = m_probes
        got = outcome(exact_table, xi, subseq, m, probes)
        assert got == outcome(per_probe_table, xi, subseq, m, probes)


class TestEquivalence:
    def test_subsequence_independence(self):
        probes = default_probes(3, 0, extra=4)
        t1 = exact_table(from_int(1), SubseqSpec(), 3, probes)
        t2 = exact_table(from_int(1), SubseqSpec((5,), 2), 3, probes)
        eq = equivalence_constant(t1, t2)
        assert eq.lower == 1 == eq.upper and eq.exact

    def test_identical_tables(self):
        probes = [ONES3]
        t1 = exact_table(from_int(1), SubseqSpec(), 3, probes)
        eq = equivalence_constant(t1, t1)
        assert eq.lower == 1

    def test_l1_versus_singleton_family(self):
        probes = [ONES3]
        t1 = exact_table(from_int(1), SubseqSpec(), 3, probes)
        t0 = exact_table(from_int(0), SubseqSpec(), 3, probes)
        assert equivalence_constant(t1, t0).lower == 3

    def test_one_sided_zero_probe_is_infinite(self):
        probes = ((Fraction(1),), (Fraction(2),))
        one, two = probes
        t1 = SpreadingTable(m=1, stage=1, probes=probes, values={one: Mag.of(1), two: Mag.of(2)})
        t2 = SpreadingTable(m=1, stage=1, probes=probes, values={one: Mag.of(3), two: Mag.of(0)})
        for eq in (equivalence_constant(t1, t2), equivalence_constant(t2, t1)):
            assert str(eq.upper) == "inf" and not eq.exact
            assert eq.upper > Mag.of(10**9)
            assert _mag_json(eq.upper) == {"kind": "infinite"}

    def test_probe_mismatch(self):
        t1 = exact_table(from_int(1), SubseqSpec(), 3, [ONES3])
        t2 = exact_table(from_int(1), SubseqSpec(), 2, [(1, 1)])
        with pytest.raises(SpreadingError):
            equivalence_constant(t1, t2)


class TestSubseqSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            ((5,), 0),  # constant
            ((1,), -1),
            ((0,), 1),
            ((9, 3), 1),
            ((2, 2), 1),
            ((0, 1), 1),
            ((1, 2), 0),
            ((), 0),
        ],
    )
    def test_rejects_maps_that_are_not_subsequences(self, spec):
        with pytest.raises(SpreadingError, match=NOT_A_SUBSEQUENCE):
            SubseqSpec(*spec)

    @pytest.mark.parametrize("text", ["affine(5,0)", "9,3", "affine(1,0)", "affine(0,2)"])
    def test_parse_rejects_maps_that_are_not_subsequences(self, text):
        with pytest.raises(SpreadingError, match=NOT_A_SUBSEQUENCE):
            SubseqSpec.parse(text)

    def test_accepts_subsequences(self):
        assert [SubseqSpec((4,), 5)(n) for n in (1, 2, 3)] == [4, 9, 14]
        assert [SubseqSpec.parse("2,3")(n) for n in (1, 2, 3)] == [2, 3, 4]
        assert SubseqSpec()(7) == 7

    def test_parse_spellings(self):
        assert SubseqSpec.parse(" id ") == SubseqSpec.parse("identity") == SubseqSpec()
        assert SubseqSpec.parse("affine(3,4)") == SubseqSpec((3,), 4)
        assert SubseqSpec.parse("2,5,9") == SubseqSpec((2, 5, 9))
        assert SubseqSpec.parse("") == SubseqSpec()

    def test_continues_in_steps_from_the_prefix_or_zero(self):
        assert [SubseqSpec((2, 5), 3)(n) for n in range(1, 6)] == [2, 5, 8, 11, 14]
        # the step holds with an empty prefix too: n -> step*n
        assert [SubseqSpec(step=3)(n) for n in (1, 2, 3)] == [3, 6, 9]

    def test_index_starts_at_one(self):
        with pytest.raises(SpreadingError, match="subsequence index starts at 1"):
            SubseqSpec((2, 5))(0)


class TestBridge:
    def test_schreier_self_instance(self):
        rho = basis_sequence(X1, 24)
        report = check_main2_bridge(rho, from_int(1), Fraction(1), 6)
        assert report.ok
        assert Fraction(report.direction_b["certificate_constant"]) <= 3

    def test_short_prefix_inconclusive(self):
        rho = basis_sequence(X1, 6)
        report = check_main2_bridge(rho, from_int(1), Fraction(1), 4)
        assert report.inconclusive

    @pytest.mark.parametrize("status, inconclusive", [("budget", True), ("exhausted", False)])
    def test_search_without_certificate(self, status, inconclusive):
        # a search cut by its node budget leaves direction (a) open; an
        # exhausted one refutes it (the estimate is not read on this path)
        report, open_a = _direction_a(SearchOutcome(status), Fraction(1), None, Schreier(from_int(0)))
        assert report == {"pass": False, "reason": f"no certificate at C=1 ({status})"}
        assert open_a is inconclusive
