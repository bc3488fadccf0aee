from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from domcert.rationals import (
    MAG_INF,
    Mag,
    format_fraction,
    integer_nth_root,
    mag_max,
    parse_fraction,
)

fracs = st.fractions(min_value=Fraction(0), max_value=Fraction(40), max_denominator=12)
roots = st.integers(1, 4)
nonnegative = st.one_of(
    st.builds(Mag, fracs, roots), st.just(MAG_INF), st.integers(0, 40), fracs
)
magnitudes = st.one_of(
    nonnegative,
    st.integers(-40, -1),
    st.fractions(min_value=Fraction(-40), max_value=Fraction(0), max_denominator=12),
)


class TestIntegerRoot:
    @given(st.integers(0, 10**8), st.integers(1, 5))
    def test_floor_root(self, n, k):
        r, exact = integer_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k
        assert exact == (r**k == n)


class TestMag:
    def test_perfect_square_reduces(self):
        assert Mag(Fraction(4), 2) == Mag(Fraction(2), 1)
        assert Mag(Fraction(4), 2).is_rational

    def test_partial_reduction(self):
        m = Mag(Fraction(64), 4)  # 64^(1/4) = 8^(1/2)
        assert m.root == 2 and m.power == 8

    def test_irrational_comparison(self):
        assert Mag(Fraction(2), 2) < Fraction(3, 2)
        assert Mag(Fraction(2), 2) > Fraction(7, 5)

    @given(fracs, roots, fracs, roots)
    def test_comparison_consistent_with_floats(self, p, r, q, s):
        a, b = Mag(p, r), Mag(q, s)
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9:
            assert (a < b) == (fa < fb)

    @given(fracs, roots, fracs, roots)
    def test_multiplication(self, p, r, q, s):
        a, b = Mag(p, r), Mag(q, s)
        assert abs(float(a * b) - float(a) * float(b)) < 1e-6 * (1 + float(a) * float(b))

    def test_division_exact(self):
        assert Mag(Fraction(8), 2) / Mag(Fraction(2), 2) == 2

    def test_negative_comparisons(self):
        m = Mag(Fraction(1, 2))
        assert m > Fraction(-1)
        assert not m < Fraction(-5)

    def test_approx(self):
        assert Mag(Fraction(2), 2).approx(5) == "1.41421"
        assert Mag(Fraction(9, 4)).approx(3) == "2.250"

    def test_mag_max(self):
        assert mag_max([Mag(Fraction(2), 2), Fraction(1)]) == Mag(Fraction(2), 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Mag(Fraction(-1))


class TestInfinity:
    def test_value(self):
        assert not MAG_INF.is_finite and not MAG_INF.is_rational
        assert Mag.of(1).is_finite
        assert str(MAG_INF) == "inf" and float(MAG_INF) == float("inf")
        with pytest.raises(ValueError):
            MAG_INF.as_fraction()

    def test_order(self):
        assert Mag.of(1) < MAG_INF and MAG_INF > Fraction(10**9) and 7 < MAG_INF
        assert MAG_INF == MAG_INF and MAG_INF != Mag.of(1) and MAG_INF <= MAG_INF
        assert max([MAG_INF, Mag.of(1)]) == MAG_INF
        assert mag_max([Mag(Fraction(2), 2), MAG_INF, 3]) == MAG_INF

    def test_arithmetic_raises(self):
        for op in (
            lambda: MAG_INF * Mag.of(2),
            lambda: Mag.of(0) * MAG_INF,
            lambda: 2 * MAG_INF,
            lambda: MAG_INF / Mag.of(2),
            lambda: Mag.of(2) / MAG_INF,
            lambda: MAG_INF**0,
            lambda: MAG_INF**2,
        ):
            with pytest.raises(ValueError):
                op()

    def test_other_roots_zero_rejected(self):
        with pytest.raises(ValueError):
            Mag(Fraction(2), 0)

    @given(magnitudes, magnitudes)
    def test_total_order(self, a, b):
        assert [a < b, a == b, a > b].count(True) == 1
        assert (a <= b) == (a < b or a == b) and (a >= b) == (a > b or a == b)
        assert (a < b) == (b > a) and (a == b) == (b == a)

    @given(st.lists(magnitudes, max_size=8), st.lists(nonnegative, max_size=8))
    def test_sorted_and_mag_max(self, values, nonneg):
        ordered = sorted(values + [MAG_INF])
        assert ordered[-1] == MAG_INF
        assert all(a <= b for a, b in zip(ordered, ordered[1:]))
        assert mag_max(nonneg + [MAG_INF]) == MAG_INF
        assert (mag_max(nonneg) == MAG_INF) == (MAG_INF in nonneg)


class TestFractionFormat:
    @given(st.fractions(max_denominator=50))
    def test_round_trip(self, q):
        assert parse_fraction(format_fraction(q)) == q
