from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from domcert.vectors import Vector, combine

vectors = st.dictionaries(
    st.integers(1, 8),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
    max_size=5,
).map(Vector.of)


class TestVector:
    def test_no_zero_entries(self):
        v = Vector.of({1: 0, 2: 3})
        assert v.support == (2,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Vector(((2, Fraction(1)), (1, Fraction(1))))
        with pytest.raises(ValueError):
            Vector(((0, Fraction(1)),))
        with pytest.raises(ValueError):
            Vector(((1, Fraction(0)),))

    @given(vectors, vectors)
    def test_addition_coefficients(self, x, y):
        z = x + y
        for i in set(x.support) | set(y.support):
            assert z.coeff(i) == x.coeff(i) + y.coeff(i)

    @given(vectors)
    def test_sub_self_is_zero(self, x):
        assert (x - x).is_zero

    def test_dot(self):
        u = Vector.of({1: 2, 2: 3})
        v = Vector.of({2: 5, 3: 7})
        assert u.dot(v) == 15

    @given(vectors)
    def test_json_round_trip(self, x):
        assert Vector.loads(x.dumps()) == x

    def test_combine(self):
        vs = [Vector.basis(1), Vector.basis(2)]
        out = combine(vs, [Fraction(2), Fraction(-1)])
        assert out.coeff(1) == 2 and out.coeff(2) == -1
        # cancelled entries are dropped, not stored as zeros
        u = Vector.of({1: 1, 2: Fraction(1, 2), 3: 2})
        w = Vector.of({2: 1, 3: 4, 5: Fraction(1, 3)})
        out = combine([u, w, Vector.basis(7)], [2, -1, 0])
        assert out == Vector.of({1: 2, 5: Fraction(-1, 3)})
        assert out == u.scale(2) - w
        assert combine([u, u], [1, -1]) == Vector() and combine([], []) == Vector()
