import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvsplit import (
    IDENTITY,
    IntMatrix2,
    PrimitiveSlope,
    apply,
    format_matrix,
    format_slope,
    intersection_number,
    is_anosov,
    mat_pow,
    monodromy_form,
    parse_matrix,
    parse_slope,
    power_trace,
    require_anosov,
)
from solvsplit.errors import NotAnosov, NotSL2, NotUnimodular, ParseError

from _helpers import random_anosov, random_primitive, random_sl2


def slope(p, q):
    return PrimitiveSlope(p, q)


class TestSlopes:
    def test_canonicalization(self):
        assert slope(-1, 0) == slope(1, 0)
        assert slope(2, -3) == PrimitiveSlope(-2, 3)
        assert slope(0, -1) == slope(0, 1)
        assert slope(3, 2).vector() == (3, 2)

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveSlope(2, 4)
        with pytest.raises(ValueError):
            PrimitiveSlope(0, 0)

    def test_intersection_examples(self):
        assert intersection_number(slope(1, 0), slope(0, 1)) == 1
        assert intersection_number(slope(2, 3), slope(3, 2)) == 5
        assert intersection_number(slope(5, 7), slope(5, 7)) == 0

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_intersection_symmetric_and_definite(self, p, q):
        from math import gcd

        if gcd(p, q) != 1:
            return
        c = slope(p, q)
        c2 = slope(1, 2)
        assert intersection_number(c, c2) == intersection_number(c2, c)
        assert (intersection_number(c, c2) == 0) == (c == c2)


class TestApply:
    def test_examples(self):
        L = IntMatrix2(3, -1, 1, 0)
        assert apply(L, slope(0, 1)) == slope(1, 0)
        assert apply(L, slope(2, 3)) == slope(3, 2)
        assert apply(IDENTITY, slope(5, 7)) == slope(5, 7)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            apply(IntMatrix2(2, 0, 0, 2), slope(1, 0))


class TestMonodromyForm:
    @pytest.mark.parametrize(
        "mat,coeffs,disc",
        [
            (IntMatrix2(3, -1, 1, 0), (1, -3, 1), 5),
            (IntMatrix2(2, 1, 1, 1), (1, -1, -1), 5),
            (IntMatrix2(1, 2, 2, 5), (2, 4, -2), 32),
        ],
    )
    def test_examples(self, mat, coeffs, disc):
        form = monodromy_form(mat)
        assert (form.qa, form.qb, form.qc) == coeffs
        assert form.disc == disc

    def test_rejects_det_minus_one(self):
        with pytest.raises(NotSL2):
            monodromy_form(IntMatrix2(1, 0, 0, -1))

    def test_form_matches_intersection_number(self):
        rng = random.Random(11)
        for _ in range(10_000):
            L = random_sl2(rng, factors=5)
            v = random_primitive(rng, bound=30)
            expected = abs(monodromy_form(L).evaluate(*v.vector()))
            assert intersection_number(v, apply(L, v)) == expected

    def test_conjugation_equivariance(self):
        rng = random.Random(12)
        for _ in range(10_000):
            L = random_sl2(rng, factors=4)
            K = random_sl2(rng, factors=4)
            v = random_primitive(rng, bound=20)
            conjugated = K @ L @ K.inverse()
            lhs = monodromy_form(conjugated).evaluate(*apply(K, v).vector())
            assert lhs == monodromy_form(L).evaluate(*v.vector())

    def test_disc_is_trace_squared_minus_four(self):
        rng = random.Random(13)
        for _ in range(2000):
            L = random_sl2(rng)
            assert monodromy_form(L).disc == L.trace() ** 2 - 4


class TestAnosov:
    def test_examples(self):
        assert is_anosov(IntMatrix2(2, 1, 1, 1))
        assert not is_anosov(IntMatrix2(1, 1, 0, 1))
        assert not is_anosov(IntMatrix2(0, -1, 1, 0))

    def test_guard(self):
        require_anosov(IntMatrix2(-3, -1, 1, 0))
        with pytest.raises(NotSL2, match="^B has det -1"):
            require_anosov(IntMatrix2(1, 0, 0, -1), "B")
        with pytest.raises(NotAnosov, match="^matrix has trace 2"):
            require_anosov(IntMatrix2(1, 1, 0, 1))


class TestPowers:
    def test_power_trace_examples(self):
        assert [power_trace(3, n) for n in range(5)] == [2, 3, 7, 18, 47]
        assert all(power_trace(2, n) == 2 for n in range(8))
        assert power_trace(4, 2) == 14

    def test_mat_pow_examples(self):
        L = IntMatrix2(3, -1, 1, 0)
        assert mat_pow(L, 2) == IntMatrix2(8, -3, 3, -1)
        assert mat_pow(L, -1) == IntMatrix2(0, 1, -1, 3)
        assert mat_pow(IntMatrix2(7, 3, 2, 1), 0) == IDENTITY

    def test_mat_pow_negative_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            mat_pow(IntMatrix2(2, 0, 0, 2), -1)

    def test_power_trace_matches_mat_pow(self):
        rng = random.Random(14)
        for _ in range(300):
            L = random_anosov(rng, max_trace=12)
            n = rng.randint(0, 30)
            expected = power_trace(abs(L.trace()), n)
            assert abs(mat_pow(L, n).trace()) == expected
            # inversion preserves traces, so negative powers match too
            assert abs(mat_pow(L, -n).trace()) == expected


class TestTextFormats:
    def test_parse_matrix(self):
        assert parse_matrix("2,1;1,1") == IntMatrix2(2, 1, 1, 1)
        assert parse_matrix(" -3 , 1 ; 0 , -2 ") == IntMatrix2(-3, 1, 0, -2)

    @pytest.mark.parametrize("bad", ["", "1,2", "1,2;3", "1,2;3,x", "1;2;3,4"])
    def test_parse_matrix_errors(self, bad):
        with pytest.raises(ParseError):
            parse_matrix(bad)

    def test_parse_slope(self):
        assert parse_slope("3/2") == slope(3, 2)
        assert parse_slope("-1/0") == slope(1, 0)
        with pytest.raises(ParseError):
            parse_slope("2/4")

    @given(st.integers(), st.integers(), st.integers(), st.integers())
    def test_matrix_round_trip(self, a, b, c, d):
        M = IntMatrix2(a, b, c, d)
        assert parse_matrix(format_matrix(M)) == M

    def test_slope_round_trip(self):
        rng = random.Random(15)
        for _ in range(500):
            s = random_primitive(rng, bound=10_000)
            assert parse_slope(format_slope(s)) == s
