import math
import random
from itertools import combinations, combinations_with_replacement

import pytest

from solvsplit import (
    IntMatrix2,
    are_conjugate,
    classes_of_trace,
    has_power_with_trace,
    intertwiner,
    power_trace,
    virtually_conjugate,
)
from solvsplit.conjugacy import least_form_vector
from solvsplit.core_algebra import monodromy_form
from solvsplit.errors import NotAnosov, NotSL2

from _helpers import (
    least_intertwiner_index,
    long_conjugator,
    random_anosov,
    random_sl2,
)

A0 = IntMatrix2(2, 1, 1, 1)
B0 = IntMatrix2(3, -1, 1, 0)


class TestIntertwiner:
    def test_hand_example(self):
        w = intertwiner(A0, B0)
        assert w.P @ A0 == B0 @ w.P
        assert w.index == 1
        # the specific solution [[0,1],[-1,2]] is one valid witness
        P = IntMatrix2(0, 1, -1, 2)
        assert P @ A0 == B0 @ P == IntMatrix2(1, 1, 0, 1)

    def test_identity_pair(self):
        w = intertwiner(A0, A0)
        assert w.index == 1 and w.P @ A0 == A0 @ w.P

    def test_unequal_traces_give_none(self):
        assert intertwiner(B0, IntMatrix2(4, -1, 1, 0)) is None

    def test_witness_is_primitive_and_nonsingular(self):
        rng = random.Random(51)
        for _ in range(60):
            A = random_anosov(rng, max_trace=12)
            B = random_anosov(rng, max_trace=12)
            if A.trace() != B.trace():
                assert intertwiner(A, B) is None
                continue
            w = intertwiner(A, B)
            assert w is not None
            assert w.P @ A == B @ w.P
            assert w.P.det() != 0
            assert math.gcd(*w.P.entries()) == 1
            assert w.index == abs(w.P.det())

    def test_symmetry_of_success(self):
        rng = random.Random(52)
        for _ in range(40):
            A = random_anosov(rng, max_trace=10)
            B = random_anosov(rng, max_trace=10)
            assert (intertwiner(A, B) is None) == (intertwiner(B, A) is None)

    def test_equal_trace_pairs_from_class_list(self):
        for t in range(3, 13):
            reps = classes_of_trace(t)
            for A, B in combinations(reps, 2):
                w = intertwiner(A, B)
                assert w is not None and w.P @ A == B @ w.P

    def test_sl_conjugate_pairs_get_index_one(self):
        rng = random.Random(53)
        from _helpers import random_sl2

        for _ in range(50):
            A = random_anosov(rng, max_trace=14)
            K = random_sl2(rng)
            B = K @ A @ K.inverse()
            assert are_conjugate(A, B).conjugate
            assert intertwiner(A, B).index == 1

    def test_index_is_least_on_class_pairs(self):
        for t in [*range(3, 31), *range(-30, -2)]:
            for A, B in combinations_with_replacement(classes_of_trace(t), 2):
                assert intertwiner(A, B).index == least_intertwiner_index(A, B, 30)

    def test_pinned_trace_40_pair(self):
        # a 21x21 box of kernel combinations reported 15 here
        A, B = IntMatrix2(33, 10, 23, 7), IntMatrix2(35, 6, 29, 5)
        assert intertwiner(A, B).index == 5 == least_intertwiner_index(A, B, 40)

    def test_index_is_conjugation_invariant(self):
        rng = random.Random(55)
        for _ in range(12):
            t = rng.randint(5, 40)
            A, B = (rng.choice(classes_of_trace(t)) for _ in range(2))
            K, J = long_conjugator(rng, 250), long_conjugator(rng, 250)
            A2, B2 = K @ A @ K.inverse(), J @ B @ J.inverse()
            assert max(abs(e) for e in A2.entries()).bit_length() > 450
            w = intertwiner(A2, B2)
            assert w.P @ A2 == B2 @ w.P
            assert w.index == intertwiner(A, B).index

    def test_index_one_exactly_for_gl_conjugate_pairs(self):
        rng = random.Random(56)
        ones = 0
        for _ in range(120):
            A = random_anosov(rng, max_trace=12)
            t = A.trace()
            K = random_sl2(rng)
            B = K @ rng.choice(classes_of_trace(t)) @ K.inverse()
            gl = are_conjugate(A, B, "gl").conjugate
            assert (intertwiner(A, B).index == 1) == gl
            ones += gl
        assert 0 < ones < 120

    def test_rejects_bad_input(self):
        with pytest.raises(NotSL2):
            intertwiner(IntMatrix2(1, 0, 0, -1), B0)
        with pytest.raises(NotAnosov):
            intertwiner(IntMatrix2(1, 1, 0, 1), B0)


class TestLeastFormVector:
    def test_least_value_against_box(self):
        rng = random.Random(57)
        for _ in range(60):
            L = random_anosov(rng, max_trace=30, conj_factors=3)
            form = monodromy_form(L)
            v = least_form_vector(L)
            assert math.gcd(*v) == 1
            least = min(
                abs(form.evaluate(p, q))
                for p in range(-40, 41)
                for q in range(0, 41)
                if math.gcd(p, q) == 1
            )
            assert abs(form.evaluate(*v)) == least


class TestVirtuallyConjugate:
    def test_examples(self):
        assert virtually_conjugate(A0, B0)
        assert not virtually_conjugate(B0, IntMatrix2(4, -1, 1, 0))
        assert virtually_conjugate(A0, A0)

    def test_witness_attached_when_true(self):
        result = virtually_conjugate(A0, B0)
        assert result.witness is not None
        assert result.witness.P @ A0 == B0 @ result.witness.P


class TestHasPowerWithTrace:
    def test_examples(self):
        assert has_power_with_trace(A0, 7) == 2
        assert has_power_with_trace(A0, 18) == 3
        assert has_power_with_trace(A0, 10) is None

    def test_negative_trace_alternation(self):
        L = IntMatrix2(-2, -1, -1, -1)  # trace -3
        assert has_power_with_trace(L, -3) == 1
        assert has_power_with_trace(L, 7) == 2
        assert has_power_with_trace(L, -18) == 3
        assert has_power_with_trace(L, 18) is None

    def test_long_power(self):
        L3 = IntMatrix2(3, -1, 1, 0)
        assert has_power_with_trace(L3, power_trace(3, 3000)) == 3000

    def test_small_targets_fail_fast(self):
        assert has_power_with_trace(A0, 2) is None
        assert has_power_with_trace(A0, 0) is None

    def test_consistency_with_matrix_powers(self):
        from solvsplit import mat_pow

        rng = random.Random(54)
        for _ in range(60):
            A = random_anosov(rng, max_trace=9)
            n = rng.randint(1, 6)
            s = mat_pow(A, n).trace()
            found = has_power_with_trace(A, s)
            assert found is not None and found <= n
            assert mat_pow(A, found).trace() == s
