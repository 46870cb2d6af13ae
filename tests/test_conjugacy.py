import ast
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

import pytest

from solvsplit import (
    IDENTITY,
    IntMatrix2,
    PrimitiveSlope,
    are_conjugate,
    classes_of_trace,
    classify,
    conjugacy,
    cyclic_word,
    mat_pow,
    monodromy_form,
    represent_unit,
)
from solvsplit.conjugacy import (
    R,
    S,
    CyclicWord,
    _WINDOW,
    _batch,
    _least_pair_start,
    _mirror_rotation,
    _reduce_to_positive_word,
    _surd_floor,
    inverse_word,
    symmetries,
)
from solvsplit.errors import NotAnosov, NotSL2, TraceTooSmall, VerificationError

from _helpers import (
    conjugator_search,
    gen_power,
    least_pair_rotation,
    letter_product,
    long_conjugator,
    random_anosov,
    random_sl2,
    reduce_step_by_step,
    unit_exists_brute,
    word_product,
    words_of_trace,
)

MIRROR = IntMatrix2(1, 0, 0, -1)


class TestCyclicWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicWord(())
        with pytest.raises(ValueError):
            CyclicWord((1, 2, 3))
        with pytest.raises(ValueError):
            CyclicWord((1, 0))

    def test_canonical_rotation(self):
        assert CyclicWord.canonical((2, 1, 1, 3)).exponents == (1, 3, 2, 1)

    def test_least_pair_start_is_the_first_least_rotation(self):
        # the first start matters: a proper power's starts give different T
        rng = random.Random(41)
        words = [w[i:] + w[:i] for t in range(3, 41) for w in words_of_trace(t)
                 for i in range(0, len(w), 2)]
        words += [tuple(rng.randint(1, 4) for _ in range(2 * rng.randint(1, 12)))
                  for _ in range(2000)]
        for _ in range(2000):
            base = tuple(rng.randint(1, 3) for _ in range(2 * rng.randint(1, 4)))
            n = rng.randint(2, 6)
            i = 2 * rng.randrange(len(base) // 2 * n)
            words.append((base * n)[i:] + (base * n)[:i])
        for w in words:
            i = 2 * _least_pair_start(w)
            least = least_pair_rotation(w)
            assert w[i:] + w[:i] == least, w
            assert all(w[j:] + w[:j] != least for j in range(0, i, 2)), w
            assert CyclicWord.canonical(w).exponents == least

    def test_canonical_word_of_a_long_power_stays_small(self):
        # 3000 pairs: every pair rotation at once would take over 100 MiB
        L = mat_pow(R @ S, 3000)
        tracemalloc.start()
        try:
            assert cyclic_word(L) == (1, CyclicWord((1, 1) * 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

    def test_matrix_materialization(self):
        assert CyclicWord((1, 1)).matrix() == R @ S == IntMatrix2(2, 1, 1, 1)
        assert CyclicWord((2, 1)).matrix() == IntMatrix2(3, 2, 1, 1)
        assert CyclicWord((1, 2)).matrix() == IntMatrix2(3, 1, 2, 1)

    def test_closed_form_matches_letter_product(self):
        rng = random.Random(20)
        for _ in range(200):
            exps = tuple(rng.randint(1, 6) for _ in range(2 * rng.randint(1, 4)))
            assert CyclicWord(exps).matrix() == letter_product(exps)

    def test_examples(self):
        assert cyclic_word(IntMatrix2(2, 1, 1, 1)) == (1, CyclicWord((1, 1)))
        assert cyclic_word(IntMatrix2(3, -1, 1, 0)) == (1, CyclicWord((1, 1)))
        assert cyclic_word(IntMatrix2(3, 2, 1, 1)) == (1, CyclicWord((2, 1)))
        assert cyclic_word(IntMatrix2(3, 1, 2, 1)) == (1, CyclicWord((1, 2)))

    def test_sign_tracks_trace(self):
        sign, word = cyclic_word(IntMatrix2(-2, -1, -1, -1))
        assert sign == -1 and word == CyclicWord((1, 1))

    def test_rejects_non_anosov(self):
        with pytest.raises(NotAnosov):
            cyclic_word(IntMatrix2(1, 1, 0, 1))
        with pytest.raises(NotSL2):
            cyclic_word(IntMatrix2(1, 0, 0, -1))

    def test_conjugation_invariance(self):
        rng = random.Random(21)
        for _ in range(1000):
            L = random_anosov(rng, max_trace=30)
            K = random_sl2(rng)
            assert cyclic_word(L) == cyclic_word(K @ L @ K.inverse())

    def test_word_matrix_is_conjugate_to_input(self):
        rng = random.Random(22)
        for _ in range(200):
            L = random_anosov(rng)
            sign, word = cyclic_word(L)
            target = word.matrix() if sign == 1 else -word.matrix()
            assert are_conjugate(L, target).conjugate


class TestAreConjugate:
    def test_trace3_pair_with_witness(self):
        A, B = IntMatrix2(2, 1, 1, 1), IntMatrix2(3, -1, 1, 0)
        result = are_conjugate(A, B)
        assert result.conjugate
        K = result.witness
        assert K.det() == 1 and K @ A @ K.inverse() == B

    def test_distinct_trace4_classes(self):
        A, B = IntMatrix2(3, 2, 1, 1), IntMatrix2(3, 1, 2, 1)
        assert not are_conjugate(A, B).conjugate
        assert conjugator_search(A, B, bound=50) == []

    def test_gl_but_not_sl(self):
        A, B = IntMatrix2(4, -1, 1, 0), IntMatrix2(4, 1, -1, 0)
        assert not are_conjugate(A, B, "sl").conjugate
        result = are_conjugate(A, B, "gl")
        assert result.conjugate
        K = result.witness
        assert K.det() == -1 and K @ A @ K.inverse() == B

    def test_group_argument_validation(self):
        with pytest.raises(ValueError):
            are_conjugate(IntMatrix2(2, 1, 1, 1), IntMatrix2(2, 1, 1, 1), "psl")

    def test_agrees_with_bounded_search(self):
        rng = random.Random(23)
        for _ in range(40):
            A = random_anosov(rng, max_trace=10, conj_factors=2)
            if rng.random() < 0.5:
                K = random_sl2(rng, factors=2)
                B = K @ A @ K.inverse()
            else:
                B = random_anosov(rng, max_trace=10, conj_factors=2)
            found = conjugator_search(A, B, bound=50, first=True)
            if found:
                assert are_conjugate(A, B).conjugate


class TestRepresentUnit:
    def test_examples(self):
        w = represent_unit(IntMatrix2(3, -1, 1, 0))
        assert w.curve == PrimitiveSlope(3, 1) and w.value == 1
        w = represent_unit(IntMatrix2(2, 1, 1, 1))
        assert w.curve == PrimitiveSlope(1, 0) and w.value == 1
        assert represent_unit(IntMatrix2(1, 2, 2, 5)) is None

    def test_negative_value_witness(self):
        # Q = -(x^2 + 4xy + y^2) represents -1 but never +1 (mod 3 obstruction)
        w = represent_unit(IntMatrix2(4, 1, -1, 0))
        assert w is not None and w.value == -1
        form = monodromy_form(IntMatrix2(4, 1, -1, 0))
        assert form.evaluate(*w.curve.vector()) == -1

    def test_witness_always_verifies(self):
        rng = random.Random(24)
        for _ in range(300):
            L = random_anosov(rng)
            w = represent_unit(L)
            if w is not None:
                assert monodromy_form(L).evaluate(*w.curve.vector()) == w.value

    def test_trace_pm3_always_represents_unit(self):
        rng = random.Random(25)
        for _ in range(200):
            K = random_sl2(rng)
            base = IntMatrix2(2, 1, 1, 1) if rng.random() < 0.5 else IntMatrix2(-2, -1, -1, -1)
            w = represent_unit(K @ base @ K.inverse())
            assert w is not None and w.value == 1

    def test_agrees_with_brute_force(self):
        rng = random.Random(26)
        for _ in range(25):
            L = random_anosov(rng, conj_factors=3)
            if unit_exists_brute(L, bound=200):
                assert represent_unit(L) is not None


class TestClassesOfTrace:
    def test_counts(self):
        assert len(classes_of_trace(3)) == 1
        assert len(classes_of_trace(-3)) == 1
        assert len(classes_of_trace(4)) == 2

    def test_rejects_small_trace(self):
        for t in (-2, -1, 0, 1, 2):
            with pytest.raises(TraceTooSmall):
                classes_of_trace(t)

    def test_representatives_are_canonical_words(self):
        reps = classes_of_trace(4)
        assert reps == [CyclicWord((1, 2)).matrix(), CyclicWord((2, 1)).matrix()]

    def test_negation_bijection(self):
        for t in (3, 4, 5, 6, 7):
            pos = classes_of_trace(t)
            neg = classes_of_trace(-t)
            assert len(pos) == len(neg)
            assert all(M.trace() == -t for M in neg)

    def test_representatives_pairwise_distinct(self):
        for t in (4, 5, 6, 8):
            reps = classes_of_trace(t)
            words = {cyclic_word(M) for M in reps}
            assert len(words) == len(reps)

    def test_matches_word_oracle(self):
        for t in range(3, 61):
            expected = [word_product(w) for w in sorted(words_of_trace(t))]
            assert classes_of_trace(t) == expected, f"trace {t}"
            assert classes_of_trace(-t) == [-M for M in expected], f"trace {-t}"

    def test_count_at_trace_1000(self):
        assert len(classes_of_trace(1000)) == 216

    def test_reduced_words_stop_the_reduction_at_once(self):
        # every pair rotation of a class's word is a reduced matrix, the
        # condition that ends the reduction and that enumeration lists
        for t in range(3, 41):
            for word in words_of_trace(t):
                for i in range(0, len(word), 2):
                    rotation = word[i:] + word[:i]
                    W = word_product(rotation)
                    assert _reduce_to_positive_word(W) == (rotation, IDENTITY), word

    def test_members_land_in_enumerated_classes(self):
        rng = random.Random(27)
        for _ in range(100):
            L = random_anosov(rng, max_trace=12, allow_negative=False)
            reps = classes_of_trace(L.trace())
            assert sum(are_conjugate(L, M).conjugate for M in reps) == 1


class TestReversalThroughWords:
    def test_inverse_has_reversed_word(self):
        # R^2 S inverted is conjugate to R S^2: blocks swap roles
        L = CyclicWord((2, 1)).matrix()
        sign, word = cyclic_word(mat_pow(L, -1))
        assert sign == 1 and word == CyclicWord((1, 2))


class TestWordSymmetries:
    """The words of L^-1 and of D L D, read off L's canonical data."""

    def test_agree_with_reducing_the_inverse_and_the_mirror(self):
        # full reductions of L^-1 and of D L D are the oracle
        rng = random.Random(33)
        for t in range(3, 41):
            for exps, sign in product(sorted(words_of_trace(t)), (1, -1)):
                W = word_product(exps)
                K = long_conjugator(rng, 64)
                L = K @ (W if sign == 1 else -W) @ K.inverse()
                _, word = cyclic_word(L)
                assert cyclic_word(mat_pow(L, -1)) == (sign, inverse_word(word))
                mirror_word = CyclicWord.canonical(_mirror_rotation(word))
                M = MIRROR @ L @ MIRROR
                assert cyclic_word(M) == (sign, mirror_word)
                E = symmetries(L)[1]
                if mirror_word == word:
                    assert E.det() == -1 and E @ L == L @ E
                else:
                    assert E is None


def _large_words(rng):
    """Known words with huge exponents: two-block shapes and 3-4 pair words."""
    words = []
    for k in (3, 10**6, 10**15, rng.randint(2, 10**15)):
        words += [(k, 1), (k, 2), (1, k)]
    for _ in range(6):
        pairs = rng.randint(3, 4)
        words.append(tuple(rng.randint(1, 10**9) for _ in range(2 * pairs)))
    return words


class TestLargeInputs:
    """Traces up to 10^15 and entries up to ~10^4 bits, answers known by construction."""

    def test_cyclic_word_of_conjugated_known_words(self):
        rng = random.Random(28)
        for exps in _large_words(rng):
            sign = rng.choice((1, -1))
            K = long_conjugator(rng, rng.choice((16, 1000, 10_000)))
            W = word_product(exps)
            L = K @ (W if sign == 1 else -W) @ K.inverse()
            assert cyclic_word(L) == (sign, CyclicWord(least_pair_rotation(exps)))

    def test_gl_witnesses_remultiply(self):
        rng = random.Random(29)
        for exps in _large_words(rng):
            sign = rng.choice((1, -1))
            W = word_product(exps)
            W = W if sign == 1 else -W
            K1 = long_conjugator(rng, rng.choice((16, 3000)))
            K2 = long_conjugator(rng, rng.choice((16, 10_000)))
            A = K1 @ W @ K1.inverse()
            for B in (K2 @ W @ K2.inverse(), K2 @ MIRROR @ W @ MIRROR @ K2.inverse()):
                result = are_conjugate(A, B, "gl")
                assert result.conjugate
                K = result.witness
                assert K.det() in (1, -1) and K @ A == B @ K

    def test_distinct_large_words_not_conjugate(self):
        rng = random.Random(30)
        k = 10**15
        K = long_conjugator(rng, 10_000)
        A = K @ word_product((k, 2)) @ K.inverse()
        B = word_product((2 * k, 1))
        assert A.trace() == B.trace()
        assert not are_conjugate(A, B, "gl").conjugate

    def test_trace_1e15_standard_form(self):
        # one whole block per quotient: a 10^15-letter word costs a few steps
        m = 10**15
        K = long_conjugator(random.Random(31), 200)
        L = K @ IntMatrix2(m, -1, 1, 0) @ K.inverse()
        assert cyclic_word(L) == (1, CyclicWord((m - 2, 1)))
        # 22k-bit entries: the unit curve comes off the canonical conjugator
        K = mat_pow(R @ S, 8000)
        L = K @ IntMatrix2(7, -1, 1, 0) @ K.inverse()
        report = classify(L)
        assert report.genus == 2
        Ksf = report.standard_form.conjugator
        assert Ksf @ L @ Ksf.inverse() == IntMatrix2(7, -1, 1, 0)
        assert abs(monodromy_form(L).evaluate(*report.witness_curve.vector())) == 1


def _is_primitive(word: tuple[int, ...]) -> bool:
    return all(word[i:] + word[:i] != word for i in range(2, len(word), 2))


class TestWordEngine:
    """One continued-fraction loop reduces the matrix and reads its word."""

    def test_proper_powers_read_the_full_word(self):
        # the fixed point comes back after the primitive period; the word of
        # U^n must still come out n times as long
        rng = random.Random(35)
        for t in range(3, 13):
            for exps in sorted(filter(_is_primitive, words_of_trace(t))):
                for n, bits, sign in product(range(2, 6), (64, 1000), (1, -1)):
                    W = word_product(exps * n)
                    K = long_conjugator(rng, bits)
                    L = K @ (W if sign == 1 else -W) @ K.inverse()
                    assert cyclic_word(L) == (sign, CyclicWord.canonical(exps * n)), (exps, n)

    def test_huge_blocks_are_read_whole(self):
        exps = (10**15, 7, 1, 10**9)
        assert _reduce_to_positive_word(word_product(exps)) == (exps, IDENTITY)

    def test_all_ones_input_stays_within_the_step_cap(self):
        # golden-ratio quotients are the most steps per bit, in both the
        # reduction (a fixed point whose expansion starts with 6000 ones) and
        # the word read (2000 blocks)
        K = mat_pow(R @ S, 3000) @ R
        L = K @ mat_pow(R @ S, 1000) @ K.inverse()
        assert max(abs(e) for e in L.entries()).bit_length() > 9000
        assert cyclic_word(L) == (1, CyclicWord((1, 1) * 1000))
        assert cyclic_word(-L) == (-1, CyclicWord((1, 1) * 1000))

    def test_55k_bit_all_ones_conjugate(self):
        # about 38600 reduction steps, nearly all taken in batches
        K = mat_pow(R @ S, 19300) @ R
        L = K @ mat_pow(R @ S, 1000) @ K.inverse()
        assert 54_000 < max(abs(e) for e in L.entries()).bit_length() < 56_000
        assert cyclic_word(L) == (1, CyclicWord((1, 1) * 1000))


def _just_above_batching(rng, W: IntMatrix2) -> IntMatrix2:
    """K W K^-1 whose min(|2b|, |2c|) passes the batching size by 1 to 24 bits.

    K grows one small factor at a time, so the conjugate lands a batch or two
    from the reduced state, where a batch may run past it.
    """
    target = W.trace().bit_length() + _WINDOW + rng.randint(1, 24)
    K = IDENTITY
    while True:
        L = K @ W @ K.inverse()
        if min(abs(2 * L.b), abs(2 * L.c)).bit_length() > target:
            return L
        K = K @ gen_power(rng.choice("RS"), rng.randint(1, 3) * rng.choice((1, -1)))


def _oracle_corpus():
    """Positive-trace inputs for `_reduce_to_positive_word`, each with a label."""
    rng = random.Random(42)
    D = IntMatrix2(1, 0, 0, -1)
    small = [(2, 1), (1, 1), (3, 5, 1, 2), (7, 1)]
    corpus = []
    # entries from 10^2 to 3*10^4 bits; quotients up to 9 or 999, blocks up to 10^15
    for bits, max_exp in product((50, 200, 700, 2000, 6000), (9, 999)):
        for _ in range(6):
            exps = rng.choice(small + [(rng.randint(1, 10**15), rng.randint(1, 999))])
            K = long_conjugator(rng, bits, max_exp)
            corpus.append(("random", K @ word_product(exps) @ K.inverse()))
    for max_exp in (9, 999):
        K = long_conjugator(rng, 15_000, max_exp)
        corpus.append(("30k bits", K @ word_product((5, 3)) @ K.inverse()))
    # all-ones conjugators, the most steps per bit
    for m, tail in product((100, 1000, 4000), (R, S, IDENTITY)):
        K = mat_pow(R @ S, m) @ tail
        corpus.append(("all ones", K @ word_product((4, 1)) @ K.inverse()))
    # proper powers
    for exps, n in product(small[:3], (2, 3, 5)):
        K = long_conjugator(rng, rng.choice((300, 3000)), rng.choice((9, 999)))
        corpus.append(("power", K @ word_product(exps * n) @ K.inverse()))
    # already reduced, the batching size passed or not
    for exps in small + [(10**15, 7, 1, 10**9), (1, 1) * 2000, (3, 1) * 400]:
        corpus.append(("reduced", word_product(exps)))
    # just above the batching size, where a batch can pass the reduced state
    for _ in range(60):
        exps = tuple(rng.randint(1, rng.choice((3, 999))) for _ in range(2 * rng.randint(1, 3)))
        corpus.append(("threshold", _just_above_batching(rng, word_product(exps))))
    # negated entries, for q < 0 and p + sqrt(d) < 0: D M D negates b and c,
    # and M^-1 negates them and swaps a and d (a negative trace reaches the
    # reduction already negated)
    corpus += [(f"{label}, negated b, c", D @ M @ D) for label, M in corpus[::2]]
    corpus += [(f"{label}, inverse", M.inverse()) for label, M in corpus[::3]]
    return corpus


class TestBatchedReduction:
    """The batched reduction takes exactly the one-step-at-a-time loop's steps."""

    def test_matches_the_step_oracle(self):
        corpus = _oracle_corpus()
        for label, M in corpus:
            exps, U = reduce_step_by_step(M)
            assert _reduce_to_positive_word(M) == (exps, IntMatrix2(*U)), label
        # the corpus reaches the batches, both signs of q and of the numerator,
        # and 3*10^4-bit entries
        batched = [
            M for _, M in corpus
            if min(abs(2 * M.b), abs(2 * M.c)).bit_length() > M.trace().bit_length() + _WINDOW
        ]
        assert len(batched) > 200
        assert sum(M.c < 0 for M in batched) > 50
        sd = [isqrt(M.trace() ** 2 - 4) for M in batched]
        assert sum(M.a - M.d + s < 0 for M, s in zip(batched, sd)) > 50
        assert max(max(abs(e) for e in M.entries()).bit_length() for M in batched) > 30_000

    def test_a_quotient_past_the_window_is_one_step(self, monkeypatch):
        # R^k M R^-k with k = 2^700 and M a 400-bit conjugate: x's R quotient
        # is about 2^700, so q's top window bits are 0 and that batch proves
        # no step
        batches = []

        def recorded(n, q):
            batches.append(_batch(n, q))
            return batches[-1]

        monkeypatch.setattr(conjugacy, "_batch", recorded)
        K = long_conjugator(random.Random(23), 400)
        P = mat_pow(R, 2**700)
        L = P @ K @ IntMatrix2(5, 2, 2, 1) @ K.inverse() @ P.inverse()
        exps, U = reduce_step_by_step(L)
        assert _reduce_to_positive_word(L) == (exps, IntMatrix2(*U))
        assert exps == (2, 2)
        assert None in batches

    def test_a_batch_holds_for_every_theta(self):
        # _batch(n, q) proves its steps for all x = (n + theta) / q, 0 < theta < 1;
        # they must be a prefix, ending on an S step, of the expansion of both
        # theta = 2^-e and 1 - 2^-e, taken exactly on the rational x by Euclid
        def prefixes(u, v):
            X, found = (1, 0, 0, 1), set()
            if v < 0:
                u, v = -u, -v
            k, u = divmod(u, v)
            while u:
                X = (X[0], X[1] + k * X[0], X[2], X[3] + k * X[2])
                k, v = divmod(v, u)
                X = (X[0] + k * X[1], X[1], X[2] + k * X[3], X[3])
                found.add(X)
                if not v:
                    break
                k, u = divmod(u, v)
            return found

        def holds(n, q, e):
            X = _batch(n, q)
            if X is None:
                return False
            for num in ((n << e) + 1, ((n + 1) << e) - 1):
                assert X in prefixes(num, q << e), (n, q)
            return True

        # small operands fit the window whole, so the ends are n / q and
        # (n + 1) / q exactly, and an end's Euclid can stop after an S step
        for n, q in product(range(-30, 31), repeat=2):
            if q:
                holds(n, q, 64)
        rng = random.Random(43)
        batches = 0
        for _ in range(600):
            bits = rng.randint(_WINDOW + 1, 4 * _WINDOW)
            n = rng.getrandbits(bits) * rng.choice((1, -1))
            q = rng.getrandbits(bits + rng.randint(-24, 24)) * rng.choice((1, -1)) or 1
            batches += holds(n, q, bits + 64)
        assert batches > 400


class TestSurdFloor:
    """_surd_floor(p, q, isqrt(d)) is floor((p + sqrt(d)) / q)."""

    @staticmethod
    def oracle(p, q, d):
        # (p + x) / q never crosses an integer for isqrt(d) < x < isqrt(d) + 1,
        # so the midpoint of that interval has sqrt(d)'s floor
        return math.floor(Fraction(2 * (p + isqrt(d)) + 1, 2 * q))

    def test_every_small_operand(self):
        for d in (2, 3, 5, 8, 12, 21, 45, 77, 99, 120, 3601, 2**61 - 1, 10**40 - 4):
            sd = isqrt(d)
            for p in range(-60, 61):
                for q in range(-60, 61):
                    if q:
                        assert _surd_floor(p, q, sd) == self.oracle(p, q, d), (p, q, d)

    def test_random_200_bit_operands(self):
        rng = random.Random(61)
        for _ in range(3000):
            d = rng.getrandbits(rng.randint(2, 400)) + 2
            if isqrt(d) ** 2 == d:
                continue
            p = rng.getrandbits(200) * rng.choice((1, -1))
            q = (rng.getrandbits(rng.randint(1, 200)) or 1) * rng.choice((1, -1))
            assert _surd_floor(p, q, isqrt(d)) == self.oracle(p, q, d), (p, q, d)


class TestEngineChecks:
    def test_the_step_bound_stops_a_reduction_that_never_ends(self):
        # det 2: no conjugate is ever a word, so only the bound ends the loop,
        # on the small input in single steps and on the long one in batches
        M = IntMatrix2(3, 1, 1, 1)
        K = long_conjugator(random.Random(44), 600)
        L = K @ M @ K.inverse()
        assert 1100 < max(abs(e) for e in L.entries()).bit_length() < 1300
        assert min(abs(2 * L.b), abs(2 * L.c)).bit_length() > L.trace().bit_length() + _WINDOW
        for N in (M, L):
            with pytest.raises(VerificationError, match="did not terminate"):
                _reduce_to_positive_word(N)

    def test_checks_survive_optimized_mode(self):
        code = (
            "from solvsplit import IntMatrix2\n"
            "from solvsplit.conjugacy import _reduce_to_positive_word\n"
            "from solvsplit.errors import VerificationError\n"
            "for M in (IntMatrix2(1, 5, 0, 1), IntMatrix2(3, 1, 1, 1)):\n"
            "    try:\n"
            "        _reduce_to_positive_word(M)\n"
            "    except VerificationError:\n"
            "        print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.split() == ["raised", "raised"]

    def test_library_has_no_assert_statements(self):
        # assert vanishes under python -O; library checks must raise instead
        src = Path(__file__).resolve().parent.parent / "src" / "solvsplit"
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []
