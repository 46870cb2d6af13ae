import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from solvsplit import (
    IntMatrix2,
    PrimitiveSlope,
    are_conjugate,
    classes_of_trace,
    classify,
    cyclic_word,
    mat_pow,
    monodromy_form,
    represent_unit,
)
from solvsplit.conjugacy import R, S, CyclicWord, _peel_word, _reduce_to_positive_word
from solvsplit.errors import NotAnosov, NotSL2, TraceTooSmall, VerificationError

from _helpers import (
    conjugator_search,
    least_pair_rotation,
    letter_product,
    long_conjugator,
    random_anosov,
    random_sl2,
    unit_exists_brute,
    word_product,
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


class TestEngineChecks:
    def test_peel_rejects_non_words(self):
        with pytest.raises(VerificationError, match="stuck"):
            _peel_word(IntMatrix2(3, -1, 1, 0))
        # S R is positive but starts with an S-block
        with pytest.raises(VerificationError, match="block structure"):
            _peel_word(S @ R)

    def test_peel_blocks(self):
        assert _peel_word(word_product((10**15, 7, 1, 10**9))) == (10**15, 7, 1, 10**9)

    def test_checks_survive_optimized_mode(self):
        code = (
            "from solvsplit import IntMatrix2\n"
            "from solvsplit.conjugacy import _reduce_to_positive_word\n"
            "from solvsplit.errors import VerificationError\n"
            "try:\n"
            "    _reduce_to_positive_word(IntMatrix2(1, 5, 0, 1))\n"
            "except VerificationError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "raised"

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
