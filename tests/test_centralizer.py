import random

import pytest

from solvsplit import (
    IntMatrix2,
    are_conjugate,
    centralizer_description,
    classify,
    commutes,
    express_power,
    hits_order2_cone,
    is_reversible,
    mat_pow,
    standard_form_parameter,
)
from solvsplit import centralizer, classification, conjugacy
from solvsplit.centralizer import GL_EXTRA_NEG, GL_EXTRA_POS
from solvsplit.errors import (
    NotAnosov,
    NotCommuting,
    NotExpressible,
    NotSL2,
    NotStandardForm,
)

from _helpers import (
    commuting_unimodular_scan,
    long_conjugator,
    random_sl2,
    signed_power_orbit,
    word_product,
    words_of_trace,
)

L3 = IntMatrix2(3, -1, 1, 0)
L3N = IntMatrix2(-3, -1, 1, 0)
L4 = IntMatrix2(4, -1, 1, 0)


class TestCommutes:
    def test_examples(self):
        assert commutes(IntMatrix2(-2, 1, -1, 1), L3)
        assert commutes(IntMatrix2(2, 1, -1, -1), L3N)
        assert not commutes(IntMatrix2(1, 1, 0, 1), L3)


class TestExpressPower:
    def test_identity_and_negative_identity(self):
        assert express_power(IntMatrix2(1, 0, 0, 1), L3) == (1, 0)
        assert express_power(IntMatrix2(-1, 0, 0, -1), L3) == (-1, 0)

    def test_example_negative_cube(self):
        assert express_power(IntMatrix2(-56, 15, -15, 4), L4) == (-1, 3)

    def test_long_inverse_power(self):
        assert express_power(mat_pow(L3, -3000), L3) == (1, -3000)

    def test_det_minus_one_is_not_expressible(self):
        with pytest.raises(NotExpressible):
            express_power(IntMatrix2(-2, 1, -1, 1), L3)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotSL2, match="^det 2 != 1"):
            express_power(IntMatrix2(2, 0, 0, 1), L3)

    def test_non_commuting_rejected(self):
        with pytest.raises(NotCommuting):
            express_power(IntMatrix2(1, 1, 0, 1), L3)

    def test_non_standard_form_rejected(self):
        with pytest.raises(NotStandardForm):
            express_power(IntMatrix2(1, 0, 0, 1), IntMatrix2(2, 1, 1, 1))

    @pytest.mark.parametrize("m", [3, -3, 4, -5, 7])
    def test_round_trip(self, m):
        L = IntMatrix2(m, -1, 1, 0)
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(-10, 10)
            sign = rng.choice((1, -1))
            K = mat_pow(L, n)
            if sign == -1:
                K = -K
            assert express_power(K, L) == (sign, n) or (
                n == 0 and express_power(K, L) == (sign, 0)
            )


class TestCentralizerDescription:
    def test_m3(self):
        desc = centralizer_description(L3)
        assert desc.gl_extra == GL_EXTRA_POS
        assert desc.gl_extra.det() == -1
        assert desc.gl_extra @ desc.gl_extra == L3
        assert desc.gl_extra_square == (1, 1)
        assert desc.reversible

    def test_m_minus_3(self):
        desc = centralizer_description(L3N)
        assert desc.gl_extra == GL_EXTRA_NEG
        # the square lands on -L, recorded rather than assumed
        assert desc.gl_extra_square == (-1, 1)
        assert desc.gl_extra @ desc.gl_extra == -L3N

    def test_m4_has_no_extra_coset(self):
        desc = centralizer_description(L4)
        assert desc.gl_extra is None
        assert not desc.reversible

    def test_rejects_non_standard_form(self):
        with pytest.raises(NotStandardForm):
            centralizer_description(IntMatrix2(2, 1, 1, 1))
        with pytest.raises(NotStandardForm):
            standard_form_parameter(IntMatrix2(2, -1, 1, 0))


class TestReversibility:
    def test_standard_forms(self):
        res = is_reversible(L3)
        assert res.reversible
        K = res.witness
        assert K @ L3 @ K.inverse() == mat_pow(L3, -1)
        assert not is_reversible(L4).reversible

    def test_hand_checked_witness_is_valid(self):
        K = IntMatrix2(1, -2, 1, -1)
        assert K @ L3 @ K.inverse() == mat_pow(L3, -1)

    def test_conjugate_of_trace3_form(self):
        res = is_reversible(IntMatrix2(2, 1, 1, 1))
        assert res.reversible
        K = res.witness
        L = IntMatrix2(2, 1, 1, 1)
        assert K @ L @ K.inverse() == mat_pow(L, -1)

    def test_reversible_outside_standard_forms(self):
        # trace 6 and genus 3, yet conjugate to its inverse
        L = IntMatrix2(5, 2, 2, 1)
        assert classify(L).genus == 3
        res = is_reversible(L)
        assert res.reversible
        K = res.witness
        assert K == IntMatrix2(-2, -1, 5, 2)
        assert K.det() == 1 and K @ L @ K.inverse() == mat_pow(L, -1)

    def test_rejects_non_anosov(self):
        with pytest.raises(NotAnosov):
            is_reversible(IntMatrix2(1, 1, 0, 1))

    def test_conjugation_invariance(self):
        rng = random.Random(32)
        for base in (L3, L4, IntMatrix2(5, -1, 1, 0)):
            expected = is_reversible(base).reversible
            for _ in range(60):
                K = random_sl2(rng)
                assert is_reversible(K @ base @ K.inverse()).reversible == expected


class TestCommutantScan:
    @pytest.mark.parametrize("m", [3, -3, 4, 5])
    def test_box_scan_matches_predicted_cosets(self, m):
        # smaller box here; the acceptance suite runs the full [-40, 40] scan
        L = IntMatrix2(m, -1, 1, 0)
        desc = centralizer_description(L)
        found = {K.entries() for K in commuting_unimodular_scan(L, bound=15)}
        expected = signed_power_orbit(L, bound=15, extra=desc.gl_extra)
        assert found == expected

    def test_det_minus_one_commutant_exists_as_the_scan_finds(self):
        # every class of trace 3..20, standard form or not, both signs
        cases = 0
        for t in range(3, 21):
            for exps in sorted(words_of_trace(t)):
                for sign in (1, -1):
                    L = word_product(exps) if sign == 1 else -word_product(exps)
                    scanned = any(K.det() == -1 for K in commuting_unimodular_scan(L, bound=12))
                    assert (conjugacy.symmetries(L)[1] is not None) == scanned
                    cases += 1
        assert cases == 156


class TestReductionCounts:
    """One reduction of L decides reversibility, the mirror and the det -1 coset."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []
        original = conjugacy._reduce_to_positive_word

        def counted(M):
            calls.append(M)
            return original(M)

        monkeypatch.setattr(conjugacy, "_reduce_to_positive_word", counted)

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        return count

    def test_one_reduction_for_non_reversible_input(self, reductions):
        K = long_conjugator(random.Random(34), 200)
        for W in (IntMatrix2(4, -1, 1, 0), word_product((1, 2, 1, 3)), -word_product((5, 2))):
            L = K @ W @ K.inverse()
            assert not is_reversible(L).reversible
            assert reductions(is_reversible, L) == 1
            assert reductions(hits_order2_cone, L) == 1

    def test_at_most_two_for_reversible_input(self, reductions):
        for L in (IntMatrix2(5, 2, 2, 1), IntMatrix2(2, 1, 1, 1), IntMatrix2(-3, -1, 1, 0)):
            assert reductions(hits_order2_cone, L) <= 2
            assert reductions(is_reversible, L) <= 2

    def test_two_for_same_trace_pair_not_gl_conjugate(self, reductions):
        A, B = word_product((6, 1)), word_product((3, 2))
        assert A.trace() == B.trace() and not are_conjugate(A, B, "gl")
        assert reductions(are_conjugate, A, B, "gl") == 2

    def test_centralizer_description(self, reductions):
        assert reductions(centralizer_description, IntMatrix2(4, -1, 1, 0)) == 1
        assert reductions(centralizer_description, IntMatrix2(-4, -1, 1, 0)) == 1
        assert reductions(centralizer_description, IntMatrix2(3, -1, 1, 0)) <= 2
        assert reductions(centralizer_description, IntMatrix2(-3, -1, 1, 0)) <= 2


class TestDecisionCounts:
    """Each decision and each witness check runs once per call."""

    @staticmethod
    def counter(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_reversal_builds_no_mirror(self, monkeypatch):
        K = long_conjugator(random.Random(35), 200)
        L = K @ word_product((3, 3)) @ K.inverse()
        calls = []
        self.counter(monkeypatch, conjugacy, "_conjugator", calls)
        result = is_reversible(L)
        assert result.reversible
        assert result.witness @ L @ result.witness.inverse() == L.inverse()
        assert calls == ["_conjugator"]

    def test_classify_guards_once_and_checks_the_conjugator_once(self, monkeypatch):
        K = long_conjugator(random.Random(36), 200)
        L = K @ IntMatrix2(7, -1, 1, 0) @ K.inverse()
        guards, checks = [], []
        self.counter(monkeypatch, classification, "require_anosov", guards)
        self.counter(monkeypatch, conjugacy, "require_anosov", guards)
        # K L K^-1 = F is checked by `_conjugator`, and by the public
        # `splitting_descriptors` for a caller-supplied standard form
        self.counter(monkeypatch, conjugacy, "_conjugator", checks)
        self.counter(monkeypatch, classification, "splitting_descriptors", checks)
        report = classify(L)
        assert report.genus == 2
        assert len(guards) == 1
        assert len(checks) == 1


class TestWorkLedger:
    """Derived elements are not re-guarded, and no discarded witness is built."""

    counter = staticmethod(TestDecisionCounts.counter)

    @pytest.mark.parametrize("L", [L3, L3N], ids=["m=3", "m=-3"])
    def test_centralizer_description_guards_once(self, monkeypatch, L):
        calls = []
        for name in ("standard_form_parameter", "express_power"):
            self.counter(monkeypatch, centralizer, name, calls)
        desc = centralizer_description(L)
        assert desc.gl_extra is not None
        sign, n = desc.gl_extra_square
        assert desc.gl_extra @ desc.gl_extra == (mat_pow(L, n) if sign == 1 else -mat_pow(L, n))
        assert calls.count("standard_form_parameter") == 1
        assert calls.count("express_power") == 0

    def test_gl_retry_builds_no_mirror_conjugator(self, monkeypatch):
        K = long_conjugator(random.Random(37), 200)
        # same trace, different SL invariants: two pairs of unrelated words,
        # then R S^2 and its mirror R^2 S, which are GL-conjugate
        cases = [
            (word_product((6, 1)), word_product((3, 2)), False),
            (K @ word_product((1, 2, 1, 3)) @ K.inverse(), word_product((16, 1)), False),
            (word_product((1, 2)), word_product((2, 1)), True),
        ]
        calls = []
        self.counter(monkeypatch, conjugacy, "_conjugator", calls)
        for A, B, expected in cases:
            assert A.trace() == B.trace()
            result = are_conjugate(A, B, "gl")
            assert result.invariant_a != result.invariant_b
            assert result.conjugate == expected
            if expected:
                assert result.witness.det() == -1
                assert result.witness @ A @ result.witness.inverse() == B
        assert calls == ["_conjugator"]

    def test_mirror_conjugator_only_for_a_mirror_symmetric_word(self, monkeypatch):
        calls = []
        self.counter(monkeypatch, conjugacy, "_conjugator", calls)
        for m in (4, -4, 7, -7):
            assert centralizer_description(IntMatrix2(m, -1, 1, 0)).gl_extra is None
        assert calls == []
        for m, extra in ((3, GL_EXTRA_POS), (-3, GL_EXTRA_NEG)):
            assert centralizer_description(IntMatrix2(m, -1, 1, 0)).gl_extra == extra
        assert calls == ["_conjugator"] * 4
