import random
from fractions import Fraction

import pytest

from solvsplit import (
    IDENTITY,
    IntMatrix2,
    PrimitiveSlope,
    classify,
    mat_pow,
    monodromy_form,
    parse_matrix,
    represent_unit,
    splitting_descriptors,
    standard_form,
)
from solvsplit.classification import StandardFormResult
from solvsplit.errors import InconsistentWitness, NotAnosov, NotSL2

from _helpers import (
    long_conjugator,
    matrices_of_trace,
    random_anosov,
    random_sl2,
    unit_exists_brute,
    word_product,
    words_of_trace,
)

FIG8 = IntMatrix2(2, 1, 1, 1)


class TestStandardForm:
    def test_full_hand_example(self):
        sf = standard_form(FIG8)
        assert sf.m_signed == 3
        assert sf.conjugator == IntMatrix2(0, -1, 1, -2)
        assert sf.conjugator_det == 1 and sf.unit_value == 1
        K = sf.conjugator
        assert K @ FIG8 @ K.inverse() == IntMatrix2(3, -1, 1, 0)

    def test_already_standard(self):
        sf = standard_form(IntMatrix2(3, -1, 1, 0))
        assert sf.conjugator == IDENTITY and sf.m_signed == 3

    def test_no_unit_curve(self):
        assert standard_form(IntMatrix2(1, 2, 2, 5)) is None

    def test_mirror_case(self):
        B = IntMatrix2(4, 1, -1, 0)
        sf = standard_form(B)
        assert sf.conjugator_det == -1 and sf.unit_value == -1
        K = sf.conjugator
        assert K @ B @ K.inverse() == IntMatrix2(4, -1, 1, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(NotSL2):
            standard_form(IntMatrix2(1, 0, 0, -1))
        with pytest.raises(NotAnosov):
            standard_form(IntMatrix2(1, 1, 0, 1))

    def test_succeeds_iff_unit_exists(self):
        rng = random.Random(41)
        for _ in range(300):
            L = random_anosov(rng)
            assert (standard_form(L) is None) == (represent_unit(L) is None)

    def test_exists_exactly_on_standard_words(self):
        # every class with 3 <= |t| <= 40, behind a conjugator of 64-bit entries;
        # sign*F for F = [[t, -1], [1, 0]] is R^(|t|-2) S when t > 0 and
        # R S^(|t|-2) when t < 0, so det K = 1 exactly on that word
        rng = random.Random(43)
        for t in range(3, 41):
            for word in sorted(words_of_trace(t)):
                W = word_product(word)
                standard = word in ((t - 2, 1), (1, t - 2))
                assert unit_exists_brute(W, bound=30) == standard
                for sign in (1, -1):
                    K = long_conjugator(rng, 64)
                    L = K @ (W if sign == 1 else -W) @ K.inverse()
                    report = classify(L)
                    sf = report.standard_form
                    assert (sf is not None) == standard, (sign, word)
                    if sf is None:
                        continue
                    C = sf.conjugator
                    assert C @ L @ C.inverse() == IntMatrix2(sign * t, -1, 1, 0)
                    det = 1 if word == ((t - 2, 1) if sign == 1 else (1, t - 2)) else -1
                    value = monodromy_form(L).evaluate(*report.witness_curve.vector())
                    assert C.det() == det == sf.conjugator_det == sf.unit_value == value


class TestClassify:
    def test_figure_eight_filling(self):
        report = classify(FIG8)
        assert report.genus == 2
        assert report.irreducible_splitting_count == 2
        assert report.splitting_type == "strongly_irreducible_genus2"
        assert report.involution is not None
        assert len(report.spines) == 2

    def test_sister_filling(self):
        report = classify(-FIG8)
        assert report.genus == 2 and report.irreducible_splitting_count == 2
        assert report.standard_form.target() == IntMatrix2(-3, -1, 1, 0)

    def test_higher_trace_standard_form(self):
        report = classify(IntMatrix2(5, -1, 1, 0))
        assert report.genus == 2 and report.irreducible_splitting_count == 1
        assert report.involution is None and len(report.spines) == 1

    def test_genus_three(self):
        report = classify(IntMatrix2(1, 2, 2, 5))
        assert report.genus == 3 and report.irreducible_splitting_count == 1
        assert report.splitting_type == "weakly_reducible_genus3"
        assert report.standard_form is None and report.witness_curve is None

    def test_rejects_non_anosov_and_det(self):
        with pytest.raises(NotAnosov):
            classify(IntMatrix2(0, -1, 1, 0))
        with pytest.raises(NotSL2):
            classify(IntMatrix2(3, 1, 1, 0))

    def test_witness_curve_is_unit(self):
        rng = random.Random(42)
        for _ in range(200):
            L = random_anosov(rng)
            report = classify(L)
            if report.witness_curve is not None:
                value = monodromy_form(L).evaluate(*report.witness_curve.vector())
                assert abs(value) == 1

    def test_conjugation_invariance(self):
        rng = random.Random(43)
        bases = [FIG8, IntMatrix2(5, -1, 1, 0), IntMatrix2(1, 2, 2, 5)]
        expected = [
            (r.genus, r.irreducible_splitting_count, r.splitting_type, abs(r.trace))
            for r in map(classify, bases)
        ]
        for _ in range(150):
            K = random_sl2(rng)
            for base, exp in zip(bases, expected):
                r = classify(K @ base @ K.inverse())
                got = (r.genus, r.irreducible_splitting_count, r.splitting_type, abs(r.trace))
                assert got == exp

    def test_inverse_invariance(self):
        rng = random.Random(44)
        for _ in range(150):
            L = random_anosov(rng)
            a, b = classify(L), classify(mat_pow(L, -1))
            assert (a.genus, a.irreducible_splitting_count, a.splitting_type) == (
                b.genus,
                b.irreducible_splitting_count,
                b.splitting_type,
            )

    def test_trace_pm3_totality(self):
        for t in (3, -3):
            pool = matrices_of_trace(t, bound=100)
            assert len(pool) > 100
            for L in pool:
                r = classify(L)
                assert (r.genus, r.irreducible_splitting_count) == (2, 2)


class TestSplittingDescriptors:
    def test_spine_curves_and_levels(self):
        report = classify(FIG8)
        (first, second) = report.spines
        assert first.curves == ((PrimitiveSlope(0, 1), Fraction(0)),)
        assert second.curves == ((PrimitiveSlope(1, 1), Fraction(1, 2)),)
        # transported curves pull back through the conjugator
        assert first.transported_curves == (PrimitiveSlope(1, 0),)
        assert second.transported_curves == (PrimitiveSlope(1, 1),)

    def test_single_spine_above_trace_three(self):
        report = classify(IntMatrix2(5, -1, 1, 0))
        (spine,) = report.spines
        assert spine.curves == ((PrimitiveSlope(0, 1), Fraction(0)),)

    def test_involution_identities(self):
        for L in (FIG8, -FIG8):
            inv = classify(L).involution
            assert all(ok for _, ok in inv.identities)
            assert inv.beta == PrimitiveSlope(1, 1)

    def test_involution_gamma_example(self):
        inv = classify(FIG8).involution
        assert inv.gamma == PrimitiveSlope(2, 3)

    def test_inconsistent_witness_rejected(self):
        fake = StandardFormResult(
            m_signed=3, conjugator=IDENTITY, conjugator_det=1, unit_value=1
        )
        with pytest.raises(InconsistentWitness):
            splitting_descriptors(FIG8, fake)

    def test_supplied_standard_form_gives_classify_descriptors(self):
        for text in ("2,1;1,1", "-3,-1;1,0", "7,-1;1,0", "1,2;2,5"):
            L = parse_matrix(text)
            report = classify(L)
            assert splitting_descriptors(L, standard_form(L)) == (report.spines, report.involution)
