"""What callers see of the 18 frozen result records: construction, equality,
hashing, repr, immutability, pickling and pattern matching."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from solvsplit import (
    IDENTITY,
    AlphaArc,
    CentralizerDescription,
    ClassificationReport,
    ConjugacyResult,
    CyclicWord,
    Geodesic,
    IntMatrix2,
    Intertwiner,
    InvolutionData,
    MonodromyForm,
    OrthogonalityCertificate,
    PrimitiveSlope,
    QuadraticIrrational,
    ReversibilityResult,
    SpineDescription,
    StandardFormResult,
    UnitWitness,
    VirtualConjugacy,
    alpha_arc,
    are_conjugate,
    axis,
    centralizer_description,
    classify,
    is_reversible,
    monodromy_form,
    represent_unit,
    virtually_conjugate,
)

FIGURE_EIGHT = IntMatrix2(2, 1, 1, 1)
REPORT = classify(FIGURE_EIGHT)

# record type -> (an instance built by the library, its field names in order)
RECORDS = {
    IntMatrix2: (FIGURE_EIGHT, ("a", "b", "c", "d")),
    PrimitiveSlope: (PrimitiveSlope(-1, -2), ("p", "q")),
    MonodromyForm: (monodromy_form(FIGURE_EIGHT), ("qa", "qb", "qc")),
    CyclicWord: (are_conjugate(FIGURE_EIGHT, FIGURE_EIGHT).invariant_a[1], ("exponents",)),
    UnitWitness: (represent_unit(FIGURE_EIGHT), ("curve", "value")),
    ConjugacyResult: (
        are_conjugate(FIGURE_EIGHT, IntMatrix2(1, 1, 1, 2)),
        ("conjugate", "witness", "group", "invariant_a", "invariant_b"),
    ),
    CentralizerDescription: (
        centralizer_description(IntMatrix2(3, -1, 1, 0)),
        ("base", "sl_part", "gl_extra", "gl_extra_square", "reversible", "reversal_witness"),
    ),
    ReversibilityResult: (is_reversible(FIGURE_EIGHT), ("reversible", "witness")),
    StandardFormResult: (
        REPORT.standard_form, ("m_signed", "conjugator", "conjugator_det", "unit_value"),
    ),
    SpineDescription: (REPORT.spines[0], ("kind", "curves", "transported_curves", "text")),
    InvolutionData: (
        REPORT.involution,
        ("rho", "beta", "gamma", "identities", "fixed_circles", "central_involution_note"),
    ),
    ClassificationReport: (
        REPORT,
        ("input", "trace", "anosov", "genus", "irreducible_splitting_count",
         "splitting_type", "standard_form", "witness_curve", "spines", "involution",
         "annotations"),
    ),
    Intertwiner: (
        virtually_conjugate(FIGURE_EIGHT, IntMatrix2(1, 1, 1, 2)).witness, ("P", "index"),
    ),
    VirtualConjugacy: (
        virtually_conjugate(FIGURE_EIGHT, IntMatrix2(1, 1, 1, 2)),
        ("virtually_conjugate", "witness"),
    ),
    QuadraticIrrational: (QuadraticIrrational(2, 2, -4, 5), ("p", "q", "r", "disc")),
    Geodesic: (
        axis(FIGURE_EIGHT),
        ("endpoints", "center", "radius_sq", "cosh_half_length", "translation_length"),
    ),
    OrthogonalityCertificate: (alpha_arc(4).certificates[0], ("name", "lhs", "rhs")),
    AlphaArc: (
        alpha_arc(4),
        ("m", "endpoint_c0", "endpoint_cm", "certificates", "corner_coincidence",
         "c0_endpoint_position"),
    ),
}
TYPES = list(RECORDS)


def values(cls):
    obj, names = RECORDS[cls]
    return {name: getattr(obj, name) for name in names}


def test_every_record_type_is_listed():
    assert len(TYPES) == 18
    assert all(type(RECORDS[cls][0]) is cls for cls in TYPES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls):
        fields = values(cls)
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        assert by_position == by_keyword == RECORDS[cls][0]
        assert hash(by_position) == hash(by_keyword)
        assert values(cls) == {name: getattr(by_keyword, name) for name in fields}

    def test_bad_arguments_raise_type_error(self, cls):
        fields = values(cls)
        args = list(fields.values())
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*args, args[0])
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(**fields, no_such_field=0)
        with pytest.raises(TypeError):
            cls(*args, **{first: args[0]})

    def test_constructor_takes_exactly_the_fields(self, cls):
        assert tuple(inspect.signature(cls).parameters) == RECORDS[cls][1]
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) missing"):
            cls(*list(values(cls).values())[:-1])

    def test_repr_names_every_field(self, cls):
        fields = values(cls)
        inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(RECORDS[cls][0]) == f"{cls.__name__}({inner})"

    def test_equality_needs_the_same_class(self, cls):
        obj = RECORDS[cls][0]
        assert obj == cls(**values(cls))
        assert obj != tuple(values(cls).values())
        assert obj.__eq__(object()) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self, cls):
        assert hash(RECORDS[cls][0]) == hash(tuple(values(cls).values()))

    def test_fields_cannot_be_set_or_deleted(self, cls):
        obj = RECORDS[cls][0]
        before = values(cls)
        for name in (*before, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
        for name in before:
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert values(cls) == before

    def test_pickle_and_deepcopy_round_trip(self, cls):
        obj = RECORDS[cls][0]
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is cls
            assert clone == obj
            assert hash(clone) == hash(obj)
            assert repr(clone) == repr(obj)

    def test_match_args_are_the_fields(self, cls):
        assert cls.__match_args__ == RECORDS[cls][1]


def test_repr_pins():
    assert repr(IntMatrix2(1, 0, 0, 1)) == "IntMatrix2(a=1, b=0, c=0, d=1)"
    assert repr(PrimitiveSlope(-1, -2)) == "PrimitiveSlope(p=1, q=2)"
    assert repr(QuadraticIrrational(2, 2, -4, 5)) == (
        "QuadraticIrrational(p=-1, q=-1, r=2, disc=5)"
    )
    assert repr(CyclicWord((1, 2))) == "CyclicWord(exponents=(1, 2))"
    assert repr(ReversibilityResult(False, None)) == (
        "ReversibilityResult(reversible=False, witness=None)"
    )


def test_post_init_validates_and_canonicalizes():
    assert PrimitiveSlope(p=-1, q=0).vector() == (1, 0)
    qi = QuadraticIrrational(p=2, q=4, r=-6, disc=5)
    assert (qi.p, qi.q, qi.r, qi.disc) == (-1, -2, 3, 5)
    with pytest.raises(ValueError):
        PrimitiveSlope(2, 4)
    with pytest.raises(ValueError):
        CyclicWord((1,))
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 1, 0, 5)


def test_records_of_two_classes_never_compare_equal():
    assert ReversibilityResult(True, None) != VirtualConjugacy(True, None)
    assert UnitWitness(PrimitiveSlope(0, 1), 1) != Intertwiner(PrimitiveSlope(0, 1), 1)


def test_methods_the_class_defines_win():
    half = QuadraticIrrational(1, 0, 2, 5)
    assert half == Fraction(1, 2) == QuadraticIrrational(1, 0, 2, 3)
    assert hash(half) == hash(Fraction(1, 2))
    assert QuadraticIrrational(0, 1, 1, 5) > 2
    assert str(IDENTITY) == "1,0;0,1"
    assert str(PrimitiveSlope(-1, -2)) == "1/2"
    assert not ReversibilityResult(False, None)
    assert VirtualConjugacy(True, None)


def test_match_statement_binds_fields_by_position():
    match IntMatrix2(1, 2, 3, 4):
        case IntMatrix2(a, b, c, d):
            assert (a, b, c, d) == (1, 2, 3, 4)
        case _:
            pytest.fail("no match")


def test_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys; before = set(sys.modules); import solvsplit, solvsplit.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = proc.stdout.split()
    assert "solvsplit.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
