"""Top-level classification of a torus bundle's irreducible splittings.

Given an Anosov monodromy, either it carries a curve meeting its image once
(equivalently, it is GL(2,Z)-conjugate to a standard form [[t, -1], [1, 0]]),
in which case every irreducible splitting has genus 2, or no such curve
exists and the unique irreducible splitting is the standard genus 3 one.
The genus 2 count is 2 exactly at trace +-3, where an extra involution
produces a second, non-isotopic spine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .conjugacy import _checked_unit, standard_conjugator
from .core_algebra import (
    IDENTITY,
    IntMatrix2,
    PrimitiveSlope,
    _record,
    apply,
    mat_pow,
    monodromy_form,
    require_anosov,
)
from .errors import InconsistentWitness, VerificationError

RHO = IntMatrix2(0, 1, 1, 0)

LEVEL_ZERO = Fraction(0)
LEVEL_HALF = Fraction(1, 2)

GENUS3_TEXT = (
    "standard genus three splitting: two fiber tori split the bundle into "
    "product regions; a vertical tube E_A x [1/2, 1] is attached on one side "
    "and E_B x [0, 1/2] on the other, with E_B disjoint from L(E_A); the "
    "meridian disks of the two tubes are disjoint, so the splitting is "
    "weakly reducible"
)


@_record
class StandardFormResult:
    """Conjugation of the monodromy onto [[m_signed, -1], [1, 0]].

    conjugator K satisfies K L K^-1 = [[m_signed, -1], [1, 0]] exactly;
    conjugator_det = -1 flags the mirror case, where the identification
    reverses orientation (the unit curve has form value -1).
    """

    m_signed: int
    conjugator: IntMatrix2
    conjugator_det: int
    unit_value: int

    def target(self) -> IntMatrix2:
        return IntMatrix2(self.m_signed, -1, 1, 0)


@_record
class SpineDescription:
    """A handlebody spine, given by curves at exact fiber levels.

    Genus 2 spines are the join of the vertical circle with one curve; the
    curve is stored in standard-form coordinates together with its transport
    back to the input coordinates.
    """

    kind: str  # "genus2" | "standard_genus3"
    curves: tuple[tuple[PrimitiveSlope, Fraction], ...]
    transported_curves: tuple[PrimitiveSlope, ...]
    text: str


@_record
class InvolutionData:
    """Exact matrix identities behind the two trace +-3 splittings."""

    rho: IntMatrix2
    beta: PrimitiveSlope
    gamma: PrimitiveSlope
    identities: tuple[tuple[str, bool], ...]
    fixed_circles: str
    central_involution_note: str


@_record
class ClassificationReport:
    input: IntMatrix2
    trace: int
    anosov: bool
    genus: int
    irreducible_splitting_count: int
    splitting_type: str
    standard_form: Optional[StandardFormResult]
    witness_curve: Optional[PrimitiveSlope]
    spines: tuple[SpineDescription, ...]
    involution: Optional[InvolutionData]
    annotations: tuple[str, ...]


def standard_form(L: IntMatrix2) -> Optional[StandardFormResult]:
    """Conjugate L onto [[t, -1], [1, 0]], or decide it cannot be done.

    The conjugator is `conjugacy.standard_conjugator`'s, which guards L; its
    determinant is -1 when only the mirror [[t, 1], [-1, 0]] is SL-conjugate
    to L, and it equals the value of Q_L on the unit curve.
    """
    if (L.b, L.c, L.d) == (-1, 1, 0):
        require_anosov(L)
        return StandardFormResult(L.trace(), IDENTITY, 1, 1)
    K = standard_conjugator(L)
    if K is None:
        return None
    det = K.det()
    return StandardFormResult(L.trace(), K, det, det)


def _involution_data(m_signed: int) -> InvolutionData:
    Lstd = IntMatrix2(m_signed, -1, 1, 0)
    alpha = (0, 1)
    beta = PrimitiveSlope(1, 1)
    # the level-0 fixed circle solves L(gamma) = rho(gamma) exactly
    gamma_vec = (2, 3) if m_signed == 3 else (2, -3)
    checks = (
        ("rho * L * rho == L^-1", RHO @ Lstd @ RHO == mat_pow(Lstd, -1)),
        (
            "rho(alpha) == -L(alpha)",
            RHO.apply_vec(alpha)
            == tuple(-x for x in Lstd.apply_vec(alpha)),
        ),
        (
            "L(gamma) == rho(gamma)",
            Lstd.apply_vec(gamma_vec) == RHO.apply_vec(gamma_vec),
        ),
    )
    if not all(ok for _, ok in checks):
        raise VerificationError(f"involution identities failed for m = {m_signed}")
    return InvolutionData(
        rho=RHO,
        beta=beta,
        gamma=PrimitiveSlope(*gamma_vec),
        identities=checks,
        fixed_circles=(
            "the involution (x1, x2, t) -> (x2, x1, 1 - t) fixes the two "
            f"circles beta x {{1/2}} and gamma x {{0}}, beta = {beta}, "
            f"gamma = {PrimitiveSlope(*gamma_vec)}"
        ),
        central_involution_note=(
            "the two hyperelliptic involutions commute and their product is "
            "the central involution induced by -I, which is not isotopic to "
            "the identity (topological input, cited not machine-checked)"
        ),
    )


_Spines = tuple[tuple[SpineDescription, ...], Optional[InvolutionData]]

# (curve, level, text) of each genus 2 spine in standard-form coordinates;
# the second exists only at trace +-3
_GENUS2_SPINES = (
    (
        PrimitiveSlope(0, 1),
        LEVEL_ZERO,
        "spine is the join of the vertical circle lambda (quotient of the line "
        "{0,0} x R) with alpha x {0}, alpha = (0,1) in standard-form coordinates",
    ),
    (
        PrimitiveSlope(1, 1),
        LEVEL_HALF,
        "second spine is the join of lambda with beta x {1/2}, beta = (1,1) in "
        "standard-form coordinates; not isotopic to the first",
    ),
)


def splitting_descriptors(L: IntMatrix2, sf: Optional[StandardFormResult]) -> _Spines:
    """Spines for the classified splittings, plus involution data at |t| = 3.

    Genus 2 spines are given in standard-form coordinates (the join of the
    vertical circle with alpha = (0,1) at level 0, and at trace +-3 also
    with beta = (1,1) at level 1/2), each together with the curve pulled
    back to the input coordinates.
    """
    require_anosov(L)
    if sf is not None and sf.conjugator @ L @ sf.conjugator.inverse() != sf.target():
        raise InconsistentWitness("supplied witness does not conjugate L to standard form")
    return _spines(sf)


def _spines(sf: Optional[StandardFormResult]) -> _Spines:
    if sf is None:
        spine = SpineDescription(
            kind="standard_genus3",
            curves=(),
            transported_curves=(),
            text=GENUS3_TEXT,
        )
        return (spine,), None
    # standard-form coordinates pull back through the inverse conjugator
    K_inv = sf.conjugator.inverse()
    trace_3 = abs(sf.m_signed) == 3
    spines = tuple(
        SpineDescription("genus2", ((curve, level),), (apply(K_inv, curve),), text)
        for curve, level, text in _GENUS2_SPINES[: 2 if trace_3 else 1]
    )
    return spines, _involution_data(sf.m_signed) if trace_3 else None


def classify(L: IntMatrix2) -> ClassificationReport:
    """Full verdict: genus, splitting count, witnesses, spines, involutions.

    `standard_form` rejects non-Anosov input (not a solvmanifold, so the
    dichotomy does not apply) and checks K; the witness curve v, by Q_L(v) = det K.
    """
    t = L.trace()
    sf = standard_form(L)
    spines, involution = _spines(sf)
    annotations = [
        "splitting counts are consequences of the classification theorems; "
        "isotopies themselves are topological input, not machine-checked",
    ]
    if sf is not None:
        genus = 2
        count = 2 if abs(t) == 3 else 1
        splitting_type = "strongly_irreducible_genus2"
        v = spines[0].transported_curves[0].vector()
        witness_curve = _checked_unit(monodromy_form(L), v, sf.unit_value).curve
        if sf.conjugator_det == -1:
            annotations.append(
                "standard-form identification reverses orientation "
                "(conjugator determinant -1); genus and count are unaffected"
            )
    else:
        genus = 3
        count = 1
        splitting_type = "weakly_reducible_genus3"
        witness_curve = None
    return ClassificationReport(
        input=L,
        trace=t,
        anosov=True,
        genus=genus,
        irreducible_splitting_count=count,
        splitting_type=splitting_type,
        standard_form=sf,
        witness_curve=witness_curve,
        spines=spines,
        involution=involution,
        annotations=tuple(annotations),
    )
