"""Top-level classification of a torus bundle's irreducible splittings.

Given an Anosov monodromy, either it carries a curve meeting its image once
(equivalently, it is GL(2,Z)-conjugate to a standard form [[t, -1], [1, 0]]),
in which case every irreducible splitting has genus 2, or no such curve
exists and the unique irreducible splitting is the standard genus 3 one.
The genus 2 count is 2 exactly at trace +-3, where an extra involution
produces a second, non-isotopic spine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .conjugacy import represent_unit
from .core_algebra import (
    IDENTITY,
    IntMatrix2,
    PrimitiveSlope,
    mat_pow,
    monodromy_form,
    require_anosov,
)
from .errors import InconsistentWitness

_FLIP = IntMatrix2(1, 0, 0, -1)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class InvolutionData:
    """Exact matrix identities behind the two trace +-3 splittings."""

    rho: IntMatrix2
    beta: PrimitiveSlope
    gamma: PrimitiveSlope
    identities: tuple[tuple[str, bool], ...]
    fixed_circles: str
    central_involution_note: str


@dataclass(frozen=True)
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

    A unit curve v with Q_L(v) = +1 makes (-Lv, v) a det +1 basis in which L
    is the standard form.  If only Q_L(v) = -1 exists, the basis (+Lv, v)
    reaches the mirror [[t, 1], [-1, 0]] and composing with diag(1, -1)
    lands on the standard form at the cost of determinant -1.
    """
    require_anosov(L)
    t = L.trace()
    if (L.b, L.c, L.d) == (-1, 1, 0):
        return StandardFormResult(t, IDENTITY, 1, 1)
    unit = represent_unit(L)
    if unit is None:
        return None
    v = unit.curve.vector()
    img = L.apply_vec(v)
    if unit.value == 1:
        vprime = (-img[0], -img[1])
        Kprime = IntMatrix2(vprime[0], v[0], vprime[1], v[1])
        K = Kprime.inverse()
        det = 1
    else:
        vprime = img
        Kprime = IntMatrix2(vprime[0], v[0], vprime[1], v[1])
        K = _FLIP @ Kprime.inverse()
        det = -1
    if Kprime.det() != 1:
        raise InconsistentWitness(f"unit-curve basis has det {Kprime.det()}, not 1")
    result = StandardFormResult(t, K, det, unit.value)
    if K @ L @ K.inverse() != result.target():
        raise InconsistentWitness("standard-form conjugator failed to verify")
    return result


def _transport(K: IntMatrix2, curve: PrimitiveSlope) -> PrimitiveSlope:
    # standard-form coordinates pull back through the inverse conjugator
    x, y = K.inverse().apply_vec(curve.vector())
    return PrimitiveSlope(x, y)


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
        raise InconsistentWitness(f"involution identities failed for m = {m_signed}")
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


def splitting_descriptors(
    L: IntMatrix2, sf: Optional[StandardFormResult]
) -> tuple[tuple[SpineDescription, ...], Optional[InvolutionData]]:
    """Spines for the classified splittings, plus involution data at |t| = 3.

    Genus 2 spines are given in standard-form coordinates (the join of the
    vertical circle with alpha = (0,1) at level 0, and at trace +-3 also
    with beta = (1,1) at level 1/2), each together with the curve pulled
    back to the input coordinates.
    """
    require_anosov(L)
    if sf is None:
        spine = SpineDescription(
            kind="standard_genus3",
            curves=(),
            transported_curves=(),
            text=GENUS3_TEXT,
        )
        return (spine,), None
    if sf.conjugator @ L @ sf.conjugator.inverse() != sf.target():
        raise InconsistentWitness("supplied witness does not conjugate L to standard form")
    K = sf.conjugator
    alpha = PrimitiveSlope(0, 1)
    spines = [
        SpineDescription(
            kind="genus2",
            curves=((alpha, LEVEL_ZERO),),
            transported_curves=(_transport(K, alpha),),
            text=(
                "spine is the join of the vertical circle lambda (quotient "
                "of the line {0,0} x R) with alpha x {0}, alpha = (0,1) in "
                "standard-form coordinates"
            ),
        )
    ]
    involution = None
    if abs(sf.m_signed) == 3:
        beta = PrimitiveSlope(1, 1)
        spines.append(
            SpineDescription(
                kind="genus2",
                curves=((beta, LEVEL_HALF),),
                transported_curves=(_transport(K, beta),),
                text=(
                    "second spine is the join of lambda with beta x {1/2}, "
                    "beta = (1,1) in standard-form coordinates; not isotopic "
                    "to the first"
                ),
            )
        )
        involution = _involution_data(sf.m_signed)
    return tuple(spines), involution


def classify(L: IntMatrix2) -> ClassificationReport:
    """Full verdict: genus, splitting count, witnesses, spines, involutions.

    Non-Anosov input is rejected; the manifold is then not a solvmanifold
    and the dichotomy does not apply.
    """
    require_anosov(L)
    t = L.trace()
    sf = standard_form(L)
    spines, involution = splitting_descriptors(L, sf)
    annotations = [
        "splitting counts are consequences of the classification theorems; "
        "isotopies themselves are topological input, not machine-checked",
    ]
    if sf is not None:
        genus = 2
        count = 2 if abs(t) == 3 else 1
        splitting_type = "strongly_irreducible_genus2"
        witness_curve = _transport(sf.conjugator, PrimitiveSlope(0, 1))
        if abs(monodromy_form(L).evaluate(*witness_curve.vector())) != 1:
            raise InconsistentWitness("transported witness curve is not a unit curve")
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
