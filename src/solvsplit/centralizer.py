"""Commutants of standard-form monodromies and reversibility.

For L = [[m, -1], [1, 0]] with |m| >= 3 the SL(2,Z) centralizer is exactly
the signed powers {+-L^n}; a determinant -1 coset appears only at m = +-3.
Among standard forms, L is reversible (conjugate to its own inverse) exactly
at m = +-3.  Other classes can be reversible too: [[5, 2], [2, 1]] has trace
6, no unit curve, and is conjugate to its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conjugacy import are_conjugate
from .core_algebra import IDENTITY, IntMatrix2, mat_pow, power_trace, require_anosov
from .errors import (
    NotCommuting,
    NotExpressible,
    NotSL2,
    NotStandardForm,
    VerificationError,
)

# determinant -1 commutants displayed for the two exceptional traces
GL_EXTRA_POS = IntMatrix2(-2, 1, -1, 1)
GL_EXTRA_NEG = IntMatrix2(2, 1, -1, -1)


@dataclass(frozen=True)
class CentralizerDescription:
    """Structure of all matrices commuting with a standard-form monodromy.

    `gl_extra_square` records the exact relation gl_extra^2 = sign * base^n
    (for m = 3 that is +base, for m = -3 it is -base).
    """

    base: IntMatrix2
    sl_part: str
    gl_extra: Optional[IntMatrix2]
    gl_extra_square: Optional[tuple[int, int]]
    reversible: bool
    reversal_witness: Optional[IntMatrix2]


@dataclass(frozen=True)
class ReversibilityResult:
    reversible: bool
    witness: Optional[IntMatrix2]

    def __bool__(self) -> bool:
        return self.reversible


def standard_form_parameter(L: IntMatrix2) -> int:
    """The m of [[m, -1], [1, 0]], raising if L is not of that shape."""
    if (L.b, L.c, L.d) != (-1, 1, 0) or abs(L.a) < 3:
        raise NotStandardForm(f"{L} is not [[m, -1], [1, 0]] with |m| >= 3")
    return L.a


def commutes(K: IntMatrix2, L: IntMatrix2) -> bool:
    return K @ L == L @ K


def express_power(K: IntMatrix2, L: IntMatrix2) -> tuple[int, int]:
    """Write a commuting SL(2,Z) matrix as sign * L^n, exactly.

    |n| is pinned by matching |trace(K)| against the strictly increasing
    trace-of-powers sequence; the four candidates +-L^{+-|n|} are then
    separated by exact multiplication.
    """
    m = standard_form_parameter(L)
    if K.det() == -1:
        raise NotExpressible("det(K) = -1; consult the gl_extra coset instead")
    if not K.is_sl2():
        raise NotSL2(f"det {K.det()} != 1")
    if not commutes(K, L):
        raise NotCommuting(f"{K} does not commute with {L}")
    if K == IDENTITY:
        return (1, 0)
    if K == -IDENTITY:
        return (-1, 0)
    target = abs(K.trace())
    n = 1
    while power_trace(abs(m), n) < target:
        n += 1
    if power_trace(abs(m), n) != target:
        raise NotExpressible(f"|trace| = {target} is not a trace of a power")
    for exponent in (n, -n):
        P = mat_pow(L, exponent)
        if K == P:
            return (1, exponent)
        if K == -P:
            return (-1, exponent)
    raise NotExpressible(f"{K} is not +-L^{n} despite matching trace")


def is_reversible(L: IntMatrix2) -> ReversibilityResult:
    """Whether L is SL(2,Z)-conjugate to its inverse, with exact witness.

    Defined for any Anosov matrix via the conjugacy engine; on standard
    forms the answer is |m| = 3.
    """
    require_anosov(L)
    result = are_conjugate(L, mat_pow(L, -1), "sl")
    return ReversibilityResult(result.conjugate, result.witness)


def centralizer_description(L: IntMatrix2) -> CentralizerDescription:
    """Cosets of the GL(2,Z) centralizer of a standard-form monodromy."""
    m = standard_form_parameter(L)
    gl_extra = None
    gl_extra_square = None
    if m == 3:
        gl_extra = GL_EXTRA_POS
    elif m == -3:
        gl_extra = GL_EXTRA_NEG
    if gl_extra is not None:
        if not commutes(gl_extra, L) or gl_extra.det() != -1:
            raise VerificationError(f"{gl_extra} is not a det -1 commutant of {L}")
        gl_extra_square = express_power(gl_extra @ gl_extra, L)
    rev = is_reversible(L)
    return CentralizerDescription(
        base=L,
        sl_part="{+-L^n : n in Z}",
        gl_extra=gl_extra,
        gl_extra_square=gl_extra_square,
        reversible=rev.reversible,
        reversal_witness=rev.witness,
    )
