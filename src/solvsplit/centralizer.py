"""Commutants of standard-form monodromies and reversibility.

For L = [[m, -1], [1, 0]] with |m| >= 3 the SL(2,Z) centralizer is exactly
the signed powers {+-L^n}.  The determinant -1 coset is derived, not listed:
it exists iff the mirror diag(1, -1) L diag(1, -1) has L's canonical word,
which for the word R^(|m|-2) S happens only at m = +-3 (Cor 5.2).  Its
element E is checked where it is built, so E^2 = +-L^n is read off by
`express_power`'s body, past the public guards, and L is guarded once.  Among
standard forms, L is reversible (conjugate to its own inverse) exactly at
m = +-3.  Other classes can be reversible too: [[5, 2], [2, 1]] has trace 6,
no unit curve, and is conjugate to its inverse.
"""

from __future__ import annotations

from typing import Optional

from .conjugacy import reversal, symmetries
from .core_algebra import IntMatrix2, _record, mat_pow, power_index
from .errors import NotCommuting, NotExpressible, NotSL2, NotStandardForm

# the determinant -1 commutants `centralizer_description` derives at m = +-3
GL_EXTRA_POS = IntMatrix2(-2, 1, -1, 1)
GL_EXTRA_NEG = IntMatrix2(2, 1, -1, -1)


@_record
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


@_record
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

    |n| is found by matching |trace(K)| against the strictly increasing
    trace-of-powers sequence of |m|, and is 0 when none matches (as for
    K = +-I); one exact comparison of K with +-L^n and +-L^-n then gives the
    sign and n, and a K that matches none of them raises NotExpressible.
    """
    standard_form_parameter(L)
    if K.det() == -1:
        raise NotExpressible("det(K) = -1; consult the gl_extra coset instead")
    if not K.is_sl2():
        raise NotSL2(f"det {K.det()} != 1")
    if not commutes(K, L):
        raise NotCommuting(f"{K} does not commute with {L}")
    return _signed_power(K, L)


def _signed_power(K: IntMatrix2, L: IntMatrix2) -> tuple[int, int]:
    # `express_power`'s body, for a K in SL(2,Z) that commutes with L = [[m, -1], [1, 0]]
    # no power of L has |trace| 2, so n = 0 tries K = +-I and rejects every other K
    n = power_index(abs(L.a), abs(K.trace())) or 0
    for exponent in (n, -n):
        P = mat_pow(L, exponent)
        if K in (P, -P):
            return (1 if K == P else -1, exponent)
    raise NotExpressible(f"{K} is not +-L^n for any n")


def is_reversible(L: IntMatrix2) -> ReversibilityResult:
    """Whether L is SL(2,Z)-conjugate to its inverse, with exact witness.

    Defined for any Anosov matrix and decided on its canonical word; on
    standard forms the answer is |m| = 3.
    """
    K = reversal(L)
    return ReversibilityResult(K is not None, K)


def centralizer_description(L: IntMatrix2) -> CentralizerDescription:
    """Cosets of the GL(2,Z) centralizer of a standard-form monodromy."""
    standard_form_parameter(L)
    reversal, gl_extra = symmetries(L)
    return CentralizerDescription(
        base=L,
        sl_part="{+-L^n : n in Z}",
        gl_extra=gl_extra,
        gl_extra_square=None if gl_extra is None else _signed_power(gl_extra @ gl_extra, L),
        reversible=reversal is not None,
        reversal_witness=reversal,
    )
