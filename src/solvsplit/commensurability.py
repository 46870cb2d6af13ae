"""Virtual conjugacy of torus maps and explicit intertwiners.

Two Anosov monodromies lift to conjugate maps on a common finite cover of
the torus exactly when their traces agree, and the witness is an integer
matrix P with PA = BP and det(P) != 0: its image lattice has finite index
|det P| and is invariant under B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .conjugacy import are_conjugate
from .core_algebra import IntMatrix2, power_index, require_anosov
from .errors import VerificationError


@dataclass(frozen=True)
class Intertwiner:
    """Primitive integer P with PA = BP and index |det P|."""

    P: IntMatrix2
    index: int


@dataclass(frozen=True)
class VirtualConjugacy:
    virtually_conjugate: bool
    witness: Optional[Intertwiner]

    def __bool__(self) -> bool:
        return self.virtually_conjugate


def _rational_kernel(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the nullspace of an integer matrix."""
    n = len(rows[0])
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -mat[row_idx][fc]
        denom = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * denom) for x in vec]
        g = math.gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


_SEARCH_BOX = 10


def intertwiner(A: IntMatrix2, B: IntMatrix2) -> Optional[Intertwiner]:
    """Solve PA = BP exactly over the integers with det(P) != 0.

    Returns None when the traces differ (no intertwiner exists then).  For
    SL- or GL-conjugate pairs the conjugacy witness itself is returned, so
    those pairs always get index 1.  Otherwise the nullspace of the linear
    system is computed exactly and small integer combinations of its basis
    are scanned for the least |det|; minimality beyond that bounded search
    is not claimed.
    """
    require_anosov(A, "A")
    require_anosov(B, "B")
    if A.trace() != B.trace():
        return None
    conj = are_conjugate(A, B, "gl")
    if conj.conjugate:
        return _checked(A, B, conj.witness)
    rows = [
        [A.a - B.a, A.c, -B.b, 0],
        [A.b, A.d - B.a, 0, -B.b],
        [-B.c, 0, A.a - B.d, A.c],
        [0, -B.c, A.b, A.d - B.d],
    ]
    basis = _rational_kernel(rows)
    best: Optional[tuple[int, tuple[int, ...], IntMatrix2]] = None
    for coeffs in product(range(-_SEARCH_BOX, _SEARCH_BOX + 1), repeat=len(basis)):
        if not any(coeffs):
            continue
        entries = [
            sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(4)
        ]
        P = IntMatrix2(*entries)
        det = P.det()
        if det == 0:
            continue
        g = math.gcd(*entries)
        if g > 1:
            P = IntMatrix2(*(x // g for x in entries))
            det = P.det()
        key = (abs(det), P.entries())
        if best is None or key < best[:2]:
            best = (abs(det), P.entries(), P)
    if best is None:
        return None
    return _checked(A, B, best[2])


def _checked(A: IntMatrix2, B: IntMatrix2, P: IntMatrix2) -> Intertwiner:
    if P @ A != B @ P:
        raise VerificationError("intertwiner failed PA = BP")
    if P.det() == 0 or math.gcd(*P.entries()) != 1:
        raise VerificationError("intertwiner is singular or imprimitive")
    return Intertwiner(P, abs(P.det()))


def virtually_conjugate(A: IntMatrix2, B: IntMatrix2) -> VirtualConjugacy:
    """Equal traces decide virtual conjugacy; a witness is attached when true."""
    require_anosov(A, "A")
    require_anosov(B, "B")
    if A.trace() != B.trace():
        return VirtualConjugacy(False, None)
    witness = intertwiner(A, B)
    if witness is None:
        raise VerificationError("equal traces must admit an intertwiner")
    return VirtualConjugacy(True, witness)


def has_power_with_trace(A: IntMatrix2, s: int) -> Optional[int]:
    """Least n >= 1 with trace(A^n) = s, or None."""
    require_anosov(A)
    return power_index(A.trace(), s)
