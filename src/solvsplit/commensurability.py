"""Virtual conjugacy of torus maps and explicit intertwiners.

Two Anosov monodromies lift to conjugate maps on a common finite cover of
the torus exactly when their traces agree, and the witness is an integer
matrix P with PA = BP and det(P) != 0: its image lattice has finite index
|det P| and is invariant under B.  `intertwiner` returns one of least index,
read off the canonical R/S word of a conjugate of B; the index is 1 exactly
for GL(2,Z)-conjugate pairs.
"""

from __future__ import annotations

import math
from typing import Optional

from .conjugacy import least_form_vector
from .core_algebra import IntMatrix2, _record, power_index, require_anosov
from .errors import VerificationError


@_record
class Intertwiner:
    """Primitive integer P with PA = BP, of least index |det P|."""

    P: IntMatrix2
    index: int


@_record
class VirtualConjugacy:
    virtually_conjugate: bool
    witness: Optional[Intertwiner]

    def __bool__(self) -> bool:
        return self.virtually_conjugate


def _congruence_basis(alpha: int, beta: int, m: int) -> IntMatrix2:
    """Columns spanning {(x, y) : alpha*x + beta*y = 0 mod m}, for m >= 1.

    With gcd(alpha, beta, m) divided out, h = gcd(beta, m) divides x, and
    then y is fixed mod m/h by inverting beta/h.
    """
    g = math.gcd(alpha, beta, m)
    alpha, beta, m = alpha // g, beta // g, m // g
    h = math.gcd(beta, m)
    n = m // h
    return IntMatrix2(h, 0, -alpha * pow(beta // h, -1, n) % n, n)


def intertwiner(A: IntMatrix2, B: IntMatrix2) -> Optional[Intertwiner]:
    """A primitive integer P with PA = BP and the least index |det P|.

    None when the traces differ.  For A = [[a, b], [c, d]], PA = BP means
    P = [w | (B - aI) w / c] (the second column holds by B^2 = tB - I), and
    det P = det(w, Bw) / c = Q_B(w) / c.  The admissible w form the B-invariant
    lattice G Z^2 = {w : (B - aI) w = 0 mod c}; for w = G x, P is primitive
    iff x is, and det P = det G * Q_{B'}(x) / c with B' = G^-1 B G in SL(2,Z).
    The index is 1 exactly for GL(2,Z)-conjugate pairs.
    """
    require_anosov(A, "A")
    require_anosov(B, "B")
    if A.trace() != B.trace():
        return None
    a, c = A.a, A.c
    G = _congruence_basis(B.a - a, B.b, abs(c))
    G = G @ _congruence_basis(
        B.c * G.a + (B.d - a) * G.c, B.c * G.b + (B.d - a) * G.d, abs(c)
    )
    # the lattice is B-invariant, so B' = adj(G) B G / det G is integral
    scaled = IntMatrix2(G.d, -G.b, -G.c, G.a) @ B @ G
    det_G = G.det()
    B_prime = IntMatrix2(*(e // det_G for e in scaled.entries()))
    w0, w1 = G.apply_vec(least_form_vector(B_prime))
    P = IntMatrix2(
        w0, ((B.a - a) * w0 + B.b * w1) // c, w1, (B.c * w0 + (B.d - a) * w1) // c
    )
    return _checked(A, B, P)


def _checked(A: IntMatrix2, B: IntMatrix2, P: IntMatrix2) -> Intertwiner:
    if P @ A != B @ P:
        raise VerificationError("intertwiner failed PA = BP")
    det = P.det()
    if det == 0 or math.gcd(*P.entries()) != 1:
        raise VerificationError("intertwiner is singular or imprimitive")
    return Intertwiner(P, abs(det))


def virtually_conjugate(A: IntMatrix2, B: IntMatrix2) -> VirtualConjugacy:
    """Equal traces decide virtual conjugacy; a witness is attached when true."""
    P = intertwiner(A, B)
    return VirtualConjugacy(P is not None, P)


def has_power_with_trace(A: IntMatrix2, s: int) -> Optional[int]:
    """Least n >= 1 with trace(A^n) = s, or None."""
    require_anosov(A)
    return power_index(A.trace(), s)
