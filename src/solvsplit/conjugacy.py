"""Exact conjugacy machinery for hyperbolic elements of SL(2,Z).

Every hyperbolic matrix with positive trace is conjugate to a product of
positive powers of
    R = [[1, 1], [0, 1]]   and   S = [[1, 0], [1, 1]],
unique up to rotating the word by whole R-block/S-block pairs.  We reach such
a product by conjugating with powers of R and S that continued-fraction
reduce the attracting fixed point (a quadratic surd, handled with integer
arithmetic only).  Once the conjugate is a positive word, the same continued
fraction is purely periodic and reads the word off one whole block R^k or
S^k per quotient, so one loop of steps linear in the input's bit length
both reduces the matrix and spells its word.
The pair (trace sign, canonical word) is a complete conjugacy invariant, and
the accumulated conjugations give explicit witnesses.

This one reduction serves every decision here: conjugacy compares words,
the standard form and its unit curve are read off the canonical word and its
conjugator, and class enumeration lists reduced words rather than
deduplicating by word.  It also yields the words of L^-1 and of the mirror
diag(1, -1) L diag(1, -1), so reversibility, the GL(2,Z) retry and the
det -1 commutant need no second one.
[[a, b], [c, d]] is reduced when d >= 1, b >= d and c >= d (then a >= b, c
by ad - bc = 1): exactly the positive words that start with R and end with
S.  So a class's reduced members are its word's pair rotations, and the
reduction stops at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core_algebra import (
    IDENTITY,
    IntMatrix2,
    PrimitiveSlope,
    monodromy_form,
    require_anosov,
)
from .errors import TraceTooSmall, VerificationError

R = IntMatrix2(1, 1, 0, 1)
S = IntMatrix2(1, 0, 1, 1)


@dataclass(frozen=True)
class CyclicWord:
    """Alternating word R^{a1} S^{b1} ... R^{ak} S^{bk}, exponents all >= 1.

    Stored as the exponent tuple (a1, b1, ..., ak, bk).  Two words name the
    same conjugacy class iff one is a rotation of the other by whole pairs;
    `canonical` picks the lexicographically least such rotation.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) == 0 or len(self.exponents) % 2 != 0:
            raise ValueError("exponent list must be nonempty of even length")
        if any(e < 1 for e in self.exponents):
            raise ValueError("all exponents must be >= 1")

    @staticmethod
    def canonical(exponents: tuple[int, ...]) -> "CyclicWord":
        return CyclicWord(min(_pair_rotations(exponents)))

    def matrix(self) -> IntMatrix2:
        """Multiply the word out exactly."""
        M = IDENTITY
        for i, e in enumerate(self.exponents):
            M = M @ _mat_gen_pow(R if i % 2 == 0 else S, e)
        return M

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            letter = "R" if i % 2 == 0 else "S"
            parts.append(letter if e == 1 else f"{letter}^{e}")
        return " ".join(parts)


@dataclass(frozen=True)
class UnitWitness:
    """A curve where the monodromy form takes the value +1 or -1."""

    curve: PrimitiveSlope
    value: int


@dataclass(frozen=True)
class ConjugacyResult:
    """Verdict and witness, with the (sign, word) invariants of A and of B."""

    conjugate: bool
    witness: Optional[IntMatrix2]
    group: str
    invariant_a: tuple[int, CyclicWord]
    invariant_b: tuple[int, CyclicWord]

    def __bool__(self) -> bool:
        return self.conjugate


def _pair_rotations(exponents: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [exponents[i:] + exponents[:i] for i in range(0, len(exponents), 2)]


# -- quadratic surd steps, pure integer arithmetic ----------------------------
#
# A surd x = (p + sqrt(d)) / q is carried as the triple (p, q, r) with
# q * r = d - p^2, d positive and not a square, q and r nonzero.  This is
# exactly the shape of the fixed points of a hyperbolic matrix, and both moves
# used below keep the invariant without a division:
#     x - k   is  (p - k*q, q, r + k*(2*p - k*q))
#     1 / x   is  (-p, r, q)


def _surd_floor(p: int, q: int, sd: int) -> int:
    # floor((p + sqrt(d)) / q); sd = isqrt(d)
    if q > 0:
        return (p + sd) // q
    return (-p - sd - 1) // (-q)


def _reduce_to_positive_word(M: IntMatrix2) -> tuple[tuple[int, ...], IntMatrix2]:
    """Conjugate trace >= 3 input into a positive R/S word, and read the word.

    Returns (exponents, U) with U^-1 M U the matrix of the word
    R^e1 S^e2 ... R^e(2k-1) S^e2k, a reduced matrix.  The conjugating steps
    follow the continued fraction of the attracting fixed point
    x = ((a - d) + sqrt(t^2 - 4)) / (2c) of the current conjugate, carried as
    (p, q, r) = (a - d, 2c, 2b) since t^2 - 4 - (a - d)^2 = 4bc.  So
    d = (t - p) / 2, and the reduction ends on 2 <= t - p <= min(q, r), i.e.
    d >= 1, c >= d and b >= d: x > 1 with conjugate in (-1, 0).  It gets there
    once the convergent denominators, which grow at least like phi^n, pass
    sqrt(|2c|): about 0.72 steps per entry bit.  From there the continued
    fraction is purely periodic and its period is the word, so the loop goes
    on, one whole block per quotient, until the word read so far has trace t.
    Prefix traces strictly increase, so that is the full word, a proper power
    included.  A word of n blocks has top-left entry at least phi^(n-1) and
    its entries are below t, so the read takes under 1.45 steps per bit; the
    loop allows 8 steps per entry bit for both phases.
    """
    # hyperbolic integer matrices are never triangular
    if M.c == 0:
        raise VerificationError(f"Anosov matrix with zero lower-left entry: {M}")
    t = M.trace()
    sd = math.isqrt(t * t - 4)
    p, q, r = M.a - M.d, 2 * M.c, 2 * M.b
    a, b, c, d = 1, 0, 0, 1  # U, then the word read once U is found
    U = None
    exponents: list[int] = []
    for _ in range(8 * max(e.bit_length() for e in M.entries()) + 32):
        if U is None:
            if 2 <= t - p <= min(q, r):
                U = IntMatrix2(a, b, c, d)
                a, b, c, d = 1, 0, 0, 1
        elif a + d == t:
            return tuple(exponents), U
        k = _surd_floor(p, q, sd)
        if k:
            # x > 1 or x < 0, as x is irrational: translate by R^-k into (0, 1)
            p, r = p - k * q, r + k * (2 * p - k * q)
            b, d = b + k * a, d + k * c  # times R^k
        else:
            # 0 < x < 1: apply S^-k with k = floor(1/x), i.e. invert,
            # translate by k and invert back
            k = _surd_floor(-p, r, sd)
            p, q = p + k * r, q - k * (2 * p + k * r)
            a, c = a + k * b, c + k * d  # times S^k
        if U is not None:
            exponents.append(k)
    raise VerificationError("fixed-point reduction did not terminate")


def _mat_gen_pow(gen: IntMatrix2, k: int) -> IntMatrix2:
    # R^k and S^k have a closed form; keep it exact and cheap
    if gen.b == 1:
        return IntMatrix2(1, k, 0, 1)
    return IntMatrix2(1, 0, k, 1)


def _least_rotation(raw: tuple[int, ...]) -> tuple[CyclicWord, IntMatrix2]:
    """The least pair rotation of a word, and V with V^-1 (raw matrix) V = its matrix."""
    rotations = _pair_rotations(raw)
    best = min(range(len(rotations)), key=rotations.__getitem__)
    # rotating by one pair conjugates the word matrix by its leading blocks
    V = CyclicWord(raw[: 2 * best]).matrix() if best else IDENTITY
    return CyclicWord(rotations[best]), V


def _canonical_data(L: IntMatrix2) -> tuple[int, CyclicWord, IntMatrix2]:
    """(sign, canonical word, T) with T^-1 (sign*L) T = word matrix."""
    require_anosov(L)
    sign = 1 if L.trace() > 0 else -1
    M = L if sign == 1 else -L
    raw, U = _reduce_to_positive_word(M)
    word, V = _least_rotation(raw)
    T = U @ V
    if T.inverse() @ M @ T != word.matrix():
        raise VerificationError("word reduction transform failed to verify")
    return sign, word, T


_MIRROR = IntMatrix2(1, 0, 0, -1)  # D: D R D = R^-1 and D S D = S^-1
_J = IntMatrix2(0, 1, -1, 0)  # J R J^-1 = S^-1 and J S J^-1 = R^-1


def inverse_word(word: CyclicWord) -> CyclicWord:
    """The canonical word of L^-1, for L's canonical word; the sign is L's.

    J W^-1 J^-1 = R^bk S^ak ... R^b1 S^a1 spells the exponents reversed.
    """
    return CyclicWord.canonical(word.exponents[::-1])


def _mirror(word: CyclicWord, T: IntMatrix2) -> tuple[CyclicWord, IntMatrix2]:
    """The canonical word and T of D L D, for L's; the sign is L's.

    sign*D L D = (D T D) (D W D) (D T D)^-1, and J D W D J^-1 = S^a1 R^b1 ...
    S^ak R^bk is S^a1 (one-step rotation (b1, a2, ..., bk, a1)) S^-a1.
    """
    e = word.exponents
    mirror_word, V = _least_rotation(e[1:] + e[:1])
    return mirror_word, _MIRROR @ T @ _MIRROR @ _J.inverse() @ _mat_gen_pow(S, e[0]) @ V


def _conjugator(
    A: IntMatrix2, B: IntMatrix2, T_a: IntMatrix2, T_b: IntMatrix2, mirrored: bool = False
) -> IntMatrix2:
    """K with K A K^-1 = B, checked, from T_a and the T_b of B (of D B D if mirrored)."""
    K = T_b @ T_a.inverse()
    if mirrored:
        K = _MIRROR @ K
    if K @ A @ K.inverse() != B:
        raise VerificationError("conjugacy witness failed to verify")
    return K


def cyclic_word(L: IntMatrix2) -> tuple[int, CyclicWord]:
    """Complete conjugacy invariant of an Anosov matrix.

    sign * (word matrix) is conjugate to L in SL(2,Z), and two Anosov
    matrices are conjugate iff their (sign, word) pairs agree.
    """
    sign, word, _ = _canonical_data(L)
    return sign, word


def are_conjugate(A: IntMatrix2, B: IntMatrix2, group: str = "sl") -> ConjugacyResult:
    """Decide SL(2,Z)- or GL(2,Z)-conjugacy, with an exact witness when true.

    GL mode succeeds when A is SL-conjugate either to B or to B conjugated by
    diag(1, -1); the witness then has determinant -1.
    """
    if group not in ("sl", "gl"):
        raise ValueError(f"group must be 'sl' or 'gl', got {group!r}")
    sign_a, word_a, T_a = _canonical_data(A)
    sign_b, word_b, T_b = _canonical_data(B)
    invariants = ((sign_a, word_a), (sign_b, word_b))
    mirrored = group == "gl" and invariants[0] != invariants[1]
    if mirrored:
        word_b = _mirror(word_b, T_b)[0]
    if (sign_a, word_a) != (sign_b, word_b):
        return ConjugacyResult(False, None, group, *invariants)
    if mirrored:
        # D B D's own reduction gives a far shorter witness than the T that
        # `_mirror` builds from B's
        T_b = _canonical_data(_MIRROR @ B @ _MIRROR)[2]
    K = _conjugator(A, B, T_a, T_b, mirrored)
    return ConjugacyResult(True, K, group, *invariants)


def symmetries(L: IntMatrix2) -> tuple[Optional[IntMatrix2], Optional[IntMatrix2]]:
    """(K, E): K in SL(2,Z) with K L K^-1 = L^-1, and E of det -1 with E L = L E.

    Each is None when none exists, as L's word decides: L is reversible
    (reciprocal, in Sarnak's "Reciprocal geodesics", 2007) iff `inverse_word`
    gives the word back, and E exists iff D L D has L's word.  E is built from
    T, with L's sign: E(-L) = -E(L).  K is are_conjugate(L, L^-1)'s witness,
    so only a reversible L pays a second reduction, of L^-1.
    """
    sign, word, T = _canonical_data(L)
    reversal = commutant = None
    if inverse_word(word) == word:
        L_inv = L.inverse()
        reversal = _conjugator(L, L_inv, T, _canonical_data(L_inv)[2])
    mirror_word, T_m = _mirror(word, T)
    if mirror_word == word:
        E = _conjugator(L, L, T, T_m, mirrored=True)
        commutant = E if sign == 1 else -E
    return reversal, commutant


def standard_conjugator(L: IntMatrix2) -> Optional[IntMatrix2]:
    """K with K L K^-1 = F = [[t, -1], [1, 0]], t = trace L, or None if none exists.

    Read off L's canonical (sign, word, T).  For n = |t| - 2, [[n+2, -1], [1, 0]]
    is X R^n S X^-1 with X = [[0, -1], [1, -n-1]], and [[n+2, 1], [-1, 0]] is
    X R S^n X^-1 with X = [[1, 0], [-1, 1]]; these are sign*F and sign*D F D
    (D = diag(1, -1)), swapped when t < 0.  So K is X T^-1, or D X T^-1 of det -1,
    and det 1 is chosen at |t| = 3.  A curve with Q_L(v) = +-1 gives the det 1
    basis (-+Lv, v) in which L is F or D F D, so no other word occurs; and
    Q_L(K^-1 (0, 1)) = Q_F(0, 1) det K = det K.
    """
    sign, word, T = _canonical_data(L)
    n = abs(L.trace()) - 2
    if word.exponents == (n, 1) and (sign == 1 or n != 1):
        X, value = IntMatrix2(0, -1, 1, -n - 1), sign
    elif word.exponents == (1, n):
        X, value = IntMatrix2(1, 0, -1, 1), -sign
    else:
        return None
    return _conjugator(L, IntMatrix2(L.trace(), -1, 1, 0), T, X, mirrored=value == -1)


def represent_unit(L: IntMatrix2) -> Optional[UnitWitness]:
    """A curve with |Q_L| = 1, or None, which proves there is none.

    The curve is K^-1 (0, 1) for the `standard_conjugator` K, with value det K.
    """
    K = standard_conjugator(L)
    if K is None:
        return None
    return _checked_unit(L, K.inverse().apply_vec((0, 1)), K.det())


def least_form_vector(L: IntMatrix2) -> tuple[int, int]:
    """A primitive v with the least |Q_L(v)|, read off the canonical word.

    |Q_L(T v)| = |Q_W(v)| as T^-1 (sign*L) T = W, and for each of the 2k block
    prefixes V of the word, Q_W(V x) is the form of a block rotation, with
    leading coefficients at x = e1, e2.  These are the reduced forms of the
    cycle of Q_W (Latimer & MacDuffee, Ann. of Math. 34, 1933).  By Markov the
    least |Q| at discriminant D = t^2 - 4 is at most sqrt(D/5) < sqrt(D)/2,
    and by Lagrange a primitive value below sqrt(D)/2 in size leads a reduced
    form of the cycle; so the first strict minimum over these columns is least.
    """
    _, word, T = _canonical_data(L)
    columns = []
    V = IDENTITY
    for i, e in enumerate(word.exponents):
        columns += [(V.a, V.c), (V.b, V.d)]
        V = V @ _mat_gen_pow(R if i % 2 == 0 else S, e)
    form = monodromy_form(V)  # the full prefix is the word's matrix
    return T.apply_vec(min(columns, key=lambda v: abs(form.evaluate(*v))))


def _checked_unit(L: IntMatrix2, v: tuple[int, int], value: int) -> UnitWitness:
    curve = PrimitiveSlope(*v)
    actual = monodromy_form(L).evaluate(*v)
    if actual != value:
        raise VerificationError(f"unit witness check failed: Q({curve}) = {actual}")
    return UnitWitness(curve, value)


def classes_of_trace(t: int) -> list[IntMatrix2]:
    """One representative per SL(2,Z)-conjugacy class of Anosov trace t.

    Every class has reduced members: the matrices of its word's pair
    rotations.  A reduced [[t-d, b], [c, d]] has bc = n = (t-d)d - 1 with
    b, c >= d (so d < t/2), so the divisors b of n in [d, n/d] list each
    once; the one whose word is its own least pair rotation represents the
    class.  Sorted by word; about t^2/4 divisibility tests.
    """
    if abs(t) <= 2:
        raise TraceTooSmall(f"|trace| must be >= 3, got {t}")
    if t < 0:
        return [-M for M in classes_of_trace(-t)]
    found = []
    for d in range(1, t // 2 + 1):
        n = (t - d) * d - 1
        for b in range(d, n // d + 1):
            if n % b == 0:
                W = IntMatrix2(t - d, b, n // b, d)
                word = _reduce_to_positive_word(W)[0]
                if word == min(_pair_rotations(word)):
                    found.append((word, W))
    return [W for _, W in sorted(found)]
