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
both reduces the matrix and spells its word.  On long entries the same loop
takes its reducing steps in batches read off the entries' top bits
(Lehmer's method), each batch applied to the full entries at once.  The
steps are the same, and so are the word and the witnesses; the full-length
work drops from several operations per step to one composition per batch.
The pair (trace sign, canonical word) is a complete conjugacy invariant, and
the accumulated conjugations give explicit witnesses.

This one reduction serves every decision here: conjugacy compares words,
the standard form and its unit curve are read off the canonical word and its
conjugator, and class enumeration lists reduced words rather than
deduplicating by word.  It also yields the words of L^-1, which decides
reversibility, and of the mirror diag(1, -1) L diag(1, -1), which decides the
GL(2,Z) retry and the det -1 commutant from the words alone.  That commutant,
when it exists, is E = T N V T^-1, read off the word: N depends on its first
exponent and V is the rotation onto the mirror's least one.  `_conjugator`
checks every conjugator.
[[a, b], [c, d]] is reduced when d >= 1, b >= d and c >= d (then a >= b, c
by ad - bc = 1): exactly the positive words that start with R and end with
S.  So a class's reduced members are its word's pair rotations, and the
reduction stops at the first.
"""

from __future__ import annotations

import math
from typing import Optional

from .core_algebra import (
    IDENTITY,
    IntMatrix2,
    MonodromyForm,
    PrimitiveSlope,
    _record,
    monodromy_form,
    require_anosov,
)
from .errors import TraceTooSmall, VerificationError

R = IntMatrix2(1, 1, 0, 1)
S = IntMatrix2(1, 0, 1, 1)


@_record
class CyclicWord:
    """Alternating word R^{a1} S^{b1} ... R^{ak} S^{bk}, exponents all >= 1.

    Stored as the exponent tuple (a1, b1, ..., ak, bk).  Two words name the
    same conjugacy class iff one is a rotation of the other by whole pairs;
    `canonical` picks the lexicographically least such rotation, in one
    linear scan.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) == 0 or len(self.exponents) % 2 != 0:
            raise ValueError("exponent list must be nonempty of even length")
        if any(e < 1 for e in self.exponents):
            raise ValueError("all exponents must be >= 1")

    @staticmethod
    def canonical(exponents: tuple[int, ...]) -> "CyclicWord":
        i = 2 * _least_pair_start(exponents)
        return CyclicWord(exponents[i:] + exponents[:i])

    def matrix(self) -> IntMatrix2:
        """Multiply the word out exactly."""
        M = IDENTITY
        for i, e in enumerate(self.exponents):
            M = M @ _block(i, e)
        return M

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            letter = "R" if i % 2 == 0 else "S"
            parts.append(letter if e == 1 else f"{letter}^{e}")
        return " ".join(parts)


@_record
class UnitWitness:
    """A curve where the monodromy form takes the value +1 or -1."""

    curve: PrimitiveSlope
    value: int


@_record
class ConjugacyResult:
    """Verdict and witness, with the (sign, word) invariants of A and of B."""

    conjugate: bool
    witness: Optional[IntMatrix2]
    group: str
    invariant_a: tuple[int, CyclicWord]
    invariant_b: tuple[int, CyclicWord]

    def __bool__(self) -> bool:
        return self.conjugate


def _least_pair_start(exponents: tuple[int, ...]) -> int:
    """The first pair index at which the least pair rotation starts.

    Pairs compare as tuples, so this is the least rotation of the sequence of
    pairs, found in linear time as Booth's algorithm does (Inf. Process.
    Lett. 10, 1980), here by the two-pointer scan: candidate starts i < j
    agree on k pairs; on a mismatch the larger one loses, and so do the k
    starts after it, each beaten by the start as far after the smaller one.
    i + j + k grows each step and each stays below n, so the scan takes
    under 3n steps and holds one list of the n pairs.
    """
    pairs = list(zip(exponents[::2], exponents[1::2]))
    n = len(pairs)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        x, y = pairs[(i + k) % n], pairs[(j + k) % n]
        if x == y:
            k += 1
            continue
        if x > y:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        i, j, k = min(i, j), max(i, j), 0
    return i


# -- quadratic surd steps, pure integer arithmetic ----------------------------
#
# A surd x = (p + sqrt(d)) / q is carried as the triple (p, q, r) with
# q * r = d - p^2, d positive and not a square, q and r nonzero.  This is
# exactly the shape of the fixed points of a hyperbolic matrix, and both moves
# used below keep the invariant without a division:
#     x - k   is  (p - k*q, q, r + k*(2*p - k*q))
#     1 / x   is  (-p, r, q)


def _surd_floor(p: int, q: int, sd: int) -> int:
    # floor((p + sqrt(d)) / q); sd = isqrt(d).  The floor is the same for every
    # x strictly between sd and sd + 1, and a negative q takes it at sd + 1.
    return (p + sd + (q < 0)) // q


# Bits kept from the top of p + isqrt(d) and q for a batch of steps.  A batch
# takes about half a window of quotient bits and shrinks q by about a window;
# its steps run on window-sized ints, so a wider window means fewer batches
# but dearer steps.  128 to 384 bits time alike on 1k- to 22k-bit entries
# (CPython 3.11).
_WINDOW = 256


def _batch(n: int, q: int) -> Optional[tuple[int, int, int, int]]:
    """The steps the top bits decide for x = (n + theta) / q, 0 < theta < 1.

    x lies strictly between two fractions (the ends) of window-sized ints,
    bounds on the top bits of n + theta and of q; either may be negative.
    Both ends take the reduction loop's own R and S steps at once, a Euclid
    on each end's numerator and denominator, and a quotient is taken only
    when both ends give it (Lehmer's two-quotient test): floor and 1/x are
    monotone and x lies between the ends, so it is x's quotient too.  An end
    that hits 0 or infinity stops the batch.  Returns the product X of the
    steps up to the last S step, where x > 1, or None if no S step is proved.
    The ends' ints are at most 2^_WINDOW, so by Lame each Euclid has under
    1.45 (_WINDOW + 2) quotients, two per pass: the loop ends before its bound.
    """
    if q < 0:
        n, q = -n - 1, -q  # x = (-n - 1 + (1 - theta)) / -q
    s = max(abs(n).bit_length(), q.bit_length(), _WINDOW) - _WINDOW
    n_lo, n_hi = n >> s, -((-n - 1) >> s)  # n_lo 2^s <= n < n + 1 <= n_hi 2^s
    q_lo, q_hi = q >> s, -(-q >> s)
    if not q_lo:
        return None
    u1, v1 = n_lo, q_hi if n_lo >= 0 else q_lo
    u2, v2 = n_hi, q_lo if n_hi >= 0 else q_hi
    al, be, ga, de = 1, 0, 0, 1
    X = None
    # each pass takes an R and an S quotient of a Euclid on window-sized ints;
    # only the first R quotient can be 0, when 0 < x < 1
    for _ in range(_WINDOW):
        k, u1 = divmod(u1, v1)
        k2, u2 = divmod(u2, v2)
        if k != k2 or not (u1 and u2):
            break
        be, de = be + k * al, de + k * ga  # times R^k
        k, v1 = divmod(v1, u1)
        k2, v2 = divmod(v2, u2)
        if k != k2:
            break
        al, ga = al + k * be, ga + k * de  # times S^k
        X = al, be, ga, de
        if not (v1 and v2):
            break
    return X


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

    While q and r have more bits than 2t, having had a window's bits more
    than t at entry, the reducing steps are taken in batches, as Lehmer
    batches Euclid (Amer. Math. Monthly 45, 1938; Knuth, TAOCP vol. 2,
    4.5.2, Algorithm L).  Each quotient of a batch X is proved by the
    two-quotient test on the window's ends, so the steps, U and the word are
    exactly this loop's.  X is one conjugation: (p, q, r) is composed with X
    as the form q x^2 - 2p xy - r y^2, and U becomes U X.  A reduced state
    has 2 <= q, r < 2t, so each batch starts from an unreduced one.  The
    stop test holds only where x > 1, after an S step, and once it holds it
    holds after every later S step (those conjugates are the word's pair
    rotations), so a batch, which ends after an S step, passed a reduced
    state exactly when it ends on one.  Then it is dropped and the loop
    takes its steps one at a time; a quotient too long for the window is
    one step too.  A batch costs window-sized int steps and one composition
    with the full entries, where a step costs several full-length
    operations.  Each batch takes at least one step, so the one bound
    covers batches and steps together.
    """
    # hyperbolic integer matrices are never triangular
    if M.c == 0:
        raise VerificationError(f"Anosov matrix with zero lower-left entry: {M}")
    t = M.trace()
    sd = math.isqrt(t * t - 4)
    p, q, r = M.a - M.d, 2 * M.c, 2 * M.b
    a, b, c, d = 1, 0, 0, 1  # U, then the word read once U is found
    cut = t.bit_length() + 1  # a reduced state's q, r < 2t have at most this many bits
    batching = min(abs(q), abs(r)).bit_length() > t.bit_length() + _WINDOW
    U = None
    exponents: list[int] = []
    for _ in range(8 * max(e.bit_length() for e in M.entries()) + 32):
        if U is None:
            if batching:
                if min(abs(q), abs(r)).bit_length() <= cut:
                    batching = False
                elif (X := _batch(p + sd, q)) is not None:
                    al, be, ga, de = X
                    q2 = q * (al * al) - p * (2 * al * ga) - r * (ga * ga)
                    p2 = -q * (al * be) + p * (al * de + be * ga) + r * (ga * de)
                    r2 = -q * (be * be) + p * (2 * be * de) + r * (de * de)
                    if not 2 <= t - p2 <= min(q2, r2):
                        p, q, r = p2, q2, r2
                        a, b, c, d = (a * al + b * ga, a * be + b * de,
                                      c * al + d * ga, c * be + d * de)
                        continue
                    # it passed the first reduced state: take its steps one at a time
                    batching = False
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


def _block(i: int, e: int) -> IntMatrix2:
    """A word's i-th block: R^e at even i, S^e at odd i."""
    return IntMatrix2(1, e, 0, 1) if i % 2 == 0 else IntMatrix2(1, 0, e, 1)


def _least_rotation(raw: tuple[int, ...]) -> tuple[CyclicWord, IntMatrix2]:
    """The least pair rotation of a word, and V with V^-1 (raw matrix) V = its matrix."""
    i = 2 * _least_pair_start(raw)
    # rotating by one pair conjugates the word matrix by its leading blocks
    V = CyclicWord(raw[:i]).matrix() if i else IDENTITY
    return CyclicWord(raw[i:] + raw[:i]), V


def _canonical_data(L: IntMatrix2, name: str = "matrix") -> tuple[int, CyclicWord, IntMatrix2]:
    """(sign, canonical word, T) with T^-1 (sign*L) T = word matrix; guards L as `name`."""
    require_anosov(L, name)
    sign = 1 if L.trace() > 0 else -1
    M = L if sign == 1 else -L
    raw, U = _reduce_to_positive_word(M)
    word, V = _least_rotation(raw)
    T = U @ V
    if T.det() != 1 or M @ T != T @ word.matrix():
        raise VerificationError("word reduction transform failed to verify")
    return sign, word, T


_MIRROR = IntMatrix2(1, 0, 0, -1)  # D: D R D = R^-1 and D S D = S^-1


def inverse_word(word: CyclicWord) -> CyclicWord:
    """The canonical word of L^-1, for L's canonical word; the sign is L's.

    J W^-1 J^-1 = R^bk S^ak ... R^b1 S^a1 spells the exponents reversed.
    """
    return CyclicWord.canonical(word.exponents[::-1])


def _mirror_rotation(word: CyclicWord) -> tuple[int, ...]:
    """A word of D L D, for L's word (a1, b1, ..., ak, bk); the sign is L's.

    With J = [[0, 1], [-1, 0]], J D W D J^-1 = S^a1 R^b1 ... S^ak R^bk is
    S^a1 (this one-step rotation (b1, a2, ..., bk, a1)) S^-a1.
    """
    return word.exponents[1:] + word.exponents[:1]


def _conjugator(A: IntMatrix2, B: IntMatrix2, T_a: IntMatrix2, T_b: IntMatrix2) -> IntMatrix2:
    """K = T_b T_a^-1, checked: K A K^-1 = B.  Pass T_b = D T for the T of D B D."""
    K = T_b @ T_a.inverse()
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
    sign_a, word_a, T_a = _canonical_data(A, "A")
    sign_b, word_b, T_b = _canonical_data(B, "B")
    invariants = ((sign_a, word_a), (sign_b, word_b))
    mirrored = group == "gl" and invariants[0] != invariants[1]
    if mirrored:
        word_b = CyclicWord.canonical(_mirror_rotation(word_b))
    if (sign_a, word_a) != (sign_b, word_b):
        return ConjugacyResult(False, None, group, *invariants)
    if mirrored:
        # D B D's own reduction gives a far shorter witness than one built
        # from B's T through the rotation
        T_b = _MIRROR @ _canonical_data(_MIRROR @ B @ _MIRROR)[2]
    K = _conjugator(A, B, T_a, T_b)
    return ConjugacyResult(True, K, group, *invariants)


def _reversal(L: IntMatrix2, word: CyclicWord, T: IntMatrix2) -> Optional[IntMatrix2]:
    if inverse_word(word) != word:
        return None
    L_inv = L.inverse()
    return _conjugator(L, L_inv, T, _canonical_data(L_inv)[2])


def reversal(L: IntMatrix2) -> Optional[IntMatrix2]:
    """K in SL(2,Z) with K L K^-1 = L^-1, or None when L is not reversible.

    L is reversible (reciprocal, in Sarnak's "Reciprocal geodesics", 2007)
    iff `inverse_word` gives its word back; only then is L^-1 reduced, for K.
    """
    _, word, T = _canonical_data(L)
    return _reversal(L, word, T)


def symmetries(L: IntMatrix2) -> tuple[Optional[IntMatrix2], Optional[IntMatrix2]]:
    """(K, E): `reversal`'s K, and E of det -1 with E L = L E, each None if none exists.

    E exists iff D L D has L's word W.  N = D J^-1 S^a1 = [[-a1, -1], [-1, 0]]
    (J as in `_mirror_rotation`) takes W to N^-1 W N, the matrix of the
    one-step rotation, and V takes that to its least rotation, W again; so
    E = T N V T^-1, with L's sign: E(-L) = -E(L).  One reduction of L serves
    both.
    """
    sign, word, T = _canonical_data(L)
    K = _reversal(L, word, T)
    mirror_word, V = _least_rotation(_mirror_rotation(word))
    if mirror_word != word:
        return K, None
    E = _conjugator(L, L, T, T @ IntMatrix2(-word.exponents[0], -1, -1, 0) @ V)
    return K, E if sign == 1 else -E


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
    return _conjugator(L, IntMatrix2(L.trace(), -1, 1, 0), T, X if value == 1 else _MIRROR @ X)


def represent_unit(L: IntMatrix2) -> Optional[UnitWitness]:
    """A curve with |Q_L| = 1, or None, which proves there is none.

    The curve is K^-1 (0, 1) for the `standard_conjugator` K, with value det K.
    """
    K = standard_conjugator(L)
    if K is None:
        return None
    return _checked_unit(monodromy_form(L), K.inverse().apply_vec((0, 1)), K.det())


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
        V = V @ _block(i, e)
    form = monodromy_form(V)  # the full prefix is the word's matrix
    return T.apply_vec(min(columns, key=lambda v: abs(form.evaluate(*v))))


def _checked_unit(form: MonodromyForm, v: tuple[int, int], value: int) -> UnitWitness:
    curve = PrimitiveSlope(*v)
    actual = form.evaluate(*v)
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
                if _least_pair_start(word) == 0:
                    found.append((word, W))
    return [W for _, W in sorted(found)]
