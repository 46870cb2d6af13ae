"""Exact conjugacy machinery for hyperbolic elements of SL(2,Z).

Two independent engines live here.

The first decides conjugacy.  Every hyperbolic matrix with positive trace is
conjugate to a product of positive powers of
    R = [[1, 1], [0, 1]]   and   S = [[1, 0], [1, 1]],
unique up to rotating the word by whole R-block/S-block pairs.  We reach such
a product by conjugating with powers of R and S that continued-fraction
reduce the attracting fixed point (a quadratic surd, handled with integer
arithmetic only), then peel the resulting positive matrix one whole block
R^k or S^k per integer quotient, in steps linear in the input's bit length.
The pair (trace sign, canonical word) is a complete conjugacy invariant, and
the accumulated conjugations give explicit witnesses.

The second decides which units the monodromy form represents, by walking the
cycle of reduced indefinite forms while accumulating the change-of-variable
matrices.  A form of discriminant t^2 - 4 > 4 represents +1 or -1 exactly
when that value occurs as a leading coefficient somewhere in its cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core_algebra import (
    IDENTITY,
    IntMatrix2,
    MonodromyForm,
    PrimitiveSlope,
    is_anosov,
    monodromy_form,
)
from .errors import NotAnosov, NotSL2, TraceTooSmall, VerificationError

R = IntMatrix2(1, 1, 0, 1)
S = IntMatrix2(1, 0, 1, 1)

_MAX_REDUCTION_STEPS = 100_000


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

    def rotations(self) -> list[tuple[int, ...]]:
        return _pair_rotations(self.exponents)

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
    conjugate: bool
    witness: Optional[IntMatrix2]
    group: str

    def __bool__(self) -> bool:
        return self.conjugate


def _pair_rotations(exponents: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [exponents[i:] + exponents[:i] for i in range(0, len(exponents), 2)]


def _require_anosov(M: IntMatrix2, name: str = "matrix") -> None:
    if not M.is_sl2():
        raise NotSL2(f"{name} has det {M.det()} != 1")
    if abs(M.trace()) <= 2:
        raise NotAnosov(f"{name} has trace {M.trace()}, not Anosov")


# -- quadratic surd steps, pure integer arithmetic ----------------------------
#
# A surd x = (p + sqrt(d)) / q is carried as the triple (p, q, r) with
# q * r = d - p^2, d positive and not a square, q and r nonzero.  This is
# exactly the shape of the fixed points of a hyperbolic matrix, and both moves
# used below keep the invariant without a division:
#     x - k   is  (p - k*q, q, r + k*(2*p - k*q))
#     1 / x   is  (-p, r, q)


def _sign_p_plus_sqrt(p: int, sd: int) -> int:
    # sign of p + sqrt(d) for sd = isqrt(d); never zero since d is not a square
    return 1 if p + sd >= 0 else -1


def _surd_floor(p: int, q: int, sd: int) -> int:
    # floor((p + sqrt(d)) / q); sd = isqrt(d)
    if q > 0:
        return (p + sd) // q
    return (-p - sd - 1) // (-q)


def _surd_gt_one(p: int, q: int, sd: int) -> bool:
    # (p + sqrt(d)) / q > 1  <=>  sign(p - q + sqrt(d)) agrees with sign(q)
    return _sign_p_plus_sqrt(p - q, sd) == (1 if q > 0 else -1)


def _surd_is_reduced(p: int, q: int, sd: int) -> bool:
    # x > 1 and the conjugate (p - sqrt(d)) / q lies in (-1, 0)
    if not _surd_gt_one(p, q, sd):
        return False
    sign_q = 1 if q > 0 else -1
    # conjugate < 0  <=>  sign(sqrt(d) - p) agrees with sign(q)
    if _sign_p_plus_sqrt(-p, sd) != sign_q:
        return False
    # conjugate > -1  <=>  sign(sqrt(d) - (p + q)) is opposite to sign(q)
    return _sign_p_plus_sqrt(-(p + q), sd) == -sign_q


def _step_cap(M: IntMatrix2) -> int:
    # loop bound for the word engine, linear in the input's bit length
    return 4 * max(e.bit_length() for e in M.entries()) + 16


def _reduce_to_positive_word(M: IntMatrix2) -> tuple[IntMatrix2, IntMatrix2]:
    """Conjugate trace >= 3 input into a positive R/S word.

    Returns (W, U) with U^-1 M U = W and W having all entries >= 1.  The
    conjugating steps follow the continued fraction of the attracting fixed
    point x = ((a - d) + sqrt(t^2 - 4)) / (2c); once x > 1 with conjugate in
    (-1, 0), the conjugated matrix is a positive word.  Since
    t^2 - 4 - (a - d)^2 = 4bc, the triple of x starts as (a - d, 2c, 2b).
    The steps reach a reduced surd once the convergent denominators, which
    grow at least like phi^n, pass sqrt(|2c|): about 0.72 steps per entry bit.
    """
    # hyperbolic integer matrices are never triangular
    if M.c == 0:
        raise VerificationError(f"Anosov matrix with zero lower-left entry: {M}")
    t = M.trace()
    sd = math.isqrt(t * t - 4)
    p, q, r = M.a - M.d, 2 * M.c, 2 * M.b
    U = IDENTITY
    for _ in range(_step_cap(M)):
        if _surd_is_reduced(p, q, sd):
            break
        if _surd_gt_one(p, q, sd) or _sign_p_plus_sqrt(p, sd) != (1 if q > 0 else -1):
            # x > 1 or x < 0: translate by R^-k so x lands in (0, 1)
            k = _surd_floor(p, q, sd)
            p, r = p - k * q, r + k * (2 * p - k * q)
            U = IntMatrix2(U.a, U.b + k * U.a, U.c, U.d + k * U.c)  # U @ R^k
        else:
            # 0 < x < 1: apply S^-b with b = floor(1/x), i.e. invert,
            # translate by b and invert back
            b = _surd_floor(-p, r, sd)
            p, q = p + b * r, q - b * (2 * p + b * r)
            U = IntMatrix2(U.a + b * U.b, U.b, U.c + b * U.d, U.d)  # U @ S^b
    else:
        raise VerificationError("fixed-point reduction did not terminate")
    W = U.inverse() @ M @ U
    if min(W.entries()) < 1:
        raise VerificationError(f"reduction left nonpositive entries: {W}")
    return W, U


def _mat_gen_pow(gen: IntMatrix2, k: int) -> IntMatrix2:
    # R^k and S^k have a closed form; keep it exact and cheap
    if gen.b == 1:
        return IntMatrix2(1, k, 0, 1)
    return IntMatrix2(1, 0, k, 1)


def _peel_word(M: IntMatrix2) -> tuple[int, ...]:
    """Factor an all-positive SL(2,Z) matrix as alternating R/S blocks.

    Peels the longest R-block while the first row dominates the second
    entrywise, the longest S-block in the opposite case; nonnegativity and
    det 1 guarantee exactly one applies until the identity is reached.  A
    word of n blocks dominates (RS)^(n/2) entrywise, so its top-left entry
    is at least phi^(n-1), and n stays below 1.45 times its bit length plus 1.
    """
    blocks: list[tuple[str, int]] = []
    max_blocks = _step_cap(M)
    while M != IDENTITY:
        if len(blocks) >= max_blocks:
            raise VerificationError(f"peel exceeded {max_blocks} blocks")
        a, b, c, d = M.entries()
        if a >= c and b >= d:
            k = b if c == 0 else min(a // c, b // d)
            M = IntMatrix2(a - k * c, b - k * d, c, d)
            blocks.append(("R", k))
        elif c >= a and d >= b:
            k = c if b == 0 else min(c // a, d // b)
            M = IntMatrix2(a, b, c - k * a, d - k * b)
            blocks.append(("S", k))
        else:
            raise VerificationError(f"peel stuck on {M}")
    if len(blocks) < 2 or len(blocks) % 2 != 0 or blocks[0][0] != "R":
        raise VerificationError(f"unexpected block structure {blocks}")
    return tuple(count for _, count in blocks)


def _canonical_data(L: IntMatrix2) -> tuple[int, CyclicWord, IntMatrix2]:
    """(sign, canonical word, T) with T^-1 (sign*L) T = word matrix."""
    _require_anosov(L)
    sign = 1 if L.trace() > 0 else -1
    M = L if sign == 1 else -L
    W, U = _reduce_to_positive_word(M)
    raw = _peel_word(W)
    rotations = _pair_rotations(raw)
    best = min(range(len(rotations)), key=lambda i: rotations[i])
    # rotating by one pair conjugates the word matrix by its leading blocks
    V = CyclicWord(raw[: 2 * best]).matrix() if best else IDENTITY
    T = U @ V
    word = CyclicWord(rotations[best])
    if T.inverse() @ M @ T != word.matrix():
        raise VerificationError("word reduction transform failed to verify")
    return sign, word, T


def cyclic_word(L: IntMatrix2) -> tuple[int, CyclicWord]:
    """Complete conjugacy invariant of an Anosov matrix.

    sign * (word matrix) is conjugate to L in SL(2,Z), and two Anosov
    matrices are conjugate iff their (sign, word) pairs agree.
    """
    sign, word, _ = _canonical_data(L)
    return sign, word


_MIRROR = IntMatrix2(1, 0, 0, -1)


def are_conjugate(A: IntMatrix2, B: IntMatrix2, group: str = "sl") -> ConjugacyResult:
    """Decide SL(2,Z)- or GL(2,Z)-conjugacy, with an exact witness when true.

    GL mode succeeds when A is SL-conjugate either to B or to B conjugated by
    diag(1, -1); the witness then has determinant -1.
    """
    if group not in ("sl", "gl"):
        raise ValueError(f"group must be 'sl' or 'gl', got {group!r}")
    sign_a, word_a, T_a = _canonical_data(A)
    targets = [B, _MIRROR @ B @ _MIRROR] if group == "gl" else [B]
    for mirrored, target in enumerate(targets):
        sign_b, word_b, T_b = _canonical_data(target)
        if sign_a == sign_b and word_a == word_b:
            K = T_b @ T_a.inverse()
            if mirrored:
                K = _MIRROR @ K
            if K @ A @ K.inverse() != B:
                raise VerificationError("conjugacy witness failed to verify")
            return ConjugacyResult(True, K, group)
    return ConjugacyResult(False, None, group)


# -- reduction of indefinite binary quadratic forms ---------------------------


def _form_is_reduced(f: MonodromyForm, d: int, sd: int) -> bool:
    # 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b for d = f.disc
    a, b = f.qa, f.qb
    if b <= 0 or b > sd:
        return False
    two_a = 2 * abs(a)
    if (two_a + b) * (two_a + b) <= d:
        return False
    return two_a <= b or (two_a - b) * (two_a - b) < d


def _rho_step(f: MonodromyForm, d: int, sd: int) -> tuple[MonodromyForm, IntMatrix2]:
    """Right neighbor of a form of discriminant d, with its SL(2,Z) substitution."""
    b, c = f.qb, f.qc
    ac = abs(c)
    if c * c > d:
        # pick r = -b (mod 2|c|) in (-|c|, |c|]
        r = (-b + ac - 1) % (2 * ac) - ac + 1
    else:
        # pick r = -b (mod 2|c|) in (sqrt(d) - 2|c|, sqrt(d))
        r = sd - (sd + b) % (2 * ac)
    s = (b + r) // (2 * c)
    nxt = MonodromyForm(c, r, (r * r - d) // (4 * c))
    return nxt, IntMatrix2(0, -1, 1, s)


def represent_unit(L: IntMatrix2) -> Optional[UnitWitness]:
    """Find a curve with |Q_L| = 1, or decide none exists.

    Walks the reduction path of Q_L and then its full cycle, accumulating the
    change-of-variable matrices; any form met with leading coefficient +-1
    yields a witness (preferring +1).  Since 1 < sqrt(disc)/2, every unit the
    form represents shows up as a leading coefficient in the cycle, so an
    empty walk is a proof of impossibility.
    """
    _require_anosov(L)
    q0 = monodromy_form(L)
    d = q0.disc
    sd = math.isqrt(d)
    f, T = q0, IDENTITY
    neg_transform: Optional[IntMatrix2] = None
    if f.qa == 1:
        return _unit_from_transform(q0, T, 1)
    if f.qa == -1:
        neg_transform = T
    steps = 0
    while not _form_is_reduced(f, d, sd):
        f, step = _rho_step(f, d, sd)
        T = T @ step
        if f.qa == 1:
            return _unit_from_transform(q0, T, 1)
        if f.qa == -1 and neg_transform is None:
            neg_transform = T
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise VerificationError("form reduction did not terminate")
    start = f
    while True:
        f, step = _rho_step(f, d, sd)
        T = T @ step
        if f == start:
            break
        if f.qa == 1:
            return _unit_from_transform(q0, T, 1)
        if f.qa == -1 and neg_transform is None:
            neg_transform = T
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise VerificationError("form cycle did not close")
    if neg_transform is not None:
        return _unit_from_transform(q0, neg_transform, -1)
    return None


def _unit_from_transform(
    original: MonodromyForm, T: IntMatrix2, value: int
) -> UnitWitness:
    # leading coefficient of Q∘T is Q(T(1,0)), i.e. Q at the first column
    curve = PrimitiveSlope(T.a, T.c)
    actual = original.evaluate(T.a, T.c)
    if actual != value:
        raise VerificationError(f"unit witness check failed: Q({curve}) = {actual}")
    return UnitWitness(curve, value)


def classes_of_trace(t: int) -> list[IntMatrix2]:
    """One representative per SL(2,Z)-conjugacy class of Anosov trace t.

    Candidates are complete because every class has a representative whose
    axis meets the circular side of the fundamental domain: the axis radius
    sqrt(t^2-4)/(2|c|) must reach height sqrt(3)/2, bounding |c|, and the
    axis center (a-d)/(2c) stays within reach of that side, bounding |a-d|.
    Deduplication is by canonical cyclic word; each class is materialized
    from its lexicographically least word.
    """
    if abs(t) <= 2:
        raise TraceTooSmall(f"|trace| must be >= 3, got {t}")
    if t < 0:
        return [-M for M in classes_of_trace(-t)]
    disc = t * t - 4
    c_max = math.isqrt(disc // 3)
    delta_max = 2 * c_max + math.isqrt(disc) + 1
    seen: dict[tuple[int, ...], None] = {}
    for c in range(-c_max, c_max + 1):
        if c == 0:
            continue
        for delta in range(-delta_max, delta_max + 1):
            if (t + delta) % 2 != 0:
                continue
            a = (t + delta) // 2
            d = t - a
            if (a * d - 1) % c != 0:
                continue
            b = (a * d - 1) // c
            _, word = cyclic_word(IntMatrix2(a, b, c, d))
            seen.setdefault(word.exponents, None)
    return [CyclicWord(exps).matrix() for exps in sorted(seen)]
