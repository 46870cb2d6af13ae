"""Exact 2x2 integer matrices, primitive torus slopes, and the monodromy form.

Everything here is plain Python integer arithmetic, so entries may grow
without bound (powers of a hyperbolic matrix overflow 64 bits quickly).
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotAnosov, NotSL2, NotUnimodular, ParseError


@dataclass(frozen=True)
class IntMatrix2:
    """Row-major 2x2 integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def is_sl2(self) -> bool:
        return self.det() == 1

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "IntMatrix2":
        return IntMatrix2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "IntMatrix2":
        """Exact inverse, defined only for unimodular matrices."""
        det = self.det()
        if det == 1:
            return IntMatrix2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMatrix2(-self.d, self.b, self.c, -self.a)
        raise NotUnimodular(f"determinant {det}, cannot invert exactly")

    def transpose(self) -> "IntMatrix2":
        return IntMatrix2(self.a, self.c, self.b, self.d)

    def apply_vec(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return format_matrix(self)


IDENTITY = IntMatrix2(1, 0, 0, 1)


@dataclass(frozen=True)
class PrimitiveSlope:
    """Coprime pair (p, q) up to sign, i.e. an essential curve on the torus.

    The constructor canonicalizes to q > 0, or q == 0 and p > 0, so equality
    is structural.  Non-primitive input is rejected instead of reduced.
    """

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"({self.p}, {self.q}) is not a primitive pair")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    def vector(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __str__(self) -> str:
        return format_slope(self)


@dataclass(frozen=True)
class MonodromyForm:
    """Integer binary quadratic form qa*x^2 + qb*xy + qc*y^2.

    For a form built from L in SL(2,Z) this is det(v, Lv), and its
    discriminant is trace(L)^2 - 4.
    """

    qa: int
    qb: int
    qc: int

    @property
    def disc(self) -> int:
        return self.qb * self.qb - 4 * self.qa * self.qc

    def evaluate(self, p: int, q: int) -> int:
        return self.qa * p * p + self.qb * p * q + self.qc * q * q

    def content(self) -> int:
        return math.gcd(self.qa, math.gcd(self.qb, self.qc))

    def __str__(self) -> str:
        return f"{self.qa}*x^2 + {self.qb}*xy + {self.qc}*y^2"


def intersection_number(c: PrimitiveSlope, c2: PrimitiveSlope) -> int:
    """Minimal geometric intersection number of two slopes.

    This is |det| of the 2x2 matrix whose columns are the two vectors; it is
    symmetric and vanishes exactly when the slopes coincide.
    """
    return abs(c.p * c2.q - c.q * c2.p)


def apply(L: IntMatrix2, c: PrimitiveSlope) -> PrimitiveSlope:
    """Image of a slope under a unimodular matrix, canonicalized.

    Unimodular images of primitive vectors are primitive, so the result is
    again a valid slope.
    """
    if not L.is_unimodular():
        raise NotUnimodular(f"det {L.det()}, slope image would not be primitive")
    x, y = L.apply_vec(c.vector())
    return PrimitiveSlope(x, y)


def monodromy_form(L: IntMatrix2) -> MonodromyForm:
    """The form Q_L(x, y) = det(v, Lv) for v = (x, y), as coefficients.

    Expanding the determinant gives (c, d - a, -b).  For every primitive v,
    intersection_number(v, apply(L, v)) equals |Q_L(v)|.
    """
    if not L.is_sl2():
        raise NotSL2(f"det {L.det()} != 1")
    return MonodromyForm(L.c, L.d - L.a, -L.b)


def is_anosov(L: IntMatrix2) -> bool:
    """True iff |trace| > 2, i.e. the torus map fixes no slope."""
    if not L.is_sl2():
        raise NotSL2(f"det {L.det()} != 1")
    return abs(L.trace()) > 2


def require_anosov(M: IntMatrix2, name: str = "matrix") -> None:
    """Raise NotSL2 or NotAnosov unless M is an Anosov element of SL(2,Z)."""
    if not M.is_sl2():
        raise NotSL2(f"{name} has det {M.det()} != 1")
    if abs(M.trace()) <= 2:
        raise NotAnosov(f"{name} has trace {M.trace()}, not Anosov")


def power_trace(t: int, n: int) -> int:
    """trace(L^n) for any L with trace t and det 1.

    Chebyshev-style recursion from the characteristic polynomial:
    t_0 = 2, t_1 = t, t_{n+1} = t*t_n - t_{n-1}.  Strictly increasing in n
    for t >= 3, and |t_n| is strictly increasing for |t| >= 3.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 2, t
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur


def mat_pow(L: IntMatrix2, n: int) -> IntMatrix2:
    """Exact n-th power; negative n uses the unimodular inverse."""
    if n < 0:
        base = L.inverse()
        n = -n
    else:
        base = L
    result = IDENTITY
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


# -- text formats shared by every CLI surface --------------------------------
#
# Matrices read and print as "a,b;c,d" (row-major, semicolon row separator)
# and slopes as "p/q".  Whitespace around separators is tolerated; negative
# entries use a unary minus.


def _parse_int(token: str) -> int:
    token = token.strip()
    if not token:
        raise ParseError("empty integer token")
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"not an integer: {token!r}") from None


def parse_matrix(text: str) -> IntMatrix2:
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ParseError(f"expected 2 rows separated by ';' in {text!r}")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise ParseError(f"expected 2 comma-separated entries in row {row!r}")
        entries.extend(_parse_int(col) for col in cols)
    return IntMatrix2(*entries)


def format_matrix(M: IntMatrix2) -> str:
    return f"{M.a},{M.b};{M.c},{M.d}"


def parse_slope(text: str) -> PrimitiveSlope:
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ParseError(f"expected 'p/q' in {text!r}")
    try:
        return PrimitiveSlope(_parse_int(parts[0]), _parse_int(parts[1]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_slope(s: PrimitiveSlope) -> str:
    return f"{s.p}/{s.q}"
