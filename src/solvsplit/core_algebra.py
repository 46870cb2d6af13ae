"""Exact 2x2 integer matrices, primitive torus slopes, and the monodromy form.

Everything here is plain Python integer arithmetic, so entries may grow
without bound (powers of a hyperbolic matrix overflow 64 bits quickly).
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from .errors import DomainError, NotAnosov, NotSL2, NotUnimodular, ParseError


def _record(cls):
    """Make cls a frozen record of its annotated fields, in their order.

    The record behaves as a frozen dataclass without defaults would: its
    `__init__`, compiled from the field names as `collections.namedtuple`
    compiles its `__new__`, takes exactly the fields by position or keyword
    (a wrong argument is a TypeError), `__post_init__` then runs and may
    canonicalize through `object.__setattr__`, `==` holds only within the
    class, the hash is that of the field tuple, the repr is
    `Name(field=value, ...)`, fields cannot be set or deleted, and
    `__match_args__` names the fields.  A method the class defines itself is
    kept.  Each instance `__dict__` holds exactly the fields, in order.
    """
    names = tuple(cls.__annotations__)
    fields = ", ".join(f"{name!r}: {name}" for name in names)
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         f"    _setattr(self, '__dict__', {{{fields}}}){post_init}", namespace)
    __init__ = namespace["__init__"]
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in vars(cls):
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@_record
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

    def apply_vec(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return format_matrix(self)


IDENTITY = IntMatrix2(1, 0, 0, 1)


@_record
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


@_record
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
        raise NotUnimodular(f"det {_det_text(L)}, slope image would not be primitive")
    x, y = L.apply_vec(c.vector())
    return PrimitiveSlope(x, y)


def monodromy_form(L: IntMatrix2) -> MonodromyForm:
    """The form Q_L(x, y) = det(v, Lv) for v = (x, y), as coefficients.

    Expanding the determinant gives (c, d - a, -b).  For every primitive v,
    intersection_number(v, apply(L, v)) equals |Q_L(v)|.
    """
    if not L.is_sl2():
        raise NotSL2(f"det {_det_text(L)} != 1")
    return MonodromyForm(L.c, L.d - L.a, -L.b)


def is_anosov(L: IntMatrix2) -> bool:
    """True iff |trace| > 2, i.e. the torus map fixes no slope."""
    if not L.is_sl2():
        raise NotSL2(f"det {_det_text(L)} != 1")
    return abs(L.trace()) > 2


def require_anosov(M: IntMatrix2, name: str = "matrix") -> None:
    """Raise NotSL2 or NotAnosov unless M is an Anosov element of SL(2,Z)."""
    if not M.is_sl2():
        raise NotSL2(f"{name} has det {_det_text(M)} != 1")
    if abs(M.trace()) <= 2:
        raise NotAnosov(f"{name} has trace {M.trace()}, not Anosov")


def power_trace(t: int, n: int) -> int:
    """trace(L^n) for any L with trace t and det 1.

    The characteristic polynomial gives t_0 = 2, t_1 = t, t_{n+1} = t*t_n -
    t_{n-1}: this is trace(F^n), F = [[t, -1], [1, 0]], by `mat_pow`.  Strictly
    increasing in n for t >= 3, and |t_n| is strictly increasing for |t| >= 3.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return mat_pow(IntMatrix2(t, -1, 1, 0), n).trace()


def power_index(t: int, s: int) -> Optional[int]:
    """Least n >= 1 with power_trace(t, n) == s, or None; needs |t| >= 3.

    |t_n| strictly increases, so stepping the recursion stops once it passes
    |s|, after a number of steps linear in the bit length of s.
    """
    if abs(t) < 3:
        raise ValueError("|t| must be >= 3")
    n, prev, cur = 1, 2, t
    while abs(cur) <= abs(s):
        if cur == s:
            return n
        n, prev, cur = n + 1, cur, t * cur - prev
    return None


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
        n >>= 1
        if n:
            base = base @ base
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
        if token[token[0] in "+-":].isdecimal():  # refused only for its length
            raise ParseError(f"a {len(token)}-character integer is past the "
                             f"{sys.get_int_max_str_digits()}-digit limit") from None
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


def printable(n: int) -> bool:
    """True iff str(n) is allowed: at most sys.get_int_max_str_digits() digits."""
    limit = sys.get_int_max_str_digits()
    # 10^limit > 2^(3 limit), so an int of at most 3 limit bits always prints
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def require_printable(*values: int) -> None:
    """Raise DomainError where str() would refuse an int for its length."""
    if not all(map(printable, values)):
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"an integer is past the {limit}-digit print limit")


def _det_text(M: IntMatrix2) -> str:
    det = M.det()
    return str(det) if printable(det) else f"of {det.bit_length()} bits"


def format_matrix(M: IntMatrix2) -> str:
    require_printable(*M.entries())
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
    require_printable(s.p, s.q)
    return f"{s.p}/{s.q}"
