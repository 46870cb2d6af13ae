"""Exact upper-half-plane data for the axis of a hyperbolic matrix.

Axis endpoints are quadratic irrationals handled without floating point, so
cone-point incidence and fundamental-domain membership are decided exactly.
Floats appear only in the hyperbolic translation length and in emitted SVG
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .centralizer import is_reversible
from .core_algebra import IntMatrix2, require_anosov
from .errors import (
    NotUpperHalfPlane,
    TraceTooSmall,
    VerificationError,
    VerticalAxis,
)

Exact = Union[int, Fraction, "QuadraticIrrational"]


@dataclass(frozen=True)
class QuadraticIrrational:
    """(p + q*sqrt(disc)) / r with integer p, q, r and nonsquare disc > 0.

    Canonical form has r > 0 and gcd(p, q, r) = 1, so equality of values is
    structural equality (rational values compare across discriminants).
    Comparisons and arithmetic are exact; mixing two genuinely irrational
    discriminants is rejected.
    """

    p: int
    q: int
    r: int
    disc: int

    def __post_init__(self):
        if self.r == 0:
            raise ValueError("zero denominator")
        if self.disc <= 0 or math.isqrt(self.disc) ** 2 == self.disc:
            raise ValueError(f"disc must be positive and not a square: {self.disc}")
        p, q, r = self.p, self.q, self.r
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, math.gcd(q, r))
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        object.__setattr__(self, "r", r // g)

    @staticmethod
    def from_rational(value, disc: int) -> "QuadraticIrrational":
        f = Fraction(value)
        return QuadraticIrrational(f.numerator, 0, f.denominator, disc)

    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.r)

    def conjugate(self) -> "QuadraticIrrational":
        return QuadraticIrrational(self.p, -self.q, self.r, self.disc)

    def sign(self) -> int:
        # r > 0 after canonicalization, so only the numerator matters
        p, q, d = self.p, self.q, self.disc
        if q == 0:
            return (p > 0) - (p < 0)
        if q > 0:
            if p >= 0:
                return 1
            return 1 if q * q * d > p * p else -1
        return -QuadraticIrrational(-p, -q, self.r, d).sign()

    def _coerce(self, other) -> Optional["QuadraticIrrational"]:
        if isinstance(other, QuadraticIrrational):
            if other.q == 0:
                return QuadraticIrrational(other.p, 0, other.r, self.disc)
            if self.q == 0:
                return other
            if other.disc != self.disc:
                raise ValueError(
                    f"mixed discriminants {self.disc} and {other.disc}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticIrrational.from_rational(other, self.disc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.disc if self.q == 0 else self.disc
        return QuadraticIrrational(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            self.r * o.r,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational(-self.p, -self.q, self.r, self.disc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.disc if self.q == 0 else self.disc
        return QuadraticIrrational(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return QuadraticIrrational(
                self.p * f.denominator,
                self.q * f.denominator,
                self.r * f.numerator,
                self.disc,
            )
        return NotImplemented

    def _cmp(self, other) -> int:
        diff = self - other
        if diff is NotImplemented:
            raise TypeError(f"cannot compare with {type(other)}")
        return diff.sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadraticIrrational)):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.disc))

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.disc)) / self.r

    def __str__(self) -> str:
        return f"({self.p} + {self.q}*sqrt({self.disc}))/{self.r}"


@dataclass(frozen=True)
class Geodesic:
    """Axis data: real endpoints, Euclidean center and squared radius.

    translation_length is the only approximate field; its exact surrogate is
    cosh(length/2) = |trace|/2, kept as the rational cosh_half_length.
    """

    endpoints: tuple[QuadraticIrrational, QuadraticIrrational]
    center: Fraction
    radius_sq: Fraction
    cosh_half_length: Fraction
    translation_length: float


def axis(A: IntMatrix2) -> Geodesic:
    """Geodesic semicircle joining the fixed points of an Anosov matrix.

    The fixed points solve c z^2 + (d - a) z - b = 0; an Anosov integer
    matrix can never be triangular, so c = 0 does not occur.
    """
    require_anosov(A)
    if A.c == 0:
        raise VerticalAxis("lower-left entry is zero (parabolic, unreachable)")
    t = A.trace()
    d = t * t - 4
    plus = QuadraticIrrational(A.a - A.d, 1, 2 * A.c, d)
    minus = QuadraticIrrational(A.a - A.d, -1, 2 * A.c, d)
    lo, hi = (minus, plus) if minus < plus else (plus, minus)
    length = 2.0 * math.acosh(abs(t) / 2.0)
    return Geodesic(
        endpoints=(lo, hi),
        center=Fraction(A.a - A.d, 2 * A.c),
        radius_sq=Fraction(d, 4 * A.c * A.c),
        cosh_half_length=Fraction(abs(t), 2),
        translation_length=length,
    )


def in_fundamental_domain(z: tuple[Exact, Exact]) -> str:
    """Classify an exact point against {|x| <= 1/2, x^2 + y^2 >= 1}.

    Returns "interior", "boundary", or "outside"; the imaginary part must be
    positive.
    """
    x, y = z
    if not isinstance(x, (int, Fraction, QuadraticIrrational)):
        raise TypeError(f"coordinates must be exact, got {type(x)}")
    if _exact_sign(y) <= 0:
        raise NotUpperHalfPlane(f"y = {y} is not positive")
    norm = x * x + y * y
    abs_x_cmp = _exact_cmp_abs_half(x)
    norm_cmp = _exact_cmp(norm, 1)
    if abs_x_cmp > 0 or norm_cmp < 0:
        return "outside"
    if abs_x_cmp == 0 or norm_cmp == 0:
        return "boundary"
    return "interior"


def _exact_sign(v: Exact) -> int:
    if isinstance(v, QuadraticIrrational):
        return v.sign()
    f = Fraction(v)
    return (f > 0) - (f < 0)


def _exact_cmp(a: Exact, b: Exact) -> int:
    return _exact_sign(a - b)


def _exact_cmp_abs_half(x: Exact) -> int:
    half = Fraction(1, 2)
    if _exact_sign(x) >= 0:
        return _exact_cmp(x, half)
    return _exact_cmp(-x, half)


@dataclass(frozen=True)
class OrthogonalityCertificate:
    """Exact identity (center distance)^2 = r1^2 + r2^2 for a circle pair."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class AlphaArc:
    """Fundamental arc of the axis, cut off by the unit circles C_0 and C_m."""

    m: int
    endpoint_c0: tuple[Fraction, QuadraticIrrational]
    endpoint_cm: tuple[Fraction, QuadraticIrrational]
    certificates: tuple[OrthogonalityCertificate, ...]
    corner_coincidence: bool
    c0_endpoint_position: str  # relative to the arc D ∩ C_0


def alpha_arc(m: int) -> AlphaArc:
    """Endpoints and orthogonality certificates for the standard-form axis.

    The endpoint on C_0 has x = 2/m exactly.  At |m| = 4 that is the corner
    of the fundamental domain (x = 1/2), which is reported as a boundary
    coincidence rather than adjudicated; for |m| >= 5 the endpoint is
    interior to D ∩ C_0 and for |m| = 3 it lies outside.
    """
    if abs(m) < 3:
        raise TraceTooSmall(f"|m| must be >= 3, got {m}")
    d = m * m - 4
    x0 = Fraction(2, m)
    y0 = QuadraticIrrational(0, 1, abs(m), d)
    xm = Fraction(m * m - 2, m)
    certificates = (
        OrthogonalityCertificate(
            "C0 orthogonal to axis",
            Fraction(m * m, 4),
            1 + Fraction(d, 4),
        ),
        OrthogonalityCertificate(
            "Cm orthogonal to axis",
            Fraction(m * m, 4),
            1 + Fraction(d, 4),
        ),
    )
    abs_x = abs(x0)
    if abs_x < Fraction(1, 2):
        position = "interior"
    elif abs_x == Fraction(1, 2):
        position = "corner"
    else:
        position = "outside"
    return AlphaArc(
        m=m,
        endpoint_c0=(x0, y0),
        endpoint_cm=(xm, y0),
        certificates=certificates,
        corner_coincidence=(abs(m) == 4),
        c0_endpoint_position=position,
    )


def axis_order2_points(m: int) -> tuple[int, ...]:
    """Integer n with n + i on the standard-form axis, i.e. (2n-m)^2 = m^2-8.

    Nonempty exactly at |m| = 3, where the axis passes through the orbit of
    the order-2 cone point.
    """
    if abs(m) < 3:
        raise TraceTooSmall(f"|m| must be >= 3, got {m}")
    target = m * m - 8
    k = math.isqrt(target)
    if k * k != target:
        return ()
    return tuple(sorted(((m - k) // 2, (m + k) // 2)))


def hits_order2_cone(L: IntMatrix2) -> bool:
    """Whether the projected axis passes through the order-2 cone point.

    Equivalent to reversibility; for standard-form input the answer is
    cross-checked against the exact integer incidence test.
    """
    require_anosov(L)
    reversible = is_reversible(L).reversible
    if (L.b, L.c, L.d) == (-1, 1, 0):
        if reversible != bool(axis_order2_points(L.a)):
            raise VerificationError(f"reversal of {L} disagrees with the cone test")
    return reversible


# -- SVG reconstruction of the axis picture ----------------------------------

DEFAULT_PALETTE = {
    "background": "#ffffff",
    "domain_fill": "#d7dff0",
    "domain_edge": "#8090b0",
    "x_axis": "#303030",
    "circle": "#909090",
    "axis_circle": "#c04030",
    "alpha": "#1050c0",
    "point": "#000000",
    "label": "#000000",
}

_UNIT = 100.0  # pixels per hyperbolic-plane unit


def _fmt(value) -> str:
    return f"{float(value):.6f}"


def render_figure(m: int, palette: Optional[dict] = None) -> str:
    """SVG reconstruction of the axis, its fundamental arc, and the tiling.

    Shows the translates of the fundamental domain touched by the arc, the
    unit semicircles C_0 .. C_m, the axis, the emphasized arc alpha, the
    points i and exp(pi*i/3), and for |m| = 3 the integer-translate points
    of i that lie on the axis.  Output bytes depend only on m and the
    palette.
    """
    if abs(m) < 3:
        raise TraceTooSmall(f"|m| must be >= 3, got {m}")
    colors = dict(DEFAULT_PALETTE)
    if palette:
        colors.update(palette)
    arc = alpha_arc(m)
    d = m * m - 4
    radius = math.sqrt(d) / 2.0
    x_lo = float(min(-1, m - 1))
    x_hi = float(max(1, m + 1))
    y_hi = max(2.0, radius + 0.5)
    width = (x_hi - x_lo) * _UNIT
    height = y_hi * _UNIT

    def px(x) -> str:
        return _fmt((float(x) - x_lo) * _UNIT)

    def py(y) -> str:
        return _fmt((y_hi - float(y)) * _UNIT)

    def upper_arc(x1, y1, x2, y2, r) -> str:
        # arc bulging upward from (x1, y1) to (x2, y2), drawn left to right
        rr = _fmt(r * _UNIT)
        return f"M {px(x1)} {py(y1)} A {rr} {rr} 0 0 1 {px(x2)} {py(y2)}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="{colors["background"]}"/>',
    ]

    # translates of the fundamental domain touched by alpha, decided exactly:
    # on the axis, |z - k|^2 = k^2 - 1 + (m - 2k) x is linear in x
    alpha_lo = min(arc.endpoint_c0[0], arc.endpoint_cm[0])
    alpha_hi = max(arc.endpoint_c0[0], arc.endpoint_cm[0])
    sqrt3_half = math.sqrt(3.0) / 2.0
    for k in range(min(0, m), max(0, m) + 1):
        strip_lo = max(alpha_lo, Fraction(2 * k - 1, 2))
        strip_hi = min(alpha_hi, Fraction(2 * k + 1, 2))
        if strip_lo > strip_hi:
            continue
        values = [k * k - 1 + (m - 2 * k) * x for x in (strip_lo, strip_hi)]
        if max(values) < 1:
            continue
        left, right = k - 0.5, k + 0.5
        path = (
            f"M {px(left)} {py(y_hi)} L {px(left)} {py(sqrt3_half)} "
            f"A {_fmt(_UNIT)} {_fmt(_UNIT)} 0 0 1 {px(right)} {py(sqrt3_half)} "
            f"L {px(right)} {py(y_hi)} Z"
        )
        parts.append(
            f'<path d="{path}" fill="{colors["domain_fill"]}" '
            f'stroke="{colors["domain_edge"]}" stroke-width="1"/>'
        )

    parts.append(
        f'<line x1="{px(x_lo)}" y1="{py(0)}" x2="{px(x_hi)}" y2="{py(0)}" '
        f'stroke="{colors["x_axis"]}" stroke-width="2"/>'
    )

    step = 1 if m > 0 else -1
    for n in range(0, m + step, step):
        parts.append(
            f'<path d="{upper_arc(n - 1, 0, n + 1, 0, 1.0)}" '
            f'fill="none" stroke="{colors["circle"]}" stroke-width="1.5"/>'
        )

    center = m / 2.0
    parts.append(
        f'<path d="{upper_arc(center - radius, 0, center + radius, 0, radius)}" '
        f'fill="none" stroke="{colors["axis_circle"]}" stroke-width="2"/>'
    )

    ax0, ay0 = arc.endpoint_c0
    axm, _ = arc.endpoint_cm
    a_left = min(ax0, axm)
    a_right = max(ax0, axm)
    parts.append(
        f'<path d="{upper_arc(a_left, float(ay0), a_right, float(ay0), radius)}" '
        f'fill="none" stroke="{colors["alpha"]}" stroke-width="4"/>'
    )

    def dot(x, y, label=None):
        parts.append(
            f'<circle cx="{px(x)}" cy="{py(y)}" r="4" fill="{colors["point"]}"/>'
        )
        if label:
            parts.append(
                f'<text x="{px(x)}" y="{_fmt(float(py(y)) - 8.0)}" '
                f'font-size="16" fill="{colors["label"]}">{label}</text>'
            )

    dot(0, 1)
    dot(0.5, sqrt3_half)
    cone = axis_order2_points(m)
    for name, n in zip(("a", "b"), cone):
        dot(n, 1, name)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
