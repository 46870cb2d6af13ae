"""Exact upper-half-plane data for the axis of a hyperbolic matrix.

Axis endpoints are quadratic irrationals handled without floating point, so
cone-point incidence and fundamental-domain membership are decided exactly.
Floats appear only in the hyperbolic translation length, in emitted SVG
coordinates, and in the `approx` value that the CLI's JSON writes beside each
quadratic irrational (its correctly rounded `float`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Union

from .conjugacy import cyclic_word, inverse_word
from .core_algebra import IntMatrix2, _record, require_anosov
from .errors import DomainError, NotUpperHalfPlane, TraceTooSmall

Exact = Union[int, Fraction, "QuadraticIrrational"]


@_record
class QuadraticIrrational:
    """(p + q*sqrt(disc)) / r with integer p, q, r and nonsquare disc > 0.

    Canonical form has r > 0 and gcd(p, q, r) = 1, so equality of values is
    structural equality (rational values compare across discriminants).
    The sign is p's where p^2 > q^2 disc and q's otherwise.  Comparisons and
    arithmetic are exact: a rational operand of any disc joins the other
    operand's field, and two irrational operands must share disc.  A float
    compares as with a Fraction, at its exact value, but takes part in no
    arithmetic.
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
        g = math.gcd(self.p, self.q, self.r) * (1 if self.r > 0 else -1)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q", self.q // g)
        object.__setattr__(self, "r", self.r // g)

    @staticmethod
    def from_rational(value, disc: int) -> "QuadraticIrrational":
        f = Fraction(value)
        return QuadraticIrrational(f.numerator, 0, f.denominator, disc)

    def conjugate(self) -> "QuadraticIrrational":
        return QuadraticIrrational(self.p, -self.q, self.r, self.disc)

    def sign(self) -> int:
        # r > 0, and p^2 = q^2 disc only at p = q = 0, as disc is not a square
        s = self.p if self.p * self.p > self.q * self.q * self.disc else self.q
        return (s > 0) - (s < 0)

    def _coerce(self, other) -> Optional["QuadraticIrrational"]:
        if isinstance(other, (int, Fraction)):
            return QuadraticIrrational.from_rational(other, self.disc)
        if not isinstance(other, QuadraticIrrational):
            return None
        if self.q and other.q and self.disc != other.disc:
            raise ValueError(f"mixed discriminants {self.disc} and {other.disc}")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.disc if o.q else self.disc
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
        d = o.disc if o.q else self.disc
        return QuadraticIrrational(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def _compare(self, other, op):
        # as Fraction compares: a finite float at its exact value, and a
        # non-finite one as 0.0 compares with it
        if isinstance(other, float):
            if not math.isfinite(other):
                return op(0.0, other)
            other = Fraction(other)
        elif not isinstance(other, (int, Fraction, QuadraticIrrational)):
            return NotImplemented
        return op((self - other).sign(), 0)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.disc))

    def __float__(self) -> float:
        """The correctly rounded value; DomainError outside float range.

        x = (p + q sqrt(disc)) / r equals n / (r 2^k) if q = 0 and otherwise
        lies strictly between it and (n + 1) / (r 2^k), where n = p 2^k +
        floor(q sqrt(disc) 2^k), and k is set once, by Liouville's bound, so
        that no rounding boundary lies that close to x.  With b the bit length
        of q^2 disc, s = 2^ceil(b/2) >= sqrt(q^2 disc), N = |p^2 - q^2 disc| >= 1
        and |p - q sqrt(disc)| < |p| + s + 1 give
        |x| > 2^e, so a boundary u/v in reach (a midpoint between floats, or
        the overflow edge) has v <= 2^min(1075, max(0, 54 - e)), 1075 for
        subnormals; v^2 ((r u/v - p)^2 - q^2 disc) is a nonzero integer, so
        |u/v - x| > 1 / (v^2 r (r + 2s + 2)) >= 1 / (r 2^k).  CPython's int
        true division is correctly rounded, so n / (r 2^k) rounds as x does.
        """
        p, q, r = self.p, self.q, self.r
        q2d = q * q * self.disc
        s = 1 << (q2d.bit_length() + 1) // 2
        e = abs(p * p - q2d).bit_length() - 1 - r.bit_length() - (abs(p) + s + 1).bit_length()
        k = 2 * min(1075, max(0, 54 - e)) + (r + 2 * s + 2).bit_length()
        root = math.isqrt(q2d << 2 * k)
        try:
            return ((p << k) + (root if q >= 0 else -root - 1)) / (r << k)
        except OverflowError:
            raise DomainError("quadratic irrational outside float range") from None

    def __str__(self) -> str:
        return f"({self.p} + {self.q}*sqrt({self.disc}))/{self.r}"


@_record
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

    The fixed points solve c z^2 + (d - a) z - b = 0; c = 0 does not occur,
    since it forces a = d = +-1 and so trace +-2.  The root with +sqrt(d) is
    the larger iff c > 0, as the two differ by sqrt(d) / c.
    """
    require_anosov(A)
    t = A.trace()
    d = t * t - 4
    plus = QuadraticIrrational(A.a - A.d, 1, 2 * A.c, d)
    minus = QuadraticIrrational(A.a - A.d, -1, 2 * A.c, d)
    lo, hi = (minus, plus) if A.c > 0 else (plus, minus)
    try:
        length = 2.0 * math.acosh(abs(t) / 2.0)
    except OverflowError:
        # acosh(x) = log(2x) - O(x^-2), and math.log takes ints of any size
        length = 2.0 * math.log(abs(t))
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
    positive.  A float y is taken at its exact binary value.
    """
    x, y = z
    if not isinstance(x, (int, Fraction, QuadraticIrrational)):
        raise TypeError(f"coordinates must be exact, got {type(x)}")
    if isinstance(y, float):
        y = Fraction(y)
    if y <= 0:
        raise NotUpperHalfPlane(f"y = {y} is not positive")
    x_sq, quarter = x * x, Fraction(1, 4)
    side = _sign_of_difference(y * y, 1 - x_sq)  # sign of x^2 + y^2 - 1
    if x_sq > quarter or side < 0:
        return "outside"
    if x_sq == quarter or side == 0:
        return "boundary"
    return "interior"


def _sign_of_difference(a: Exact, b: Exact) -> int:
    """sign(a - b), where a and b may lie in two different quadratic fields.

    Split b = b0 + v, b0 rational and v = (q/r) sqrt(disc): a - b = u - v with
    u = a - b0 in a's field, and unless u has v's sign, -v's sign decides it;
    otherwise u^2 - v^2 does, and v^2 is rational.
    """
    if not isinstance(b, QuadraticIrrational) or b.q == 0:
        return (a > b) - (a < b)
    u, sv = a - Fraction(b.p, b.r), (1 if b.q > 0 else -1)
    if not sv * u > 0:
        return -sv
    u_sq, v_sq = u * u, Fraction(b.q * b.q * b.disc, b.r * b.r)
    return sv * ((u_sq > v_sq) - (u_sq < v_sq))


@_record
class OrthogonalityCertificate:
    """Exact identity (center distance)^2 = r1^2 + r2^2 for a circle pair."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@_record
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
    # unit circles at 0 and m, both |m|/2 from the axis centre m/2
    certificates = tuple(
        OrthogonalityCertificate(f"{c} orthogonal to axis", Fraction(m * m, 4), 1 + Fraction(d, 4))
        for c in ("C0", "Cm")
    )
    position = {3: "outside", 4: "corner"}.get(abs(m), "interior")
    return AlphaArc(
        m=m,
        endpoint_c0=(x0, y0),
        endpoint_cm=(xm, y0),
        certificates=certificates,
        corner_coincidence=position == "corner",
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

    Equivalent to reversibility (Lemma 5.1), read off the canonical word:
    `inverse_word` gives it back.  On standard forms this agrees with
    `axis_order2_points`, which the tests use as an oracle.
    """
    _, word = cyclic_word(L)
    return inverse_word(word) == word


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
    arc = alpha_arc(m)  # raises TraceTooSmall for |m| < 3
    colors = dict(DEFAULT_PALETTE)
    colors.update(palette or {})
    # every color is written into a double-quoted attribute
    colors = {
        k: str(v).replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        for k, v in colors.items()
    }
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

    # translates of the fundamental domain touched by alpha: on the axis,
    # |z - k|^2 = k(m - k) - 1 + (m - 2k)(x - k).  For 0 < |k| < |m|, x = k
    # lies on alpha, where this is at least |m| - 2 >= 1.  Alpha meets the
    # end strips k = 0 and k = m only when 2/|m| <= 1/2, and then reaches
    # |m|/2 - 1 >= 1 at the strip's far edge; so both ends drop at |m| = 3
    alpha_lo = min(arc.endpoint_c0[0], arc.endpoint_cm[0])
    alpha_hi = max(arc.endpoint_c0[0], arc.endpoint_cm[0])
    sqrt3_half = math.sqrt(3.0) / 2.0
    trim = int(abs(m) == 3)
    for k in range(min(0, m) + trim, max(0, m) + 1 - trim):
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

    ay = float(arc.endpoint_c0[1])
    parts.append(
        f'<path d="{upper_arc(alpha_lo, ay, alpha_hi, ay, radius)}" '
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
