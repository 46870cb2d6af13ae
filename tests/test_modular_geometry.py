import math
import operator
import random
from math import isqrt
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from solvsplit import (
    IntMatrix2,
    QuadraticIrrational,
    alpha_arc,
    axis,
    axis_order2_points,
    hits_order2_cone,
    in_fundamental_domain,
    is_reversible,
    render_figure,
)
from solvsplit.errors import (
    DomainError,
    NotAnosov,
    NotUpperHalfPlane,
    TraceTooSmall,
)

from _helpers import long_conjugator, random_anosov


def qi(p, q, r, d):
    return QuadraticIrrational(p, q, r, d)


def domain_oracle(x, y):
    """in_fundamental_domain's answer for x = (p + q sqrt(d)) / r and y alike.

    Plain integer arithmetic, no library calls: x^2 - 1/4 and x^2 + y^2 - 1
    are A + B sqrt(d1) + C sqrt(d2) over a positive denominator.
    """
    (p1, q1, r1, d1), (p2, q2, r2, d2) = x, y
    x_sq = (p1 * p1 + q1 * q1 * d1, 2 * p1 * q1)  # times r1^2
    x_side = surd_sign(4 * x_sq[0] - r1 * r1, 4 * x_sq[1], d1)
    A = x_sq[0] * r2 * r2 + (p2 * p2 + q2 * q2 * d2 - r2 * r2) * r1 * r1
    circle_side = surd_sign(A, x_sq[1] * r2 * r2, d1, 2 * p2 * q2 * r1 * r1, d2)
    if x_side > 0 or circle_side < 0:
        return "outside"
    return "boundary" if x_side == 0 or circle_side == 0 else "interior"


def surd_sign(A, B, d1, C=0, d2=1):
    """sign(A + B sqrt(d1) + C sqrt(d2)) for nonsquare d1, d2 with d1 d2 nonsquare.

    The value is irrational unless B = C = 0, so bracketing each root between
    isqrt(d 4^k) / 2^k and that plus 2^-k decides it once k is large enough.
    """
    if B == C == 0:
        return (A > 0) - (A < 0)
    for k in range(64, 4096, 64):
        s1, s2 = isqrt(d1 << 2 * k), isqrt(d2 << 2 * k)
        lo = (A << k) + min(B * s1, B * (s1 + 1)) + min(C * s2, C * (s2 + 1))
        hi = (A << k) + max(B * s1, B * (s1 + 1)) + max(C * s2, C * (s2 + 1))
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
    raise AssertionError("sign not decided")


class TestQuadraticIrrational:
    def test_canonicalization(self):
        z = qi(2, -2, -4, 5)
        assert (z.p, z.q, z.r) == (-1, 1, 2)
        with pytest.raises(ValueError):
            qi(1, 1, 0, 5)
        with pytest.raises(ValueError):
            qi(1, 1, 1, 4)  # square disc

    def test_sign_and_comparison(self):
        golden = qi(1, 1, 2, 5)  # (1 + sqrt 5)/2
        assert golden.sign() == 1
        assert golden > 1 and golden < 2
        assert golden.conjugate() < 0 < golden
        assert qi(-3, 1, 1, 5) < 0  # sqrt5 - 3 < 0

    def test_equality_and_rationals(self):
        assert qi(1, 0, 2, 5) == Fraction(1, 2)
        assert qi(1, 0, 2, 5) == qi(2, 0, 4, 3)  # rational values cross discs
        assert qi(0, 1, 1, 5) != qi(0, 1, 1, 5) + 1

    def test_arithmetic(self):
        golden = qi(1, 1, 2, 5)
        assert golden * golden == golden + 1  # x^2 = x + 1
        assert golden + golden.conjugate() == 1
        assert golden * golden.conjugate() == -1
        assert (golden - Fraction(1, 2)) * 2 == qi(0, 1, 1, 5)
        assert golden / 2 == qi(1, 1, 4, 5)

    def test_mixed_disc_rejected(self):
        for op in (operator.add, operator.sub, operator.mul, operator.lt, operator.eq):
            with pytest.raises(ValueError):
                op(qi(0, 1, 1, 5), qi(0, 1, 1, 3))

    def test_inexact_operand_rejected(self):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(qi(0, 1, 1, 5), 1.5)
        # a comparison takes the float at its exact value instead
        assert qi(0, 1, 1, 5) > 1.5 and not qi(0, 1, 1, 5) < 1.5

    def test_float_operand_compares_at_its_exact_value(self):
        half, tenth = qi(1, 0, 2, 5), qi(1, 0, 10, 5)
        assert half == 0.5 and 0.5 == half and not half != 0.5
        assert hash(half) == hash(0.5)
        assert half < 1.5 and half <= 0.5 and half >= 0.5 and half > 0.25 and 1.5 > half
        # 0.1 is 3602879701896397 / 2^55, a little above 1/10
        assert tenth != 0.1 and tenth < 0.1 and 0.1 > tenth
        assert half < math.inf and half > -math.inf and half != math.inf and half != math.nan
        ops = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
        for z, f in ((half, Fraction(1, 2)), (qi(0, -1, 1, 5), Fraction(-9, 4))):
            for x in (math.inf, -math.inf, math.nan):  # as 0.0 compares with x
                for op in ops:
                    assert op(z, x) == op(f, x) == op(0.0, x), (z, op, x)
                    assert op(x, z) == op(x, f) == op(x, 0.0), (z, op, x)
        # (1 + sqrt 5) / 2 = 1.61803398874989484820..., and its float is
        # 1.6180339887498949025..., so it lies between that and the float below
        golden = qi(1, 1, 2, 5)
        f = float(golden)
        below = math.nextafter(f, -math.inf)
        assert below < golden < f and f > golden > below
        assert golden != f and golden != below and not golden == f
        assert golden <= f and not golden >= f and golden >= below and not golden <= below
        assert -golden > -f and -golden < -below

    def test_rational_operand_joins_the_other_field(self):
        # a rational of any disc takes the other operand's; of two rationals,
        # the left one's field is kept
        half5, half3 = qi(1, 0, 2, 5), qi(1, 0, 2, 3)
        assert repr(half5 + half3) == "QuadraticIrrational(p=1, q=0, r=1, disc=5)"
        assert repr(half5 * half3) == "QuadraticIrrational(p=1, q=0, r=4, disc=5)"
        assert (half3 + qi(0, 1, 1, 5)).disc == 5

    def test_float_approximation(self):
        assert abs(float(qi(1, 1, 2, 5)) - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_float_with_operands_beyond_float_range(self):
        # sqrt(2^2200 + 2^1050) - 2^1100 = 2^-51 (1 - O(2^-1150)): the
        # operands overflow a float and nearly cancel
        assert float(qi(-(2**1100), 1, 1, 2**2200 + 2**1050)) == 2.0**-51
        assert float(qi(3 * 2**1100, 1, 2**1100, 5)) == 3.0
        with pytest.raises(DomainError):
            float(qi(2**1100, 1, 1, 5))
        # (10^20 - sqrt(10^40 - 4)) / 2 = 10^-20 (1 + O(10^-40)): the float
        # expression cancels to 0.0
        assert float(qi(10**20, -1, 2, 10**40 - 4)) == 1e-20

    def test_float_is_correctly_rounded(self):
        rng = random.Random(17)
        # each lies so close to a rounding tie that 64 guard bits past the
        # operands' length leave two candidate floats
        cases = [
            qi(2, -1, 7213, 3),
            qi(2, -1, 27809, 3),
            qi(3, -1, 36343, 8),
            qi(-1, 1, 1489, 2),
            qi(5, -2, 19143, 6),
        ]
        for _ in range(2000):
            t = rng.randint(3, 10 ** rng.randint(1, 30))
            p = rng.randint(-(10**15), 10**15)
            r = rng.randint(1, 10 ** rng.randint(1, 15))
            cases.append(qi(p, rng.choice([1, -1]), r, t * t - 4))
        # h - k sqrt(d) for the continued-fraction convergents h/k of sqrt(d)
        # is about 1 / (2k sqrt(d)): offsets that put a value next to a
        # midpoint 2^E (1 + 2^-53) of binade E, next to 0 (results of 0.0
        # and subnormals), and next to the overflow edge 2^1024 - 2^970
        edge = 2**1024 - 2**970
        for d in (2, 3, 5, 7, 13, 61):
            a0 = isqrt(d)
            m, den, a = 0, 1, a0
            h0, h, k0, k = 1, a0, 0, 1
            for _ in range(40):
                for sigma in (1, -1):
                    for E in (0, -15, 52, -1022, -1074):
                        cases.append(qi((2**53 + 1) - sigma * h, sigma * k, 2 ** (53 - E), d))
                    for j in (1000, 1074, 1075, 1100):
                        cases.append(qi(sigma * h, -sigma * k, 2**j, d))
                    for j in (0, 60):
                        cases.append(qi(sigma * (edge * 2**j + h), -sigma * k, 2**j, d))
                m = den * a - m
                den = (d - m * m) // den
                a = (a0 + m) // den
                h0, h, k0, k = h, a * h + h0, k, a * k + k0
        # both endpoints of the axis of a conjugate by a 4000-bit matrix
        K = long_conjugator(random.Random(22), 4000)
        cases += axis(K @ IntMatrix2(5, 2, 2, 1) @ K.inverse()).endpoints
        # Pell pairs near Liouville's worst case: z = p - sqrt(d) with
        # d = 4^(j-1) - 1 and p = 2^(53-j) + 2^(j-1) + 1.  X = 2^(2j-1) - 1 has
        # X^2 - d 4^j = 1, so z lies about 2^-3j above the midpoint
        # (p 2^j - X) / 2^j, whose upper neighbour has an odd mantissa
        for j in range(5, 53):
            cases.append(qi(2 ** (53 - j) + 2 ** (j - 1) + 1, -1, 1, 4 ** (j - 1) - 1))
        # just above 2^-1075, the midpoint between 0.0 and the least subnormal
        tiny = qi(2**1074, -1, 1, 4**1074 - 1)
        assert float(tiny) == 5e-324
        cases.append(tiny)
        for z in cases:
            if z >= edge or z <= -edge:
                with pytest.raises(DomainError):
                    float(z)
                continue
            x = float(z)

            def distance(y):
                diff = z - Fraction(y)
                return diff if diff >= 0 else -diff

            for y in (math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
                # the largest float's upper neighbour is inf
                if not math.isinf(y):
                    assert distance(y) > distance(x)


class TestAxis:
    def test_standard_form_m3(self):
        geo = axis(IntMatrix2(3, -1, 1, 0))
        lo, hi = geo.endpoints
        assert hi == qi(3, 1, 2, 5) and lo == qi(3, -1, 2, 5)
        assert geo.center == Fraction(3, 2)
        assert geo.radius_sq == Fraction(5, 4)
        assert abs(geo.translation_length - 2 * math.acosh(1.5)) < 1e-15
        assert abs(geo.translation_length - 1.9248473002384139) < 1e-12

    def test_standard_form_m4(self):
        geo = axis(IntMatrix2(4, -1, 1, 0))
        lo, hi = geo.endpoints
        # endpoints 2 -+ sqrt(3), carried with disc trace^2 - 4 = 12
        assert lo == qi(4, -1, 2, 12) and hi == qi(4, 1, 2, 12)
        # 2 - sqrt(3) = 0.26794919243112270647..., correctly rounded (the
        # float expression 2 - math.sqrt(3) lands two ulps above)
        assert float(lo) == 0.2679491924311227
        assert geo.center == 2 and geo.radius_sq == 3

    def test_endpoint_product_is_one_for_standard_forms(self):
        for m in range(3, 30):
            lo, hi = axis(IntMatrix2(m, -1, 1, 0)).endpoints
            assert lo * hi == 1

    def test_endpoints_solve_fixed_point_equation(self):
        rng = random.Random(61)
        for _ in range(100):
            A = random_anosov(rng)
            for z in axis(A).endpoints:
                assert A.c * z * z + (A.d - A.a) * z - A.b == 0

    def test_translation_length_close_to_log_eigenvalue(self):
        for t in (3, 4, 17, 1001, 10**6):
            geo = axis(IntMatrix2(t, -1, 1, 0))
            lam = (t + math.sqrt(t * t - 4)) / 2
            assert abs(geo.translation_length - 2 * math.log(lam)) <= 1e-12

    def test_translation_length_beyond_float_range(self):
        geo = axis(IntMatrix2(2**1100, -1, 1, 0))
        assert abs(geo.translation_length - 2200 * math.log(2)) <= 1e-12

    def test_rejects_non_anosov(self):
        with pytest.raises(NotAnosov):
            axis(IntMatrix2(1, 1, 0, 1))


class TestFundamentalDomain:
    def test_examples(self):
        assert in_fundamental_domain((0, 1)) == "boundary"  # i
        assert in_fundamental_domain((1, 1)) == "outside"  # 1 + i
        assert in_fundamental_domain((0, 2)) == "interior"  # 2i

    def test_corner_point(self):
        corner = (Fraction(1, 2), qi(0, 1, 2, 3))  # exp(pi i / 3)
        assert in_fundamental_domain(corner) == "boundary"

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NotUpperHalfPlane):
            in_fundamental_domain((0, -1))
        with pytest.raises(NotUpperHalfPlane):
            in_fundamental_domain((0, 0))

    def test_exact_edge_cases(self):
        assert in_fundamental_domain((Fraction(1, 2), 5)) == "boundary"
        assert in_fundamental_domain((Fraction(501, 1000), 5)) == "outside"
        assert in_fundamental_domain((Fraction(499, 1000), 5)) == "interior"

    @pytest.mark.parametrize(
        "x, y, expected",
        [
            # on |x| = 1/2, mixed int, Fraction and quadratic-irrational y
            (Fraction(1, 2), 2, "boundary"),
            (Fraction(-1, 2), Fraction(3, 2), "boundary"),
            (Fraction(-1, 2), qi(0, 1, 2, 3), "boundary"),
            (Fraction(1, 2), qi(1, 1, 1, 2), "boundary"),
            (qi(1, 0, 2, 5), qi(0, 1, 2, 3), "boundary"),
            (Fraction(1, 2), Fraction(1, 2), "outside"),  # |x| = 1/2 but inside C_0
            (Fraction(1, 2), qi(0, 1, 2, 2), "outside"),
            # on x^2 + y^2 = 1
            (0, 1, "boundary"),
            (Fraction(2, 5), qi(0, 1, 5, 21), "boundary"),
            (qi(0, -1, 4, 3), qi(0, 1, 4, 13), "boundary"),
            (qi(0, 1, 4, 3), 1, "interior"),
            (qi(0, 1, 4, 3), Fraction(8, 10), "outside"),
            (Fraction(3, 5), Fraction(4, 5), "outside"),  # on C_0 but |x| > 1/2
            (qi(0, 1, 2, 2), qi(0, 1, 2, 2), "outside"),
            (Fraction(-1, 3), qi(0, 2, 3, 2), "boundary"),
            # a float y is taken at its exact value
            (Fraction(1, 2), 2.0, "boundary"),
            (0, 1.0, "boundary"),
            (Fraction(1, 4), 0.96875, "interior"),
        ],
    )
    def test_boundaries_with_mixed_exact_types(self, x, y, expected):
        assert in_fundamental_domain((x, y)) == expected
        assert in_fundamental_domain((-x, y)) == expected

    def test_points_with_coordinates_in_two_quadratic_fields(self):
        # x = (p + q sqrt(d)) / r in one field and y in another, on both sides
        # of the unit circle, on it and past |x| = 1/2
        points = [
            ((-1, 1, 4, 5), (1, 1, 2, 3)),  # (sqrt5 - 1)/4 + i (1 + sqrt3)/2
            ((-1, 1, 4, 5), (-1, 1, 2, 3)),
            ((0, 1, 4, 2), (0, 1, 4, 14)),  # x^2 + y^2 = 1/8 + 7/8
            ((0, 1, 4, 2), (1, 1, 4, 7)),
            ((0, 1, 4, 2), (1, 1, 4, 10)),
            ((1, -1, 4, 3), (0, 1, 5, 21)),
            ((1, -1, 4, 3), (1, 1, 3, 7)),
            ((-1, 1, 4, 5), (0, 1, 40, 1447)),  # 1 - x^2 = 0.904508...
            ((-1, 1, 4, 5), (0, 1, 20, 362)),
            ((-1, 1, 4, 5), (3, 1, 40, 1063)),
            ((0, 1, 2, 2), (1, 1, 1, 3)),  # |x| = 0.707...
        ]
        seen = set()
        for xs, ys in points:
            expected = domain_oracle(xs, ys)
            seen.add(expected)
            x, y = qi(*xs), qi(*ys)
            assert in_fundamental_domain((x, y)) == expected, (xs, ys)
            assert in_fundamental_domain((-x, y)) == expected, (xs, ys)
        assert seen == {"interior", "boundary", "outside"}

    def test_rejects_non_positive_irrational_y_and_inexact_x(self):
        with pytest.raises(NotUpperHalfPlane):
            in_fundamental_domain((0, qi(0, -1, 2, 3)))
        with pytest.raises(NotUpperHalfPlane):
            in_fundamental_domain((0, qi(1, -1, 1, 2)))  # 1 - sqrt(2) < 0
        with pytest.raises(TypeError):
            in_fundamental_domain((0.5, 1))


class TestAlphaArc:
    def test_m4_corner_coincidence(self):
        arc = alpha_arc(4)
        assert arc.endpoint_c0 == (Fraction(1, 2), qi(0, 1, 4, 12))
        assert arc.corner_coincidence
        assert arc.c0_endpoint_position == "corner"

    def test_m5_interior(self):
        arc = alpha_arc(5)
        assert arc.endpoint_c0 == (Fraction(2, 5), qi(0, 1, 5, 21))
        assert not arc.corner_coincidence
        assert arc.c0_endpoint_position == "interior"

    def test_interior_for_m_at_least_5(self):
        for m in (5, 6, 7, 19):
            assert alpha_arc(m).c0_endpoint_position == "interior"
            assert alpha_arc(-m).c0_endpoint_position == "interior"

    def test_m3_outside(self):
        assert alpha_arc(3).c0_endpoint_position == "outside"
        assert alpha_arc(-3).c0_endpoint_position == "outside"

    def test_orthogonality_certificates_exact(self):
        for m in list(range(3, 51)) + list(range(-50, -2)):
            arc = alpha_arc(m)
            for cert in arc.certificates:
                assert cert.holds
                assert cert.lhs == Fraction(m * m, 4)
                assert cert.rhs == 1 + Fraction(m * m - 4, 4)

    def test_rejects_small_m(self):
        with pytest.raises(TraceTooSmall):
            alpha_arc(2)


class TestOrder2ConePoint:
    def test_integer_solutions(self):
        assert axis_order2_points(3) == (1, 2)
        assert axis_order2_points(-3) == (-2, -1)
        assert axis_order2_points(4) == ()

    def test_rejects_small_m(self):
        with pytest.raises(TraceTooSmall):
            axis_order2_points(2)

    def test_solvable_iff_trace_three_up_to_1000(self):
        # the |m| <= 10^4 sweep runs in the acceptance suite
        for m in range(3, 1001):
            assert bool(axis_order2_points(m)) == (m == 3)
            assert bool(axis_order2_points(-m)) == (m == 3)

    def test_hits_examples(self):
        assert hits_order2_cone(IntMatrix2(3, -1, 1, 0))
        assert not hits_order2_cone(IntMatrix2(4, -1, 1, 0))
        assert hits_order2_cone(IntMatrix2(2, 1, 1, 1))

    def test_matches_reversibility_on_random_corpus(self):
        rng = random.Random(62)
        for _ in range(80):
            L = random_anosov(rng, max_trace=12)
            assert hits_order2_cone(L) == is_reversible(L).reversible

    def test_integer_incidence_oracle_on_standard_forms(self):
        # the exact incidence test (2n - m)^2 = m^2 - 8 against the word test
        for m in [*range(3, 2001), *range(-2000, -2)]:
            F = IntMatrix2(m, -1, 1, 0)
            expected = bool(axis_order2_points(m))
            assert hits_order2_cone(F) == expected == is_reversible(F).reversible

    def test_integer_incidence_oracle_on_long_conjugates(self):
        rng = random.Random(63)
        for m in [*range(3, 41), *range(-40, -2)]:
            K = long_conjugator(rng, 200)
            L = K @ IntMatrix2(m, -1, 1, 0) @ K.inverse()
            expected = bool(axis_order2_points(m))
            assert hits_order2_cone(L) == expected == is_reversible(L).reversible


class TestRenderFigure:
    @pytest.mark.parametrize("m", [3, 4, 7, -3])
    def test_well_formed_svg(self, m):
        svg = render_figure(m)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_deterministic_output(self):
        assert render_figure(4) == render_figure(4)
        assert render_figure(3) == render_figure(3)

    def test_alpha_endpoints_in_path_data(self):
        svg = render_figure(4)
        arc = alpha_arc(4)
        x_px = (float(arc.endpoint_c0[0]) - (-1.0)) * 100.0
        assert f"{x_px:.6f}" in svg

    def test_cone_points_marked_for_m3(self):
        svg = render_figure(3)
        assert ">a</text>" in svg and ">b</text>" in svg
        assert ">a</text>" not in render_figure(4)

    def test_palette_override_changes_output(self):
        assert render_figure(4, {"alpha": "#000000"}) != render_figure(4)

    def test_rejects_small_m(self):
        with pytest.raises(TraceTooSmall):
            render_figure(1)
