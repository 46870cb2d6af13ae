"""Shared corpus generators and brute-force oracles for the test suite.

The oracles are deliberately independent of the library's decision
procedures: conjugacy and commutation are checked by exhaustive scans over
entry boxes (vectorized with numpy, values stay far inside int64), and unit
representation by evaluating the form on a full grid of primitive pairs,
and class enumeration by a depth-first search over positive words.
"""

from __future__ import annotations

import numpy as np

from solvsplit import IDENTITY, IntMatrix2, monodromy_form
from solvsplit.conjugacy import CyclicWord


def gen_power(letter: str, e: int) -> IntMatrix2:
    return IntMatrix2(1, e, 0, 1) if letter == "R" else IntMatrix2(1, 0, e, 1)


def letter_product(exponents: tuple[int, ...]) -> IntMatrix2:
    """R^{e1} S^{e2} ... multiplied one letter at a time."""
    M = IDENTITY
    for i, e in enumerate(exponents):
        for _ in range(e):
            M = M @ gen_power("RS"[i % 2], 1)
    return M


def word_product(exponents: tuple[int, ...]) -> IntMatrix2:
    """R^{e1} S^{e2} ... multiplied one block at a time."""
    M = IDENTITY
    for i, e in enumerate(exponents):
        M = M @ gen_power("RS"[i % 2], e)
    return M


def least_pair_rotation(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation of the exponent tuple by whole pairs."""
    return min(exponents[i:] + exponents[:i] for i in range(0, len(exponents), 2))


def reduce_step_by_step(M: IntMatrix2) -> tuple[tuple[int, ...], tuple[int, int, int, int]]:
    """The reduction one quotient at a time: (exponents, entries of U).

    Plain tuple arithmetic, no library calls.  The attracting fixed point
    x = (p + sqrt(t^2 - 4)) / q of the current conjugate, (p, q, r) =
    (a - d, 2c, 2b), loses floor(x) by R^-floor(x) unless 0 < x < 1, where
    S^-floor(1/x) is applied instead.  U is the product of the inverses; it
    is fixed at the first conjugate with 2 <= t - p <= min(q, r), and the
    quotients after it are the word, read until its matrix has trace t.
    """
    from math import isqrt

    t = M.a + M.d
    sd = isqrt(t * t - 4)

    def floor_surd(u, v):  # floor((u + sqrt(t^2 - 4)) / v), irrational
        return (u + sd) // v if v > 0 else (-u - sd - 1) // -v

    p, q, r = M.a - M.d, 2 * M.c, 2 * M.b
    mat = (1, 0, 0, 1)
    U = None
    exponents = []
    while True:
        if U is None and 2 <= t - p <= min(q, r):
            U, mat = mat, (1, 0, 0, 1)
        elif U is not None and mat[0] + mat[3] == t:
            return tuple(exponents), U
        k = floor_surd(p, q)
        if k:
            p, q, r = p - k * q, q, r + 2 * k * p - k * k * q
            mat = (mat[0], mat[1] + k * mat[0], mat[2], mat[3] + k * mat[2])
        else:
            k = floor_surd(-p, r)  # 1/x = (-p + sqrt(t^2 - 4)) / r
            p, q, r = p + k * r, q - 2 * k * p - k * k * r, r
            mat = (mat[0] + k * mat[1], mat[1], mat[2] + k * mat[3], mat[3])
        if U is not None:
            exponents.append(k)


def chebyshev_traces(t: int, count: int) -> list[int]:
    """trace(L^n) for n = 0 .. count - 1, for any L of trace t and det 1.

    Plain integer arithmetic, no library calls: by the characteristic
    polynomial, t_0 = 2, t_1 = t and t_{n+1} = t*t_n - t_{n-1}.
    """
    traces = [2, t]
    while len(traces) < count:
        traces.append(t * traces[-1] - traces[-2])
    return traces[:count]


def words_of_trace(t: int) -> set[tuple[int, ...]]:
    """Least pair rotations of every positive word R^a1 S^b1 ... of trace t.

    Plain tuple arithmetic, no library calls.  Appending R^a S^b to a
    nonnegative invertible prefix (x, y, z, w) gives trace
    x + z*a + w + (x*a + y)*b, which grows with a and with b, so the
    depth-first search stops each branch once the trace passes t.
    """
    found = set()
    stack = [((1, 0, 0, 1), ())]
    while stack:
        (x, y, z, w), word = stack.pop()
        a = 1
        while x + z * a + w + x * a + y <= t:
            top, bottom = x * a + y, z * a + w  # the prefix times R^a
            b = 1
            while x + bottom + top * b <= t:
                nxt = (x + top * b, top, z + bottom * b, bottom)
                longer = word + (a, b)
                if nxt[0] + nxt[3] == t:
                    found.add(least_pair_rotation(longer))
                else:
                    stack.append((nxt, longer))
                b += 1
            a += 1
    return found


def least_intertwiner_index(A, B, box: int) -> int:
    """Least |det P| over integer P with PA = BP and P e1 in the box.

    Plain tuple arithmetic, no library calls.  The first column of PA = BP
    reads a*w + c*u = B w for w = P e1 and u = P e2, so u = (B w - a*w) / c
    is fixed by w; each w with integral u is kept when P then passes the
    full check PA = BP.  w and -w give the same |det|.
    """
    a, b, c, d = A.a, A.b, A.c, A.d
    e, f, g, h = B.a, B.b, B.c, B.d
    best = None
    for x in range(-box, box + 1):
        for y in range(0, box + 1):
            u0, u1 = (e - a) * x + f * y, g * x + (h - a) * y
            if (y == 0 and x <= 0) or u0 % c or u1 % c:
                continue
            u0, u1 = u0 // c, u1 // c
            PA = (x * a + u0 * c, x * b + u0 * d, y * a + u1 * c, y * b + u1 * d)
            BP = (e * x + f * y, e * u0 + f * u1, g * x + h * y, g * u0 + h * u1)
            det = abs(x * u1 - y * u0)
            if PA == BP and det and (best is None or det < best):
                best = det
    return best


def long_conjugator(rng, bits: int, max_exp: int = 9) -> IntMatrix2:
    """Random SL(2,Z) word whose largest entry has at least `bits` bits."""
    K = IDENTITY
    while max(abs(e) for e in K.entries()).bit_length() < bits:
        K = K @ random_sl2(rng, factors=8, max_exp=max_exp)
    return K


def random_sl2(rng, factors: int = 6, max_exp: int = 3) -> IntMatrix2:
    """Random product of R^e and S^e factors, e in [-max_exp, max_exp]."""
    M = IDENTITY
    for _ in range(factors):
        letter = rng.choice("RS")
        e = rng.randint(1, max_exp) * rng.choice((1, -1))
        M = M @ gen_power(letter, e)
    return M


def random_word_matrix(rng, max_pairs: int = 2, max_exp: int = 4) -> IntMatrix2:
    k = rng.randint(1, max_pairs)
    exps = tuple(rng.randint(1, max_exp) for _ in range(2 * k))
    return CyclicWord(exps).matrix()


def random_anosov(
    rng,
    max_trace: int = 20,
    conj_factors: int = 4,
    allow_negative: bool = True,
) -> IntMatrix2:
    """Random Anosov matrix with |trace| <= max_trace and moderate entries."""
    while True:
        W = random_word_matrix(rng)
        if W.trace() <= max_trace:
            break
    K = random_sl2(rng, conj_factors)
    M = K @ W @ K.inverse()
    if allow_negative and rng.random() < 0.5:
        M = -M
    return M


def random_primitive(rng, bound: int = 50):
    from math import gcd

    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if gcd(p, q) == 1:
            from solvsplit import PrimitiveSlope

            return PrimitiveSlope(p, q)


def conjugator_search(
    A: IntMatrix2, B: IntMatrix2, bound: int = 50, first: bool = False
) -> list[IntMatrix2]:
    """All K with entries in [-bound, bound], det 1, and K A K^-1 = B.

    K A = B K is linear in K; an Anosov B has nonzero upper-right entry, so
    the last two entries of K are determined by the first two.  The scan
    over (x, y) with post-filtering to the box is therefore exhaustive.
    """
    f = B.b
    assert f != 0, "oracle requires Anosov B"
    vals = np.arange(-bound, bound + 1, dtype=np.int64)
    x, y = np.meshgrid(vals, vals, indexing="ij")
    num_z = x * (A.a - B.a) + y * A.c
    num_w = x * A.b + y * (A.d - B.a)
    divisible = (num_z % f == 0) & (num_w % f == 0)
    z = np.where(divisible, num_z // f, 0)
    w = np.where(divisible, num_w // f, 0)
    eq3 = -x * B.c + z * (A.a - B.d) + w * A.c == 0
    eq4 = -y * B.c + z * A.b + w * (A.d - B.d) == 0
    det_one = x * w - y * z == 1
    in_box = (np.abs(z) <= bound) & (np.abs(w) <= bound)
    mask = divisible & eq3 & eq4 & det_one & in_box
    out = []
    for i, j in np.argwhere(mask):
        K = IntMatrix2(int(x[i, j]), int(y[i, j]), int(z[i, j]), int(w[i, j]))
        assert K @ A @ K.inverse() == B
        out.append(K)
        if first:
            break
    return out


def unit_exists_brute(L: IntMatrix2, bound: int = 1000) -> bool:
    """Does some primitive pair with |p|, |q| <= bound give |Q_L(p, q)| = 1?"""
    form = monodromy_form(L)
    qa, qb, qc = form.qa, form.qb, form.qc
    qs = np.arange(-bound, bound + 1, dtype=np.int64)
    for lo in range(-bound, bound + 1, 256):
        ps = np.arange(lo, min(lo + 256, bound + 1), dtype=np.int64)
        P, Q = np.meshgrid(ps, qs, indexing="ij")
        values = qa * P * P + qb * P * Q + qc * Q * Q
        hits = (np.abs(values) == 1) & (np.gcd(P, Q) == 1)
        if hits.any():
            return True
    return False


def commuting_unimodular_scan(L: IntMatrix2, bound: int = 40) -> list[IntMatrix2]:
    """Exhaustive scan for K with entries in [-bound, bound], KL = LK, |det| = 1."""
    vals = np.arange(-bound, bound + 1, dtype=np.int64)
    y, z, w = np.meshgrid(vals, vals, vals, indexing="ij")
    results = []
    for xv in vals:
        e1 = xv * L.a + y * L.c - (L.a * xv + L.b * z)
        e2 = xv * L.b + y * L.d - (L.a * y + L.b * w)
        e3 = z * L.a + w * L.c - (L.c * xv + L.d * z)
        e4 = z * L.b + w * L.d - (L.c * y + L.d * w)
        det = xv * w - y * z
        mask = (e1 == 0) & (e2 == 0) & (e3 == 0) & (e4 == 0) & (np.abs(det) == 1)
        for iy, iz, iw in np.argwhere(mask):
            results.append(
                IntMatrix2(
                    int(xv), int(y[iy, iz, iw]), int(z[iy, iz, iw]), int(w[iy, iz, iw])
                )
            )
    return results


def signed_power_orbit(
    L: IntMatrix2, bound: int, extra: IntMatrix2 | None = None, max_n: int = 16
) -> set[tuple[int, int, int, int]]:
    """Entries of all +-L^n (and extra * +-L^n) inside the entry box."""

    def in_box(M):
        return max(abs(e) for e in M.entries()) <= bound

    out = set()
    from solvsplit import mat_pow

    for n in range(-max_n, max_n + 1):
        P = mat_pow(L, n)
        for M in (P, -P):
            if in_box(M):
                out.add(M.entries())
            if extra is not None:
                Q = extra @ M
                if in_box(Q):
                    out.add(Q.entries())
    return out


def matrices_of_trace(t: int, bound: int = 30) -> list[IntMatrix2]:
    """Every SL(2,Z) matrix of trace t with all entries in [-bound, bound]."""
    assert abs(t) >= 3, "triangular matrices would need the c = 0 case"
    out = []
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        target = a * d - 1
        for c in range(-bound, bound + 1):
            if c == 0 or target % c != 0:
                continue
            b = target // c
            if abs(b) <= bound:
                out.append(IntMatrix2(a, b, c, d))
    return out
