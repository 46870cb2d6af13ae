"""Independent exact arithmetic used to make inputs and to check outputs.

Nothing here imports solvsplit.  Matrices are plain tuples (a, b, c, d) for
[[a, b], [c, d]].  A positive word R^a1 S^b1 ... R^ak S^bk is its exponent
tuple (a1, b1, ..., ak, bk), with R = [[1, 1], [0, 1]] and S = [[1, 0],
[1, 1]].  The facts used to predict verdicts from the generating word:

- an Anosov matrix of trace t > 2 is SL(2,Z)-conjugate to exactly one
  positive word up to rotation by whole (R, S) pairs, so the least pair
  rotation is a complete invariant, and -W covers trace < -2;
- conjugating by [[0, 1], [1, 0]] swaps R and S, so the other SL class in a
  GL(2,Z) class is the word rotated by one letter;
- W^-1 is SL-conjugate to W^T, whose exponents are those of W reversed;
- genus 2 holds exactly for the class of the standard form [[t, -1], [1, 0]]
  and its mirror, whose words are (|t|-2, 1) and (1, |t|-2).
"""

from __future__ import annotations

import math

IDENTITY = (1, 0, 0, 1)


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(x):
    return x[0] * x[3] - x[1] * x[2]


def trace(x):
    return x[0] + x[3]


def neg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def inv(x):
    """Exact inverse of a matrix with determinant +1 or -1."""
    a, b, c, d = x
    s = det(x)
    if s not in (1, -1):
        raise ValueError(f"determinant {s} is not a unit")
    return (s * d, -s * b, -s * c, s * a)


def conj(k, x):
    """k x k^-1."""
    return mul(mul(k, x), inv(k))


def bits(x):
    return max(abs(v) for v in x).bit_length()


def r_pow(k):
    return (1, k, 0, 1)


def s_pow(k):
    return (1, 0, k, 1)


def word_matrix(exps):
    m = IDENTITY
    for i, e in enumerate(exps):
        m = mul(m, r_pow(e) if i % 2 == 0 else s_pow(e))
    return m


def canonical(exps):
    return min(tuple(exps[i:] + exps[:i]) for i in range(0, len(exps), 2))


def gl_partner(exps):
    return tuple(exps[1:] + exps[:1])


def reversed_word(exps):
    return tuple(reversed(exps))


def sl_conjugate(sign_a, exps_a, sign_b, exps_b):
    return sign_a == sign_b and canonical(exps_a) == canonical(exps_b)


def gl_conjugate(sign_a, exps_a, sign_b, exps_b):
    return sl_conjugate(sign_a, exps_a, sign_b, exps_b) or sl_conjugate(
        sign_a, gl_partner(exps_a), sign_b, exps_b
    )


def reversible(exps):
    return canonical(reversed_word(exps)) == canonical(exps)


def genus(exps):
    t = trace(word_matrix(exps))
    return 2 if len(exps) == 2 and sorted(exps) == [1, t - 2] else 3


def form_value(m, x, y):
    """det(v, Lv) for v = (x, y): the monodromy form of L at v."""
    a, b, c, d = m
    return x * (c * x + d * y) - y * (a * x + b * y)


def standard_form(t):
    return (t, -1, 1, 0)


def peel(m):
    """Exponents of an entrywise positive SL(2,Z) matrix as an R/S word.

    Raises ValueError when m is not such a word.
    """
    if det(m) != 1 or min(m) < 0:
        raise ValueError(f"{m} is not a nonnegative det 1 matrix")
    out = []
    while m != IDENTITY:
        a, b, c, d = m
        if a >= c and b >= d:
            k = min(a // c if c else b, b // d if d else a)
            m = (a - k * c, b - k * d, c, d)
            letter = 0
        elif c >= a and d >= b:
            k = min(c // a if a else d, d // b if b else c)
            m = (a, b, c - k * a, d - k * b)
            letter = 1
        else:
            raise ValueError(f"{m} is not a positive word")
        if out and (len(out) - 1) % 2 == letter:
            out[-1] += k
        elif len(out) % 2 == letter:
            out.append(k)
        else:
            raise ValueError("word does not start with R")
    if not out or len(out) % 2:
        raise ValueError("word does not end with S")
    return tuple(out)


def words_of_trace(t):
    """Least rotations of every positive word with trace t >= 3.

    Depth-first over R^a S^b blocks.  Multiplying a nonnegative matrix by R
    or S never lowers its trace, so a prefix whose trace already exceeds t is
    pruned.  This is an enumeration of words, independent of any fixed-point
    or form reduction.
    """
    found = set()
    stack = [(IDENTITY, ())]
    while stack:
        m, exps = stack.pop()
        m0, m1, m2, m3 = m
        a = 1
        # trace(m R^a S) = (m0 + m2) a + m0 + m1 + m3 grows with a
        while (m0 + m2) * a + m0 + m1 + m3 <= t:
            p, q, r, s = m0, m0 * a + m1, m2, m2 * a + m3
            b = 1
            # trace(m R^a S^b) = p + s + q b grows with b
            while p + s + q * b <= t:
                nxt = (p + q * b, q, r + s * b, s)
                word = exps + (a, b)
                if trace(nxt) == t:
                    found.add(canonical(word))
                else:
                    stack.append((nxt, word))
                b += 1
            a += 1
    return found


# -- points of Q(sqrt(disc)) as (p + q sqrt(disc)) / r ------------------------


def on_axis(m, p, q, r, disc):
    """Whether z = (p + q sqrt(disc)) / r solves c z^2 + (d - a) z - b = 0."""
    a, b, c, d = m
    rational = c * (p * p + q * q * disc) + (d - a) * r * p - b * r * r
    irrational = 2 * c * p * q + (d - a) * r * q
    return rational == 0 and irrational == 0


def on_circle(center, x, y_sq, radius_sq):
    """(x - center)^2 + y^2 == radius^2, all exact."""
    return (x - center) ** 2 + y_sq == radius_sq


def primitive(x):
    return math.gcd(*x) == 1
