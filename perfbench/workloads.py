"""Inputs, operations and output checks for the three workloads.

Every input is made here from the seed; solvsplit only ever sees the
generated matrices, integers and argument lists.  Each expected answer is
known by construction (see oracle.py) and every witness is re-multiplied
with oracle arithmetic, never with library code.

A run is a whole number of cycles.  The sizes in a cycle are a fixed grid
that is part of the workload, not of the seed, so every cycle does nearly
the same work: a few operations at the top of the size range dominate the
run time, and a random or time-truncated choice of sizes would move the
throughput by more than the benchmark's bounds.  The seed chooses everything
else: conjugators, signs, words of a given size, pairs and operation order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product

import oracle as o
import solvsplit
from solvsplit import (
    centralizer,
    classification,
    cli,
    commensurability,
    conjugacy,
    modular_geometry,
)


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def grid(n):
    """n evenly spaced quantiles from 0 to 1, both ends included."""
    return [i / (n - 1) for i in range(n)]


def log_size(lo, hi, u):
    return lo * (hi / lo) ** u


def fmt(m):
    return f"{m[0]},{m[1]};{m[2]},{m[3]}"


def parse(text):
    rows = text.strip().split(";")
    return tuple(int(v) for row in rows for v in row.split(","))


def parse_slope(text):
    p, q = text.strip().split("/")
    return int(p), int(q)


def conjugator(rng, target_bits, max_exp):
    """Random SL(2,Z) word R^x1 S^x2 ... with |xi| <= max_exp, grown to size."""
    u = o.IDENTITY
    i = 0
    while o.bits(u) < target_bits:
        k = rng.randint(1, max_exp) * rng.choice((1, -1))
        u = o.mul(u, o.r_pow(k) if i % 2 == 0 else o.s_pow(k))
        i += 1
    return u


def same_trace_other(exps):
    """A word with the same trace that is not GL-conjugate to exps, or None."""
    n = o.trace(o.word_matrix(exps)) - 2
    for d in range(1, min(n, 64) + 1):
        if n % d == 0:
            cand = (n // d, d)
            if not o.gl_conjugate(1, exps, 1, cand):
                return cand
    return None


def signed(sign, m):
    return m if sign == 1 else o.neg(m)


def make_input(rng, exps, sign, target_bits, max_exp):
    """sign * U W U^-1 for the word W, entries of about target_bits bits."""
    u = conjugator(rng, max(1, target_bits // 2), max_exp)
    return o.conj(u, signed(sign, o.word_matrix(exps)))


def small_word(rng):
    """Word of trace at most 50: standard forms, one-pair and two-pair words."""
    shape = rng.randrange(3)
    if shape == 0:
        t = rng.randint(3, 50)
        return (t - 2, 1) if rng.random() < 0.5 else (1, t - 2)
    if shape == 1:
        return (rng.randint(1, 6), rng.randint(1, 6))
    while True:
        exps = tuple(rng.randint(1, 3) for _ in range(4))
        if o.trace(o.word_matrix(exps)) <= 50:
            return exps


def pair_variant(rng, exps, variant):
    """Second word of a conjugacy question and the kind of pair it makes."""
    if variant == "other":
        other = same_trace_other(exps)
        if other is not None:
            return other
        variant = "partner"
    if variant == "partner":
        return o.gl_partner(exps)
    return exps


def check_conjugacy(result, sign_a, ea, sign_b, eb, a, b, group):
    want = (o.gl_conjugate if group == "gl" else o.sl_conjugate)(sign_a, ea, sign_b, eb)
    expect(result.conjugate == want, f"conjugate {result.conjugate}, expected {want}")
    if want:
        k = result.witness.entries()
        expect(o.det(k) in ((1, -1) if group == "gl" else (1,)), "witness determinant")
        expect(o.conj(k, a) == b, "witness does not conjugate A to B")


def check_intertwiner(w, a, b, gl_conj):
    p = w.P.entries()
    expect(o.mul(p, a) == o.mul(b, p), "PA != BP")
    expect(o.det(p) != 0, "singular intertwiner")
    expect(o.primitive(p), "imprimitive intertwiner")
    expect(w.index == abs(o.det(p)), "index != |det P|")
    expect((w.index == 1) == gl_conj, f"index {w.index} against GL verdict {gl_conj}")


def check_classify_report(rep, m, exps):
    t = o.trace(m)
    g = o.genus(exps)
    expect(rep.trace == t, "trace")
    expect(rep.genus == g, f"genus {rep.genus}, expected {g}")
    want = 2 if g == 2 and abs(t) == 3 else 1
    expect(rep.irreducible_splitting_count == want, "splitting count")
    if g == 2:
        k = rep.standard_form.conjugator.entries()
        expect(o.conj(k, m) == o.standard_form(t), "K L K^-1 != standard form")
        expect(abs(o.form_value(m, *rep.witness_curve.vector())) == 1, "|Q_L(curve)| != 1")
    else:
        expect(rep.standard_form is None and rep.witness_curve is None, "genus 3 witness")


class Workload:
    """Cycles of operation specs; `call` is the timed part, the rest is not."""

    name = ""

    def __init__(self, seed, scale, out_dir):
        self.seed = seed
        self.scale = scale

    def rng(self, k):
        return random.Random(f"{self.name}-{self.seed}-{k}")

    def cycle(self, k):
        raise NotImplementedError

    @staticmethod
    def inputs(spec):
        return [spec[k] for k in ("a", "b") if k in spec]

    def finish(self, spec, result):
        return result

    def out_bytes(self, spec, output):
        """Bytes a user would read from stdout for this output."""
        return 0


class LibraryWorkload(Workload):
    """Direct library calls; each cycle ends with one CLI request per subcommand.

    The CLI requests are small and take well under 1% of a cycle.  They give
    every traced layer a measured time on every workload, where a layer the
    workload never reached would read exactly 0 on every run.
    """

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir)
        self.cli = CliMix(seed, scale, out_dir)
        self.cli.related_share = 1.0  # equal traces, so `commensurable` reaches the intertwiner

    def cycle(self, k):
        rng = self.rng(f"{k}-cli")
        return self.library_cycle(k) + [self.cli.request(rng, cmd) for cmd, _ in CLI_MIX]

    def call(self, spec):
        return self.cli.call(spec) if "cmd" in spec else self.library_call(spec)

    def finish(self, spec, result):
        return self.cli.finish(spec, result) if "cmd" in spec else result

    def check(self, spec, result):
        if "cmd" in spec:
            self.cli.check(spec, result)
        else:
            self.library_check(spec, result)

    def out_bytes(self, spec, output):
        return self.cli.out_bytes(spec, output) if "cmd" in spec else 0


# -- deep: large traces and long entries, library calls -----------------------

DEEP_OPS = ("cyclic_word", "are_conjugate", "is_reversible", "classify", "hits_order2_cone")
DEEP_AXES = ("trace", "bits")
DEEP_STEPS = 10  # sizes per operation and axis in a cycle, log-spaced
TRACE_RANGE = (1e2, 1e5)
BITS_RANGE = (1e2, 8e3)
VARIANTS = ("same", "partner", "other")


def deep_word(axis, u, shape, rng):
    """A word of trace about 10^2..10^5 on the trace axis, <= 50 on the bits axis."""
    if axis == "trace":
        # trace(R^a S^b) = ab + 2: (2k, 1) is a standard form (genus 2),
        # (k, 2) and (k, 3) are genus 3
        n = log_size(*TRACE_RANGE, u) - 2
        k = max(2, round(n / (2, 2, 3)[shape]))
        return ((2 * k, 1), (k, 2), (k, 3))[shape]
    if shape == 0:
        k = rng.randint(2, 24)
        return (2 * k, 1)
    if shape == 1:
        a = rng.randint(1, 7)
        return (a, a)
    return tuple(rng.randint(1, 4) for _ in range(4))


class Deep(LibraryWorkload):
    """Five decision procedures on two size axes; every input distinct."""

    name = "deep"

    def library_cycle(self, k):
        rng = self.rng(k)
        ops = []
        classes = [(op, ax) for op in DEEP_OPS for ax in DEEP_AXES]
        for (c, (op, axis)), (i, q) in product(enumerate(classes), enumerate(grid(DEEP_STEPS))):
            u = q * self.scale
            shape = (i + c) % 3
            exps = deep_word(axis, u, shape, rng)
            sign = rng.choice((1, -1))
            if axis == "trace":
                bits, max_exp = rng.randint(16, 40), 9
            else:
                bits, max_exp = round(log_size(*BITS_RANGE, u)), 999
            a = make_input(rng, exps, sign, bits, max_exp)
            spec = {"op": op, "a": a, "exps": exps, "sign": sign}
            if op == "are_conjugate":
                eb = pair_variant(rng, exps, VARIANTS[(i // 3 + c) % 3])
                spec["b"] = make_input(rng, eb, sign, bits, max_exp)
                spec["exps_b"] = eb
            ops.append(spec)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def library_call(spec):
        a = solvsplit.IntMatrix2(*spec["a"])
        op = spec["op"]
        if op == "cyclic_word":
            return conjugacy.cyclic_word(a)
        if op == "are_conjugate":
            return conjugacy.are_conjugate(a, solvsplit.IntMatrix2(*spec["b"]), "gl")
        if op == "is_reversible":
            return centralizer.is_reversible(a)
        if op == "classify":
            return classification.classify(a)
        return modular_geometry.hits_order2_cone(a)

    @staticmethod
    def library_check(spec, result):
        op, a, exps, sign = spec["op"], spec["a"], spec["exps"], spec["sign"]
        if op == "cyclic_word":
            expect(result[0] == sign, "sign")
            expect(result[1].exponents == o.canonical(exps), "canonical word")
        elif op == "are_conjugate":
            check_conjugacy(result, sign, exps, sign, spec["exps_b"], a, spec["b"], "gl")
        elif op == "is_reversible":
            want = o.reversible(exps)
            expect(result.reversible == want, f"reversible {result.reversible}")
            if want:
                k = result.witness.entries()
                expect(o.det(k) == 1 and o.conj(k, a) == o.inv(a), "reversal witness")
        elif op == "classify":
            check_classify_report(result, a, exps)
        else:
            expect(result == o.reversible(exps), "order-2 cone verdict")


# -- enumerate: all classes of a trace, then intertwiners between them ---------

# indices into 4 random classes of the trace; (0, 0) always takes the
# GL-conjugacy shortcut, the others take it only for GL-partner classes
PAIR_PATTERN = ((0, 0), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3))
ENUM_T_RANGE = (3, 150)
ENUM_STEPS = 16  # traces per cycle, evenly spaced


class Enumerate(LibraryWorkload):
    """classes_of_trace(t), then virtual conjugacy among a few of its classes."""

    name = "enumerate"

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir)
        self.oracle = {}

    def words(self, t):
        if t not in self.oracle:
            self.oracle[t] = o.words_of_trace(t)
        return self.oracle[t]

    def library_cycle(self, k):
        rng = self.rng(k)
        lo, hi = ENUM_T_RANGE
        traces = [lo + round(q * self.scale * (hi - lo)) for q in grid(ENUM_STEPS)]
        rng.shuffle(traces)
        return [spec for t in traces for spec in self.group(rng, t)]

    def group(self, rng, t):
        sign = rng.choice((1, -1))
        words = sorted(self.words(t))
        ops = [{"op": "classes_of_trace", "t": sign * t, "words": words}]
        pool = rng.sample(words, min(4, len(words)))
        for i, (x, y) in enumerate(PAIR_PATTERN):
            ea, eb = pool[x % len(pool)], pool[y % len(pool)]
            ops.append({
                "op": ("virtually_conjugate", "intertwiner")[i % 2],
                "a": signed(sign, o.word_matrix(ea)),
                "b": signed(sign, o.word_matrix(eb)),
                "gl": o.gl_conjugate(1, ea, 1, eb),
            })
        return ops

    @staticmethod
    def library_call(spec):
        op = spec["op"]
        if op == "classes_of_trace":
            return conjugacy.classes_of_trace(spec["t"])
        a = solvsplit.IntMatrix2(*spec["a"])
        b = solvsplit.IntMatrix2(*spec["b"])
        if op == "intertwiner":
            return commensurability.intertwiner(a, b)
        return commensurability.virtually_conjugate(a, b)

    @staticmethod
    def library_check(spec, result):
        op = spec["op"]
        if op == "classes_of_trace":
            t = spec["t"]
            sign = 1 if t > 0 else -1
            got = []
            for m in result:
                m = m.entries()
                expect(o.trace(m) == t and o.det(m) == 1, "representative trace/det")
                got.append(o.peel(signed(sign, m)))
            expect(len(got) == len(spec["words"]), f"{len(got)} classes, oracle {len(spec['words'])}")
            expect(sorted(got) == spec["words"], "class words differ from oracle")
        elif op == "intertwiner":
            check_intertwiner(result, spec["a"], spec["b"], spec["gl"])
        else:
            expect(result.virtually_conjugate, "equal traces must be virtually conjugate")
            check_intertwiner(result.witness, spec["a"], spec["b"], spec["gl"])


# -- cli-mix: in-process CLI requests on small inputs --------------------------

CLI_MIX = (
    ("classify", 100),
    ("conjugate", 24),
    ("geodesic", 20),
    ("commensurable", 20),
    ("centralizer", 16),
    ("figure", 10),
    ("classes", 10),
)
CIRCLE_STROKE = "#909090"


def text_fields(stdout):
    fields = {}
    for line in stdout.splitlines():
        fields.setdefault(line[:17].strip(), []).append(line[17:])
    return fields


def first(fields, key):
    expect(key in fields, f"missing text line {key!r}")
    return fields[key][0]


MATRIX = r"(-?\d+,-?\d+;-?\d+,-?\d+)"


def grab(pattern, text):
    found = re.search(pattern, text)
    expect(found is not None, f"no match for {pattern!r} in {text!r}")
    return found.group(1)


class CliMix(Workload):
    """solvsplit.cli.run(argv) over all seven subcommands, stdout captured."""

    name = "cli-mix"
    related_share = 0.7  # of `commensurable` pairs with equal traces

    def __init__(self, seed, scale, out_dir):
        super().__init__(seed, scale, out_dir)
        self.svg_path = os.path.join(out_dir, "figure.svg")

    @staticmethod
    def small_input(rng, exps=None, sign=None):
        exps = exps or small_word(rng)
        sign = sign or rng.choice((1, -1))
        return exps, sign, make_input(rng, exps, sign, rng.randint(8, 48), 9)

    def cycle(self, k):
        rng = self.rng(k)
        ops = [self.request(rng, cmd) for cmd, count in CLI_MIX for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def request(self, rng, cmd):
        spec = getattr(self, "make_" + cmd)(rng)
        spec["cmd"] = cmd
        spec["argv"].append(rng.choice(("--json", "--text")))
        return spec

    def make_classify(self, rng):
        exps, sign, m = self.small_input(rng)
        return {"argv": ["classify", "-m", fmt(m)], "a": m, "exps": exps}

    def make_geodesic(self, rng):
        exps, sign, m = self.small_input(rng)
        return {"argv": ["geodesic", "-m", fmt(m)], "a": m, "exps": exps}

    def make_conjugate(self, rng):
        ea, sign, a = self.small_input(rng)
        eb = pair_variant(rng, ea, rng.choice(VARIANTS))
        sign_b = sign if rng.random() < 0.9 else -sign
        _, _, b = self.small_input(rng, eb, sign_b)
        group = rng.choice(("sl", "gl"))
        return {
            "argv": ["conjugate", "-A", fmt(a), "-B", fmt(b), "--group", group],
            "a": a, "b": b, "exps": ea, "exps_b": eb, "sign": sign, "sign_b": sign_b,
            "group": group,
        }

    def make_commensurable(self, rng):
        ea, sign, a = self.small_input(rng)
        if rng.random() < self.related_share:
            eb = pair_variant(rng, ea, rng.choice(VARIANTS))
            _, _, b = self.small_input(rng, eb, sign)
        else:
            eb, _, b = self.small_input(rng)
        return {
            "argv": ["commensurable", "-A", fmt(a), "-B", fmt(b)],
            "a": a, "b": b, "exps": ea, "exps_b": eb,
        }

    def make_centralizer(self, rng):
        m = rng.randint(3, 50) * rng.choice((1, -1))
        return {"argv": ["centralizer", "-m", fmt(o.standard_form(m))], "m": m}

    def make_figure(self, rng):
        m = rng.randint(3, 30) * rng.choice((1, -1))
        return {"argv": ["figure", f"--m={m}", "-o", self.svg_path], "m": m}

    def make_classes(self, rng):
        t = rng.randint(3, 12) * rng.choice((1, -1))
        return {"argv": ["classes", "-t", str(t)], "t": t}

    def call(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(spec["argv"]))
        return code, out.getvalue(), err.getvalue()

    def out_bytes(self, spec, output):
        return len(output[1].encode()) if output else 0

    def finish(self, spec, result):
        """Attach the written SVG, read outside the timed call."""
        svg = None
        if spec["cmd"] == "figure" and result[0] == 0:
            with open(self.svg_path, encoding="utf-8") as fh:
                svg = fh.read()
        return result + (svg,)

    def check(self, spec, result):
        code, stdout, stderr, svg = result
        expect(code == 0, f"exit code {code}: {stderr.strip()}")
        expect(stderr == "", "unexpected stderr")
        if spec["argv"][-1] == "--json":
            doc = json.loads(stdout)
            expect(doc["command"] == spec["cmd"], "command echo")
            expect(all(v["holds"] for v in doc["verification"]), "verification entry false")
            getattr(self, "json_" + spec["cmd"])(spec, doc["result"], svg)
        else:
            getattr(self, "text_" + spec["cmd"])(spec, text_fields(stdout), svg)

    # classify
    @staticmethod
    def _classify(spec, genus, count, k, curve):
        m, exps = spec["a"], spec["exps"]
        g = o.genus(exps)
        expect(genus == g, f"genus {genus}, expected {g}")
        expect(count == (2 if g == 2 and abs(o.trace(m)) == 3 else 1), "splitting count")
        if g == 2:
            expect(o.conj(k, m) == o.standard_form(o.trace(m)), "K L K^-1 != standard form")
            expect(abs(o.form_value(m, *curve)) == 1, "|Q_L(curve)| != 1")
        else:
            expect(k is None and curve is None, "genus 3 carries no witness")

    def json_classify(self, spec, r, svg):
        sf = r["standard_form"]
        k = parse(sf["conjugator"]) if sf else None
        curve = parse_slope(r["witness_curve"]) if r["witness_curve"] else None
        expect(r["trace"] == o.trace(spec["a"]), "trace")
        self._classify(spec, r["genus"], r["irreducible_splitting_count"], k, curve)

    def text_classify(self, spec, f, svg):
        sf = first(f, "standard form")
        k = None if sf.startswith("none") else parse(grab(r"via K = " + MATRIX, sf))
        curve = parse_slope(first(f, "witness curve").split()[0]) if k else None
        genus = int(first(f, "genus").split()[0])
        count = int(first(f, "splittings").split()[0])
        self._classify(spec, genus, count, k, curve)

    # conjugate
    @staticmethod
    def _conjugate(spec, verdict, k):
        want = (o.gl_conjugate if spec["group"] == "gl" else o.sl_conjugate)(
            spec["sign"], spec["exps"], spec["sign_b"], spec["exps_b"]
        )
        expect(verdict == want, f"conjugate {verdict}, expected {want}")
        if want:
            expect(o.det(k) == 1 or spec["group"] == "gl", "SL witness has det -1")
            expect(o.conj(k, spec["a"]) == spec["b"], "K A K^-1 != B")

    def json_conjugate(self, spec, r, svg):
        k = parse(r["witness"]["matrix"]) if r["witness"] else None
        inv = r["invariants"]
        for key, sign, exps in (("A", spec["sign"], spec["exps"]), ("B", spec["sign_b"], spec["exps_b"])):
            expect(inv[key]["sign"] == sign, "invariant sign")
            expect(tuple(inv[key]["word"]) == o.canonical(exps), "canonical word")
        self._conjugate(spec, r["conjugate"], k)

    def text_conjugate(self, spec, f, svg):
        verdict = first(f, "conjugate").startswith("yes")
        k = parse(grab(r"K = " + MATRIX, first(f, "witness"))) if verdict else None
        self._conjugate(spec, verdict, k)

    # geodesic
    @staticmethod
    def _geodesic(spec, center, radius_sq, hits):
        a, b, c, d = spec["a"]
        t = o.trace(spec["a"])
        expect(center == Fraction(a - d, 2 * c), "axis center")
        expect(radius_sq == Fraction(t * t - 4, 4 * c * c), "axis radius^2")
        expect(hits == o.reversible(spec["exps"]), "order-2 cone verdict")

    def json_geodesic(self, spec, r, svg):
        for z in r["endpoints"]:
            expect(o.on_axis(spec["a"], z["p"], z["q"], z["r"], z["disc"]), "endpoint off axis")
        self._geodesic(spec, Fraction(r["center"]), Fraction(r["radius_sq"]), r["hits_order2_cone"])

    def text_geodesic(self, spec, f, svg):
        ends = re.findall(r"\((-?\d+) \+ (-?\d+)\*sqrt\((\d+)\)\)/(-?\d+)", first(f, "endpoints"))
        expect(len(ends) == 2, "two endpoints")
        for p, q, disc, r in ends:
            expect(o.on_axis(spec["a"], int(p), int(q), int(r), int(disc)), "endpoint off axis")
        hits = first(f, "order-2 cone").startswith("hit")
        self._geodesic(spec, Fraction(first(f, "center")), Fraction(first(f, "radius^2")), hits)

    # commensurable
    @staticmethod
    def _commensurable(spec, verdict, p, index):
        a, b = spec["a"], spec["b"]
        want = o.trace(a) == o.trace(b)
        expect(verdict == want, f"virtually conjugate {verdict}, expected {want}")
        if want:
            sa, sb = (1 if o.trace(a) > 0 else -1), (1 if o.trace(b) > 0 else -1)
            gl = o.gl_conjugate(sa, spec["exps"], sb, spec["exps_b"])
            expect(o.mul(p, a) == o.mul(b, p) and o.det(p) != 0, "PA != BP or det P == 0")
            expect(index == abs(o.det(p)) and (index == 1) == gl, "intertwiner index")

    def json_commensurable(self, spec, r, svg):
        w = r["intertwiner"]
        p, index = (parse(w["matrix"]), w["index"]) if w else (None, None)
        self._commensurable(spec, r["virtually_conjugate"], p, index)

    def text_commensurable(self, spec, f, svg):
        verdict = first(f, "virtually conj.").startswith("yes")
        p = index = None
        if verdict:
            line = first(f, "intertwiner")
            p, index = parse(grab(r"P = " + MATRIX, line)), int(grab(r"index (\d+)", line))
        self._commensurable(spec, verdict, p, index)

    # centralizer
    @staticmethod
    def _centralizer(spec, reversible, k, extra, square):
        m = spec["m"]
        base = o.standard_form(m)
        expect(reversible == (abs(m) == 3), "reversibility of a standard form")
        if reversible:
            expect(o.det(k) == 1 and o.conj(k, base) == o.inv(base), "reversal witness")
        expect((extra is not None) == (abs(m) == 3), "det -1 coset exactly at |m| = 3")
        if extra is not None:
            sign, n = square
            power = o.IDENTITY
            for _ in range(abs(n)):
                power = o.mul(power, base if n > 0 else o.inv(base))
            expect(o.det(extra) == -1, "coset det")
            expect(o.mul(extra, base) == o.mul(base, extra), "coset commutes")
            expect(o.mul(extra, extra) == signed(sign, power), "B^2 = sign L^n")

    def json_centralizer(self, spec, r, svg):
        k = parse(r["reversal_witness"]) if r["reversal_witness"] else None
        extra = r["gl_extra"]
        self._centralizer(
            spec, r["reversible"], k,
            parse(extra["matrix"]) if extra else None,
            (extra["square_is"]["sign"], extra["square_is"]["power"]) if extra else None,
        )

    def text_centralizer(self, spec, f, svg):
        reversible = first(f, "reversible").startswith("yes")
        k = parse(first(f, "reversal K")) if reversible else None
        coset = first(f, "GL(2,Z) coset")
        extra = square = None
        if not coset.startswith("none"):
            extra = parse(grab(r"B = " + MATRIX, coset))
            sq = re.search(r"B\^2 = ([+-])L\^(-?\d+)", coset)
            expect(sq is not None, "B^2 relation")
            square = (1 if sq.group(1) == "+" else -1, int(sq.group(2)))
        self._centralizer(spec, reversible, k, extra, square)

    # figure
    @staticmethod
    def _figure(spec, x0, xm, svg):
        m = spec["m"]
        y_sq = Fraction(m * m - 4, m * m)
        expect(x0 == Fraction(2, m) and xm == Fraction(m * m - 2, m), "alpha endpoints")
        expect(x0 * x0 + y_sq == 1, "C0 endpoint off the unit circle")
        expect(o.on_circle(Fraction(m, 2), x0, y_sq, Fraction(m * m - 4, 4)), "off axis")
        expect(o.on_circle(m, xm, y_sq, 1), "Cm endpoint off C_m")
        root = ET.fromstring(svg)
        expect(root.tag.endswith("svg"), "not an SVG document")
        arcs = [e for e in root.iter() if e.tag.endswith("path") and e.get("stroke") == CIRCLE_STROKE]
        expect(len(arcs) == abs(m) + 1, f"{len(arcs)} unit semicircles, expected {abs(m) + 1}")

    def json_figure(self, spec, r, svg):
        y = r["alpha_endpoint_c0"]["y"]
        m = spec["m"]
        expect((y["p"], y["q"], y["r"], y["disc"]) == (0, 1, abs(m), m * m - 4), "endpoint height")
        self._figure(spec, Fraction(r["alpha_endpoint_c0"]["x"]), Fraction(r["alpha_endpoint_cm"]["x"]), svg)

    def text_figure(self, spec, f, svg):
        expect(f"m = {spec['m']} written to" in first(f, "figure"), "figure line")
        xs = re.findall(r"x = (-?\d+(?:/\d+)?)", first(f, "alpha endpoints"))
        expect(len(xs) == 2, "two alpha endpoints")
        self._figure(spec, Fraction(xs[0]), Fraction(xs[1]), svg)

    # classes
    @staticmethod
    def _classes(spec, reps):
        t = spec["t"]
        sign = 1 if t > 0 else -1
        words = sorted(o.words_of_trace(abs(t)))
        got = []
        for m in reps:
            expect(o.trace(m) == t and o.det(m) == 1, "representative trace/det")
            got.append(o.peel(signed(sign, m)))
        expect(sorted(got) == words, f"{len(got)} classes, oracle {len(words)}")

    def json_classes(self, spec, r, svg):
        expect(r["count"] == len(r["classes"]), "count")
        for entry in r["classes"]:
            m = parse(entry["representative"])
            expect(signed(entry["sign"], o.word_matrix(tuple(entry["word"]))) == m, "word matrix")
        self._classes(spec, [parse(e["representative"]) for e in r["classes"]])

    def text_classes(self, spec, f, svg):
        reps = [parse(line.split()[0]) for line in f.get("representative", [])]
        expect(int(first(f, "classes").split()[0]) == len(reps), "count")
        self._classes(spec, reps)


WORKLOADS = {w.name: w for w in (CliMix, Deep, Enumerate)}
