"""Command-line front end: classification runs, JSON reports, SVG figures.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 2 parse
error, 3 domain error, 4 internal verification failure.  Every witness that
gets printed is re-verified by exact multiplication first; a failed check
aborts with code 4 instead of emitting the document.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import centralizer as centralizer_mod
from . import classification, commensurability, conjugacy, modular_geometry
from .core_algebra import (
    IntMatrix2,
    format_matrix,
    format_slope,
    mat_pow,
    monodromy_form,
    parse_matrix,
)
from .errors import DomainError, ParseError, VerificationError

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _frac(f: Fraction) -> str:
    return str(f)


def _qi_doc(z: modular_geometry.QuadraticIrrational) -> dict:
    return {
        "p": z.p,
        "q": z.q,
        "r": z.r,
        "disc": z.disc,
        "approx": float(z),
    }


def _emit(doc: dict, verification: list[tuple[str, bool]], mode: str, text_lines) -> int:
    doc["verification"] = [
        {"identity": name, "holds": holds} for name, holds in verification
    ]
    failed = [name for name, holds in verification if not holds]
    if failed:
        print(f"verification failed: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    if mode == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines():
            print(line)
    return EXIT_OK


def _doc(command: str, input_echo: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
    }


# -- subcommand handlers ------------------------------------------------------


def _cmd_classify(args) -> int:
    L = parse_matrix(args.matrix)
    report = classification.classify(L)
    verification: list[tuple[str, bool]] = [
        ("input is Anosov in SL(2,Z)", L.is_sl2() and abs(L.trace()) > 2),
    ]
    sf_doc = None
    if report.standard_form is not None:
        sf = report.standard_form
        K = sf.conjugator
        verification.append(
            (
                "conjugator maps monodromy to standard form",
                K @ L @ K.inverse() == sf.target(),
            )
        )
        sf_doc = {
            "m_signed": sf.m_signed,
            "target": format_matrix(sf.target()),
            "conjugator": format_matrix(K),
            "conjugator_det": sf.conjugator_det,
            "unit_value": sf.unit_value,
        }
    if report.witness_curve is not None:
        value = monodromy_form(L).evaluate(*report.witness_curve.vector())
        verification.append(("witness curve is a unit curve", abs(value) == 1))
    inv_doc = None
    if report.involution is not None:
        inv = report.involution
        verification.extend(inv.identities)
        inv_doc = {
            "rho": format_matrix(inv.rho),
            "beta": format_slope(inv.beta),
            "gamma": format_slope(inv.gamma),
            "identities": [name for name, _ in inv.identities],
            "fixed_circles": inv.fixed_circles,
            "central_involution_note": inv.central_involution_note,
        }
    doc = _doc("classify", {"matrix": format_matrix(L)})
    doc["result"] = {
        "trace": report.trace,
        "anosov": report.anosov,
        "genus": report.genus,
        "irreducible_splitting_count": report.irreducible_splitting_count,
        "splitting_type": report.splitting_type,
        "standard_form": sf_doc,
        "witness_curve": (
            format_slope(report.witness_curve) if report.witness_curve else None
        ),
        "spines": [
            {
                "kind": spine.kind,
                "curves": [
                    {"slope": format_slope(s), "level": _frac(level)}
                    for s, level in spine.curves
                ],
                "transported_curves": [
                    format_slope(s) for s in spine.transported_curves
                ],
                "text": spine.text,
            }
            for spine in report.spines
        ],
        "involution": inv_doc,
        "annotations": list(report.annotations),
    }

    def text_lines():
        yield f"monodromy        {format_matrix(L)}"
        yield f"trace            {report.trace}"
        yield "anosov           yes (|trace| > 2)"
        yield f"genus            {report.genus}    [Thm 4.2]"
        tag = "[Thm 6.2]" if report.irreducible_splitting_count == 2 else (
            "[Thm 5.3]" if report.genus == 2 else "[Prop 4.1]"
        )
        yield f"splittings       {report.irreducible_splitting_count}    {tag}"
        yield f"type             {report.splitting_type}"
        if sf_doc is not None:
            yield (
                f"standard form    {sf_doc['target']} via K = "
                f"{sf_doc['conjugator']} (det {sf_doc['conjugator_det']:+d})    "
                "[Thm 4.2(2)]"
            )
            yield (
                f"witness curve    {doc['result']['witness_curve']} "
                f"(unit value {sf_doc['unit_value']:+d})    [Thm 4.2(1)]"
            )
        else:
            yield "standard form    none (no unit curve exists)    [Prop 3.1]"
        for spine in report.spines:
            yield f"spine            {spine.text}"
        if inv_doc is not None:
            yield (
                f"involution       rho = {inv_doc['rho']}, "
                f"beta = {inv_doc['beta']}, gamma = {inv_doc['gamma']}    [Thm 6.2]"
            )
        for note in report.annotations:
            yield f"note             {note}"

    return _emit(doc, verification, args.mode, text_lines)


def _cmd_conjugate(args) -> int:
    A = parse_matrix(args.matrix_a)
    B = parse_matrix(args.matrix_b)
    result = conjugacy.are_conjugate(A, B, args.group)
    sign_a, word_a = result.invariant_a
    sign_b, word_b = result.invariant_b
    verification = []
    witness_doc = None
    if result.conjugate:
        K = result.witness
        verification.append(
            ("witness conjugates A to B", K @ A @ K.inverse() == B)
        )
        witness_doc = {"matrix": format_matrix(K), "det": K.det()}
    doc = _doc(
        "conjugate",
        {"A": format_matrix(A), "B": format_matrix(B), "group": args.group},
    )
    doc["result"] = {
        "conjugate": result.conjugate,
        "group": result.group,
        "witness": witness_doc,
        "invariants": {
            "A": {"sign": sign_a, "word": list(word_a.exponents)},
            "B": {"sign": sign_b, "word": list(word_b.exponents)},
        },
    }

    def text_lines():
        verdict = "yes" if result.conjugate else "no"
        yield f"A                {format_matrix(A)}  word {sign_a:+d} * {word_a}"
        yield f"B                {format_matrix(B)}  word {sign_b:+d} * {word_b}"
        yield f"conjugate        {verdict} in {args.group.upper()}(2,Z)    [Thm 4.2(2)]"
        if witness_doc is not None:
            yield (
                f"witness          K = {witness_doc['matrix']} "
                f"(det {witness_doc['det']:+d}), K A K^-1 = B"
            )

    return _emit(doc, verification, args.mode, text_lines)


def _cmd_classes(args) -> int:
    reps = conjugacy.classes_of_trace(args.trace)
    invariants = [conjugacy.cyclic_word(M) for M in reps]
    verification = [
        (
            "representatives have the requested trace and det 1",
            all(M.trace() == args.trace and M.is_sl2() for M in reps),
        ),
        (
            "representatives are pairwise non-conjugate",
            len(set(invariants)) == len(reps),
        ),
    ]
    doc = _doc("classes", {"trace": args.trace})
    classes = [
        {"representative": format_matrix(M), "sign": sign, "word": list(word.exponents)}
        for M, (sign, word) in zip(reps, invariants)
    ]
    doc["result"] = {"trace": args.trace, "count": len(reps), "classes": classes}

    def text_lines():
        tag = "[Lemma 6.1]" if abs(args.trace) == 3 else "[Oracle-checked enumeration]"
        yield f"trace            {args.trace}"
        yield f"classes          {len(reps)}    {tag}"
        for entry in classes:
            yield (
                f"  representative {entry['representative']}  "
                f"word {entry['sign']:+d} * "
                f"{conjugacy.CyclicWord(tuple(entry['word']))}"
            )

    return _emit(doc, verification, args.mode, text_lines)


def _cmd_centralizer(args) -> int:
    L = parse_matrix(args.matrix)
    desc = centralizer_mod.centralizer_description(L)
    verification = []
    extra_doc = None
    if desc.gl_extra is not None:
        Bx = desc.gl_extra
        verification.append(("gl_extra commutes with base", centralizer_mod.commutes(Bx, L)))
        verification.append(("gl_extra has det -1", Bx.det() == -1))
        sign, n = desc.gl_extra_square
        power = mat_pow(L, n)
        verification.append(
            (
                "gl_extra squared is the recorded signed power",
                Bx @ Bx == (power if sign == 1 else -power),
            )
        )
        extra_doc = {
            "matrix": format_matrix(Bx),
            "square_is": {"sign": sign, "power": n},
        }
    if desc.reversal_witness is not None:
        K = desc.reversal_witness
        verification.append(
            (
                "reversal witness conjugates base to its inverse",
                K @ L @ K.inverse() == L.inverse(),
            )
        )
    doc = _doc("centralizer", {"matrix": format_matrix(L)})
    doc["result"] = {
        "base": format_matrix(L),
        "sl_part": desc.sl_part,
        "gl_extra": extra_doc,
        "reversible": desc.reversible,
        "reversal_witness": (
            format_matrix(desc.reversal_witness) if desc.reversal_witness else None
        ),
    }

    def text_lines():
        yield f"base             {format_matrix(L)}"
        yield f"SL(2,Z) part     {desc.sl_part}    [Lemma 5.1]"
        if extra_doc is not None:
            sq = extra_doc["square_is"]
            yield (
                f"GL(2,Z) coset    B = {extra_doc['matrix']} (det -1), "
                f"B^2 = {'+' if sq['sign'] == 1 else '-'}L^{sq['power']}    [Cor 5.2]"
            )
        else:
            yield "GL(2,Z) coset    none (requires trace +-3)    [Cor 5.2]"
        yield f"reversible       {'yes' if desc.reversible else 'no'}    [Lemma 5.1]"
        if desc.reversal_witness is not None:
            yield f"reversal K       {format_matrix(desc.reversal_witness)}"

    return _emit(doc, verification, args.mode, text_lines)


def _cmd_commensurable(args) -> int:
    A = parse_matrix(args.matrix_a)
    B = parse_matrix(args.matrix_b)
    result = commensurability.virtually_conjugate(A, B)
    verification = []
    witness_doc = None
    if result.witness is not None:
        P = result.witness.P
        verification.append(("intertwiner satisfies PA = BP", P @ A == B @ P))
        verification.append(("intertwiner has nonzero determinant", P.det() != 0))
        witness_doc = {"matrix": format_matrix(P), "index": result.witness.index}
    doc = _doc(
        "commensurable", {"A": format_matrix(A), "B": format_matrix(B)}
    )
    doc["result"] = {
        "virtually_conjugate": result.virtually_conjugate,
        "trace_a": A.trace(),
        "trace_b": B.trace(),
        "intertwiner": witness_doc,
    }

    def text_lines():
        verdict = "yes" if result.virtually_conjugate else "no"
        yield f"A                {format_matrix(A)}  trace {A.trace()}"
        yield f"B                {format_matrix(B)}  trace {B.trace()}"
        yield f"virtually conj.  {verdict}    [Thm 7.1]"
        if witness_doc is not None:
            yield (
                f"intertwiner      P = {witness_doc['matrix']}, "
                f"index {witness_doc['index']}, PA = BP    [Thm 7.2]"
            )

    return _emit(doc, verification, args.mode, text_lines)


def _cmd_geodesic(args) -> int:
    L = parse_matrix(args.matrix)
    geo = modular_geometry.axis(L)
    lo, hi = geo.endpoints
    # endpoints must solve c z^2 + (d - a) z - b = 0, checked exactly
    def on_axis(z):
        return L.c * z * z + (L.d - L.a) * z - L.b == 0

    verification = [
        ("endpoints satisfy the fixed-point equation", on_axis(lo) and on_axis(hi)),
        ("endpoints are ordered", lo < hi),
    ]
    cone = None
    hits = modular_geometry.hits_order2_cone(L)
    try:
        m = centralizer_mod.standard_form_parameter(L)
        cone = list(modular_geometry.axis_order2_points(m))
    except DomainError:
        pass
    doc = _doc("geodesic", {"matrix": format_matrix(L)})
    doc["result"] = {
        "endpoints": [_qi_doc(lo), _qi_doc(hi)],
        "center": _frac(geo.center),
        "radius_sq": _frac(geo.radius_sq),
        "cosh_half_length": _frac(geo.cosh_half_length),
        "translation_length": geo.translation_length,
        "hits_order2_cone": hits,
        "order2_points": cone,
    }

    def text_lines():
        yield f"matrix           {format_matrix(L)}"
        yield f"endpoints        {lo} and {hi}"
        yield f"center           {geo.center}"
        yield f"radius^2         {geo.radius_sq}"
        yield (
            f"length           {geo.translation_length!r} "
            f"(cosh(length/2) = {geo.cosh_half_length})"
        )
        yield f"order-2 cone     {'hit' if hits else 'missed'}    [Lemma 5.1]"
        if cone:
            yield f"cone points      axis passes through n + i for n in {cone}"

    return _emit(doc, verification, args.mode, text_lines)


def _cmd_figure(args) -> int:
    palette = None
    if args.palette:
        with open(args.palette, "r", encoding="utf-8") as fh:
            palette = json.load(fh)
    svg = modular_geometry.render_figure(args.m, palette)
    arc = modular_geometry.alpha_arc(args.m)
    verification = [
        (cert.name, cert.holds) for cert in arc.certificates
    ]
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    doc = _doc("figure", {"m": args.m, "output": args.output})
    doc["result"] = {
        "m": args.m,
        "output": args.output,
        "alpha_endpoint_c0": {
            "x": _frac(arc.endpoint_c0[0]),
            "y": _qi_doc(arc.endpoint_c0[1]),
        },
        "alpha_endpoint_cm": {
            "x": _frac(arc.endpoint_cm[0]),
            "y": _qi_doc(arc.endpoint_cm[1]),
        },
        "c0_endpoint_position": arc.c0_endpoint_position,
        "corner_coincidence": arc.corner_coincidence,
    }

    def text_lines():
        yield f"figure           m = {args.m} written to {args.output}"
        yield (
            f"alpha endpoints  x = {arc.endpoint_c0[0]} and x = {arc.endpoint_cm[0]}"
        )
        yield f"C0 endpoint      {arc.c0_endpoint_position} of D ∩ C0"
        if arc.corner_coincidence:
            yield "note             endpoint coincides with the corner exp(pi*i/3)"

    return _emit(doc, verification, args.mode, text_lines)


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvsplit",
        description=(
            "Exact classifier for Heegaard splittings of torus bundles with "
            "Anosov monodromy"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--json", dest="mode", action="store_const", const="json",
            help="emit a JSON report document",
        )
        group.add_argument(
            "--text", dest="mode", action="store_const", const="text",
            help="emit a human-readable summary (default)",
        )
        p.set_defaults(mode="text")

    p = sub.add_parser("classify", help="full splitting classification")
    p.add_argument("-m", "--matrix", required=True, help='monodromy "a,b;c,d"')
    add_mode(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("conjugate", help="decide conjugacy with witness")
    p.add_argument("-A", dest="matrix_a", required=True, help='matrix "a,b;c,d"')
    p.add_argument("-B", dest="matrix_b", required=True, help='matrix "a,b;c,d"')
    p.add_argument("--group", choices=("sl", "gl"), default="sl")
    add_mode(p)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("classes", help="conjugacy classes of a given trace")
    p.add_argument("-t", dest="trace", type=int, required=True)
    add_mode(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("centralizer", help="centralizer of a standard form")
    p.add_argument("-m", "--matrix", required=True, help='standard form "m,-1;1,0"')
    add_mode(p)
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("commensurable", help="virtual conjugacy with intertwiner")
    p.add_argument("-A", dest="matrix_a", required=True)
    p.add_argument("-B", dest="matrix_b", required=True)
    add_mode(p)
    p.set_defaults(func=_cmd_commensurable)

    p = sub.add_parser("geodesic", help="exact axis data on the modular surface")
    p.add_argument("-m", "--matrix", required=True)
    add_mode(p)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("figure", help="render the axis picture as SVG")
    p.add_argument("--m", type=int, required=True, help="standard-form parameter")
    p.add_argument("-o", dest="output", required=True, help="output SVG path")
    p.add_argument("--palette", help="optional JSON palette override")
    add_mode(p)
    p.set_defaults(func=_cmd_figure)

    return parser


_MATRIX_FLAGS = ("-m", "--matrix", "-A", "-B")


def _merge_matrix_values(argv: list[str]) -> list[str]:
    # a matrix starting with a negative entry looks like an option to
    # argparse; join it to its flag with '=' so "-m -3,-1;1,0" parses
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MATRIX_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and ("," in nxt or ";" in nxt):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_matrix_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
