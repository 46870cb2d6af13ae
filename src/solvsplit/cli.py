"""Command-line front end: classification runs, JSON reports, SVG figures.

Every request takes one path, through `run`.  Each subcommand is declared
once, in `_SUBCOMMANDS`: its help, its handler and its options, with the
matrix options marked.  `run` builds the parser from that table, giving `-h`
and options only to the subcommand that the first token names (every
subcommand gets them when it names none), parses the marked matrix options,
and calls the handler, which returns the input echo, the result, the
verification list and the text lines; `run` alone assembles the document and
hands it to `_emit`, which prints text unless --json was given.

argparse reads the whole command line.  In a subcommand with matrix options,
a token that starts with '-' and holds ',' or ';' is a value unless it
spells an option, so a matrix may lead with a negative entry:
`classify -m -3,-1;1,0`.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 2 parse
or i/o error, 3 domain error, 4 internal verification failure.  Every
witness that gets printed is re-verified by exact multiplication first; a
failed check aborts with code 4 instead of emitting the document.
"""

from __future__ import annotations

import argparse
import json
import re
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
    require_printable,
)
from .errors import DomainError, ParseError, VerificationError

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

# `classes` makes about t^2/4 divisibility tests and `figure` writes an SVG
# linear in m, so both refuse larger values with a domain error
MAX_CLASSES_TRACE = 10**4
MAX_FIGURE_M = 10**4


def _ints(node):
    """Every int in a document of dicts, lists and scalars."""
    if isinstance(node, (dict, list)):
        for item in node.values() if isinstance(node, dict) else node:
            yield from _ints(item)
    elif isinstance(node, int):
        yield node


def _frac(f: Fraction) -> str:
    require_printable(f.numerator, f.denominator)
    return str(f)


def _qi_doc(z: modular_geometry.QuadraticIrrational) -> dict:
    return {
        "p": z.p,
        "q": z.q,
        "r": z.r,
        "disc": z.disc,
        "approx": float(z),
    }


def _emit(doc: dict, verification: list[tuple[str, bool]], mode: str | None, text_lines) -> int:
    doc["verification"] = [
        {"identity": name, "holds": holds} for name, holds in verification
    ]
    failed = [name for name, holds in verification if not holds]
    if failed:
        print(f"verification failed: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    require_printable(*_ints(doc))
    # render in full first, so a failure leaves stdout empty; text is the
    # default: `mode` is None when neither --json nor --text was given
    if mode == "json":
        out = json.dumps(doc, indent=2)
    else:
        out = "\n".join(text_lines())
    print(out)
    return EXIT_OK


# -- subcommand handlers ------------------------------------------------------
#
# Each handler takes the parsed arguments, with its matrix options already
# parsed, and returns (input echo, result, verification, text_lines).


def _cmd_classify(args):
    L = args.matrix
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
    result = {
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
                f"witness curve    {result['witness_curve']} "
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

    return {"matrix": format_matrix(L)}, result, verification, text_lines


def _cmd_conjugate(args):
    A, B = args.matrix_a, args.matrix_b
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
    result_doc = {
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

    return ({"A": format_matrix(A), "B": format_matrix(B), "group": args.group},
            result_doc, verification, text_lines)


def _cmd_classes(args):
    if abs(args.trace) > MAX_CLASSES_TRACE:
        raise DomainError(f"|trace| {abs(args.trace)} > limit {MAX_CLASSES_TRACE}")
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
    classes = [
        {"representative": format_matrix(M), "sign": sign, "word": list(word.exponents)}
        for M, (sign, word) in zip(reps, invariants)
    ]
    result = {"trace": args.trace, "count": len(reps), "classes": classes}

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

    return {"trace": args.trace}, result, verification, text_lines


def _cmd_centralizer(args):
    L = args.matrix
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
    result = {
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

    return {"matrix": format_matrix(L)}, result, verification, text_lines


def _cmd_commensurable(args):
    A, B = args.matrix_a, args.matrix_b
    result = commensurability.virtually_conjugate(A, B)
    verification = []
    witness_doc = None
    if result.witness is not None:
        P = result.witness.P
        verification.append(("intertwiner satisfies PA = BP", P @ A == B @ P))
        verification.append(("intertwiner has nonzero determinant", P.det() != 0))
        witness_doc = {"matrix": format_matrix(P), "index": result.witness.index}
    result_doc = {
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

    return ({"A": format_matrix(A), "B": format_matrix(B)},
            result_doc, verification, text_lines)


def _cmd_geodesic(args):
    L = args.matrix
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
    result = {
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

    return {"matrix": format_matrix(L)}, result, verification, text_lines


def _cmd_figure(args):
    if abs(args.m) > MAX_FIGURE_M:
        raise DomainError(f"|m| {abs(args.m)} > limit {MAX_FIGURE_M}")
    palette = None
    if args.palette:
        with open(args.palette, "r", encoding="utf-8") as fh:
            try:
                palette = json.load(fh)
            except ValueError:  # undecodable bytes or malformed JSON
                palette = None
        if not isinstance(palette, dict) or any(
            not isinstance(v, str) for v in palette.values()
        ):
            raise ParseError("palette must be a UTF-8 JSON object with string values")
    svg = modular_geometry.render_figure(args.m, palette)
    arc = modular_geometry.alpha_arc(args.m)
    verification = [
        (cert.name, cert.holds) for cert in arc.certificates
    ]
    if all(holds for _, holds in verification):  # a failed check writes no file
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    result = {
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

    return {"m": args.m, "output": args.output}, result, verification, text_lines


# -- argument parsing ---------------------------------------------------------

# Each subcommand once, in help order: name -> (help, handler, matrix options
# as (dest, flags, help), other options as (flags, add_argument keywords)).
# A matrix option is required, and `run` parses it before the handler runs.
_SUBCOMMANDS = {
    "classify": ("full splitting classification", _cmd_classify,
                 [("matrix", ("-m", "--matrix"), 'monodromy "a,b;c,d"')], []),
    "conjugate": ("decide conjugacy with witness", _cmd_conjugate,
                  [("matrix_a", ("-A",), 'matrix "a,b;c,d"'),
                   ("matrix_b", ("-B",), 'matrix "a,b;c,d"')],
                  [(("--group",), {"choices": ("sl", "gl"), "default": "sl"})]),
    "classes": ("conjugacy classes of a given trace", _cmd_classes, [],
                [(("-t",), {"dest": "trace", "type": int, "required": True,
                            "help": f"trace, 3 <= |t| <= {MAX_CLASSES_TRACE}"})]),
    "centralizer": ("centralizer of a standard form", _cmd_centralizer,
                    [("matrix", ("-m", "--matrix"), 'standard form "m,-1;1,0"')], []),
    "commensurable": ("virtual conjugacy with intertwiner", _cmd_commensurable,
                      [("matrix_a", ("-A",), None), ("matrix_b", ("-B",), None)], []),
    "geodesic": ("exact axis data on the modular surface", _cmd_geodesic,
                 [("matrix", ("-m", "--matrix"), None)], []),
    "figure": ("render the axis picture as SVG", _cmd_figure, [], [
        (("--m",), {"type": int, "required": True,
                    "help": f"standard-form parameter, 3 <= |m| <= {MAX_FIGURE_M}"}),
        (("-o",), {"dest": "output", "required": True, "help": "output SVG path"}),
        (("--palette",), {"help": "optional JSON palette override"}),
    ]),
}
_MODES = {"json": "emit a JSON report document", "text": "emit a human-readable summary (default)"}
# A dash token that fits no option spelling is a value when argparse's
# `_negative_number_matcher` matches it (underscored: argparse's own, set
# and read alike in Python 3.10 to 3.13).  Its default, the first two
# alternatives, takes negative numbers; subcommands with matrix options
# also take "-3,-1;1,0": a ',' or ';' is in no option name.
_MATRIX_VALUE = re.compile(r"^-\d+$|^-\d*\.\d+$|^-.*[,;]")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser; every subcommand's `-h` and options, or only `command`'s.

    Every subcommand is added with its name and help either way, so the
    top-level parser is the same.  It has one positional, the subcommand
    (which takes the rest of the command line), and `-h`, which takes no
    value; so when the first token names a subcommand, it selects that
    subcommand's parser, which keeps its `-h`, to read the remaining tokens,
    and no other subcommand's parser reads any: each of those only gives a
    name and a help line to the top-level list of choices, and neither
    depends on its `-h`.  With `command` None (help, an unknown command, no
    argv) every subcommand keeps its `-h`.  Help, usage, an invalid or
    missing command and unrecognized arguments are all reported by the
    top-level parser, as with the full tree.  The subcommands' prog prefix
    is the top-level prog, as argparse would format it: that parser has no
    usage and no positional before the subcommands, so every subcommand's
    prog is still "solvsplit <name>".
    """
    parser = argparse.ArgumentParser(
        prog="solvsplit",
        description=(
            "Exact classifier for Heegaard splittings of torus bundles with "
            "Anosov monodromy"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_text, _, matrices, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=command in (None, name))
        if command not in (None, name):
            continue
        if matrices:
            p._negative_number_matcher = _MATRIX_VALUE
        for dest, flags, matrix_help in matrices:
            p.add_argument(*flags, dest=dest, required=True, help=matrix_help)
        for flags, keywords in options:
            p.add_argument(*flags, **keywords)
        group = p.add_mutually_exclusive_group()
        for mode, mode_help in _MODES.items():
            group.add_argument(
                f"--{mode}", dest="mode", action="store_const", const=mode, help=mode_help
            )
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _, handler, matrices, _ = _SUBCOMMANDS[args.command]
    try:
        for dest, _, _ in matrices:
            setattr(args, dest, parse_matrix(getattr(args, dest)))
        echo, result, verification, text_lines = handler(args)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "input": echo,
            "result": result,
        }
        return _emit(doc, verification, args.mode, text_lines)
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
