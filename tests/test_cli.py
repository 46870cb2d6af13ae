import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solvsplit import (
    AlphaArc,
    IntMatrix2,
    MonodromyForm,
    OrthogonalityCertificate,
    QuadraticIrrational,
    classification,
    cli,
    conjugacy,
    cyclic_word,
    format_matrix,
    modular_geometry,
    parse_matrix,
)
from solvsplit.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, _emit, run
from solvsplit.errors import VerificationError

from _helpers import long_conjugator


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return json.loads(captured.out)


class TestClassifyCommand:
    def test_figure_eight_json(self, capsys):
        doc = run_json(capsys, ["classify", "-m", "2,1;1,1"])
        assert doc["schema_version"] == "3"
        result = doc["result"]
        assert result["genus"] == 2
        assert result["irreducible_splitting_count"] == 2
        assert result["trace"] == 3
        assert result["standard_form"]["target"] == "3,-1;1,0"
        assert all(entry["holds"] for entry in doc["verification"])
        # every matrix in the document round-trips through the text format
        parse_matrix(result["standard_form"]["conjugator"])

    def test_genus_three_json(self, capsys):
        doc = run_json(capsys, ["classify", "-m", "1,2;2,5"])
        assert doc["result"]["genus"] == 3
        assert doc["result"]["irreducible_splitting_count"] == 1
        assert doc["result"]["standard_form"] is None

    def test_text_mode_carries_theorem_tags(self, capsys):
        assert run(["classify", "-m", "2,1;1,1", "--text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[Thm 4.2]" in out and "[Thm 6.2]" in out

    def test_non_anosov_is_domain_error(self, capsys):
        assert run(["classify", "-m", "1,1;0,1"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err

    def test_parse_error(self, capsys):
        assert run(["classify", "-m", "2,1;1"]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_empty_entry_is_parse_error(self, capsys):
        assert run(["classify", "-m", ",1;1,1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: empty integer token\n"


class TestOtherCommands:
    def test_conjugate(self, capsys):
        doc = run_json(
            capsys, ["conjugate", "-A", "2,1;1,1", "-B", "3,-1;1,0"]
        )
        assert doc["result"]["conjugate"] is True
        assert doc["result"]["witness"]["det"] == 1

    def test_conjugate_gl(self, capsys):
        doc = run_json(
            capsys,
            ["conjugate", "-A", "4,-1;1,0", "-B", "4,1;-1,0", "--group", "gl"],
        )
        assert doc["result"]["conjugate"] is True
        assert doc["result"]["witness"]["det"] == -1

    def test_conjugate_trace_1e15(self, capsys):
        m = "1000000000000000,-1;1,0"
        assert run(["conjugate", "-A", m, "-B", m, "--text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "word +1 * R^999999999999998 S" in out
        assert "conjugate        yes" in out

    def test_classes(self, capsys):
        doc = run_json(capsys, ["classes", "-t", "3"])
        assert doc["result"]["count"] == 1
        assert doc["result"]["classes"][0]["representative"] == "2,1;1,1"

    def test_classes_small_trace_rejected(self, capsys):
        assert run(["classes", "-t", "2"]) == EXIT_DOMAIN
        capsys.readouterr()

    def test_size_limits(self, capsys, tmp_path):
        out = tmp_path / "big.svg"
        requests = [
            ["classes", "-t", "10001"],
            ["classes", "-t", "-10001"],
            ["figure", "--m", "10001", "-o", str(out)],
            ["figure", "--m=-10001", "-o", str(out)],
        ]
        for argv in requests:
            assert run(argv + ["--json"]) == EXIT_DOMAIN
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "limit" in captured.err
        assert not out.exists()

    def test_size_limits_are_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLASSES_TRACE", 5)
        monkeypatch.setattr(cli, "MAX_FIGURE_M", 5)
        assert run_json(capsys, ["classes", "-t", "-5"])["result"]["count"] == 2
        assert run(["classes", "-t", "6"]) == EXIT_DOMAIN
        run_json(capsys, ["figure", "--m", "5", "-o", str(tmp_path / "m5.svg")])
        assert (tmp_path / "m5.svg").exists()
        out = tmp_path / "m6.svg"
        assert run(["figure", "--m", "6", "-o", str(out)]) == EXIT_DOMAIN
        assert not out.exists()
        capsys.readouterr()

    def test_centralizer(self, capsys):
        doc = run_json(capsys, ["centralizer", "-m", "3,-1;1,0"])
        assert doc["result"]["gl_extra"]["matrix"] == "-2,1;-1,1"
        assert doc["result"]["reversible"] is True

    def test_negative_leading_entry_accepted(self, capsys):
        doc = run_json(capsys, ["centralizer", "-m", "-3,-1;1,0"])
        assert doc["result"]["gl_extra"]["square_is"] == {"sign": -1, "power": 1}
        doc = run_json(capsys, ["classify", "-m", "-2,-1;-1,-1"])
        assert doc["result"]["irreducible_splitting_count"] == 2
        doc = run_json(capsys, ["conjugate", "-A", "-2,-1;-1,-1", "-B", "-3,-1;1,0"])
        assert doc["result"]["conjugate"] is True

    @pytest.mark.parametrize(
        "spelling",
        [["-m", "-3,-1;1,0"], ["-m=-3,-1;1,0"], ["-m-3,-1;1,0"], ["--matrix", "-3,-1;1,0"],
         ["--matrix=-3,-1;1,0"], ["--mat", "-3,-1;1,0"], ["--matri", "-3,-1;1,0"]],
        ids=" ".join,
    )
    def test_negative_matrix_after_any_accepted_spelling(self, capsys, spelling):
        for command in ("classify", "centralizer", "geodesic"):
            assert run([command, "-m=-3,-1;1,0", "--json"]) == EXIT_OK
            expected = capsys.readouterr().out
            assert run([command, *spelling, "--json"]) == EXIT_OK
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["conjugate", "commensurable"])
    def test_negative_operands_after_any_accepted_spelling(self, capsys, command):
        a, b = "-2,-1;-1,-1", "-3,-1;1,0"
        assert run([command, "-A", a, "-B", b, "--json"]) == EXIT_OK
        expected = capsys.readouterr().out
        for spelled_a in (["-A", a], [f"-A={a}"], [f"-A{a}"]):
            for spelled_b in (["-B", b], [f"-B={b}"], [f"-B{b}"]):
                assert run([command, *spelled_a, *spelled_b, "--json"]) == EXIT_OK
                assert capsys.readouterr().out == expected

    _ODD_COMMAND_LINES = [
        (["classify", "-m", "-3,-1;1,0", "-h"], EXIT_OK),
        (["classify", "-m", "-1x", "-h"], EXIT_PARSE),
        (["classify", "-m", "2,1;1,1", "--json", "-3,1;1,0"], EXIT_PARSE),
        (["conjugate", "-A", "2,1;1,1", "-B", "2,1;1,1", "--group", "-3,1;1,0"], EXIT_PARSE),
        (["figure", "--m", "3", "-o", "-x;y.svg"], EXIT_PARSE),
    ]

    @pytest.mark.parametrize(
        "argv, code", _ODD_COMMAND_LINES, ids=[" ".join(argv) for argv, _ in _ODD_COMMAND_LINES]
    )
    def test_odd_command_line(self, capsys, monkeypatch, tmp_path, argv, code):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == code
        out = capsys.readouterr().out
        if code == EXIT_OK:
            assert out.startswith(f"usage: solvsplit {argv[0]} ")
        else:
            assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_option_spelling_is_never_a_matrix_value(self, capsys):
        # "-A2,1;1,1" spells -A with its value, so the first -A has none
        argv = ["conjugate", "-A", "-A2,1;1,1", "-A", "2,1;1,1", "-B", "3,-1;1,0"]
        assert run(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument -A: expected one argument" in captured.err

    def test_centralizer_requires_standard_form(self, capsys):
        assert run(["centralizer", "-m", "2,1;1,1"]) == EXIT_DOMAIN
        capsys.readouterr()

    def test_commensurable(self, capsys):
        doc = run_json(
            capsys, ["commensurable", "-A", "2,1;1,1", "-B", "3,-1;1,0"]
        )
        assert doc["result"]["virtually_conjugate"] is True
        assert doc["result"]["intertwiner"]["index"] == 1

    def test_commensurable_unequal_traces(self, capsys):
        doc = run_json(
            capsys, ["commensurable", "-A", "2,1;1,1", "-B", "4,-1;1,0"]
        )
        assert doc["result"]["virtually_conjugate"] is False
        assert doc["result"]["intertwiner"] is None

    def test_geodesic(self, capsys):
        doc = run_json(capsys, ["geodesic", "-m", "3,-1;1,0"])
        result = doc["result"]
        assert result["center"] == "3/2"
        assert result["radius_sq"] == "5/4"
        assert result["order2_points"] == [1, 2]
        assert abs(result["translation_length"] - 1.9248473002384139) < 1e-12

    def test_figure(self, capsys, tmp_path):
        out = tmp_path / "m4.svg"
        doc = run_json(capsys, ["figure", "--m", "4", "-o", str(out)])
        assert out.exists()
        assert doc["result"]["corner_coincidence"] is True
        assert doc["result"]["alpha_endpoint_c0"]["x"] == "1/2"

    def test_figure_palette(self, capsys, tmp_path):
        palette = tmp_path / "palette.json"
        palette.write_text(json.dumps({"alpha": "#123456"}))
        out = tmp_path / "m5.svg"
        run_json(
            capsys,
            ["figure", "--m", "5", "-o", str(out), "--palette", str(palette)],
        )
        assert "#123456" in out.read_text()

    def test_figure_palette_values_stay_inside_their_attributes(self, capsys, tmp_path):
        raw = {"alpha": 'red" onload="alert(1)', "label": "a&b<c"}
        palette = tmp_path / "palette.json"
        palette.write_text(json.dumps(raw))
        out = tmp_path / "m3.svg"
        run_json(capsys, ["figure", "--m", "3", "-o", str(out), "--palette", str(palette)])
        root = ElementTree.parse(out).getroot()  # raises unless well-formed
        svg = "{http://www.w3.org/2000/svg}"
        alpha = [e for e in root.iter(svg + "path") if e.get("stroke-width") == "4"]
        labels = list(root.iter(svg + "text"))
        assert [e.get("stroke") for e in alpha] == [raw["alpha"]]
        assert len(labels) == 2
        assert all(e.get("fill") == raw["label"] for e in labels)
        assert all(e.get("onload") is None for e in root.iter())

    @pytest.mark.parametrize(
        "content", [b"not json", b"[1,2]", b'{"alpha": 1}'], ids=["text", "list", "int"]
    )
    def test_figure_bad_palette_is_parse_error(self, capsys, tmp_path, content):
        palette = tmp_path / "palette.json"
        palette.write_bytes(content)
        out = tmp_path / "m5.svg"
        code = run(["figure", "--m", "5", "-o", str(out), "--palette", str(palette)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "palette" in captured.err
        assert not out.exists()

    def test_figure_io_error_is_exit_2(self, capsys, tmp_path):
        requests = [
            ["figure", "--m", "5", "-o", str(tmp_path / "missing" / "x.svg")],
            ["figure", "--m", "5", "-o", str(tmp_path / "m5.svg"),
             "--palette", str(tmp_path / "absent.json")],
        ]
        for argv in requests:
            assert run(argv) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("i/o error: ")
        assert list(tmp_path.iterdir()) == []

    def test_geodesic_3000_bit_entries(self, capsys):
        K = long_conjugator(random.Random(61), 1500)
        M = K @ IntMatrix2(5, 2, 2, 1) @ K.inverse()
        assert max(abs(e) for e in M.entries()).bit_length() > 2900
        assert run(["geodesic", "-m", format_matrix(M), "--text"]) == EXIT_OK
        assert "endpoints" in capsys.readouterr().out
        doc = run_json(capsys, ["geodesic", "-m", format_matrix(M)])
        approx = []
        for entry in doc["result"]["endpoints"]:
            z = QuadraticIrrational(entry["p"], entry["q"], entry["r"], entry["disc"])
            x = entry["approx"]
            assert math.isfinite(x)
            bound = (z if z > 0 else -z) * Fraction(1, 2**40)
            assert -bound <= z - Fraction(x) <= bound
            approx.append(x)
        assert approx[0] <= approx[1]

    @pytest.mark.parametrize("mode", ["--json", "--text"])
    @pytest.mark.parametrize(
        "matrix",
        [
            # disc = 4t^2 - 4 has 8001 digits, past the interpreter's print limit
            f"{10**4000},{10**4000 - 1};{10**4000 + 1},{10**4000}",
            # radius^2 = 21 / (4 c^2) with a 2201-digit c
            format_matrix(
                IntMatrix2(1, 0, 10**1100, 1)
                @ IntMatrix2(5, 2, 2, 1)
                @ IntMatrix2(1, 0, -(10**1100), 1)
            ),
        ],
        ids=["disc", "radius_sq"],
    )
    def test_unprintable_integer_is_domain_error(self, capsys, mode, matrix):
        code = run(["geodesic", "-m", matrix, mode])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == ""
        assert "domain error" in captured.err

    @pytest.mark.parametrize("command", ["classify", "commensurable", "geodesic"])
    def test_unprintable_trace_is_domain_error(self, capsys, command):
        # 4300-digit entries whose trace has 4301 digits
        a = 9 * 10**4299
        M = f"{a},{a - 1};{a + 1},{a}"
        argv = ["-A", M, "-B", M] if command == "commensurable" else ["-m", M]
        assert run([command, *argv]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "print limit" in captured.err

    @pytest.mark.parametrize("mode", ["--json", "--text"])
    def test_unprintable_intertwiner_is_domain_error(self, capsys, mode):
        # 4300-digit inputs of trace 6 whose intertwiner has one more bit
        c = 5 * 10**2149
        W = IntMatrix2(5, 2, 2, 1)
        A = IntMatrix2(1, 0, c, 1) @ W @ IntMatrix2(1, 0, -c, 1)
        B = IntMatrix2(1, 0, -c, 1) @ W @ IntMatrix2(1, 0, c, 1)
        argv = ["commensurable", "-A", format_matrix(A), "-B", format_matrix(B), mode]
        assert run(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "print limit" in captured.err

    def test_unprintable_determinant_in_message(self, capsys):
        a = 10**4299
        assert run(["classify", "-m", f"{a},{a};{-a},{a}"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has det of 28563 bits != 1" in captured.err

    def test_over_long_integer_names_the_digit_limit(self, capsys):
        assert run(["classify", "-m", "9" * 4301 + ",1;1,0"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a 4301-character integer is past the 4300-digit limit" in captured.err
        assert len(captured.err) < 200
        assert run(["classify", "-m", "-" + "9" * 4301 + ",1;1,0"]) == EXIT_PARSE
        assert "a 4302-character integer is past the 4300-digit limit" in capsys.readouterr().err
        for token in ("\u00b2", "+-5", "x"):
            assert run(["classify", "-m", f"{token},1;1,0"]) == EXIT_PARSE
            assert f"not an integer: {token!r}" in capsys.readouterr().err


class TestConjugateGuard:
    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("2,1;1,2", "2,1;1,1", "A has det 3 != 1"),
            ("1,1;0,1", "2,1;1,1", "A has trace 2, not Anosov"),
            ("2,1;1,1", "2,1;1,2", "B has det 3 != 1"),
            ("2,1;1,1", "1,0;0,1", "B has trace 2, not Anosov"),
        ],
    )
    def test_names_the_operand(self, capsys, a, b, message):
        assert run(["conjugate", "-A", a, "-B", b]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: {message}\n"


class TestCliContract:
    def test_module_entry_point_exits_with_the_code(self):
        src = Path(__file__).resolve().parent.parent / "src"
        for matrix, code in (("2,1;1,1", EXIT_OK), (",1;1,1", EXIT_PARSE)):
            proc = subprocess.run(
                [sys.executable, "-m", "solvsplit.cli", "classify", "-m", matrix],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert proc.returncode == code, proc.stderr
            assert bool(proc.stdout) == (code == EXIT_OK)

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_argument_exits_2(self, capsys):
        assert run(["classify"]) == 2
        capsys.readouterr()

    def test_json_output_is_deterministic(self, capsys):
        run(["classify", "-m", "2,1;1,1", "--json"])
        first = capsys.readouterr().out
        run(["classify", "-m", "2,1;1,1", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_failed_verification_exits_4(self, capsys):
        doc = {"schema_version": "1", "command": "test", "input": {}}
        code = _emit(doc, [("forced failure", False)], "json", lambda: [])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY
        assert captured.out == ""
        assert "forced failure" in captured.err

    def test_failed_unit_curve_recheck_exits_4(self, capsys, monkeypatch):
        # 2x^2 + 2y^2 takes no unit value, so classify's re-check of the curve fails
        monkeypatch.setattr(classification, "monodromy_form", lambda L: MonodromyForm(2, 0, 2))
        assert run(["classify", "-m", "5,-1;1,0"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification failure" in captured.err

    def test_failed_involution_identities_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(classification, "RHO", IntMatrix2(1, 0, 0, 1))
        assert run(["classify", "-m", "2,1;1,1"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification failure" in captured.err

    def test_singular_conjugator_is_a_verification_failure(self, capsys, monkeypatch):
        # [[5,2],[2,1]] is reduced, so with U = 2I the product check M T = T W
        # holds and only the determinant shows the conjugator is no witness
        reduce = conjugacy._reduce_to_positive_word
        monkeypatch.setattr(
            conjugacy, "_reduce_to_positive_word", lambda M: (reduce(M)[0], IntMatrix2(2, 0, 0, 2))
        )
        with pytest.raises(VerificationError):
            cyclic_word(IntMatrix2(5, 2, 2, 1))
        assert run(["classify", "-m", "5,2;2,1"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification failure" in captured.err

    def test_failed_figure_certificate_writes_no_file(self, capsys, monkeypatch, tmp_path):
        arc_of = modular_geometry.alpha_arc

        def broken_arc(m):
            arc = arc_of(m)
            certificates = tuple(
                OrthogonalityCertificate(c.name, c.lhs, c.rhs + 1) for c in arc.certificates
            )
            return AlphaArc(arc.m, arc.endpoint_c0, arc.endpoint_cm, certificates,
                            arc.corner_coincidence, arc.c0_endpoint_position)

        monkeypatch.setattr(modular_geometry, "alpha_arc", broken_arc)
        out = tmp_path / "fail.svg"
        assert run(["figure", "--m", "4", "-o", str(out)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "verification failed: C0 orthogonal to axis; Cm orthogonal to axis\n"
        )
        assert not out.exists()

    def test_diagnostics_never_on_stdout(self, capsys):
        run(["classify", "-m", "not-a-matrix"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""


def _conjugated(base: IntMatrix2, n: int, k: int) -> IntMatrix2:
    K = IntMatrix2(1, n, 0, 1) @ IntMatrix2(1, 0, k, 1)
    return K @ base @ K.inverse()


def _huge(max_digits: int):
    """Integers +-(10^d + u) with d up to max_digits."""
    return st.builds(
        lambda d, sign, u: sign * 10**d + u,
        st.integers(0, max_digits),
        st.sampled_from([1, -1]),
        st.integers(-9, 9),
    )


_entries = st.one_of(st.integers(-50, 50), _huge(4000))
_big_sl2 = st.one_of(
    st.builds(lambda t: f"{t},-1;1,0", _entries),
    st.builds(lambda t: f"{t},{t - 1};{t + 1},{t}", _entries),
    st.builds(
        lambda base, n, k: format_matrix(_conjugated(base, n, k)),
        st.sampled_from(
            [IntMatrix2(2, 1, 1, 1), IntMatrix2(5, 2, 2, 1), IntMatrix2(-4, 1, -1, 0)]
        ),
        _huge(900),
        st.integers(-10**6, 10**6),
    ),
)
_matrix_text = st.one_of(
    _big_sl2,
    st.builds(lambda *e: "{},{};{},{}".format(*e), *[_entries] * 4),
    st.text(alphabet="0123456789-,; x/", max_size=12),
    st.text(max_size=8),
)
_mode = st.sampled_from(["--json", "--text"])
_palettes = {
    "ok": b'{"alpha": "#123456"}',
    "not_json": b"not json",
    "list": b"[1,2]",
    "number_value": b'{"alpha": 1}',
    "not_utf8": b'{"alpha": "\xff"}',
}


def _argv(data, tmp_path):
    command = data.draw(
        st.sampled_from(
            ["classify", "conjugate", "classes", "centralizer",
             "commensurable", "geodesic", "figure"]
        )
    )
    if command in ("classify", "centralizer", "geodesic"):
        args = ["-m", data.draw(_matrix_text)]
    elif command in ("conjugate", "commensurable"):
        args = ["-A", data.draw(_matrix_text), "-B", data.draw(_matrix_text)]
        if command == "conjugate":
            args += ["--group", data.draw(st.sampled_from(["sl", "gl", "xl"]))]
    elif command == "classes":
        args = ["-t", str(data.draw(st.one_of(st.integers(-40, 40), _entries)))]
    else:
        m = data.draw(st.one_of(st.integers(-12, 12), _entries))
        out = data.draw(
            st.sampled_from(
                [tmp_path / "f.svg", tmp_path / "missing" / "f.svg", tmp_path]
            )
        )
        args = ["--m", str(m), "-o", str(out)]
        palette = data.draw(st.sampled_from([None, "absent", *_palettes]))
        if palette is not None:
            path = tmp_path / f"palette_{palette}.json"
            if palette != "absent":
                path.write_bytes(_palettes[palette])
            args += ["--palette", str(path)]
    return [command, *args, data.draw(_mode)]


class TestCliFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_exit_codes_and_empty_stdout_on_failure(self, data, tmp_path):
        argv = _argv(data, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_VERIFY), err.getvalue()
        if code != EXIT_OK:
            assert out.getvalue() == ""
