import json

import pytest

from solvsplit import cli, parse_matrix
from solvsplit.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, _emit, run


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return json.loads(captured.out)


class TestClassifyCommand:
    def test_figure_eight_json(self, capsys):
        doc = run_json(capsys, ["classify", "-m", "2,1;1,1"])
        assert doc["schema_version"] == "2"
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


class TestCliContract:
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

    def test_diagnostics_never_on_stdout(self, capsys):
        run(["classify", "-m", "not-a-matrix"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""
