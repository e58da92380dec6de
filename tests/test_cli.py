import json

import pytest

from taylor_edges.algebra import product_algebra
from taylor_edges.catalog import builtin_algebras, two_element_majority, z2_minority
from taylor_edges.cli import main
from taylor_edges.csp import Instance
from taylor_edges.errors import ParseError
from taylor_edges.fileio import (
    emit_algebra,
    emit_instance,
    parse_algebras,
    parse_instance,
)


@pytest.fixture()
def catalog_file(tmp_path):
    path = tmp_path / "catalog.alg"
    text = "\n".join(
        emit_algebra(a).rstrip("\n") for a in builtin_algebras().values()
    ) + "\n"
    path.write_text(text)
    return path


@pytest.fixture()
def a1_file(tmp_path, alg_a1):
    path = tmp_path / "a1.alg"
    path.write_text(emit_algebra(alg_a1))
    return path


class TestRoundTrip:
    def test_algebra_roundtrip_identity(self):
        for alg in builtin_algebras().values():
            text = emit_algebra(alg)
            parsed = parse_algebras(text)
            assert parsed == [alg]
            assert emit_algebra(parsed[0]) == text

    def test_multi_algebra_file(self, catalog_file):
        algs = parse_algebras(catalog_file.read_text())
        assert [a.name for a in algs] == [
            "semilattice2", "z2minority", "majority2", "a1"
        ]

    def test_instance_roundtrip(self, z2):
        inst = Instance.make(
            "demo", [("x", z2), ("y", z2)],
            [(("x", "y"), {(0, 0), (1, 1)}), (("x",), {(0,)})],
        )
        text = emit_instance(inst)
        back = parse_instance(text, {"z2minority": z2})
        assert back == inst
        assert emit_instance(back) == text

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_algebras("algebra x\nsize two\n")
        assert "line 2" in str(err.value)

    def test_table_length_checked(self):
        with pytest.raises(ParseError):
            parse_algebras("algebra x\nsize 2\nop f 2\n0 1 1\nend\n")


class TestCli:
    def test_catalog_exit_zero(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "algebra a1" in out and "algebra semilattice2" in out

    def test_analyze_a1(self, a1_file, capsys):
        code = main(["analyze", str(a1_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "asm_min: [0]" in out
        assert "two_absorbing: [[0], [0, 1, 2, 3]]" in out

    def test_analyze_json_and_text_agree(self, a1_file, capsys):
        main(["analyze", str(a1_file), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["edges"]["asm_min"] == [0]
        assert payload["has_taylor"] is True
        assert [[0], [0, 1, 2, 3]] == payload["two_absorbing"]

    def test_edges_dot(self, a1_file, capsys):
        assert main(["edges", str(a1_file), "--dot"]) == 0
        out = capsys.readouterr().out
        assert "style=solid" in out and "style=dashed" in out
        assert 'digraph "a1"' in out

    def test_verify_exit_zero(self, a1_file, capsys):
        assert main(["verify", str(a1_file)]) == 0
        assert "passed: True" in capsys.readouterr().out

    def test_invalid_algebra_analyze_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.alg"
        path.write_text("algebra bad\nsize 2\nop f 2\n1 0 0 1\nend\n")
        assert main(["analyze", str(path)]) == 1

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.alg"
        path.write_text("algebra\n")
        assert main(["analyze", str(path)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["analyze", "/nonexistent/x.alg"]) == 2

    def test_csp_solve_and_minimize(self, tmp_path, capsys):
        inst = tmp_path / "i.csp"
        inst.write_text(
            "instance demo\nvar x z2minority\nvar y z2minority\n"
            "constraint x y\n0 0\n1 1\nend\nconstraint x\n1\nend\nend\n"
        )
        assert main(["csp", "solve", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "x = 1" in out and "y = 1" in out
        assert main(["csp", "minimize", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "instance demo" in out

    def test_csp_unsat_exit_one(self, tmp_path, capsys):
        inst = tmp_path / "u.csp"
        inst.write_text(
            "instance u\nvar x z2minority\nconstraint x\nend\nend\n"
        )
        assert main(["csp", "solve", str(inst)]) == 1
        assert "UNSAT" in capsys.readouterr().out

    def test_custom_algebra_resolution(self, tmp_path, a1_file, capsys):
        inst = tmp_path / "c.csp"
        inst.write_text(
            "instance c\nvar x a1\nconstraint x\n3\nend\nend\n"
        )
        assert main(["csp", "solve", str(inst), str(a1_file)]) == 0
        assert "x = 3" in capsys.readouterr().out

    def test_env_var_caps_flags_win(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TAYLOR_EDGES_CAPS", "--subset-cap 2")
        # env says 2 (skipping a1's absorption); the explicit flag restores it
        path = tmp_path / "a1.alg"
        path.write_text(emit_algebra(builtin_algebras()["a1"]))
        code = main(["analyze", str(path)])
        assert code == 3  # absorption skipped: unknowns present
        capsys.readouterr()
        code = main(["analyze", str(path), "--subset-cap", "6"])
        assert code == 0

    def test_byte_identical_reruns(self, a1_file, capsys):
        main(["analyze", str(a1_file), "--format", "json"])
        first = capsys.readouterr().out
        main(["analyze", str(a1_file), "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_flag_writes_file(self, a1_file, tmp_path):
        target = tmp_path / "report.json"
        main(["analyze", str(a1_file), "--format", "json", "--out", str(target)])
        assert json.loads(target.read_text())["algebra"] == "a1"

    def test_empty_constraints_solvable(self, tmp_path, capsys):
        inst = tmp_path / "free.csp"
        inst.write_text("instance free\nvar x a1\nvar y z2minority\nend\n")
        assert main(["csp", "solve", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "x =" in out and "y =" in out

    def test_verify_mixed_signature_catalog(self, catalog_file, capsys):
        # both signature groups verified in one run
        assert main(["verify", str(catalog_file)]) == 0
        assert "passed: True" in capsys.readouterr().out

    def test_verify_reports_coverage(self, catalog_file, capsys):
        # AxiomReport.coverage summed over the reports, in JSON and in text
        assert main(["verify", str(catalog_file), "--format", "json"]) == 0
        coverage = json.loads(capsys.readouterr().out)["coverage"]
        assert coverage["homomorphisms"] > 0
        assert coverage["relational-joint-rows"] > 0
        main(["verify", str(catalog_file)])
        text = capsys.readouterr().out
        assert f"coverage.homomorphisms: {coverage['homomorphisms']}" in text

    def test_verify_only_skipped_exit_three(self, tmp_path, capsys):
        # z2minority x majority2 has checks skipped at the default caps and
        # none failed: that is exit 3, not a counterexample
        path = tmp_path / "z2minority_x_majority2.alg"
        path.write_text(emit_algebra(product_algebra(z2_minority(), two_element_majority())))
        assert main(["verify", str(path), "--format", "json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        statuses = {c["status"] for c in payload["checks"]}
        assert statuses == {"pass", "skipped"}
        assert payload["passed"] is False

    def test_edges_cap_exit_three(self, a1_file, capsys):
        # a closure cap of 2 cannot finish the cyclic clones F(p) of the
        # two-generated subalgebras, so every pair becomes unknown
        assert main(["edges", str(a1_file), "--closure-cap", "2"]) == 3

    def test_text_and_json_decisions_match(self, a1_file, capsys):
        main(["analyze", str(a1_file), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        main(["analyze", str(a1_file)])
        text = capsys.readouterr().out
        for key, value in payload.items():
            if isinstance(value, (bool, int, str)) and key != "algebra":
                assert f"{key}: {value}" in text

    def test_verify_honors_arities(self, catalog_file, capsys):
        # the catalog's edge sets do not depend on the cyclic arity; a
        # two-element majority algebra has no cyclic binary term
        assert main(["verify", str(catalog_file), "--format", "json"]) == 0
        default = capsys.readouterr().out
        assert main(["verify", str(catalog_file), "--format", "json", "--arities", "3,5"]) == 0
        assert capsys.readouterr().out == default
        assert main(["verify", str(catalog_file), "--arities", "2"]) == 1
        assert "no cyclic operation at arity 2" in capsys.readouterr().err
