"""End-to-end command tests: exit codes, report payloads, determinism."""

import json
import subprocess
import sys

import pytest

from coringlab.algebras import diagonal_algebra, trivial_extension
from coringlab.cli import main
from coringlab.corpus import corpus_path, s3_over_c2, ut2_over_diagonal
from coringlab.linalg import Field
from coringlab.schemas import dump_extension


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_validate_corpus_extension(capsys):
    code, payload = run_json(capsys, "validate", str(corpus_path("m2_gf5.json")))
    assert code == 0
    assert payload["ok"]
    assert payload["command"] == "validate"
    assert [c["ok"] for c in payload["checks"]] == [True, True, True]


def test_validate_many_files_one_report(capsys):
    code, payload = run_json(capsys, "validate",
                             str(corpus_path("c2_gf2.json")),
                             str(corpus_path("hopf_c2_gf3.json")))
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert "hopf_c2_gf3.json: bialgebra axioms" in names
    assert len(names) == 4  # three extension checks + one bialgebra check


def test_validate_names_broken_unit(capsys, tmp_path):
    obj = {
        "field": {"prime": 5}, "dim": 2, "basis": ["e", "x"],
        # e*x = 0 while x*e = x: the named unit fails on the left
        "structure": [[[[0, 1]], []], [[[1, 1]], [[0, 1]]]],
        "unit": [1, 0],
    }
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, payload = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert not payload["ok"]
    failures = payload["checks"][0]["detail"]["failures"]
    assert any("unit law fails at basis index 1" in f for f in failures)


def test_validate_names_broken_associativity(capsys, tmp_path):
    # (x*x)*x = y*x = 0 but x*(x*x) = x*y = e
    obj = {
        "field": {"prime": 5}, "dim": 3, "basis": ["e", "x", "y"],
        "structure": [
            [[[0, 1]], [[1, 1]], [[2, 1]]],
            [[[1, 1]], [[2, 1]], [[0, 1]]],
            [[[2, 1]], [], []],
        ],
        "unit": [1, 0, 0],
    }
    bad = tmp_path / "nonassoc.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, payload = run_json(capsys, "validate", str(bad))
    assert code == 1
    failures = payload["checks"][0]["detail"]["failures"]
    assert any("associativity fails at (i=1, j=1, k=1" in f for f in failures)


def test_validate_names_inclusion_violation(capsys, tmp_path):
    obj = dump_extension(s3_over_c2(7))
    obj["inclusion"] = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 1], [0, 0]]
    bad = tmp_path / "bad_inclusion.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, payload = run_json(capsys, "validate", str(bad))
    assert code == 1
    [check] = payload["checks"]
    assert check["name"] == "bad_inclusion.json: axioms"
    assert "multiplicative" in check["detail"]["error"]
    assert "i=1, j=1" in check["detail"]["error"]


def test_validate_reports_parse_error_with_path(capsys, tmp_path):
    obj = dump_extension(ut2_over_diagonal(5))
    obj["field"]["prime"] = 10
    bad = tmp_path / "composite.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, payload = run_json(capsys, "validate", str(bad))
    assert code == 1
    [check] = payload["checks"]
    assert check["name"] == "composite.json: parse"
    assert "field.prime" in check["detail"]["error"]


def test_cohomology_certified_extension(capsys):
    code, payload = run_json(capsys, "cohomology", str(corpus_path("m2_gf5.json")))
    assert code == 0
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["hochschild cohomology"]["detail"]["dims"] == [1, 0, 0]
    assert by_name["amitsur cohomology"]["detail"]["dims"] == [1, 0, 0]
    assert by_name["cohomology dims agree"]["ok"]


def test_cohomology_downgrades_without_certificate(capsys):
    code, payload = run_json(capsys, "cohomology", str(corpus_path("s3_c2_gf7.json")))
    assert code == 0
    assert payload["ok"]
    by_name = {c["name"]: c for c in payload["checks"]}
    assert "amitsur cohomology" not in by_name
    section = by_name["amitsur section"]["detail"]
    assert section["status"] == "skipped: no depth-two certificate"
    assert (section["hom_dim"], section["square_dim"], section["f2_rank"]) == (28, 26, 26)


def test_verify_iso_positive(capsys):
    code, payload = run_json(capsys, "verify-iso", str(corpus_path("c2_gf2.json")),
                             "--max-degree", "2", "--trials", "5")
    assert code == 0
    assert payload["ok"]
    names = [c["name"] for c in payload["checks"]]
    assert "f1 bijective" in names
    assert "chain square degree 0" in names


def test_verify_iso_exits_nonzero_without_certificate(capsys):
    code, payload = run_json(capsys, "verify-iso", str(corpus_path("s3_c2_gf7.json")))
    assert code == 1
    [check] = payload["checks"]
    assert check["name"] == "depth-two certificate"
    assert not check["ok"]
    assert "28 x 26 with rank 26" in check["detail"]["error"]


def test_amitsur_command_picks_the_coring(capsys):
    code, payload = run_json(capsys, "amitsur", str(corpus_path("gf25_gf5.json")),
                             "--trials", "5")
    assert code == 0
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["coring"]["detail"]["kind"] == "endomorphism"
    assert by_name["omega dims"]["detail"]["dims"] == [2, 4, 8, 16]
    assert by_name["d^1 . d^0 = 0"]["ok"]

    code, payload = run_json(capsys, "amitsur", str(corpus_path("s3_c2_gf7.json")),
                             "--trials", "5", "--max-degree", "2")
    assert code == 0
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["coring"]["detail"]["kind"] == "sweedler"
    assert by_name["cohomology"]["detail"]["dims"] == [2, 0]


def test_gs_compare_hollow_triangle(capsys):
    code, payload = run_json(capsys, "gs-compare",
                             str(corpus_path("hollow_triangle.facets")))
    assert code == 0
    dims = [(c["detail"]["extension"], c["detail"]["simplicial"])
            for c in payload["checks"]]
    assert dims == [(1, 1), (1, 1)]


def test_gs_compare_respects_cap(capsys):
    code, out, err = run_cli(capsys, "gs-compare",
                             str(corpus_path("filled_triangle.facets")), "--cap", "10")
    assert code == 2
    assert out == ""
    assert "exceeds the cap 10" in err


def test_gs_compare_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.facets"
    bad.write_text("0 1\n0 x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "gs-compare", str(bad))
    assert code == 2
    assert "line 2" in err


def test_hopf_check_factorization(capsys):
    code, payload = run_json(capsys, "hopf-check", str(corpus_path("hopf_c2_gf2.json")),
                             "--max-degree", "4")
    assert code == 0
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["hochschild dims over the unit line"]["detail"]["dims"] == [2, 2, 2, 2]
    assert by_name["dual cobar dims"]["detail"]["dims"] == [1, 1, 1, 1]
    assert by_name["H^2 factorization"]["ok"]
    assert by_name["H^3 factorization"]["ok"]


@pytest.mark.parametrize("command,source", [
    ("cohomology", "ut2_diag_gf5.json"),
    ("amitsur", "ut2_diag_gf5.json"),
    ("verify-iso", "ut2_diag_gf5.json"),
    ("hopf-check", "hopf_c2_gf3.json"),
])
def test_broken_algebra_laws_are_a_usage_error(capsys, tmp_path, command, source):
    # e0 * e1 changed: the loaders accept it, associativity does not hold
    obj = json.loads(corpus_path(source).read_text(encoding="utf-8"))
    obj["structure"][0][1] = [[1, 2]] if command != "hopf-check" else [[0, 1]]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "algebra laws fail: associativity fails at" in err


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "cohomology", "/nonexistent/nowhere.json")
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_flag_validation():
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "x.json", "--max-degree", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gs-compare", "x.facets", "--field", "6"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-iso", "x.json", "--trials", "0"])
    assert exc.value.code == 2
    for command in ("amitsur", "verify-iso"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(corpus_path("c2_gf2.json")), "--seed", "-1"])
        assert exc.value.code == 2


def test_gs_compare_degree_cap_is_a_usage_error(capsys):
    # H^4 would need the cochain complex at degree 5, above the hard cap
    with pytest.raises(SystemExit) as exc:
        main(["gs-compare", str(corpus_path("filled_triangle.facets")), "--max-degree", "4"])
    assert exc.value.code == 2
    assert "hard cap 3 of gs-compare" in capsys.readouterr().err


def test_oversized_tensor_power_is_a_usage_error(capsys, tmp_path):
    # k^11 over k: the tower builds A (x) A (x) A and refuses the fourth
    # power, whose ambient 11**4 is relation-free, before allocating it
    big = tmp_path / "diag11.json"
    big.write_text(json.dumps(dump_extension(
        trivial_extension(diagonal_algebra(Field(5), 11)))), encoding="utf-8")
    code, out, err = run_cli(capsys, "cohomology", str(big), "--max-degree", "4")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: a tensor power with ambient dimension 14641")
    assert err.count("\n") == 1


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "cohomology", str(corpus_path("ut2_diag_gf5.json")),
                           "--format", "markdown")
    assert code == 0
    assert out.startswith("# coringlab cohomology\n")
    assert "| cohomology dims agree | pass |" in out
    assert "- result: pass" in out


def test_json_reports_are_byte_stable(capsys):
    argv = ["verify-iso", str(corpus_path("c2_gf2.json")),
            "--max-degree", "2", "--trials", "10", "--seed", "7"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert "elapsed" not in first[1]


def test_timing_flag_opts_in(capsys):
    base = ["gs-compare", str(corpus_path("point.facets"))]
    _, payload = run_json(capsys, *base)
    assert "elapsed_seconds" not in payload
    _, timed = run_json(capsys, *(base + ["--timing"]))
    assert isinstance(timed["elapsed_seconds"], float)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coringlab.cli", "validate",
         str(corpus_path("c3_gf3.json"))],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]
