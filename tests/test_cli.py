"""End-to-end command tests: exit codes, report payloads, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coringlab import cli
from coringlab.algebras import diagonal_algebra, trivial_extension
from coringlab.cli import main
from coringlab.corpus import corpus_path, s3_over_c2, ut2_over_diagonal
from coringlab.linalg import Field
from coringlab.reporting import Report
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


@pytest.mark.parametrize("k", [6, 10, 30])
def test_gs_compare_refuses_a_large_facet_before_enumerating_faces(capsys, tmp_path, k):
    # one k-vertex facet: 2**k - 1 faces and 3**k - 2**k pairs, refused
    # from the facet size alone, before a face or the structure tensor
    # (665**3 entries at k = 6) exists
    simplex = tmp_path / f"simplex{k}.facets"
    simplex.write_text(" ".join(map(str, range(k))) + "\n", encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "gs-compare", str(simplex))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: incidence algebra dimension exceeds the cap 20")
    assert f"a facet of {k} vertices" in err


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


# runs one command and prints the peak resident size (kB) of its own
# memory last: VmHWM, since ru_maxrss also counts the test runner's
# memory, which a child started from it inherits on Linux
PEAK_RSS_PROBE = ("import sys\n"
                  "from coringlab.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                  "           if line.startswith('VmHWM')))\n"
                  "sys.exit(code)\n")


def zero_algebra(d):
    """A d-dimensional algebra object over GF(5) whose only nonzero
    product is e0 * e0 = e0, with e0 as its claimed unit."""
    structure = [[[] for _ in range(d)] for _ in range(d)]
    structure[0][0] = [[0, 1]]
    return {"field": {"prime": 5}, "dim": d, "basis": [f"e{i}" for i in range(d)],
            "structure": structure, "unit": [1] + [0] * (d - 1)}


def cyclic_bialgebra(n):
    """The group bialgebra of the cyclic group of order n over GF(5)."""
    obj = {"field": {"prime": 5}, "dim": n, "basis": [f"g{i}" for i in range(n)],
           "structure": [[[[(i + j) % n, 1]] for j in range(n)] for i in range(n)],
           "unit": [1] + [0] * (n - 1), "counit": [1] * n}
    obj["coproduct"] = [[int(u == v == x) for x in range(n)]
                        for u in range(n) for v in range(n)]
    return obj


def over_the_budget(command):
    if command == "validate":
        obj = zero_algebra(200)
        obj["structure"][0][0] = []  # every product zero
    elif command == "cohomology":
        # over k: iota(1) = e0 is multiplicative, so the file loads
        obj = zero_algebra(200)
        obj["sub"] = {"field": {"prime": 5}, "dim": 1, "basis": ["1"],
                      "structure": [[[[0, 1]]]], "unit": [1]}
        obj["inclusion"] = [[1]] + [[0]] * 199
    else:
        # 101**4 entries, just over the budget of 1e8
        obj = cyclic_bialgebra(101)
    return obj


@pytest.mark.parametrize("command,refusal", [
    ("validate", "the associativity check of a 200-dimensional algebra needs two arrays"),
    ("cohomology", "the associativity check of a 200-dimensional algebra needs two arrays"),
    ("hopf-check", "the bialgebra check of a 101-dimensional coproduct needs arrays"),
])
def test_oversized_axiom_checks_are_refused_in_bounded_memory(tmp_path, command, refusal):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(over_the_budget(command)), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, command, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {refusal} of about ")
    assert proc.stderr.count("\n") == 1
    assert int(proc.stdout) < 200 * 1024


@pytest.mark.parametrize("d,refusal", [
    # 300**3 entries load under the budget of 1e8 and 300**4 are refused
    # at the laws; committed in full, the tensor alone would take 216 MB
    (300, "the associativity check of a 300-dimensional algebra needs two arrays of about "),
    # 465**3 entries, just over the budget, are refused before the tensor is built
    (465, "algebra: a 465-dimensional algebra needs a structure tensor of about 1.01e+08 "),
])
def test_a_large_file_of_empty_products_is_refused_in_bounded_memory(tmp_path, d, refusal):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(zero_algebra(d)), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, "validate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {refusal}")
    assert int(proc.stdout) < 200 * 1024


# the small corpus files: every command on them takes milliseconds
SMALL_INPUTS = ["c2_gf2.json", "c3_gf3.json", "gf25_gf5.json", "ut2_diag_gf5.json",
                "hopf_c2_gf2.json", "hopf_c2_gf3.json"]


@st.composite
def corrupted_inputs(draw):
    """A small corpus extension or bialgebra with one corruption, in its
    top-level algebra or its subalgebra: a key dropped, a value of the
    wrong type, a basis index out of range, a bad dim, a structure
    constant changed (which breaks associativity as a rule) or an
    integer past 64 bits."""
    obj = json.loads(corpus_path(draw(st.sampled_from(SMALL_INPUTS))).read_text(encoding="utf-8"))
    target = obj["sub"] if "sub" in obj and draw(st.booleans()) else obj
    terms = [term for row in target["structure"] for cell in row for term in cell]
    kind = draw(st.sampled_from(["drop", "type", "index", "dim", "flip", "huge"]))
    if kind == "drop":
        del target[draw(st.sampled_from(sorted(target)))]
    elif kind == "type":
        target[draw(st.sampled_from(sorted(target)))] = draw(
            st.sampled_from(["x", 1.5, None, True, [], {}]))
    elif kind == "index":
        draw(st.sampled_from(terms))[0] = draw(st.sampled_from([-1, target["dim"], 10**6]))
    elif kind == "dim":
        target["dim"] = draw(st.sampled_from([-1, 0, 10**9]))
    elif kind == "flip":
        draw(st.sampled_from(terms))[1] += 1
    else:
        draw(st.sampled_from([draw(st.sampled_from(terms)), target["unit"]]))[-1] = 2**70
    return obj


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(corrupted_inputs())
def test_corrupted_inputs_end_in_an_exit_code(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for command in ("validate", "cohomology", "hopf-check"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(path), "--max-degree", "1"])
            assert code in (0, 1, 2), command


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


def test_calls_in_one_process_report_as_separate_processes(capsys):
    # main shares one parser across calls: options and defaults of one
    # call must not leak into the next
    runs = [["amitsur", str(corpus_path("c2_gf3.json")), "--max-degree", "2",
             "--trials", "7", "--seed", "3", "--format", "markdown"],
            ["amitsur", str(corpus_path("c2_gf3.json"))],
            ["gs-compare", str(corpus_path("point.facets"))]]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "coringlab.cli"] + argv,
                              capture_output=True, text=True)
        assert (code, out) == (proc.returncode, proc.stdout), argv


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


EMITTED_JSON = """{
  "checks": [
    {
      "detail": {
        "count": 7,
        "flag": false,
        "grid": [
          [
            1,
            2
          ],
          [
            3,
            4
          ]
        ],
        "pair": [
          5,
          6
        ]
      },
      "name": "laws",
      "ok": true
    }
  ],
  "command": "amitsur",
  "config": {
    "cap": 20,
    "format": "json",
    "max_degree": 3,
    "prime": 5,
    "seed": 0,
    "trials": 50
  },
  "inputs": [
    "x.json"
  ],
  "ok": true
}
"""

EMITTED_MARKDOWN = """# coringlab amitsur

- input: `x.json`
- config: cap=20, format=json, max_degree=3, prime=5, seed=0, trials=50
- result: pass

| check | status | detail |
| --- | --- | --- |
| laws | pass | flag=False, count=7, grid=[[1, 2], [3, 4]], pair=[5, 6] |
"""


def test_emit_prints_numpy_details_as_plain_values(capsys):
    report = Report("amitsur")
    report.add("laws", np.bool_(True), flag=np.bool_(False), count=np.int64(7),
               grid=np.array([[1, 2], [3, 4]]), pair=(np.int64(5), 6))
    parser = cli.build_parser()
    args = cli.config_from_args(parser.parse_args(["amitsur", "x.json"]), parser)
    payload = cli._payload(args, report)
    cli._emit(payload, "json")
    assert capsys.readouterr().out == EMITTED_JSON
    cli._emit(payload, "markdown")
    assert capsys.readouterr().out == EMITTED_MARKDOWN
