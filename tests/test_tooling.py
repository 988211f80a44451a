"""The names that outside code relies on still exist in the package.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by looking the name
up in its owner's namespace (``owner.__dict__[attr]``); a refactor that
drops or renames a traced function fails here rather than only in the
benchmark's own tests, and so does one that changes the arguments or
results its span counters read.  The README's library example runs as
written, every name the package exports resolves, and no module but
``linalg`` leaves integer arithmetic or tests which coordinate system
a tower step is held in.  On incidence algebras, whose base
acts diagonally, the selection paths stay gathers: no product runs
under them, and the generator search of the diagonal base reduces
nothing.  Their towers answer from the carrier's diagonals: no commutant
or centralizer solve runs, no other matrix is scanned for diagonality,
and the cup scatters selection cochains instead of multiplying them.
The hom solves of group algebras over subgroup algebras, monomial
towers, run no row reduction.
"""

import contextlib
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

import coringlab
from coringlab import cli, dga, hochschild, linalg, tensors
from coringlab.errors import SizeLimitError

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CORPUS = ROOT / "src" / "coringlab" / "corpus"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    for target in spans.TARGETS:
        owner, attr = spans._resolve(target)
        assert attr in owner.__dict__, target
        assert callable(owner.__dict__[attr]), target


def test_span_counters_read_what_the_package_passes(monkeypatch):
    spans = load_spans(monkeypatch)
    recorder = spans.Recorder()
    with spans.install(recorder):
        assert cli.main(["gs-compare", str(CORPUS / "filled_triangle.facets")]) == 0
        assert cli.main(["amitsur", str(CORPUS / "c3_gf3.json"), "--trials", "5"]) == 0
    recorded = recorder.take()
    homs = [s for s in recorded if s.name == "homspaces.build_hom"]
    rrefs = [s for s in recorded if s.name == "linalg.rref"]
    assert homs and rrefs
    assert all({"vars", "hom_dim"} <= s.counters.keys() for s in homs)
    assert all("rows_in" in s.counters for s in rrefs)
    assert spans.layer_metrics(recorded)["homspaces.hom_dim.sum"] > 0


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_every_export_resolves():
    for name in coringlab.__all__:
        assert getattr(coringlab, name, None) is not None, name


def test_degree_and_trials_defaults_are_the_single_constants():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert hochschild.HARD_DEGREE_CAP is tensors.HARD_DEGREE_CAP
    for fn in (coringlab.build_complex, coringlab.build_amitsur, coringlab.verify_main_theorem):
        assert default(fn, "max_degree") == hochschild.DEFAULT_DEGREE, fn.__name__
    for fn in (coringlab.verify_main_theorem, coringlab.verify_dga, coringlab.verify_morphism):
        assert default(fn, "trials") == dga.DEFAULT_TRIALS, fn.__name__
    parser = cli.build_parser()
    for command in ("cohomology", "amitsur", "verify-iso", "hopf-check"):
        args = cli.config_from_args(parser.parse_args([command, "x.json"]), parser)
        assert (args.max_degree, args.trials) == (hochschild.DEFAULT_DEGREE, dga.DEFAULT_TRIALS)
    # the cap refuses the first power above it
    cap = tensors.HARD_DEGREE_CAP
    e = coringlab.trivial_extension(coringlab.diagonal_algebra(coringlab.Field(2), 1))
    with pytest.raises(SizeLimitError, match=f"power {cap + 1} exceeds"):
        coringlab.build_power(e, cap + 1)


def test_only_linalg_leaves_the_integers():
    # exactness is decided in one place: ``linalg.mul_mod`` runs a product
    # in float64 or in int64 by its own bound, so no other module converts
    # residues to floating point or contracts them with ``einsum``
    leaves = re.compile(r"\bfloat(16|32|64)\b|np\.(float|double)|(astype\(|dtype=)float\b|einsum")
    for path in sorted((ROOT / "src" / "coringlab").glob("*.py")):
        if path.name != "linalg.py":
            hit = leaves.search(path.read_text(encoding="utf-8"))
            assert hit is None, (path.name, hit and hit.group())


# the flags a tower step's coordinate system was once read from
COORDINATE_FLAGS = re.compile(
    r"\.selection\b|isinstance\([^)]*\b(DualStep|Dual|Selection|Reduction)\b"
    r"|\.dual\s+is\b|diagonals\(1\)\s+is\b|\bfree\s+is\b")


def coordinate_flag_tests(src: Path) -> list[str]:
    """``module.py:line`` of every coordinate-system flag tested outside
    ``linalg``, the step types' own module."""
    return [f"{path.name}:{i}" for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if COORDINATE_FLAGS.search(line)]


def test_only_the_step_types_branch_on_the_coordinate_system():
    # a tower picks its step type once (``TensorTower._choose``) and asks
    # it the rest, so no other module tests which coordinates a step,
    # hom space or tower is held in
    assert coordinate_flag_tests(ROOT / "src" / "coringlab") == []


# the selection paths, which must read their spaces by gathers alone
GATHERS = {"project", "_project", "descend", "coords", "coords_of", "on_last", "then_identity"}


def calling(names):
    """The names in ``names`` of the package functions on the caller's stack."""
    frame, found = sys._getframe(2), []
    while frame is not None:
        if frame.f_code.co_name in names and "coringlab" in frame.f_code.co_filename:
            found.append(frame.f_code.co_name)
        frame = frame.f_back
    return found


def test_incidence_selections_run_no_products_and_pick_generators_unreduced(monkeypatch):
    plain_mul, plain_add = linalg.mul_mod, linalg.RrefAccumulator.add
    products, under = [], []

    def watched_mul(a, b, p):
        products.append(1)
        under.extend(calling(GATHERS))
        return plain_mul(a, b, p)

    def watched_add(acc, block):
        under.extend(calling({"generating_indices"}))
        return plain_add(acc, block)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coringlab" and vars(module).get("mul_mod") is plain_mul:
            monkeypatch.setattr(module, "mul_mod", watched_mul)
    monkeypatch.setattr(linalg.RrefAccumulator, "add", watched_add)
    for facets in ("filled_triangle", "hollow_triangle"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gs-compare", str(CORPUS / f"{facets}.facets"),
                             "--max-degree", "2"]) == 0
    # the cup and the ranks still multiply, so the watch is live
    assert products and under == []


def test_incidence_towers_answer_from_their_carrier_diagonals(monkeypatch):
    # the triangles' towers are diagonal: no commutant or centralizer
    # solve runs, diagonality is read off each tower's carrier actions
    # alone, and cochains of a selection degree are scattered, not
    # multiplied by their unit rows
    from coringlab import algebras

    plain_mul, plain_diagonal = linalg.mul_mod, linalg._diagonal_of
    towers, read, under = [], [], []

    def refused(*args):
        raise AssertionError("a solve ran on a diagonal tower")

    def watched_mul(a, b, p):
        under.extend(calling({"_matrices"}))
        return plain_mul(a, b, p)

    def watched_diagonal(m, p):
        read.append(m)
        return plain_diagonal(m, p)

    def kept(tower, *args):
        towers.append(tower)
        plain_init(tower, *args)

    plain_init = tensors.TensorTower.__init__
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coringlab":
            for attr, fn in (("commutant", refused), ("centralizer", refused),
                             ("mul_mod", watched_mul), ("_diagonal_of", watched_diagonal)):
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, fn)
    monkeypatch.setattr(tensors.TensorTower, "__init__", kept)
    for facets in ("filled_triangle", "hollow_triangle"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gs-compare", str(CORPUS / f"{facets}.facets"),
                             "--max-degree", "2"]) == 0
    carriers = [m.a for t in towers for mats in (t.left_mats, t.right_mats)
                for m in (mats[j] for j in t.gens)]
    assert towers and all(t.diagonals(1) is not None for t in towers)
    assert len(read) == len(carriers)
    assert all(any(m is c for c in carriers) for m in read)
    assert under == []


def test_group_algebra_hom_solves_run_no_row_reduction(monkeypatch):
    # both towers of each file are monomial, so build_hom solves by
    # orbits; the ranks and the generator search still reduce, so the
    # watch is live
    plain_init = linalg.RrefAccumulator.__init__
    made, under = [], []

    def watched(acc, ncols, p):
        made.append(ncols)
        under.extend(calling({"build_hom"}))
        plain_init(acc, ncols, p)

    monkeypatch.setattr(linalg.RrefAccumulator, "__init__", watched)
    for name in ("s3_c2_gf7", "s3_c3_gf2", "s3_c3_gf7", "a4_v4_gf3"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["cohomology", str(CORPUS / f"{name}.json")]) == 0
    assert made and under == []
