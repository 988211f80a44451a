"""The nine acceptance checks, one printed verdict line per criterion.

The heavyweight complex builds are shared through a module-level cache:
criterion 1 pays for them, criteria 3 and 4 reuse the dimension lists.
Verdict lines print outside pytest's capture so they always reach the
terminal, pass or fail.
"""

import json
import subprocess
import sys
import time

import numpy as np

from conftest import naive_rank
from test_homspaces import brute_hom_dim

from coringlab.algebras import dual_hopf, trivial_extension
from coringlab.amitsur import amitsur_cohomology, build_amitsur, verify_amitsur_dga
from coringlab.corings import build_f2, endo_coring, hopf_coring, sweedler_coring
from coringlab.corpus import (
    corpus_path,
    extension_names,
    facet_names,
    load_corpus_extension,
    load_corpus_hopf,
    read_facets,
)
from coringlab.hochschild import build_complex, cohomology_dims, verify_hochschild_dga
from coringlab.isomorphism import verify_main_theorem
from coringlab.linalg import Field
from coringlab.simplicial import gs_compare, parse_complex
from coringlab.tensors import build_power

HOCHSCHILD_DEPTH = 4
# Tensor degree 4 of a coring is cheap only while the carrier stays
# small; the big carriers (9, 16, 18) keep the default depth 3.
AMITSUR_DEPTH = {
    "c2_gf2": 4,
    "c2_gf3": 4,
    "c3_gf3": 3,
    "gf25_gf5": 4,
    "m2_gf5": 3,
    "m2_gf7": 3,
    "s3_c2_gf7": 3,
    "s3_c3_gf2": 3,
    "s3_c3_gf7": 3,
    "a4_v4_gf3": 3,
    "ut2_diag_gf5": 4,
}

_BUILDS = {}


def corpus_builds():
    if not _BUILDS:
        for name in extension_names():
            e = load_corpus_extension(name)
            cert = build_f2(e)
            coring = endo_coring(e, cert) if cert.bijective else sweedler_coring(e)
            cochain = build_complex(e, HOCHSCHILD_DEPTH)
            omega = build_amitsur(coring, AMITSUR_DEPTH[name])
            _BUILDS[name] = {
                "extension": e,
                "certified": cert.bijective,
                "cochain": cochain,
                "omega": omega,
                "hochschild_dims": cohomology_dims(cochain),
                "amitsur_dims": amitsur_cohomology(omega),
            }
    return _BUILDS


def report_line(capsys, number, ok, summary):
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} — {summary}")


def test_criterion_1_dga_law_suite(capsys):
    started = time.perf_counter()
    builds = corpus_builds()
    problems = []
    for name, b in builds.items():
        reports = (
            ("delta", verify_hochschild_dga(b["cochain"], trials=50, seed=11),
             HOCHSCHILD_DEPTH),
            ("d", verify_amitsur_dga(b["omega"], trials=50, seed=11),
             AMITSUR_DEPTH[name]),
        )
        for word, rep, depth in reports:
            problems += [f"{name}: {c.name}" for c in rep.failures()]
            names = {c.name for c in rep.checks}
            for n in range(depth - 1):
                wanted = f"{word}^{n + 1} . {word}^{n} = 0"
                if wanted not in names:
                    problems.append(f"{name}: missing {wanted}")
            leibniz = [c for c in rep.checks if c.name.startswith("leibniz")]
            if not leibniz or any(c.detail["trials"] < 50 for c in leibniz):
                problems.append(f"{name}: thin leibniz sampling ({word})")
    elapsed = time.perf_counter() - started
    ok = len(builds) >= 6 and not problems and elapsed < 120.0
    report_line(capsys, 1, ok,
                f"{len(builds)} extensions, composite and Leibniz laws exact on both "
                f"complexes (cochain depth 4, coring depth 3-4), {elapsed:.1f}s")
    assert len(builds) >= 6
    assert not problems, problems
    assert elapsed < 120.0


def test_criterion_2_main_theorem(capsys):
    started = time.perf_counter()
    problems = []
    for name in ("ut2_diag_gf5", "m2_gf5", "c2_gf2"):
        witness = verify_main_theorem(load_corpus_extension(name),
                                      max_degree=3, trials=50, seed=7)
        problems += [f"{name}: {c.name}" for c in witness.report.failures()]
        names = {c.name for c in witness.report.checks}
        for n in range(4):
            if f"f{n} bijective" not in names:
                problems.append(f"{name}: missing f{n} bijective")
        for n in range(3):
            if f"chain square degree {n}" not in names:
                problems.append(f"{name}: missing chain square degree {n}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 300.0
    report_line(capsys, 2, ok,
                f"f_n bijective, chain squares, multiplicativity on ut2/diag, "
                f"M2(GF5), GF2[C2] up to degree 3, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 300.0


def test_criterion_3_dimension_agreement(capsys):
    builds = corpus_builds()
    certified = {n: b for n, b in builds.items() if b["certified"]}
    mismatches = {
        name: (b["hochschild_dims"][:3], b["amitsur_dims"][:3])
        for name, b in certified.items()
        if b["hochschild_dims"][:3] != b["amitsur_dims"][:3]
    }
    ok = len(certified) == 10 and not mismatches
    report_line(capsys, 3, ok,
                f"H^0..H^2 agree degreewise on all {len(certified)} certified extensions")
    assert len(certified) == 10
    assert not mismatches, mismatches


def test_criterion_4_matrix_algebra_vanishing(capsys):
    builds = corpus_builds()
    problems = []
    for name in ("m2_gf5", "m2_gf7"):
        for key in ("hochschild_dims", "amitsur_dims"):
            dims = builds[name][key]
            if dims[1:3] != [0, 0]:
                problems.append((name, key, dims))
    ok = not problems
    report_line(capsys, 4, ok,
                "H^1 = H^2 = 0 for M2(GF5) and M2(GF7) by both complexes")
    assert not problems, problems


def test_criterion_5_sweedler_acyclicity(capsys):
    e = load_corpus_extension("gf25_gf5")
    dims = amitsur_cohomology(build_amitsur(sweedler_coring(e), 3))
    ok = dims == [1, 0, 0]
    report_line(capsys, 5, ok,
                f"Sweedler coring of GF(25)/GF(5): cohomology dims {dims}")
    assert dims == [1, 0, 0]


def test_criterion_6_gs_comparison(capsys):
    started = time.perf_counter()
    field = Field(5)
    observed = {}
    problems = []
    for name in facet_names():
        rep = gs_compare(parse_complex(read_facets(name)), field, max_n=1)
        problems += [f"{name}: {c.name}" for c in rep.failures()]
        observed[name] = tuple(c.detail["simplicial"] for c in rep.checks)
    elapsed = time.perf_counter() - started
    if observed.get("hollow_triangle") != (1, 1):
        problems.append(f"hollow triangle dims {observed.get('hollow_triangle')}")
    if observed.get("two_points", (0,))[0] != 2:
        problems.append(f"two-points H^0 dims {observed.get('two_points')}")
    ok = not problems and elapsed < 180.0
    report_line(capsys, 6, ok,
                f"extension vs simplicial dims match on 5 complexes at n <= 1, "
                f"{elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 180.0


def test_criterion_7_hopf_factorization(capsys):
    problems = []
    for name in ("hopf_c2_gf2", "hopf_c2_gf3"):
        h = load_corpus_hopf(name)
        k_dim = h.algebra.dim
        hoch = cohomology_dims(build_complex(trivial_extension(h.algebra), 4))
        cobar = amitsur_cohomology(build_amitsur(hopf_coring(dual_hopf(h)), 4))
        for n in (2, 3):
            if hoch[n] != k_dim * cobar[n]:
                problems.append((name, n, hoch[n], k_dim, cobar[n]))
    ok = not problems
    report_line(capsys, 7, ok,
                "dim H^n(K, k.1; K) = dim K x dual cobar dim for n = 2, 3 "
                "on GF2[C2] and GF3[C2], independent code paths")
    assert not problems, problems


def test_criterion_8_negative_path(capsys):
    e = load_corpus_extension("s3_c2_gf7")
    cert = build_f2(e)
    eye = np.eye(cert.s_dim, dtype=np.int64)
    rows = []
    for lm, rm in zip(cert.left_mats, cert.right_mats):
        rows.extend((((np.kron(rm.a, eye) - np.kron(eye, lm.a)) % e.p).T).tolist())
    independent_square = cert.s_dim ** 2 - naive_rank(rows, e.p)
    independent_hom = brute_hom_dim(e, build_power(e, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "coringlab.cli", "verify-iso",
         str(corpus_path("s3_c2_gf7.json"))],
        capture_output=True, text=True)
    payload = json.loads(proc.stdout) if proc.stdout else {"ok": None, "checks": []}
    ok = (not cert.bijective
          and cert.square_dim == independent_square
          and cert.hom_dim == independent_hom
          and proc.returncode == 1
          and payload["ok"] is False)
    report_line(capsys, 8, ok,
                f"GF7[S3]/GF7[C2]: square dim {cert.square_dim} vs hom dim "
                f"{cert.hom_dim}, independently confirmed; verify-iso exit "
                f"{proc.returncode}")
    assert not cert.bijective
    assert cert.square_dim == independent_square == 26
    assert cert.hom_dim == independent_hom == 28
    assert proc.returncode == 1
    assert payload["ok"] is False
    assert "depth-two certificate fails" in payload["checks"][0]["detail"]["error"]


def test_criterion_9_byte_determinism(capsys):
    seed = ["--seed", "123"]
    commands = [
        ["validate"] + [str(corpus_path(f"{n}.json")) for n in extension_names()],
        ["cohomology", str(corpus_path("ut2_diag_gf5.json"))] + seed,
        ["cohomology", str(corpus_path("s3_c2_gf7.json"))] + seed,
        ["amitsur", str(corpus_path("gf25_gf5.json")), "--trials", "25"] + seed,
        ["amitsur", str(corpus_path("s3_c2_gf7.json")), "--max-degree", "2",
         "--trials", "10"] + seed,
        ["verify-iso", str(corpus_path("c2_gf2.json")), "--trials", "25"] + seed,
        ["verify-iso", str(corpus_path("s3_c2_gf7.json"))] + seed,
        ["hopf-check", str(corpus_path("hopf_c2_gf2.json")), "--max-degree", "4"] + seed,
        ["hopf-check", str(corpus_path("hopf_c2_gf3.json")), "--max-degree", "4"] + seed,
    ]
    commands += [["gs-compare", str(corpus_path(f"{n}.facets"))] + seed
                 for n in facet_names()]
    unstable = []
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "coringlab.cli"] + argv,
                               capture_output=True)
                for _ in range(2)]
        if runs[0].stdout != runs[1].stdout:
            unstable.append(argv[0])
        if not runs[0].stdout.strip():
            unstable.append(f"{argv[0]}: empty report")
    ok = not unstable
    report_line(capsys, 9, ok,
                f"{len(commands)} command invocations doubled, json reports "
                f"byte-identical at fixed seed")
    assert not unstable, unstable
