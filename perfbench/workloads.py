"""The benchmark's workloads, their seeded inputs, and the expected answers.

Every command is a real ``coringlab`` CLI invocation.  Its expected
answer comes from this file alone: cohomology and space dimensions of
the bundled corpus are written out by hand from the mathematics (each
entry says why), and the Betti numbers of the generated graphs are
counted here by union-find.  Nothing in this file calls the code under
test to obtain an answer.

Workloads (why each was chosen is in README.md):

* ``coring-build`` -- ``amitsur`` and ``cohomology`` on the four corpus
  extensions whose coring axiom check builds a large ``power(3)``.
* ``law-check`` -- ``verify-iso``, ``amitsur --max-degree 4`` and
  ``hopf-check`` on the small carriers: many tiny products.
* ``incidence`` -- ``gs-compare`` on seeded random graphs and the two
  bundled triangles: bimodule-hom solves over many idempotents.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("coring-build", "law-check", "incidence")

# Law trials per check in coring-build: the axiom check dominates there,
# so a few trials keep the Leibniz loops from mattering.
CORING_BUILD_TRIALS = 5

# incidence: one random graph per (vertices, edges) slot.  A graph's
# incidence algebra has V + 3E basis pairs, and every space the command
# builds has a size fixed by V and E alone, so fixing the slots keeps the
# work of a pass the same for every seed while the seed picks the edges.
GRAPH_SLOTS = ((4, 3), (5, 4), (7, 4), (6, 5), (6, 6))
PAIR_RANGE = (12, 24)
GS_PRIMES = (2, 3, 5, 7)
DEFAULT_CAP = 20  # gs-compare's default --cap


@dataclass(frozen=True)
class Command:
    """One CLI call and the answer it must give.

    ``checks`` maps a report check name to the detail entries it must
    carry; a compiled regex matches a string detail by search.
    """

    id: str
    argv: tuple
    exit: int
    checks: dict = field(default_factory=dict)


# -- hand-written corpus answers ------------------------------------------
#
# ``hochschild`` lists dim H^0.. of the relative cochain complex;
# ``omega`` the dims of the coring tensor powers Omega^0..Omega^4.
CORPUS = {
    # M2(k) over k is separable with centre k: H^0 = k, higher H vanish.
    # Endomorphism coring: base R = M2 (dim 4), carrier End_k(M2) (16),
    # Omega^n = carrier^(x_R n) has dim 4 * 4^n.
    "m2_gf5": {"hochschild": [1, 0, 0, 0], "omega": [4, 16, 64, 256, 1024],
               "kind": "endomorphism", "carrier": 16},
    "m2_gf7": {"hochschild": [1, 0, 0, 0], "omega": [4, 16, 64, 256, 1024],
               "kind": "endomorphism", "carrier": 16},
    # GF(3)[C3] = k[x]/(x^3) with 3 = char: every HH^n has dim 3.
    # Base R = A (dim 3), carrier A (x) A^op (9), Omega^n dim 3 * 3^n.
    "c3_gf3": {"hochschild": [3, 3, 3, 3], "omega": [3, 9, 27, 81, 243],
               "kind": "endomorphism", "carrier": 9},
    # GF(2)[C2] = k[x]/(x^2) with 2 = char: every HH^n has dim 2.
    "c2_gf2": {"hochschild": [2, 2, 2, 2], "omega": [2, 4, 8, 16, 32],
               "kind": "endomorphism", "carrier": 4},
    # GF(3)[C2] is split semisimple and commutative: H^0 = A, rest 0.
    "c2_gf3": {"hochschild": [2, 0, 0, 0], "omega": [2, 4, 8, 16, 32],
               "kind": "endomorphism", "carrier": 4},
    # GF(25)/GF(5) is a separable field extension: H^0 = A, rest 0.
    "gf25_gf5": {"hochschild": [2, 0, 0, 0], "omega": [2, 4, 8, 16, 32],
                 "kind": "endomorphism", "carrier": 4},
    # Upper-triangular 2x2 over its diagonal: the path algebra of A2 over
    # its vertices, centre k, hereditary on a tree, so H = [1, 0, 0].
    # One bimodule endomorphism per Peirce block: carrier 3 over R = diag
    # (2); Omega^n counts chains i0 <= ... <= in of the 2 vertices: n + 2.
    "ut2_diag_gf5": {"hochschild": [1, 0, 0, 0], "omega": [2, 3, 4, 5, 6],
                     "kind": "endomorphism", "carrier": 3},
    # GF(7)[S3] over GF(7)[C2]: semisimple (7 does not divide 6), so only
    # H^0 = centre (3 conjugacy classes) survives.  No depth-two
    # certificate: Hom(A (x)_B A, A) is 28-dim, S (x)_R S is 26-dim.  The
    # Sweedler coring A (x)_B A (A is B-free of rank 3, so 18-dim) over A
    # (6-dim) has Omega^n of dim 6 * 3^n and, A being faithfully flat over
    # B, descent cohomology [dim B, 0, 0].
    "s3_c2_gf7": {"hochschild": [3, 0, 0, 0], "omega": [6, 18, 54, 162, 486],
                  "kind": "sweedler", "carrier": 18, "amitsur": [2, 0, 0, 0],
                  "hom_dim": 28, "square_dim": 26},
}

# Hopf factorization: for a group bialgebra kG with G abelian,
# HH^n(kG) = |G| * H^n(G, k), and the dual cobar complex computes H^n(G, k).
# For G = C2: H^n(C2, GF(2)) = 1 in every degree, H^n(C2, GF(3)) = 0 for n > 0.
HOPF = {
    "hopf_c2_gf2": {"dim": 2, "cobar": [1, 1, 1, 1]},
    "hopf_c2_gf3": {"dim": 2, "cobar": [1, 0, 0, 0]},
}

# The bundled facet files: a hollow triangle is a circle (H = [1, 1]),
# a filled one is contractible (H = [1, 0]).
BUNDLED_COMPLEXES = {"hollow_triangle": [1, 1], "filled_triangle": [1, 0]}


def corpus_dir(root: Path) -> Path:
    return root / "src" / "coringlab" / "corpus"


def amitsur_command(root: Path, name: str, degree: int, trials: int, seed: int) -> Command:
    ans = CORPUS[name]
    coh = ans.get("amitsur", ans["hochschild"])[:degree]
    argv = ("amitsur", str(corpus_dir(root) / f"{name}.json"),
            "--trials", str(trials), "--seed", str(seed))
    if degree != 3:
        argv += ("--max-degree", str(degree))
    return Command(f"amitsur:{name}", argv, 0, {
        "coring": {"kind": ans["kind"], "carrier_dim": ans["carrier"],
                   "base_dim": ans["omega"][0]},
        "omega dims": {"dims": ans["omega"][:degree + 1]},
        "cohomology": {"dims": coh},
    })


def cohomology_command(root: Path, name: str) -> Command:
    ans = CORPUS[name]
    hoch = ans["hochschild"][:3]
    checks = {"hochschild cohomology": {"dims": hoch}}
    if "hom_dim" in ans:
        checks["amitsur section"] = {"hom_dim": ans["hom_dim"],
                                     "square_dim": ans["square_dim"]}
    else:
        checks["amitsur cohomology"] = {"dims": hoch}
        checks["cohomology dims agree"] = {"hochschild": hoch, "amitsur": hoch}
    return Command(f"cohomology:{name}", ("cohomology", str(corpus_dir(root) / f"{name}.json")),
                   0, checks)


def verify_iso_command(root: Path, name: str, seed: int) -> Command:
    ans = CORPUS[name]
    argv = ("verify-iso", str(corpus_dir(root) / f"{name}.json"), "--seed", str(seed))
    if "hom_dim" in ans:
        # the certificate diagnostic names the two dimensions
        pattern = re.compile(rf"\b{ans['hom_dim']}\b.*\b{ans['square_dim']}\b")
        return Command(f"verify-iso:{name}", argv, 1,
                       {"depth-two certificate": {"error": pattern}})
    hoch = ans["hochschild"][:3]
    checks = {f"f{n} bijective": {"omega_dim": ans["omega"][n], "cochain_dim": ans["omega"][n]}
              for n in range(4)}
    checks["cohomology dims agree"] = {"hochschild": hoch, "amitsur": hoch}
    return Command(f"verify-iso:{name}", argv, 0, checks)


def hopf_command(root: Path, name: str, degree: int) -> Command:
    ans = HOPF[name]
    cobar = ans["cobar"][:degree]
    hoch = [ans["dim"] * c for c in cobar]
    checks = {"hochschild dims over the unit line": {"dims": hoch},
              "dual cobar dims": {"dims": cobar}}
    for n in range(2, degree):
        checks[f"H^{n} factorization"] = {"hochschild": hoch[n], "cobar": cobar[n]}
    return Command(f"hopf-check:{name}",
                   ("hopf-check", str(corpus_dir(root) / f"{name}.json"),
                    "--max-degree", str(degree)), 0, checks)


def gs_command(cid: str, path: Path, betti: list[int], prime: int, pairs: int) -> Command:
    argv = ("gs-compare", str(path), "--field", str(prime))
    if pairs > DEFAULT_CAP:
        argv += ("--cap", str(pairs))
    checks = {f"H^{n} dims match": {"extension": b, "simplicial": b}
              for n, b in enumerate(betti)}
    return Command(cid, argv, 0, checks)


# -- seeded graphs and their Betti numbers ---------------------------------


def random_graph(rng: random.Random, n_vertices: int, n_edges: int) -> list[tuple]:
    """Facets of a simple graph on vertices 0..V-1 with exactly E edges.

    Vertices left without an edge are listed as one-vertex facets, so
    every vertex is a face of the complex.
    """
    all_pairs = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    edges = rng.sample(all_pairs, n_edges)
    used = {v for e in edges for v in e}
    return edges + [(v,) for v in range(n_vertices) if v not in used]


def graph_betti(facets: list[tuple]) -> list[int]:
    """[H^0, H^1] of a graph: components by union-find, then E - V + H^0."""
    vertices = sorted({v for f in facets for v in f})
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = [f for f in facets if len(f) == 2]
    for a, b in edges:
        parent[find(a)] = find(b)
    components = len({find(v) for v in vertices})
    return [components, len(edges) - len(vertices) + components]


def incidence_pairs(facets: list[tuple]) -> int:
    """Basis size of a graph's incidence algebra: V + E identities + 2E."""
    n_vertices = len({v for f in facets for v in f})
    n_edges = sum(1 for f in facets if len(f) == 2)
    return n_vertices + 3 * n_edges


def facet_text(facets: list[tuple]) -> str:
    return "".join(" ".join(map(str, f)) + "\n" for f in facets)


# -- workload assembly -----------------------------------------------------


@dataclass
class Workload:
    commands: list          # in the seeded run order
    json_inputs: list       # input files to load and validate at set-up
    facet_inputs: list


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Commands and input files of a workload; same seed, same workload.

    Facet files of generated graphs are written into ``workdir``.
    """
    rng = random.Random(f"{name}:{seed}")
    trial_seed = rng.randrange(2**31)
    commands: list[Command] = []
    facet_inputs: list[Path] = []
    if name == "coring-build":
        for ext in ("m2_gf5", "m2_gf7", "c3_gf3", "s3_c2_gf7"):
            commands.append(amitsur_command(root, ext, 3, CORING_BUILD_TRIALS, trial_seed))
            commands.append(cohomology_command(root, ext))
    elif name == "law-check":
        for ext in ("c2_gf2", "c2_gf3", "gf25_gf5", "ut2_diag_gf5"):
            commands.append(verify_iso_command(root, ext, trial_seed))
            commands.append(amitsur_command(root, ext, 4, 50, trial_seed))
        for hopf in HOPF:
            commands.append(hopf_command(root, hopf, 4))
        commands.append(verify_iso_command(root, "s3_c2_gf7", trial_seed))
    elif name == "incidence":
        prime = rng.choice(GS_PRIMES)
        workdir.mkdir(parents=True, exist_ok=True)
        for v, e in GRAPH_SLOTS:
            facets = random_graph(rng, v, e)
            path = workdir / f"graph_v{v}_e{e}.facets"
            path.write_text(facet_text(facets), encoding="utf-8")
            facet_inputs.append(path)
            commands.append(gs_command(f"gs-compare:graph_v{v}_e{e}", path,
                                       graph_betti(facets), prime, incidence_pairs(facets)))
        for cname, betti in BUNDLED_COMPLEXES.items():
            path = corpus_dir(root) / f"{cname}.facets"
            facet_inputs.append(path)
            commands.append(gs_command(f"gs-compare:{cname}", path, betti, prime, 0))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(commands)
    json_inputs = sorted({a for c in commands for a in c.argv if a.endswith(".json")})
    return Workload(commands, json_inputs, facet_inputs)


def _matches(expected, actual) -> bool:
    if isinstance(expected, re.Pattern):
        return isinstance(actual, str) and expected.search(actual) is not None
    return expected == actual


def mismatches(cmd: Command, code, payload) -> list[str]:
    """Every way a command's exit code and report differ from its answer."""
    if code != cmd.exit:
        return [f"exit {code}, expected {cmd.exit}"]
    if payload is None:
        return ["no JSON report"]
    out = []
    if payload.get("ok") != (cmd.exit == 0):
        out.append(f"ok is {payload.get('ok')}")
    checks = {c["name"]: c for c in payload.get("checks", [])}
    for name, detail in cmd.checks.items():
        check = checks.get(name)
        if check is None:
            out.append(f"missing check {name!r}")
            continue
        if cmd.exit == 0 and not check["ok"]:
            out.append(f"check {name!r} failed")
        for key, want in detail.items():
            got = check["detail"].get(key)
            if not _matches(want, got):
                out.append(f"{name}.{key} = {got!r}, expected {want!r}")
    return out
