"""Bundled example inputs: extensions, bialgebras, and facet lists.

The data files under ``corpus/`` are generated by :func:`write_corpus`
from the builders here and committed; a test regenerates them into a
temporary directory and byte-compares, so the shipped files can never
drift from the constructors.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebras import (
    Extension,
    HopfData,
    diagonal_algebra,
    field_ext_algebra,
    group_algebra,
    group_hopf,
    matrix_algebra,
    trivial_extension,
    upper_triangular,
)
from .linalg import Field, Matrix
from .schemas import dump_extension, dump_hopf, load_extension, load_hopf, read_json

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

C2_TABLE = [[0, 1], [1, 0]]
C3_TABLE = [[(i + j) % 3 for j in range(3)] for i in range(3)]


S3_PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
S3_NAMES = ["e", "s12", "s13", "s23", "c123", "c132"]

# the even permutations of {0,1,2,3}: the Klein four-group first, then
# the 3-cycles, in lexicographic order of their images
A4_PERMS = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0),
            (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0),
            (2, 0, 1, 3), (2, 1, 3, 0), (3, 0, 2, 1), (3, 1, 0, 2)]


def composition_table(perms) -> list[list[int]]:
    """Multiplication table of a permutation group, g_i g_j = g_i ∘ g_j."""
    idx = {q: i for i, q in enumerate(perms)}
    return [[idx[tuple(a[b[i]] for i in range(len(b)))] for b in perms] for a in perms]


def s3_table() -> list[list[int]]:
    """Multiplication table of S3 from composing permutations of {0,1,2}."""
    return composition_table(S3_PERMS)


def subgroup_extension(p: int, perms, names, sub) -> Extension:
    """GF(p)[G] over GF(p)[H] for G the permutations ``perms`` and H the
    subgroup at the indices ``sub``, whose table is G's restricted."""
    table = composition_table(perms)
    big = group_algebra(Field(p), table, names)
    small = group_algebra(Field(p), [[sub.index(table[a][b]) for b in sub] for a in sub],
                          [names[i] for i in sub])
    inclusion = [[int(i == j) for j in sub] for i in range(len(perms))]
    return Extension(big, small, Matrix(p, inclusion))


def ut2_over_diagonal(p: int) -> Extension:
    a = upper_triangular(Field(p), 2)
    b = diagonal_algebra(Field(p), 2)
    return Extension(a, b, Matrix(p, [[1, 0], [0, 0], [0, 1]]))


def s3_over_c2(p: int) -> Extension:
    """GF(p)[S3] over the span of the identity and the transposition s12."""
    return subgroup_extension(p, S3_PERMS, S3_NAMES, [0, 1])


def s3_over_c3(p: int) -> Extension:
    """GF(p)[S3] over its rotations, a k[C2]-Galois extension."""
    return subgroup_extension(p, S3_PERMS, S3_NAMES, [0, 4, 5])


def a4_over_v4(p: int) -> Extension:
    """GF(p)[A4] over the Klein four-group, a k[C3]-Galois extension."""
    names = ["".join(map(str, q)) for q in A4_PERMS]
    return subgroup_extension(p, A4_PERMS, names, [0, 1, 2, 3])


EXTENSION_BUILDERS = {
    "c2_gf2": lambda: trivial_extension(group_algebra(Field(2), C2_TABLE, ["e", "g"])),
    "c2_gf3": lambda: trivial_extension(group_algebra(Field(3), C2_TABLE, ["e", "g"])),
    "c3_gf3": lambda: trivial_extension(group_algebra(Field(3), C3_TABLE, ["e", "g", "gg"])),
    "gf25_gf5": lambda: trivial_extension(field_ext_algebra(5, [3, 0, 1])),
    "m2_gf5": lambda: trivial_extension(matrix_algebra(Field(5), 2)),
    "m2_gf7": lambda: trivial_extension(matrix_algebra(Field(7), 2)),
    "s3_c2_gf7": lambda: s3_over_c2(7),
    "s3_c3_gf2": lambda: s3_over_c3(2),
    "s3_c3_gf7": lambda: s3_over_c3(7),
    "a4_v4_gf3": lambda: a4_over_v4(3),
    "ut2_diag_gf5": lambda: ut2_over_diagonal(5),
}

HOPF_BUILDERS = {
    "hopf_c2_gf2": lambda: group_hopf(Field(2), C2_TABLE, ["e", "g"]),
    "hopf_c2_gf3": lambda: group_hopf(Field(3), C2_TABLE, ["e", "g"]),
}

FACET_FILES = {
    "point": "0\n",
    "edge": "0 1\n",
    "two_points": "0\n1\n",
    "hollow_triangle": "0 1\n1 2\n0 2\n",
    "filled_triangle": "0 1 2\n",
}


def extension_names() -> list[str]:
    return sorted(EXTENSION_BUILDERS)


def hopf_names() -> list[str]:
    return sorted(HOPF_BUILDERS)


def facet_names() -> list[str]:
    return sorted(FACET_FILES)


def corpus_path(filename: str) -> Path:
    return CORPUS_DIR / filename


def load_corpus_extension(name: str) -> Extension:
    return load_extension(read_json(CORPUS_DIR / f"{name}.json"))


def load_corpus_hopf(name: str) -> HopfData:
    return load_hopf(read_json(CORPUS_DIR / f"{name}.json"))


def read_facets(name: str) -> str:
    return (CORPUS_DIR / f"{name}.facets").read_text(encoding="utf-8")


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_corpus(target_dir=None) -> list[Path]:
    """(Re)generate every corpus file; returns the paths written."""
    out = Path(target_dir) if target_dir is not None else CORPUS_DIR
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in EXTENSION_BUILDERS.items():
        path = out / f"{name}.json"
        path.write_text(_dump_json(dump_extension(build())), encoding="utf-8")
        written.append(path)
    for name, build in HOPF_BUILDERS.items():
        path = out / f"{name}.json"
        path.write_text(_dump_json(dump_hopf(build())), encoding="utf-8")
        written.append(path)
    for name, text in FACET_FILES.items():
        path = out / f"{name}.facets"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return sorted(written)
