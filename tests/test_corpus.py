"""The shipped corpus files must match their builders byte for byte."""

import numpy as np

from coringlab.algebras import validate
from coringlab.corings import build_f2
from coringlab.corpus import (
    CORPUS_DIR,
    EXTENSION_BUILDERS,
    extension_names,
    facet_names,
    hopf_names,
    load_corpus_extension,
    load_corpus_hopf,
    read_facets,
    s3_table,
    write_corpus,
)
from coringlab.simplicial import parse_complex

EXPECTED_SHAPES = {
    "c2_gf2": (2, 2, 1),
    "c2_gf3": (3, 2, 1),
    "c3_gf3": (3, 3, 1),
    "gf25_gf5": (5, 2, 1),
    "m2_gf5": (5, 4, 1),
    "m2_gf7": (7, 4, 1),
    "s3_c2_gf7": (7, 6, 2),
    "s3_c3_gf2": (2, 6, 3),
    "s3_c3_gf7": (7, 6, 3),
    "a4_v4_gf3": (3, 12, 4),
    "ut2_diag_gf5": (5, 3, 2),
}


def test_regeneration_is_byte_identical(tmp_path):
    fresh = write_corpus(tmp_path)
    shipped = sorted(CORPUS_DIR.iterdir())
    assert [f.name for f in fresh] == [f.name for f in shipped]
    for new, old in zip(fresh, shipped):
        assert new.read_bytes() == old.read_bytes(), old.name


def test_every_extension_loads_and_validates():
    assert extension_names() == sorted(EXPECTED_SHAPES)
    for name in extension_names():
        e = load_corpus_extension(name)
        p, dim_a, dim_b = EXPECTED_SHAPES[name]
        assert (e.p, e.ambient.dim, e.sub.dim) == (p, dim_a, dim_b)
        assert validate(e.ambient).ok
        assert validate(e.sub).ok


def test_hopf_entries_load():
    assert hopf_names() == ["hopf_c2_gf2", "hopf_c2_gf3"]
    for name in hopf_names():
        h = load_corpus_hopf(name)
        assert h.algebra.dim == 2
        assert np.array_equal(h.counit.a, [[1, 1]])


def test_facet_files_parse():
    expected_faces = {
        "point": 1,
        "edge": 3,
        "two_points": 2,
        "hollow_triangle": 6,
        "filled_triangle": 7,
    }
    assert facet_names() == sorted(expected_faces)
    for name in facet_names():
        s = parse_complex(read_facets(name))
        assert len(s.faces) == expected_faces[name]


def test_s3_table_is_a_group():
    t = s3_table()
    assert [row[0] for row in t] == list(range(6))  # e is right identity
    assert t[0] == list(range(6))
    for a in range(6):
        assert sorted(t[a]) == list(range(6))  # rows are permutations
        assert sorted(t[b][a] for b in range(6)) == list(range(6))
    # associativity, brute force over all triples
    for a in range(6):
        for b in range(6):
            for c in range(6):
                assert t[t[a][b]][c] == t[a][t[b][c]]


def test_s3_entry_matches_independent_builder():
    from conftest import s3_c2_extension

    theirs = s3_c2_extension(7)
    ours = load_corpus_extension("s3_c2_gf7")
    assert np.array_equal(ours.ambient.tensor, theirs.ambient.tensor)
    assert np.array_equal(ours.inclusion.a, theirs.inclusion.a)


def test_certified_entries_have_bijective_f2():
    for name in extension_names():
        cert = build_f2(load_corpus_extension(name))
        assert cert.bijective == (name != "s3_c2_gf7"), name
