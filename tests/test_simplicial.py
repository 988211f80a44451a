"""Facet parsing, incidence algebras, and the two-sided cohomology match."""

import itertools

import numpy as np
import pytest

from coringlab import Field, validate
from coringlab.errors import FacetParseError, SizeLimitError
from coringlab.simplicial import (
    SimplicialComplex,
    gs_compare,
    incidence_extension,
    parse_complex,
    simplicial_cohomology,
)

F5 = Field(5)

POINT = "0\n"
EDGE = "0 1\n"
TWO_POINTS = "0\n1\n"
HOLLOW = "0 1\n1 2\n0 2\n"
FILLED = "0 1 2\n"


def test_parse_counts():
    assert len(parse_complex(POINT).faces) == 1
    assert len(parse_complex(HOLLOW).faces) == 6
    assert len(parse_complex(FILLED).faces) == 7


def test_parse_comments_blanks_duplicates():
    text = "# a triangle rim\n\n0 1\n1 2   # last two\n\n0 2\n0 1\n"
    s = parse_complex(text)
    assert len(s.faces) == 6
    assert s.facets.count((0, 1)) == 2  # kept, harmless


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FacetParseError, match="line 2"):
        parse_complex("0 1\n1 x\n")
    with pytest.raises(FacetParseError, match="line 3"):
        parse_complex("0\n1\n2 -1\n")
    with pytest.raises(FacetParseError, match="no facets"):
        parse_complex("# nothing\n\n")


def test_faces_closed_under_subsets_and_sorted():
    s = parse_complex("0 1 2\n2 3\n")
    for face in s.faces:
        for r in range(1, len(face) + 1):
            for sub in itertools.combinations(face, r):
                assert sub in s.faces
    assert list(s.faces) == sorted(s.faces, key=lambda f: (len(f), f))
    assert s.n_vertices == 4


def test_empty_facet_rejected():
    with pytest.raises(ValueError, match="empty facet"):
        SimplicialComplex([[0], []])


@pytest.mark.parametrize("text,dim_a,dim_b", [
    (POINT, 1, 1), (EDGE, 5, 3), (HOLLOW, 12, 6), (FILLED, 19, 7)])
def test_incidence_dimensions(text, dim_a, dim_b):
    s = parse_complex(text)
    e = incidence_extension(s, F5)
    assert (e.ambient.dim, e.sub.dim) == (dim_a, dim_b)
    # independent count: subsets of each face are exactly the faces below it
    assert dim_a == sum(2 ** len(f) - 1 for f in s.faces)
    assert validate(e.ambient).ok


def test_incidence_product_law():
    s = parse_complex(HOLLOW)
    e = incidence_extension(s, F5)
    a = e.ambient
    names = list(a.basis_names)
    i = names.index("e[0|0.1]")
    j = names.index("e[0.1|0.1]")

    def basis_vec(k):
        v = np.zeros(a.dim, dtype=np.int64)
        v[k] = 1
        return v

    # composable pair multiplies through, swapped order annihilates
    prod = a.multiply(basis_vec(i), basis_vec(j))
    assert np.array_equal(prod, basis_vec(i))
    assert not a.multiply(basis_vec(j), basis_vec(i)).any()
    # diagonal elements are orthogonal idempotents summing to 1
    k0 = names.index("e[0|0]")
    k1 = names.index("e[1|1]")
    assert np.array_equal(a.multiply(basis_vec(k0), basis_vec(k0)), basis_vec(k0))
    assert not a.multiply(basis_vec(k0), basis_vec(k1)).any()


@pytest.mark.parametrize("text,dims", [
    (POINT, [1, 0, 0]),
    (EDGE, [1, 0, 0]),
    (TWO_POINTS, [2, 0, 0]),
    (HOLLOW, [1, 1, 0]),
    (FILLED, [1, 0, 0]),
])
def test_simplicial_oracle(text, dims):
    assert simplicial_cohomology(parse_complex(text), F5, 2) == dims


def test_sphere_oracle_any_prime():
    # boundary of the 3-simplex; top cohomology must survive at odd p,
    # which pins the alternating signs
    s = parse_complex("0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    assert len(s.faces) == 14
    for p in (2, 5, 7):
        assert simplicial_cohomology(s, Field(p), 3) == [1, 0, 1, 0]


@pytest.mark.parametrize("text,expected", [
    (POINT, [1, 0]),
    (EDGE, [1, 0]),
    (TWO_POINTS, [2, 0]),
    (HOLLOW, [1, 1]),
    (FILLED, [1, 0]),
])
def test_gs_match_on_corpus(text, expected):
    rep = gs_compare(parse_complex(text), F5, 1)
    assert rep.ok
    got = [(c.detail["extension"], c.detail["simplicial"]) for c in rep.checks]
    assert got == [(d, d) for d in expected]


def test_gs_size_cap():
    with pytest.raises(SizeLimitError, match="exceeds the cap"):
        gs_compare(parse_complex(FILLED), F5, 1, cap=10)


def test_gs_size_cap_counts_pairs_before_building_the_algebra(monkeypatch):
    import coringlab.simplicial as simplicial

    def unbuilt(*args):
        raise AssertionError("the incidence algebra was built")

    monkeypatch.setattr(simplicial, "incidence_extension", unbuilt)
    with pytest.raises(SizeLimitError, match="dimension 19 exceeds the cap 18"):
        gs_compare(parse_complex(FILLED), F5, 1, cap=18)


def test_parse_cap_bounds_each_facet_by_its_own_pairs():
    # the filled triangle's one facet spans all 3**3 - 2**3 = 19 pairs
    assert len(parse_complex(FILLED, cap=19).faces) == 7
    with pytest.raises(SizeLimitError, match="a facet of 3 vertices"):
        parse_complex(FILLED, cap=18)
    # the hollow triangle's 12 pairs are more than any one edge's 5
    assert len(parse_complex(HOLLOW, cap=5).faces) == 6
